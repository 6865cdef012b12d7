"""Instance files, generators, and SVG export.

An instance bundles a weight window with one endpoint pair under a short
label. The text format is line oriented, UTF-8, with '#' starting a
comment anywhere on a line:

    TRIGRID 1
    ROWS <r> COLS <c>
    WEIGHTS
    <r lines of c tokens, each a positive decimal or "inf">
    SOURCE <i> <j>
    TARGET <i> <j>

Weight rows are stored row 0 first; cell (row, col) points upward exactly
when row + col is even. Serialization writes repr-exact floats, so a
parse/serialize round trip is the identity on normalized text.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Mapping, Sequence, Tuple, Union

from .grid_paths import UnreachableError, shortest_grid_path
from .metric import WeightMap
from .tessellation import (
    SQRT3,
    Corner,
    Point,
    Tessellation,
    cell_vertices,
    corner_position,
)

_RETRY_BUDGET = 64


class ParseError(ValueError):
    """Malformed instance text; the message carries the line number."""


class GenerationError(Exception):
    """No mutually reachable endpoint pair within the retry budget."""


@dataclass(frozen=True)
class Instance:
    tessellation: Tessellation
    weights: WeightMap
    source: Corner
    target: Corner
    label: str

    def __post_init__(self):
        if self.weights.rows != self.tessellation.rows or (
            self.weights.cols != self.tessellation.cols
        ):
            raise ValueError("weight grid does not match the window")
        for name in ("source", "target"):
            corner = getattr(self, name)
            if not self.tessellation.valid_corner(corner):
                raise ValueError(f"{name} is not a corner of the window: {corner!r}")


def gen_strip(k: int) -> Instance:
    """The tight-ratio strip of k stacked rhombi.

    The canonical description centers the strip on column -1; the window
    cannot hold negative columns, so everything is translated two columns
    right (the label records the shift). Endpoints sit at the bottom and
    top of the weighted column: any grid path pays 4 per level while the
    straight vertical segment pays 2*sqrt(3), making the cost ratio
    exactly 2/sqrt(3) at every k.
    """
    if k < 1:
        raise ValueError("strip needs at least one level")
    rows = 2 * k
    grid = [[math.inf, 1.0, math.inf] for _ in range(rows)]
    return Instance(
        tessellation=Tessellation(rows, 3),
        weights=WeightMap(grid),
        source=(2, 0),
        target=(2, rows),
        label=f"strip-k{k}-shift2",
    )


def _far_corner(rows: int, cols: int) -> Corner:
    i = cols if (rows + cols) % 2 == 0 else cols - 1
    return (i, rows)


def _sample(
    rows: int,
    cols: int,
    seed: int,
    label: str,
    draw: Callable[[random.Random], float],
) -> Instance:
    # one RNG across retries keeps the generator a pure function of the seed
    if rows < 1 or cols < 1:
        raise ValueError("window needs at least one row and one column")
    rng = random.Random(seed)
    tess = Tessellation(rows, cols)
    source = (0, 0)
    target = _far_corner(rows, cols)
    for _ in range(_RETRY_BUDGET):
        grid = [[draw(rng) for _ in range(cols)] for _ in range(rows)]
        inst = Instance(tess, WeightMap(grid), source, target, label)
        try:
            shortest_grid_path(tess, inst.weights, source, target)
        except UnreachableError:
            continue
        return inst
    raise GenerationError(
        f"no reachable endpoint pair in {_RETRY_BUDGET} draws for seed {seed}"
    )


def gen_random(
    rows: int,
    cols: int,
    seed: int,
    weight_low: float = 0.1,
    weight_high: float = 10.0,
    inf_prob: float = 0.1,
) -> Instance:
    """Log-uniform weights with independently blocked cells.

    Weights are resampled (same RNG stream, bounded retries) until the
    endpoint pair is reachable.
    """
    if not (0.0 < weight_low <= weight_high) or math.isinf(weight_high):
        raise ValueError("weight bounds must satisfy 0 < low <= high < inf")
    if not 0.0 <= inf_prob < 1.0:
        raise ValueError("inf_prob must lie in [0, 1)")
    lo, hi = math.log(weight_low), math.log(weight_high)

    def draw(rng: random.Random) -> float:
        if rng.random() < inf_prob:
            return math.inf
        return math.exp(rng.uniform(lo, hi))

    return _sample(rows, cols, seed, f"random-{rows}x{cols}-s{seed}", draw)


def gen_two_weight_maze(rows: int, cols: int, seed: int, wall_prob: float = 0.3) -> Instance:
    """Unit weights with infinite walls, the classic two-weight regime."""
    if not 0.0 <= wall_prob < 1.0:
        raise ValueError("wall_prob must lie in [0, 1)")

    def draw(rng: random.Random) -> float:
        return math.inf if rng.random() < wall_prob else 1.0

    return _sample(rows, cols, seed, f"maze-{rows}x{cols}-s{seed}", draw)


def gen_svp_witness() -> Instance:
    """The two-cell window on which SVP/SP attains svp_lower_bound_constant().

    Upward cell (0, 0) weighs 1 and holds t = (0, 0); downward cell (0, 1)
    weighs 7 - 4*sqrt(3) and shares with it the edge from s = (2, 0) to
    (1, 1). SVP is the bottom-edge hop, at cost 2. SP runs up the shared
    edge from s at that edge's min-rule weight and leaves it
    svp_lower_bound_witness_offset() short of its midpoint, refracting
    straight across cell (0, 0) to t; 2 / cost(SP) is the constant. The
    bend is not dyadic, so no refinement level of the oracle reaches it.
    """
    return Instance(
        tessellation=Tessellation(1, 2),
        weights=WeightMap([[1.0, 7.0 - 4.0 * SQRT3]]),
        source=(2, 0),
        target=(0, 0),
        label="svp-witness",
    )


def _tokens(text: str) -> Iterator[Tuple[int, List[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _weight_token(token: str, lineno: int) -> float:
    if token == "inf":
        return math.inf
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: not a weight: {token!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise ParseError(f"line {lineno}: weight must be positive: {token!r}")
    return value


def _int_pair(args: List[str], lineno: int, what: str) -> Corner:
    try:
        i, j = (int(a) for a in args)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} needs two integers") from None
    return (i, j)


def parse_instance(text: str, label: str = "instance") -> Instance:
    lines = _tokens(text)

    def next_line(expect: str) -> Tuple[int, List[str]]:
        for lineno, toks in lines:
            return lineno, toks
        raise ParseError(f"unexpected end of input, expected {expect}")

    lineno, toks = next_line("TRIGRID 1")
    if toks != ["TRIGRID", "1"]:
        raise ParseError(f"line {lineno}: expected header 'TRIGRID 1'")
    lineno, toks = next_line("ROWS/COLS")
    if len(toks) != 4 or toks[0] != "ROWS" or toks[2] != "COLS":
        raise ParseError(f"line {lineno}: expected 'ROWS <r> COLS <c>'")
    try:
        rows, cols = int(toks[1]), int(toks[3])
    except ValueError:
        raise ParseError(f"line {lineno}: ROWS/COLS need integers") from None
    if rows < 1 or cols < 1:
        raise ParseError(f"line {lineno}: ROWS and COLS must be at least 1")
    lineno, toks = next_line("WEIGHTS")
    if toks != ["WEIGHTS"]:
        raise ParseError(f"line {lineno}: expected 'WEIGHTS'")
    grid = []
    for _ in range(rows):
        lineno, toks = next_line("a weight row")
        if len(toks) != cols:
            raise ParseError(f"line {lineno}: expected {cols} weights, got {len(toks)}")
        grid.append([_weight_token(t, lineno) for t in toks])
    ends = {}
    for key in ("SOURCE", "TARGET"):
        lineno, toks = next_line(key)
        if len(toks) != 3 or toks[0] != key:
            raise ParseError(f"line {lineno}: expected '{key} <i> <j>'")
        ends[key] = _int_pair(toks[1:], lineno, key)
    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: trailing content after TARGET")
    return Instance(
        tessellation=Tessellation(rows, cols),
        weights=WeightMap(grid),
        source=ends["SOURCE"],
        target=ends["TARGET"],
        label=label,
    )


def _weight_text(value: float) -> str:
    return "inf" if math.isinf(value) else repr(float(value))


def serialize_instance(inst: Instance) -> str:
    lines = [
        "TRIGRID 1",
        f"ROWS {inst.tessellation.rows} COLS {inst.tessellation.cols}",
        "WEIGHTS",
    ]
    for row in inst.weights.values:
        lines.append(" ".join(_weight_text(w) for w in row))
    lines.append(f"SOURCE {inst.source[0]} {inst.source[1]}")
    lines.append(f"TARGET {inst.target[0]} {inst.target[1]}")
    return "\n".join(lines) + "\n"


def load_instance(path: Union[str, Path]) -> Instance:
    path = Path(path)
    return parse_instance(path.read_text(encoding="utf-8"), label=path.stem)


def save_instance(path: Union[str, Path], inst: Instance) -> None:
    Path(path).write_text(serialize_instance(inst), encoding="utf-8")


_PATH_COLORS = {
    "sp": "blue",
    "svp": "green",
    "sgp": "red",
    "x": "orange",
    "pi": "purple",
    "shortcut": "purple",
}

_SVG_MARGIN = 0.5

Vertex = Union[Corner, Point]


def _plane_point(v: Vertex) -> Point:
    # integer pairs are corner coordinates, float pairs are plane points
    if isinstance(v[0], int) and isinstance(v[1], int):
        return corner_position(v)
    return (float(v[0]), float(v[1]))


def export_svg(
    inst: Instance, paths: Union[Mapping[str, Sequence[Vertex]], None] = None
) -> str:
    """Render the window and any labeled paths as standalone SVG text.

    Finite cells are filled on a log scale from light (cheap) to dark
    (heavy); blocked cells stay unfilled. Path labels pick the stroke:
    sp blue, svp green, sgp red, x orange, pi purple; anything else black.
    Vertices given as integer pairs are corner coordinates.
    """
    tess, weights = inst.tessellation, inst.weights
    height = tess.rows * SQRT3
    width = tess.cols + 1.0

    def at(p: Point) -> Tuple[float, float]:
        return (p[0] + _SVG_MARGIN, height - p[1] + _SVG_MARGIN)

    finite = [w for row in weights.values for w in row if math.isfinite(w)]
    lo = math.log(min(finite)) if finite else 0.0
    hi = math.log(max(finite)) if finite else 1.0

    def fill(value: float) -> str:
        if math.isinf(value):
            return "none"
        t = 0.0 if hi == lo else (math.log(value) - lo) / (hi - lo)
        return f"hsl(210, 45%, {88.0 - 50.0 * t:.1f}%)"

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width + 2 * _SVG_MARGIN:.4f} {height + 2 * _SVG_MARGIN:.4f}">'
    ]
    for cell in tess.cells:
        pts = " ".join(
            f"{x:.4f},{y:.4f}"
            for x, y in (at(corner_position(c)) for c in cell_vertices(cell))
        )
        parts.append(
            f'<polygon points="{pts}" fill="{fill(weights.effective(cell))}" '
            'stroke="#999999" stroke-width="0.02"/>'
        )
    for label, vertices in (paths or {}).items():
        pts = [at(_plane_point(v)) for v in vertices]
        if len(pts) < 2:
            continue
        color = _PATH_COLORS.get(label.lower(), "black")
        coords = " ".join(f"{x:.4f},{y:.4f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="0.08" stroke-linejoin="round"/>'
        )
    for corner in (inst.source, inst.target):
        x, y = at(corner_position(corner))
        parts.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="0.12" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
