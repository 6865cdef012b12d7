"""The three workloads: inputs made from the seed, rounds of timed operations, checks.

A workload's setup() generates every input (and warms per-shape caches
where the workload is about the warm path) and builds `ops`, the list of
operations that makes one round; each round runs in a fresh process, after
its own setup(). An operation's run()
is the timed call into trigrid; its check() runs afterwards, untimed, and
returns the messages of failed checks.
The trigrid modules are looked up at call time, so a traced run sees the
wrappers that trace.install() put in place.
"""

import math
import random
from typing import Callable, Dict, List

import numpy as np

import checks


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run: Callable, check: Callable):
        self.label = label
        self.run = run
        self.check = check


def far_corner(rows: int, cols: int):
    return (cols if (rows + cols) % 2 == 0 else cols - 1, rows)


def _dist(s, t) -> float:
    return math.dist(checks.position(s), checks.position(t))


class _Case:
    """One instance with its reference data, computed apart from the program on first use."""

    def __init__(self, tess, weights, s, t, kind="random", k=0, omega=0.0):
        self.tess, self.weights, self.s, self.t = tess, weights, s, t
        self.kind, self.k, self.omega = kind, k, omega
        self._window = None

    @property
    def window(self) -> checks.Window:
        if self._window is None:
            self._window = checks.Window(self.weights.values)
        return self._window

    @property
    def shape(self):
        return (self.tess.rows, self.tess.cols)

    def common(self, sgp: float, svp: float, sp_by_level: Dict[int, float]) -> List[str]:
        """Checks every solver result must pass, plus the closed forms of strips and uniform windows."""
        win, dist = self.window, _dist(self.s, self.t)
        out = checks.close("sgp vs reference dijkstra", sgp, win.grid_cost(self.s, self.t))
        for level, sp in sp_by_level.items():
            out += checks.ordered(sp, svp, sgp) + checks.ratios(sp, svp, sgp)
            out += checks.lower_bound(f"sp L{level}", sp, win.w_min, dist)
        out += checks.lower_bound("svp", svp, win.w_min, dist)
        out += checks.lower_bound("sgp", sgp, win.w_min, dist)
        if self.kind == "strip":
            out += checks.strip(self.k, sgp, svp, sp_by_level)
        elif self.kind == "uniform" and win.segment_inside(self.s, self.t):
            out += checks.uniform(self.omega, dist, svp, sp_by_level)
        return out


def _uniform_case(trigrid, rows, cols, omega, rng=None):
    """A uniform window; endpoints are drawn from the bottom and top rows when rng is given."""
    tess = trigrid.tessellation.Tessellation(rows, cols)
    weights = trigrid.metric.WeightMap(np.full((rows, cols), omega))
    if rng is None:
        s, t = (0, 0), far_corner(rows, cols)
    else:
        s = rng.choice([c for c in tess.corners if c[1] == 0])
        t = rng.choice([c for c in tess.corners if c[1] == rows])
    return _Case(tess, weights, s, t, "uniform", omega=omega)


def _random_case(trigrid, rows, cols, seed, **kw):
    inst = trigrid.instances.gen_random(rows, cols, seed=seed, **kw)
    return _Case(inst.tessellation, inst.weights, inst.source, inst.target)


def _population_case(trigrid, rows, cols, first_seed, rng):
    """A random window from fixed generator seeds, its weights scaled by a factor drawn from rng.

    Scaling every weight of a window scales every cost and keeps each ratio,
    each stop decision of refine_until and each step of a Dijkstra search, so
    the work is the same in every run while the numbers the program sees differ.
    """
    scale = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    return _generate(
        trigrid,
        lambda g: _random_case(trigrid, rows, cols, g, weight_low=0.1 * scale, weight_high=10.0 * scale),
        range(first_seed, first_seed + 1000),
    )


def _generate(trigrid, make, seeds):
    """First instance that generates, trying seeds in order."""
    for seed in seeds:
        try:
            return make(seed)
        except trigrid.instances.GenerationError:
            pass
    raise RuntimeError("no seed generated an instance")


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """ratio_report on a fixed population of the acceptance sweep's make-up, warm."""

    # window shape and count of random windows, in the acceptance sweep's proportions
    PLAN = (((4, 5), 73), ((6, 6), 20), ((8, 7), 8), ((10, 9), 2), ((12, 12), 1))
    MAZES = 41
    POPULATION_SEED = 7_300_000

    def __init__(self, trigrid):
        self.trigrid = trigrid
        self.levels: Dict[int, int] = {}
        self.worst_sgp_sp = 0.0

    def setup(self, seed: int):
        tg = self.trigrid
        rng = random.Random(seed)
        cases = []
        for class_id, ((rows, cols), count) in enumerate(self.PLAN):
            base = self.POPULATION_SEED + 100_000 * class_id
            for n in range(count):
                cases.append(_population_case(tg, rows, cols, base + 1000 * n, rng))
        for _ in range(self.MAZES):
            first = rng.randrange(1 << 30)
            inst = _generate(
                tg, lambda g: tg.instances.gen_two_weight_maze(5, 6, seed=g), range(first, first + 1000)
            )
            cases.append(_Case(inst.tessellation, inst.weights, inst.source, inst.target))
        rng.shuffle(cases)
        for rows, cols in sorted({c.shape for c in cases}):
            warm = _uniform_case(tg, rows, cols, 1.0)
            tg.analysis.ratio_report(warm.tess, warm.weights, warm.s, warm.t)
        self.ops = [self._op(c) for c in cases]

    def _op(self, case: _Case) -> Op:
        analysis = self.trigrid.analysis

        def run():
            return analysis.ratio_report(case.tess, case.weights, case.s, case.t)

        def check(rep):
            out = case.common(rep.sgp_cost, rep.svp_cost, {rep.level: rep.sp_cost})
            out += checks.report_extras(
                rep.sgp_cost, rep.sp_cost, rep.x_cost, rep.max_polygon_ratio,
                rep.histogram, len(rep.polygons),
            )
            self.levels[rep.level] = self.levels.get(rep.level, 0) + 1
            self.worst_sgp_sp = max(self.worst_sgp_sp, rep.sgp_cost / rep.sp_cost)
            return out

        return Op(f"{case.shape}", run, check)

    def summary(self) -> str:
        hist = " ".join(f"L{k}:{v}" for k, v in sorted(self.levels.items()))
        return f"stop levels {hist}; worst sgp/sp {self.worst_sgp_sp:.12f}"


# -- cold-shapes ----------------------------------------------------------------


class ColdShapes:
    """SGP, SVP and SP at level 1, each operation on a window shape new to the process."""

    STRIPS = range(1, 17)
    MAX_SIDE = 16
    UNIFORM_EVERY = 16

    def __init__(self, trigrid):
        self.trigrid = trigrid

    @classmethod
    def shapes(cls):
        """Window shapes up to 16x16: all of area up to 60, and 12x12 and 16x16.

        The list is short enough that a run sees all of it, so every run
        builds the same hop tables and peak_rss_mb compares across commits.
        """
        strip_shapes = {(2 * k, 3) for k in cls.STRIPS}
        out = []
        for rows in range(1, cls.MAX_SIDE + 1):
            for cols in range(1, cls.MAX_SIDE + 1):
                if (rows, cols) in strip_shapes:
                    continue
                if rows * cols <= 60 or rows == cols in (12, cls.MAX_SIDE):
                    out.append((rows, cols))
        return out

    def setup(self, seed: int):
        tg = self.trigrid
        rng = random.Random(seed)
        cases = []
        for n, (rows, cols) in enumerate(self.shapes()):
            if n % self.UNIFORM_EVERY == self.UNIFORM_EVERY // 2:
                omega = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
                cases.append(_uniform_case(tg, rows, cols, omega, rng))
            else:
                first = rng.randrange(1 << 30)
                cases.append(_generate(tg, lambda g, r=rows, c=cols: _random_case(tg, r, c, g), range(first, first + 1000)))
        for k in self.STRIPS:
            inst = tg.instances.gen_strip(k)
            cases.append(_Case(inst.tessellation, inst.weights, inst.source, inst.target, "strip", k=k))
        rng.shuffle(cases)
        self.ops = [self._op(c) for c in cases]

    def _op(self, case: _Case) -> Op:
        gp, oracle = self.trigrid.grid_paths, self.trigrid.oracle

        def run():
            sgp = gp.shortest_grid_path(case.tess, case.weights, case.s, case.t)
            svp = gp.shortest_vertex_path(case.tess, case.weights, case.s, case.t)
            sp = oracle.approx_shortest_path(case.tess, case.weights, case.s, case.t, level=1)
            return sgp.cost, svp.cost, sp.cost

        def check(result):
            sgp, svp, sp = result
            return case.common(sgp, svp, {1: sp})

        return Op(f"{case.kind} {case.shape}", run, check)


# -- steiner-deep ---------------------------------------------------------------


class SteinerDeep:
    """approx_shortest_path at fixed levels 3..7 on small windows, hop tables warm."""

    LEVELS = range(3, 8)
    # with one strip per group of five windows, its costs a level or two below theirs,
    # the median operation falls amid the windows' level-5 solves, not between two levels
    RANDOM_SHAPES = ((4, 5), (6, 6), (8, 7))
    UNIFORM_SHAPES = ((4, 5), (6, 6))
    STRIPS = (4, 5, 6, 7)
    GROUPS = 7
    POPULATION_SEED = 7_400_000

    def __init__(self, trigrid):
        self.trigrid = trigrid

    def setup(self, seed: int):
        tg = self.trigrid
        rng = random.Random(seed)
        cases = []
        for n in range(self.GROUPS):
            cases += [
                _population_case(tg, rows, cols, self.POPULATION_SEED + 100_000 * class_id + 1000 * n, rng)
                for class_id, (rows, cols) in enumerate(self.RANDOM_SHAPES)
            ]
            rows, cols = self.UNIFORM_SHAPES[n % len(self.UNIFORM_SHAPES)]
            omega = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            cases.append(_uniform_case(tg, rows, cols, omega, rng))
            k = self.STRIPS[n % len(self.STRIPS)]
            inst = tg.instances.gen_strip(k)
            cases.append(_Case(inst.tessellation, inst.weights, inst.source, inst.target, "strip", k=k))
        for rows, cols in sorted({c.shape for c in cases}):
            warm = _uniform_case(tg, rows, cols, 1.0)
            tg.grid_paths.shortest_vertex_path(warm.tess, warm.weights, warm.s, warm.t)
        self.ops = [op for case in cases for op in self._ops(case)]

    def _ops(self, case: _Case) -> List[Op]:
        tg = self.trigrid
        costs: Dict[int, float] = {}
        ref = {}

        def reference():
            # level 0, SVP and SGP of the instance, solved untimed for the checks
            if not ref:
                args = (case.tess, case.weights, case.s, case.t)
                ref["sgp"] = tg.grid_paths.shortest_grid_path(*args).cost
                ref["svp"] = tg.grid_paths.shortest_vertex_path(*args).cost
                costs[0] = tg.oracle.approx_shortest_path(*args, level=0).cost
            return ref

        def make(level):
            def run():
                return tg.oracle.approx_shortest_path(case.tess, case.weights, case.s, case.t, level=level).cost

            def check(cost):
                r = reference()
                # the level below, at least level 0, whose equality with SVP is checked with it
                prev = max(k for k in costs if k < level)
                costs[level] = cost
                out = case.common(r["sgp"], r["svp"], {level: cost})
                return out + checks.levels({prev: costs[prev], level: cost}, r["svp"])

            return Op(f"{case.kind} {case.shape} L{level}", run, check)

        return [make(level) for level in self.LEVELS]


WORKLOADS = {"sweep": Sweep, "cold-shapes": ColdShapes, "steiner-deep": SteinerDeep}
