"""Command line over the solvers, reports, verifiers, and generators.

Exit codes: 0 success, 1 usage or input error, 2 unreachable endpoints,
3 invariant violation found by verify.
"""

import argparse
import concurrent.futures
import math
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .analysis import RATIO_BOUND, RATIO_TOL, ratio_report, svp_lower_bound_constant
from .grid_paths import (
    InvalidCornerError,
    UnreachableError,
    shortest_grid_path,
    shortest_vertex_path,
)
from .instances import (
    GenerationError,
    Instance,
    ParseError,
    export_svg,
    gen_random,
    gen_strip,
    gen_svp_witness,
    gen_two_weight_maze,
    load_instance,
    save_instance,
)
from .metric import WeightMap, segment_cost
from .oracle import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_REL_TOL,
    _SolveContext,
    approx_shortest_path,
    refine_until,
)
from .tessellation import Tessellation, corner_position

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_VIOLATION = 3

CSV_HEADER = (
    "label,sgp,svp,sp,sgp_sp,svp_sp,sgp_svp,"
    "x_cost,max_poly_ratio,p1,p2,p3,p4,p5,p6,level,ms"
)

_VERIFY_SIZES = ((3, 4), (4, 5), (5, 6), (6, 6), (4, 4))


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.9f}"


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    tess, weights = inst.tessellation, inst.weights
    if args.method == "sgp":
        result = shortest_grid_path(tess, weights, inst.source, inst.target)
    elif args.method == "svp":
        result = shortest_vertex_path(tess, weights, inst.source, inst.target)
    elif args.steiner_level is not None:
        result = approx_shortest_path(
            tess, weights, inst.source, inst.target, level=args.steiner_level
        )
    else:
        result = refine_until(
            tess,
            weights,
            inst.source,
            inst.target,
            rel_tol=args.rel_tol,
            max_level=args.max_level,
        )
    print(_fmt(result.cost))
    if args.method == "sp":
        for x, y in result.path:
            print(f"{x:.9f} {y:.9f}")
        print(f"level {result.level}")
    else:
        for i, j in result.path:
            print(f"{i} {j}")
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(export_svg(inst, {args.method: result.path}))
    return EXIT_OK


def _cmd_ratio(args) -> int:
    inst = load_instance(args.instance)
    start = time.perf_counter()
    rep = ratio_report(
        inst.tessellation,
        inst.weights,
        inst.source,
        inst.target,
        rel_tol=args.rel_tol,
        max_level=args.max_level,
    )
    ms = (time.perf_counter() - start) * 1000.0
    if args.header:
        print(CSV_HEADER)
    fields = [
        inst.label,
        _fmt(rep.sgp_cost),
        _fmt(rep.svp_cost),
        _fmt(rep.sp_cost),
        _fmt(rep.sgp_sp),
        _fmt(rep.svp_sp),
        _fmt(rep.sgp_svp),
        _fmt(rep.x_cost),
        _fmt(rep.max_polygon_ratio),
        *(str(n) for n in rep.histogram),
        str(rep.level),
        f"{ms:.1f}",
    ]
    print(",".join(fields))
    return EXIT_OK


def _trial_instance(suite_seed: int, trial: int) -> Instance:
    # every fourth trial draws from the two-weight regime, the rest vary
    # grid size and log-uniform weights; seeds stay reproducible per trial
    seed = suite_seed * 100003 + trial
    rows, cols = _VERIFY_SIZES[trial % len(_VERIFY_SIZES)]
    if trial % 4 == 3:
        return gen_two_weight_maze(rows, cols, seed=seed)
    return gen_random(rows, cols, seed=seed)


def _check_bounds(inst: Instance, rel_tol: float) -> List[str]:
    rep = ratio_report(
        inst.tessellation, inst.weights, inst.source, inst.target, rel_tol=rel_tol
    )
    out = []
    for name, value in (
        ("sgp/sp", rep.sgp_sp),
        ("svp/sp", rep.svp_sp),
        ("sgp/svp", rep.sgp_svp),
    ):
        if value > RATIO_BOUND + RATIO_TOL:
            out.append(f"{name}={value:.12f} exceeds 2/sqrt(3)")
    return out


def _check_polygons(inst: Instance, rel_tol: float) -> List[str]:
    rep = ratio_report(
        inst.tessellation, inst.weights, inst.source, inst.target, rel_tol=rel_tol
    )
    out = []
    for poly in rep.polygons:
        if poly.kind == 2:
            # the equalized bound is asserted only where equalization
            # applies; elsewhere the raw diagnostic is merely reported
            if poly.equalized_ok is False:
                out.append(
                    f"P2 at {poly.pivot} equalized ratio "
                    f"{poly.equalized_ratio:.12f} exceeds 2/sqrt(3)"
                )
        elif not poly.bound_ok:
            out.append(
                f"P{poly.kind} at {poly.pivot} ratio {poly.ratio:.12f} "
                "exceeds 2/sqrt(3)"
            )
    return out


# the SVP witness is solved up to this level; level 4 on comes within 2e-8 of
# its constant, levels 1-3 only within 3e-3
_WITNESS_MAX_LEVEL = 8


def _check_svp_witness() -> List[str]:
    """SVP/UB on the SVP witness never exceeds svp_lower_bound_constant(),
    and comes within 1e-7 of it from level 4 on."""
    inst = gen_svp_witness()
    ctx = _SolveContext(
        inst.tessellation, inst.weights, inst.source, inst.target, _WITNESS_MAX_LEVEL
    )
    svp, bound = ctx.solve(0).cost, svp_lower_bound_constant()
    out = []
    for level in range(1, _WITNESS_MAX_LEVEL + 1):
        ratio = svp / ctx.solve(level).cost
        if ratio > bound + 1e-12:
            out.append(f"SVP witness level {level}: svp/sp {ratio!r} exceeds the constant")
        elif level >= 4 and ratio < bound - 1e-7:
            out.append(f"SVP witness level {level}: svp/sp {ratio!r} falls short of the constant")
    return out


def _check_oracle(inst: Instance, trial: int) -> List[str]:
    tess, weights = inst.tessellation, inst.weights
    out = []
    ctx = _SolveContext(tess, weights, inst.source, inst.target, max_level=3)
    costs = [ctx.solve(level).cost for level in range(4)]
    for a, b in zip(costs, costs[1:]):
        if b > a + 1e-9:
            out.append(f"level costs not monotone: {costs}")
            break
    # level 0 is the complete corner graph, so it must agree with SVP, solved
    # apart from the context
    svp = shortest_vertex_path(tess, weights, inst.source, inst.target).cost
    if abs(costs[0] - svp) > 1e-12 * abs(svp):
        out.append(f"level 0 cost {costs[0]!r} differs from vertex path {svp!r}")
    if trial % 10 == 0:
        uniform = WeightMap([[2.0] * 4 for _ in range(3)])
        unit = Tessellation(3, 4)
        s, t = (0, 0), (4, 0)
        got = refine_until(unit, uniform, s, t).cost
        want = segment_cost(uniform, corner_position(s), corner_position(t))
        if abs(got - want) > 1e-3:
            out.append(f"uniform weights: oracle {got:.9f} vs straight {want:.9f}")
        out += _check_svp_witness()
    return out


def _verify_trial(suite: str, suite_seed: int, trial: int, rel_tol: float) -> Tuple[int, List[str]]:
    try:
        inst = _trial_instance(suite_seed, trial)
    except GenerationError:
        return trial, []
    try:
        if suite == "bounds":
            return trial, _check_bounds(inst, rel_tol)
        if suite == "polygons":
            return trial, _check_polygons(inst, rel_tol)
        return trial, _check_oracle(inst, trial)
    except UnreachableError:
        return trial, []


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("verify needs at least one trial")
    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    # refused for every suite, though only bounds and polygons read it
    if not args.rel_tol > 0.0:  # NaN compares false both ways
        raise ValueError("rel_tol must be positive")
    runs = [(args.suite, args.seed, trial, args.rel_tol) for trial in range(args.trials)]
    if args.jobs == 1:
        results = [_verify_trial(*run) for run in runs]
    else:
        workers = min(args.jobs, os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_trial, *zip(*runs)))
    results.sort(key=lambda pair: pair[0])
    violations = 0
    for trial, problems in results:
        if not problems:
            continue
        # generation is deterministic, so the trial's instance comes back as it was checked
        label = _trial_instance(args.seed, trial).label
        for problem in problems:
            violations += 1
            print(f"violation trial={trial} instance={label}: {problem}")
    print(f"{args.suite}: {args.trials} trials, {violations} violations")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "strip":
        if args.k is None:
            raise ValueError("strip needs --k")
        inst = gen_strip(args.k)
    elif args.kind == "random":
        inst = gen_random(
            args.rows,
            args.cols,
            seed=args.seed,
            weight_low=args.weight_low,
            weight_high=args.weight_high,
            inf_prob=args.inf_prob,
        )
    elif args.kind == "maze":
        inst = gen_two_weight_maze(
            args.rows, args.cols, seed=args.seed, wall_prob=args.wall_prob
        )
    else:
        inst = gen_svp_witness()
    save_instance(args.out, inst)
    print(f"wrote {args.out} ({inst.label})")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigrid",
        description="Weighted shortest paths on a triangle tessellation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--method", required=True, choices=("sgp", "svp", "sp"))
    solve.add_argument("--steiner-level", type=int, default=None)
    solve.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    solve.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)
    solve.add_argument("--svg", default=None, help="also render the result")
    solve.set_defaults(func=_cmd_solve)

    ratio = sub.add_parser("ratio", help="one CSV report row for an instance")
    ratio.add_argument("instance")
    ratio.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    ratio.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)
    ratio.add_argument("--header", action="store_true")
    ratio.set_defaults(func=_cmd_ratio)

    verify = sub.add_parser("verify", help="run an invariant suite")
    verify.add_argument("suite", choices=("bounds", "polygons", "oracle"))
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    verify.set_defaults(func=_cmd_verify)

    generate = sub.add_parser("generate", help="write an instance file")
    generate.add_argument("kind", choices=("strip", "random", "maze", "svp-witness"))
    generate.add_argument("--out", required=True)
    generate.add_argument("--k", type=int, default=None)
    generate.add_argument("--rows", type=int, default=4)
    generate.add_argument("--cols", type=int, default=5)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--weight-low", type=float, default=0.1)
    generate.add_argument("--weight-high", type=float, default=10.0)
    generate.add_argument("--inf-prob", type=float, default=0.1)
    generate.add_argument("--wall-prob", type=float, default=0.3)
    generate.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UnreachableError as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (ParseError, GenerationError, InvalidCornerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
