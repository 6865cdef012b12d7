"""Benchmark for trigrid: one workload per run, one thread, closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

Each run times calls into trigrid's public functions, one at a time, in
whole rounds of operations, each round in a fresh process, until the next
round would end past --seconds; a traced run makes one round.
Every result is checked apart from the program (see checks.py). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. See README.md.
"""

import time

T0 = time.perf_counter()  # the benchmark's notion of process start; interpreter start-up is before it

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# a run measures at least this many rounds: in ten runs of sweep, pooling four rounds
# instead of three cut the spread of ops_per_s from 0.20 to 0.13
MIN_ROUNDS = 4
# no operation is started past this much of a round's time; the round of a traced run
# also holds the untraced twin's repeats
HARD_CAP_S = 120.0
TRACED_CAP_S = 150.0
# no round is started that is expected to end past this much of a run's time, even
# short of MIN_ROUNDS, so that a run of a much slower commit still ends within 180 s
RUN_CAP_S = 150.0


def load_trigrid():
    """Import trigrid from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "trigrid" / "__init__.py").is_file():
        sys.exit(f"trigrid sources not found under {src}")
    sys.path.insert(0, str(src))
    import trigrid
    import trigrid.analysis
    import trigrid.grid_paths
    import trigrid.instances
    import trigrid.metric
    import trigrid.oracle
    import trigrid.tessellation

    if Path(trigrid.__file__).resolve().parent != (src / "trigrid").resolve():
        sys.exit(f"imported trigrid from {trigrid.__file__}, not from {src}")
    return trigrid


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that sets up and runs one round, or the untraced twin of a traced run
    p.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--twin", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_command(args, *extra):
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", *extra,
    ]


def child(args, *extra, timeout=150.0) -> dict:
    proc = subprocess.run(child_command(args, *extra), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Twin:
    """An untraced copy of a traced run, in a child process with the same inputs.

    It repeats each traced operation right after the traced one, so both
    timings of an operation meet the same state of a shared machine, and
    the sum of their differences is the tracing overhead. Each operation is
    new to the twin's process as it was to the traced one.
    """

    def __init__(self, args):
        self.proc = subprocess.Popen(
            child_command(args, "--twin"), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def time(self, index: int) -> float:
        """Latency of the twin's run of operation `index` of the round."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"untraced twin exited with {self.proc.wait()}")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_twin(workload):
    """The twin's side: time each operation of one round that the traced run names."""
    for line in sys.stdin:
        op = workload.ops[int(line)]
        t = time.perf_counter()
        op.run()
        print(time.perf_counter() - t, flush=True)


class Loop:
    """Runs one round of operations, one at a time, and keeps their latencies."""

    def __init__(self, workload, tracer=None, twin=None):
        self.workload = workload
        self.tracer = tracer
        self.twin = twin
        self.cap = HARD_CAP_S if tracer is None else TRACED_CAP_S
        self.latencies = []  # of the operations that completed
        self.untraced_busy = 0.0  # the twin's time on the operations that completed here
        self.attempted = 0
        self.failed = 0
        self.rejected = 0  # operations whose result a check rejected
        self.messages = []

    def run(self):
        start = time.perf_counter()
        for index, op in enumerate(self.workload.ops):
            if time.perf_counter() - start > self.cap:
                return
            self._one(index, op)

    def _one(self, index, op):
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
            tracer.enabled = True
        try:
            t = time.perf_counter()
            result = op.run()
            self.latencies.append(time.perf_counter() - t)
        except Exception as exc:
            self.failed += 1
            self.messages.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.enabled = False
        if self.twin is not None:
            self.untraced_busy += self.twin.time(index)
        problems = op.check(result)
        if problems:
            self.failed += 1
            self.rejected += 1
            self.messages.append(f"{op.label}: " + "; ".join(problems))


def run_rounds(args) -> list:
    """The untraced run: whole rounds, each in a fresh child process, one after another.

    A fresh process meets every operation as the first round did: cold-shapes
    finds no hop table built, and each round sets up anew, so set-up is timed
    once per round. Rounds continue while the next one is expected to end
    within --seconds, and there are at least MIN_ROUNDS of them.
    """
    start = time.perf_counter()
    rounds, walls = [], []
    while True:
        r0 = time.perf_counter()
        if rounds:
            expected_end = r0 - start + statistics.mean(walls)
            if expected_end > RUN_CAP_S or (len(rounds) >= MIN_ROUNDS and expected_end > args.seconds):
                break
        rounds.append(child(args, "--round", timeout=max(1.0, RUN_CAP_S + 20.0 - (r0 - start))))
        walls.append(time.perf_counter() - r0)
    return rounds


def round_metrics(rounds) -> dict:
    """End-to-end metrics over all the rounds of a run.

    The machine's speed drifts by tens of percent for seconds at a time, so
    throughput and percentiles pool every latency of the run: the more of
    the run's time they cover, the less one slow stretch moves them. Set-up
    time and peak memory are medians over the rounds' processes.
    """
    lat = [x for r in rounds for x in r["latencies"]] or [float("nan")]
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": 1000.0 * quantile(lat, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": 1000.0 * quantile(lat, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def setup(args, trigrid, tracer=None):
    import checks
    import workloads

    failures = checks.self_test(
        lambda values, s, t: trigrid.grid_paths.shortest_grid_path(
            trigrid.tessellation.Tessellation(*values.shape), trigrid.metric.WeightMap(values), s, t
        ).cost
    )
    if failures:
        sys.exit("check self-test failed:\n  " + "\n  ".join(failures))
    workload = workloads.WORKLOADS[args.workload](trigrid)
    if tracer is not None:
        tracer.enabled = True
    workload.setup(args.seed)
    if tracer is not None:
        tracer.enabled = False
    return workload


def main(argv=None):
    args = parse_args(argv)
    trigrid = load_trigrid()
    # the benchmark's own imports (the checks and scipy) are left out of setup_s; they come
    # after trigrid's, so a module that trigrid imports itself still counts as trigrid's
    t = time.perf_counter()
    from workloads import WORKLOADS

    own_imports_s = time.perf_counter() - t
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (args.trace or args.round or args.twin):
        rounds = run_rounds(args)
        for r in rounds:
            for line in r["messages"]:
                print(f"FAILED {line}", file=sys.stderr)
        if rounds[0]["summary"]:
            print(f"{args.workload}: {rounds[0]['summary']}", file=sys.stderr)
        print(json.dumps({
            "correct": all(r["rejected"] == 0 for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": round_metrics(rounds),
        }))
        return 0

    tracer = twin = None
    if args.trace:
        import tracing

        twin = Twin(args)  # sets up while this process does
        tracer = tracing.install(T0)
    try:
        workload = setup(args, trigrid, tracer)
        setup_s = time.perf_counter() - T0 - own_imports_s
        if args.twin:
            serve_twin(workload)
            return 0
        loop = Loop(workload, tracer, twin)
        loop.run()
    finally:
        if twin is not None:
            twin.close()
    summary = workload.summary() if hasattr(workload, "summary") else ""
    if args.round:
        print(json.dumps({
            "setup_s": setup_s, "latencies": loop.latencies, "attempted": loop.attempted,
            "failed": loop.failed, "rejected": loop.rejected, "messages": loop.messages[:20],
            "summary": summary, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }))
        return 0

    for line in loop.messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if summary:
        print(f"{args.workload}: {summary}", file=sys.stderr)
    busy = sum(loop.latencies)
    metrics = tracer.metrics()
    metrics["trace.ops"] = {"value": loop.attempted, "unit": "count"}
    metrics["trace.overhead_s"] = {"value": busy - loop.untraced_busy, "unit": "s"}
    missing = tracer.missing_metrics()
    if missing:
        print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(
        out_dir / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "traced_busy_s": busy,
         "untraced_busy_s": loop.untraced_busy, "metrics": metrics},
    )
    result = {"correct": loop.rejected == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Few operations lie near the 90th percentile, and their costs are spread
    out, so the one or two order statistics a plain quantile picks move with
    every hiccup of a shared machine; this estimate averages the ones around them.
    """
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


if __name__ == "__main__":
    sys.exit(main())
