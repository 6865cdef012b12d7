"""Per-layer spans and work counts, recorded from outside trigrid.

install() wraps the public entry points of each trigrid module. A wrapper
records a span (name, start, end, parent, operation id) for every call of
a coarse entry point; for hot leaves (segment walks and segment pricing)
it only adds to counters, so a traced run keeps a bounded span list. Self
time is a call's duration minus the time covered by wrapped calls inside
it. An entry point that no longer exists is listed as missing, and the
metrics that depend on it are left out instead of failing the run.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

from checks import Window

# metric prefix, module, attribute path, hot leaf
TARGETS = (
    ("tessellation.segment_walk", "tessellation", "segment_walk", True),
    ("metric.segment_cost", "metric", "segment_cost", True),
    ("metric.hop_table_build", "metric", "CornerHopTable.__init__", False),
    ("metric.cost_matrix", "metric", "CornerHopTable.cost_matrix", False),
    ("grid_paths.sgp", "grid_paths", "shortest_grid_path", False),
    ("grid_paths.svp", "grid_paths", "shortest_vertex_path", False),
    ("oracle.refine", "oracle", "refine_until", False),
    ("oracle.approx", "oracle", "approx_shortest_path", False),
    ("analysis.crossing_path", "analysis", "crossing_path", False),
    ("analysis.decomposition", "analysis", "coincidence_decomposition", False),
    ("analysis.pocket_pricing", "analysis", "per_polygon_ratios", False),
    ("analysis.ratio_report", "analysis", "ratio_report", False),
    ("instances.gen_random", "instances", "gen_random", False),
    ("instances.gen_two_weight_maze", "instances", "gen_two_weight_maze", False),
    ("instances.gen_strip", "instances", "gen_strip", False),
)

MAX_LEVEL = 7
GENERATORS = ("instances.gen_random", "instances.gen_two_weight_maze", "instances.gen_strip")

# metric name, unit, source, the wrapped names it needs. A "total" metric sums
# the inclusive time of whichever of its names exist; the others need them all.
METRICS = (
    ("tessellation.segment_walk_calls", "count", "calls", ("tessellation.segment_walk",)),
    ("tessellation.segment_walk_s", "s", "total", ("tessellation.segment_walk",)),
    ("metric.hop_table_builds", "count", "calls", ("metric.hop_table_build",)),
    ("metric.hop_table_build_s", "s", "total", ("metric.hop_table_build",)),
    ("metric.cost_matrix_s", "s", "total", ("metric.cost_matrix",)),
    ("metric.segment_cost_calls", "count", "calls", ("metric.segment_cost",)),
    ("metric.segment_cost_s", "s", "total", ("metric.segment_cost",)),
    ("grid_paths.sgp_s", "s", "total", ("grid_paths.sgp",)),
    ("grid_paths.svp_s", "s", "total", ("grid_paths.svp",)),
    ("oracle.refine_s", "s", "total", ("oracle.refine",)),
    ("oracle.levels_solved", "count", "calls", ("oracle.approx",)),
    ("oracle.levels_wasted", "count", "extra", ("oracle.approx_levels", "oracle.refine")),
    *((f"oracle.approx_s.L{k}", "s", "extra", ("oracle.approx_levels",)) for k in range(MAX_LEVEL + 1)),
    ("oracle.steiner_nodes", "count", "extra", ("oracle.approx_levels",)),
    ("analysis.crossing_path_s", "s", "total", ("analysis.crossing_path",)),
    ("analysis.decomposition_s", "s", "total", ("analysis.decomposition",)),
    ("analysis.pocket_pricing_s", "s", "total", ("analysis.pocket_pricing",)),
    ("analysis.ratio_report_self_s", "s", "self", ("analysis.ratio_report",)),
    ("instances.generate_s", "s", "total", GENERATORS),
)


class _Frame:
    __slots__ = ("name", "span_id", "start", "child", "parent", "prev_cost")

    def __init__(self, name, span_id, start, parent):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.prev_cost = None


class Tracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.enabled = False
        self.op = "setup"
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.installed = set()
        self.missing = []
        self._windows = {}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, hot, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span_id = -1 if hot else len(tracer.spans)
            if not hot:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = _Frame(name, span_id, time.perf_counter(), parent)
            tracer.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - frame.start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame.child
                if parent is not None:
                    parent.child += dur
                if not hot:
                    tracer.spans[span_id] = (
                        span_id,
                        tracer.op,
                        name,
                        round(frame.start - tracer.t0, 9),
                        round(end - tracer.t0, 9),
                        _span_parent(parent),
                    )
                if on_exit is not None and result is not None:
                    on_exit(frame, args, kwargs, result, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def _approx_exit(self, signature):
        def on_exit(frame, args, kwargs, result, dur):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            level = bound.arguments["level"]
            self.extra[f"oracle.approx_s.L{level}"] += dur
            if bound.arguments["s"] != bound.arguments["t"]:
                self.extra["oracle.steiner_nodes"] += self._window(bound.arguments["weights"]).steiner_nodes(level)
            refine = frame.parent
            if refine is not None and refine.name == "oracle.refine":
                if refine.prev_cost is not None and result.cost >= refine.prev_cost:
                    self.extra["oracle.levels_wasted"] += 1
                refine.prev_cost = result.cost

        return on_exit

    def _window(self, weights):
        key = id(weights)
        hit = self._windows.get(key)
        if hit is None or hit[0] is not weights:
            hit = self._windows[key] = (weights, Window(weights.values))
        return hit[1]

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        sources = {"calls": self.calls, "total": self.total, "self": self.self_time}
        for name, unit, source, needs in METRICS:
            present = [n for n in needs if n in self.installed]
            if not present or (source != "total" and len(present) < len(needs)):
                continue
            if source == "extra":
                value = self.extra[name]
            else:
                value = sum(sources[source][n] for n in present)
            out[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
        return out

    def missing_metrics(self):
        got = self.metrics()
        return [name for name, *_ in METRICS if name not in got]

    def dump(self, path, extra):
        payload = {
            "span_fields": ["id", "op", "name", "start_s", "end_s", "parent"],
            "spans": [s for s in self.spans if s is not None],
            "missing_entry_points": self.missing,
            "missing_metrics": self.missing_metrics(),
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _span_parent(frame):
    while frame is not None and frame.span_id < 0:
        frame = frame.parent
    return None if frame is None else frame.span_id


def install(t0: float) -> Tracer:
    """Wrap every target that exists; later lookups through any trigrid module see the wrapper."""
    tracer = Tracer(t0)
    modules = [m for n, m in list(sys.modules.items()) if n == "trigrid" or n.startswith("trigrid.")]
    for name, mod_name, attr, hot in TARGETS:
        module = sys.modules.get(f"trigrid.{mod_name}")
        try:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
            else:
                original = getattr(module, attr)
        except (AttributeError, KeyError):
            tracer.missing.append(f"trigrid.{mod_name}.{attr}")
            continue
        on_exit = None
        if name == "oracle.approx":
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                signature = None
            if signature is not None and {"weights", "s", "t", "level"} <= set(signature.parameters):
                on_exit = tracer._approx_exit(signature)
                tracer.installed.add("oracle.approx_levels")
            else:
                tracer.missing.append("trigrid.oracle.approx_shortest_path(weights, s, t, level)")
        wrapper = tracer.wrap(name, original, hot, on_exit)
        if "." in attr:
            setattr(cls, meth, wrapper)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        tracer.installed.add(name)
    return tracer
