"""Outside-in tracing of perigid's layers.

The tracer replaces each public function of a layer module by a wrapper,
under every name that binds it in any perigid module (so `from .sparsity
import is_colored_laman` in another module is wrapped too).  A wrapper
records a span [name, layer, start, end, parent, job] in memory.  Methods
called thousands of times per job are counted, not spanned, and the
hottest helper is left alone; their time lands in the calling layer.
Nothing under `src/` changes, and `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "fileio", "colored_graph", "sparsity", "linear_rep", "direction_network", "rigidity")
# Called ~10^5-10^6 times per job: even a counting wrapper would swamp the
# measurement, so these stay unwrapped and their time lands in the caller.
UNWRAPPED = {"colored_graph.image_rank"}

NAME, LAYER, START, END, PARENT, JOB = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def spanned(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), None, stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()

        return wrapper

    def counted(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the layers of an imported perigid package."""
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if key not in UNWRAPPED:
                    wrapped[fn] = self.spanned(layer, key, fn)
        wrapped[package.direction_network.faithful_realization] = self._faithful(
            package.direction_network.faithful_realization, package.errors.GenericitySamplingError
        )
        modules = [m for m in vars(package).values() if inspect.ismodule(m)] + [package]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        self._wrap_methods(package)

    def _faithful(self, fn, sampling_error):
        """Span faithful_realization and count its attempts and successes."""
        counters = self.counters

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except sampling_error as exc:
                counters["direction_network.attempts"] += exc.attempts
                raise
            counters["direction_network.attempts"] += result.attempts
            counters["direction_network.realizations"] += 1
            return result

        return self.spanned("direction_network", "direction_network.faithful_realization", observed)

    def _wrap_methods(self, package) -> None:
        scan = package.colored_graph.GainScan
        self._patch(scan, "__init__", self.counted("colored_graph.gainscan_builds", scan.__init__))
        self._patch(scan, "add", self.counted("colored_graph.gainscan_adds", scan.add))

        state = package.sparsity.PartitionState
        virtual = package.sparsity._VIRTUAL
        insert = state.try_insert
        counters = self.counters

        @functools.wraps(insert)
        def try_insert(self_, eid):
            counters["sparsity.try_insert_calls"] += 1
            if eid == virtual:
                counters["sparsity.doubling_probes"] += 1
            return insert(self_, eid)

        self._patch(state, "try_insert", try_insert)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------


def duration(span) -> float:
    return span[END] - span[START]


def self_times(spans) -> Counter:
    """Per layer, the span time not covered by child spans.

    Children of one span never overlap (one thread), so the covered part is
    the sum of their durations.  Summed over a layer, nested spans of the
    same layer cancel, which leaves the time outside other layers' spans.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += duration(span)
    out: Counter = Counter()
    for i, span in enumerate(spans):
        out[span[LAYER]] += duration(span) - covered[i]
    return out


def _outermost(spans, pred):
    """Spans matching pred with no matching ancestor."""
    for span in spans:
        if not pred(span):
            continue
        parent = span[PARENT]
        while parent is not None and not pred(spans[parent]):
            parent = spans[parent][PARENT]
        if parent is None:
            yield span


def inclusive(spans, name: str) -> float:
    """Time inside spans called `name`, counting nested calls once."""
    return sum(duration(s) for s in _outermost(spans, lambda s: s[NAME] == name))


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def entry_calls(spans, layer: str) -> int:
    """Spans of a layer entered from another layer (or from the harness)."""
    return sum(
        1
        for s in spans
        if s[LAYER] == layer and (s[PARENT] is None or spans[s[PARENT]][LAYER] != layer)
    )


def root_time(spans) -> float:
    return sum(duration(s) for s in spans if s[PARENT] is None)


def per_layer_metrics(tracer: Tracer, jobs: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, as means per job where the unit says so."""
    spans, counters = tracer.spans, tracer.counters
    selfs = self_times(spans)
    harness = traced_wall - root_time(spans)

    def per_job(x):
        return x / jobs

    fileio_total = sum(duration(s) for s in _outermost(spans, lambda s: s[LAYER] == "fileio"))
    parse = inclusive(spans, "fileio.parse_colored_graph")
    attempts = counters["direction_network.attempts"]
    seconds = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    seconds.update(
        {
            "sparsity.basis_s": inclusive(spans, "sparsity.max_laman_sparse_subset"),
            "sparsity.circuit_s": inclusive(spans, "sparsity.find_laman_circuit"),
            "sparsity.ross_s": inclusive(spans, "sparsity.is_ross"),
            "sparsity.brute_force_s": inclusive(spans, "sparsity.brute_force_sparsity"),
            "direction_network.faithful_s": inclusive(spans, "direction_network.faithful_realization"),
            "rigidity.certificate_s": inclusive(spans, "rigidity.rigid_realization_certificate"),
            "rigidity.fp_rank_s": inclusive(spans, "rigidity.generic_rigidity_rank"),
            "linear_rep.modp_rank_s": inclusive(spans, "linear_rep.modp_rank"),
            "linear_rep.kernel_float_s": inclusive(spans, "linear_rep.kernel_float"),
            "colored_graph.develop_s": inclusive(spans, "colored_graph.develop_window"),
            "colored_graph.cover_s": inclusive(spans, "colored_graph.sublattice_cover"),
            "fileio.parse_s": parse,
            "fileio.emit_s": fileio_total - parse,
            "trace.harness_s": harness,
            "trace.wall_s": traced_wall,
        }
    )
    counts = {
        "sparsity.entry_calls": entry_calls(spans, "sparsity"),
        "sparsity.try_insert_calls": counters["sparsity.try_insert_calls"],
        "sparsity.doubling_probes": counters["sparsity.doubling_probes"],
        "colored_graph.gainscan_builds": counters["colored_graph.gainscan_builds"],
        "colored_graph.gainscan_adds": counters["colored_graph.gainscan_adds"],
        "direction_network.attempts": attempts,
        "direction_network.p_system_builds": calls(spans, "direction_network.build_P_system"),
        "linear_rep.modp_rank_calls": calls(spans, "linear_rep.modp_rank"),
        "linear_rep.kernel_float_calls": calls(spans, "linear_rep.kernel_float"),
    }
    out = {k: (per_job(v), "s/job") for k, v in seconds.items()}
    out.update({k: (per_job(v), "1/job") for k, v in counts.items()})
    out["direction_network.accept_ratio"] = (
        counters["direction_network.realizations"] / attempts if attempts else 0.0,
        "1",
    )
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "1")
    out["trace.accounted_ratio"] = ((sum(selfs.values()) + harness) / traced_wall, "1")
    return out
