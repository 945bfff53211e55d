"""Spans around the calls one vmplace module makes into another.

The tracer patches names in the calling module's namespace (and two
``ParetoArchive`` methods), so the package itself is unchanged.  Spans stay
in memory as parallel lists of name, start, end and parent index; counts
are recorded at the same boundaries.  ``layer_metrics`` turns both into the
per-layer table.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOTS = {"lamocs": "cuckoo.solve", "ga": "baselines.ga", "pso": "baselines.pso"}

# Layer -> the span names whose self time it sums.  Together with the
# solver roots these partition a traced solve.
LAYERS = {
    "automata.update": ("automata.update",),
    "automata.sample": ("automata.sample",),
    "cuckoo.evaluate": ("cuckoo.evaluate",),
    "cuckoo.repair": ("cuckoo.repair",),
    "objectives.batch_loads": ("objectives.batch_loads",),
    "objectives.batch_objectives": ("objectives.batch_objectives", "objectives.batch_scalarize"),
    "cuckoo.archive": ("cuckoo.archive.rejects", "cuckoo.archive.offer"),
}

# Layers reported per solver as well as in total.
PER_SOLVER = (
    ("cuckoo.repair", "ms"),
    ("cuckoo.evaluate", "self_ms"),
    ("objectives.batch_loads", "ms"),
    ("objectives.batch_objectives", "ms"),
    ("cuckoo.archive", "ms"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.solvers: list[str] = []
        self.counts: Counter[str] = Counter()
        # Time spent in count bookkeeping, keyed by the span it ran inside;
        # it is taken out of that span's self time.
        self.bookkeeping_ns: dict[int, int] = defaultdict(int)
        self.solver = ""
        # The repair cache of the solve in progress, and each finished
        # solve's cache size in MB.
        self.cache: dict | None = None
        self.cache_mb: list[float] = []
        self._stack: list[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += int(amount)

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call.

        ``after(args, kwargs, result)`` runs outside the span; its time is
        booked to the enclosing span as bookkeeping.
        """
        names, starts, ends, parents, solvers = self.names, self.starts, self.ends, self.parents, self.solvers
        stack, bookkeeping, clock = self._stack, self.bookkeeping_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            solvers.append(self.solver)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
                bookkeeping[parent] += clock() - t1
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.solvers):
                out.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "solver"), row))) + "\n")


def _cache_mb(cache: dict) -> float:
    """Bytes a repair cache holds: the dict, its keys and its stored rows."""
    entries = sum(sys.getsizeof(key) + (0 if row is None else sys.getsizeof(row)) for key, row in cache.items())
    return (sys.getsizeof(cache) + entries) / 2**20


def wrap_solver(tracer: Tracer, solver: str, solve):
    """Root span for one solve; afterwards records the size its repair cache reached."""
    tracer.solver = solver

    def after(*_):
        cache, tracer.cache = tracer.cache, None
        if cache is not None:
            tracer.cache_mb.append(_cache_mb(cache))

    return tracer.wrap(ROOTS[solver], solve, after)


def install(tracer: Tracer, vmplace) -> list[tuple[object, str, object]]:
    """Patch the package's cross-layer calls; returns what ``restore`` needs.

    Every count is taken in an ``after`` hook, outside the span it describes,
    so counting adds nothing to a layer's self time.
    """
    cuckoo, baselines = vmplace.cuckoo, vmplace.baselines
    count, names = tracer.count, tracer.names
    counted_evaluate = [-1]  # the evaluate span whose infeasible rows were counted last

    def after_evaluate(args, kwargs, _):
        count("cuckoo.evaluate.rows", args[1].shape[0])
        cache = args[3] if len(args) > 3 else kwargs.get("cache")
        if cache is not None:
            tracer.cache = cache

    def after_loads(args, _, loads):
        problem, rows = args
        count("objectives.batch_loads.rows", np.atleast_2d(rows).shape[0])
        # The first loads inside an evaluate span cover the whole batch, before
        # repair; their overloaded rows are the ones that need repair.
        parent = tracer.current()
        if parent >= 0 and names[parent] == "cuckoo.evaluate" and parent != counted_evaluate[0]:
            counted_evaluate[0] = parent
            cpu_used, mem_used, _ = loads
            fits = (cpu_used <= problem.server_cpu).all(axis=1) & (mem_used <= problem.server_mem).all(axis=1)
            count("cuckoo.evaluate.infeasible", fits.size - int(fits.sum()))

    def after_repair(args, _, moved):
        problem, _, cpu_used, mem_used, _ = args
        count("cuckoo.repair.moved", moved)
        count("cuckoo.repair.fixed", (cpu_used <= problem.server_cpu).all() and (mem_used <= problem.server_mem).all())

    traced_evaluate = tracer.wrap("cuckoo.evaluate", cuckoo._evaluate_rows, after_evaluate)
    archive = cuckoo.ParetoArchive
    patches = [
        (cuckoo, "update_from_population", tracer.wrap("automata.update", cuckoo.update_from_population)),
        (cuckoo, "sample_assignments", tracer.wrap(
            "automata.sample", cuckoo.sample_assignments, lambda args, *_: count("automata.sample.rows", args[1]))),
        (cuckoo, "_evaluate_rows", traced_evaluate),
        (baselines, "_evaluate_rows", traced_evaluate),
        (cuckoo, "_repair_row", tracer.wrap("cuckoo.repair", cuckoo._repair_row, after_repair)),
        (cuckoo, "batch_loads", tracer.wrap("objectives.batch_loads", cuckoo.batch_loads, after_loads)),
        (cuckoo, "batch_objectives", tracer.wrap("objectives.batch_objectives", cuckoo.batch_objectives)),
        (cuckoo, "batch_scalarize", tracer.wrap("objectives.batch_scalarize", cuckoo.batch_scalarize)),
        (archive, "rejects", tracer.wrap("cuckoo.archive.rejects", archive.rejects)),
        (archive, "offer", tracer.wrap(
            "cuckoo.archive.offer", archive.offer, lambda _, __, accepted: count("cuckoo.archive.accepted", accepted))),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in saved:
        setattr(owner, attr, original)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_ms(tracer: Tracer) -> dict[tuple[str, str], float]:
    """Self time in ms per (solver, layer), solver roots included.

    Self time is a span's duration minus the time its child spans and the
    tracer's own bookkeeping inside it cover.  A solver root's self time is
    the part of the solve that no named layer covers.
    """
    parents = np.array(tracer.parents, dtype=np.int64)
    duration = np.array(tracer.ends, dtype=np.int64) - np.array(tracer.starts, dtype=np.int64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
    for idx, ns in tracer.bookkeeping_ns.items():
        if idx >= 0:
            covered[idx] += ns
    per_span: dict[tuple[str, str], float] = defaultdict(float)
    for solver, name, self_ns in zip(tracer.solvers, tracer.names, (duration - covered).tolist()):
        per_span[solver, name] += self_ns / 1e6
    table = {}
    for solver, root in ROOTS.items():
        table[solver, root] = per_span[solver, root]
        for layer, spans in LAYERS.items():
            table[solver, layer] = sum(per_span[solver, name] for name in spans)
    return table


def solver_layers(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self ms per layer for each solver, largest first."""
    table = layer_self_ms(tracer)
    return {
        solver: dict(sorted(((layer, round(ms, 1)) for (s, layer), ms in table.items() if s == solver),
                            key=lambda item: -item[1]))
        for solver in ROOTS
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, self times and useful-work ratios from one traced pass."""
    table = layer_self_ms(tracer)
    span_calls = Counter(tracer.names)
    counts = tracer.counts

    def ms(layer: str) -> float:
        return sum(v for (_, name), v in table.items() if name == layer)

    repairs = span_calls["cuckoo.repair"]
    infeasible = counts["cuckoo.evaluate.infeasible"]
    hits = infeasible - repairs  # every infeasible row is either a cache hit or repaired
    rows = counts["cuckoo.evaluate.rows"]
    offers = span_calls["cuckoo.archive.offer"]
    metrics = {
        "automata.update.calls": span_calls["automata.update"],
        "automata.update.ms": ms("automata.update"),
        "automata.sample.rows": counts["automata.sample.rows"],
        "automata.sample.ms": ms("automata.sample"),
        "cuckoo.evaluate.rows": rows,
        "cuckoo.evaluate.infeasible_share": _share(infeasible, rows),
        "cuckoo.evaluate.self_ms": ms("cuckoo.evaluate"),
        "cuckoo.repair_cache.hit_share": _share(hits, infeasible),
        "cuckoo.repair_cache.max_mb": max(tracer.cache_mb, default=0.0),
        "cuckoo.repair.calls": repairs,
        "cuckoo.repair.ms": ms("cuckoo.repair"),
        "cuckoo.repair.moved_share": _share(counts["cuckoo.repair.moved"], repairs),
        "cuckoo.repair.fixed_share": _share(counts["cuckoo.repair.fixed"], repairs),
        "objectives.batch_loads.calls": span_calls["objectives.batch_loads"],
        "objectives.batch_loads.rows": counts["objectives.batch_loads.rows"],
        "objectives.batch_loads.ms": ms("objectives.batch_loads"),
        "objectives.batch_objectives.ms": ms("objectives.batch_objectives"),
        "cuckoo.archive.offers": offers,
        "cuckoo.archive.accepted_share": _share(counts["cuckoo.archive.accepted"], offers),
        "cuckoo.archive.ms": ms("cuckoo.archive"),
    }
    for root in ROOTS.values():
        metrics[f"{root}.self_ms"] = ms(root)
    for solver in ROOTS:
        for layer, kind in PER_SOLVER:
            metrics[f"{solver}.{layer}.{kind}"] = table[solver, layer]
    traced_ns = sum(end - start for name, start, end in zip(tracer.names, tracer.starts, tracer.ends)
                    if name in ROOTS.values())
    covered_ms = sum(v for (_, name), v in table.items() if name in LAYERS)
    metrics["trace.coverage_share"] = _share(covered_ms, traced_ns / 1e6)
    return metrics
