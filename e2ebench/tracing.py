"""Timing wrappers around each layer's public functions.

:func:`install` rebinds the program's functions and methods, from outside,
to wrappers that record a span (name, parent, start, end) or bump a counter
whenever the shared :class:`Recorder` is enabled.  While it is disabled the
wrappers only forward the call, which is the idle state the tracing
overhead is measured against.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from stats import covered, self_times

#: Model hooks that materialize the current snapshot (or a reach over it).
SNAPSHOT_HOOKS = (
    "adjacency_matrix",
    "sparse_adjacency",
    "packed_adjacency",
    "reach_mask",
    "packed_reach_mask",
    "reach_mask_batch",
    "neighbors_of_set",
    "snapshot",
)

#: A response whose body trails its headers by this much counts as stalled.
STALL_SECONDS = 0.020

#: Longest time a layer span may start before the op it overlaps.
_OVERLAP_HORIZON = 5.0


class Recorder:
    """In-memory spans and counters, shared by every thread of the process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._half_seen: dict[str, tuple[str, float]] = {}

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counter = Counter()
            self._counters.append(local.counter)
        return local

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self._thread().counter[name] += amount

    def counters(self) -> Counter:
        total = Counter()
        for counter in list(self._counters):
            total.update(counter)
        return total

    def add_span(self, name: str, start: float, end: float, parent=None) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str):
        """A span around a block (no-op while disabled); yields its id."""
        if not self.enabled:
            yield None
            return
        local = self._thread()
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def timed(self, name, func, after=None):
        """``func`` wrapped in a span; ``name`` may be a function of the result."""
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            local = recorder._thread()
            span_id = next(recorder._ids)
            parent = local.stack[-1] if local.stack else None
            local.stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                local.stack.pop()
                label = name(result) if callable(name) else name
                recorder.spans.append((span_id, parent, label, start, end))
                if after is not None:
                    after(args, result, end)

        return wrapper

    def counted(self, name: str, func, amount=None):
        """``func`` wrapped to bump counter ``name`` (by ``amount(args)`` or 1)."""
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if recorder.enabled:
                recorder._thread().counter[name] += 1 if amount is None else amount(args)
            return func(*args, **kwargs)

        return wrapper

    # fleet queue wait: enqueue return until the claim that leases the job.
    # The worker thread may claim a job before the server thread's enqueue
    # call has returned, so the two ends may be noted in either order.
    def _note_queue(self, kind: str, job_id: str, when: float) -> None:
        with self._lock:
            other = self._half_seen.pop(job_id, None)
            if other is None:
                self._half_seen[job_id] = (kind, when)
                return
        enqueued, claimed = (other[1], when) if kind == "claim" else (when, other[1])
        self.queue_waits.append(max(0.0, claimed - enqueued))

    def note_enqueued(self, args, job_id, end) -> None:
        if self.enabled and job_id is not None:
            self._note_queue("enqueue", job_id, end)

    def note_claimed(self, args, job, end) -> None:
        if self.enabled and job is not None:
            self._note_queue("claim", job.id, end)


def _rebind(original, wrapper) -> int:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                rebound += 1
    if not rebound:
        raise RuntimeError(f"{original.__qualname__} is bound in no repro module")
    return rebound


def _patch_method(cls, name: str, make) -> None:
    setattr(cls, name, make(getattr(cls, name)))


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points; call once per process."""
    import repro.api as api
    import repro.cli
    import repro.engine.batch as batch
    import repro.engine.bitset as bitset
    import repro.engine.engine as engine
    import repro.engine.kernel as kernel
    import repro.engine.shard as shard
    import repro.engine.store as store
    import repro.fleet.jobs as jobs
    import repro.fleet.queue as queue
    import repro.fleet.worker  # noqa: F401 - binds execute_job
    import repro.serve.http as http
    import repro.serve.service as service
    from repro.core import flooding
    from repro.meg.base import DynamicGraph
    from repro.meg.edge_meg import EdgeMEG
    from repro.mobility.random_path import GraphRandomWalkMobility
    from repro.mobility.random_waypoint import RandomWaypoint

    timed = recorder.timed

    # CLI argument parsing (the parser is rebuilt on every invocation)
    repro.cli._build_parser = timed("cli.parse", repro.cli._build_parser)

    # request compile and assembly
    _rebind(api.compile_request, timed("api.compile", api.compile_request))
    compile_sweep = api._compile_sweep

    def traced_compile_sweep(request):
        plan = compile_sweep(request)
        return replace(plan, assemble=timed("api.assemble", plan.assemble))

    api._compile_sweep = traced_compile_sweep

    # store keys
    compute_key = store.ResultStore.__dict__["compute_key"].__func__
    store.ResultStore.compute_key = staticmethod(timed("store.key", compute_key))
    _rebind(shard.batch_store_key, timed("store.key_seeds", shard.batch_store_key))
    _rebind(shard.seed_token, recorder.counted(
        "store.seed_children", shard.seed_token, amount=lambda args: len(args[0])
    ))
    # The recursion inside jsonify resolves through the store module's global.
    store.jsonify = recorder.counted("store.jsonify_calls", store.jsonify)

    # store I/O
    def get_outcome(args, record, end):
        recorder.count("store.hits" if record is not None else "store.misses")

    _patch_method(store.ResultStore, "get", lambda f: timed("store.get", f, get_outcome))
    _patch_method(store.ResultStore, "_scan", lambda f: timed("store.scan", f))
    _patch_method(store.ResultStore, "merge", lambda f: timed("store.merge", f))

    def measured_put(func):
        traced = timed("store.put", func)

        def put(self, *args, **kwargs):
            if not recorder.enabled:
                return func(self, *args, **kwargs)
            before = _size(self.path)
            traced(self, *args, **kwargs)
            recorder.count("store.bytes_written", max(_size(self.path) - before, 0))

        return put

    def measured_rewrite(func):
        traced = timed("store.rewrite", func)

        def rewrite(self, *args, **kwargs):
            if not recorder.enabled:
                return func(self, *args, **kwargs)
            traced(self, *args, **kwargs)
            recorder.count("store.bytes_written", _size(self.path))

        return rewrite

    _patch_method(store.ResultStore, "put", measured_put)
    _patch_method(store.ResultStore, "_rewrite", measured_rewrite)

    # model
    for cls, family in (
        (EdgeMEG, "edge-meg"),
        (RandomWaypoint, "waypoint"),
        (GraphRandomWalkMobility, "grid-walk"),
    ):
        _patch_method(cls, "reset", lambda f, fam=family: timed(f"model.reset.{fam}", f))
        _patch_method(cls, "step", lambda f, fam=family: timed(f"model.step.{fam}", f))
        # Only the hooks the family overrides: the engine picks its kernel by
        # asking whether a hook is still the generic one, and a wrapped
        # generic hook would change that answer.
        for hook in SNAPSHOT_HOOKS:
            if getattr(cls, hook) is not getattr(DynamicGraph, hook):
                _patch_method(cls, hook, lambda f, fam=family: timed(f"model.snapshot.{fam}", f))

    # kernel and engine
    kernels = {
        flooding.flood, kernel.flood_vectorized, kernel.flood_sparse,
        kernel.flood_sources_batch, bitset.flood_bitset, batch.flood_trials_batch,
        flooding.flood_sources_set,
    }
    for function in kernels:
        wrapper = timed("kernel.flood", function)
        _rebind(function, wrapper)
        for backend, bound in list(engine._KERNELS.items()):
            if bound is function:
                engine._KERNELS[backend] = wrapper
    _patch_method(engine.Engine, "run", lambda f: timed("engine.run", f))
    _patch_method(engine.Engine, "run_shard", lambda f: timed("engine.run", f))

    # serve
    _patch_method(service.SimulationService, "submit", lambda f: timed("serve.submit", f))
    _patch_method(service.SimulationService, "poll", lambda f: timed("serve.poll", f))
    _patch_method(http.ServeHandler, "_send", lambda f: timed("serve.send", f))

    # fleet
    _patch_method(
        queue.JobSpool, "enqueue", lambda f: timed("spool.enqueue", f, recorder.note_enqueued)
    )
    _patch_method(
        queue.JobSpool, "claim",
        lambda f: timed(
            lambda job: "spool.claim" if job is not None else "spool.claim_idle",
            f, recorder.note_claimed,
        ),
    )
    _patch_method(queue.JobSpool, "mark_done", lambda f: timed("spool.done", f))
    _rebind(jobs.execute_job, timed("fleet.execute", jobs.execute_job))


#: Per-op self-time metrics (ms/op) and the span names they sum.
SELF_TIME_METRICS = {
    "cli.parse_ms": ("cli.parse",),
    "api.compile_ms": ("api.compile",),
    "api.assemble_ms": ("api.assemble",),
    "store.key_ms": ("store.key", "store.key_seeds"),
    "store.get_ms": ("store.get",),
    "store.scan_ms": ("store.scan",),
    "store.put_ms": ("store.put",),
    "store.merge_ms": ("store.merge", "store.rewrite"),
    "kernel.flood_ms": ("kernel.flood",),
    "engine.run_ms": ("engine.run",),
    "serve.submit_ms": ("serve.submit",),
    "serve.poll_ms": ("serve.poll",),
    "serve.send_ms": ("serve.send",),
    "http.body_wait_ms": ("http.body_wait",),
    "spool.enqueue_ms": ("spool.enqueue",),
    "spool.claim_ms": ("spool.claim",),
    "spool.done_ms": ("spool.done",),
    "fleet.execute_ms": ("fleet.execute",),
}
for _family in ("edge-meg", "waypoint", "grid-walk"):
    for _part in ("reset", "step", "snapshot"):
        SELF_TIME_METRICS[f"model.{_part}_ms.{_family}"] = (f"model.{_part}.{_family}",)

#: Per-op span counts.
CALL_METRICS = {
    "api.compile_calls": ("api.compile",),
    "store.key_calls": ("store.key",),
    "kernel.calls": ("kernel.flood",),
    "serve.polls_per_op": ("serve.poll",),
    "model.steps": tuple(f"model.step.{f}" for f in ("edge-meg", "waypoint", "grid-walk")),
}

#: Per-op counters.
COUNTER_METRICS = ("store.seed_children", "store.jsonify_calls", "store.bytes_written")

#: The layers of the layer table, by the span names of their busy time.
#: ``http.body_wait`` is time the client waits, not work, so no layer owns it.
LAYERS = {
    "start-up": ("cli.parse",),
    "request": ("api.compile", "api.assemble"),
    "store keys": ("store.key", "store.key_seeds"),
    "store I/O": ("store.get", "store.scan", "store.put", "store.merge", "store.rewrite"),
    "model": tuple(
        f"model.{part}.{family}"
        for part in ("reset", "step", "snapshot")
        for family in ("edge-meg", "waypoint", "grid-walk")
    ),
    "kernel and engine": ("kernel.flood", "engine.run"),
    "serve": ("serve.submit", "serve.poll", "serve.send"),
    "fleet": ("spool.enqueue", "spool.claim", "spool.done", "fleet.execute"),
}


def summarize(recorder: Recorder, ops: list[tuple[int, float, float]]) -> dict:
    """Per-layer metrics of a traced pass.

    ``ops`` holds ``(root span id, start, end)`` per operation; every
    per-op figure divides by their number.
    """
    count = max(len(ops), 1)
    spans = recorder.spans
    roots = {span_id for span_id, _, _ in ops}
    own = self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    waits = []
    for span_id, _, name, start, end in spans:
        self_by_name[name] += own[span_id]
        calls[name] += 1
        if name == "http.body_wait":
            waits.append(end - start)
    counters = recorder.counters()

    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = 1000.0 * sum(self_by_name[n] for n in names) / count
    for metric, names in CALL_METRICS.items():
        metrics[metric] = sum(calls[n] for n in names) / count
    for metric in COUNTER_METRICS:
        metrics[metric] = counters[metric] / count
    gets = counters["store.hits"] + counters["store.misses"]
    metrics["store.hit_ratio"] = counters["store.hits"] / gets if gets else 0.0
    metrics["http.stalled_share"] = (
        sum(1 for w in waits if w >= STALL_SECONDS) / len(waits) if waits else 0.0
    )
    metrics["fleet.queue_wait_ms"] = 1000.0 * sum(recorder.queue_waits) / count

    metrics["trace.coverage"] = _coverage(spans, ops, roots)
    layer_self = {
        layer: 1000.0 * sum(self_by_name[n] for n in names) / count
        for layer, names in LAYERS.items()
    }
    return {"metrics": metrics, "layer_self_ms": layer_self}


def _coverage(spans: list[tuple], ops: list[tuple[int, float, float]], roots: set) -> float:
    """Share of op wall time that layer spans (any thread) cover."""
    layer_spans = sorted(
        (start, end) for span_id, _, name, start, end in spans
        if span_id not in roots and not name.endswith("_idle")
    )
    starts = [start for start, _ in layer_spans]
    op_wall = sum(end - start for _, start, end in ops)
    if not op_wall:
        return 0.0
    total = 0.0
    for _, start, end in ops:
        # Ops run one after another, so only spans that start shortly before
        # an op (or during it) can overlap it.
        window = layer_spans[
            bisect.bisect_left(starts, start - _OVERLAP_HORIZON) : bisect.bisect_left(starts, end)
        ]
        total += covered(window, start, end)
    return total / op_wall
