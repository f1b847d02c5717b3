"""Spans and counters around the calls into each layer of ``repro``.

The benchmark measures the program from the outside: :func:`install`
replaces the public entry points of each layer with thin wrappers that
record a span (name, inclusive seconds, self seconds) and the counts the
per-layer metrics need, then :func:`uninstall` puts the originals back.
Nothing under ``src/`` is edited.

Spans nest per thread.  A span's self time is its duration minus the time
covered by the spans it caused, so the self times of all spans plus the
untraced remainder add up to the wall time of the traced job.  Spans and
counts are kept in memory; :meth:`Tracer.layer_metrics` turns them into
the per-layer metric values at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

#: Span names whose self time belongs to the simulator layers.
SIMULATOR_SPANS = (
    "sim.sweep", "sim.probe", "sim.device_run", "sim.scalar_observe",
    "sim.functional", "sim.warp",
)
#: Span names whose self time belongs to the prediction layers.
PREDICTION_SPANS = (
    "metrics.grid", "batch.compile", "backends.evaluate",
    "prediction.evaluate", "prediction.select", "prediction.sweep",
)


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.warp_patterns: set = set()
        self.warp_normalized: set = set()
        self.sessions: list = []
        self.servers: list = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recorded as span ``name`` (a string or ``name(args)``).

        ``before(args, kwargs)`` runs ahead of the span, ``after(args,
        kwargs, out)`` after it; both are for counts, and their own cost is
        charged to the enclosing span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.total_s[label] += elapsed
                    tracer.self_s[label] += elapsed - children[0]
                    tracer.calls[label] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching helpers
    # ------------------------------------------------------------------ #
    def patch_function(self, module, attr: str, name, before=None, after=None):
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, before=before, after=after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append(
                        functools.partial(setattr, mod, key, original)
                    )
        return wrapped

    def patch_method(self, cls, attr: str, name, before=None, after=None):
        """Wrap a method defined on ``cls`` itself (plain or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self.wrap(name, raw.__func__, before=before, after=after)
            )
        else:
            wrapped = self.wrap(name, raw, before=before, after=after)
        setattr(cls, attr, wrapped)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metric values (seconds are span self times)."""
        s, n, c = self.self_s, self.calls, self.counts
        hits = sum(x.cache_hits for x in self.sessions)
        misses = sum(x.cache_misses for x in self.sessions)
        batch_hits = sum(x.batch_cache.hits for x in self.sessions)
        batch_misses = sum(x.batch_cache.misses for x in self.sessions)
        warp_calls = n["sim.warp"]
        distinct = len(self.warp_patterns)
        normalized = len(self.warp_normalized)
        waits = self.samples["serve.queue_wait_s"]
        stats = [server.stats() for server in self.servers]
        groups = n["serve.dispatch"]
        return {
            "session.run_many_s": s["session.run_many"],
            "session.predict_group_s": s["session.predict_group"],
            "session.execute_group_s": s["session.execute_group"],
            "session.specs_per_group": _ratio(
                c["session.specs_planned"], c["session.groups_planned"]
            ),
            "session.cache_hit_ratio": _ratio(hits, hits + misses),
            "session.batch_cache_hit_ratio": _ratio(
                batch_hits, batch_hits + batch_misses
            ),
            "metrics.grid_s": s["metrics.grid"],
            "metrics.grid_calls": n["metrics.grid"],
            "batch.compile_s": s["batch.compile"],
            "batch.compile_calls": n["batch.compile"],
            "batch.points_compiled": c["batch.points"],
            "backends.evaluate_s": s["backends.evaluate"],
            "backends.evaluate_calls": n["backends.evaluate"],
            "backends.scalar_fallbacks": c["backends.scalar_fallbacks"],
            "prediction.evaluate_s": s["prediction.evaluate"],
            "prediction.select_s": s["prediction.select"],
            "prediction.select_calls": n["prediction.select"],
            "sim.sweep_s": self.total_s["sim.sweep"],
            "sim.sweep_calls": n["sim.sweep"],
            "sim.points": c["sim.points"],
            "sim.probe_s": s["sim.probe"],
            "sim.replay_s": s["sim.sweep"],
            "sim.scalar_points": n["sim.scalar_observe"],
            "sim.scalar_s": s["sim.scalar_observe"] + s["sim.device_run"],
            "sim.functional_s": s["sim.functional"],
            "sim.blocks_interpreted": c["sim.blocks"],
            "sim.warp_analyses": warp_calls,
            "sim.warp_patterns_distinct": distinct,
            "sim.warp_analysis_s": s["sim.warp"],
            "sim.warp_reuse_ratio": (
                1.0 - distinct / warp_calls if warp_calls else 0.0
            ),
            "sim.warp_patterns_normalized": normalized,
            "sim.warp_reuse_ratio_normalized": (
                1.0 - normalized / warp_calls if warp_calls else 0.0
            ),
            "serve.queue_wait_ms": (
                1e3 * sum(waits) / len(waits) if waits else 0.0
            ),
            "serve.dispatch_s": _ratio(self.total_s["serve.dispatch"], groups),
            "serve.group_size": _ratio(c["serve.grouped_requests"], groups),
            "serve.rejected": sum(x.rejected for x in stats),
            "serve.expired": sum(x.expired for x in stats),
            "results.build_s": s["results.build"],
        }

    def share(self, spans, wall_s: float) -> float:
        """Share of ``wall_s`` covered by the self time of ``spans``."""
        return sum(self.self_s[name] for name in spans) / wall_s if wall_s else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install() -> Tracer:
    """Wrap every traced entry point of ``repro``; returns the tracer."""
    import numpy as np

    import repro.algorithms as algorithms_pkg  # noqa: F401 - loads every algorithm
    from repro.algorithms.base import GPUAlgorithm
    from repro.core import backends, batch, prediction
    from repro.experiments import results, session
    from repro.serving import server
    from repro.simulator import batch as sim_batch
    from repro.simulator import functional, memory

    t = Tracer()

    # experiments.session
    def planned(args, kwargs, out):
        t.count("session.specs_planned", len(args[0]))
        t.count("session.groups_planned", len(out))

    t.patch_function(session, "plan_groups", "session.plan", after=planned)
    t.patch_function(session, "predict_group", "session.predict_group")
    t.patch_function(session, "execute_group", "session.execute_group")
    t.patch_method(session.Session, "run_many", "session.run_many")
    t.patch_method(
        session.Session, "__init__", "session.init",
        after=lambda args, kwargs, out: t.sessions.append(args[0]),
    )

    # algorithms + core.metrics, and the simulator's probe entry (run)
    probe_type = sim_batch.ProbeDevice

    def run_span(args):
        return "sim.probe" if isinstance(args[1], probe_type) else "sim.device_run"

    for cls in _subclasses(GPUAlgorithm):
        if "metrics_batch" in cls.__dict__:
            t.patch_method(cls, "metrics_batch", "metrics.grid")
        if "run" in cls.__dict__:
            t.patch_method(cls, "run", run_span)
        if "observe" in cls.__dict__:
            t.patch_method(cls, "observe", "sim.scalar_observe")
    t.patch_method(GPUAlgorithm, "observe", "sim.scalar_observe")

    # core.batch
    def compiled(args, kwargs):
        sizes = kwargs.get("sizes", args[2] if len(args) > 2 else ())
        t.count("batch.points", len(sizes))

    t.patch_method(batch.MetricsBatch, "compile", "batch.compile", before=compiled)

    # core.backends
    def evaluated(args, kwargs):
        names = kwargs.get("names", args[0] if args else ())
        if not all(
            backends.backend_supports_batch(backends.get_backend(name))
            for name in names
        ):
            t.count("backends.scalar_fallbacks")

    t.patch_function(
        backends, "evaluate_backends_batch", "backends.evaluate",
        before=evaluated,
    )

    # core.prediction
    def swept(args, kwargs, out):
        if out.reports:  # only the per-size scalar path attaches reports
            t.count("backends.scalar_fallbacks")

    t.patch_function(prediction, "predict_sweep", "prediction.sweep", after=swept)
    t.patch_function(
        prediction, "predict_sweep_batch", "prediction.evaluate"
    )
    t.patch_method(prediction.SweepPrediction, "select", "prediction.select")

    # simulator.batch
    t.patch_function(
        sim_batch, "simulate_sweep", "sim.sweep",
        before=lambda args, kwargs: t.count(
            "sim.points", len(kwargs.get("sizes", args[1] if len(args) > 1 else ()))
        ),
    )

    # simulator.functional
    t.patch_method(
        functional.FunctionalEngine, "execute_all", "sim.functional",
        after=lambda args, kwargs, out: t.count("sim.blocks", len(out)),
    )
    t.patch_method(
        functional.FunctionalEngine, "execute_sampled", "sim.functional",
        after=lambda args, kwargs, out: t.count("sim.blocks", len(out[0])),
    )

    # simulator.memory: the pure warp analyses, keyed by their exact input
    # and by the input shifted down to its first bank row / memory block
    # (both analyses are invariant under that shift)
    def pattern(kind):
        def before(args, kwargs):
            addresses = np.asarray(args[0])
            exact = (kind, args[1], addresses.dtype.str, addresses.shape,
                     addresses.tobytes())
            shifted = exact
            if addresses.size:
                base = int(addresses.min()) // args[1] * args[1]
                shifted = exact[:4] + ((addresses - base).tobytes(),)
            with t._lock:
                t.warp_patterns.add(exact)
                t.warp_normalized.add(shifted)
        return before

    t.patch_function(
        memory, "bank_conflict_degree", "sim.warp", before=pattern("bank")
    )
    t.patch_function(
        memory, "coalesced_transactions", "sim.warp", before=pattern("coalesce")
    )

    # serving.queue / serving.server
    def dispatching(args, kwargs):
        now = time.monotonic()
        requests = args[1].requests
        t.count("serve.grouped_requests", len(requests))
        with t._lock:
            t.samples["serve.queue_wait_s"].extend(
                now - r.submitted_at for r in requests
            )

    t.patch_method(
        server.PredictionServer, "_dispatch", "serve.dispatch",
        before=dispatching,
    )
    t.patch_method(
        server.PredictionServer, "__init__", "serve.init",
        after=lambda args, kwargs, out: t.servers.append(args[0]),
    )

    # experiments.results
    t.patch_method(results.Result, "from_sweeps", "results.build")
    return t


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
