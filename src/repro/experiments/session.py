"""The Session façade: batched, cached execution of experiment specs.

A :class:`Session` turns declarative :class:`~repro.experiments.spec.ExperimentSpec`
objects into :class:`~repro.experiments.results.Result` objects through a
pluggable execution engine:

* :class:`SerialEngine` executes specs one after another in-process,
* :class:`ProcessPoolEngine` fans a batch out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Every executed spec is cached under its
:meth:`~repro.experiments.spec.ExperimentSpec.spec_hash` — in memory always,
and additionally as one JSON file per spec when the session is given a
``cache_dir``.  Repeated runs of the same spec (same algorithm, sizes,
preset, device configuration, seed and backends) are served from the cache;
the ``cache_hits`` / ``cache_misses`` counters expose that behaviour.

Quick use::

    from repro.experiments import ExperimentSpec, Session, paper_specs

    session = Session()
    result = session.run(ExperimentSpec("vector_addition", scale="small"))
    print(result.summary())

    evaluation = session.run_many(paper_specs(scale="small"))
    print(evaluation.summaries())
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.algorithms.base import GPUAlgorithm
from repro.algorithms.registry import create
from repro.core.backends import all_backends_support_batch
from repro.core.batch import MetricsBatch
from repro.core.prediction import SweepPrediction, predict_sweep_batch
from repro.experiments.results import Result, ResultSet
from repro.experiments.spec import ExperimentSpec, paper_specs


def _rename_series(
    prediction: SweepPrediction,
    requested: Sequence[str],
    resolved: Sequence[str],
) -> SweepPrediction:
    """Key series computed under resolved backend names by the requested ones.

    Topology placeholder resolution evaluates under auto-registered names
    (``atgpu-topo-<hash>``); callers asked for the names in their spec
    (``atgpu-topo``), so the series dictionary is re-keyed before the
    prediction is returned.  A no-op when nothing was resolved.
    """
    if tuple(requested) == tuple(resolved):
        return prediction
    mapping = {
        res: req for req, res in zip(requested, resolved) if res != req
    }
    return replace(
        prediction,
        series={
            mapping.get(name, name): values
            for name, values in prediction.series.items()
        },
    )


class EngineError(RuntimeError):
    """A spec batch failed inside an execution engine.

    Raised where the engine itself (not the spec's model evaluation) is the
    problem — e.g. the process pool's workers died twice in a row.  The
    offending spec, when identifiable, is attached as :attr:`spec` and named
    in the message.
    """

    def __init__(self, message: str, spec: Optional[ExperimentSpec] = None):
        super().__init__(message)
        self.spec = spec


class BatchCache:
    """Memoizes evaluated per-backend sweep predictions across calls.

    Entries key on ``(algorithm, preset, sizes, backends, topology)`` —
    exactly the data a batched prediction depends on: cost-model evaluation
    is a pure function of those, so repeated :meth:`Session.run_many` calls
    over the same sweeps (different seeds, different device configurations)
    skip both the metrics compilation and the per-backend
    :class:`BatchBreakdown` evaluation.  ``hits`` / ``misses`` count
    prediction lookups.

    Compiled :class:`MetricsBatch` objects are deliberately not kept: a
    batch is several times the size of the predictions evaluated from it,
    and a server seeing distinct request windows would grow by one batch
    per window while almost never hitting one.  :func:`predict_group`
    shares its union batch across the clusters of one call instead.

    The cache is thread-safe: serving-layer workers share one instance
    across threads.  A lookup racing a build may evaluate the same entry
    twice (both threads count a miss; evaluation is pure, so the values are
    identical); the first store wins and every caller receives that one
    shared object.
    """

    def __init__(self) -> None:
        self._predictions: Dict[tuple, SweepPrediction] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    @property
    def size(self) -> int:
        """Number of cached predictions."""
        with self._lock:
            return len(self._predictions)

    def clear(self) -> None:
        """Drop every cached prediction (counters are kept)."""
        with self._lock:
            self._predictions.clear()

    def prediction(self, key: tuple, build) -> SweepPrediction:
        """The evaluated prediction under ``key``, building it on first use.

        Cached predictions are shared between results; callers must treat
        them as read-only.
        """
        with self._lock:
            value = self._predictions.get(key)
            if value is not None:
                self.hits += 1
                return value
            self.misses += 1
        value = build()
        with self._lock:
            return self._predictions.setdefault(key, value)

    def seed_prediction(self, key: tuple, prediction: SweepPrediction) -> None:
        """Store an externally computed prediction without counting a lookup.

        This is how process-pool results flow back into the parent-side
        memo: the pool worker already paid for the evaluation, so the entry
        is planted for later in-process lookups to hit.  An existing entry
        is kept (evaluation is pure; the values are interchangeable).
        """
        with self._lock:
            self._predictions.setdefault(key, prediction)


def execute_spec(
    spec: ExperimentSpec, algorithm: Optional[GPUAlgorithm] = None
) -> Result:
    """Execute one spec: predict, observe, and package the result.

    This is the single execution path behind every engine (it is a
    module-level function so process-pool workers can pickle it).
    ``algorithm`` optionally supplies a pre-built instance — useful for
    algorithm objects that are not in the registry.
    """
    if algorithm is None:
        algorithm = create(spec.algorithm)
    elif algorithm.name != spec.algorithm:
        raise ValueError(
            f"algorithm instance {algorithm.name!r} does not match the spec's "
            f"{spec.algorithm!r}"
        )
    sizes = spec.resolved_sizes(algorithm)
    preset = spec.resolved_preset()
    resolved = spec.resolved_backends()
    prediction = _rename_series(
        algorithm.predict_sweep(sizes, preset=preset, backends=resolved),
        spec.backends,
        resolved,
    )
    observation = algorithm.observe_sweep(
        sizes, config=spec.resolved_device_config(), seed=spec.seed
    )
    return Result.from_sweeps(spec, prediction, observation)


def mergeable(spec: ExperimentSpec, other: ExperimentSpec) -> bool:
    """Whether two specs may share one coalesced prediction group.

    Specs merge when they name the same algorithm and topology and their
    presets resolve to the **same abstract machine**: the compiled
    :class:`MetricsBatch` is a pure function of ``(algorithm, sizes,
    machine)``, so such specs share one union compile even under different
    preset names.  Backend evaluation stays clustered per ``(preset,
    backends)`` inside :func:`predict_group` — presets with one machine may
    still differ in parameters or occupancy — which keeps every spec's
    prediction bit-for-bit equal to evaluating it alone.
    """
    if spec.algorithm != other.algorithm:
        return False
    if spec.topology_key() != other.topology_key():
        return False
    if spec.preset == other.preset:
        return True
    return spec.resolved_preset().machine == other.resolved_preset().machine


def plan_groups(specs: Sequence[ExperimentSpec]) -> List[List[int]]:
    """Greedy first-fit plan of coalescing groups over a spec batch.

    Returns lists of indices into ``specs``; each spec joins the first
    group whose representative (the group's first member) it is
    :func:`mergeable` with, else opens a new group.  Exact
    ``(algorithm, preset, topology)`` repeats short-circuit through a key
    map, so the quadratic representative scan only pays per *distinct*
    key.  Concatenating the groups visits every index exactly once; order
    within a group follows batch order.
    """
    groups: List[List[int]] = []
    representatives: List[ExperimentSpec] = []
    exact: Dict[Tuple[str, str, str], int] = {}
    for index, spec in enumerate(specs):
        key = (spec.algorithm, spec.preset, spec.topology_key())
        slot = exact.get(key)
        if slot is None:
            for candidate, representative in enumerate(representatives):
                if mergeable(spec, representative):
                    slot = candidate
                    break
        if slot is None:
            exact[key] = len(groups)
            groups.append([index])
            representatives.append(spec)
        else:
            exact.setdefault(key, slot)
            groups[slot].append(index)
    return groups


def predict_group(
    specs: Sequence[ExperimentSpec],
    batch_cache: Optional[BatchCache] = None,
    algorithm: Optional[GPUAlgorithm] = None,
) -> List[SweepPrediction]:
    """Coalesced predictions for a group of :func:`mergeable` specs.

    This is the coalescing core shared by :func:`execute_specs` and the
    serving layer (:mod:`repro.serving`).  All specs must be
    :func:`mergeable` — same algorithm and topology, presets resolving to
    one abstract machine — so the whole group is served by **one**
    :class:`MetricsBatch` compiled over the union of its sweep sizes and
    **one** backend evaluation per distinct ``(preset, backends)`` cluster;
    each spec's prediction is scattered back out by selecting its size
    columns (:meth:`~repro.core.prediction.SweepPrediction.select`),
    bit-for-bit equal to evaluating that spec alone.  Specs whose backends
    lack batch support keep the per-spec scalar path (reports included).

    A :class:`BatchCache` (when supplied) memoizes the cluster-level
    union predictions across calls; they are looked up first, so a fully
    warmed cache serves the group without compiling anything.  The union
    batch is compiled at most once per call, shared by every cluster that
    misses, and dropped when the call returns.  Order is preserved.
    """
    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    for spec in specs[1:]:
        if not mergeable(spec, first):
            raise ValueError(
                "predict_group coalesces mergeable specs (one algorithm "
                "and topology, presets resolving to one machine); got "
                f"({first.algorithm!r}, {first.preset!r}, "
                f"{first.topology_key()!r}) and ({spec.algorithm!r}, "
                f"{spec.preset!r}, {spec.topology_key()!r})"
            )
    if algorithm is None:
        algorithm = create(first.algorithm)
    preset_for = [spec.resolved_preset() for spec in specs]
    sizes_for = [spec.resolved_sizes(algorithm) for spec in specs]
    resolved_for = [spec.resolved_backends() for spec in specs]
    batchable = [
        all_backends_support_batch(resolved) for resolved in resolved_for
    ]
    union = sorted({
        n for index, ok in enumerate(batchable) if ok
        for n in sizes_for[index]
    })
    column = {n: j for j, n in enumerate(union)}
    batch: Optional[MetricsBatch] = None

    def union_batch() -> MetricsBatch:
        # Compiled lazily: when every union prediction is already cached
        # (or seeded from pool results), the batch is never needed.
        nonlocal batch
        if batch is None:
            batch = algorithm.compile_batch(union, preset=preset_for[0])
        return batch

    shared: Dict[tuple, SweepPrediction] = {}
    predictions: List[Optional[SweepPrediction]] = [None] * len(specs)
    for index, spec in enumerate(specs):
        sizes = sizes_for[index]
        resolved = resolved_for[index]
        preset = preset_for[index]
        if not batchable[index]:
            predictions[index] = _rename_series(
                algorithm.predict_sweep(
                    sizes, preset=preset, backends=resolved
                ),
                spec.backends,
                resolved,
            )
            continue
        cluster = (spec.preset, resolved)
        union_prediction = shared.get(cluster)
        if union_prediction is None:
            def evaluate(preset=preset, resolved=resolved) -> SweepPrediction:
                return predict_sweep_batch(
                    algorithm.name, union_batch(), preset.machine,
                    preset.parameters, preset.occupancy,
                    backends=resolved,
                )

            if batch_cache is not None:
                union_prediction = batch_cache.prediction(
                    (
                        algorithm.name, spec.preset, tuple(union),
                        resolved, spec.topology_key(),
                    ),
                    evaluate,
                )
            else:
                union_prediction = evaluate()
            shared[cluster] = union_prediction
        if sizes == union:
            prediction = union_prediction
        else:
            prediction = union_prediction.select(
                [column[n] for n in sizes]
            )
        predictions[index] = _rename_series(
            prediction, spec.backends, resolved
        )
    return [p for p in predictions if p is not None]


def execute_group(
    specs: Sequence[ExperimentSpec],
    batch_cache: Optional[BatchCache] = None,
    algorithm: Optional[GPUAlgorithm] = None,
) -> List[Result]:
    """Execute one group of :func:`mergeable` specs, coalesced.

    Predictions come from :func:`predict_group` (one union compile, one
    evaluation per distinct ``(preset, backends)`` cluster); observations
    are simulated per spec as always.  Order is preserved.
    """
    specs = list(specs)
    if not specs:
        return []
    if algorithm is None:
        algorithm = create(specs[0].algorithm)
    predictions = predict_group(
        specs, batch_cache=batch_cache, algorithm=algorithm
    )
    results: List[Result] = []
    for spec, prediction in zip(specs, predictions):
        observation = algorithm.observe_sweep(
            spec.resolved_sizes(algorithm),
            config=spec.resolved_device_config(),
            seed=spec.seed,
        )
        results.append(Result.from_sweeps(spec, prediction, observation))
    return results


def execute_specs(
    specs: Sequence[ExperimentSpec],
    batch_cache: Optional[BatchCache] = None,
) -> List[Result]:
    """Execute a batch of specs, sharing compiled metrics within groups.

    :func:`mergeable` specs — same algorithm and topology, presets
    resolving to one abstract machine — coalesce into one
    :func:`execute_group` call (grouping planned greedily by
    :func:`plan_groups`): one :class:`MetricsBatch` compiled over the union
    of the group's sweep sizes and one backend evaluation per distinct
    ``(preset, backends)`` cluster serve every spec's prediction.
    Compilation goes through the algorithm's array-native
    :meth:`~repro.algorithms.base.GPUAlgorithm.metrics_batch` factory, and a
    :class:`BatchCache` (when supplied) memoizes the evaluated union
    predictions across calls (compiled batches live for one group only).
    Observations are simulated per spec as before.  Order is preserved.
    """
    results: List[Optional[Result]] = [None] * len(specs)
    for indices in plan_groups(specs):
        group_results = execute_group(
            [specs[index] for index in indices], batch_cache=batch_cache
        )
        for index, result in zip(indices, group_results):
            results[index] = result
    return [result for result in results if result is not None]


class ExecutionEngine(Protocol):
    """What a session requires of an execution engine."""

    name: str

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Result]:
        """Execute every spec, preserving order."""
        ...


class SerialEngine:
    """Execute specs one after another in the current process.

    Batches route through :func:`execute_specs`, so :func:`mergeable`
    specs share one compiled :class:`~repro.core.batch.MetricsBatch` for
    their predictions.  A :class:`Session` additionally passes its
    :class:`BatchCache` through :meth:`map_with_cache`, carrying the
    evaluated predictions (not the batches) across calls.
    """

    name = "serial"

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Result]:
        return execute_specs(specs)

    def map_with_cache(
        self, specs: Sequence[ExperimentSpec], batch_cache: BatchCache
    ) -> List[Result]:
        """Like :meth:`map`, memoizing predictions in ``batch_cache``."""
        return execute_specs(specs, batch_cache=batch_cache)


class ProcessPoolEngine:
    """Execute a batch of specs across a pool of worker processes.

    Falls back to in-process execution for batches of one (a pool buys
    nothing there).  ``max_workers`` defaults to the CPU count.  The pool is
    created lazily on the first multi-spec batch and **reused across
    batches** — spawning workers costs tens of milliseconds per process, so
    a per-batch pool would dominate short sweeps.  Call :meth:`close` (or
    use the owning :class:`Session` as a context manager) to shut the
    workers down.

    A batch that dies with :class:`BrokenProcessPool` (a worker crashed or
    was killed) is retried **once** on a fresh pool; if that retry breaks
    too, the engine raises a typed :class:`EngineError` naming the offending
    spec instead of surfacing the raw executor crash.

    .. note::
        Specs naming backends or presets registered at runtime (via
        :func:`repro.core.backends.register_backend` /
        :func:`repro.core.presets.register_preset`) resolve in workers under
        the ``fork`` start method (the Linux default), which inherits the
        parent's registries.  Under ``spawn`` (macOS / Windows default)
        workers re-import the package and only see the built-ins — register
        custom entries at import time of a module the workers load, or use
        the serial engine for such specs.  A reused pool additionally
        snapshots the registries as of its first batch under ``fork``.

        Worker processes cannot *read* the session's in-process
        :class:`BatchCache`, but their results flow back through it:
        :meth:`map_with_cache` seeds the parent-side memo with each
        returned prediction, so later in-process evaluations of the same
        sweeps (serial batches, the serving layer) hit without recompiling.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        # Guards pool creation/teardown when sessions are shared across
        # serving-layer worker threads.
        self._lock = threading.Lock()

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, or ``None`` before first use / after close."""
        with self._lock:
            return self._pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers or os.cpu_count() or 1
                )
            return self._pool

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Result]:
        if len(specs) <= 1:
            return [execute_spec(spec) for spec in specs]
        try:
            return list(self._ensure_pool().map(execute_spec, specs))
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it and retry
            # the batch once on a healthy pool (the old per-batch pool
            # recovered implicitly).
            self.close()
            return self._retry_once(specs)

    def _retry_once(self, specs: Sequence[ExperimentSpec]) -> List[Result]:
        """Re-run a broken batch on a fresh pool, spec by spec.

        Per-spec futures make the second failure attributable: the first
        future to die names the spec that was in flight when the worker
        crashed, and the raised :class:`EngineError` carries it.
        """
        futures = [
            self._ensure_pool().submit(execute_spec, spec) for spec in specs
        ]
        results: List[Result] = []
        for spec, future in zip(specs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                self.close()
                raise EngineError(
                    "process pool broke twice in a row; the retry crashed "
                    f"while executing algorithm {spec.algorithm!r} "
                    f"(spec {spec.spec_hash()})",
                    spec=spec,
                ) from exc
        return results

    def map_with_cache(
        self, specs: Sequence[ExperimentSpec], batch_cache: BatchCache
    ) -> List[Result]:
        """Like :meth:`map`, seeding ``batch_cache`` from the pool's results.

        Workers cannot share the parent's memo, but each result carries the
        prediction its worker evaluated; planting those under the same keys
        :func:`predict_group` looks up closes the loop — a later in-process
        pass over the same ``(algorithm, preset, sizes, backends)`` is
        served from the memo without compiling or evaluating anything.
        """
        results = self.map(specs)
        for spec, result in zip(specs, results):
            resolved = spec.resolved_backends()
            if not all_backends_support_batch(resolved):
                continue
            batch_cache.seed_prediction(
                (
                    spec.algorithm, spec.preset, tuple(result.sizes),
                    resolved, spec.topology_key(),
                ),
                result.comparison().prediction,
            )
        return results

    def close(self) -> None:
        """Shut down the worker pool (a later batch re-creates it)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Engine factories by name, for ``Session(engine="...")``.
ENGINES = {
    SerialEngine.name: SerialEngine,
    ProcessPoolEngine.name: ProcessPoolEngine,
}


def resolve_engine(engine: Union[str, ExecutionEngine]) -> ExecutionEngine:
    """Turn an engine name or instance into an engine instance."""
    if isinstance(engine, str):
        try:
            factory = ENGINES[engine]
        except KeyError as exc:
            known = ", ".join(sorted(ENGINES))
            raise KeyError(
                f"unknown execution engine {engine!r}; known engines: {known}"
            ) from exc
        return factory()
    return engine


class Session:
    """Executes experiment specs with transparent caching and batching.

    Parameters
    ----------
    engine:
        An engine name (``"serial"`` or ``"process"``) or any object
        satisfying :class:`ExecutionEngine`.
    cache_dir:
        Optional directory for the on-disk JSON result store (one
        ``<spec_hash>.json`` file per result).  Results found there survive
        across sessions and processes.

    One session is safe to share across threads (the serving layer's
    workers all execute through a single instance): the result cache, the
    hit/miss counters and the batch memo are lock-guarded, and disk-store
    writes are atomic (temp file + rename).  Two threads racing on the same
    uncached spec may both execute it — execution is deterministic, so both
    produce identical results and the store stays consistent.
    """

    def __init__(
        self,
        engine: Union[str, ExecutionEngine] = "serial",
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.engine = resolve_engine(engine)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Result] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._lock = threading.RLock()
        #: Memoized per-backend predictions, shared with engines that
        #: support ``map_with_cache``.
        self.batch_cache = BatchCache()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine resources (e.g. a persistent worker pool).

        The session stays usable afterwards — an engine with a lazy pool
        simply re-creates it on the next batch.
        """
        close = getattr(self.engine, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    @property
    def cache_size(self) -> int:
        """Number of results held in the in-memory cache."""
        with self._lock:
            return len(self._memory)

    @property
    def batch_cache_hits(self) -> int:
        """Lookups served from the prediction memo."""
        return self.batch_cache.hits

    @property
    def batch_cache_misses(self) -> int:
        """Prediction evaluations the memo could not avoid."""
        return self.batch_cache.misses

    def clear_cache(self, disk: bool = False) -> None:
        """Drop the in-memory caches (and the on-disk store with ``disk=True``).

        Clears both the spec-hash result cache and the prediction memo.
        """
        with self._lock:
            self._memory.clear()
        self.batch_cache.clear()
        if disk and self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                path.unlink()

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def lookup(
        self, spec: ExperimentSpec, key: Optional[str] = None
    ) -> Optional[Result]:
        """Cached result for a spec, or ``None`` (does not touch counters).

        ``key`` optionally supplies the pre-computed ``spec_hash`` so batch
        callers hash each spec exactly once per call.
        """
        key = key if key is not None else spec.spec_hash()
        with self._lock:
            result = self._memory.get(key)
        if result is not None:
            return result
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                result = Result.from_json(path.read_text(encoding="utf-8"))
            except (ValueError, KeyError, TypeError, OSError):
                # A truncated or corrupted store entry is a miss, not a
                # crash: drop it and let the spec re-execute.
                path.unlink(missing_ok=True)
                return None
            with self._lock:
                self._memory[key] = result
            return result
        return None

    def _store(
        self, spec: ExperimentSpec, result: Result, key: Optional[str] = None
    ) -> None:
        key = key if key is not None else spec.spec_hash()
        with self._lock:
            self._memory[key] = result
        path = self._disk_path(key)
        if path is not None:
            # Write-then-rename keeps concurrent writers of the same key
            # from interleaving into a torn store entry.
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(result.to_json(), encoding="utf-8")
            os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: ExperimentSpec,
        use_cache: bool = True,
        algorithm: Optional[GPUAlgorithm] = None,
    ) -> Result:
        """Execute one spec (serially), serving repeats from the cache.

        With ``use_cache=False`` the spec executes unconditionally, nothing
        is stored, and the hit/miss counters are left untouched (matching
        :meth:`run_many`).
        """
        if not use_cache:
            return execute_spec(spec, algorithm=algorithm)
        key = spec.spec_hash()
        cached = self.lookup(spec, key=key)
        if cached is not None:
            with self._lock:
                self.cache_hits += 1
            return cached
        with self._lock:
            self.cache_misses += 1
        result = execute_spec(spec, algorithm=algorithm)
        self._store(spec, result, key=key)
        return result

    def run_many(
        self, specs: Sequence[ExperimentSpec], use_cache: bool = True
    ) -> ResultSet:
        """Execute a batch of specs through the engine, preserving order.

        Cached specs are answered immediately; only the misses go to the
        engine.  Duplicate specs within one batch are executed once: the
        first occurrence counts as a miss, the repeats as hits (they are
        served from that one execution), so ``cache_misses`` always equals
        the number of actual executions.

        With ``use_cache=False`` caching is disabled entirely: every spec —
        duplicates included — is executed, nothing is stored, neither the
        batch memo nor the hit/miss counters are touched.
        """
        specs = list(specs)
        if not use_cache:
            return ResultSet(results=self.engine.map(specs))
        slots: List[Optional[Result]] = [None] * len(specs)
        pending: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            key = spec.spec_hash()
            cached = self.lookup(spec, key=key)
            if cached is not None:
                with self._lock:
                    self.cache_hits += 1
                slots[index] = cached
            else:
                with self._lock:
                    if key in pending:
                        self.cache_hits += 1
                    else:
                        self.cache_misses += 1
                pending.setdefault(key, []).append(index)
        if pending:
            to_run = [specs[indices[0]] for indices in pending.values()]
            mapper = getattr(self.engine, "map_with_cache", None)
            if callable(mapper):
                fresh = mapper(to_run, self.batch_cache)
            else:
                fresh = self.engine.map(to_run)
            for key, result, indices in zip(
                pending, fresh, pending.values()
            ):
                self._store(specs[indices[0]], result, key=key)
                for index in indices:
                    slots[index] = result
        return ResultSet(results=[slot for slot in slots if slot is not None])

    # ------------------------------------------------------------------ #
    # The paper's evaluation
    # ------------------------------------------------------------------ #
    def run_paper_evaluation(
        self, scale: str = "paper", use_cache: bool = True, **spec_kwargs
    ) -> ResultSet:
        """Run the three Section IV experiments as one batch.

        ``spec_kwargs`` forward to :func:`repro.experiments.spec.paper_specs`
        (``preset``, ``device_config``, ``seed``, ``backends``).
        """
        return self.run_many(
            paper_specs(scale=scale, **spec_kwargs), use_cache=use_cache
        )
