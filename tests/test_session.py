"""Tests for the declarative Session API: specs, backends, engines, caching."""

from __future__ import annotations

import gc
import json
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core.backends import (
    DEFAULT_BACKENDS,
    backend_label,
    backend_names,
    get_backend,
    make_backend,
    register_backend,
    unregister_backend,
)
from repro.core.batch import MetricsBatch
from repro.core.prediction import (
    POSITIVE_TOTALS_MESSAGE,
    PredictionComparison,
    SweepObservation,
    SweepPrediction,
)
from repro.core.presets import GTX_650
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ProcessPoolEngine,
    Result,
    ResultSet,
    Session,
    BatchCache,
    all_figures,
    execute_spec,
    execute_specs,
    paper_specs,
    predict_group,
    summary_statistics,
)
from repro.simulator.config import DeviceConfig
from repro.workloads.sweeps import dense_sweep

#: Tiny explicit sweeps so every session test executes quickly.
TINY_SIZES = (1_000, 4_000)


def tiny_spec(algorithm="vector_addition", **kwargs) -> ExperimentSpec:
    kwargs.setdefault("sizes", TINY_SIZES)
    return ExperimentSpec(algorithm=algorithm, **kwargs)


class TestExperimentSpec:
    def test_roundtrip_through_dict_and_json(self):
        spec = ExperimentSpec(
            algorithm="reduction",
            sizes=(1024, 2048),
            scale="small",
            preset="gtx980",
            device_config=DeviceConfig.gtx980(),
            seed=7,
            backends=("atgpu", "perfect"),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_hash_stability_and_equality(self):
        a = ExperimentSpec("reduction", sizes=[100, 200], seed=3)
        b = ExperimentSpec("reduction", sizes=(100, 200), seed=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec_hash() == b.spec_hash()
        # The hash survives a serialisation round trip (cross-process key).
        assert ExperimentSpec.from_json(a.to_json()).spec_hash() == a.spec_hash()

    def test_hash_covers_every_field(self):
        base = tiny_spec()
        assert base.spec_hash() != base.with_overrides(seed=1).spec_hash()
        assert base.spec_hash() != base.with_overrides(preset="gtx980").spec_hash()
        assert base.spec_hash() != base.with_overrides(
            device_config=DeviceConfig.gtx650().with_overrides(num_sms=4)
        ).spec_hash()
        assert base.spec_hash() != base.with_overrides(
            backends=("atgpu",)
        ).spec_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec("")
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", scale="huge")
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", sizes=())
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", sizes=(0,))
        with pytest.raises(ValueError):
            ExperimentSpec("reduction", backends=())
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"algorithm": "reduction", "bogus": 1})

    def test_named_sweep_resolution(self):
        spec = ExperimentSpec("reduction", scale="small")
        from repro.workloads.sweeps import SMALL_SWEEPS

        assert spec.resolved_sizes() == list(SMALL_SWEEPS["reduction"].sizes)

    def test_paper_specs_cover_section_iv(self):
        specs = paper_specs(scale="small")
        assert [s.algorithm for s in specs] == [
            "vector_addition", "reduction", "matrix_multiplication"]
        assert all(s.backends == DEFAULT_BACKENDS for s in specs)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        for name in ("atgpu", "swgpu", "perfect", "agpu"):
            assert name in backend_names()
        assert get_backend("atgpu").label == "ATGPU"
        assert backend_label("swgpu") == "SWGPU"
        assert backend_label("not-registered") == "not-registered"

    def test_unknown_backend_error_lists_known_names(self):
        with pytest.raises(KeyError, match="atgpu"):
            get_backend("definitely-not-a-backend")

    def test_register_lookup_and_overwrite_guard(self):
        double = make_backend(
            "test-double-atgpu", "2×ATGPU",
            lambda metrics, machine, params, occ:
                2.0 * get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        try:
            register_backend(double)
            assert get_backend("test-double-atgpu") is double
            with pytest.raises(ValueError):
                register_backend(double)
            register_backend(double, overwrite=True)
        finally:
            unregister_backend("test-double-atgpu")
        with pytest.raises(KeyError):
            get_backend("test-double-atgpu")

    def test_custom_backend_flows_through_prediction(self):
        double = make_backend(
            "test-double-atgpu", "2×ATGPU",
            lambda metrics, machine, params, occ:
                2.0 * get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        register_backend(double)
        try:
            from repro.algorithms import VectorAddition

            prediction = VectorAddition().predict_sweep(
                [1000, 2000], preset=GTX_650,
                backends=("atgpu", "test-double-atgpu"),
            )
            assert np.allclose(
                prediction.series_for("test-double-atgpu"),
                2.0 * prediction.series_for("atgpu"),
            )
            assert "test-double-atgpu" in prediction.backend_names()
        finally:
            unregister_backend("test-double-atgpu")

    def test_agpu_backend_reports_unitless_time(self):
        from repro.algorithms import Reduction

        prediction = Reduction().predict_sweep(
            [1 << 12, 1 << 14], preset=GTX_650, backends=("atgpu", "agpu"))
        agpu = prediction.series_for("agpu")
        assert np.all(agpu > 0)
        # AGPU's asymptotic time view is unit-less device steps, not seconds.
        assert not np.allclose(agpu, prediction.series_for("atgpu"))


class TestSweepPredictionGenerics:
    def test_series_only_prediction_supports_figures_but_not_reports(self):
        prediction = SweepPrediction(
            algorithm="demo", sizes=[1, 2],
            series={"atgpu": np.array([1.0, 2.0]),
                    "swgpu": np.array([0.5, 1.0])},
            proportions=[0.5, 0.5],
        )
        assert set(prediction.normalised()) == {"ATGPU", "SWGPU"}
        assert np.allclose(prediction.predicted_transfer_proportions, 0.5)
        with pytest.raises(ValueError, match="analysis reports"):
            _ = prediction.transfer_costs
        with pytest.raises(KeyError, match="perfect"):
            prediction.series_for("perfect")

    def test_prediction_requires_reports_or_series(self):
        with pytest.raises(ValueError):
            SweepPrediction(algorithm="demo", sizes=[1, 2])

    def test_zero_total_guard_is_shared(self):
        obs = SweepObservation("demo", [1, 2], [1.0, 0.0], [0.5, 0.0])
        with pytest.raises(ValueError, match="must be positive"):
            _ = obs.observed_transfer_proportions
        prediction = SweepPrediction(
            algorithm="demo", sizes=[1, 2],
            series={"atgpu": [1.0, 2.0], "swgpu": [1.0, 2.0]},
            proportions=[0.1, 0.2],
        )
        comparison = PredictionComparison(prediction, obs)
        with pytest.raises(ValueError) as err:
            comparison.swgpu_capture_fraction()
        assert str(err.value) == POSITIVE_TOTALS_MESSAGE


class TestSessionExecution:
    def test_run_produces_result_with_backend_series(self):
        session = Session()
        result = session.run(tiny_spec())
        assert isinstance(result, Result)
        assert set(result.predicted) == set(DEFAULT_BACKENDS)
        assert result.sizes == list(TINY_SIZES)
        assert np.all(result.backend_series("atgpu")
                      >= result.backend_series("swgpu"))
        stats = result.statistics()
        assert "perfect_shape_score" in stats
        assert 0 <= stats["swgpu_capture_fraction"] <= 1

    def test_result_json_roundtrip_preserves_statistics(self):
        result = execute_spec(tiny_spec(seed=3))
        restored = Result.from_json(result.to_json())
        assert restored.summary() == pytest.approx(result.summary())
        assert restored.spec == result.spec

    def test_process_pool_engine_matches_serial(self):
        specs = [tiny_spec(), tiny_spec("reduction", sizes=(1 << 12, 1 << 13))]
        serial = Session(engine="serial").run_many(specs)
        pooled = Session(engine=ProcessPoolEngine(max_workers=2)).run_many(specs)
        assert len(serial) == len(pooled) == 2
        for a, b in zip(serial, pooled):
            assert a.spec == b.spec
            assert a.predicted == b.predicted
            assert a.observed_totals == b.observed_totals
            assert a.summary() == pytest.approx(b.summary())

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError, match="serial"):
            Session(engine="quantum")

    def test_cache_hit_and_miss_across_seeds(self):
        session = Session()
        first = session.run(tiny_spec(seed=0))
        assert (session.cache_hits, session.cache_misses) == (0, 1)
        again = session.run(tiny_spec(seed=0))
        assert again is first
        assert (session.cache_hits, session.cache_misses) == (1, 1)
        other_seed = session.run(tiny_spec(seed=1))
        assert other_seed is not first
        assert (session.cache_hits, session.cache_misses) == (1, 2)
        # Different seeds genuinely reach the generators.
        assert other_seed.spec.spec_hash() != first.spec.spec_hash()

    def test_run_many_serves_duplicates_from_one_execution(self):
        session = Session()
        results = session.run_many([tiny_spec(), tiny_spec()])
        assert len(results) == 2
        assert results[0] is results[1]
        # Misses equal actual executions; the duplicate counts as a hit.
        assert (session.cache_hits, session.cache_misses) == (1, 1)
        assert session.cache_size == 1

    def test_run_many_without_cache_re_executes_duplicates(self):
        """With use_cache=False duplicates must not be deduplicated and the
        hit/miss counters must stay untouched."""
        session = Session()
        executed = []

        class CountingEngine:
            name = "counting"

            def map(self, specs):
                from repro.experiments.session import execute_spec

                executed.extend(specs)
                return [execute_spec(spec) for spec in specs]

        session.engine = CountingEngine()
        results = session.run_many(
            [tiny_spec(), tiny_spec()], use_cache=False
        )
        assert len(results) == 2
        assert len(executed) == 2
        assert results[0] is not results[1]
        assert (session.cache_hits, session.cache_misses) == (0, 0)
        # Nothing was stored either: a later cached run still misses.
        assert session.cache_size == 0
        # run() follows the same contract: uncached runs leave the counters
        # alone and store nothing.
        session.run(tiny_spec(), use_cache=False)
        assert (session.cache_hits, session.cache_misses) == (0, 0)
        assert session.cache_size == 0
        session.run(tiny_spec())
        assert (session.cache_hits, session.cache_misses) == (0, 1)

    def test_disk_cache_survives_sessions(self, tmp_path):
        spec = tiny_spec(seed=5)
        writer = Session(cache_dir=tmp_path)
        produced = writer.run(spec)
        assert list(tmp_path.glob("*.json"))
        reader = Session(cache_dir=tmp_path)
        served = reader.run(spec)
        assert reader.cache_hits == 1 and reader.cache_misses == 0
        assert served.summary() == pytest.approx(produced.summary())
        payload = json.loads((tmp_path / f"{spec.spec_hash()}.json").read_text())
        assert payload["spec"]["algorithm"] == "vector_addition"

    def test_disk_reloaded_result_supports_summary_for_any_backends(self, tmp_path):
        """Cached results must behave like fresh ones even when the spec's
        backend list omits the atgpu/swgpu pair the statistics need."""
        spec = tiny_spec(backends=("atgpu", "perfect"))
        fresh = Session(cache_dir=tmp_path).run(spec)
        reloaded = Session(cache_dir=tmp_path).run(spec)
        assert reloaded.summary() == pytest.approx(fresh.summary())
        assert set(reloaded.predicted) >= {"atgpu", "swgpu", "perfect"}

    def test_corrupted_disk_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec(seed=8)
        session = Session(cache_dir=tmp_path)
        session.run(spec)
        path = tmp_path / f"{spec.spec_hash()}.json"
        path.write_text("{ not json")
        fresh = Session(cache_dir=tmp_path)
        result = fresh.run(spec)  # must re-execute, not crash
        assert fresh.cache_misses == 1
        assert result.sizes == list(TINY_SIZES)
        # The broken entry was replaced by a valid one.
        assert json.loads(path.read_text())["spec"]["seed"] == 8

    def test_resultset_views_and_figures(self):
        session = Session()
        evaluation = session.run_many(paper_specs(
            scale="small", backends=("atgpu", "swgpu", "perfect")))
        assert isinstance(evaluation, ResultSet)
        assert set(evaluation.by_algorithm()) == {
            "vector_addition", "reduction", "matrix_multiplication"}
        figures = all_figures(evaluation)
        assert set(figures) == {"3a", "3b", "3c", "4a", "4b", "4c",
                                "5a", "5b", "6a", "6b", "6c"}
        restored = ResultSet.from_json(evaluation.to_json())
        for name, summary in evaluation.summaries().items():
            assert restored.summaries()[name] == pytest.approx(summary)
        with pytest.raises(KeyError, match="no result"):
            evaluation.get("histogram")


class TestSectionIVParity:
    """Acceptance: Session reproduces the legacy evaluation path exactly."""

    def test_session_matches_legacy_runner_and_caches_repeats(self):
        session = Session()
        specs = paper_specs(scale="small",
                            backends=("atgpu", "swgpu", "perfect"))
        modern = session.run_many(specs)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = ExperimentRunner(scale="small").run_paper_evaluation()

        assert set(modern.by_algorithm()) == set(legacy)
        for name, comparison in legacy.items():
            assert modern.get(name).summary() == pytest.approx(
                comparison.summary())
        modern_summaries = summary_statistics(modern)
        legacy_summaries = summary_statistics(legacy)
        for name in legacy_summaries:
            assert (modern_summaries[name].measured_transfer_share
                    == pytest.approx(legacy_summaries[name].measured_transfer_share))
            assert (modern_summaries[name].measured_swgpu_capture
                    == pytest.approx(legacy_summaries[name].measured_swgpu_capture))

        # A repeated batch is served entirely from the cache.
        hits_before = session.cache_hits
        repeat = session.run_many(specs)
        assert session.cache_hits == hits_before + len(specs)
        for first, second in zip(modern, repeat):
            assert first is second


class TestRunnerShim:
    def test_runner_emits_deprecation_warning(self):
        with pytest.warns(DeprecationWarning, match="Session"):
            ExperimentRunner(scale="small")

    def test_customised_preset_keeping_a_registered_name_is_accepted(self):
        """The legacy runner accepted tweaked copies of registered presets."""
        from dataclasses import replace

        from repro.algorithms import VectorAddition

        tweaked = replace(
            GTX_650, parameters=replace(GTX_650.parameters, sigma=1.0e-4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            runner = ExperimentRunner(preset=tweaked, scale="small")
        comparison = runner.run_algorithm(VectorAddition(), sizes=TINY_SIZES)
        spec = runner.spec_for("vector_addition", sizes=TINY_SIZES)
        assert spec.preset.startswith("gtx650-")  # content-addressed alias
        assert comparison.prediction.atgpu_costs[0] > 0
        from repro.core.presets import PRESETS

        assert PRESETS["gtx650"] == GTX_650  # the original is untouched

    def test_mutated_runner_fields_invalidate_cache(self):
        """The legacy cache-key bug: seed/preset/device changes must miss."""
        from repro.algorithms import VectorAddition

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            runner = ExperimentRunner(scale="small")
        first = runner.run_algorithm(VectorAddition(), sizes=TINY_SIZES)
        runner.seed = 99
        reseeded = runner.run_algorithm(VectorAddition(), sizes=TINY_SIZES)
        assert reseeded is not first
        runner.device_config = DeviceConfig.gtx650().with_overrides(num_sms=4)
        retimed = runner.run_algorithm(VectorAddition(), sizes=TINY_SIZES)
        assert retimed is not reseeded
        # Faster device: the observed totals must actually differ.
        assert not np.allclose(retimed.observation.totals,
                               reseeded.observation.totals)


class TestGroupedBatchExecution:
    """Session.run_many routes homogeneous groups through one MetricsBatch."""

    def test_grouped_serial_matches_per_spec_execution(self):
        specs = [
            tiny_spec(seed=0),
            tiny_spec(seed=1),
            tiny_spec(seed=0, sizes=(2_000, 8_000)),
            tiny_spec("reduction", sizes=(1 << 12, 1 << 13)),
        ]
        grouped = Session(engine="serial").run_many(specs, use_cache=False)
        for spec, result in zip(specs, grouped):
            direct = execute_spec(spec)
            assert result.spec == spec
            assert result.predicted == direct.predicted
            assert result.predicted_transfer_proportions == \
                direct.predicted_transfer_proportions
            assert result.observed_totals == direct.observed_totals

    def test_grouped_execution_handles_unbatchable_backends(self):
        custom = make_backend(
            "test-session-scalar-only", "scalar-only",
            lambda metrics, machine, params, occ:
                get_backend("atgpu").cost(metrics, machine, params, occ),
        )
        register_backend(custom)
        try:
            specs = [
                tiny_spec(),
                tiny_spec(backends=("atgpu", "test-session-scalar-only")),
            ]
            results = Session(engine="serial").run_many(specs, use_cache=False)
            assert np.allclose(
                results[1].backend_series("test-session-scalar-only"),
                results[1].backend_series("atgpu"),
            )
            assert results[0].predicted == execute_spec(specs[0]).predicted
        finally:
            unregister_backend("test-session-scalar-only")

    def test_grouped_execution_preserves_order_and_length(self):
        specs = [
            tiny_spec("reduction", sizes=(1 << 12,)),
            tiny_spec(seed=2),
            tiny_spec("reduction", sizes=(1 << 13,)),
        ]
        results = Session(engine="serial").run_many(specs, use_cache=False)
        assert [r.spec for r in results] == specs


class TestEngineAndSessionLifecycle:
    def test_process_pool_engine_reuses_one_pool(self):
        engine = ProcessPoolEngine(max_workers=2)
        assert engine.pool is None  # lazy: no workers before the first batch
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
        engine.map(specs)
        first = engine.pool
        assert first is not None
        engine.map(specs)
        assert engine.pool is first  # no per-batch teardown/respawn
        engine.close()
        assert engine.pool is None
        engine.map(specs)  # usable again after close
        assert engine.pool is not None and engine.pool is not first
        engine.close()

    def test_single_spec_batches_never_spawn_workers(self):
        engine = ProcessPoolEngine(max_workers=2)
        engine.map([tiny_spec()])
        assert engine.pool is None

    def test_broken_pool_retries_the_batch_once_on_a_fresh_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        engine = ProcessPoolEngine(max_workers=2)

        class PoisonedPool:
            def map(self, fn, specs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        engine._pool = PoisonedPool()
        # One break is absorbed: the batch re-runs on a fresh pool.
        results = engine.map([tiny_spec(seed=0), tiny_spec(seed=1)])
        assert len(results) == 2
        assert engine.pool is not None and not isinstance(
            engine.pool, PoisonedPool
        )
        engine.close()

    def test_pool_broken_twice_raises_engine_error_naming_the_spec(self):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import EngineError

        engine = ProcessPoolEngine(max_workers=2)
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]

        class BrokenFuture:
            def result(self):
                raise BrokenProcessPool("worker died again")

        class PoisonedPool:
            def map(self, fn, specs):
                raise BrokenProcessPool("worker died")

            def submit(self, fn, *args):
                return BrokenFuture()

            def shutdown(self, *args, **kwargs):
                pass

        # Poison both the first pool and the retry pool.
        engine._pool = PoisonedPool()
        original = engine._ensure_pool

        def poisoned_ensure():
            with engine._lock:
                if engine._pool is None:
                    engine._pool = PoisonedPool()
                return engine._pool

        engine._ensure_pool = poisoned_ensure
        with pytest.raises(EngineError) as excinfo:
            engine.map(specs)
        assert specs[0].spec_hash() in str(excinfo.value)
        assert excinfo.value.spec == specs[0]
        engine._ensure_pool = original
        assert engine.pool is None
        engine.close()

    def test_session_context_manager_closes_engine(self):
        engine = ProcessPoolEngine(max_workers=2)
        with Session(engine=engine) as session:
            session.run_many(
                [tiny_spec(seed=0), tiny_spec(seed=1)], use_cache=False
            )
            assert engine.pool is not None
        assert engine.pool is None

    def test_session_close_is_safe_for_serial_engine(self):
        session = Session()
        session.close()  # SerialEngine has no close(); must be a no-op
        assert session.run(tiny_spec()) is not None


class TestSpecHashMemoization:
    def test_hash_computed_once_and_stable(self):
        spec = tiny_spec(seed=4)
        first = spec.spec_hash()
        assert spec.__dict__.get("_spec_hash") == first
        assert spec.spec_hash() is first  # served from the memo
        # A fresh, equal spec computes the same digest independently.
        assert tiny_spec(seed=4).spec_hash() == first

    def test_with_overrides_does_not_inherit_stale_hash(self):
        spec = tiny_spec(seed=4)
        original = spec.spec_hash()
        changed = spec.with_overrides(seed=5)
        assert "_spec_hash" not in changed.__dict__
        assert changed.spec_hash() != original

    def test_json_roundtrip_hash_matches(self):
        spec = tiny_spec(seed=6)
        spec.spec_hash()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.spec_hash() == spec.spec_hash()


class TestBatchEvaluationCache:
    """The per-backend prediction memo (evaluated union predictions only)."""

    def test_repeated_run_many_hits_batch_cache(self):
        session = Session()
        specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
        first = session.run_many(specs)
        # One group: one union prediction per distinct backends tuple (both
        # specs share it — the second is scattered from the same
        # evaluation).  The batch compiled for it is not an entry.
        assert session.batch_cache_misses == 1
        assert session.batch_cache_hits == 0
        assert session.batch_cache.size == 1
        # New seeds miss the spec-hash cache but are served entirely from
        # the memoized union prediction — nothing is compiled.
        second = session.run_many([tiny_spec(seed=2), tiny_spec(seed=3)])
        assert session.batch_cache_misses == 1
        assert session.batch_cache_hits == 1
        assert first[0].predicted["atgpu"] == second[0].predicted["atgpu"]

    def test_spec_hash_cache_answers_before_batch_cache(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)])
        misses = session.batch_cache_misses
        hits = session.batch_cache_hits
        # An exact repeat is a spec-hash hit; the batch memo is not touched.
        session.run_many([tiny_spec(seed=0)])
        assert session.batch_cache_misses == misses
        assert session.batch_cache_hits == hits
        assert session.cache_hits == 1

    def test_distinct_sizes_and_backends_are_distinct_entries(self):
        session = Session()
        session.run_many([
            tiny_spec(seed=0),
            tiny_spec(seed=0, sizes=(1_000, 16_000)),
            tiny_spec(seed=0, backends=("atgpu", "perfect")),
        ])
        # One union prediction per distinct backends tuple (sizes are
        # sliced out of the shared evaluation); the group's one union batch
        # is not kept.
        assert session.batch_cache_misses == 2
        assert session.batch_cache.size == 2

    def test_use_cache_false_bypasses_batch_cache(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)], use_cache=False)
        assert session.batch_cache_misses == 0
        assert session.batch_cache_hits == 0
        assert session.batch_cache.size == 0

    def test_clear_cache_drops_batch_memo(self):
        session = Session()
        session.run_many([tiny_spec(seed=0)])
        assert session.batch_cache.size > 0
        session.clear_cache()
        assert session.batch_cache.size == 0
        # Counters survive; a re-run recompiles.
        misses = session.batch_cache_misses
        session.run_many([tiny_spec(seed=4)])
        assert session.batch_cache_misses > misses

    def test_unbatchable_backends_skip_the_memo(self):
        plain = make_backend("test-session-scalar-only", "scalar-only",
                             lambda metrics, m, p, o: 1.0)
        register_backend(plain)
        try:
            session = Session()
            spec = tiny_spec(
                seed=0, backends=("atgpu", "test-session-scalar-only")
            )
            result = session.run_many([spec])[0]
            assert session.batch_cache.size == 0
            assert result.predicted["test-session-scalar-only"] == [1.0, 1.0]
        finally:
            unregister_backend("test-session-scalar-only")


#: Dense grids a predict-mode server draws its request windows from.
RETENTION_GRIDS = {
    "vector_addition": dense_sweep(256, 100_000, 10_000_000).sizes,
    "reduction": dense_sweep(256, 65_536, 67_108_864).sizes,
    "matrix_multiplication": dense_sweep(256, 32, 4096).sizes,
}

#: Bytes one distinct 48-point window may leave behind in the memo.  Its
#: three-backend union prediction retains ~6 KB; keeping the compiled
#: batch too retained ~28 KB.
RETAINED_PER_WINDOW_BYTES = 12 * 1024


def _reachable(root):
    """The instances reachable from ``root`` (classes are not followed, so
    the walk stays inside the data ``root`` holds)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) not in seen and not isinstance(child, type):
                seen.add(id(child))
                stack.append(child)
                yield child


class TestBatchCacheRetention:
    def test_distinct_windows_retain_predictions_only(self):
        windows = [
            ExperimentSpec(name, sizes=tuple(grid[start:start + 48]))
            for name, grid in RETENTION_GRIDS.items()
            for start in range(64)
        ]
        # Warm per-algorithm memos outside the traced window.
        for name, grid in RETENTION_GRIDS.items():
            predict_group(
                [ExperimentSpec(name, sizes=tuple(grid[-8:]))],
                batch_cache=BatchCache(),
            )
        cache = BatchCache()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for spec in windows:
                predict_group([spec], batch_cache=cache)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cache.size == len(windows) == 192
        assert not any(
            isinstance(obj, MetricsBatch) for obj in _reachable(cache)
        )
        assert retained <= RETAINED_PER_WINDOW_BYTES * len(windows), (
            retained / len(windows)
        )


class TestSessionThreadSafety:
    """One session shared across threads (the serving layer's contract)."""

    def test_run_many_hammered_from_eight_threads(self):
        specs = [tiny_spec(seed=seed) for seed in range(3)] + [
            tiny_spec("reduction", seed=seed) for seed in range(3)
        ]
        want = [result.to_json() for result in Session().run_many(specs)]
        session = Session()
        barrier = threading.Barrier(8)
        mismatches = []
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    got = session.run_many(specs)
                    for result, expected in zip(got, want):
                        if result.to_json() != expected:
                            mismatches.append(result.algorithm)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert not mismatches
        assert session.cache_size == len(specs)
        # Every request is accounted exactly once.  Racing threads may both
        # execute the same uncached spec (by design — execution is pure),
        # so misses can exceed the unique-spec count but never the total.
        total = 8 * 3 * len(specs)
        assert session.cache_hits + session.cache_misses == total
        assert len(specs) <= session.cache_misses < total

    def test_concurrent_disk_stores_stay_readable(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        threads = [
            threading.Thread(target=session.run_many, args=(specs,))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        # No torn writes: every store entry parses and reloads cleanly.
        fresh = Session(cache_dir=tmp_path)
        reloaded = fresh.run_many(specs)
        assert fresh.cache_misses == 0
        assert len(reloaded) == len(specs)
        assert not list(tmp_path.glob("*.tmp"))


class TestPoolResultSeeding:
    def test_process_pool_results_seed_the_batch_memo(self):
        with Session(engine="process") as session:
            specs = [tiny_spec(seed=0), tiny_spec(seed=1)]
            first = session.run_many(specs)
            # The pool's results were routed back into the parent's memo
            # without counting as misses (nothing was compiled here).
            assert session.batch_cache.size >= 1
            assert session.batch_cache_misses == 0
            hits = session.batch_cache_hits
            # An in-process pass over the same (algorithm, preset, sizes,
            # backends) is served entirely from the seeded prediction.
            fresh = execute_specs(
                [tiny_spec(seed=2)], batch_cache=session.batch_cache
            )
            assert session.batch_cache_misses == 0
            assert session.batch_cache_hits == hits + 1
            assert fresh[0].predicted["atgpu"] == first[0].predicted["atgpu"]
