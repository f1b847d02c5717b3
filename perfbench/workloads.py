"""Seeded inputs of the three workloads and the checks on their outputs.

Only the generated :class:`~repro.experiments.spec.ExperimentSpec` lists
reach the program; the seed stays here.  Each serving workload yields one
long request sequence per run, and every phase of the run (the
fixed-rate window, the closed-loop replays) sends a prefix of it to a
fresh server, so one isolated reference per distinct spec checks them
all.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

EXPECTED_PAPER = Path(__file__).with_name("expected") / "paper_results.json"

#: Backend sets a predict-mode request picks from.
PREDICT_BACKEND_SETS = (
    ("atgpu", "swgpu", "perfect"),
    ("atgpu", "swgpu", "perfect", "agpu"),
    ("atgpu", "atgpu-async"),
    ("atgpu", "atgpu-multi", "atgpu-async"),
)
#: Predict-mode window length range (sweep points per request).
PREDICT_WINDOW = (16, 96)

#: Backend sets a result-mode request picks from (a Result always carries
#: the atgpu/swgpu/perfect trio, so every set includes it).
RESULT_BACKEND_SETS = (
    ("atgpu", "swgpu", "perfect"),
    ("atgpu", "swgpu", "perfect", "agpu"),
    ("atgpu", "swgpu", "perfect", "atgpu-async"),
    ("atgpu", "swgpu", "perfect", "atgpu-multi"),
)
#: Vector-addition result windows: 2..5 consecutive sizes of the same
#: dense sweep (1e5..1e7) that ``serve_predict`` uses, from its second
#: point on.  Its first point, 1e5, launches few enough blocks that the
#: simulator interprets every one: a window holding it costs ~0.6 s, a
#: hundred times any other window.  Drawn uniformly such windows land in
#: about 1 request of 250, so a run would hold none, one or several by
#: chance (a fixed 5 % share of them gave a p50 spread of 0.7 and a peak
#: RSS spread of 0.2 over three seeds); full interpretation is what the
#: ``paper`` workload measures.
RESULT_VA_WINDOW = (2, 5)
RESULT_VA_FIRST = 1
#: Matrix-multiplication result requests: one of the three smallest sizes
#: of the paper's sweep (Fig. 5, sides 32..1024), taken in this order by
#: consecutive frames.
RESULT_MM_SIZES = (32, 64, 128)
#: Result-mode requests come in frames of this many: one is a matmul, one
#: an exact repeat of an earlier request, the rest vector-addition
#: windows.  Fixed positions keep the mix (and so the work per frame) the
#: same on every seed; only the contents are drawn.  The k-th
#: vector-addition slot of a frame draws its window start from the k-th
#: of equal strata of the grid and its cluster round-robin, so every
#: frame spans the sweep: a request's host cost depends on its sizes, and
#: plain uniform draws moved the median request cost by a third between
#: seeds.
RESULT_FRAME = 20
RESULT_MM_SLOT = 7
RESULT_REPEAT_SLOT = 13


# ---------------------------------------------------------------------- #
# Predict mode
# ---------------------------------------------------------------------- #
def _predict_grids() -> Dict[str, Tuple[int, ...]]:
    from repro.workloads.sweeps import dense_sweep

    return {
        "vector_addition": tuple(dense_sweep(256, 100_000, 10_000_000).sizes),
        "reduction": tuple(dense_sweep(256, 65_536, 67_108_864).sizes),
        "matrix_multiplication": tuple(range(32, 4096 + 1, 32)),
    }


def predict_specs(seed: int, count: int) -> list:
    """``count`` predict-mode requests: overlapping dense-sweep windows,
    the three algorithms in turn (so every prefix holds each about
    equally often; their predictions differ in cost and in
    ``paper_gap``)."""
    from repro import ExperimentSpec

    rng = np.random.default_rng([seed, 1])
    grids = _predict_grids()
    names = sorted(grids)
    specs = []
    for index in range(count):
        name = names[index % len(names)]
        grid = grids[name]
        length = int(rng.integers(PREDICT_WINDOW[0], PREDICT_WINDOW[1] + 1))
        start = int(rng.integers(len(grid) - length + 1))
        backends = PREDICT_BACKEND_SETS[rng.integers(len(PREDICT_BACKEND_SETS))]
        specs.append(ExperimentSpec(
            name, sizes=grid[start:start + length], backends=backends,
        ))
    return specs


# ---------------------------------------------------------------------- #
# Result mode
# ---------------------------------------------------------------------- #
def result_clusters():
    """``(algorithm, device config name, seed)`` clusters of result mode."""
    va = [("vector_addition", "gtx650", 0), ("vector_addition", "gtx650", 1),
          ("vector_addition", "gtx980", 0)]
    mm = [("matrix_multiplication", "gtx650", seed) for seed in range(8)]
    return va, mm


def _result_spec(cluster, sizes, backends):
    from repro import DeviceConfig, ExperimentSpec

    algorithm, config, seed = cluster
    return ExperimentSpec(
        algorithm, sizes=tuple(sizes), backends=backends, seed=seed,
        device_config=getattr(DeviceConfig, config)(),
    )


def result_specs(seed: int, count: int) -> list:
    """``count`` result-mode requests laid out in :data:`RESULT_FRAME`
    frames.  Fresh requests are drawn without replacement from every
    distinct (cluster, window, backend set) spec of their slot's family
    (once a family is used up its draws become repeats); a repeat re-sends
    a uniformly chosen earlier request."""
    rng = np.random.default_rng([seed, 2])
    va_clusters, mm_clusters = result_clusters()
    lo, hi = RESULT_VA_WINDOW
    grid = _predict_grids()["vector_addition"]
    va_slots = [slot for slot in range(RESULT_FRAME)
                if slot not in (RESULT_MM_SLOT, RESULT_REPEAT_SLOT)]
    strata = np.array_split(np.arange(RESULT_VA_FIRST, len(grid) - hi + 1),
                            len(va_slots))
    families = {}
    for k, (slot, starts) in enumerate(zip(va_slots, strata)):
        families[slot] = [
            (va_clusters[k % len(va_clusters)],
             grid[start:start + length], backends)
            for start in starts
            for length in range(lo, hi + 1)
            for backends in RESULT_BACKEND_SETS
        ]
    for n in RESULT_MM_SIZES:
        families["mm", n] = [
            (cluster, (n,), backends)
            for cluster in mm_clusters
            for backends in RESULT_BACKEND_SETS
        ]
    families = {
        name: (specs, list(rng.permutation(len(specs))))
        for name, specs in families.items()
    }
    sent: list = []
    for index in range(count):
        frame, slot = divmod(index, RESULT_FRAME)
        if slot == RESULT_MM_SLOT:
            size = RESULT_MM_SIZES[frame % len(RESULT_MM_SIZES)]
            family = families["mm", size]
        else:
            family = families.get(slot)
        if sent and (family is None or not family[1]):
            sent.append(sent[rng.integers(len(sent))])
            continue
        sent.append(_result_spec(*family[0][family[1].pop()]))
    return sent


def make_specs(mode: str, seed: int, count: int) -> list:
    """The request sequence of the serving workload in ``mode``."""
    make = predict_specs if mode == "predict" else result_specs
    return make(seed, count)


def result_shares(specs: Sequence) -> Dict[str, float]:
    """Exact-repeat share and the share of requested sizes already seen
    in the same ``(algorithm, device config, seed)`` cluster."""
    seen_specs, seen_sizes = set(), {}
    repeats = sizes_total = sizes_seen = 0
    for spec in specs:
        key = spec.spec_hash()
        repeats += key in seen_specs
        seen_specs.add(key)
        cluster = seen_sizes.setdefault(
            (spec.algorithm, spec.resolved_device_config().config_hash(),
             spec.seed),
            set(),
        )
        for n in spec.resolved_sizes():
            sizes_total += 1
            sizes_seen += n in cluster
            cluster.add(n)
    return {
        "repeat_share": repeats / len(specs) if specs else 0.0,
        "size_reuse_share": sizes_seen / sizes_total if sizes_total else 0.0,
    }


# ---------------------------------------------------------------------- #
# References and checks
# ---------------------------------------------------------------------- #
def reference_output(spec, mode: str):
    """The isolated answer: one spec alone, no shared caches."""
    from repro.experiments.session import execute_spec, predict_group

    if mode == "predict":
        return predict_group([spec])[0]
    return execute_spec(spec)


def signature(output, mode: str) -> str:
    """SHA-256 over the exact bits of a served output."""
    digest = hashlib.sha256()
    if mode == "result":
        digest.update(json.dumps(output.to_dict(), sort_keys=True).encode())
        return digest.hexdigest()

    def raw(values) -> bytes:
        if values is None:
            return b"-"
        return np.asarray(values, float).tobytes()

    digest.update(output.algorithm.encode())
    digest.update(np.asarray(output.sizes, np.int64).tobytes())
    for name in sorted(output.series):
        digest.update(name.encode())
        digest.update(raw(output.series[name]))
    for values in (output.proportions, output.transfers, output.kernels):
        digest.update(raw(values))
    return digest.hexdigest()


def load_expected_paper() -> Dict[str, dict]:
    return json.loads(EXPECTED_PAPER.read_text(encoding="utf-8"))


def write_expected_paper(results) -> None:
    EXPECTED_PAPER.parent.mkdir(exist_ok=True)
    data = {r.algorithm: r.to_dict() for r in results}
    EXPECTED_PAPER.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def paper_mismatches(results) -> int:
    """Results differing from the stored expected outputs (bit-for-bit)."""
    expected = load_expected_paper()
    return sum(
        json.dumps(r.to_dict(), sort_keys=True)
        != json.dumps(expected.get(r.algorithm), sort_keys=True)
        for r in results
    )


# ---------------------------------------------------------------------- #
# Accuracy against the paper (Section IV-D)
# ---------------------------------------------------------------------- #
def paper_gap(outputs: Sequence, mode: str) -> float:
    """Mean |reproduced - PAPER_REPORTED| over Section IV-D statistics.

    For Results: observed transfer share, SWGPU capture fraction and
    delta accuracy of each Result.  A prediction has no observation, so
    for predictions only its predicted transfer share is compared with
    the paper's observed share.
    """
    from repro.experiments.tables import PAPER_REPORTED, summarise

    gaps = []
    for output in outputs:
        paper = PAPER_REPORTED[output.algorithm]
        if mode == "predict":
            share = float(np.mean(output.predicted_transfer_proportions))
            gaps.append(abs(share - paper["observed_transfer_share"]))
            continue
        summary = summarise(output.algorithm, output)
        gaps.extend((
            abs(summary.measured_transfer_share
                - paper["observed_transfer_share"]),
            abs(summary.measured_swgpu_capture
                - paper["swgpu_capture_fraction"]),
            abs(summary.measured_delta_accuracy - paper["delta_accuracy"]),
        ))
    return float(np.mean(gaps))
