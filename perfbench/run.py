#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, two trace modes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper``          -- ``Session().run_many(paper_specs())``, closed loop,
  one caller, every run_many in a fresh process;
* ``serve_predict``  -- open-loop Poisson load on a predict-mode server;
* ``serve_result``   -- open-loop Poisson load on a result-mode server.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` they are the per-layer metrics
of a run with spans installed around each layer (``perfbench/tracer.py``).
Every served or computed output is checked bit-for-bit (stored expected
outputs for ``paper``, an isolated off-the-clock answer per distinct spec
for the serving workloads); a mismatch counts as a failed operation.
``wall_s`` is the CPU time of the timed processes scaled to a nominal host
speed measured alongside them (``perfbench/hostspeed.py``).  A full record
with provenance is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
#: Setup is measured this many times per run (fresh process each); the
#: median is reported.
SETUP_PROBES = 7
#: The paper workload runs at least this many fresh-process run_many calls.
PAPER_MIN_RUNS = 2
CHILD_TIMEOUT_S = 170.0
#: Seed of the warm-up requests (kept apart from the run seeds in use).
WARM_UP_SEED = 2**31 - 1

#: End-to-end metrics (the JSON result of an untraced run).
UNITS = {
    "setup_s": "s", "wall_s": "s", "paper_gap": "ratio", "peak_rss_mb": "MB",
}
#: Printed and recorded with them but not gated: over seeds on a shared
#: two-core host the spread of the serving latencies and of the unscaled
#: times was wider than any allowed bound (see ``perfbench/README.md``).
#: ``error_rate`` is 0 when the program is right.
REPORTED = {"raw_wall_s": "s", "latency_p50_ms": "ms",
            "latency_tail_ms": "ms", "error_rate": "ratio"}
#: A serving run replays its first requests in fresh processes, each in a
#: closed loop, for ``--seconds`` after its open-loop window and at least
#: this many times; ``wall_s`` is the median scaled replay time.
MIN_REPLAYS = 3


@dataclass(frozen=True)
class Serving:
    """Fixed load parameters of one serving workload."""

    mode: str
    rate: float                 # open-loop rate of the measured window
    replay: int                 # requests per closed-loop replay (wall_s)


#: Rates are about 45 % (result) and 13 % (predict) of the one-caller
#: closed-loop throughput of each mix on a two-core host (18 and 770
#: requests/s).  The replay of ``serve_result`` is three whole request
#: frames, one of each matmul size.  Replays are short so that a run
#: holds several: their times differ from process to process.
SERVING = {
    "serve_predict": Serving(mode="predict", rate=100.0, replay=500),
    "serve_result": Serving(mode="result", rate=8.0, replay=60),
}
WORKLOADS = ("paper", *SERVING)


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the host CPUs so far (Linux), else 0s."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(x) for x in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def peak_rss_mb() -> float:
    """Peak resident set of this process image (``VmHWM``).  ``ru_maxrss``
    serves only without ``/proc``: it keeps the parent's peak across the
    exec that started this process."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_revision() -> str:
    """The git commit when available, else a hash of the package source."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance(args) -> Dict[str, object]:
    import numpy

    return {
        "revision": source_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(args: Sequence[str], probe: bool = False) -> Dict[str, object]:
    """Run this script as a child; returns its last-line JSON plus the
    host seconds from spawn to the child's ``ready`` stamp as ``setup_s``.

    With ``probe`` the parent makes host-speed passes while the child runs
    and adds the child's ``cpu_s`` on the nominal host as ``scaled_s``.
    """
    import hostspeed

    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        if probe:
            out, err, passes = hostspeed.probe_while(proc, CHILD_TIMEOUT_S)
        else:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"child {list(args)} exited {proc.returncode}")
    data = json.loads(out.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - started
    if probe:
        data["kernel_s"] = hostspeed.pass_s((data["ready"], data["done"]),
                                            passes)
        data["scaled_s"] = hostspeed.scaled(data["cpu_s"], data["kernel_s"])
    return data


def repeat(args: Sequence[str], minimum: int, seconds: float):
    """``args`` at least ``minimum`` times, and again while ``seconds``
    from the first call have not passed."""
    deadline = time.monotonic() + seconds
    count = 0
    while count < minimum or time.monotonic() < deadline:
        yield args
        count += 1


def timed_children(children) -> list:
    """Spawn each child in turn, all pinned with this process to one CPU,
    with host-speed passes while each runs (``perfbench/hostspeed.py``)."""
    import hostspeed

    with hostspeed.Pinned():
        return [spawn(args, probe=True) for args in children]


# ---------------------------------------------------------------------- #
# Children
# ---------------------------------------------------------------------- #
def child_setup(workload: str) -> Dict[str, object]:
    """Everything a run does before its timed window, then exit."""
    if workload == "paper":
        from repro import Session

        Session()
    else:
        warm_up(SERVING[workload])
    return {"ready": time.monotonic()}


def warm_up(cfg: Serving) -> None:
    """Exercise the serving path once on requests outside any run's trace."""
    import loadgen
    import workloads

    loadgen.closed_loop(workloads.make_specs(cfg.mode, WARM_UP_SEED, 8),
                        cfg.mode, workers=os.cpu_count() or 1,
                        digest=lambda out: None)


def child_replay(workload: str, seed: int) -> Dict[str, object]:
    """One closed-loop replay of the first requests of a serving run on a
    fresh server, with each output digested."""
    import loadgen
    import workloads

    cfg = SERVING[workload]
    warm_up(cfg)
    loadgen.settle()
    specs = workloads.make_specs(cfg.mode, seed, cfg.replay)
    ready = time.monotonic()
    phase = loadgen.closed_loop(
        specs, cfg.mode, os.cpu_count() or 1,
        lambda out: workloads.signature(out, cfg.mode),
    )
    return {"ready": ready, "done": time.monotonic(), "wall_s": phase.wall_s,
            "cpu_s": phase.cpu_s, "failed": phase.failed,
            "digests": phase.outputs, "peak_rss_mb": peak_rss_mb()}


def child_paper(traced: bool) -> Dict[str, object]:
    """One ``run_many(paper_specs())`` on a fresh Session, checked."""
    import tracer as tracing
    import workloads
    from repro import Session, paper_specs

    specs = paper_specs()
    tracer = tracing.install() if traced else None
    session = Session()
    ready = time.monotonic()
    start, cpu = time.perf_counter(), time.process_time()
    results = list(session.run_many(specs))
    wall = time.perf_counter() - start
    out: Dict[str, object] = {
        "ready": ready, "done": time.monotonic(), "wall_s": wall,
        "cpu_s": time.process_time() - cpu,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["sim_share"] = tracer.share(tracing.SIMULATOR_SPANS, wall)
        out["predict_share"] = tracer.share(tracing.PREDICTION_SPANS, wall)
    out["peak_rss_mb"] = peak_rss_mb()
    out["mismatches"] = workloads.paper_mismatches(results)
    out["paper_gap"] = workloads.paper_gap(results, "result")
    return out


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def run_paper(args) -> Tuple[Dict[str, float], Dict[str, object], int, int]:
    from repro import paper_specs

    record: Dict[str, object] = {}
    if args.trace:
        plain = spawn(["--child", "paper"])
        traced = spawn(["--child", "paper", "--traced"])
        runs = [plain, traced]
        layers = dict(traced["layers"])
        layers.update(shares(paper_specs(), coalesced=0.0))
        layers.update({
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.sim_share": traced["sim_share"],
            "trace.predict_share": traced["predict_share"],
            "load.late_ms": 0.0,
        })
        metrics = layers
    else:
        setups = [spawn(["--child", "setup", "--workload", "paper"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        runs = timed_children(
            repeat(["--child", "paper"], PAPER_MIN_RUNS, args.seconds)
        )
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["scaled_s"] for r in runs),
            "paper_gap": runs[0]["paper_gap"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "raw_wall_s": statistics.median(r["wall_s"] for r in runs),
        }
        record.update({
            "setup_samples_s": setups,
            "wall_samples_s": [r["wall_s"] for r in runs],
            "scaled_wall_samples_s": [r["scaled_s"] for r in runs],
            "kernel_samples_s": [r["kernel_s"] for r in runs],
        })
    failed = sum(int(r["mismatches"]) for r in runs)
    gaps = {r["paper_gap"] for r in runs}
    if len(gaps) != 1:
        raise RuntimeError(f"paper_gap differs between runs: {sorted(gaps)}")
    record["runs"] = [{k: v for k, v in r.items() if k != "layers"}
                      for r in runs]
    return metrics, record, 3 * len(runs), failed


def shares(specs, coalesced: float) -> Dict[str, float]:
    import workloads

    found = workloads.result_shares(specs)
    return {
        "load.repeat_share": found["repeat_share"],
        "load.size_reuse_share": found["size_reuse_share"],
        "serve.coalesced_share": coalesced,
    }


class References:
    """Isolated answers per distinct spec, computed off the clock."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.outputs: Dict[str, object] = {}
        self.signatures: Dict[str, object] = {}

    def reference(self, spec) -> str:
        """Compute (once) the isolated answer to ``spec``; returns its key."""
        import workloads

        key = spec.spec_hash()
        if key not in self.signatures:
            ref = workloads.reference_output(spec, self.mode)
            self.outputs[key] = ref
            self.signatures[key] = workloads.signature(ref, self.mode)
        return key

    def digest(self, output):
        import workloads

        return workloads.signature(output, self.mode)

    def mismatches(self, phase) -> int:
        """Outputs (already digested) differing from their reference."""
        return sum(
            digest != self.signatures[self.reference(spec)]
            for spec, digest in zip(phase.specs, phase.outputs)
            if digest is not None  # a missing output already counted failed
        )

    def gap(self, specs) -> float:
        import workloads

        keys = dict.fromkeys(self.reference(spec) for spec in specs)
        return workloads.paper_gap([self.outputs[k] for k in keys], self.mode)


def serving_specs(cfg: Serving, seed: int, seconds: float):
    import workloads

    need = max(cfg.rate * seconds, cfg.replay)
    return workloads.make_specs(cfg.mode, seed, int(need * 1.3) + 64)


def run_serving(args):
    import loadgen
    import tracer as tracing

    cfg = SERVING[args.workload]
    workers = os.cpu_count() or 1
    setups = [] if args.trace else [
        spawn(["--child", "setup", "--workload", args.workload])["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    specs = serving_specs(cfg, args.seed, args.seconds)
    warm_up(cfg)
    loadgen.settle()
    refs = References(cfg.mode)

    def replay():
        return loadgen.closed_loop(specs[:cfg.replay], cfg.mode, workers,
                                   refs.digest)

    def measured_window():
        return loadgen.open_loop(specs, cfg.mode, cfg.rate, args.seconds,
                                 args.seed, workers, refs.digest)

    record: Dict[str, object] = {"workers": workers, "rate": cfg.rate}
    if args.trace:
        tracer = tracing.install()
        main = measured_window()
        tracer.uninstall()
        plain = replay()
        overhead = tracing.install()
        traced = replay()
        overhead.uninstall()
        phases = [main, plain, traced]
    else:
        main = measured_window()
        replays = timed_children(repeat(
            ["--child", "replay", "--workload", args.workload,
             "--seed", str(args.seed)],
            MIN_REPLAYS, args.seconds,
        ))
        phases = [main, *(
            loadgen.Phase(specs=specs[:cfg.replay], outputs=r["digests"],
                          attempted=cfg.replay, failed=r["failed"])
            for r in replays
        )]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failed += sum(refs.mismatches(p) for p in phases)
    # Over the replayed prefix: the same number of requests of each kind on
    # every seed, where the window's Poisson count varies its mix.
    gap = refs.gap(specs[:cfg.replay])
    late_ms, late_q = loadgen.tail(main.late_s)
    late_ms *= 1e3
    load = shares(main.specs, main.coalesced_share)
    record.update(load)
    record.update({
        "paper_gap": gap, "late_ms": late_ms, "late_percentile": late_q,
        # Late by half the mean gap between arrivals: the load was not
        # the Poisson stream it claims to be.
        "ran_late": late_ms > 0.5e3 / cfg.rate,
    })
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics.update(load)
        metrics.update({
            "trace.wall_s": main.wall_s,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "trace.sim_share": tracer.share(tracing.SIMULATOR_SPANS,
                                            main.wall_s),
            "trace.predict_share": tracer.share(tracing.PREDICTION_SPANS,
                                                main.wall_s),
            "load.late_ms": late_ms,
        })
        return metrics, record, attempted, failed
    tail_s, tail_q = main.tail_s()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["scaled_s"] for r in replays),
        "paper_gap": gap,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replays),
        "raw_wall_s": statistics.median(r["wall_s"] for r in replays),
        "latency_p50_ms": 1e3 * statistics.median(main.latencies_s),
        "latency_tail_ms": 1e3 * tail_s,
    }
    record.update({
        "setup_samples_s": setups,
        "replay_wall_s": [r["wall_s"] for r in replays],
        "replay_scaled_wall_s": [r["scaled_s"] for r in replays],
        "kernel_samples_s": [r["kernel_s"] for r in replays],
        "replay_peak_rss_mb": [r["peak_rss_mb"] for r in replays],
        "latency_tail": {"percentile": tail_q,
                         "samples": len(main.latencies_s)},
    })
    return metrics, record, attempted, failed


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "paper", "replay"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="store the current paper Results as the expected outputs "
             "(only for a change that means to alter simulated values)",
    )
    args = parser.parse_args(argv)
    if not (args.child or args.write_expected or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    # Unwind on SIGTERM too, so that no child is left stopped or running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    use_checkout_source()
    if args.child == "setup":
        print(json.dumps(child_setup(args.workload)))
        return 0
    if args.child == "paper":
        print(json.dumps(child_paper(args.traced)))
        return 0
    if args.child == "replay":
        print(json.dumps(child_replay(args.workload, args.seed)))
        return 0
    if args.write_expected:
        import workloads
        from repro import Session, paper_specs

        workloads.write_expected_paper(Session().run_many(paper_specs()))
        return 0
    runner = run_paper if args.workload == "paper" else run_serving
    steal0, total0 = cpu_ticks()
    metrics, record, attempted, failed = runner(args)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor ran someone else on our CPUs: a high share marks
    # a run whose host times are not comparable with quiet runs.
    record["host_steal_share"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    )
    metrics["error_rate"] = failed / attempted if attempted else 1.0
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
        result = metrics
    else:
        units = {**UNITS, **REPORTED}
        result = {name: metrics[name] for name in UNITS}
    record.update({
        "provenance": provenance(args), "attempted": attempted,
        "failed": failed, "metrics": metrics,
    })
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in result.items()
        },
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if any(word in name for word in ("ratio", "share", "rate")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
