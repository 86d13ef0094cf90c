"""Ensemble-throughput benchmark of the continuized simulators.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one preset at a fixed ensemble size, driven through the
public path ``get_preset -> run_experiment -> render_csv`` as a
``continuized reproduce`` user runs it: a batch job, one ensemble at a time,
no concurrency.  Every repetition is a fresh process (``workload.py``), so
import time, set-up and peak memory belong to that repetition alone.  One
unmeasured warm-up repetition fills the bytecode and page caches first;
then repetitions run back to back until ``--seconds`` have passed, and each
metric is the median over them.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced repetitions alternate; the traced ones wrap the
package's functions from this directory (``tracer.py``) and give the
per-layer metrics, and ``trace_overhead`` compares the two kinds.

Every repetition's CSV is checked: a non-zero exit, an exception, a
non-finite value or a SHA-256 that differs from the recorded one
(``digests.json``; for an unrecorded seed, from the warm-up's) fails it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See WORKLOADS.md
for why each workload was chosen and which layer each metric watches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (preset, fixed ensemble size).  The sizes keep one
# repetition near a second, so a run holds a dozen or more of them.
WORKLOADS = {
    "a1-strongly-convex": ("appendix-a1-strongly-convex", 100),
    "a1-convex": ("appendix-a1-convex", 200),
    "a2-grid225": ("appendix-a2-grid225", 50),
    "decentralized-line10": ("decentralized-line10", 50),
}
DEFAULT_SEED = 12345

# name -> (unit, better); must agree with BENCHMARK.json.
END_TO_END = {
    "events_per_s": ("events/s", "higher"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
PER_LAYER = {
    "presets.get_preset.s": ("s", "lower"),
    "graphs.spectral.calls": ("count", "lower"),
    "graphs.spectral.s": ("s", "lower"),
    "seeding.run_streams.calls": ("count", "lower"),
    "seeding.run_streams.s": ("s", "lower"),
    "schedules.sample_interarrival.calls": ("count", "lower"),
    "schedules.schedule_eval.calls": ("count", "lower"),
    "schedules.lyapunov_coeffs.calls": ("count", "lower"),
    "problems.stochastic_gradient.calls": ("count", "lower"),
    "dynamics.run_continuized.calls": ("count", "lower"),
    "dynamics.run_continuized.self_s": ("s", "lower"),
    "dynamics.mix_closed_form.calls": ("count", "lower"),
    "dynamics.gradient_jump.calls": ("count", "lower"),
    "trace.Trace.add.calls": ("count", "lower"),
    "trace.samples_recorded": ("count", "lower"),
    "trace.useful_ratio": ("ratio", "higher"),
    "gossip.sample_event_stream.calls": ("count", "lower"),
    "gossip.sample_event_stream.s": ("s", "lower"),
    "gossip.run_gossip.calls": ("count", "lower"),
    "gossip.run_gossip.self_s": ("s", "lower"),
    "gossip.lazy_mix_node.calls": ("count", "lower"),
    "gossip.accelerated_step.calls": ("count", "lower"),
    "gossip.synchronized_values.calls": ("count", "lower"),
    "gossip.synchronized_values.s": ("s", "lower"),
    "dual.DualParams.from_graph.s": ("s", "lower"),
    "dual.random_local_functions.s": ("s", "lower"),
    "dual.run_decentralized.calls": ("count", "lower"),
    "dual.run_decentralized.self_s": ("s", "lower"),
    "dual.lazy_mix_dual_node.calls": ("count", "lower"),
    "dual.dual_update.calls": ("count", "lower"),
    "dual.conjugate_grad.calls": ("count", "lower"),
    "dual.synchronized_dual.s": ("s", "lower"),
    "runner.run_experiment.self_s": ("s", "lower"),
    "runner.build_runset.s": ("s", "lower"),
    "runner.aggregate_values.s": ("s", "lower"),
    "runner.theory_bounds.s": ("s", "lower"),
    "csvio.render_csv.s": ("s", "lower"),
    "csvio.render_csv.bytes": ("bytes", "lower"),
    "engine.events": ("count", "higher"),
    "trace_overhead": ("ratio", "lower"),
    "bench.self_time_coverage": ("ratio", "higher"),
    "bench.absent_targets": ("count", "lower"),
}

# Timed metrics are reported at a reference machine speed: each
# repetition's times are scaled by REFERENCE_CALIBRATION_S over its own
# reading of workload.calibration_s, a fixed pure-Python loop timed in the
# same process.  On the shared 2-vCPU machine where the benchmark was
# defined, the interpreter's speed drifts by tens of percent over minutes:
# raw medians of ten 27 s runs spread by up to 24% (quartile distance over
# median), calibrated ones by 4-11%.  See WORKLOADS.md.  The constant
# is the loop's typical time there, rounded.
REFERENCE_CALIBRATION_S = 0.1

# Traced spans, plus the ensemble span's own self time, must cover the
# traced ensemble wall time to within this share.
COVERAGE_TOLERANCE = 0.10
# A run stops starting repetitions after this many seconds, whatever
# --seconds asks, so that it ends well inside three minutes.
HARD_LIMIT_S = 150.0


def expected_digest(workload: str, runs: int, seed: int) -> str | None:
    """The CSV digest recorded by record_digests.py, if any."""
    with open(HERE / "digests.json") as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["runs"] != runs:
        return None
    return entry["sha256"].get(str(seed))


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def repetition(preset: str, seed: int, runs: int, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh process; ``error`` is set if it failed."""
    cmd = [sys.executable, str(HERE / "workload.py"), preset, str(seed), str(runs),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def judge(rep: dict, reference: str | None) -> str | None:
    """The reason a repetition failed, or None."""
    if "error" in rep:
        return rep["error"]
    if not rep["finite"]:
        return "CSV has a non-finite or malformed row"
    if reference is not None and rep["csv_sha256"] != reference:
        return f"CSV sha256 {rep['csv_sha256'][:12]} differs from {reference[:12]}"
    layers = rep.get("layers")
    if layers is not None:
        coverage = layers["bench.self_time_coverage"]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            return f"spans cover {coverage:.3f} of the traced ensemble wall"
        if layers["engine.events"] != layers["engine.events_from_streams"]:
            return (f"kernel ran {layers['engine.events']} events, the clock streams "
                    f"hold {layers['engine.events_from_streams']}")
    return None


def tail_percentile(values: list[float], better: str) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it on the worse side, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    if better == "lower":
        return 100.0 * (n - 10) / n, ordered[n - 11]
    return 100.0 * 10 / n, ordered[10]


def _scale(rep: dict) -> float:
    """Factor from a repetition's measured seconds to reference seconds."""
    return REFERENCE_CALIBRATION_S / rep["calibration_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 runs: int | None = None) -> dict:
    """Run one workload's repetitions for ``seconds``; collect failures and medians."""
    preset, fixed_runs = WORKLOADS[workload]
    runs = runs or fixed_runs
    recorded = expected_digest(workload, runs, seed)
    load_before = os.getloadavg()
    start = time.perf_counter()
    failures: list[str] = []
    attempts = 0
    reference = recorded

    def attempt(traced: bool) -> dict | None:
        nonlocal attempts
        attempts += 1
        remaining = HARD_LIMIT_S + 20.0 - (time.perf_counter() - start)
        rep = repetition(preset, seed, runs, traced, max(remaining, 1.0))
        reason = judge(rep, reference)
        if reason:
            failures.append(reason)
            return None
        return rep

    warm = attempt(False)
    if warm is not None:
        reference = warm["csv_sha256"]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) + len(traced) >= 1 and (not trace or len(traced) >= 1)
        if (elapsed >= seconds and enough) or elapsed >= HARD_LIMIT_S:
            break
        want_traced = trace and len(traced) < len(plain)
        rep = attempt(want_traced)
        if rep is not None:
            (traced if want_traced else plain).append(rep)
        elif warm is None and len(failures) >= 3:
            break
    result = {
        "workload": workload,
        "preset": preset,
        "runs": runs,
        "seed": seed,
        "seconds": time.perf_counter() - start,
        "attempted": attempts,
        "failed": len(failures),
        "failures": failures,
        "digest": reference,
        "digest_recorded": recorded is not None,
        "bound_ratio_max": warm["bound_ratio_max"] if warm else None,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "samples": {},
    }
    if plain:
        samples = {
            "events_per_s": [r["events"] / (r["ensemble_s"] * _scale(r)) for r in plain],
            "wall_s": [r["wall_s"] * _scale(r) for r in plain],
            "cpu_s": [r["cpu_s"] * _scale(r) for r in plain],
            "setup_s": [r["setup_s"] * _scale(r) for r in plain],
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        }
        result["samples"] = samples
        result["end_to_end"] = {k: statistics.median(v) for k, v in samples.items()}
        result["raw"] = {
            "events_per_s": statistics.median(r["events"] / r["ensemble_s"] for r in plain),
            **{k: statistics.median(r[k] for r in plain) for k in ("wall_s", "cpu_s", "setup_s")},
            "calibration_s": statistics.median(r["calibration_s"] for r in plain),
        }
    if traced and plain:
        layers = {
            name: statistics.median(r["layers"].get(name, 0) for r in traced)
            for name in PER_LAYER
            if name not in ("trace_overhead", "bench.absent_targets")
        }
        layers["trace_overhead"] = (
            statistics.median(r["ensemble_s"] * _scale(r) for r in traced)
            / statistics.median(r["ensemble_s"] * _scale(r) for r in plain)
        )
        absent = sorted({name for r in traced for name in r["absent"]})
        layers["bench.absent_targets"] = len(absent)
        result["per_layer"] = layers
        result["absent"] = absent
        result["traced_samples"] = len(traced)
    return result


def report(result: dict, trace: bool) -> list[str]:
    """Human-readable lines for one workload."""
    lines = [
        f"{result['workload']}: preset {result['preset']}, {result['runs']} runs, "
        f"seed {result['seed']}, {result['attempted']} repetitions incl. 1 warm-up, "
        f"{result['seconds']:.1f} s; load average {result['load_before'][0]:.2f} "
        f"before, {result['load_after'][0]:.2f} after"
    ]
    raw = result.get("raw", {})
    if raw:
        lines.append(f"  timed metrics at reference speed; calibration loop median "
                     f"{raw['calibration_s']:.6g} s against {REFERENCE_CALIBRATION_S} s")
    for name, values in result["samples"].items():
        unit, better = END_TO_END[name]
        tail = tail_percentile(values, better)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "no tail (n < 11)"
        raw_text = f", as measured {raw[name]:.6g}" if name in raw else ""
        lines.append(f"  {name:<14} {statistics.median(values):>12.6g} {unit:<9} "
                     f"median of n={len(values)}, {tail_text}{raw_text}")
    share = result["failed"] / max(result["attempted"], 1)
    lines.append(f"  {'failed_share':<14} {share:>12.6g} {'ratio':<9} "
                 f"{result['failed']} of {result['attempted']} repetitions")
    for reason in result["failures"]:
        lines.append(f"    failure: {reason}")
    ratio = result["bound_ratio_max"]
    lines.append(f"  bound_ratio_max {ratio if ratio is None else format(ratio, '.6g')} "
                 "(ensemble mean / theory bound, diagnostic only)")
    source = "recorded in digests.json" if result["digest_recorded"] else \
        "not recorded for this seed and size; repetitions must match the warm-up"
    lines.append(f"  csv sha256 {result['digest']} ({source})")
    if trace and "per_layer" in result:
        lines.append(f"  per layer, median of {result['traced_samples']} traced repetitions:")
        for name, value in result["per_layer"].items():
            lines.append(f"    {name:<38} {value:>14.6g} {PER_LAYER[name][0]}")
        if result["absent"]:
            lines.append("  absent at this commit: " + ", ".join(result["absent"]))
    return lines


def metrics_of(result: dict, trace: bool) -> dict:
    table, values = (PER_LAYER, result.get("per_layer")) if trace else \
        (END_TO_END, result.get("end_to_end"))
    if values is None:
        return {}
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "continuized" / "__init__.py").is_file():
        print(f"error: no continuized package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    for result in results:
        print("\n".join(report(result, trace)))
    print("machine: " + json.dumps(machine_facts()))
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in metrics_of(result, trace).items()})
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
