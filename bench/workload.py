"""One benchmark repetition: build a preset's spec, run its ensemble, render its CSV.

    python3 bench/workload.py PRESET SEED RUNS TRACE

imports the package from the checkout's ``src`` directory, runs the public
path ``get_preset -> run_experiment -> render_csv`` once, and prints one
JSON line of measurements.  ``run.py`` starts one process per repetition,
so the import, set-up and peak memory belong to that repetition alone.
With TRACE = 1 the package is wrapped by ``tracer.Tracer`` for the
duration and per-layer numbers are added.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Kernel function whose call count is the number of simulated events.
EVENT_KERNEL = {
    "optimize": "dynamics.gradient_jump.calls",
    "gossip": "gossip.accelerated_step.calls",
    "decentralized": "dual.dual_update.calls",
}


# Loop length of the speed calibration, about 0.1 s on the machine where the
# benchmark was defined (2-vCPU Xeon, CPython 3.11).
CALIBRATION_LOOPS = 1_000_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed.

    On a shared machine the interpreter's speed drifts by tens of percent
    over minutes, and the ensembles (interpreter-bound, like this loop)
    drift with it; ``run.py`` divides the drift out with this reading.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - start


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def count_events(spec) -> int:
    """Events of the whole ensemble, read off each run's clock stream.

    Run i draws its event times from ``run_streams(seed, i).clock``: one
    uniform per optimize event (inverted to an Exp(1) wait), or Exp(1)
    blocks of 4096 for the edge activations of gossip and decentralized
    runs.  The count needs no instrumentation of the engines.
    """
    import numpy as np
    from continuized.seeding import run_streams

    total = 0
    for i in range(spec.runs):
        clock = run_streams(spec.seed, i).clock
        if spec.kind == "optimize":
            t = 0.0
            while True:
                u = clock.random()
                t += -math.log(1.0 - u)
                if t > spec.horizon:
                    break
                total += 1
            continue
        base = 0.0
        while True:
            times = base + np.cumsum(clock.exponential(size=4096))
            total += int(np.searchsorted(times, spec.horizon, side="right"))
            if times[-1] > spec.horizon:
                break
            base = times[-1]
    return total


def check_csv(text: str) -> tuple[bool, float | None]:
    """(every value finite, max over checkpoints of mean / bound).

    The ratio is a diagnostic of the paper's bound, never a gate: reduced
    ensembles can read above the acceptance suite's limit on correct code.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    has_bound = header[-1] == "bound"
    ratio = None
    for line in lines[1:]:
        cells = line.split(",")
        numbers = [float(c) for i, c in enumerate(cells) if i != 1 and c != ""]
        if len(cells) != len(header) or not all(map(math.isfinite, numbers)):
            return False, None
        if has_bound and cells[-1] != "":
            r = float(cells[2]) / float(cells[-1])
            ratio = r if ratio is None else max(ratio, r)
    return len(lines) > 1, ratio


def measure(preset: str, seed: int, runs: int, trace: bool) -> dict:
    """Run one ensemble and return its measurements."""
    calibration_before = calibration_s()
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import continuized
    from continuized.harness import csvio, presets, runner

    if not Path(continuized.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"continuized imported from {continuized.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        spec = presets.get_preset(preset).with_overrides(seed=seed, runs=runs)
        wall1 = time.perf_counter()
        since = tracer.mark() if tracer else 0
        with tracer.span("runner.run_experiment") if tracer else nullcontext():
            runset = runner.run_experiment(spec)
        text = csvio.render_csv(runset)
        wall2, cpu2 = time.perf_counter(), _cpu_s()
    finally:
        if tracer:
            tracer.uninstall()
    calibration = 0.5 * (calibration_before + calibration_s())
    finite, bound_ratio = check_csv(text)
    data = text.encode()
    result = {
        "preset": preset,
        "seed": seed,
        "runs": runs,
        "trace": int(trace),
        "setup_s": wall1 - wall0,
        "wall_s": wall2 - wall0,
        "cpu_s": cpu2 - cpu0,
        "ensemble_s": wall2 - wall1,
        "calibration_s": calibration,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": count_events(spec),
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "finite": finite,
        "bound_ratio_max": bound_ratio,
    }
    if tracer:
        result["layers"] = _layers(tracer, since, spec, runset, result)
        result["absent"] = tracer.absent
    return result


def _layers(tracer, since: int, spec, runset, result: dict) -> dict:
    layers = tracer.summary(since)
    kernel = layers.get(EVENT_KERNEL[spec.kind])
    layers["engine.events"] = result["events"] if kernel is None else kernel
    layers["engine.events_from_streams"] = result["events"]
    layers["csvio.render_csv.bytes"] = result["csv_bytes"]
    layers["bench.self_time_coverage"] = layers.pop("self_total_s") / result["ensemble_s"]
    traces = getattr(runset, "traces", None)
    if traces is not None:
        recorded = sum(len(tr.samples) for tr in traces)
        layers["trace.samples_recorded"] = recorded
        layers["trace.useful_ratio"] = spec.runs * len(runset.checkpoints) / recorded
    return layers


def main(argv: list[str]) -> int:
    preset, seed, runs, trace = argv
    print(json.dumps(measure(preset, int(seed), int(runs), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
