"""Continuized acceleration: Poisson-clocked optimization, gossip, and
dual decentralized optimization with exact closed-form discretization."""

import os
from importlib import import_module

# OpenBLAS reads this when numpy loads it.  After start-up and after every
# threaded call, its idle worker threads spin for 2**28 cycles (~0.1 s)
# before they sleep; the simulators make tiny numpy calls whose largest BLAS
# work is one small ``eigh`` (``graphs.spectral``), so that spin only takes a
# core from the event loop.  2**4 cycles puts the workers to sleep at once.
# The thread count, and so the bits of the threaded ``eigh``, is unchanged;
# a value the user sets wins, and numpy imported first keeps its setting.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

# Each exported name -> the submodule that defines it.  A name is imported
# when it is read (PEP 562), so ``import continuized`` loads no submodule and
# a run pays only for the modules it uses.  Nothing is cached here: every
# read returns the submodule's current binding.
_EXPORTS = {
    **dict.fromkeys((
        "gradient_jump", "initial_state", "lyapunov_value", "mix_closed_form",
        "run_continuized", "run_gd", "run_nesterov", "run_three_sequence",
    ), "dynamics"),
    **dict.fromkeys((
        "Graph", "SpectralCache", "build_graph", "complete_graph", "cycle_graph",
        "edge_list_graph", "grid_graph", "line_graph", "spectral",
    ), "graphs"),
    **dict.fromkeys(("GossipParams", "gossip_rates", "run_gossip"), "gossip"),
    **dict.fromkeys(("DualParams", "LocalFunction", "run_decentralized"), "dual"),
    **dict.fromkeys((
        "ConvexProblem", "LeastSquaresProblem", "NoiseModel", "QuadraticProblem",
        "gradient", "make_least_squares", "make_quadratic", "stochastic_gradient",
    ), "problems"),
    **dict.fromkeys((
        "EventClock", "LyapunovCoeffs", "ParamSchedule", "discrete_params",
        "lyapunov_coeffs", "sample_interarrival", "schedule_eval",
    ), "schedules"),
    **dict.fromkeys(("RunStreams", "derive_seed", "run_streams", "splitmix64"), "seeding"),
    **dict.fromkeys(("Snapshot", "Trace"), "trace"),
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
