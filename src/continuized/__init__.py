"""Continuized acceleration: Poisson-clocked optimization, gossip, and
dual decentralized optimization with exact closed-form discretization."""

import os

# OpenBLAS reads this when numpy loads it.  After start-up and after every
# threaded call, its idle worker threads spin for 2**28 cycles (~0.1 s)
# before they sleep; the simulators make tiny numpy calls whose largest BLAS
# work is one small ``eigh`` (``graphs.spectral``), so that spin only takes a
# core from the event loop.  2**4 cycles puts the workers to sleep at once.
# The thread count, and so the bits of the threaded ``eigh``, is unchanged;
# a value the user sets wins, and numpy imported first keeps its setting.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .dynamics import (
    gradient_jump,
    initial_state,
    lyapunov_value,
    mix_closed_form,
    run_continuized,
    run_gd,
    run_nesterov,
    run_three_sequence,
)
from .graphs import (
    Graph,
    SpectralCache,
    build_graph,
    complete_graph,
    cycle_graph,
    edge_list_graph,
    grid_graph,
    line_graph,
    spectral,
)
from .gossip import GossipParams, gossip_rates, run_gossip
from .dual import DualParams, LocalFunction, run_decentralized
from .problems import (
    ConvexProblem,
    LeastSquaresProblem,
    NoiseModel,
    QuadraticProblem,
    gradient,
    make_least_squares,
    make_quadratic,
    stochastic_gradient,
)
from .schedules import (
    EventClock,
    LyapunovCoeffs,
    ParamSchedule,
    discrete_params,
    lyapunov_coeffs,
    sample_interarrival,
    schedule_eval,
)
from .seeding import RunStreams, derive_seed, run_streams, splitmix64
from .trace import Snapshot, Trace

__version__ = "0.1.0"
