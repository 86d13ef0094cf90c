"""CSV bytes of whole ensembles pinned by SHA-256.

Each case runs ``run_experiment`` on a small ensemble (every preset at
3 runs on two seeds, plus the Nesterov and gradient-descent baselines with
bounds) and compares the SHA-256 of ``render_csv`` with the digest the
runner produced before its three per-kind ensemble loops were merged into
one.  A change that moves these bytes on purpose records new digests and
says so in CHANGES.md.
"""

import hashlib
import os

import numpy as np
import pytest

from continuized.harness.config import parse_config_text
from continuized.harness.csvio import render_csv
from continuized.harness.presets import get_preset
from continuized.harness.runner import run_experiment

QUADRATIC_2D = """
[experiment]
kind = optimize
horizon = 30
runs = 2
include_bounds = true

[problem]
kind = quadratic
diag = 0.1 1.0
center = 1 -1

[algo]
"""

BASELINES = {
    "nesterov-convex": "method = nesterov\nvariant = convex\n",
    "nesterov-strongly-convex": "method = nesterov\nvariant = strongly_convex\n",
    "gd": "method = gd\n",
}

PRESETS = (
    "appendix-a1-convex", "appendix-a1-strongly-convex", "appendix-b-additive",
    "appendix-a2-line30", "appendix-a2-grid225", "appendix-a2-complete10",
    "decentralized-line10",
)
PRESET_SEEDS = (12345, 20260917)

GOLDEN = {
    "appendix-a1-convex/12345": "594e4e528dd12035b36a5b60a721ba31478e7a62abef6ec437090352cab4bd39",
    "appendix-a1-convex/20260917": "50508d5f26a5749f656b4cc5fe5500d40eb9eb0efa3348637aa1518375a04760",
    "appendix-a1-strongly-convex/12345": "fb8b39ee8683c8812ec3d98fb4c8da58be96468b499b6cb9bc20c6fb10bd494c",
    "appendix-a1-strongly-convex/20260917": "dea4c3d4929ad399c106f282602253731c734be6e4d7298cac0d378ef6eb3d95",
    "appendix-b-additive/12345": "1c48a72a4e5daf89ec56723bd3d2c804a3bbaef2c1b757acfb77eb425187de1c",
    "appendix-b-additive/20260917": "b65ff34a6845c9882725fa4a49668f060cea85817bbe98882b19c408d21bad58",
    "appendix-a2-line30/12345": "8f283bdf9011c67f1a850c2ac273ec6b98acacd24919816c0eef4c5f3b876f4f",
    "appendix-a2-line30/20260917": "074e50fbf9028e85246601ab65cf211f403ee5bf15b57d919fbbf45f64a33e83",
    "appendix-a2-grid225/12345": "2dade51b456cd5d5b39eb1b7e5c3b0a860f7aea57e52f192a9b5bce26ddb03eb",
    "appendix-a2-grid225/20260917": "ce587f9a4cf85767ff8073f34c35d3bb947d3af296825e9471b58748132b2a4c",
    "appendix-a2-complete10/12345": "9b64e20c2c20264432a4dd2fb414147a3a032a185d5c29c506256ccea422020e",
    "appendix-a2-complete10/20260917": "0bd3d45bcd71818e4d300726d47e0b360943f5a15f1a8c5a4910cd10c7779e3c",
    "decentralized-line10/12345": "4652525f062a5c49cd4804375404c09d87537141465eb90259a2211565db57fa",
    "decentralized-line10/20260917": "5470ce68a0af37ca22596ddcae9db9e3da5d85b49c9c3c38169b0d47ad81d8fd",
    "nesterov-convex": "058f049585f450d54a63808e56a5c7166fb126b38975d94fa885ec0657e171d4",
    "nesterov-strongly-convex": "b159e9bd65bca600deb9af43dec52c0ef86fdf81a7a026a5c7c334bfc37e1914",
    "gd": "d424f62b15f6068977366e0b30d78f5d84a6dfa009a6cfdcff0aea6ee10b0979",
}


def _preset_csv(name: str, seed: int) -> str:
    return render_csv(run_experiment(get_preset(name).with_overrides(runs=3, seed=seed)))


def _baseline_csv(name: str) -> str:
    return render_csv(run_experiment(parse_config_text(QUADRATIC_2D + BASELINES[name])))


CASES = {
    **{
        f"{name}/{seed}": (_preset_csv, name, seed)
        for name in PRESETS
        for seed in PRESET_SEEDS
    },
    **{name: (_baseline_csv, name) for name in BASELINES},
}


def _blas_context() -> str:
    """numpy's BLAS build and thread settings.  A graph's spectrum comes from
    a threaded ``eigh`` whose last bits depend on OpenBLAS's thread count, so
    a gossip or decentralized digest can move with these alone."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        build = "unknown"
    threads = ", ".join(
        f"{k}={os.environ.get(k)}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return f"numpy {np.__version__} on BLAS {build}; {threads}, os.cpu_count()={os.cpu_count()}"


@pytest.mark.parametrize("case", list(CASES))
def test_csv_digest(case):
    render, *args = CASES[case]
    assert hashlib.sha256(render(*args).encode()).hexdigest() == GOLDEN[case], _blas_context()
