"""Named experiment presets, one per reproduced figure family.

Each preset is the config a user would write for it: its sections (name ->
key -> text), built by the same rules as a config file.  Floats are written
as their shortest ``repr``, which parses back to the same bits.
"""

from __future__ import annotations

from .config import ExperimentSpec, spec_from_sections


def _floats(values) -> str:
    return " ".join(map(repr, values))


def _figure(kind: str, horizon: str, **sections) -> dict:
    """The sections of a figure, which plots the theory bound beside the runs."""
    return {"experiment": {"kind": kind, "horizon": horizon, "include_bounds": "true"}, **sections}


_THREE_DIM_STRONGLY_CONVEX = {"kind": "quadratic", "diag": "0.01 0.03 1.0", "center": "1 1 1"}

PRESETS = {
    "appendix-a1-convex": _figure(
        "optimize", "100",
        problem={"kind": "quadratic", "diag": _floats(1 / i**2 for i in range(1, 101)),
                 "center": _floats(1 / i for i in range(1, 101))},
        algo={"schedule": "convex"},
    ),
    "appendix-a1-strongly-convex": _figure(
        "optimize", "300", problem=_THREE_DIM_STRONGLY_CONVEX, algo={"schedule": "strongly_convex"},
    ),
    "appendix-b-additive": _figure(
        "optimize", "120", problem=_THREE_DIM_STRONGLY_CONVEX,
        noise={"kind": "additive", "sigma2": repr(1e-4 * 3)},  # 1e-4 per dimension
        algo={"schedule": "strongly_convex", "x0": "optimum"},
    ),
    "appendix-a2-line30": _figure("gossip", "2400", graph={"topology": "line", "nodes": "30"}),
    "appendix-a2-grid225": _figure(
        "gossip", "9000", graph={"topology": "grid", "rows": "15", "cols": "15"},
    ),
    "appendix-a2-complete10": _figure(
        "gossip", "80", graph={"topology": "complete", "nodes": "10"},
    ),
    "decentralized-line10": {
        "experiment": {"kind": "decentralized", "runs": "500", "horizon": "450"},
        "graph": {"topology": "line", "nodes": "10"},
        "decentralized": {"mu": "0.1", "smoothness": "1.0"},
    },
}


def get_preset(name: str) -> ExperimentSpec:
    """The spec of preset ``name``; KeyError when there is none."""
    return spec_from_sections(PRESETS[name])


def preset_names() -> list[str]:
    return sorted(PRESETS)
