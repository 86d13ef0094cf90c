"""Per-run checkpoint values pinned bit for bit.

Each case runs a few seeded runs of one engine path and compares every
checkpoint value, as ``float.hex``, with the value the engines produced
before the gossip and dual simulators were merged into one event loop.
The optimize cases from ``optimize_geometric_clock`` on (geometric clock,
2/t schedule under additive noise, ``multiplicative_convex``, and every
post-event (t, x, z) of one run) were recorded before the continuized
engine moved x and z into one (2, d) array.  Post-event states are read
through checkpoints at the event times.
Refactors of the engines must keep these exact; a change that moves them
on purpose regenerates the table and says so in CHANGES.md.
"""

import numpy as np
import pytest

from continuized.dual import random_local_functions, run_decentralized
from continuized.dynamics import run_continuized
from continuized.gossip import GossipParams, run_gossip
from continuized.graphs import grid_graph, line_graph, spectral
from continuized.problems import NoiseModel, make_least_squares, make_quadratic
from continuized.schedules import EventClock, ParamSchedule
from continuized.seeding import run_streams
from oracles import event_times

RUNS = 3
GRID = [0.5, 2.0, 7.5, 20.0]


def _gossip(algo, x0):
    g = grid_graph(3, 3)
    params = GossipParams.from_cache(spectral(g), algo)
    return [
        run_gossip(g, params, x0, 20.0, run_streams(2026, i), checkpoints=GRID)
        .values["energy"]
        for i in range(RUNS)
    ]


def accelerated_gossip():
    return _gossip("accelerated", np.random.default_rng(10).standard_normal(9))


def naive_gossip():
    return _gossip("naive", np.random.default_rng(10).standard_normal(9))


def vector_gossip():
    x0 = np.random.default_rng(11).standard_normal((9, 2))
    return _gossip("accelerated", x0)


def dual():
    g = line_graph(5)
    fns = random_local_functions(5, 0.5, 1.0, 2, np.random.default_rng(12))
    return [
        run_decentralized(g, fns, 0.5, 1.0, 20.0, run_streams(2027, i), checkpoints=GRID)
        .values["primal_dist_sq"]
        for i in range(RUNS)
    ]


def _optimize(problem, noise, schedule, metrics, clock=EventClock.exponential()):
    out = []
    for i in range(RUNS):
        tr = run_continuized(problem, noise, schedule, clock,
                             20.0, run_streams(2028, i), x0=np.zeros(problem.dimension),
                             checkpoints=GRID)
        out.append(np.concatenate([tr.values[m] for m in metrics]))
    return out


def optimize_strongly_convex():
    p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    return _optimize(p, NoiseModel.additive(3e-4), ParamSchedule.strongly_convex(1.0, 0.01),
                     ("gap", "dist_sq", "lyapunov"))


def optimize_convex():
    p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    return _optimize(p, NoiseModel.none(), ParamSchedule.convex(1.0),
                     ("gap", "dist_sq", "lyapunov"))


def optimize_multiplicative():
    rng = np.random.default_rng(13)
    p = make_least_squares(rng.standard_normal((6, 3)), rng.standard_normal(3))
    schedule = ParamSchedule.multiplicative_strongly_convex(
        p.r_squared, p.kappa_tilde, p.strong_convexity
    )
    return _optimize(p, NoiseModel.multiplicative(), schedule,
                     ("gap", "dist_sq", "lyapunov"))


def optimize_geometric_clock():
    p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    return _optimize(p, NoiseModel.none(), ParamSchedule.strongly_convex(1.0, 0.01),
                     ("gap", "dist_sq", "lyapunov"), clock=EventClock.geometric(0.1, 0.1))


def optimize_convex_additive():
    p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    return _optimize(p, NoiseModel.additive(3e-4), ParamSchedule.convex(1.0),
                     ("gap", "dist_sq", "lyapunov"))


def optimize_multiplicative_convex():
    rng = np.random.default_rng(14)
    p = make_least_squares(rng.standard_normal((6, 3)), rng.standard_normal(3))
    schedule = ParamSchedule.multiplicative_convex(p.r_squared, p.kappa_tilde)
    return _optimize(p, NoiseModel.multiplicative(), schedule,
                     ("gap", "dist_sq", "lyapunov"))


def optimize_event_states():
    # every post-jump (t, x, z) of one run, one row per event: a checkpoint
    # at each event time
    p = make_quadratic([0.01, 0.03, 1.0], [1.0, 1.0, 1.0])
    times = event_times(EventClock.exponential(), 8.0, run_streams(2029, 0))
    tr = run_continuized(p, NoiseModel.additive(3e-4), ParamSchedule.strongly_convex(1.0, 0.01),
                         EventClock.exponential(), 8.0, run_streams(2029, 0),
                         x0=np.zeros(3), checkpoints=times)
    assert len(tr.states) == len(times) > 0
    return [np.concatenate([[s.t], s.x, s.z]) for s in tr.states]


CASES = {
    f.__name__: f
    for f in (
        accelerated_gossip,
        naive_gossip,
        vector_gossip,
        dual,
        optimize_strongly_convex,
        optimize_convex,
        optimize_multiplicative,
        optimize_geometric_clock,
        optimize_convex_additive,
        optimize_multiplicative_convex,
        optimize_event_states,
    )
}

GOLDEN = {
    "accelerated_gossip": [
        [
            "0x1.0aa966e097166p+1", "0x1.0aa966e097166p+1", "0x1.5f141c95663b7p+0",
            "0x1.188298f784bdcp-3",
        ],
        [
            "0x1.0aa966e097166p+1", "0x1.02ef04c1e8de0p+1", "0x1.4ce1c9bda2cc7p-1",
            "0x1.376088569e3e6p-4",
        ],
        [
            "0x1.0aa966e097166p+1", "0x1.958313f0e4c1cp+0", "0x1.f85e215228f60p-1",
            "0x1.765548cf91a01p-2",
        ],
    ],
    "naive_gossip": [
        [
            "0x1.0aa966e097166p+1", "0x1.0aa966e097166p+1", "0x1.6523fffe4bac4p+0",
            "0x1.f5053c6ab533fp-3",
        ],
        [
            "0x1.0aa966e097166p+1", "0x1.02b78c92e32c3p+1", "0x1.5392a4e574110p-1",
            "0x1.7470a7e7b12a9p-4",
        ],
        [
            "0x1.0aa966e097166p+1", "0x1.955d65cd4ec3ep+0", "0x1.f8c0c9c6fa91fp-1",
            "0x1.d8428a94ea001p-2",
        ],
    ],
    "vector_gossip": [
        [
            "0x1.292dbb5ca6c07p+2", "0x1.292dbb5ca6c07p+2", "0x1.159361b0ad53fp+1",
            "0x1.216e401f64224p+0",
        ],
        [
            "0x1.292dbb5ca6c07p+2", "0x1.b70a861a4c952p+1", "0x1.04aa1f2bb7a62p+0",
            "0x1.01905f70b6cc2p-2",
        ],
        [
            "0x1.292dbb5ca6c07p+2", "0x1.f72d0b52af93dp+1", "0x1.74d567d492792p+0",
            "0x1.1d52e707b89d3p-2",
        ],
    ],
    "dual": [
        [
            "0x1.aedc7d66b9436p+1", "0x1.2aa346db5a0c2p+3", "0x1.6126597197919p+2",
            "0x1.29a2c64bce3b0p+1",
        ],
        [
            "0x1.aedc7d66b9436p+1", "0x1.049554b79b146p+3", "0x1.66981c144c1fbp+2",
            "0x1.2f38c7ca0609fp+1",
        ],
        [
            "0x1.aedc7d66b9436p+1", "0x1.34a65dbaa25f6p+1", "0x1.27b6c1baebfb0p+2",
            "0x1.35db08e186657p+0",
        ],
    ],
    "optimize_strongly_convex": [
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.117f508b9cf48p-6", "0x1.09aec14d462b3p-7",
            "0x1.113ecd6def4c2p-10", "0x1.8000000000000p+1", "0x1.ba10fbe40cdd0p+0",
            "0x1.0d043920dda58p+0", "0x1.3f2e1de917124p-3", "0x1.1ff6d46aa2fb2p-1",
            "0x1.077350a3a35d7p-5", "0x1.6b392667c7d1ap-6", "0x1.32118447a6a04p-7",
        ],
        [
            "0x1.168c1153ce51ap-5", "0x1.18ade42601516p-6", "0x1.2b3229c9b6059p-7",
            "0x1.4c6c737dff734p-11", "0x1.efb722aec6c98p+0", "0x1.c2bc76acc54bfp+0",
            "0x1.d44bc150750b9p-1", "0x1.7738faa3c3097p-5", "0x1.dd0b3571f421cp-2",
            "0x1.945b2724304aap-3", "0x1.6d256ea67ca48p-5", "0x1.ddbfdc59bf874p-8",
        ],
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.3d0396d2398f0p-1", "0x1.09f179ccf3527p-7",
            "0x1.30e9ee4e6b784p-10", "0x1.8000000000000p+1", "0x1.83cd8e0b7d202p+1",
            "0x1.13d3414f07f7cp+0", "0x1.ca2310ec84e6bp-3", "0x1.1ff6d46aa2fb2p-1",
            "0x1.25cb754b27231p+0", "0x1.9bc5b48c1af74p-6", "0x1.916ccdddad056p-7",
        ],
    ],
    "optimize_convex": [
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.821196ecccf53p-6", "0x1.e648359218cb2p-7",
            "0x1.d19619f14bf80p-10", "0x1.8000000000000p+1", "0x1.e81a746235958p+0",
            "0x1.94a41013f3af3p+0", "0x1.59f30ea9ee007p-2", "0x1.8851eb851eb85p+0",
            "0x1.02ac776945bb4p+0", "0x1.c49194c981c17p-1", "0x1.02c1e06300bf3p-2",
        ],
        [
            "0x1.2036afc9370cfp-3", "0x1.34b5e970782efp-6", "0x1.f82ea7b95355ep-7",
            "0x1.04ff7c102cb7ep-10", "0x1.19def7d4ff217p+1", "0x1.e83bdec227488p+0",
            "0x1.a02e504e8dad7p+0", "0x1.925a88a18b159p-3", "0x1.5ac56cc2f961dp+0",
            "0x1.f296e686dd06bp-1", "0x1.e9cab33373f7ep-1", "0x1.3f7007ee3996fp-3",
        ],
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.c0b6fc3c0f4bdp-3", "0x1.a595fa4df9118p-7",
            "0x1.5852e1c56ec78p-10", "0x1.8000000000000p+1", "0x1.2f4ee7e2660a5p+1",
            "0x1.6a5640f4dee6bp+0", "0x1.0a4b4f6b78c86p-2", "0x1.8851eb851eb85p+0",
            "0x1.72fbd7757662fp+0", "0x1.692e55d32333ep-1", "0x1.89b2d96b1589ap-3",
        ],
    ],
    "optimize_multiplicative": [
        [
            "0x1.b9e2e719d9f6ep+1", "0x1.5ee0a47bbbed7p+1", "0x1.13f7e18efbf37p+1",
            "0x1.16171dd394b8ep-4", "0x1.2a227d30d4922p+2", "0x1.a14e019f02e06p+1",
            "0x1.2adeaaa39cb70p+1", "0x1.283ca6d2a7afbp-3", "0x1.f7d0fa3b7e726p+1",
            "0x1.65717224c40b9p+1", "0x1.c68df729426c3p+1", "0x1.bc70115d141a4p-1",
        ],
        [
            "0x1.59f9c3fb25237p+1", "0x1.314b14493f9fap-1", "0x1.b1138a5b43d8fp-2",
            "0x1.2b7c0e669f0e5p-9", "0x1.a28037cd3db77p+1", "0x1.9c1dc71a3baabp+0",
            "0x1.0fdec002ad43ep+0", "0x1.22f66580c0c32p-8", "0x1.337f789deb209p+1",
            "0x1.03bea802bdbb1p+1", "0x1.e75a591e2ffc2p+0", "0x1.051e6032ed7dbp-4",
        ],
        [
            "0x1.b9e2e719d9f6ep+1", "0x1.ba2e69673df42p+1", "0x1.3a5259c4f2923p+0",
            "0x1.943e436307abep-2", "0x1.2a227d30d4922p+2", "0x1.285a0577ec91cp+2",
            "0x1.40704971e772ap+1", "0x1.eae55a49ad94bp-1", "0x1.f7d0fa3b7e726p+1",
            "0x1.2125b20146fbfp+2", "0x1.21bb32347b868p+2", "0x1.753fbcd8d713ap+2",
        ],
    ],
    "optimize_geometric_clock": [
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.1c9c2ffb5c0dap-6", "0x1.28de3171d3919p-7",
            "0x1.fa41583943568p-11", "0x1.8000000000000p+1", "0x1.bf218c8cf6ce4p+0",
            "0x1.173846eb0f2bep+0", "0x1.73dfb6f6114b8p-3", "0x1.1ff6d46aa2fb2p-1",
            "0x1.f531731637f17p-6", "0x1.7faaf50a12c64p-6", "0x1.4952c5cd24076p-7",
        ],
        [
            "0x1.7726cfe362f34p-6", "0x1.160bd19078117p-6", "0x1.10e55d7d2c684p-7",
            "0x1.41f0a29436b6ap-11", "0x1.ec08080425fedp+0", "0x1.c184626af1dccp+0",
            "0x1.fd75b4481eed5p-1", "0x1.97c34cdaa9cd4p-4", "0x1.cb116b9feec56p-2",
            "0x1.38ee98e9cd097p-3", "0x1.9ff032e35934dp-6", "0x1.510be5e51166ap-8",
        ],
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.3e60fd0dc1e33p-1", "0x1.e3eef0adc8190p-8",
            "0x1.8165141104c8cp-11", "0x1.8000000000000p+1", "0x1.85a952de02afdp+1",
            "0x1.e0bb7d0c14ed0p-1", "0x1.11083846051a6p-3", "0x1.1ff6d46aa2fb2p-1",
            "0x1.262b2eaecfc58p+0", "0x1.4903a6ffcc9cep-6", "0x1.a76ff2180cbf0p-8",
        ],
    ],
    "optimize_convex_additive": [
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.79d55502c8d43p-6", "0x1.d5a46353b959ap-7",
            "0x1.56026ac6754a0p-10", "0x1.8000000000000p+1", "0x1.f1121ff973e08p+0",
            "0x1.7fdb6dd442973p+0", "0x1.0aa92e6defcd4p-2", "0x1.8851eb851eb85p+0",
            "0x1.0652460d35650p+0", "0x1.929a776596507p-1", "0x1.6ad45e35b1137p-3",
        ],
        [
            "0x1.19710deee1a19p-3", "0x1.350c96cfb7067p-6", "0x1.d360ed4b12ef3p-7",
            "0x1.e9737044a2c43p-11", "0x1.18e1fd192fbdcp+1", "0x1.ebf1b57480943p+0",
            "0x1.8958c8cae0750p+0", "0x1.0644f45adc719p-3", "0x1.5a365e2accc9bp+0",
            "0x1.f662352d24a09p-1", "0x1.baf73b36a2ebfp-1", "0x1.0df82c13f652ap-3",
        ],
        [
            "0x1.0a3d70a3d70a4p-1", "0x1.bfd36b9e63821p-3", "0x1.b92aa490e9c04p-7",
            "0x1.bb940847b63a4p-10", "0x1.8000000000000p+1", "0x1.2ef3486bddbecp+1",
            "0x1.7fb4d028b4040p+0", "0x1.56ba7e37fc285p-2", "0x1.8851eb851eb85p+0",
            "0x1.7291758ea47ccp+0", "0x1.89460a3738f69p-1", "0x1.209cbfe458591p-2",
        ],
    ],
    "optimize_multiplicative_convex": [
        [
            "0x1.03422e8a7f2d2p+3", "0x1.f05683bbcc93fp+2", "0x1.0de8e8331ef5fp-3",
            "0x1.81ddefa8df4bfp-7", "0x1.f3e902f627e65p+2", "0x1.e15a850b7f876p+2",
            "0x1.90ccf9f8b65b6p-2", "0x1.ab448d455a677p-6", "0x1.eb9f394f75919p+0",
            "0x1.f7f3729835263p+0", "0x1.cd721a60ca485p-2", "0x1.fd26dcccecba2p-5",
        ],
        [
            "0x1.01f3fbc439693p+3", "0x1.8e2d8d5ee70b4p+2", "0x1.924234edde5f8p+2",
            "0x1.d844214bb52e7p-9", "0x1.f1871a582bc83p+2", "0x1.742634e72adc8p+2",
            "0x1.85ec4d7060796p+2", "0x1.4558161c2837dp-7", "0x1.eb6aab907bdf1p+0",
            "0x1.d5b3273ab7570p+0", "0x1.359e8ccf41c21p+1", "0x1.919436a5bacbep-6",
        ],
        [
            "0x1.03422e8a7f2d2p+3", "0x1.0144ae7300e4ep+3", "0x1.96fde5ebc85bcp+2",
            "0x1.112dc602ffbe0p-5", "0x1.f3e902f627e65p+2", "0x1.f0c8809b37c0dp+2",
            "0x1.8c07ddcbd3679p+2", "0x1.452c69539c882p-5", "0x1.eb9f394f75919p+0",
            "0x1.fca1936f30927p+0", "0x1.3cc049917ac8bp+1", "0x1.0b150af1b04a8p-4",
        ],
    ],
    "optimize_event_states": [
        [
            "0x1.d7398b4f98c41p-1", "0x1.b61f2ccebc084p-8", "0x1.0a529d9b5448bp-6",
            "0x1.01ac390834a14p+0", "0x1.11d37c0135852p-4", "0x1.4ce74502295aep-3",
            "0x1.4217474a41c99p+3",
        ],
        [
            "0x1.e167c3aafb786p+0", "0x1.26373fb51e2bcp-6", "0x1.b6271d992817ap-5",
            "0x1.fff05f5a247e0p-1", "0x1.f2b98e3b919b9p-4", "0x1.93bcd0382f426p-2",
            "0x1.4b3f6ee766a80p+0",
        ],
        [
            "0x1.14d781c0df68fp+1", "0x1.20949dcc8d3ddp-5", "0x1.3b4fbb7920e67p-4",
            "0x1.00905ef6820dap+0", "0x1.0d6ce073abe70p-2", "0x1.0d7975ebf0185p-1",
            "0x1.3a76097587c11p+0",
        ],
        [
            "0x1.b8256d906af08p+1", "0x1.a2eaaf852ee83p-5", "0x1.400478555108ep-3",
            "0x1.0376e732b2978p+0", "0x1.1e9ab8adfbdf9p-3", "0x1.8669d00610a72p-1",
            "0x1.0fc0702865f68p+0",
        ],
        [
            "0x1.f8ae0d152ee62p+1", "0x1.00a9f58b971bfp-4", "0x1.b94ee2a9b25d6p-3",
            "0x1.faf40c3c68193p-1", "0x1.aaaf676ec21f9p-3", "0x1.08f16dbfb6a6cp+0",
            "0x1.9ac87c628594ep-1",
        ],
        [
            "0x1.82c46d39009f7p+2", "0x1.becc6a339d308p-4", "0x1.89b5222e5e45ap-2",
            "0x1.01668f56644ecp+0", "0x1.973feebae9128p-2", "0x1.2dd11e5fa9ce7p+0",
            "0x1.4f58a2f6fb075p+0",
        ],
        [
            "0x1.ac58add23e2ebp+2", "0x1.08d9d2a76590cp-3", "0x1.c3663112bce0bp-2",
            "0x1.0400447b37d17p+0", "0x1.a07128eb83a06p-2", "0x1.35bdfdc3636c8p+0",
            "0x1.351d4a9b3565bp+0",
        ],
        [
            "0x1.b548f88aee3cap+2", "0x1.21ec117cc4638p-3", "0x1.e875e527eaebdp-2",
            "0x1.f574d5485809ap-1", "0x1.f2c4945cc4af0p-2", "0x1.74909fe7b7775p+0",
            "0x1.a1e3c3201dedcp-1",
        ],
        [
            "0x1.c043f541e7e2fp+2", "0x1.33df72d004f60p-3", "0x1.109d4da23c656p-1",
            "0x1.ff18edeeba44bp-1", "0x1.0570d4fcf8561p-1", "0x1.d405754a28d3ep+0",
            "0x1.08e6d58ed0422p+0",
        ],
    ],
}


@pytest.mark.parametrize("name", list(CASES))
def test_checkpoint_values_bitwise(name):
    got = [[float(v).hex() for v in run] for run in CASES[name]()]
    assert got == GOLDEN[name]
