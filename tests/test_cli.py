import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import continuized
from continuized.gossip import GOSSIP_ALGOS
from continuized.graphs import TOPOLOGIES
from continuized.harness import cli
from continuized.harness.cli import main
from continuized.harness.config import EXPERIMENT_KINDS, METHOD_KEYS, ConfigError
from continuized.harness.csvio import load_csv
from continuized.harness.presets import get_preset, preset_names
from continuized.problems import NOISE_FIELDS, PROBLEM_FIELDS
from continuized.schedules import CLOCKS, KINDS

OPTIMIZE_CFG = """
[experiment]
kind = optimize
horizon = 10
runs = 3
seed = 5

[problem]
kind = quadratic
diag = 0.01 0.03 1.0
center = 1 1 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestGraphInfo:
    def test_complete10_values(self, capsys):
        assert main(["graph-info", "--topology", "complete", "--nodes", "10"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(fields["mu_gossip"]) == pytest.approx(2.0 / 9.0)
        assert float(fields["r_max"]) == pytest.approx(9.0)
        assert float(fields["theta_rg"]) == pytest.approx(2.0 / 9.0)
        assert float(fields["theta_arg"]) == pytest.approx(1.0 / 9.0)

    def test_grid_requires_dims(self):
        assert main(["graph-info", "--topology", "grid"]) == 1

    def test_config_driven(self, cfg_file, capsys):
        path = cfg_file(
            "[experiment]\nkind = graph-info\n\n[graph]\ntopology = line\nnodes = 30\n"
        )
        assert main(["graph-info", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "theta_arg" in out

    def test_missing_everything(self):
        assert main(["graph-info"]) == 1

    def test_quiet_is_no_flag(self, capsys):
        # graph-info prints only its table, so there is nothing to quieten
        assert main(["graph-info", "--topology", "line", "--nodes", "3", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --quiet\nusage:"), err

    @pytest.mark.parametrize("argv, expected", [
        (["--topology", "line", "--nodes", "4", "--rows", "3"],
         ["[graph] key 'rows' does not apply to topology line"]),
        (["--config", "{cfg}"], [f"[experiment] key '{key}' does not apply to kind graph-info"
                                 for key in ("runs", "horizon", "include_bounds")]),
        (["--config", "{cfg}", "--topology", "grid"],
         ["graph-info takes either --config or the topology flags"]),
        (["--topology", "grid", "--rows", "x", "--cols", "0"],
         ["[graph] rows must be an integer >= 1, got 'x'",
          "[graph] cols must be an integer >= 1, got '0'"]),
        (["--topology", "complete", "--nodes", "1"],
         ["[graph] nodes must be an integer >= 2, got '1'"]),
    ], ids=["stray-flag", "stray-run-keys", "config-and-flag", "rows-and-cols", "one-node"])
    def test_faulty_input_exits_1_naming_each_fault(self, cfg_file, capsys, argv, expected):
        # the flags are read as the [graph] keys of the same name, by the
        # config's one key rule; a graph-info config reads no run keys
        path = cfg_file(
            "[experiment]\nkind = graph-info\nruns = 3\nhorizon = 10\ninclude_bounds = true\n\n"
            "[graph]\ntopology = line\nnodes = 4\n"
        )
        assert main(["graph-info", *(arg.format(cfg=path) for arg in argv)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]

    def test_config_without_graph(self, cfg_file, capsys):
        # an optimize config parses, but holds no graph to describe
        assert main(["graph-info", "--config", cfg_file(OPTIMIZE_CFG)]) == 1
        assert capsys.readouterr().err == "error: config has no [graph] section\n"


class TestExitCodes:
    def test_unknown_subcommand_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self):
        assert main([]) == 1

    def test_validation_error_lists_fields(self, cfg_file, capsys):
        path = cfg_file("[experiment]\nkind = optimize\nhorizon = -2\n")
        assert main(["optimize", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "horizon" in err

    def test_missing_config_file(self):
        assert main(["optimize", "--config", "/no/such/file.cfg"]) == 1

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(OPTIMIZE_CFG.encode() + b"; caf\xe9\n")
        assert main(["optimize", "--config", str(path)]) == 1
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path)]) == 1
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_kind_mismatch(self, cfg_file):
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["gossip", "--config", path]) == 1

    def test_unknown_preset(self, cfg_file, capsys):
        # reproduce and a preset config load the name one way, listing the choices
        assert main(["reproduce", "appendix-z1"]) == 1
        reproduced = capsys.readouterr().err
        path = cfg_file("[experiment]\npreset = appendix-z1\n")
        assert main(["optimize", "--config", path]) == 1
        names = ", ".join(cli.preset_names())
        assert reproduced == capsys.readouterr().err == (
            f"error: unknown preset 'appendix-z1'; choose from {names}\n")

    def test_inconsistent_least_squares_targets(self, cfg_file, capsys):
        # targets must equal <a, optimum>: 1 and 1 here, not 99 and -7
        path = cfg_file(
            "[experiment]\nkind = optimize\nhorizon = 5\nruns = 2\n\n"
            "[problem]\nkind = least_squares\noptimum = 1 1\n"
            "samples =\n    1 0 | 99\n    0 1 | -7\n"
        )
        assert main(["optimize", "--config", path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "targets are inconsistent with the optimum on sample lines 1, 2" in err

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--horizon", "0.5"], ["--horizon", "nan"]])
    def test_bad_override_flag_exits_1(self, cfg_file, capsys, flags):
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["optimize", "--config", path, "--quiet", *flags]) == 1
        assert f"argument {flags[0]}" in capsys.readouterr().err

    def test_horizon_flag_whose_grid_repeats_exits_1(self, cfg_file, capsys):
        path = cfg_file(OPTIMIZE_CFG)
        flags = ["--quiet", "--horizon", "1.0000000000000002"]
        assert main(["optimize", "--config", path, *flags]) == 1
        assert "--horizon 1.0000000000000002: 50 log-spaced" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config", "directory"])
    def test_unwritable_out_exits_1_before_running(
        self, cfg_file, capsys, monkeypatch, tmp_path, where
    ):
        def fail(spec, progress=None):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(cli, "run_experiment", fail)
        out = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.csv")
        if where == "config":
            text = OPTIMIZE_CFG.replace("seed = 5", f"seed = 5\nout = {out}")
            argv = ["optimize", "--config", cfg_file(text)]
        else:
            argv = ["reproduce", "appendix-a2-complete10", "--out", out]
        assert main([*argv, "--quiet"]) == 1
        assert f"error: out {out}" in capsys.readouterr().err

    def test_progress_lines_every_tenth_of_the_runs(self, tmp_path, capsys):
        # one stderr line after each block of a tenth of the runs, and one
        # after the last run; the CSV goes to its file
        out = tmp_path / "complete10.csv"
        argv = ["reproduce", "appendix-a2-complete10", "--runs", "25", "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"  run {done}/25" for done in (*range(2, 25, 2), 25)]
        assert captured.out == f"wrote {out}\n"
        assert out.read_text().count("\n") > 1

    def test_runtime_error_exits_2(self, cfg_file, capsys, monkeypatch):
        # a valid config whose run fails: the CLI maps the error to exit 2
        def fail(spec, progress=None):
            raise RuntimeError("run 0 failed: boom")

        monkeypatch.setattr(cli, "run_experiment", fail)
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["optimize", "--config", path, "--quiet"]) == 2
        assert "run 0 failed: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["graph-info", "--topology", "line", "--nodes", "4"],
        ["reproduce", "appendix-a2-complete10", "--runs", "2", "--quiet"],
    ])
    def test_closed_stdout_exits_141_quietly(self, argv):
        # a reader that went away (as in ``| head``) is no runtime error: the
        # CLI exits 128 + SIGPIPE, as a shell reports it, and writes no stderr
        src = str(Path(continuized.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            done = subprocess.run(
                [sys.executable, "-m", "continuized", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


QUADRATIC_2D = """
[experiment]
kind = optimize
horizon = 10
runs = 2
seed = 5

[problem]
kind = quadratic
diag = 0.5 1.0
center = 1 1
"""

LINE2 = """
[experiment]
kind = {kind}
horizon = 5
runs = 1

[graph]
topology = line
nodes = 2
"""

INVALID_INPUTS = [
    ("runs", QUADRATIC_2D.replace("runs = 2", "runs = abc"), ["[experiment] runs"]),
    ("seed", QUADRATIC_2D.replace("seed = 5", "seed = xyz"), ["[experiment] seed"]),
    # seeds are folded to 64 bits, so -1 would rerun the ensemble of 2**64 - 1
    ("seed-negative", QUADRATIC_2D.replace("seed = 5", "seed = -1"),
     ["[experiment] seed = -1: must be an integer >= 0, got '-1'"]),
    ("schedule-and-clock", QUADRATIC_2D + "[algo]\nschedule = bogus\nclock = weird\n",
     ["unknown schedule 'bogus'", "unknown clock 'weird'"]),
    ("x0-length", QUADRATIC_2D + "[algo]\nx0 = 1 2 3\n", ["[algo] x0"]),
    ("sigma2", QUADRATIC_2D + "[noise]\nkind = additive\nsigma2 = -1\n", ["sigma2"]),
    ("geometric-p", QUADRATIC_2D + "[algo]\nclock = geometric\np = 2\n",
     ["p must be in (0, 1]"]),
    # log1p(-p) is about -1e-320, so the longest wait would count inf trials
    ("geometric-p-subnormal",
     QUADRATIC_2D + "[algo]\nclock = geometric\np = 1e-320\ntick = 0.01\n",
     ["[algo] p = 1e-320 is too small"]),
    ("variant", QUADRATIC_2D + "[algo]\nmethod = nesterov\nvariant = bogus\n",
     ["unknown variant 'bogus'"]),
    ("step", QUADRATIC_2D + "[algo]\nmethod = gd\nstep = abc\n", ["[algo] step"]),
    ("nesterov-step", QUADRATIC_2D + "[algo]\nmethod = nesterov\nstep = 5\n",
     ["key 'step' does not apply to method nesterov"]),
    ("continuized-variant", QUADRATIC_2D + "[algo]\nmethod = continuized\nvariant = bogus\n",
     ["key 'variant' does not apply to method continuized"]),
    ("checkpoint-count", QUADRATIC_2D.replace("runs = 2", "runs = 2\ncheckpoints = 10000000000"),
     ["[experiment] checkpoints: log-spaced checkpoints need a count in [1, 10000]"]),
    # one ulp above 1 leaves two floats for the 50 log-spaced checkpoints
    ("checkpoint-repeat", QUADRATIC_2D.replace("horizon = 10", "horizon = 1.0000000000000002"),
     ["[experiment] checkpoints: 50 log-spaced checkpoints on [1, 1.0000000000000002] "
      "repeat a time"]),
    ("multiplicative-on-quadratic", QUADRATIC_2D + "[noise]\nkind = multiplicative\n",
     ["multiplicative noise requires a least-squares problem"]),
    ("curvatures-without-centers",
     LINE2.format(kind="decentralized")
     + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\ncurvatures = 0.5 1.0\n",
     ["'curvatures' and 'centers'"]),
    ("curvature-outside-bounds",
     LINE2.format(kind="decentralized")
     + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\n"
     "curvatures = 9.0 0.5\ncenters =\n    0.1\n    0.2\n",
     ["nodes [0] leave the declared [mu, L]"]),
    ("gossip-init-nan", LINE2.format(kind="gossip") + "[gossip]\ninit = nan 0\n",
     ["[gossip] init"]),
    ("dimension-and-centers",
     LINE2.format(kind="decentralized")
     + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\ndimension = 3\n"
     "curvatures = 0.5 1.0\ncenters =\n    0.1 0.3\n    0.2 0.4\n",
     ["dimension = 3 does not match the 2 columns of centers"]),
    ("center-scale-and-centers",
     LINE2.format(kind="decentralized")
     + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\ncenter_scale = 2.0\n"
     "curvatures = 0.5 1.0\ncenters =\n    0.1\n    0.2\n",
     ["center_scale does not apply to explicit centers"]),
    ("edge-weight-nan", LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = edge_list\nedges =\n    0 1 1\n    1 2 nan"),
     ["[graph] edge weights must be finite and > 0; edges [(1, 2)] are not"]),
    ("edge-weight-inf", LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = edge_list\nedges =\n    0 1 1\n    1 2 inf"),
     ["[graph] edge weights must be finite and > 0; edges [(1, 2)] are not"]),
    # finite and > 0, but 5e-324 / 2.0 rounds to probability 0
    ("edge-weight-underflow", LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = edge_list\nedges =\n    0 1 2.0\n    1 2 5e-324"),
     ["[graph] edge weights underflow to probability 0", "edges [(1, 2)]"]),
    # probability 1e-300 is positive but far below the Laplacian's eigenvalue tolerance
    ("edge-weight-tiny-gossip", LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = edge_list\nedges =\n    0 1 1.0\n    1 2 1e-300"),
     ["Laplacian has a repeated zero eigenvalue", "edges [(1, 2)]"]),
    ("edge-weight-tiny-decentralized", LINE2.format(kind="decentralized").replace(
        "topology = line\nnodes = 2", "topology = edge_list\nedges =\n    0 1 1.0\n    1 2 1e-300")
     + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\n",
     ["Laplacian has a repeated zero eigenvalue", "edges [(1, 2)]"]),
    ("gd-checkpoints", QUADRATIC_2D.replace("runs = 2", "runs = 2\ncheckpoints = 1 2 3")
     + "[algo]\nmethod = gd\n",
     ["[experiment] key 'checkpoints' does not apply to method gd"]),
    # every section refuses a key that its variant does not read
    ("line-rows", LINE2.format(kind="gossip").replace("nodes = 2", "nodes = 2\nrows = 3"),
     ["[graph] key 'rows' does not apply to topology line"]),
    ("quadratic-samples", QUADRATIC_2D + "samples =\n    1 0 | 1\n",
     ["[problem] key 'samples' does not apply to kind quadratic"]),
    ("no-noise-sigma2", QUADRATIC_2D + "[noise]\nkind = none\nsigma2 = 5\n",
     ["[noise] key 'sigma2' does not apply to kind none"]),
    ("grid-rows-and-cols", LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = grid\nrows = x\ncols = 0"),
     ["[graph] rows must be an integer >= 1, got 'x'", "cols must be an integer >= 1, got '0'"]),
    ("unknown-topology-and-key", LINE2.format(kind="gossip").replace(
        "topology = line", "topology = torus\nfoo = 1"),
     ["[graph] unknown topology 'torus'", "[graph] key 'foo' does not apply to topology torus"]),
    # each clock reads its own keys; exponential is the default
    ("geometric-rate", QUADRATIC_2D + "[algo]\nclock = geometric\nrate = 5\n",
     ["[algo] key 'rate' does not apply to clock geometric"]),
    ("default-clock-p", QUADRATIC_2D + "[algo]\np = 0.5\n",
     ["[algo] key 'p' does not apply to clock exponential"]),
    # the deterministic baselines draw no noise
    ("nesterov-noise", QUADRATIC_2D + "[noise]\nkind = additive\nsigma2 = 100\n"
     "[algo]\nmethod = nesterov\n", ["section [noise] does not apply to method nesterov"]),
    ("gd-noise", QUADRATIC_2D + "[noise]\nkind = none\n[algo]\nmethod = gd\n",
     ["section [noise] does not apply to method gd"]),
]


@pytest.mark.parametrize(
    "text, expected", [row[1:] for row in INVALID_INPUTS], ids=[row[0] for row in INVALID_INPUTS]
)
def test_invalid_input_exits_1_listing_every_violation(cfg_file, capsys, text, expected):
    kind = text.split("kind = ", 1)[1].split()[0]
    assert main([kind, "--config", cfg_file(text), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "runtime error" not in err
    lines = err.splitlines()
    for violation in expected:
        assert any(line.startswith("error: ") and violation in line for line in lines), (
            violation, err)


LEAST_SQUARES = """
[experiment]
kind = optimize
horizon = 10

[problem]
kind = least_squares
optimum = {optimum}
samples =
    {samples}
"""


def _edges(kind, *lines):
    """The LINE2 config of ``kind`` on an edge list of ``lines``."""
    edges = "".join(f"\n    {line}" for line in lines)
    return LINE2.format(kind=kind).replace(
        "topology = line\nnodes = 2", f"topology = edge_list\nedges ={edges}")


# A decentralized config on the 3-node line with explicit local functions.
LINE3_LOCAL = (LINE2.format(kind="decentralized").replace("nodes = 2", "nodes = 3")
               + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\n"
               + "curvatures = {curvatures}\ncenters =\n    {centers}\n")


# Configs that each refusal rejects: (id, subcommand, config text, the error
# lines the CLI prints, all of them).
REFUSALS = [
    ("unknown-kind", "optimize", QUADRATIC_2D.replace("kind = optimize", "kind = bogus"),
     ["[experiment] unknown kind 'bogus'; choose from optimize, gossip, decentralized, "
      "graph-info"]),
    ("unknown-section", "optimize", QUADRATIC_2D + "[extra]\nkey = 1\n",
     ["unknown section [extra]"]),
    ("missing-horizon", "optimize", QUADRATIC_2D.replace("horizon = 10\n", ""),
     ["[experiment] missing required field 'horizon'"]),
    ("unknown-method", "optimize", QUADRATIC_2D + "[algo]\nmethod = bogus\n",
     ["[algo] unknown method 'bogus'; choose from continuized, nesterov, gd"]),
    ("unknown-gossip-algo", "gossip", LINE2.format(kind="gossip") + "[gossip]\nalgo = bogus\n",
     ["[gossip] unknown algo 'bogus'; choose from accelerated, naive"]),
    ("gossip-init-length", "gossip", LINE2.format(kind="gossip") + "[gossip]\ninit = 1 2 3\n",
     ["[gossip] init: node values have shape (3,), not one per node of 2"]),
    ("unknown-noise-kind", "optimize", QUADRATIC_2D + "[noise]\nkind = bogus\n",
     ["[noise] unknown noise kind 'bogus'; choose from none, additive, multiplicative"]),
    ("curvatures-and-center", "optimize", QUADRATIC_2D.replace("center = 1 1", "center = 1"),
     ["[problem] curvatures and center disagree: (2,) vs (1,)"]),
    ("problem-missing-field", "optimize", QUADRATIC_2D.replace("center = 1 1\n", ""),
     ["[problem] quadratic needs 'center'"]),
    ("zero-hessian", "optimize", LEAST_SQUARES.format(optimum="1 1", samples="0 0 | 0"),
     ["[problem] Hessian has no positive eigenvalue"]),
    ("optimum-shape", "optimize", LEAST_SQUARES.format(optimum="1 1 1", samples="1 0 | 1"),
     ["[problem] optimum has shape (3,), atoms have dimension 2"]),
    ("sample-weight", "optimize",
     LEAST_SQUARES.format(optimum="1 1", samples="1 0 | 1 | -1\n    0 1 | 1 | 1"),
     ["[problem] sample weights must be finite and > 0 on sample lines 1"]),
    # [algo] names its own faults when [problem] failed to build
    ("problem-and-algo-faults", "optimize",
     QUADRATIC_2D.replace("diag = 0.5 1.0", "diag = 0.5 nan") + "[algo]\nmethod = bogus\n",
     ["[problem] diag: expected finite numbers, got '0.5 nan'",
      "[algo] unknown method 'bogus'; choose from continuized, nesterov, gd"]),
    ("sample-line", "optimize", LEAST_SQUARES.format(optimum="1 1", samples="1 0"),
     ["[problem] bad sample line: '1 0'"]),
    ("edge-out-of-range", "gossip", _edges("gossip", "0 1 1", "1 -2 1"),
     ["[graph] edge (1, -2) leaves the node range"]),
    ("empty-edge-list", "gossip", _edges("gossip"), ["[graph] empty edge list"]),
    ("checkpoint-count-zero", "optimize", QUADRATIC_2D.replace("runs = 2", "checkpoints = 0"),
     ["[experiment] checkpoints: must be an integer >= 1, got '0'"]),
    # an edge list names all its faults at once, checked before the node count
    ("every-edge-fault", "gossip",
     _edges("gossip", "0 0 1.0", "1 2 1.0", "2 1 1.0", "3 -4 1.0", "5 6 -1"),
     ["[graph] self-loop at node 0", "[graph] duplicate edge (1, 2)",
      "[graph] edge (3, -4) leaves the node range",
      "[graph] edge weights must be finite and > 0; edges [(5, 6)] are not"]),
    ("lone-self-loop", "gossip", _edges("gossip", "0 0 1.0"), ["[graph] self-loop at node 0"]),
    # a line that is no 'v w p' triple is named whole, never by Python's own words
    ("edge-node-text", "gossip", _edges("gossip", "x 2 1.0"),
     ["[graph] expected 'v w p', got 'x 2 1.0'"]),
    ("edge-weight-text", "decentralized",
     _edges("decentralized", "0 1 1.0", "1 2 abc") + "[decentralized]\nmu = 1\nsmoothness = 2\n",
     ["[graph] expected 'v w p', got '1 2 abc'"]),
    # explicit local functions need one curvature and one center row per node
    ("curvature-count", "decentralized", LINE3_LOCAL.format(
        curvatures="0.5 0.5", centers="1\n    2\n    3"),
     ["[decentralized] curvatures and centers disagree: 2 values vs 3 rows"]),
    ("curvature-and-center-counts", "decentralized", LINE3_LOCAL.format(
        curvatures="0.5 0.5", centers="1\n    2\n    3\n    4"),
     ["[decentralized] curvatures and centers disagree: 2 values vs 4 rows"]),
    # each explicit local function is built by its record, which names its node's fault
    ("curvature-not-positive", "decentralized", LINE3_LOCAL.format(
        curvatures="-1 0.5 0", centers="1\n    2\n    3"),
     ["[decentralized] node 0: curvature must be finite and > 0, got -1.0",
      "[decentralized] node 2: curvature must be finite and > 0, got 0.0"]),
    # [mu, L] is checked on the scale of mu and L, not to an absolute slack
    ("curvature-outside-small-bounds", "decentralized", LINE3_LOCAL.format(
        curvatures="1e-12 1e-14 1e-14", centers="1\n    2\n    3").replace(
        "mu = 0.5\nsmoothness = 1.0", "mu = 1e-15\nsmoothness = 1e-14"),
     ["[decentralized] local curvatures of nodes [0] leave the declared "
      "[mu, L] = [1e-15, 1e-14]"]),
]


@pytest.mark.parametrize(
    "command, text, expected", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_refused_config_exits_1_printing_its_violations(cfg_file, capsys, command, text, expected):
    assert main([command, "--config", cfg_file(text), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in expected]


# Command lines with several faults, their environment and how many faults
# each holds: {bad} is an optimize config with runs = 0 and horizon = -2,
# {gossip} a valid gossip config and {missing} a path in a missing directory.
EVERY_FAULT = [
    ("config-and-runs-flag", ["optimize", "--config", "{bad}", "--runs", "0"], {}, 3),
    ("runs-horizon-seed", ["reproduce", "appendix-a1-convex", "--runs", "0",
                           "--horizon", "0.5", "--seed", "x"], {}, 3),
    ("env-seed-and-out", ["reproduce", "appendix-a1-convex", "--out", "{missing}"],
     {"CONTINUIZED_SEED": "abc"}, 2),
    ("kind-and-horizon", ["optimize", "--config", "{gossip}", "--horizon", "0.5"], {}, 2),
    ("kind-and-out", ["optimize", "--config", "{gossip}", "--out", "{missing}"], {}, 2),
    ("grid-and-out", ["reproduce", "appendix-a1-convex", "--horizon", "1.0000000000000002",
                      "--out", "{missing}"], {}, 2),
    ("seed-flag-negative", ["reproduce", "appendix-a1-convex", "--seed", "-1"], {}, 1),
    ("env-seed-above-64-bits", ["reproduce", "appendix-a1-convex"],
     {"CONTINUIZED_SEED": str(2**64)}, 1),
]


@pytest.mark.parametrize(
    "argv, env, faults", [row[1:] for row in EVERY_FAULT], ids=[row[0] for row in EVERY_FAULT]
)
def test_command_line_lists_every_fault_before_running(
    cfg_file, capsys, monkeypatch, tmp_path, argv, env, faults
):
    def fail(spec, progress=None):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli, "run_experiment", fail)
    monkeypatch.delenv("CONTINUIZED_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    bad = OPTIMIZE_CFG.replace("horizon = 10", "horizon = -2").replace("runs = 3", "runs = 0")
    paths = {
        "bad": cfg_file(bad),
        "gossip": cfg_file(LINE2.format(kind="gossip"), "gossip.cfg"),
        "missing": str(tmp_path / "missing" / "x.csv"),
    }
    assert main([*(arg.format(**paths) for arg in argv), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == faults and all(line.startswith("error: ") for line in lines), lines


# Each integer field of a config, its least value, a config that sets it to
# {v} and the prefix its violation carries there, and the command lines
# (with their environment) that set it too.  parse_int is the one rule of
# every entry point, so each refusal reads alike.
INTEGER_FIELDS = {
    "runs": (1, QUADRATIC_2D.replace("runs = 2", "runs = {v}"), "[experiment] runs = {v}: ",
             [(["reproduce", "appendix-a1-convex", "--runs", "{v}"], {}, "argument --runs {v}: ")]),
    "seed": (0, QUADRATIC_2D.replace("seed = 5", "seed = {v}"), "[experiment] seed = {v}: ",
             [(["reproduce", "appendix-a1-convex", "--seed", "{v}"], {}, "argument --seed {v}: "),
              (["reproduce", "appendix-a1-convex"], {"CONTINUIZED_SEED": "{v}"},
               "CONTINUIZED_SEED={v}: ")]),
    "iters": (1, QUADRATIC_2D + "[algo]\nmethod = nesterov\niters = {v}\n", "[algo] iters: ", []),
    "dimension": (1, LINE2.format(kind="decentralized")
                  + "[decentralized]\nmu = 0.5\nsmoothness = 1.0\ndimension = {v}\n",
                  "[decentralized] dimension: ", []),
    "nodes": (2, LINE2.format(kind="gossip").replace("nodes = 2", "nodes = {v}"), "[graph] nodes ",
              [(["graph-info", "--topology", "line", "--nodes", "{v}"], {}, "[graph] nodes ")]),
    "rows": (1, LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = grid\nrows = {v}\ncols = 2"), "[graph] rows ",
             [(["graph-info", "--topology", "grid", "--rows", "{v}", "--cols", "2"], {},
               "[graph] rows ")]),
    "cols": (1, LINE2.format(kind="gossip").replace(
        "topology = line\nnodes = 2", "topology = grid\nrows = 2\ncols = {v}"), "[graph] cols ",
             [(["graph-info", "--topology", "grid", "--rows", "2", "--cols", "{v}"], {},
               "[graph] cols ")]),
}
# not integers: a fraction, a word, a float in exponent form, the bool whose
# integer value would be valid, and one below the least value
INTEGER_CASES = [
    (name, least, value)
    for name, (least, *_) in INTEGER_FIELDS.items()
    for value in ("2.5", "x", "1e3", str(bool(least)), str(least - 1))
]


@pytest.mark.parametrize("name, least, value", INTEGER_CASES)
def test_every_integer_field_is_refused_by_one_rule(
    cfg_file, capsys, monkeypatch, name, least, value
):
    def fail(spec, progress=None):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli, "run_experiment", fail)
    monkeypatch.delenv("CONTINUIZED_SEED", raising=False)
    _, text, where, commands = INTEGER_FIELDS[name]
    text = text.replace("{v}", value)
    kind = text.split("kind = ", 1)[1].split()[0]
    fault = f"must be an integer >= {least}, got {value!r}"
    runs = [([kind, "--config", cfg_file(text)], {}, where), *commands]
    for argv, env, prefix in runs:
        with monkeypatch.context() as patch:
            for var, setting in env.items():
                patch.setenv(var, setting.replace("{v}", value))
            assert main([arg.replace("{v}", value) for arg in argv]) == 1, argv
        expected = f"error: {prefix.replace('{v}', value)}{fault}"
        assert capsys.readouterr().err.splitlines() == [expected], argv


@pytest.mark.parametrize("name", ["runs", "seed"])
@pytest.mark.parametrize("value", [2.5, "x", 1e3, "bool", "below"])
def test_with_overrides_refuses_integers_by_the_one_rule(name, value):
    least = INTEGER_FIELDS[name][0]
    value = {"bool": bool(least), "below": least - 1}.get(value, value)
    with pytest.raises(ConfigError) as err:
        get_preset("appendix-a1-convex").with_overrides(**{name: value})
    fault = f"must be an integer >= {least}, got {value!r}"
    assert err.value.violations == [f"{name}={value!r}: {fault}"]


@pytest.mark.parametrize("name, value, fault", [
    ("horizon", 10**400, "must be a real number within the float range"),
    ("horizon", [5], "must be a real number within the float range"),
    ("horizon", 1 + 2j, "must be a real number within the float range"),
    ("out", 5, "must be a path"),
    ("out", b"x.csv", "must be a path"),
], ids=["horizon-beyond-float", "horizon-list", "horizon-complex", "out-int", "out-bytes"])
def test_with_overrides_refuses_values_its_rule_cannot_read(name, value, fault):
    # each rule refuses a typed value it cannot read as one violation, as
    # the integer rule does, never with Python's own error
    with pytest.raises(ConfigError) as err:
        get_preset("appendix-a1-convex").with_overrides(**{name: value})
    assert err.value.violations == [f"{name}={value!r}: {fault}, got {value!r}"]


RUNS_PAST_MAXSIZE = f"must be at most {sys.maxsize}, the largest array length"


def test_runs_are_bounded_by_the_largest_array_length(cfg_file, capsys):
    # a count no array can hold is refused at parse time, from a flag, a
    # config key or a typed override, as one line naming the bound
    big = "1" + "0" * 400
    cases = [
        (["reproduce", "appendix-a1-convex", "--runs", big], f"argument --runs {big}"),
        (["optimize", "--config", cfg_file(QUADRATIC_2D.replace("runs = 2", f"runs = {big}"))],
         f"[experiment] runs = {big}"),
    ]
    for argv, where in cases:
        assert main([*argv, "--quiet"]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [f"error: {where}: {RUNS_PAST_MAXSIZE}"]
    spec = get_preset("appendix-a1-convex")
    for runs in (10**400, sys.maxsize + 1):
        with pytest.raises(ConfigError) as err:
            spec.with_overrides(runs=runs)
        assert err.value.violations == [f"runs={runs!r}: {RUNS_PAST_MAXSIZE}"]
    assert spec.with_overrides(runs=sys.maxsize).runs == sys.maxsize


LONG = "<int too long to print>"


@pytest.mark.parametrize("name, value, fault", [
    ("runs", 10**5000, RUNS_PAST_MAXSIZE),
    ("runs", -10**5000, f"must be an integer >= 1, got {LONG}"),
    ("seed", 10**5000, "must be in [0, 2**64)"),
    ("horizon", 10**5000, f"must be a real number within the float range, got {LONG}"),
    ("out", 10**5000, f"must be a path, got {LONG}"),
    ("include_bounds", 10**5000, "not a boolean"),
], ids=["runs", "runs-negative", "seed", "horizon", "out", "include-bounds"])
def test_with_overrides_names_an_integer_too_long_to_print(name, value, fault):
    # an integer past the digits Python prints is one violation that names
    # it briefly, never Python's own error
    with pytest.raises(ConfigError) as err:
        get_preset("appendix-a1-strongly-convex").with_overrides(**{name: value})
    assert err.value.violations == [f"{name}={LONG}: {fault}"]


# Each variant key of a config: the subcommand, a config that sets it to
# 'bogus', the start of the one line its refusal prints and the choices of
# the table that owns the names.  parse_choice is the one rule of every
# name; the preset's line names no section, as ``reproduce <preset>`` prints it.
VARIANT_KEYS = {
    "[experiment] kind": ("optimize", QUADRATIC_2D.replace("kind = optimize", "kind = bogus"),
                          "[experiment] unknown kind", EXPERIMENT_KINDS),
    "[experiment] preset": ("optimize", "[experiment]\npreset = bogus\n", "unknown preset",
                            preset_names()),
    "[problem] kind": ("optimize", QUADRATIC_2D.replace("kind = quadratic", "kind = bogus"),
                       "[problem] unknown problem kind", PROBLEM_FIELDS),
    "[noise] kind": ("optimize", QUADRATIC_2D + "[noise]\nkind = bogus\n",
                     "[noise] unknown noise kind", NOISE_FIELDS),
    "[algo] method": ("optimize", QUADRATIC_2D + "[algo]\nmethod = bogus\n",
                      "[algo] unknown method", METHOD_KEYS),
    "[algo] schedule": ("optimize", QUADRATIC_2D + "[algo]\nschedule = bogus\n",
                        "[algo] unknown schedule", KINDS),
    "[algo] clock": ("optimize", QUADRATIC_2D + "[algo]\nclock = bogus\n",
                     "[algo] unknown clock", CLOCKS),
    "[algo] variant": ("optimize", QUADRATIC_2D + "[algo]\nmethod = nesterov\nvariant = bogus\n",
                       "[algo] unknown variant", ("convex", "strongly_convex")),
    "[graph] topology": ("gossip", LINE2.format(kind="gossip").replace("= line", "= bogus"),
                         "[graph] unknown topology", TOPOLOGIES),
    "[gossip] algo": ("gossip", LINE2.format(kind="gossip") + "[gossip]\nalgo = bogus\n",
                      "[gossip] unknown algo", GOSSIP_ALGOS),
}


@pytest.mark.parametrize("key", VARIANT_KEYS)
def test_every_variant_name_is_refused_by_one_rule(cfg_file, capsys, key):
    command, text, refusal, choices = VARIANT_KEYS[key]
    assert main([command, "--config", cfg_file(text), "--quiet"]) == 1
    expected = f"error: {refusal} 'bogus'; choose from {', '.join(choices)}"
    assert capsys.readouterr().err.splitlines() == [expected]


class TestRuns:
    def test_optimize_writes_csv(self, cfg_file, tmp_path):
        out = tmp_path / "run.csv"
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["optimize", "--config", path, "--out", str(out), "--quiet"]) == 0
        grid, series = load_csv(str(out))
        assert grid.shape == (50,)
        assert "gap" in series

    def test_reproduce_smoke(self, tmp_path):
        out = tmp_path / "a1.csv"
        code = main(["reproduce", "appendix-a1-convex", "--runs", "5",
                     "--out", str(out), "--quiet"])
        assert code == 0
        grid, series = load_csv(str(out))
        assert "gap" in series and "bound" in series["gap"]

    def test_stdout_when_no_out(self, cfg_file, capsys):
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["optimize", "--config", path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,metric,mean,q05,q95")

    def test_seed_flag_changes_output(self, cfg_file, capsys):
        path = cfg_file(OPTIMIZE_CFG)
        main(["optimize", "--config", path, "--quiet"])
        base = capsys.readouterr().out
        main(["optimize", "--config", path, "--quiet", "--seed", "99"])
        reseeded = capsys.readouterr().out
        main(["optimize", "--config", path, "--quiet"])
        again = capsys.readouterr().out
        assert base == again
        assert base != reseeded

    def test_env_seed_override(self, cfg_file, capsys, monkeypatch):
        path = cfg_file(OPTIMIZE_CFG)
        main(["optimize", "--config", path, "--quiet"])
        base = capsys.readouterr().out
        monkeypatch.setenv("CONTINUIZED_SEED", "31337")
        main(["optimize", "--config", path, "--quiet"])
        enved = capsys.readouterr().out
        assert base != enved
        # explicit flag wins over the environment
        monkeypatch.setenv("CONTINUIZED_SEED", "31337")
        main(["optimize", "--config", path, "--quiet", "--seed", "5"])
        flagged = capsys.readouterr().out
        assert flagged == base

    def test_bad_env_seed(self, cfg_file, capsys, monkeypatch):
        path = cfg_file(OPTIMIZE_CFG)
        monkeypatch.setenv("CONTINUIZED_SEED", "not-a-number")
        assert main(["optimize", "--config", path, "--quiet"]) == 1
        assert "error: CONTINUIZED_SEED=not-a-number" in capsys.readouterr().err

    def test_tiny_geometric_p_still_runs(self, cfg_file, tmp_path):
        # p = 1e-300 lies above the bound (about 2e-307): its longest wait is
        # finite, so the config parses and the 2-run ensemble finishes
        out = tmp_path / "tiny_p.csv"
        path = cfg_file(QUADRATIC_2D + "[algo]\nclock = geometric\np = 1e-300\ntick = 0.01\n")
        assert main(["optimize", "--config", path, "--out", str(out), "--quiet"]) == 0
        grid, series = load_csv(str(out))
        assert grid.shape == (50,)
        assert np.all(np.isfinite(series["gap"]["mean"]))

    def test_runs_override(self, cfg_file, capsys):
        path = cfg_file(OPTIMIZE_CFG)
        assert main(["optimize", "--config", path, "--quiet", "--runs", "2"]) == 0
        capsys.readouterr()
