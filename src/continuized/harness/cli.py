"""Command-line interface.

Subcommands: ``optimize``, ``gossip``, ``decentralized`` (run a config file),
``graph-info`` (print spectral quantities), and ``reproduce <preset>``.
Exit codes: 0 success, 1 validation/usage error, 2 runtime error, 141 when
the reader of stdout has closed it.
The environment variable CONTINUIZED_SEED overrides the config seed; the
``--seed`` flag overrides both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ..graphs import GraphError, build_graph, gossip_rates
from .config import ConfigError, ExperimentSpec, parse_config
from .csvio import emit_csv, render_csv
from .presets import get_preset, preset_names
from .runner import run_experiment

SEED_ENV_VAR = "CONTINUIZED_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _log_horizon(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 1 < value < math.inf:
        # the overridden horizon brings the log-spaced grid on [1, horizon]
        raise argparse.ArgumentTypeError(f"must be a finite number > 1, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="continuized", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, config_required):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=_positive_int, default=None)
        p.add_argument("--horizon", type=_log_horizon, default=None)
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--quiet", action="store_true")

    for kind in ("optimize", "gossip", "decentralized"):
        add_common(sub.add_parser(kind, description=f"run a {kind} experiment"), True)

    info = sub.add_parser("graph-info", description="print graph spectral quantities")
    info.add_argument("--config", default=None)
    info.add_argument("--topology", default=None,
                      choices=["line", "cycle", "grid", "complete"])
    info.add_argument("--nodes", type=int, default=None)
    info.add_argument("--rows", type=int, default=None)
    info.add_argument("--cols", type=int, default=None)
    info.add_argument("--quiet", action="store_true")

    rep = sub.add_parser("reproduce", description="run a named figure preset")
    rep.add_argument("preset", help="one of: " + ", ".join(preset_names()))
    add_common(rep, False)
    return parser


def _resolve_seed(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError([f"{SEED_ENV_VAR} must be an integer, got {env!r}"]) from exc
    return None


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    seed = _resolve_seed(args.seed)
    try:
        return spec.with_overrides(seed=seed, runs=args.runs, out=args.out, horizon=args.horizon)
    except ValueError as exc:  # a horizon whose default grid repeats a time
        raise ConfigError([f"--horizon {args.horizon!r}: {exc}"]) from None


def _check_out(out: str | None) -> None:
    """Fail before the ensemble runs if ``out`` cannot be written as a file."""
    if not out:  # no out writes to stdout
        return
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ConfigError([f"out {out}: directory {parent} does not exist"])
    if os.path.isdir(out):
        raise ConfigError([f"out {out} is a directory"])


def _run_spec(spec: ExperimentSpec, quiet: bool) -> None:
    progress = None
    if not quiet:
        def progress(done, total):
            if done % max(total // 10, 1) == 0 or done == total:
                print(f"  run {done}/{total}", file=sys.stderr)
    runset = run_experiment(spec, progress=progress)
    if spec.out:
        emit_csv(runset, spec.out)
        if not quiet:
            print(f"wrote {spec.out}")
    else:
        sys.stdout.write(render_csv(runset))


def _graph_info(args) -> None:
    if args.config:
        spec = parse_config(args.config)
        if spec.graph is None:
            raise ConfigError(["config has no [graph] section"])
        graph = spec.graph
    elif args.topology:
        fields = {"nodes": args.nodes, "rows": args.rows, "cols": args.cols}
        graph = build_graph(args.topology, **{k: v for k, v in fields.items() if v is not None})
    else:
        raise ConfigError(["graph-info needs --config or --topology"])

    cache = graph.spectrum
    theta_rg, theta_arg = gossip_rates(cache)
    p_min = float(graph.edge_probs.min())
    print(f"nodes          {graph.node_count}")
    print(f"edges          {graph.edge_count}")
    print(f"mu_gossip      {cache.mu_gossip:.12g}")
    print(f"r_max          {cache.r_max:.12g}")
    print(f"theta_rg       {theta_rg:.12g}")
    print(f"theta_arg      {theta_arg:.12g}")
    print(f"rate_ratio     {theta_arg / theta_rg:.12g}")
    print(f"p_min          {p_min:.12g}")
    print(f"cor1_lower     {math.sqrt(theta_rg * p_min / 2.0):.12g}")


def _load_spec(args) -> ExperimentSpec:
    if args.command == "reproduce":
        try:
            return get_preset(args.preset)
        except KeyError:
            raise ConfigError(
                [f"unknown preset {args.preset!r}; choose from " + ", ".join(preset_names())]
            ) from None
    spec = parse_config(args.config)
    if spec.kind != args.command:
        raise ConfigError([f"config kind is {spec.kind!r}, subcommand is {args.command!r}"])
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.command == "graph-info":
            _graph_info(args)
        else:
            spec = _apply_overrides(_load_spec(args), args)
            _check_out(spec.out)
            _run_spec(spec, args.quiet)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # The reader went away: stop quietly with the status a shell reports
        # for SIGPIPE (128 + 13), and let the exit-time flush write nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigError, GraphError) as exc:
        violations = getattr(exc, "violations", [str(exc)])
        for v in violations:
            print(f"error: {v}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
