"""Command-line interface.

Subcommands: ``optimize``, ``gossip``, ``decentralized`` (run a config file),
``graph-info`` (print spectral quantities), and ``reproduce <preset>``.
Exit codes: 0 success, 1 validation/usage error, 2 runtime error, 141 when
the reader of stdout has closed it.
The environment variable CONTINUIZED_SEED overrides the config seed; the
``--seed`` flag overrides both.  Flags, variable and config are checked
together, by the config's one rule per field, and every violation is listed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from ..graphs import GraphError, build_graph, gossip_rates
from .config import ConfigError, ExperimentSpec, override_fields, parse_config
from .csvio import emit_csv, render_csv
from .presets import get_preset, preset_names
from .runner import run_experiment

SEED_ENV_VAR = "CONTINUIZED_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="continuized", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, config_required):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        for flag in ("--seed", "--runs", "--horizon"):  # text, checked in _load_spec
            p.add_argument(flag)
        p.add_argument("--out", help="CSV output path")
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
    """The preset or config of a run subcommand with its flags and, without
    ``--seed``, CONTINUIZED_SEED applied; one ConfigError lists every
    violation of the command line, before anything runs."""
    errors: list[str] = []
    if args.command == "reproduce":
        try:
            spec = get_preset(args.preset)
        except KeyError:
            names = ", ".join(preset_names())
            errors.append(f"unknown preset {args.preset!r}; choose from {names}")
    else:
        try:
            spec = parse_config(args.config)
        except ConfigError as exc:
            errors += exc.violations
        else:
            if spec.kind != args.command:
                errors.append(f"config kind is {spec.kind!r}, subcommand is {args.command!r}")
    flags = {key: getattr(args, key) for key in ("seed", "runs", "horizon", "out")}
    given = {k: (f"argument --{k} {text}", text) for k, text in flags.items() if text is not None}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" not in given and env_seed is not None:
        given["seed"] = (f"{SEED_ENV_VAR}={env_seed}", env_seed)
    fields = override_fields(given, errors)
    if errors:
        raise ConfigError(errors)
    return replace(spec, **fields)


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
            _run_spec(_load_spec(args), args.quiet)
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
        for v in getattr(exc, "violations", [str(exc)]):
            print(f"error: {v}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
