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

from ..gossip import gossip_rates
from ..graphs import TOPOLOGIES, GraphError
from .config import RUN_KINDS, ConfigError, ExperimentSpec, override_fields, parse_config
from .config import spec_from_sections
from .csvio import emit_csv, render_csv
from .presets import preset_names
from .runner import run_experiment

SEED_ENV_VAR = "CONTINUIZED_SEED"
# graph-info's flags, read as the [graph] keys of the same name: the
# topology and the size fields of the sized topologies
GRAPH_KEYS = ("topology", *dict.fromkeys(
    key for _, keys, least in TOPOLOGIES.values() if least for key in keys))


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

    for kind in RUN_KINDS:
        add_common(sub.add_parser(kind, description=f"run a {kind} experiment"), True)

    info = sub.add_parser("graph-info", description="print graph spectral quantities")
    for key in ("config", *GRAPH_KEYS):  # text, checked in _graph_info
        info.add_argument(f"--{key}")

    rep = sub.add_parser("reproduce", description="run a named figure preset")
    rep.add_argument("preset", help="one of: " + ", ".join(preset_names()))
    add_common(rep, False)
    return parser


def _run_spec(spec: ExperimentSpec, quiet: bool) -> None:
    progress = None
    if not quiet:  # run_experiment reports after each tenth of the runs and the last
        def progress(done, total):
            print(f"  run {done}/{total}", file=sys.stderr)
    runset = run_experiment(spec, progress=progress)
    if spec.out:
        emit_csv(runset, spec.out)
        if not quiet:
            print(f"wrote {spec.out}")
    else:
        sys.stdout.write(render_csv(runset))


def _graph_info(args) -> None:
    flags = {k: v for k in GRAPH_KEYS if (v := getattr(args, k)) is not None}
    if (args.config is not None) == bool(flags):
        raise ConfigError(["graph-info takes either --config or the topology flags"])
    sections = {"experiment": {"kind": "graph-info"}, "graph": flags}
    graph = spec_from_sections(sections).graph if flags else parse_config(args.config).graph
    if graph is None:
        raise ConfigError(["config has no [graph] section"])

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
    try:
        if args.command == "reproduce":
            spec = spec_from_sections({"experiment": {"preset": args.preset}})
        else:
            spec = parse_config(args.config)
            if spec.kind != args.command:
                errors.append(f"config kind is {spec.kind!r}, subcommand is {args.command!r}")
    except ConfigError as exc:
        errors += exc.violations
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
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
