"""Command-line entry point: run, sweep, topology-check, mosca.

Exit codes: 0 success, 1 configuration error, 2 protocol abort,
3 reconciliation/verification failure, 4 authentication pool exhausted.
The default output directory can be set with QKDKIT_OUT_DIR.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .apps import MoscaParams, RiskStatus, mosca_check
from .network import TopologyError, parse_topology, preshared_pairs_count
from .scenario import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    SWEEPABLE_PARAMETERS,
    ConfigError,
    load_scenario,
    run_scenario,
    sweep,
    write_sweep_csv,
)


def _default_out_dir() -> str:
    return os.environ.get("QKDKIT_OUT_DIR", "out")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out-dir", default=None, help=f"output directory (default: {_default_out_dir()!r} or $QKDKIT_OUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkdkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its reports")
    _add_common(run_p)
    run_p.add_argument("--transcripts", action="store_true", help="also dump per-round transcripts")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep, one row per grid point")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help=f"one of {SWEEPABLE_PARAMETERS}")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated grid, e.g. 0.5,0.7,0.9 (may be empty)"
    )

    topo_p = sub.add_parser("topology-check", help="validate a topology file and summarize it")
    topo_p.add_argument("--topology", required=True, help="topology file path")

    mosca_p = sub.add_parser("mosca", help="migration-urgency check")
    mosca_p.add_argument("--shelf-life", type=float, required=True, help="years the data must stay secure")
    mosca_p.add_argument("--migration", type=float, required=True, help="years the migration will take")
    mosca_p.add_argument(
        "--quantum-arrival", type=float, required=True, help="years until practical quantum attacks"
    )
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, master_seed=args.seed)
    out_dir = Path(args.out_dir or _default_out_dir())
    result = run_scenario(
        scenario,
        out_dir=out_dir,
        config_dir=Path(args.config).resolve().parent,
        write_transcripts=args.transcripts,
    )
    print(f"status: {result.status}" + (f" ({result.reason})" if result.reason else ""))
    print(f"reports written to {out_dir}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, master_seed=args.seed)
    values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    rows = sweep(scenario, args.param, values)
    out_dir = Path(args.out_dir or _default_out_dir())
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep_{args.param}.csv"
    write_sweep_csv(rows, csv_path)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_topology_check(args) -> int:
    try:
        text = Path(args.topology).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.topology}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    topo = parse_topology(text)
    n = len(topo.nodes)
    print(f"nodes: {n}")
    for name, role in sorted(topo.nodes.items()):
        print(f"  {name}: {role.value}")
    print(f"qkd links: {len(topo.qkd_links)}")
    for (a, b), budget in sorted(topo.qkd_links.items()):
        print(f"  {a}-{b}: {budget} bits")
    print(f"pqc links: {len(topo.pqc_links)}")
    for a, b in sorted(topo.pqc_links):
        print(f"  {a}-{b}")
    print(f"preshared pairs needed for pairwise keys: {preshared_pairs_count(n) if n else 0}")
    return EXIT_OK


def _cmd_mosca(args) -> int:
    verdict = mosca_check(
        MoscaParams(
            shelf_life=args.shelf_life,
            migration=args.migration,
            quantum_arrival=args.quantum_arrival,
        )
    )
    label = "AT RISK" if verdict.status is RiskStatus.AT_RISK else "safe"
    print(f"verdict: {label} (slack {verdict.slack:+.2f} years)")
    if verdict.status is RiskStatus.AT_RISK:
        print("shelf life plus migration time exceeds the time to practical quantum attacks")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "topology-check": _cmd_topology_check,
        "mosca": _cmd_mosca,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
