"""Command line interface.

Subcommands select scenario kinds from a JSON config; `verify` runs
everything. Report and artifact paths go to stdout, diagnostics to stderr.
Exit codes: 0 all PASS, 1 any FAIL, 2 any ERROR, 3 any INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .embedding import SignConfig
from .scenario import Runtime, exit_code, load_config, run_scenario, write_report

_KIND_FOR_COMMAND = {
    "verify": None,
    "construct": "construction",
    "classify": "case",
    "identities": "identities",
    "fdcheck": "fdcheck",
    "render": "figures",
    "cover": ("cover", "inclusion"),
}


def bundled_config_path() -> Path:
    """Path of the packaged appendix configuration."""
    return Path(resources.files("shintani_forge").joinpath("data/appendix.json"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shintani-forge",
        description="Exact Shintani cone computations over totally real cubic fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in _KIND_FOR_COMMAND:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="JSON scenario configuration")
        p.add_argument("--scenario", default=None, help="run only this scenario id")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--bits", type=int, default=None, help="override start precision bits")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except Exception as exc:  # config errors are ERROR outcomes by contract
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.bits is not None:
        try:
            config.sign_config = SignConfig(
                start_bits=args.bits,
                max_bits=max(config.sign_config.max_bits, args.bits),
                escalation_factor=config.sign_config.escalation_factor,
            )
        except ValueError as exc:
            print(f"invalid --bits: {exc}", file=sys.stderr)
            return 2
    rt = Runtime(config)
    kind = _KIND_FOR_COMMAND[args.command]
    selected = []
    for sc in config.scenarios:
        if args.scenario is not None and sc["id"] != args.scenario:
            continue
        if kind is not None:
            kinds = kind if isinstance(kind, tuple) else (kind,)
            if sc["kind"] not in kinds:
                continue
        selected.append(sc["id"])
    if args.scenario is not None and not selected:
        print(f"no scenario {args.scenario!r} for command {args.command}", file=sys.stderr)
        return 2
    if not selected:
        print("no matching scenarios", file=sys.stderr)
        return 2
    outcomes = []
    for sid in selected:
        report = run_scenario(rt, sid, args.out, seed=args.seed)
        path = write_report(report, args.out)
        outcomes.append(report["outcome"])
        print(path)
        for a in report["artifacts"]:
            print(Path(args.out) / a)
        print(f"{sid}: {report['outcome']}", file=sys.stderr)
    return exit_code(outcomes)


if __name__ == "__main__":
    raise SystemExit(main())
