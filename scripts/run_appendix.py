#!/usr/bin/env python3
"""Run every scenario of the bundled appendix configuration and print a
summary table. Equivalent to `shintani-forge verify --config <bundled>`.

Usage: python scripts/run_appendix.py [outdir]
"""

import sys
from pathlib import Path

# run from a checkout without an install: import the package from src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shintani_forge.cli import bundled_config_path
from shintani_forge.scenario import Runtime, exit_code, load_config, run_scenario, write_report


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    config = load_config(bundled_config_path())
    rt = Runtime(config)
    outcomes = []
    for sc in config.scenarios:
        report = run_scenario(rt, sc["id"], outdir)
        write_report(report, outdir)
        outcomes.append(report["outcome"])
        print(f"{sc['id']:<20} {report['outcome']}")
    return exit_code(outcomes)


if __name__ == "__main__":
    raise SystemExit(main())
