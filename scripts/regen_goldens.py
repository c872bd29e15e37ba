#!/usr/bin/env python3
"""Regenerate the figure golden files from the bundled appendix config.

Run from the repository root:  python scripts/regen_goldens.py
"""

import shutil
import sys
from pathlib import Path

# run from a checkout without an install: import the package from src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shintani_forge.cli import bundled_config_path
from shintani_forge.scenario import Runtime, load_config, run_scenario, write_report


def main() -> int:
    golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    tmp = golden / "_work"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    config = load_config(bundled_config_path())
    rt = Runtime(config)
    report = run_scenario(rt, "figures", tmp)
    if report["outcome"] != "PASS":
        print(f"figures scenario did not pass: {report}", file=sys.stderr)
        return 1
    write_report(report, tmp)
    for f in sorted(tmp.iterdir()):
        shutil.copy2(f, golden / f.name)
    shutil.rmtree(tmp)
    for f in sorted(golden.iterdir()):
        print(f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
