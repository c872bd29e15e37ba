#!/usr/bin/env python3
"""Compare the output of a bundled `verify` in two checkouts.

Runs `python -m shintani_forge.cli verify` on each checkout's `src/`, each
into its own temporary directory, and prints every file that the second run
added, removed or changed against the first, then one verdict per config.
With no `--config` it compares the bundled config and, when the second
checkout has it, `tests/second_field.json`; `--config` compares that one
config alone.

Usage, from anywhere:

    python3 scripts/compare_verify.py PARENT_DIR CHANGE_DIR [--config CONFIG]

An older checkout may lack the second-field config; both runs read the
second checkout's copy.

Exit status: 0 when the outputs of every config are byte-identical, 1 when
some differ and 2 when a run fails (exits nonzero).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def verify(checkout: Path, out: Path, config: Path | None) -> dict | None:
    """relative path -> bytes of every file a verify of `config`, by
    default the checkout's bundled one, writes, or None when the run fails."""
    src = checkout.resolve() / "src"
    config = config or src / "shintani_forge" / "data" / "appendix.json"
    cmd = [sys.executable, "-m", "shintani_forge.cli", "verify"]
    cmd += ["--config", str(config), "--out", str(out)]
    proc = subprocess.run(
        cmd, cwd=out.parent, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True
    )
    if proc.returncode != 0:
        print(f"{checkout}: verify exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr.decode()[-2000:])
        return None
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def compare(parent_dir: Path, change_dir: Path, config: Path | None, label: str) -> int:
    """Print the differences of one config's outputs and its verdict; the
    exit status of that config."""
    outputs = []
    for checkout in (parent_dir, change_dir):
        with tempfile.TemporaryDirectory() as tmp:
            outputs.append(verify(checkout, Path(tmp) / "out", config))
    parent, change = outputs
    if parent is None or change is None:
        print(f"{label}: a run failed")
        return 2
    diffs = [f"added {name}" for name in sorted(change.keys() - parent.keys())]
    diffs += [f"removed {name}" for name in sorted(parent.keys() - change.keys())]
    diffs += [
        f"changed {name}"
        for name in sorted(parent.keys() & change.keys())
        if parent[name] != change[name]
    ]
    for line in diffs:
        print(f"{label}: {line}")
    if diffs:
        print(f"{label}: {len(diffs)} of {len(parent.keys() | change.keys())} files differ")
        return 1
    print(f"{label}: {len(parent)} files identical")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Compare a verify in two checkouts.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--config", type=Path, help="one config for both runs")
    args = ap.parse_args()
    if args.config:
        configs = [(args.config.resolve(), str(args.config))]
    else:
        configs = [(None, "bundled")]
        second = args.change.resolve() / "tests" / "second_field.json"
        if second.exists():
            configs.append((second, "tests/second_field.json"))
    return max(compare(args.parent, args.change, config, label) for config, label in configs)


if __name__ == "__main__":
    raise SystemExit(main())
