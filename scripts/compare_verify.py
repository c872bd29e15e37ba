#!/usr/bin/env python3
"""Compare the output of a bundled `verify` in two checkouts.

Runs `python -m shintani_forge.cli verify` on each checkout's `src/` with
its bundled config, each into its own temporary directory, and prints every
file that the second run added, removed or changed against the first.

Usage, from anywhere:

    python3 scripts/compare_verify.py PARENT_DIR CHANGE_DIR

Exit status: 0 when the outputs are byte-identical, 1 when they differ and
2 when a run fails (exits nonzero).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path


def verify(checkout: Path, out: Path) -> dict | None:
    """relative path -> bytes of every file a bundled verify writes, or
    None when the run fails."""
    src = checkout.resolve() / "src"
    config = src / "shintani_forge" / "data" / "appendix.json"
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


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: compare_verify.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    outputs = []
    for checkout in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            outputs.append(verify(Path(checkout), Path(tmp) / "out"))
    parent, change = outputs
    if parent is None or change is None:
        return 2
    diffs = [f"added {name}" for name in sorted(change.keys() - parent.keys())]
    diffs += [f"removed {name}" for name in sorted(parent.keys() - change.keys())]
    diffs += [
        f"changed {name}"
        for name in sorted(parent.keys() & change.keys())
        if parent[name] != change[name]
    ]
    for line in diffs:
        print(line)
    if diffs:
        return 1
    print(f"{len(parent)} files identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
