#!/usr/bin/env python3
"""Write reference.json: the sha256 of every report and artifact each
workload produces, with the tiling reports at the bundled config's seed and
cover-sweep over all 49 targets it can draw. The figure outputs must equal
tests/golden before anything is written.

Run from the root of a checkout, only when a change is meant to alter the
outputs:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import product

import workloads


def capture() -> dict:
    sys.path.insert(0, str(workloads.REPO / "src"))
    from shintani_forge import scenario

    seed = workloads.default_seed()
    cases = [workloads.build(name, seed, reference={}) for name in ("tiling", "set-algebra", "plane")]
    pairs = list(product(workloads.COVER_RANGE, workloads.COVER_RANGE))
    cases.append(
        workloads.Workload(
            "cover-sweep",
            seed,
            workloads.cover_config(pairs),
            [workloads.cover_id(a, b) for a, b in pairs],
        )
    )
    reference = {}
    for wl in cases:
        outdir = workloads.REPO / ".bench_out" / "reference" / wl.name
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        config_path = outdir.with_suffix(".config.json")
        config_path.write_text(json.dumps(wl.config, indent=2) + "\n", encoding="utf-8")
        rt = scenario.Runtime(scenario.load_config(config_path))
        for sid in wl.scenario_ids:
            scenario.write_report(scenario.run_scenario(rt, sid, outdir, seed=wl.run_seed), outdir)
            problems = wl.check(outdir, sid)
            if problems:
                raise SystemExit(f"{wl.name}/{sid}: {'; '.join(problems)}")
        digests = {p.name: workloads.sha256(p.read_bytes()) for p in sorted(outdir.iterdir())}
        entry = {"reports": {k: v for k, v in digests.items() if k.endswith(".report.json")}}
        artifacts = {k: v for k, v in digests.items() if k not in entry["reports"]}
        if artifacts:
            entry["artifacts"] = artifacts
        if wl.name == "tiling":
            entry["seed"] = seed
        reference[wl.name] = entry
    golden = workloads.GOLDEN / "figures.report.json"
    if workloads.sha256(golden.read_bytes()) != reference["plane"]["reports"]["figures.report.json"]:
        raise SystemExit("figures report differs from tests/golden")
    return reference


def main() -> int:
    reference = capture()
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE.relative_to(workloads.REPO)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
