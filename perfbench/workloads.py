"""The benchmark's workloads: the config each one generates from its seed,
the scenarios of one pass, and the check that every output of a pass is
correct.

Stdlib only, so that it imports without the program on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUNDLED = REPO / "src" / "shintani_forge" / "data" / "appendix.json"
GOLDEN = REPO / "tests" / "golden"
REFERENCE = Path(__file__).resolve().with_name("reference.json")

SET_ALGEBRA = (
    "counterexample",
    "case-pi1",
    "case-pi2",
    "cover-pi1",
    "inclusion-pi2",
    "identities-case1",
    "identities-case2",
)
PLANE = ("construction", "direction", "figures")
COVER_RANGE = range(-3, 4)
COVER_SCENARIOS = 20

NAMES = ("tiling", "set-algebra", "plane", "cover-sweep")


def bundled() -> dict:
    return json.loads(BUNDLED.read_text(encoding="utf-8"))


def default_seed() -> int:
    """The bundled config's seed; at it the tiling reports are pinned."""
    return int(bundled()["seed"])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cover_id(a: int, b: int) -> str:
    return f"cover_{a}_{b}"


def _target_name(a: int, b: int) -> str:
    return f"x_{'m' if a < 0 else 'p'}{abs(a)}_{'m' if b < 0 else 'p'}{abs(b)}"


def cover_config(pairs) -> dict:
    """The bundled field with one `cover` scenario on domain B for each
    target x = pi1*g1^a*g2^b."""
    cfg = bundled()
    for a, b in pairs:
        cfg["elements"][_target_name(a, b)] = f"pi1*g1^{a}*g2^{b}"
    cfg["scenarios"] = [
        {
            "id": cover_id(a, b),
            "kind": "cover",
            "params": {"domain": "B", "eps1": "eps1", "eps2": "eps2", "x": _target_name(a, b)},
        }
        for a, b in pairs
    ]
    return cfg


@dataclass
class Workload:
    """One workload at one seed.

    `run_seed` is passed as `seed=` to `run_scenario` (None keeps the
    config's seed). `reports` and `artifacts` map file names to the sha256
    the outputs must have; a report missing from `reports` is checked by
    its content only.
    """

    name: str
    seed: int
    config: dict
    scenario_ids: list
    run_seed: int | None = None
    reports: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    golden: bool = False

    def check(self, outdir: Path, sid: str) -> list[str]:
        """Problems with the outputs one scenario left in `outdir`."""
        path = Path(outdir) / f"{sid}.report.json"
        try:
            data = path.read_bytes()
            report = json.loads(data)
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {type(exc).__name__}: {exc}"]
        if not isinstance(report, dict):
            return ["report is not a JSON object"]
        problems = []
        if report.get("outcome") != "PASS":
            problems.append(f"outcome {report.get('outcome')}")
        want = self.reports.get(path.name)
        if want is not None and sha256(data) != want:
            problems.append(f"{path.name} differs from the reference digest")
        if report.get("kind") == "fdcheck":
            problems += _fdcheck_problems(report, self.config, sid)
        for name in report.get("artifacts", []):
            problems += self._artifact_problems(Path(outdir), name)
        return problems

    def _artifact_problems(self, outdir: Path, name: str) -> list[str]:
        try:
            data = (outdir / name).read_bytes()
        except OSError as exc:
            return [f"artifact {name} unreadable: {exc}"]
        problems = []
        want = self.artifacts.get(name)
        if want is not None and sha256(data) != want:
            problems.append(f"artifact {name} differs from the reference digest")
        if self.golden and data != (GOLDEN / name).read_bytes():
            problems.append(f"artifact {name} differs from tests/golden")
        return problems


def _fdcheck_problems(report: dict, config: dict, sid: str) -> list[str]:
    ev = {e.get("name"): e for e in report.get("evidence", [])}
    params = next(s["params"] for s in config["scenarios"] if s["id"] == sid)
    problems = []
    if not ev.get("passed", {}).get("ok"):
        problems.append("fdcheck not passed")
    if ev.get("samples", {}).get("value") != params["samples"]:
        problems.append("fdcheck sample count differs from the config")
    if ev.get("bad_samples", {}).get("value") != []:
        problems.append("fdcheck has bad samples")
    if ev.get("boundary_hits", {}).get("value") != 0:
        problems.append("fdcheck has boundary hits")
    return problems


def build(name: str, seed: int, reference: dict | None = None) -> Workload:
    """The workload `name` at `seed`, checked against `reference` (the
    committed reference digests by default)."""
    if reference is None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = reference.get(name, {})
    rng = random.Random(seed)
    if name == "tiling":
        cfg = bundled()
        cfg["scenarios"] = [s for s in cfg["scenarios"] if s["kind"] == "fdcheck"]
        wl = Workload(name, seed, cfg, [s["id"] for s in cfg["scenarios"]], run_seed=seed)
        # fdcheck samples depend on the seed; its reports are pinned only
        # at the seed the references were captured at
        if ref.get("seed") == seed:
            wl.reports = dict(ref.get("reports", {}))
        return wl
    if name in ("set-algebra", "plane"):
        ids = list(SET_ALGEBRA if name == "set-algebra" else PLANE)
        rng.shuffle(ids)
        cfg = bundled()
        cfg["scenarios"] = [s for s in cfg["scenarios"] if s["id"] in ids]
        return Workload(
            name,
            seed,
            cfg,
            ids,
            reports=dict(ref.get("reports", {})),
            artifacts=dict(ref.get("artifacts", {})),
            golden=name == "plane",
        )
    if name == "cover-sweep":
        pairs = rng.sample(list(product(COVER_RANGE, COVER_RANGE)), COVER_SCENARIOS)
        cfg = cover_config(pairs)
        return Workload(
            name,
            seed,
            cfg,
            [s["id"] for s in cfg["scenarios"]],
            reports=dict(ref.get("reports", {})),
        )
    raise ValueError(f"unknown workload {name!r}")
