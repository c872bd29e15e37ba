"""Configuration ingestion, the element-expression parser, scenario
orchestration and machine-readable verification reports.

Configs are JSON (schema 1); exact rationals travel as strings. Reports are
deterministic for a fixed config and seed: no timestamps, canonical key
order, seeded sampling only.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import units as unit_ops
from .cones import Geometry, ShintaniSet
from .embedding import RealEmbeddings, SignConfig
from .errors import (
    Inconclusive,
    ParseError,
    ShintaniError,
    UnknownName,
    UnknownScenario,
)
from .field import FieldElement, FieldSpec
from .figures import Scene, materialize_scene, render_svg_csv
from .plane import check_direction_bounds, curve_sample

SCHEMA_VERSION = 1

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])")


def _tokenize(expr: str):
    pos = 0
    out = []
    while pos < len(expr):
        if expr[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            raise ParseError(f"unexpected character {expr[pos]!r}", pos)
        if m.lastgroup == "num":
            out.append(("num", int(m.group("num")), pos))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", None, len(expr)))
    return out


class _Parser:
    """Recursive descent for: rationals, names, + - * /, ^ with integer
    exponents (tightest), parentheses, unary minus, left-assoc products."""

    def __init__(self, tokens, env, spec: FieldSpec):
        self.tokens = tokens
        self.i = 0
        self.env = env
        self.spec = spec

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> FieldElement:
        v = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return v

    def expr(self) -> FieldElement:
        v = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self) -> FieldElement:
        v = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                v = v * rhs if val == "*" else v * rhs.inverse()
            else:
                return v

    def unary(self) -> FieldElement:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> FieldElement:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return base ** self.int_exponent()
        return base

    def int_exponent(self) -> int:
        kind, val, pos = self.take()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("exponent must be an integer", pos)
        return -val if neg else val

    def atom(self) -> FieldElement:
        kind, val, pos = self.take()
        if kind == "num":
            return self.spec.element(val)
        if kind == "name":
            if val not in self.env:
                raise UnknownName(f"unknown name {val!r}")
            return self.env[val]
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise ParseError("expected a value", pos)


def parse_element(expr: str, env: dict, spec: FieldSpec) -> FieldElement:
    """Evaluate an element expression against named elements (plus `y`)."""
    scope = {"y": spec.y}
    scope.update(env)
    return _Parser(_tokenize(expr), scope, spec).parse()


def serialize_element(x: FieldElement) -> list[str]:
    return [str(c) for c in x.coords]


@dataclass
class ScenarioConfig:
    spec: FieldSpec
    embedding_order: tuple
    elements: dict
    units: list
    totally_positive: list
    sign_config: SignConfig
    window: int
    seed: int
    scenarios: list

    def scenario(self, sid: str) -> dict:
        for s in self.scenarios:
            if s["id"] == sid:
                return s
        raise UnknownScenario(f"no scenario with id {sid!r}")


def load_config(path) -> ScenarioConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if raw.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {raw.get('schema')!r}")
    spec = FieldSpec([Fraction(c) for c in raw["field"]["poly_coeffs"]])
    order = tuple(raw.get("embedding_order", (0, 1, 2)))
    elements: dict[str, FieldElement] = {}
    for name, expr in raw.get("elements", {}).items():
        elements[name] = parse_element(expr, elements, spec)
    prec = raw.get("precision", {})
    max_bits = int(os.environ.get("SHINTANI_MAX_BITS", prec.get("max_bits", 4096)))
    cfg = SignConfig(
        start_bits=prec.get("start_bits", 64),
        max_bits=max_bits,
        escalation_factor=prec.get("escalation_factor", 2),
    )
    config = ScenarioConfig(
        spec=spec,
        embedding_order=order,
        elements=elements,
        units=list(raw.get("units", [])),
        totally_positive=list(raw.get("totally_positive", [])),
        sign_config=cfg,
        window=int(raw.get("window", 8)),
        seed=int(raw.get("seed", 0)),
        scenarios=list(raw.get("scenarios", [])),
    )
    _validate(config)
    return config


def _validate(config: ScenarioConfig):
    emb = RealEmbeddings(config.spec, config.embedding_order)
    for name in config.units:
        if name not in config.elements:
            raise UnknownName(f"declared unit {name!r} not defined")
        if abs(config.elements[name].norm()) != 1:
            raise ValueError(f"declared unit {name!r} has |norm| != 1")
    for name in config.totally_positive:
        if name not in config.elements:
            raise UnknownName(f"declared element {name!r} not defined")
        if not emb.is_totally_positive(config.elements[name], config.sign_config):
            raise ValueError(f"{name!r} is not totally positive")
    seen = set()
    for sc in config.scenarios:
        if not isinstance(sc, dict) or not all(isinstance(sc.get(k), str) for k in ("id", "kind")):
            raise ValueError(f"each scenario needs a string id and kind: {sc!r}")
        if sc["id"] in seen:
            raise ValueError(f"duplicate scenario id {sc['id']!r}")
        seen.add(sc["id"])


class Runtime:
    """Embeddings + geometry engine bound to one loaded configuration."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.emb = RealEmbeddings(config.spec, config.embedding_order)
        self.geo = Geometry(self.emb, config.sign_config)

    def el(self, name: str) -> FieldElement:
        if name not in self.config.elements:
            raise UnknownName(f"unknown element {name!r}")
        return self.config.elements[name]

    def domain(self, params: dict) -> tuple[ShintaniSet, FieldElement, FieldElement]:
        """Build the domain a scenario refers to, returning (set, u1, u2)
        where (u1, u2) generate the acting group."""
        kind = params["domain"]
        if kind == "colmez":
            u1, u2 = self.el(params["u1"]), self.el(params["u2"])
            return self.geo.colmez_domain(u1, u2), u1, u2
        if kind == "B":
            e1, e2 = self.el(params["eps1"]), self.el(params["eps2"])
            return self.geo.explicit_B(e1, e2), e1, e2
        if kind in ("B1", "B2"):
            e1, e2 = self.el(params["eps1"]), self.el(params["eps2"])
            pihat = self.normalized_pi(params)
            if kind == "B1":
                return self.geo.explicit_B1(e2, pihat), e2, pihat
            return self.geo.explicit_B2(e1, pihat), e1, pihat
        raise ValueError(f"unknown domain kind {kind!r}")

    def normalized_pi(self, params: dict) -> FieldElement:
        """The scenario's pi, normalized by the unit search when requested."""
        pi = self.el(params["pi"])
        if not params.get("normalize", False):
            return pi
        e1, e2 = self.el(params["eps1"]), self.el(params["eps2"])
        basis = (
            (self.el(params["g1"]), self.el(params["g2"]))
            if "g1" in params
            else None
        )
        _, omega = unit_ops.triangle_search(
            e1,
            e2,
            pi,
            int(params.get("l", 1)),
            self.emb,
            unit_basis=basis,
            q_max=float(params.get("q_max", 64)),
            cfg=self.config.sign_config,
        )
        return omega * pi


# -- scenario runners ----------------------------------------------------------
# Each runner returns (evidence, artifacts); run_scenario derives the verdict.


def _box_evidence(box) -> list:
    return [
        {"name": "alpha", "value": list(box.alpha)},
        {"name": "anchor", "value": list(box.anchor)},
        {"name": "support", "value": [list(k) for k in box.support]},
    ]


def _run_counterexample(rt: Runtime, params: dict, outdir, seed):
    u1, u2 = rt.el(params["u1"]), rt.el(params["u2"])
    pi = rt.el(params["pi"])
    window = int(params.get("window", rt.config.window))
    d = rt.geo.colmez_domain(u1, u2)
    support = rt.geo.error_support(d, pi, u1, u2, window=window)
    required = params.get("required_pairs", [])
    outside = [k for k in support if not (k[0] in (0, 1) and k[1] in (0, 1))]
    evidence = [
        {"name": "support", "value": [list(k) for k in support]},
        {"name": "required_pairs_present", "ok": all(tuple(p) in support for p in required)},
        {"name": "outside_unit_box", "ok": bool(outside), "value": [list(k) for k in outside]},
    ]
    return evidence, []


def _run_construction(rt: Runtime, params: dict, outdir, seed):
    g1, g2 = rt.el(params["g1"]), rt.el(params["g2"])
    pi = rt.el(params["pi"])
    eps_pair = None
    if "eps1" in params:
        eps_pair = (rt.el(params["eps1"]), rt.el(params["eps2"]))
    res = unit_ops.build_construction(
        g1,
        g2,
        pi,
        rt.emb,
        cfg=rt.config.sign_config,
        l_max=int(params.get("l_max", 8)),
        q_max=float(params.get("q_max", 64)),
        min_power=int(params.get("min_power", 1)),
        window=int(params.get("window", rt.config.window)),
        eps_pair=eps_pair,
    )
    evidence = [
        {"name": "l", "value": res.l},
        {"name": "case", "value": res.case},
        {"name": "omega", "value": serialize_element(res.omega)},
        {"name": "eps1", "value": serialize_element(res.eps1)},
        {"name": "eps2", "value": serialize_element(res.eps2)},
        {"name": "sign_suite", "value": {k: v for k, v in res.evidence["sign_suite"].items()}},
        {"name": "fixgi_margins", "value": res.evidence["fixgi"]},
        {"name": "cover", "value": {"alpha": list(res.evidence["cover_alpha"]),
                                     "anchor": list(res.evidence["cover_anchor"])}},
    ]
    return evidence, []


def _run_case(rt: Runtime, params: dict, outdir, seed):
    e1, e2 = rt.el(params["eps1"]), rt.el(params["eps2"])
    pi = rt.el(params["pi"])
    case, box = rt.geo.classify_case(e1, e2, pi, window=int(params.get("window", rt.config.window)))
    evidence = [{"name": "case", "value": case}] + _box_evidence(box)
    if "expected" in params:
        evidence.append(
            {"name": "expected", "value": params["expected"], "ok": case == params["expected"]}
        )
    return evidence, []


def _run_identities(rt: Runtime, params: dict, outdir, seed):
    e1, e2 = rt.el(params["eps1"]), rt.el(params["eps2"])
    pihat = rt.normalized_pi(params)
    window = int(params.get("window", rt.config.window))
    case, box = rt.geo.classify_case(e1, e2, pihat, window=window)
    which = ["id1", "id2"] + (["case2extra"] if case == "case2" else [])
    results = [
        (tag, rt.geo.verify_identity(case, tag, e1, e2, pihat, window=window)) for tag in which
    ]
    if case == "case2":
        ref = rt.geo.case2extra_reference(e1, e2, pihat)
        lhs = rt.geo.case2extra_lhs(e1, e2, pihat)
        results.append(("case2extra_reference", rt.geo.set_equal(lhs, ref)))
    evidence = [
        {"name": "case", "value": case},
        {"name": "pi_normalized", "value": serialize_element(pihat)},
    ]
    for name, (ok, witness) in results:
        entry = {"name": name, "ok": ok}
        if witness is not None:
            entry["witness"] = serialize_element(witness)
        evidence.append(entry)
    return evidence, []


def _run_fdcheck(rt: Runtime, params: dict, outdir, seed):
    d, u1, u2 = rt.domain(params)
    rep = rt.geo.fundamental_domain_check(
        d,
        u1,
        u2,
        samples=int(params.get("samples", 1000)),
        window=int(params.get("window", rt.config.window)),
        seed=seed,
    )
    evidence = [
        {"name": "passed", "ok": rep.passed},
        {"name": "samples", "value": rep.samples},
        {"name": "bad_samples", "value": [
            {"coords": [str(c) for c in coords], "hits": [list(h) for h in hits]}
            for coords, hits in rep.bad_samples[:5]
        ]},
        {"name": "boundary_hits", "value": len(rep.boundary_hits)},
    ]
    return evidence, []


def _run_direction(rt: Runtime, params: dict, outdir, seed):
    g1, g2 = rt.el(params["g1"]), rt.el(params["g2"])
    rep = check_direction_bounds(
        int(params.get("l", 1)),
        g1,
        g2,
        rt.emb,
        n_points=int(params.get("n_points", 64)),
        bits=int(params.get("bits", 128)),
        cfg=rt.config.sign_config,
    )
    evidence = [
        {"name": "passed", "ok": rep.passed},
        {"name": "min_margin", "value": rep.min_margin},
        {"name": "margins", "value": rep.margins},
    ]
    return evidence, []


def _run_cover(rt: Runtime, params: dict, outdir, seed):
    d, u1, u2 = rt.domain(params)
    x = rt.el(params["x"])
    box = rt.geo.translation_cover(d, x, u1, u2, window=int(params.get("window", rt.config.window)))
    evidence = _box_evidence(box)
    if "expected_alpha" in params:
        match = list(box.alpha) == list(params["expected_alpha"])
        evidence.append({"name": "expected_alpha", "value": params["expected_alpha"], "ok": match})
    if "require_within" in params:
        lim = params["require_within"]
        fits = box.alpha[0] <= lim[0] and box.alpha[1] <= lim[1]
        evidence.append({"name": "require_within", "value": lim, "ok": fits})
    return evidence, []


def _run_figures(rt: Runtime, params: dict, outdir, seed):
    e1, e2 = rt.el(params["eps1"]), rt.el(params["eps2"])
    g1, g2 = rt.el(params["g1"]), rt.el(params["g2"])
    n_points = int(params.get("n_points", 512))
    bits = int(params.get("bits", 96))
    figures = params.get("figures", ["fig1", "fig2", "fig3", "fig4"])
    artifacts = []
    evidence = []
    for fig in figures:
        scene = Scene()
        if fig == "fig1":
            basis = (e1, e2)
            curves = [
                curve_sample(1, 1, e1, e2, rt.emb, n_points=n_points, bits=bits),
                curve_sample(2, 1, e1, e2, rt.emb, n_points=n_points, bits=bits),
                curve_sample(1, 1, e1, e2, rt.emb, n_points=n_points, bits=bits, translate=(0, 1)),
                curve_sample(2, 1, e1, e2, rt.emb, n_points=n_points, bits=bits, translate=(1, 0)),
            ]
            scene.add_curves(curves, color="#1f4e9c", width=1.2)
        elif fig in ("fig2", "fig3"):
            which_pi = params["case1_pi"] if fig == "fig2" else params["case2_pi"]
            pihat = rt.normalized_pi(
                {
                    "pi": which_pi,
                    "normalize": True,
                    "eps1": params["eps1"],
                    "eps2": params["eps2"],
                }
            )
            basis = (e1, e2)
            b = rt.geo.explicit_B(e1, e2)
            k2max = 1 if fig == "fig2" else 2
            for k1 in range(2):
                for k2 in range(k2max + 1):
                    scene.add_set(
                        rt.geo.scale(b, e1**k1 * e2**k2), color="#1f4e9c", width=1.0
                    )
            scene.add_set(rt.geo.scale(b, pihat.inverse()), color="#c41111", width=1.2)
        elif fig == "fig4":
            basis = (g1, g2)
            d = rt.geo.colmez_domain(g1, g2)
            pi = rt.el(params["pi"])
            for u in (rt.config.spec.one, g1, g2, g1 * g2):
                scene.add_set(rt.geo.scale(d, u), color="#1f4e9c", width=1.0)
            scene.add_set(rt.geo.scale(d, pi.inverse()), color="#c41111", width=1.2)
        else:
            raise ValueError(f"unknown figure {fig!r}")
        mat = materialize_scene(scene, rt.emb, basis, n_points=min(n_points, 129), bits=bits)
        svg = Path(outdir) / f"{fig}.svg"
        csv = Path(outdir) / f"{fig}.csv"
        render_svg_csv(mat, svg, csv)
        artifacts += [svg.name, csv.name]
        n_curves = sum(len(c) for _, c, _ in mat)
        n_markers = sum(len(m) for _, _, m in mat)
        xs = [p.x for _, cs, _ in mat for c in cs for p in c.points]
        ys = [p.y for _, cs, _ in mat for c in cs for p in c.points]
        evidence.append(
            {
                "name": fig,
                "curves": n_curves,
                "markers": n_markers,
                "bbox": [min(xs), min(ys), max(xs), max(ys)] if xs else None,
            }
        )
    return evidence, artifacts


_RUNNERS = {
    "counterexample": _run_counterexample,
    "construction": _run_construction,
    "case": _run_case,
    "identities": _run_identities,
    "fdcheck": _run_fdcheck,
    "direction": _run_direction,
    "cover": _run_cover,
    "inclusion": _run_cover,
    "figures": _run_figures,
}


def run_scenario(rt: Runtime, sid: str, outdir, seed: int | None = None) -> dict:
    """Execute one scenario and return its deterministic report dict.

    The outcome is PASS exactly when every evidence entry that carries an
    `ok` flag is true, else FAIL. A runner's failure ends in the report: an
    undecided sign as INCONCLUSIVE, a package, lookup, type or value error as
    ERROR naming its type."""
    use_seed = rt.config.seed if seed is None else seed
    kind = "unknown"
    try:
        sc = rt.config.scenario(sid)
        if sc["kind"] not in _RUNNERS:
            raise UnknownScenario(f"unknown scenario kind {sc['kind']!r}")
        kind = sc["kind"]
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        evidence, artifacts = _RUNNERS[kind](rt, sc.get("params", {}), outdir, use_seed)
        outcome = "PASS" if all(e.get("ok", True) for e in evidence) else "FAIL"
    except Inconclusive as exc:
        outcome, evidence, artifacts = "INCONCLUSIVE", [{"name": "error", "value": str(exc)}], []
    except (ShintaniError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        outcome = "ERROR"
        evidence = [{"name": "error", "value": f"{type(exc).__name__}: {exc}"}]
        artifacts = []
    return {
        "schema": SCHEMA_VERSION,
        "scenario": sid,
        "kind": kind,
        "outcome": outcome,
        "seed": use_seed,
        "evidence": evidence,
        "artifacts": [str(a) for a in artifacts],
    }


def write_report(report: dict, outdir) -> Path:
    path = Path(outdir) / f"{report['scenario']}.report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def exit_code(outcomes) -> int:
    """0 all PASS; 1 any FAIL; 2 any ERROR; 3 any INCONCLUSIVE without
    FAIL/ERROR."""
    outcomes = list(outcomes)
    if any(o == "ERROR" for o in outcomes):
        return 2
    if any(o == "FAIL" for o in outcomes):
        return 1
    if any(o == "INCONCLUSIVE" for o in outcomes):
        return 3
    return 0
