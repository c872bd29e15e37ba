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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import units as unit_ops
from .cones import Geometry, ShintaniSet
from .embedding import RealEmbeddings, SignConfig
from .errors import (
    Inconclusive,
    ParseError,
    PrecisionExhausted,
    ShintaniError,
    UnknownName,
    UnknownScenario,
)
from .field import FieldElement, FieldSpec
from .figures import FIGURE_BITS, Layer, materialize_scene, render_svg_csv
from .plane import check_direction_bounds, curve_sample, shifted

SCHEMA_VERSION = 1

# the fields of a schema-1 config, at the top level and inside its `field`,
# `precision` and scenario objects; any other is a config error
_CONFIG_FIELDS = set(
    "schema field embedding_order elements units totally_positive precision seed scenarios".split()
)
_FIELD_FIELDS = {"poly_coeffs"}
_PRECISION_FIELDS = {"start_bits", "max_bits", "escalation_factor"}
_SCENARIO_FIELDS = {"id", "kind", "params"}

# bound on |k| times the coordinate bit height of the base of an element
# power base^k: beyond it the power is a parse error, not a hang (the
# bundled config's largest is g1^-6, 6 * 8 = 48 bits)
MAX_POWER_BITS = 65536

# a scenario id names its report file <out>/<id>.report.json
_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

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


def _check_power(k: int, bases, what: str = "power"):
    """Refuse the k-th powers of `bases`, by a ValueError naming `what`,
    when |k| times the greatest coordinate bit height among them exceeds
    MAX_POWER_BITS."""
    height = max(n.bit_length() for b in bases for c in b.coords for n in c.as_integer_ratio())
    if abs(k) * height > MAX_POWER_BITS:
        raise ValueError(f"{what} {k} of a {height}-bit base exceeds {MAX_POWER_BITS} bits")


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
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k = self.int_exponent()
            try:
                _check_power(k, [base])
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
            return base**k
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
    seed: int
    scenarios: list
    # the embeddings the config was validated with, until a Runtime takes
    # them; a `dataclasses.replace` copy starts without
    embeddings: RealEmbeddings | None = field(default=None, init=False, repr=False, compare=False)

    def scenario(self, sid: str) -> dict:
        for s in self.scenarios:
            if s["id"] == sid:
                return s
        raise UnknownScenario(f"no scenario with id {sid!r}")


def load_config(path) -> ScenarioConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {raw.get('schema')!r}")
    _known_fields(raw, _CONFIG_FIELDS, "")
    field = _config_field(raw, "field", _OBJECT, None)
    _known_fields(field, _FIELD_FIELDS, "field.")
    coeffs = field.get("poly_coeffs")
    if not _is_list_of(coeffs, lambda c: isinstance(c, str) or _TYPES[_INT](c)):
        raise ValueError(f"config field 'poly_coeffs' must list strings or ints, got {coeffs!r}")
    spec = FieldSpec([Fraction(c) for c in coeffs])
    order = raw.get("embedding_order", [0, 1, 2])
    if not _is_list_of(order, _TYPES[_INT]) or sorted(order) != [0, 1, 2]:
        raise ValueError(
            f"config field 'embedding_order' must be a permutation of [0, 1, 2], got {order!r}"
        )
    elements: dict[str, FieldElement] = {}
    for name, expr in _config_field(raw, "elements", _ELEMENTS, {}).items():
        elements[name] = parse_element(expr, elements, spec)
    prec = _config_field(raw, "precision", _OBJECT, {})
    _known_fields(prec, _PRECISION_FIELDS, "precision.")
    start_bits = _config_field(prec, "start_bits", _INT, 64)
    max_bits = _config_field(prec, "max_bits", _INT, 4096)
    env = os.environ.get("SHINTANI_MAX_BITS")
    if env is not None:
        try:
            max_bits = int(env)
        except ValueError:
            raise ValueError(f"SHINTANI_MAX_BITS {env!r} is not an integer") from None
        if max_bits < start_bits:
            raise ValueError(f"SHINTANI_MAX_BITS {env!r} is below start_bits ({start_bits})")
    cfg = SignConfig(
        start_bits=start_bits,
        max_bits=max_bits,
        escalation_factor=_config_field(prec, "escalation_factor", _INT, 2),
    )
    config = ScenarioConfig(
        spec=spec,
        embedding_order=tuple(order),
        elements=elements,
        units=_config_field(raw, "units", _NAMES, []),
        totally_positive=_config_field(raw, "totally_positive", _NAMES, []),
        sign_config=cfg,
        seed=_config_field(raw, "seed", _INT, 0),
        scenarios=_config_field(raw, "scenarios", _LIST, []),
    )
    config.embeddings = _validate(config)
    return config


def _is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(map(check, value))


def _known_fields(raw: dict, known: set, prefix: str):
    """A config error naming the first field of `raw` outside `known`, as
    `prefix` + its name."""
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config field {prefix + unknown[0]!r}")


def _config_field(raw: dict, name: str, typ: str, default):
    """A config field, which must have the shape `typ`: an int field given
    a bool, float or string is a config error, as is a list for an object."""
    value = raw.get(name, default)
    if not _TYPES[typ](value):
        raise ValueError(f"config field {name!r} must be {typ}, got {value!r}")
    return value


def _validate(config: ScenarioConfig) -> RealEmbeddings:
    """Check the declared units, totally positive elements and scenario ids;
    returns the embeddings built for the positivity checks."""
    emb = RealEmbeddings(config.spec, config.embedding_order, cfg=config.sign_config)
    for name in config.units:
        if name not in config.elements:
            raise UnknownName(f"declared unit {name!r} not defined")
        if abs(config.elements[name].norm()) != 1:
            raise ValueError(f"declared unit {name!r} has |norm| != 1")
    for name in config.totally_positive:
        if name not in config.elements:
            raise UnknownName(f"declared element {name!r} not defined")
        try:
            positive = emb.is_totally_positive(config.elements[name])
        except PrecisionExhausted as exc:
            # the cap is below the rung this element's sign needs: no
            # scenario can run on an undecided declaration
            raise PrecisionExhausted(f"declared totally positive {name!r} undecided: {exc}") from None
        if not positive:
            raise ValueError(f"{name!r} is not totally positive")
    seen = set()
    for sc in config.scenarios:
        if not isinstance(sc, dict) or not all(isinstance(sc.get(k), str) for k in ("id", "kind")):
            raise ValueError(f"each scenario needs a string id and kind: {sc!r}")
        if not _ID_RE.fullmatch(sc["id"]):
            raise ValueError(f"scenario id {sc['id']!r} must match {_ID_RE.pattern}")
        if sc["id"] in seen:
            raise ValueError(f"duplicate scenario id {sc['id']!r}")
        _known_fields(sc, _SCENARIO_FIELDS, f"scenarios[{sc['id']}].")
        seen.add(sc["id"])
    return emb


class Runtime:
    """Embeddings + geometry engine bound to one loaded configuration."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # the first Runtime of a load takes the validated embeddings, so no
        # two runtimes share their memos; a changed sign_config (`--bits`)
        # needs new ones
        emb, config.embeddings = config.embeddings, None
        if emb is None or emb.cfg != config.sign_config:
            emb = RealEmbeddings(config.spec, config.embedding_order, cfg=config.sign_config)
        self.emb = emb
        self.geo = Geometry(self.emb)

    def domain(self, p: dict) -> tuple[ShintaniSet, FieldElement, FieldElement]:
        """Build the domain a scenario refers to, returning (set, u1, u2)
        where (u1, u2) generate the acting group."""
        if p["domain"] == "colmez":
            return self.geo.colmez_domain(p["u1"], p["u2"]), p["u1"], p["u2"]
        e1, e2 = p["eps1"], p["eps2"]
        if p["domain"] == "B":
            return self.geo.explicit_B(e1, e2), e1, e2
        pihat = self.scenario_pi(p)
        if p["domain"] == "B1":
            return self.geo.explicit_B1(e2, pihat), e2, pihat
        return self.geo.explicit_B2(e1, pihat), e1, pihat

    def scenario_pi(self, p: dict) -> FieldElement:
        """The scenario's pi, normalized by the unit search when requested."""
        if not p["normalize"]:
            return p["pi"]
        basis = (p["g1"], p["g2"]) if "g1" in p else None
        return self.normalized_pi(p["pi"], p["eps1"], p["eps2"], basis)

    def normalized_pi(
        self, pi: FieldElement, eps1: FieldElement, eps2: FieldElement, basis=None
    ) -> FieldElement:
        """omega*pi for the unit omega the triangle search finds at power 1
        for the pair (eps1, eps2), over the unit basis when one is given."""
        _, omega = unit_ops.triangle_search(eps1, eps2, pi, 1, self.emb, basis)
        return omega * pi


# -- scenario runners ----------------------------------------------------------
# Each runner takes its kind's checked params (see _PARAMS) and returns
# (evidence, artifacts); run_scenario derives the verdict.


def _box_evidence(box) -> list:
    return [
        {"name": "alpha", "value": list(box.alpha)},
        {"name": "anchor", "value": list(box.anchor)},
        {"name": "support", "value": [list(k) for k in box.support]},
    ]


def _run_counterexample(rt: Runtime, p: dict, outdir, seed):
    d = rt.geo.colmez_domain(p["u1"], p["u2"])
    support = rt.geo.error_support(d, p["pi"], p["u1"], p["u2"])
    required = p["required_pairs"]
    outside = [k for k in support if not (k[0] in (0, 1) and k[1] in (0, 1))]
    evidence = [
        {"name": "support", "value": [list(k) for k in support]},
        {"name": "required_pairs_present", "ok": all(tuple(k) in support for k in required)},
        {"name": "outside_unit_box", "ok": bool(outside), "value": [list(k) for k in outside]},
    ]
    return evidence, []


def _run_construction(rt: Runtime, p: dict, outdir, seed):
    # choose_power raises the eps pair, or else (g1, g2), to powers up to l_max
    pair = (p["eps1"], p["eps2"]) if "eps1" in p else (p["g1"], p["g2"])
    _check_power(p["l_max"], pair, "param 'l_max': power")
    res = unit_ops.build_construction(
        p["g1"],
        p["g2"],
        p["pi"],
        rt.geo,
        l_max=p["l_max"],
        eps_pair=(p["eps1"], p["eps2"]) if "eps1" in p else None,
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


def _run_case(rt: Runtime, p: dict, outdir, seed):
    case, box = rt.geo.classify_case(p["eps1"], p["eps2"], p["pi"])
    evidence = [{"name": "case", "value": case}] + _box_evidence(box)
    if "expected" in p:
        evidence.append({"name": "expected", "value": p["expected"], "ok": case == p["expected"]})
    return evidence, []


def _run_identities(rt: Runtime, p: dict, outdir, seed):
    pihat = rt.scenario_pi(p)
    case, results = rt.geo.verify_identity(p["eps1"], p["eps2"], pihat)
    evidence = [
        {"name": "case", "value": case},
        {"name": "pi_normalized", "value": serialize_element(pihat)},
    ]
    for name, ok, witness in results:
        entry = {"name": name, "ok": ok}
        if witness is not None:
            entry["witness"] = serialize_element(witness)
        evidence.append(entry)
    return evidence, []


def _run_fdcheck(rt: Runtime, p: dict, outdir, seed):
    d, u1, u2 = rt.domain(p)
    rep = rt.geo.fundamental_domain_check(d, u1, u2, samples=p["samples"], seed=seed)
    evidence = [
        {"name": "passed", "ok": rep.passed},
        {"name": "samples", "value": rep.samples},
        {"name": "bad_samples", "value": [
            {"coords": [str(c) for c in coords], "hits": [list(h) for h in hits]}
            for coords, hits in rep.bad_samples[:5]
        ]},
        # 0, as a cut range raises; kept so reports and perfbench's fdcheck check hold
        {"name": "boundary_hits", "value": 0},
    ]
    return evidence, []


def _run_direction(rt: Runtime, p: dict, outdir, seed):
    _check_power(p["l"], (p["g1"], p["g2"]), "param 'l': power")
    rep = check_direction_bounds(p["l"], p["g1"], p["g2"], rt.emb, n_points=p["n_points"])
    evidence = [
        {"name": "passed", "ok": rep.passed},
        {"name": "min_margin", "value": rep.min_margin},
        {"name": "margins", "value": rep.margins},
    ]
    return evidence, []


def _run_cover(rt: Runtime, p: dict, outdir, seed):
    d, u1, u2 = rt.domain(p)
    box = rt.geo.translation_cover(d, p["x"], u1, u2)
    evidence = _box_evidence(box)
    if "expected_alpha" in p:
        match = list(box.alpha) == p["expected_alpha"]
        evidence.append({"name": "expected_alpha", "value": p["expected_alpha"], "ok": match})
    if "require_within" in p:
        lim = p["require_within"]
        fits = box.alpha[0] <= lim[0] and box.alpha[1] <= lim[1]
        evidence.append({"name": "require_within", "value": lim, "ok": fits})
    return evidence, []


def _run_figures(rt: Runtime, p: dict, outdir, seed):
    e1, e2, g1, g2 = p["eps1"], p["eps2"], p["g1"], p["g2"]
    n_points, bits = p["n_points"], FIGURE_BITS
    if n_points < 2:
        raise ValueError("figures needs n_points >= 2 (the two ends of each curve)")
    artifacts = []
    evidence = []
    sampled = {}  # face curves, shared by the four figures (fig3 redraws fig2's B)
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        basis = (g1, g2) if fig == "fig4" else (e1, e2)
        if fig == "fig1":
            c1, c2 = (
                curve_sample(i, 1, e1, e2, rt.emb, n_points=n_points, bits=bits) for i in (1, 2)
            )
            layers = [Layer([c1, c2, shifted(c1, (0, 1)), shifted(c2, (1, 0))], width=1.2)]
        else:
            if fig == "fig4":  # the counterexample: D, g1 D, g2 D, g1g2 D and pi^-1 D
                red = p["pi"]
                d = rt.geo.colmez_domain(g1, g2)
                blue = (rt.config.spec.one, g1, g2, g1 * g2)
            else:  # e1^k1 e2^k2 B for k1 <= 1, k2 <= 1 (fig2) or 2 (fig3), and pihat^-1 B
                red = rt.normalized_pi(p["case1_pi"] if fig == "fig2" else p["case2_pi"], e1, e2)
                d = rt.geo.explicit_B(e1, e2)
                k2s = range(2 if fig == "fig2" else 3)
                blue = [e1**k1 * e2**k2 for k1 in range(2) for k2 in k2s]
            layers = [Layer(rt.geo.scale(d, u)) for u in blue]
            layers.append(Layer(rt.geo.scale(d, red.inverse()), color="#c41111", width=1.2))
        mat = materialize_scene(layers, rt.emb, basis, n_points=min(n_points, 129), sampled=sampled)
        svg = Path(outdir) / f"{fig}.svg"
        csv = Path(outdir) / f"{fig}.csv"
        render_svg_csv(mat, svg, csv)
        artifacts += [svg.name, csv.name]
        n_curves = sum(len(c) for _, c, _ in mat)
        n_markers = sum(len(m) for _, _, m in mat)
        xs = [pt.x for _, cs, _ in mat for c in cs for pt in c.points]
        ys = [pt.y for _, cs, _ in mat for c in cs for pt in c.points]
        evidence.append(
            {
                "name": fig,
                "curves": n_curves,
                "markers": n_markers,
                "bbox": [min(xs), min(ys), max(xs), max(ys)] if xs else None,
            }
        )
    return evidence, artifacts


# One param table per kind: name -> (type, default). A _REQUIRED param must
# be given; an _OPTIONAL one stays absent unless given. Only run_scenario reads
# raw params: element names become FieldElements, and a missing, mistyped or
# unknown param is an ERROR report.
_REQUIRED, _OPTIONAL = object(), object()
_ELEMENT, _INT, _BOOL = "an element name", "an int", "a bool"
_PAIR, _PAIRS = "a pair of ints", "a list of pairs of ints"
_CASE, _DOMAIN = "'case1' or 'case2'", "'colmez', 'B', 'B1' or 'B2'"
_OBJECT, _LIST, _NAMES = "an object", "a list", "a list of strings"
_ELEMENTS = "an object mapping names to strings"


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(type(c) is int for c in v)


_TYPES = {
    _ELEMENT: lambda v: isinstance(v, str),
    _INT: lambda v: type(v) is int,
    _BOOL: lambda v: type(v) is bool,
    _PAIR: _is_pair,
    _PAIRS: lambda v: _is_list_of(v, _is_pair),
    _CASE: lambda v: v in ("case1", "case2"),
    _DOMAIN: lambda v: v in ("colmez", "B", "B1", "B2"),
    _OBJECT: lambda v: isinstance(v, dict),
    _LIST: lambda v: isinstance(v, list),
    _NAMES: lambda v: _is_list_of(v, lambda n: isinstance(n, str)),
    _ELEMENTS: lambda v: isinstance(v, dict) and all(isinstance(e, str) for e in v.values()),
}


def _elements(required, optional=()) -> dict:
    table = {n: (_ELEMENT, _REQUIRED) for n in required}
    return table | {n: (_ELEMENT, _OPTIONAL) for n in optional}


_DOMAIN_PARAMS = _elements((), ("u1", "u2", "eps1", "eps2", "pi", "g1", "g2")) | {
    "domain": (_DOMAIN, _REQUIRED),
    "normalize": (_BOOL, False),
}
_PARAMS = {
    "counterexample": _elements(("u1", "u2", "pi")) | {"required_pairs": (_PAIRS, [])},
    "construction": _elements(("g1", "g2", "pi"), ("eps1", "eps2")) | {"l_max": (_INT, 8)},
    "case": _elements(("eps1", "eps2", "pi")) | {"expected": (_CASE, _OPTIONAL)},
    "identities": _elements(("eps1", "eps2", "pi"), ("g1", "g2")) | {"normalize": (_BOOL, False)},
    "fdcheck": _DOMAIN_PARAMS | {"samples": (_INT, 1000)},
    "direction": _elements(("g1", "g2")) | {"l": (_INT, 1), "n_points": (_INT, 64)},
    "cover": _DOMAIN_PARAMS | _elements(("x",)) | {
        "expected_alpha": (_PAIR, _OPTIONAL),
        "require_within": (_PAIR, _OPTIONAL),
    },
    "figures": _elements(("eps1", "eps2", "g1", "g2", "pi", "case1_pi", "case2_pi")) | {
        "n_points": (_INT, 512),
    },
}
_PARAMS["inclusion"] = _PARAMS["cover"]


def _checked_params(rt: Runtime, kind: str, params) -> dict:
    """The scenario's params checked against its kind's table, with
    defaults filled in and element names resolved."""
    table = _PARAMS[kind]
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    unknown = sorted(set(params) - set(table))
    if unknown:
        raise ValueError(f"unknown {kind} params {unknown}")
    out = {}
    for name, (typ, default) in table.items():
        if name not in params:
            if default is _REQUIRED:
                raise KeyError(name)
            if default is not _OPTIONAL:
                out[name] = default
            continue
        value = params[name]
        if not _TYPES[typ](value):
            raise ValueError(f"param {name!r} must be {typ}, got {value!r}")
        if typ == _ELEMENT:
            if value not in rt.config.elements:
                raise UnknownName(f"unknown element {value!r}")
            value = rt.config.elements[value]
        out[name] = value
    return out


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

    The params are checked against the kind's table before the runner
    starts; a missing, mistyped or unknown one is an ERROR. The outcome is
    PASS exactly when every evidence entry that carries an `ok` flag is
    true, else FAIL. A runner's failure ends in the report: an undecided
    sign as INCONCLUSIVE, a package, lookup, type or value error as ERROR
    naming its type."""
    use_seed = rt.config.seed if seed is None else seed
    kind = "unknown"
    try:
        sc = rt.config.scenario(sid)
        if sc["kind"] not in _RUNNERS:
            raise UnknownScenario(f"unknown scenario kind {sc['kind']!r}")
        kind = sc["kind"]
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        params = _checked_params(rt, kind, sc.get("params", {}))
        evidence, artifacts = _RUNNERS[kind](rt, params, outdir, use_seed)
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
