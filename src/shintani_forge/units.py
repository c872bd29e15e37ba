"""The unit-search pipeline: inequality-chain checks, power selection,
lattice enumeration in logarithmic space, the triangle search normalizing
the totally positive generator, and the assembled construction with its
case classification.

Every produced object is re-verified directly against its target property
(exact cone membership, certified determinant signs); the search regions are
heuristics and never part of the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .cones import Geometry, _int_vec
from .embedding import RealEmbeddings, SignConfig, iv_context, iv_mid_err, trace_zero
from .errors import Exhausted, NotTotallyPositive, SignConditionFailed
from .field import FieldElement
from .plane import (
    check_direction_bounds,
    endpoint_derivative,
    fixgi_margins,
    limit_derivative,
    phi,
)


@dataclass
class FixgiReport:
    passed: bool
    margins: dict


@dataclass
class SignSuiteReport:
    passed: bool
    signs: dict
    failures: list


@dataclass
class LogLattice:
    """Lattice (or coset) of logarithmic vectors k1*Log(u1) + k2*Log(u2)
    (+ Log(offset) projected to the trace-zero hyperplane)."""

    basis: tuple[FieldElement, FieldElement]
    offset: FieldElement | None = None

    def gram_ok(self, emb: RealEmbeddings, bits: int = 128) -> bool:
        """Certify the Gram determinant of the Log basis excludes zero."""
        l1 = trace_zero(emb.log_embed(self.basis[0], bits))
        l2 = trace_zero(emb.log_embed(self.basis[1], bits))
        g11 = sum(a * a for a in l1)
        g22 = sum(a * a for a in l2)
        g12 = sum(a * b for a, b in zip(l1, l2))
        det = g11 * g22 - g12 * g12
        return det.a > 0


@dataclass
class LatticeBallResult:
    inside: list
    undecided: list


@dataclass
class ConstructionResult:
    eps1: FieldElement
    eps2: FieldElement
    omega: FieldElement
    l: int
    case: str
    pi: FieldElement | None = None
    evidence: dict = dc_field(default_factory=dict)

    def reverify(self, emb: RealEmbeddings, cfg: SignConfig | None = None) -> bool:
        """Re-check the four construction properties directly: the bracket
        signs of the unit pair, the opposite sign pairs against omega*pi,
        and exact cone membership of the normalized inverse."""
        cfg = cfg or SignConfig()
        if self.pi is None:
            raise ValueError("construction was built without recording pi")
        if emb.delta_bracket(self.eps1, self.eps2, cfg) != 1:
            return False
        if emb.delta_bracket(self.eps2, self.eps1, cfg) != -1:
            return False
        pihat = self.omega * self.pi
        if not check_sign_suite(self.eps1, self.eps2, pihat, emb, cfg).passed:
            return False
        geo = Geometry(emb, cfg)
        return geo.prop4_union(self.eps1, self.eps2).contains_vec(
            _int_vec(pihat.inverse().coords)
        )


def check_fixgi(
    g1: FieldElement, g2: FieldElement, emb: RealEmbeddings, cfg: SignConfig | None = None
) -> FixgiReport:
    """Certified evaluation of the two strict inequality chains the curve
    lemmas require of the unit pair."""
    cfg = cfg or SignConfig()
    margins = fixgi_margins(g1, g2, emb, cfg)
    return FixgiReport(
        passed=all(v is not None and v > 0 for v in margins.values()),
        margins={k: (float(v) if v is not None else None) for k, v in margins.items()},
    )


def check_sign_suite(
    eps1: FieldElement,
    eps2: FieldElement,
    pi_like: FieldElement,
    emb: RealEmbeddings,
    cfg: SignConfig | None = None,
) -> SignSuiteReport:
    """The six bracket signs backing the domain constructions.

    The unit pair must satisfy delta([e1|e2]) = +1 = -delta([e2|e1]); the
    normalized generator must pair with each unit with opposite nonzero
    signs (which is exactly what makes the two cells of each mixed domain
    disjoint and tiling).
    """
    cfg = cfg or SignConfig()
    db = emb.delta_bracket
    signs = {
        "[e1|e2]": db(eps1, eps2, cfg),
        "[e2|e1]": db(eps2, eps1, cfg),
        "[e1|p]": db(eps1, pi_like, cfg),
        "[p|e1]": db(pi_like, eps1, cfg),
        "[e2|p]": db(eps2, pi_like, cfg),
        "[p|e2]": db(pi_like, eps2, cfg),
    }
    failures = []
    if signs["[e1|e2]"] != 1:
        failures.append("[e1|e2] != +1")
    if signs["[e2|e1]"] != -1:
        failures.append("[e2|e1] != -1")
    if signs["[e1|p]"] == 0 or signs["[e1|p]"] != -signs["[p|e1]"]:
        failures.append("([e1|p], [p|e1]) not opposite nonzero")
    if signs["[e2|p]"] == 0 or signs["[e2|p]"] != -signs["[p|e2]"]:
        failures.append("([e2|p], [p|e2]) not opposite nonzero")
    return SignSuiteReport(passed=not failures, signs=signs, failures=failures)


def choose_power(
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
    l_max: int = 8,
    cfg: SignConfig | None = None,
    n_points: int = 64,
) -> int:
    """Least power for which the direction bounds hold and the endpoint
    derivative signs agree with the limiting signs."""
    cfg = cfg or SignConfig()
    limit_signs = {
        (i, t): limit_derivative(i, t, g1, g2, emb, cfg).sign
        for i in (1, 2)
        for t in (0, 1)
    }
    for l in range(1, l_max + 1):
        rep = check_direction_bounds(l, g1, g2, emb, n_points=n_points, cfg=cfg)
        if not rep.passed:
            continue
        ok = True
        for (i, t), want in limit_signs.items():
            d = endpoint_derivative(i, l, t, g1, g2, emb)
            if d.sign != want:
                ok = False
                break
        if ok:
            return l
    raise Exhausted("power scan", l_max)


def lattice_points_in_ball(
    lattice: LogLattice,
    center: tuple,
    radius,
    emb: RealEmbeddings,
    bits: int = 128,
    cfg: SignConfig | None = None,
) -> LatticeBallResult:
    """All integer combinations whose Log enclosure is certified inside the
    closed sup-norm ball; combinations still straddling the boundary at the
    precision cap are reported separately."""
    cfg = cfg or SignConfig()
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = tuple(Fraction(c) for c in center)
    u1, u2 = lattice.basis
    if not lattice.gram_ok(emb, bits):
        raise SignConditionFailed("Log images of the lattice basis are dependent")

    l1 = trace_zero(emb.log_embed(u1, bits))
    l2 = trace_zero(emb.log_embed(u2, bits))
    off = trace_zero(emb.log_embed(lattice.offset, bits)) if lattice.offset is not None else None
    f1 = [iv_mid_err(v)[0] for v in l1]
    f2 = [iv_mid_err(v)[0] for v in l2]
    fo = [iv_mid_err(v)[0] for v in off] if off else [0.0, 0.0, 0.0]
    tgt = [float(c) - o for c, o in zip(center, fo)]
    det = f1[0] * f2[1] - f1[1] * f2[0]
    a0 = (tgt[0] * f2[1] - tgt[1] * f2[0]) / det
    b0 = (f1[0] * tgt[1] - f1[1] * tgt[0]) / det
    inv_norm = (max(abs(f2[1]), abs(f2[0])) + max(abs(f1[0]), abs(f1[1]))) / abs(det)
    m = int(math.ceil(inv_norm * float(radius))) + 2

    inside = []
    undecided = []
    for k1 in range(int(a0) - m, int(a0) + m + 1):
        for k2 in range(int(b0) - m, int(b0) + m + 1):
            verdict = None
            for work in cfg.ladder(bits):
                iv = iv_context(work)
                v1 = trace_zero(emb.log_embed(u1, work))
                v2 = trace_zero(emb.log_embed(u2, work))
                vo = (
                    trace_zero(emb.log_embed(lattice.offset, work))
                    if lattice.offset is not None
                    else None
                )
                ok_all = True
                out_any = False
                pending = False
                for idx in range(3):
                    comp = k1 * v1[idx] + k2 * v2[idx]
                    if vo is not None:
                        comp = comp + vo[idx]
                    ci = iv.mpf(center[idx].numerator) / iv.mpf(
                        center[idx].denominator
                    )
                    ri = iv.mpf(radius.numerator) / iv.mpf(
                        radius.denominator
                    )
                    d = comp - ci
                    if d.b <= ri.a and d.a >= (-ri).b:
                        continue
                    ok_all = False
                    if d.a > ri.b or d.b < (-ri).a:
                        out_any = True
                    else:
                        pending = True
                if ok_all:
                    verdict = "in"
                elif out_any:
                    verdict = "out"
                elif not pending:
                    verdict = "out"
                if verdict is not None:
                    break
            element = u1**k1 * u2**k2
            if lattice.offset is not None:
                element = element * lattice.offset
            if verdict == "in":
                inside.append((k1, k2, element))
            elif verdict is None:
                undecided.append((k1, k2, element))
    return LatticeBallResult(inside=inside, undecided=undecided)


def triangle_search(
    eps1: FieldElement,
    eps2: FieldElement,
    pi: FieldElement,
    l: int,
    emb: RealEmbeddings,
    unit_basis: tuple[FieldElement, FieldElement] | None = None,
    q_max: float = 64.0,
    cfg: SignConfig | None = None,
) -> tuple[FieldElement, FieldElement]:
    """Find omega in the unit group with alpha = omega^-1 pi^-1 inside the
    bracket-cone union and (eps1, eps2, omega*pi) passing the sign suite.

    omega ranges over the group generated by `unit_basis` (the full unit
    group; defaults to (eps1, eps2)). Candidates are enumerated by phi image
    inside the corner wedge T(theta, Q, (l,l)) n T(gamma, (l,l)) with Q
    growing geometrically; every candidate is verified by exact cone
    membership plus the certified sign suite, which are the binding
    contracts. If the wedge never captures a valid point (the wedge argument
    is asymptotic in the power), a bounded sweep of coset points near the
    domain's phi square runs the same exact verification.
    """
    cfg = cfg or SignConfig()
    geo = Geometry(emb, cfg)
    union = geo.prop4_union(eps1, eps2)
    u1, u2 = unit_basis if unit_basis is not None else (eps1, eps2)

    def verified(u: FieldElement):
        alpha = u * pi.inverse()
        if not union.contains_vec(_int_vec(alpha.coords)):
            return None
        omega = u.inverse()
        if not check_sign_suite(eps1, eps2, omega * pi, emb, cfg).passed:
            return None
        return alpha, omega

    hit = verified(eps1.spec.one)
    if hit is not None:
        return hit

    d1 = limit_derivative(1, 1, eps1, eps2, emb, cfg)
    d2 = limit_derivative(2, 1, eps1, eps2, emb, cfg)
    tan_theta = d2.value / 2
    tan_gamma = -d1.value / 2
    p = phi(pi.inverse(), eps1, eps2, emb)
    s1 = phi(u1, eps1, eps2, emb)
    s2 = phi(u2, eps1, eps2, emb)
    det = s1.x * s2.y - s1.y * s2.x
    if abs(det) < 1e-12:
        raise SignConditionFailed("unit basis does not span the phi plane")
    pad = 1e-9

    def in_wedge(x: float, y: float, q: float) -> bool:
        if y > l + pad or y < -pad or x > l + pad or x < l - q - pad:
            return False
        if y < l + tan_theta * (x - l) - pad:
            return False
        if x < l - y * tan_gamma - pad:
            return False
        return True

    def candidates_in_box(x_lo, x_hi, y_lo, y_hi):
        """Unit exponents whose phi shift lands p inside the given box."""
        corners = []
        for bx in (x_lo - p.x, x_hi - p.x):
            for by in (y_lo - p.y, y_hi - p.y):
                m1 = (bx * s2.y - by * s2.x) / det
                m2 = (s1.x * by - s1.y * bx) / det
                corners.append((m1, m2))
        m1_lo = int(math.floor(min(c[0] for c in corners))) - 1
        m1_hi = int(math.ceil(max(c[0] for c in corners))) + 1
        m2_lo = int(math.floor(min(c[1] for c in corners))) - 1
        m2_hi = int(math.ceil(max(c[1] for c in corners))) + 1
        out = []
        for m1 in range(m1_lo, m1_hi + 1):
            for m2 in range(m2_lo, m2_hi + 1):
                x = p.x + m1 * s1.x + m2 * s2.x
                y = p.y + m1 * s1.y + m2 * s2.y
                if x_lo - pad <= x <= x_hi + pad and y_lo - pad <= y <= y_hi + pad:
                    out.append((x, y, m1, m2))
        return out

    tried = set()
    q = 1.0
    while q <= q_max:
        ordered = []
        for x, y, m1, m2 in candidates_in_box(l - q, l, -0.0, l):
            if (m1, m2) in tried or not in_wedge(x, y, q):
                continue
            ordered.append(((l - x) ** 2 + (l - y) ** 2, m1, m2))
        for _, m1, m2 in sorted(ordered):
            tried.add((m1, m2))
            hit = verified(u1**m1 * u2**m2)
            if hit is not None:
                return hit
        q *= 2
    sweep = []
    for x, y, m1, m2 in candidates_in_box(-1.0, l + 1.0, -1.0, l + 1.0):
        if (m1, m2) in tried:
            continue
        sweep.append(((l - x) ** 2 + (l - y) ** 2, m1, m2))
    for _, m1, m2 in sorted(sweep):
        hit = verified(u1**m1 * u2**m2)
        if hit is not None:
            return hit
    raise Exhausted("triangle search", q_max)


def build_construction(
    g1: FieldElement,
    g2: FieldElement,
    pi: FieldElement,
    emb: RealEmbeddings,
    cfg: SignConfig | None = None,
    l_max: int = 8,
    q_max: float = 64.0,
    min_power: int = 1,
    window: int = 8,
    eps_pair: tuple[FieldElement, FieldElement] | None = None,
) -> ConstructionResult:
    """Run the full pipeline: validate inputs, check the inequality chains,
    pick the power, normalize pi by the triangle search, re-verify the sign
    suite and classify the case.

    g1, g2 generate the unit group the normalization ranges over. With
    `eps_pair` the inequality chains and the power scan run on the supplied
    pair instead (pre-computed units the caller knows satisfy the chains);
    otherwise on (g1, g2) themselves.
    """
    cfg = cfg or SignConfig()
    if not emb.is_totally_positive(pi, cfg):
        raise NotTotallyPositive("pi is not totally positive")
    pairs = [("g1", "g2", g1, g2)]
    if eps_pair is not None:
        pairs.append(("eps1", "eps2", *eps_pair))
    for n1, n2, a, b in pairs:
        for name, u in ((n1, a), (n2, b)):
            if abs(u.norm()) != 1:
                raise ValueError(f"{name} is not a unit (|norm| != 1)")
            if not emb.is_totally_positive(u, cfg):
                raise NotTotallyPositive(f"{name} is not totally positive")
        if emb.delta_bracket(a, b, cfg) != 1 or emb.delta_bracket(b, a, cfg) != -1:
            raise SignConditionFailed(f"delta([{n1}|{n2}]) = -delta([{n2}|{n1}]) = 1 required")
    c1, c2 = eps_pair if eps_pair is not None else (g1, g2)

    evidence = {}
    fixgi = check_fixgi(c1, c2, emb, cfg)
    evidence["fixgi"] = fixgi.margins
    if not fixgi.passed:
        raise SignConditionFailed(f"fixgi chains fail: {fixgi.margins}")

    l = choose_power(c1, c2, emb, l_max=l_max, cfg=cfg)
    l = max(l, min_power)
    evidence["l"] = l
    eps1 = c1**l
    eps2 = c2**l

    alpha, omega = triangle_search(
        eps1, eps2, pi, l, emb, unit_basis=(g1, g2), q_max=q_max, cfg=cfg
    )
    evidence["alpha"] = [str(c) for c in alpha.coords]
    evidence["omega"] = [str(c) for c in omega.coords]

    pihat = omega * pi
    suite = check_sign_suite(eps1, eps2, pihat, emb, cfg)
    evidence["sign_suite"] = suite.signs
    if not suite.passed:
        raise SignConditionFailed(f"sign suite fails: {suite.failures}")

    geo = Geometry(emb, cfg)
    if not geo.prop4_union(eps1, eps2).contains_vec(_int_vec(pihat.inverse().coords)):
        raise SignConditionFailed("normalized pi^-1 left the bracket-cone union")
    case, box = geo.classify_case(eps1, eps2, pihat, window=window)
    evidence["cover_alpha"] = box.alpha
    evidence["cover_anchor"] = box.anchor
    return ConstructionResult(
        eps1=eps1, eps2=eps2, omega=omega, l=l, case=case, pi=pi, evidence=evidence
    )


def classify_case(
    eps1: FieldElement,
    eps2: FieldElement,
    pi: FieldElement,
    emb: RealEmbeddings,
    cfg: SignConfig | None = None,
    window: int = 8,
):
    geo = Geometry(emb, cfg)
    return geo.classify_case(eps1, eps2, pi, window=window)
