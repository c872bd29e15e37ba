"""The unit-search pipeline: inequality-chain checks, power selection,
lattice enumeration in logarithmic space, the triangle search normalizing
the totally positive generator, and the assembled construction with its
case classification.

Every produced object is re-verified directly against its target property
(exact cone membership, certified determinant signs); the search regions are
heuristics and never part of the verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .cones import Geometry, _int_vec
from .embedding import (
    RealEmbeddings,
    add_iv,
    cmp_ep,
    dot_iv,
    iv_fraction,
    iv_int,
    iv_mid_err,
    iv_sign,
    mul_iv,
    neg_iv,
    sub_iv,
    trace_zero,
    work_prec,
)
from .errors import Exhausted, NotTotallyPositive, SignConditionFailed
from .field import FieldElement
from .plane import (
    PLANE_BITS,
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
    evidence: dict = dc_field(default_factory=dict)


def check_fixgi(g1: FieldElement, g2: FieldElement, emb: RealEmbeddings) -> FixgiReport:
    """Certified evaluation of the two strict inequality chains the curve
    lemmas require of the unit pair."""
    margins = fixgi_margins(g1, g2, emb)
    return FixgiReport(
        passed=all(v is not None and v > 0 for v in margins.values()),
        margins={k: (float(v) if v is not None else None) for k, v in margins.items()},
    )


def check_sign_suite(
    eps1: FieldElement,
    eps2: FieldElement,
    pi_like: FieldElement,
    emb: RealEmbeddings,
) -> SignSuiteReport:
    """The six bracket signs backing the domain constructions.

    The unit pair must satisfy delta([e1|e2]) = +1 = -delta([e2|e1]); the
    normalized generator must pair with each unit with opposite nonzero
    signs (which is exactly what makes the two cells of each mixed domain
    disjoint and tiling).
    """
    db = emb.delta_bracket
    signs = {
        "[e1|e2]": db(eps1, eps2),
        "[e2|e1]": db(eps2, eps1),
        "[e1|p]": db(eps1, pi_like),
        "[p|e1]": db(pi_like, eps1),
        "[e2|p]": db(eps2, pi_like),
        "[p|e2]": db(pi_like, eps2),
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
) -> int:
    """Least power for which the direction bounds hold and the endpoint
    derivative signs agree with the limiting signs."""
    limit_signs = {
        (i, t): limit_derivative(i, t, g1, g2, emb).sign
        for i in (1, 2)
        for t in (0, 1)
    }
    for l in range(1, l_max + 1):
        rep = check_direction_bounds(l, g1, g2, emb)
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


def _exponent_box(p, s1, s2, x_lo, x_hi, y_lo, y_hi):
    """Exponent pairs (m1, m2), row by row, whose shift p + m1*s1 + m2*s2 of
    the float plane point p can land in the box [x_lo, x_hi] x [y_lo, y_hi]:
    the box corners solved for (m1, m2), widened by one on every side."""
    det = s1[0] * s2[1] - s1[1] * s2[0]
    corners = []
    for bx in (x_lo - p[0], x_hi - p[0]):
        for by in (y_lo - p[1], y_hi - p[1]):
            corners.append(((bx * s2[1] - by * s2[0]) / det, (s1[0] * by - s1[1] * bx) / det))
    m1s, m2s = zip(*corners)
    return itertools.product(
        range(math.floor(min(m1s)) - 1, math.ceil(max(m1s)) + 2),
        range(math.floor(min(m2s)) - 1, math.ceil(max(m2s)) + 2),
    )


def lattice_points_in_ball(
    lattice: LogLattice,
    center: tuple,
    radius,
    emb: RealEmbeddings,
) -> LatticeBallResult:
    """All integer combinations whose Log enclosure is certified inside the
    closed sup-norm ball; combinations still straddling the boundary at the
    precision cap are reported separately."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = tuple(Fraction(c) for c in center)
    u1, u2 = lattice.basis
    offset = lattice.offset if lattice.offset is not None else u1.spec.one
    rungs = {}

    def rung(work):
        """Trace-zero logs of (u1, u2, offset), center and radius at `work` bits."""
        if work not in rungs:
            rungs[work] = (
                [trace_zero(emb.log_embed(g, work), work_prec(work)) for g in (u1, u2, offset)],
                [iv_fraction(c, c, work) for c in center],
                iv_fraction(radius, radius, work),
            )
        return rungs[work]

    (l1, l2, lo), _, _ = rung(PLANE_BITS)
    prec = work_prec(PLANE_BITS)
    g11 = dot_iv(l1, l1, prec)
    g22 = dot_iv(l2, l2, prec)
    g12 = dot_iv(l1, l2, prec)
    if iv_sign(sub_iv(mul_iv(g11, g22, prec), mul_iv(g12, g12, prec), prec)) != 1:
        raise SignConditionFailed("Log images of the lattice basis are dependent")

    # every point of the ball has its first two log coordinates in this box
    p, s1, s2 = ([iv_mid_err(v)[0] for v in logs[:2]] for logs in (lo, l1, l2))
    c0, c1, r = float(center[0]), float(center[1]), float(radius)
    inside = []
    undecided = []
    for k1, k2 in _exponent_box(p, s1, s2, c0 - r, c0 + r, c1 - r, c1 + r):
        for work in emb.cfg.ladder(PLANE_BITS):
            (v1, v2, vo), ci, (r_lo, r_hi) = rung(work)
            prec = work_prec(work)
            ks = iv_int(k1, prec), iv_int(k2, prec)
            sums = [add_iv(dot_iv(ks, (a, b), prec), o, prec) for a, b, o in zip(v1, v2, vo)]
            ds = [sub_iv(v, c, prec) for v, c in zip(sums, ci)]
            # d lies in [-r, r] when d and -d lie below r, exactly
            ends = [v for d in ds for v in (d, neg_iv(d))]
            if all(cmp_ep(v[1], r_lo) <= 0 for v in ends):
                inside.append((k1, k2, u1**k1 * u2**k2 * offset))
                break
            if any(cmp_ep(v[0], r_hi) > 0 for v in ends):
                break
        else:
            undecided.append((k1, k2, u1**k1 * u2**k2 * offset))
    return LatticeBallResult(inside=inside, undecided=undecided)


def triangle_search(
    eps1: FieldElement,
    eps2: FieldElement,
    pi: FieldElement,
    l: int,
    emb: RealEmbeddings,
    unit_basis: tuple[FieldElement, FieldElement] | None = None,
) -> tuple[FieldElement, FieldElement]:
    """Find omega in the unit group with alpha = omega^-1 pi^-1 inside the
    bracket-cone union and (eps1, eps2, omega*pi) passing the sign suite.

    omega ranges over the group generated by `unit_basis` (the full unit
    group; defaults to (eps1, eps2)). One loop walks a list of plane boxes:
    the corner wedge T(theta, Q, (l,l)) n T(gamma, (l,l)) with Q doubling
    from 1 to 64, then a sweep of the square [-1, l+1]^2 around the
    domain's phi square, for when the wedge never captures a valid point
    (the wedge argument is asymptotic in the power). Per box, the
    candidates whose phi image it holds and that no earlier box tried are
    verified nearest to (l, l) first, by exact cone membership plus the
    certified sign suite, which are the binding contracts.
    """
    union = Geometry(emb).prop4_union(eps1, eps2)
    u1, u2 = unit_basis if unit_basis is not None else (eps1, eps2)

    def verified(u: FieldElement):
        alpha = u * pi.inverse()
        if not union.contains_vec(_int_vec(alpha.coords)):
            return None
        omega = u.inverse()
        if not check_sign_suite(eps1, eps2, omega * pi, emb).passed:
            return None
        return alpha, omega

    hit = verified(eps1.spec.one)
    if hit is not None:
        return hit

    d1 = limit_derivative(1, 1, eps1, eps2, emb)
    d2 = limit_derivative(2, 1, eps1, eps2, emb)
    tan_theta = d2.value / 2
    tan_gamma = -d1.value / 2
    p, s1, s2 = (phi(w, eps1, eps2, emb) for w in (pi.inverse(), u1, u2))
    p, s1, s2 = (p.x, p.y), (s1.x, s1.y), (s2.x, s2.y)
    if abs(s1[0] * s2[1] - s1[1] * s2[0]) < 1e-12:
        raise SignConditionFailed("unit basis does not span the phi plane")
    pad = 1e-9

    def in_wedge(x: float, y: float) -> bool:
        """The two slope tests of the corner wedge; the box filter applies
        its box half."""
        return not (y < l + tan_theta * (x - l) - pad or x < l - y * tan_gamma - pad)

    q_max = 64
    # the wedge levels q = 1, 2, ..., q_max, then the sweep box
    boxes = [(l - 2.0**e, l, -0.0, l, True) for e in range(7)]
    boxes.append((-1.0, l + 1.0, -1.0, l + 1.0, False))
    tried = set()
    for x_lo, x_hi, y_lo, y_hi, wedge in boxes:
        ordered = []
        for m1, m2 in _exponent_box(p, s1, s2, x_lo, x_hi, y_lo, y_hi):
            x = p[0] + m1 * s1[0] + m2 * s2[0]
            y = p[1] + m1 * s1[1] + m2 * s2[1]
            inside = x_lo - pad <= x <= x_hi + pad and y_lo - pad <= y <= y_hi + pad
            if inside and (m1, m2) not in tried and (not wedge or in_wedge(x, y)):
                ordered.append(((l - x) ** 2 + (l - y) ** 2, m1, m2))
        for _, m1, m2 in sorted(ordered):
            tried.add((m1, m2))
            hit = verified(u1**m1 * u2**m2)
            if hit is not None:
                return hit
    raise Exhausted("triangle search", q_max)


def build_construction(
    g1: FieldElement,
    g2: FieldElement,
    pi: FieldElement,
    geo: Geometry,
    l_max: int = 8,
    eps_pair: tuple[FieldElement, FieldElement] | None = None,
) -> ConstructionResult:
    """Run the full pipeline: validate inputs, check the inequality chains,
    pick the power, normalize pi by the triangle search, re-verify the sign
    suite and classify the case with the translate searches of `geo`.

    g1, g2 generate the unit group the normalization ranges over. With
    `eps_pair` the inequality chains and the power scan run on the supplied
    pair instead (pre-computed units the caller knows satisfy the chains);
    otherwise on (g1, g2) themselves.
    """
    emb = geo.emb
    if not emb.is_totally_positive(pi):
        raise NotTotallyPositive("pi is not totally positive")
    pairs = [("g1", "g2", g1, g2)]
    if eps_pair is not None:
        pairs.append(("eps1", "eps2", *eps_pair))
    for n1, n2, a, b in pairs:
        for name, u in ((n1, a), (n2, b)):
            if abs(u.norm()) != 1:
                raise ValueError(f"{name} is not a unit (|norm| != 1)")
            if not emb.is_totally_positive(u):
                raise NotTotallyPositive(f"{name} is not totally positive")
        geo._check_unit_pair(a, b, (n1, n2))
    c1, c2 = eps_pair if eps_pair is not None else (g1, g2)

    evidence = {}
    fixgi = check_fixgi(c1, c2, emb)
    evidence["fixgi"] = fixgi.margins
    if not fixgi.passed:
        raise SignConditionFailed(f"fixgi chains fail: {fixgi.margins}")

    l = choose_power(c1, c2, emb, l_max=l_max)
    evidence["l"] = l
    eps1 = c1**l
    eps2 = c2**l

    alpha, omega = triangle_search(eps1, eps2, pi, l, emb, unit_basis=(g1, g2))
    evidence["alpha"] = [str(c) for c in alpha.coords]
    evidence["omega"] = [str(c) for c in omega.coords]

    pihat = omega * pi
    suite = check_sign_suite(eps1, eps2, pihat, emb)
    evidence["sign_suite"] = suite.signs
    if not suite.passed:
        raise SignConditionFailed(f"sign suite fails: {suite.failures}")

    if not geo.prop4_union(eps1, eps2).contains_vec(_int_vec(pihat.inverse().coords)):
        raise SignConditionFailed("normalized pi^-1 left the bracket-cone union")
    case, box = geo.classify_case(eps1, eps2, pihat)
    evidence["cover_alpha"] = box.alpha
    evidence["cover_anchor"] = box.anchor
    return ConstructionResult(eps1=eps1, eps2=eps2, omega=omega, l=l, case=case, evidence=evidence)


def classify_case(
    eps1: FieldElement,
    eps2: FieldElement,
    pi: FieldElement,
    emb: RealEmbeddings,
):
    return Geometry(emb).classify_case(eps1, eps2, pi)
