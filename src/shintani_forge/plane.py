"""The plane projection attached to a pair of multiplicatively independent
totally positive units: logarithms of embeddings written in the basis of the
unit pair's logarithms. Curves are images of straight segments in the
positive octant; their endpoint derivatives admit closed forms and the
construction's direction bounds are certified on sampled points with
interval margins.

Sampling a curve point mixes the segment's endpoint embeddings with the
intervals (1 - t, t) of one `grid` point, takes their interval logs and
projects them on the basis. All of it runs on `embedding`'s signed integer
endpoints, two fused steps per point: `_segment_logs` makes the three mixes
and their logs, `PhiBasis.project_logs` the projection. Each endpoint is
the one `mpmath.libmp` gives; the logs are `mpf_log`'s values, by its own
integer steps (`log_ep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .embedding import (
    RatInterval,
    RealEmbeddings,
    add_ep,
    add_iv,
    div_iv,
    dot_iv,
    float_ep,
    iv_fraction,
    iv_int,
    iv_mid_err,
    iv_sign,
    log_ep,
    mul_iv,
    neg_iv,
    sub_iv,
    work_prec,
)
from .errors import DegenerateBasis, FixgiViolated, Inconclusive, PrecisionExhausted
from .field import FieldElement

# working precision of phi, the direction checks and the limit derivatives
PLANE_BITS = 128


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float
    err: float


@dataclass(frozen=True)
class CurveSample:
    curve_id: tuple
    ts: tuple
    points: tuple


@dataclass(frozen=True)
class DerivativeValue:
    value: float
    err: float
    sign: int | None


@dataclass(frozen=True)
class LimitValue:
    value: float
    err: float
    sign: int
    expected_sign: int

    @property
    def ok(self) -> bool:
        return self.sign == self.expected_sign


@dataclass
class DirectionReport:
    passed: bool
    l: int
    n_points: int
    margins: dict
    min_margin: float


class PhiBasis:
    """Log-basis data for phi_(g1,g2) at a working precision."""

    def __init__(self, emb: RealEmbeddings, g1: FieldElement, g2: FieldElement, bits: int):
        self.emb = emb
        self.g1 = g1
        self.g2 = g2
        self.bits = bits
        prec = self.prec = work_prec(bits)
        # two entries each of Log g1 and Log g2, their determinant, and 3
        self.p = emb.log_embed(g1, bits)[:2]
        self.q = emb.log_embed(g2, bits)[:2]
        (p0, p1), (q0, q1) = self.p, self.q
        self.det = sub_iv(mul_iv(p0, q1, prec), mul_iv(p1, q0, prec), prec)
        self.three = iv_int(3, prec)
        if iv_sign(self.det) is None:
            raise DegenerateBasis(
                "log images of the basis pair are not certified independent"
            )

    def project_logs(self, logs):
        """Coordinates in the (Log g1, Log g2) basis of the trace-zero part
        of a log 3-vector of signed intervals, as two signed intervals at the
        basis precision: every operation rounds to it, and the logs enter
        with their endpoints as they are, at whatever precision they
        carry."""
        prec, det = self.prec, self.det
        (p0, p1), (q0, q1) = self.p, self.q
        v0, v1, v2 = logs
        t = div_iv(add_iv(add_iv(v0, v1, prec), v2, prec), self.three, prec)
        h0 = sub_iv(v0, t, prec)
        h1 = sub_iv(v1, t, prec)
        a = div_iv(sub_iv(mul_iv(h0, q1, prec), mul_iv(h1, q0, prec), prec), det, prec)
        b = div_iv(sub_iv(mul_iv(p0, h1, prec), mul_iv(p1, h0, prec), prec), det, prec)
        return a, b

    def point(self, logs) -> PlanePoint:
        """The plane point of a log 3-vector of signed intervals, with its
        error radius."""
        a, b = self.project_logs(logs)
        ax, ae = iv_mid_err(a)
        bx, be = iv_mid_err(b)
        return PlanePoint(ax, bx, max(ae, be))

    def phi(self, x: FieldElement) -> PlanePoint:
        """phi_(g1,g2)(x), from the logs of x at the basis precision, with
        the error radius of the interval evaluation."""
        return self.point(self.emb.log_embed(x, self.bits))


def phi(
    x: FieldElement,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
) -> PlanePoint:
    """phi_(g1,g2)(x) at PLANE_BITS, with its error radius."""
    return PhiBasis(emb, g1, g2, PLANE_BITS).phi(x)


def grid(n_points: int, bits: int):
    """The uniform parameter grid t = j/(n_points - 1), j = 0..n_points-1,
    and for each t the signed intervals (1 - t, t) at `bits` that
    `_segment_logs` mixes with: a caller converts each grid value once. At
    t = 0 the interval t, and at t = 1 the interval 1 - t, is zero."""
    prec = work_prec(bits)
    one = iv_int(1, prec)
    ts = tuple(Fraction(j, n_points - 1) for j in range(n_points))
    weights = []
    for t in ts:
        ti = iv_fraction(t, t, bits)
        weights.append((sub_iv(one, ti, prec), ti))
    return ts, tuple(weights)


def segment_ends(e_from, e_to, bits: int):
    """Per slot, the signed endpoints (v_lo, v_hi, w_lo, w_hi) at `bits` of
    the interval 3-vectors v and w of a segment, which `_segment_logs`
    mixes."""
    return tuple((*a.iv(bits), *b.iv(bits)) for a, b in zip(e_from, e_to))


def _mix_log(s, v, t, w, prec: int, ceil: int):
    """log(s v + t w) for positive endpoints, the products, their sum and
    the log each rounded to `prec` bits in one direction: `log_ep` of
    `add_ep` of two `mul_ep`s."""
    (sm, se), (vm, ve), (tm, te), (wm, we) = s, v, t, w
    x, xe = sm * vm, se + ve
    n = x.bit_length() - prec
    if n > 0:
        x = -(-x >> n) if ceil else x >> n
        xe += n
    y, ye = tm * wm, te + we
    n = y.bit_length() - prec
    if n > 0:
        y = -(-y >> n) if ceil else y >> n
        ye += n
    return log_ep(add_ep(x, xe, y, ye, prec, ceil), prec, ceil)


def _segment_logs(ends, weights, prec: int):
    """Interval logs of (1-t) v + t w at `prec`, three signed intervals, for
    the `segment_ends` of positive interval 3-vectors v and w and the
    weights (1 - t, t) of a `grid` point at that precision. At t = 0 and
    t = 1 the mix is the end's own enclosure, as 1 v + 0 w is v exactly at
    the precision of v's endpoints. Inside, every factor is positive, so
    each end of a mix is the sum of its two products in one direction."""
    (s0, s1), (t0, t1) = weights
    if not t1[0]:
        return tuple((log_ep(v0, prec, 0), log_ep(v1, prec, 1)) for v0, v1, _, _ in ends)
    if not s1[0]:
        return tuple((log_ep(w0, prec, 0), log_ep(w1, prec, 1)) for _, _, w0, w1 in ends)
    return tuple(
        (_mix_log(s0, v0, t0, w0, prec, 0), _mix_log(s1, v1, t1, w1, prec, 1))
        for v0, v1, w0, w1 in ends
    )


def _power_enclosure(emb: RealEmbeddings, g: FieldElement, l: int, bits: int):
    """Certified enclosures of the embeddings of g^l: those of g, certified
    positive from `bits` up, raised to the l-th power, which is sound for
    positive intervals. At l = 1 they are g's own enclosures."""
    enc = emb.embed_positive(g, bits)
    if l == 1:
        return enc
    return [RatInterval(e.lo**l, e.hi**l) for e in enc]


def curve_sample(
    i: int,
    l: int,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
    n_points: int = 512,
    bits: int = PLANE_BITS,
) -> CurveSample:
    """phi image of the segment from (1,1,1) to the embeddings of g_i^l,
    enclosed by `_power_enclosure`, sampled on the `grid` of `n_points`; the
    endpoints are the exact lattice values (0,0) and l*e_i."""
    if i not in (1, 2):
        raise ValueError("curve index must be 1 or 2")
    if l < 1 or n_points < 2:
        raise ValueError("need l >= 1 and at least two sample points")
    basis = PhiBasis(emb, g1, g2, bits)
    e_to = _power_enclosure(emb, g1 if i == 1 else g2, l, bits)
    ts, weights = grid(n_points, bits)
    pts = [PlanePoint(0.0, 0.0, 0.0)]
    if n_points > 2:
        ends = segment_ends([RatInterval.point(1)] * 3, e_to, bits)
        for w in weights[1:-1]:
            p = basis.point(_segment_logs(ends, w, basis.prec))
            pts.append(PlanePoint(p.x + 0.0, p.y + 0.0, p.err))  # a -0.0 reads 0.0
    pts.append(PlanePoint(float(l if i == 1 else 0), float(l if i == 2 else 0), 0.0))
    return CurveSample(curve_id=(i, l, (0, 0)), ts=ts, points=tuple(pts))


def shifted(cs: CurveSample, translate: tuple) -> CurveSample:
    """The curve sample `cs` of `curve_sample` moved by the lattice vector
    `translate`, the curve of the unit translate; tagged with it."""
    dx, dy = float(translate[0]), float(translate[1])
    i, l, _ = cs.curve_id
    return CurveSample(
        curve_id=(i, l, tuple(translate)),
        ts=cs.ts,
        points=tuple(PlanePoint(p.x + dx, p.y + dy, p.err) for p in cs.points),
    )


def _endpoint_ratio(e_g, logs1, logs2, bits: int):
    """-(A log g1(1) - B log g1(2)) / (A log g2(1) - B log g2(2)) with
    A = 2 s2 - s1 - s3, B = 2 s1 - s2 - s3 for interval embedding values s."""
    a_rat = RatInterval.point(2) * e_g[1] - e_g[0] - e_g[2]
    b_rat = RatInterval.point(2) * e_g[0] - e_g[1] - e_g[2]
    prec = work_prec(bits)
    a = iv_fraction(a_rat.lo, a_rat.hi, bits)
    b = iv_fraction(b_rat.lo, b_rat.hi, bits)
    num = sub_iv(mul_iv(a, logs1[0], prec), mul_iv(b, logs1[1], prec), prec)
    den = sub_iv(mul_iv(a, logs2[0], prec), mul_iv(b, logs2[1], prec), prec)
    if iv_sign(den) is None:
        return None
    return div_iv(neg_iv(num), den, prec)


def endpoint_derivative(
    i: int,
    l: int,
    t: int,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
    bits: int = PLANE_BITS,
) -> DerivativeValue:
    """Closed form of dy/dx of curve (i, l) at t = 0 or t = 1."""
    if t not in (0, 1):
        raise ValueError("endpoint parameter must be 0 or 1")
    g = g1 if i == 1 else g2
    power = l if t == 0 else -l
    e_g = emb.embed(g**power, bits)
    logs1 = emb.log_embed(g1, bits)
    logs2 = emb.log_embed(g2, bits)
    ratio = _endpoint_ratio(e_g, logs1, logs2, bits)
    if ratio is None:
        raise DegenerateBasis("derivative denominator not certified nonzero")
    v, e = iv_mid_err(ratio)
    return DerivativeValue(value=v, err=e, sign=iv_sign(ratio))


def fixgi_margins(g1: FieldElement, g2: FieldElement, emb: RealEmbeddings):
    """Certified margins of the five strict inequalities
    g1(2) > g1(1)^-2 > g1(1)^-1 > 1 and g2(1) < g2(2) < 1.

    Returns a dict name -> signed margin (positive means the inequality holds
    with that certified gap). A certified violation ends refinement early; an
    exact tie among otherwise-satisfied comparisons raises Inconclusive at
    the precision cap.
    """
    names = ("g1(2)*g1(1)^2 > 1", "g1(1) < 1", "g1(1) > 0", "g2(1) < g2(2)", "g2(2) < 1")
    out: dict[str, Fraction | None] = {n: None for n in names}
    for bits in emb.cfg.ladder():
        e1v = emb.embed(g1, bits)
        e2v = emb.embed(g2, bits)
        diffs = {
            "g1(2)*g1(1)^2 > 1": e1v[1] * e1v[0] * e1v[0] - RatInterval.point(1),
            "g1(1) < 1": RatInterval.point(1) - e1v[0],
            "g1(1) > 0": e1v[0],
            "g2(1) < g2(2)": e2v[1] - e2v[0],
            "g2(2) < 1": RatInterval.point(1) - e2v[1],
        }
        for n, d in diffs.items():
            if out[n] is None:
                s = d.sign()
                if s is not None:
                    out[n] = d.lo if s > 0 else d.hi
        decided = [v for v in out.values() if v is not None]
        if any(v < 0 for v in decided):
            return out
        if len(decided) == len(names):
            return out
    raise Inconclusive(f"fixgi comparison undecided at {emb.cfg.max_bits} bits")


def fixgi_holds(g1: FieldElement, g2: FieldElement, emb: RealEmbeddings) -> bool:
    margins = fixgi_margins(g1, g2, emb)
    return all(v is not None and v > 0 for v in margins.values())


# per (i, t): the limit's expected sign and the coefficients c, exact at any
# precision, of its ratio -(c1 log g1(1) + c2 log g1(2)) / (c1 log g2(1) + c2 log g2(2))
_LIMITS = {(1, 0): (1, (2, 1)), (1, 1): (-1, (-1, 1)), (2, 0): (-1, (-1, 1)), (2, 1): (1, (1, 2))}


def limit_derivative(
    i: int,
    t: int,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
) -> LimitValue:
    """The limiting endpoint derivative as the power grows, with its sign
    certified; requires the fixgi inequality chains. The logs climb the
    ladder from PLANE_BITS, so a cap below it raises PrecisionExhausted
    before any log is taken."""
    if (i, t) not in _LIMITS:
        raise ValueError("limit is defined for i in {1,2}, t in {0,1}")
    if not fixgi_holds(g1, g2, emb):
        raise FixgiViolated("units do not satisfy the embedding inequality chains")
    expected, coeffs = _LIMITS[(i, t)]
    work = None
    for work in emb.cfg.ladder(PLANE_BITS):
        prec = work_prec(work)
        c = [iv_int(k, prec) for k in coeffs]
        num = dot_iv(c, emb.log_embed(g1, work), prec)
        den = dot_iv(c, emb.log_embed(g2, work), prec)
        if iv_sign(den) is not None:
            ratio = div_iv(neg_iv(num), den, prec)
            s = iv_sign(ratio)
            if s is not None:
                v, e = iv_mid_err(ratio)
                return LimitValue(value=v, err=e, sign=s, expected_sign=expected)
    if work is None:
        raise PrecisionExhausted(f"embeddings not separated from zero at {emb.cfg.max_bits} bits")
    raise Inconclusive(f"limit derivative sign undecided at {emb.cfg.max_bits} bits")


def _bound_margins(basis: PhiBasis, l: int, n_points: int):
    """The interval margin of each curve bound at each interior point of the
    `grid` of `n_points`, as (t, bound, margin), curve 1 and then curve 2,
    everything at the basis precision: the segments end at the
    `_power_enclosure` of g_i^l."""
    emb, bits, prec = basis.emb, basis.bits, basis.prec
    lv = iv_int(l, prec)
    ts, weights = grid(n_points, bits)
    for i, g in ((1, basis.g1), (2, basis.g2)):
        e_to = _power_enclosure(emb, g, l, bits)
        ends = segment_ends([RatInterval.point(1)] * 3, e_to, bits)
        for t, w in zip(ts[1:-1], weights[1:-1]):
            a, b = basis.project_logs(_segment_logs(ends, w, prec))
            if i == 1:
                yield t, "y1 >= 0", b
                yield t, "x1 >= 0", a
                yield t, "x1 <= l", sub_iv(lv, a, prec)
            else:
                yield t, "x2 <= 0", neg_iv(a)
                yield t, "y2 >= 0", b
                yield t, "y2 <= l", sub_iv(lv, b, prec)


def check_direction_bounds(
    l: int,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
    n_points: int = 64,
) -> DirectionReport:
    """Certified sampled check of the four curve bounds
    y_1 >= 0, x_2 <= 0, 0 <= x_1 <= l, 0 <= y_2 <= l.

    Interior samples must satisfy the bounds with positive interval margin
    (the exact endpoints sit on the bounds). The check climbs the ladder
    from PLANE_BITS whole: at each rung the basis, the segments' ends at the
    l-th powers of the enclosures of g1 and g2 (`_power_enclosure`) and the
    grid are built at that rung's precision, and a margin straddling zero
    anywhere escalates the whole check. A certified violation yields
    passed=False; a straddle at the cap raises Inconclusive naming its t.
    """
    if l < 1 or n_points < 3:
        raise ValueError("direction check needs l >= 1 and n_points >= 3 (one interior sample)")
    t = None
    for bits in emb.cfg.ladder(PLANE_BITS):
        passed, lows = True, {}  # bound -> the lower ends of its margins
        for t, name, v in _bound_margins(PhiBasis(emb, g1, g2, bits), l, n_points):
            s = iv_sign(v)
            if s is None:
                break
            passed = passed and s > 0
            lows.setdefault(name, []).append(float_ep(v[0]))
        else:
            margins = {n: min(v) for n, v in lows.items()}
            return DirectionReport(passed, l, n_points, margins, min(margins.values()))
    if t is None:  # a cap below PLANE_BITS leaves the basis logs uncertified
        raise PrecisionExhausted(f"embeddings not separated from zero at {emb.cfg.max_bits} bits")
    raise Inconclusive(f"direction bound straddles at t={t} with {emb.cfg.max_bits} bits")
