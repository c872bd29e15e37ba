"""The plane projection attached to a pair of multiplicatively independent
totally positive units: logarithms of embeddings written in the basis of the
unit pair's logarithms. Curves are images of straight segments in the
positive octant; their endpoint derivatives admit closed forms and the
construction's direction bounds are certified on sampled points with
interval margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub

from .embedding import (
    RatInterval,
    RealEmbeddings,
    iv_context,
    iv_fraction,
    iv_int,
    iv_lower,
    iv_mid_err,
    iv_sign,
)
from .errors import DegenerateBasis, FixgiViolated, Inconclusive
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
        self.iv = iv_context(bits)
        prec = self.prec = self.iv.prec
        # raw endpoints of Log g1, Log g2, their 2x2 determinant and 3
        self.l1 = [v._mpi_ for v in emb.log_embed(g1, bits)]
        self.l2 = [v._mpi_ for v in emb.log_embed(g2, bits)]
        self.det = mpi_sub(
            mpi_mul(self.l1[0], self.l2[1], prec), mpi_mul(self.l1[1], self.l2[0], prec), prec
        )
        self.three = iv_int(3, prec)
        if iv_sign(self.iv.make_mpf(self.det)) is None:
            raise DegenerateBasis(
                "log images of the basis pair are not certified independent"
            )

    def project_logs(self, logs):
        """Coordinates in the (Log g1, Log g2) basis of the trace-zero part
        of a log 3-vector, computed at the basis precision; logs at another
        precision enter with their endpoints as they are."""
        prec, det = self.prec, self.det
        p0, p1, _ = self.l1
        q0, q1, _ = self.l2
        v0, v1, v2 = (v._mpi_ for v in logs)
        t = mpi_div(mpi_add(mpi_add(v0, v1, prec), v2, prec), self.three, prec)
        h0 = mpi_sub(v0, t, prec)
        h1 = mpi_sub(v1, t, prec)
        a = mpi_div(mpi_sub(mpi_mul(h0, q1, prec), mpi_mul(h1, q0, prec), prec), det, prec)
        b = mpi_div(mpi_sub(mpi_mul(p0, h1, prec), mpi_mul(p1, h0, prec), prec), det, prec)
        return self.iv.make_mpf(a), self.iv.make_mpf(b)

    def point(self, logs) -> PlanePoint:
        """The plane point of a log 3-vector, with its error radius."""
        a, b = self.project_logs(logs)
        ax, ae = iv_mid_err(a)
        bx, be = iv_mid_err(b)
        return PlanePoint(ax, bx, max(ae, be))


def phi(
    x: FieldElement,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
) -> PlanePoint:
    """phi_(g1,g2)(x) with the error radius of the interval evaluation."""
    return PhiBasis(emb, g1, g2, PLANE_BITS).point(emb.log_embed(x, PLANE_BITS))


def _segment_logs(e_from, e_to, ti, bits: int):
    """Interval logs of (1-t)*v + t*w for positive interval 3-vectors, with
    t given as its raw interval at `bits` (`iv_fraction(t, t, bits)._mpi_`):
    a caller sampling a grid converts each grid value once."""
    iv = iv_context(bits)
    prec = iv.prec
    si = mpi_sub(iv_int(1, prec), ti, prec)
    out = []
    for a, b in zip(e_from, e_to):
        mix = mpi_add(
            mpi_mul(si, a.iv(bits)._mpi_, prec), mpi_mul(ti, b.iv(bits)._mpi_, prec), prec
        )
        out.append(iv.make_mpf(mpi_log(mix, prec)))
    return out


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
    sampled on a uniform parameter grid; the endpoints are the exact lattice
    values (0,0) and l*e_i."""
    if i not in (1, 2):
        raise ValueError("curve index must be 1 or 2")
    if l < 1 or n_points < 2:
        raise ValueError("need l >= 1 and at least two sample points")
    basis = PhiBasis(emb, g1, g2, bits)
    e_to = emb.embed_positive((g1 if i == 1 else g2) ** l, bits)
    e_one = [RatInterval.point(1)] * 3
    pts = []
    ts = []
    for j in range(n_points):
        t = Fraction(j, n_points - 1)
        ts.append(t)
        if j == 0:
            pts.append(PlanePoint(0.0, 0.0, 0.0))
            continue
        if j == n_points - 1:
            pts.append(PlanePoint(float(l if i == 1 else 0), float(l if i == 2 else 0), 0.0))
            continue
        p = basis.point(_segment_logs(e_one, e_to, iv_fraction(t, t, bits)._mpi_, bits))
        pts.append(PlanePoint(p.x + 0.0, p.y + 0.0, p.err))  # a -0.0 reads 0.0
    return CurveSample(curve_id=(i, l, (0, 0)), ts=tuple(ts), points=tuple(pts))


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
    a = iv_fraction(a_rat.lo, a_rat.hi, bits)
    b = iv_fraction(b_rat.lo, b_rat.hi, bits)
    num = a * logs1[0] - b * logs1[1]
    den = a * logs2[0] - b * logs2[1]
    if iv_sign(den) is None:
        return None
    return -num / den


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


_LIMIT_EXPECTED = {(1, 0): 1, (1, 1): -1, (2, 0): -1, (2, 1): 1}


def limit_derivative(
    i: int,
    t: int,
    g1: FieldElement,
    g2: FieldElement,
    emb: RealEmbeddings,
) -> LimitValue:
    """The limiting endpoint derivative as the power grows, with its sign
    certified; requires the fixgi inequality chains."""
    if (i, t) not in _LIMIT_EXPECTED:
        raise ValueError("limit is defined for i in {1,2}, t in {0,1}")
    if not fixgi_holds(g1, g2, emb):
        raise FixgiViolated("units do not satisfy the embedding inequality chains")
    expected = _LIMIT_EXPECTED[(i, t)]
    for work in emb.cfg.ladder(PLANE_BITS):
        logs1 = emb.log_embed(g1, work)
        logs2 = emb.log_embed(g2, work)
        if (i, t) == (1, 0):
            num = 2 * logs1[0] + logs1[1]
            den = 2 * logs2[0] + logs2[1]
        elif (i, t) == (2, 1):
            num = logs1[0] + 2 * logs1[1]
            den = logs2[0] + 2 * logs2[1]
        else:
            num = -logs1[0] + logs1[1]
            den = -logs2[0] + logs2[1]
        if iv_sign(den) is not None:
            ratio = -num / den
            s = iv_sign(ratio)
            if s is not None:
                v, e = iv_mid_err(ratio)
                return LimitValue(value=v, err=e, sign=s, expected_sign=expected)
    raise Inconclusive("limit derivative sign undecided at max precision")


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
    (the exact endpoints sit on the bounds). A certified violation yields
    passed=False; an enclosure straddling a bound escalates and then raises
    Inconclusive.
    """
    if l < 1 or n_points < 3:
        raise ValueError("direction check needs l >= 1 and n_points >= 3 (one interior sample)")
    basis = PhiBasis(emb, g1, g2, PLANE_BITS)
    bounds = {
        "y1 >= 0": [],
        "x1 >= 0": [],
        "x1 <= l": [],
        "x2 <= 0": [],
        "y2 >= 0": [],
        "y2 <= l": [],
    }
    passed = True
    t_ivs = {}  # (j, rung) -> the interval of t, shared by the two curves
    for i in (1, 2):
        gpow = (g1 if i == 1 else g2) ** l
        e_to = emb.embed_positive(gpow, PLANE_BITS)
        e_one = [RatInterval.point(1)] * 3
        for j in range(1, n_points - 1):
            t = Fraction(j, n_points - 1)
            for work in emb.cfg.ladder(PLANE_BITS):
                ti = t_ivs.get((j, work))
                if ti is None:
                    ti = t_ivs[j, work] = iv_fraction(t, t, work)._mpi_
                logs = _segment_logs(e_one, e_to, ti, work)
                a, b = basis.project_logs(logs)
                # l - a and l - b at the rung's precision, not the basis's
                lv = iv_context(work).mpf(l)
                if i == 1:
                    checks = {
                        "y1 >= 0": b,
                        "x1 >= 0": a,
                        "x1 <= l": lv - a,
                    }
                else:
                    checks = {
                        "x2 <= 0": -a,
                        "y2 >= 0": b,
                        "y2 <= l": lv - b,
                    }
                signs = {n: iv_sign(v) for n, v in checks.items()}
                if all(s is not None for s in signs.values()):
                    for n, v in checks.items():
                        if signs[n] < 0:
                            passed = False
                        bounds[n].append(iv_lower(v))
                    break
            else:
                raise Inconclusive(
                    f"direction bound straddles at t={t} with {emb.cfg.max_bits} bits"
                )
    margins = {n: min(v) for n, v in bounds.items() if v}
    return DirectionReport(
        passed=passed,
        l=l,
        n_points=n_points,
        margins=margins,
        min_margin=min(margins.values()),
    )
