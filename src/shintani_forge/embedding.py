"""Certified real embeddings of a cubic field.

Roots of the defining polynomial are isolated with Sturm counts and refined
by dyadic bisection; embeddings are evaluated in exact rational interval
arithmetic, so every enclosure is sound by construction. The bisection and
the embedding Horner run on integers: a refined root is a pair of numerators
over 2^e, an element's coordinates are numerators over their common
denominator D, and each enclosure endpoint is one numerator over D 2^(2e),
chosen as the rational interval product would choose it and turned into a
`Fraction` once. A determinant sign puts each column's enclosures over one
common positive denominator and takes the interval determinant of the
integer numerators, a positive multiple of the rational one, so it has the
rational one's sign at every rung. Logarithms are the only transcendental
step. Past the rational enclosures every interval has one form, owned by
this module: an endpoint is a pair (m, e) of ints for m 2^e, whose mantissa
carries the sign and is not normalized, and an interval is a pair of them,
at the precision `work_prec(bits)`. Each addition, product, quotient and log
rounds the exact result once, floor or ceiling, so every endpoint is the one
`mpmath.libmp` gives; zero operands, products and quotients with zero in an
operand, and the additions mpmath rounds by perturbing go to `mpmath.libmp`
itself. A log runs `mpf_log`'s own integer steps on the endpoint, mpmath's
fixed-point Taylor log and ln 2 then one rounding, and hands powers of two,
huge magnitudes, mpmath's perturbed logs near 1 and precisions past its
Taylor range to `mpf_log`. `iv_mid_err` and `iv_sign` read an interval out.
Every interval computes at its own precision, so no global mpmath state is
set or read.

The three embeddings are labeled sigma_1, sigma_2, sigma_3 by ascending root
by default. A scenario may re-label them with an `order` permutation; the
permutation is applied on top of the ascending order, and all downstream
coordinate-indexed conditions read the permuted labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpi_div,
    mpi_exp,
    mpi_mul,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, ln2_fixed, log_taylor_cached

from .errors import NotTotallyPositive, PrecisionExhausted
from .field import FieldElement, FieldSpec, _int_vec, _scaled, count_real_roots, det3

Rat = Fraction


@dataclass(frozen=True)
class SignConfig:
    """Precision escalation policy for certified sign decisions."""

    start_bits: int = 64
    max_bits: int = 4096
    escalation_factor: int = 2

    def __post_init__(self):
        if not isinstance(self.escalation_factor, int) or self.escalation_factor < 2:
            raise ValueError("escalation_factor must be an integer >= 2")
        if self.start_bits < 32:
            raise ValueError("start_bits must be >= 32")
        if self.max_bits < self.start_bits:
            raise ValueError("max_bits must be >= start_bits")

    def ladder(self, start: int | None = None):
        """Working precisions from `start` (default `start_bits`), escalated
        while they stay within `max_bits`."""
        bits = self.start_bits if start is None else start
        while bits <= self.max_bits:
            yield bits
            bits *= self.escalation_factor


class RatInterval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi", "_iv")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty interval")
        self.lo = lo
        self.hi = hi
        self._iv = {}  # bits -> iv_fraction(lo, hi, bits)

    def iv(self, bits: int):
        """The interval of signed endpoints enclosing this one at `bits`
        (`iv_fraction`), converted once per precision."""
        v = self._iv.get(bits)
        if v is None:
            v = self._iv[bits] = iv_fraction(self.lo, self.hi, bits)
        return v

    @classmethod
    def point(cls, v) -> "RatInterval":
        v = Fraction(v)
        return cls(v, v)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def __add__(self, other):
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    def sign(self):
        """+1, -1, or None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None


def interval_det3(m):
    """The interval determinant of a 3x3 matrix of integer intervals
    (lo, hi), by `field.det3`'s expansion with exact interval products
    (least and greatest endpoint product) and sums. Multiplying a column by
    a positive integer multiplies every product and sum of the expansion,
    so the result, by that integer."""

    def mul(x, y):
        p, q = x[0] * y[0], x[0] * y[1]
        r, s = x[1] * y[0], x[1] * y[1]
        return min(p, q, r, s), max(p, q, r, s)

    def minor(x, y, z, w):
        # the interval x y - z w
        p, q = mul(x, y), mul(z, w)
        return p[0] - q[1], p[1] - q[0]

    (a, b, c), (d, e, f), (g, h, i) = m
    t0, t1, t2 = mul(a, minor(e, i, f, h)), mul(b, minor(d, i, f, g)), mul(c, minor(d, h, e, g))
    return t0[0] - t1[1] + t2[0], t0[1] - t1[0] + t2[1]


# the embedded first standard basis vector e1 as an integer column, which a
# None column stands for in RealEmbeddings._det_sign
_E1 = ((1, 1), (0, 0), (0, 0))


class RealEmbeddings:
    """Root isolation plus certified embedding evaluation for one field.

    `order[i]` gives, for embedding slot i, the index of the root in the
    ascending-root list. The ascending order is the default; an even
    permutation leaves every determinant sign unchanged. `cfg` is the
    precision policy of every sign decision and enclosure refinement.
    """

    def __init__(
        self, spec: FieldSpec, order: tuple[int, int, int] = (0, 1, 2), *, cfg: SignConfig
    ):
        if sorted(order) != [0, 1, 2]:
            raise ValueError("order must be a permutation of (0, 1, 2)")
        self.spec = spec
        self.order = tuple(order)
        self.cfg = cfg
        self._initial: list[RatInterval] = self._isolate_initial()
        # bits -> the intervals of refine_roots(bits) and their dyadic
        # numerators (a, b, e), both in ascending-root order
        self._snapshots: dict[int, tuple[list[RatInterval], list]] = {}
        # (coordinates, bits) -> the embedding enclosures, shared by every
        # call, so each interval's per-precision conversions are shared too
        self._embedded: dict = {}

    # -- root isolation ----------------------------------------------------

    def _isolate_initial(self) -> list[RatInterval]:
        spec = self.spec
        chain = spec.sturm
        b = spec.root_bound
        lo = Fraction(int(-b) - 1)
        hi = Fraction(int(b) + 1)
        stack = [(lo, hi)]
        found = []
        while stack:
            a, c = stack.pop()
            n = count_real_roots(chain, a, c)
            if n == 0:
                continue
            # an irreducible cubic has simple irrational roots, so a piece
            # with one root changes sign between its rational ends
            if n == 1:
                found.append(RatInterval(a, c))
                continue
            m = (a + c) / 2
            stack.append((a, m))
            stack.append((m, c))
        found.sort(key=lambda iv: iv.lo)
        assert len(found) == 3
        return found

    def _dyadic_sign(self, m: int, e: int) -> int:
        """The sign of p(m / 2^e), from 2^(3e) p(m / 2^e) by integer Horner."""
        c0, c1, c2, c3 = self.spec.int_coeffs
        v = ((c3 * m + (c2 << e)) * m + (c1 << 2 * e)) * m + (c0 << 3 * e)
        return (v > 0) - (v < 0)

    def refine_roots(self, bits: int) -> list[RatInterval]:
        """Isolating intervals bisected to the first width <= 2^-bits.

        The result is the unique element of the bisection chain from the
        initial isolation that crosses the width target, so nested
        refinement and determinism across request orders both follow. Every
        endpoint of the chain is dyadic, so an interval is bisected as
        integer numerators (a, b) over 2^e, which the snapshot keeps too.
        """
        snap = self._snapshots.get(bits)
        if snap is None:
            intervals, dyadic = [], []
            for start in self._initial:
                e = max(start.lo.denominator, start.hi.denominator).bit_length() - 1
                a, b = int(start.lo * 2**e), int(start.hi * 2**e)
                slo = self._dyadic_sign(a, e)
                while (b - a) << bits > 1 << e:
                    m, e = a + b, e + 1
                    a, b = (m, 2 * b) if self._dyadic_sign(m, e) == slo else (2 * a, m)
                intervals.append(RatInterval(Fraction(a, 1 << e), Fraction(b, 1 << e)))
                dyadic.append((a, b, e))
            snap = self._snapshots[bits] = (intervals, dyadic)
        return [snap[0][i] for i in self.order]

    # -- embeddings ---------------------------------------------------------

    def embed(self, x: FieldElement, bits: int) -> list[RatInterval]:
        """Certified enclosures of the three real embeddings, in slot order,
        computed once per (coordinates, bits); each call returns a new list
        of the same intervals, which no caller changes.

        The Horner steps (a2 t + a1) t + a0 run on integer numerators: with
        the coordinates a_i = n_i / D and t = [l, h] / 2^e, the first step's
        ends are min and max of n2 l, n2 h, plus n1 2^e, over D 2^e, and the
        second's are min and max of their products with l and h, plus
        n0 2^(2e), over D 2^(2e), the ends the rational interval product
        picks."""
        key = (x.coords, bits)
        enc = self._embedded.get(key)
        if enc is None:
            (n0, n1, n2), den = _scaled(x.coords)
            self.refine_roots(bits)  # makes the snapshot
            dyadic = self._snapshots[bits][1]
            enc = []
            for slot in self.order:
                lo, hi, e = dyadic[slot]
                p, q = n2 * lo, n2 * hi
                shift = n1 << e
                p, q = min(p, q) + shift, max(p, q) + shift
                products = (p * lo, p * hi, q * lo, q * hi)
                shift, scale = n0 << 2 * e, den << 2 * e
                enc.append(
                    RatInterval(
                        Fraction(min(products) + shift, scale),
                        Fraction(max(products) + shift, scale),
                    )
                )
            self._embedded[key] = enc
        return list(enc)

    def is_totally_positive(self, x: FieldElement) -> bool:
        try:
            self.embed_positive(x, self.cfg.start_bits)
        except NotTotallyPositive:
            return False
        return True

    def sign_det(self, x1: FieldElement, x2: FieldElement, x3: FieldElement) -> int:
        """Sign of det of the embedded column matrix; exactly 0 iff the three
        elements are linearly dependent over Q, which the determinant of
        their integer coordinate numerators decides."""
        cols = [_int_vec(x.coords) for x in (x1, x2, x3)]
        if det3([[c[i] for c in cols] for i in range(3)]) == 0:
            return 0
        return self._det_sign((x1, x2, x3), "determinant sign undecided")

    def _det_sign(self, columns, undecided: str) -> int:
        """Certified sign of det of the embedded column matrix, a None column
        being e1; raises PrecisionExhausted(undecided) when the determinant
        stays straddling zero up to the precision cap.

        Each column's three enclosures are put on integer numerators over
        one common positive denominator (`_int_column`). Scaling a column by
        a positive number scales every exact interval product and sum of the
        expansion, so the interval determinant, by the same number:
        `interval_det3` of the numerators has the sign of the rational
        interval determinant at every rung, and the same rung decides."""
        for bits in self.cfg.ladder():
            cols = [_E1 if x is None else self._int_column(x, bits) for x in columns]
            lo, hi = interval_det3([[c[r] for c in cols] for r in range(3)])
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise PrecisionExhausted(undecided)

    def _int_column(self, x: FieldElement, bits: int):
        """The enclosures of `embed(x, bits)` as integer (lo, hi) numerators
        over the lcm of their denominators."""
        n = _int_vec([v for e in self.embed(x, bits) for v in (e.lo, e.hi)])
        return (n[0], n[1]), (n[2], n[3]), (n[4], n[5])

    def delta_bracket(self, u1: FieldElement, u2: FieldElement) -> int:
        """delta([u1 | u2]) = sign det of the embedded (1, u1, u1*u2)."""
        one = self.spec.one
        return self.sign_det(one, u1, u1 * u2)

    def e1_coordinate_signs(self, gens: list[FieldElement]) -> list[int]:
        """Signs of the coordinates of e1 (first slot's standard basis vector)
        in the embedded generator basis of a full-dimensional cone.

        By Cramer, sign(d_i) = sign(det M_i) * sign(det M) with M_i the
        embedded matrix with column i replaced by e1. det M is certified
        nonzero via the rational rank test; the replaced determinants are
        real-algebraic and refined until nonzero, so exact alignment of e1
        with a face raises PrecisionExhausted.
        """
        base = self.sign_det(gens[0], gens[1], gens[2])
        if base == 0:
            raise ValueError("generators are linearly dependent")
        return [
            base * self._det_sign(
                [None if c == i else g for c, g in enumerate(gens)],
                "e1 is aligned with a face of the cone",
            )
            for i in range(3)
        ]

    def e1_outside_span(self, gens: list[FieldElement]) -> None:
        """Certify that e1 is not in the real span of <= 2 embedded
        generators; PrecisionExhausted when the sign stays undecided."""
        if len(gens) == 1:
            # e1 = c*sigma(v) would force two embeddings of v to vanish
            return
        self._det_sign((None, *gens), "e1 possibly inside the span of a face")

    # -- logarithmic data ---------------------------------------------------

    def embed_positive(self, x: FieldElement, bits: int) -> list[RatInterval]:
        """Enclosures refined up the precision ladder from `bits` until
        certified strictly positive. A certified negative embedding, or
        x = 0, raises NotTotallyPositive; a nonzero element has no zero
        embedding, so only the precision cap (or a request above it) leaves
        the sign open."""
        if x.is_zero():
            raise NotTotallyPositive("0 is not totally positive")
        for work in self.cfg.ladder(bits):
            enc = self.embed(x, work)
            if all(e.lo > 0 for e in enc):
                return enc
            if any(e.hi < 0 for e in enc):
                raise NotTotallyPositive(f"{x!r} has a negative embedding")
        raise PrecisionExhausted(f"embeddings not separated from zero at {self.cfg.max_bits} bits")

    def log_embed(self, x: FieldElement, bits: int):
        """Enclosures of log sigma_i(x), intervals of signed endpoints at
        `work_prec(bits)`."""
        enc = self.embed_positive(x, bits)
        return [iv_log_fraction(e.lo, e.hi, bits) for e in enc]

    def project_H(self, x: FieldElement, bits: int):
        """Enclosures of the embeddings of z_H = (z1 z2 z3)^(-1/3) * z."""
        prec = work_prec(bits)
        logs = trace_zero(self.log_embed(x, bits), prec)
        return [signed_iv(mpi_exp(raw_iv(v), prec)) for v in logs]


def work_prec(bits: int) -> int:
    """The precision, with 16 guard bits, of every interval at `bits`."""
    return max(bits, 64) + 16


# -- signed integer endpoints -------------------------------------------------
#
# An endpoint is a pair (m, e) of ints for m 2^e: the mantissa m carries the
# sign and need not be odd, and every (0, e) is zero. An interval is a pair
# (lo, hi) of endpoints; the endpoint kernels take each operand as its m and
# its e. mpmath's add, mul and div round the exact result in the floor and
# ceiling modes, so each kernel below, which rounds the exact result once,
# gives the value mpmath gives. Rounding to `prec` bits drops the
# n = m.bit_length() - prec low bits: m >> n rounds down and -(-m >> n) up,
# for either sign, since >> floors and bit_length ignores the sign. `ceil`
# is 0 for round_floor and 1 for round_ceiling. mpmath itself takes a zero
# operand, an interval product or quotient with a zero endpoint or a
# zero-straddling operand, and an addition whose exponents differ by over
# 100 while its magnitudes lie over prec + 4 bits apart: there mpmath rounds
# a perturbed operand instead of the sum. That test reads mpmath's
# exponents, those of the odd mantissas.

_RND = (round_floor, round_ceiling)


def signed(x):
    """The endpoint of a finite raw mpf (sign, man, exp, bc)."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def signed_iv(v):
    """The interval of signed endpoints of a finite raw interval."""
    return signed(v[0]), signed(v[1])


def raw_iv(s):
    """The raw interval, canonical mpfs, of an interval of signed endpoints."""
    return from_man_exp(*s[0]), from_man_exp(*s[1])


def iv_int(n: int, prec: int):
    """The interval of the integer n at `prec` bits, its ends rounded
    outward as `from_int` rounds them at floor and ceiling."""
    k = n.bit_length() - prec
    if k <= 0:
        return (n, 0), (n, 0)
    return (n >> k, k), (-(-n >> k), k)


def cmp_ep(p, q) -> int:
    """The sign of p - q for endpoints p and q, exactly."""
    (pm, pe), (qm, qe) = p, q
    e = min(pe, qe)
    d = (pm << pe - e) - (qm << qe - e)
    return (d > 0) - (d < 0)


def _perturbs(xm: int, xe: int, ym: int, ye: int, prec: int) -> bool:
    """Whether `mpf_add` rounds x + y, both nonzero, by perturbing: the top
    bits lie over prec + 4 apart and the exponents of the odd mantissas
    (m & -m is the lowest set bit of m) over 100."""
    gap = xe + xm.bit_length() - ye - ym.bit_length()
    if -4 - prec <= gap <= prec + 4:
        return False
    d = xe + (xm & -xm).bit_length() - ye - (ym & -ym).bit_length()
    return d > 100 or d < -100


def add_ep(xm: int, xe: int, ym: int, ye: int, prec: int, ceil: int):
    """xm 2^xe + ym 2^ye rounded to `prec` bits, the endpoint of the value
    `mpf_add` gives. A sum that mpmath perturbs has over prec + 4 bits, so
    only such a sum is tested."""
    if xm and ym:
        if xe > ye:
            m, e = (xm << xe - ye) + ym, ye
        else:
            m, e = xm + (ym << ye - xe), xe
        n = m.bit_length() - prec
        if n <= 0:
            return m, e
        if n <= 4 or not _perturbs(xm, xe, ym, ye, prec):
            return (-(-m >> n) if ceil else m >> n), e + n
    return signed(mpf_add(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND[ceil]))


def mul_ep(xm: int, xe: int, ym: int, ye: int, prec: int, ceil: int):
    """xm 2^xe * ym 2^ye rounded to `prec` bits, the endpoint of the value
    `mpf_mul` gives."""
    if not (xm and ym):
        return signed(mpf_mul(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND[ceil]))
    m = xm * ym
    n = m.bit_length() - prec
    if n > 0:
        return (-(-m >> n) if ceil else m >> n), xe + ye + n
    return m, xe + ye


def div_ep(xm: int, xe: int, ym: int, ye: int, prec: int, ceil: int):
    """xm 2^xe / ym 2^ye rounded to `prec` bits, the endpoint of the value
    `mpf_div` gives: the floored quotient to at least prec + 4 bits, then
    one sticky bit for a nonzero remainder, which keeps the exact
    quotient's side of every rounding boundary."""
    if not (xm and ym):
        return signed(mpf_div(from_man_exp(xm, xe), from_man_exp(ym, ye), prec, _RND[ceil]))
    extra = max(prec - xm.bit_length() + ym.bit_length() + 5, 5)
    q, r = divmod(xm << extra, ym)
    if r:
        q = q << 1 | 1
        extra += 1
    n = q.bit_length() - prec
    return (-(-q >> n) if ceil else q >> n), xe - ye - extra + n


def add_iv(s, t, prec: int):
    """The interval sum, as `mpi_add` gives it."""
    (am, ae), (bm, be) = s
    (cm, ce), (dm, de) = t
    return add_ep(am, ae, cm, ce, prec, 0), add_ep(bm, be, dm, de, prec, 1)


def sub_iv(s, t, prec: int):
    """The interval difference, as `mpi_sub` gives it."""
    (am, ae), (bm, be) = s
    (cm, ce), (dm, de) = t
    return add_ep(am, ae, -dm, de, prec, 0), add_ep(bm, be, -cm, ce, prec, 1)


def mul_iv(s, t, prec: int):
    """The interval product, as `mpi_mul` gives it; the endpoint products
    are picked by sign when each operand is of one strict sign."""
    (am, ae), (bm, be) = s
    (cm, ce), (dm, de) = t
    if am > 0:
        if cm > 0:
            return mul_ep(am, ae, cm, ce, prec, 0), mul_ep(bm, be, dm, de, prec, 1)
        if dm < 0:
            return mul_ep(bm, be, cm, ce, prec, 0), mul_ep(am, ae, dm, de, prec, 1)
    elif bm < 0:
        if cm > 0:
            return mul_ep(am, ae, dm, de, prec, 0), mul_ep(bm, be, cm, ce, prec, 1)
        if dm < 0:
            return mul_ep(bm, be, dm, de, prec, 0), mul_ep(am, ae, cm, ce, prec, 1)
    return signed_iv(mpi_mul(raw_iv(s), raw_iv(t), prec))


def div_iv(s, t, prec: int):
    """The interval quotient, as `mpi_div` gives it, for a denominator of
    one strict sign; the endpoint quotients are picked by sign when the
    numerator is of one strict sign too. A denominator with a zero endpoint
    or across zero, which `mpi_div` answers with an infinite endpoint,
    raises ZeroDivisionError."""
    (am, ae), (bm, be) = s
    (cm, ce), (dm, de) = t
    if cm > 0:
        if am > 0:
            return div_ep(am, ae, dm, de, prec, 0), div_ep(bm, be, cm, ce, prec, 1)
        if bm < 0:
            return div_ep(am, ae, cm, ce, prec, 0), div_ep(bm, be, dm, de, prec, 1)
    elif dm < 0:
        if am > 0:
            return div_ep(bm, be, dm, de, prec, 0), div_ep(am, ae, cm, ce, prec, 1)
        if bm < 0:
            return div_ep(bm, be, cm, ce, prec, 0), div_ep(am, ae, dm, de, prec, 1)
    else:
        raise ZeroDivisionError("interval quotient by an interval containing zero")
    return signed_iv(mpi_div(raw_iv(s), raw_iv(t), prec))


def neg_iv(s):
    """The interval -s, exactly."""
    (am, ae), (bm, be) = s
    return (-bm, be), (-am, ae)


def dot_iv(xs, ys, prec: int):
    """The sum of the products x_i y_i of two interval vectors, added left to
    right."""
    acc = mul_iv(xs[0], ys[0], prec)
    for x, y in zip(xs[1:], ys[1:]):
        acc = add_iv(acc, mul_iv(x, y, prec), prec)
    return acc


def log_ep(p, prec: int, ceil: int):
    """log of a positive endpoint rounded to `prec` bits, the value `mpf_log`
    gives, by `mpf_log`'s own integer steps: with the endpoint's bit length
    bc and magnitude mag = e + bc, at wp = prec + 20 bits plus, when
    |mag| <= 1, the bits `mpf_log` counts as cancelled, the fixed-point
    `log_taylor_cached` of m shifted to wp bits, plus mag ln 2, rounded once.
    The shifted m, mag and the cancellation are those of m's odd part, so m
    need not be odd. A power of two, |mag| > 10000, a cancellation over
    prec + 20 bits (where mpmath perturbs) and wp past `LOG_TAYLOR_PREC`
    go to `mpf_log` itself, on the canonical mpf."""
    m, e = p
    bc = m.bit_length()
    mag = e + bc
    wp = prec + 20
    if -1 <= mag <= 1:
        wp += bc - ((1 << bc) - m if mag == 0 else m - (1 << bc - 1)).bit_length()
    # wp <= 2 prec + 40 keeps the cancellation within prec + 20 bits
    if m & (m - 1) and wp <= LOG_TAYLOR_PREC and wp <= 2 * prec + 40 and -10000 <= mag <= 10000:
        r = log_taylor_cached(m << wp - bc if wp >= bc else m >> bc - wp, wp)
        if mag:
            r += mag * ln2_fixed(wp)
        n = r.bit_length() - prec
        if n > 0:
            return (-(-r >> n) if ceil else r >> n), n - wp
        return r, -wp
    z = (m & -m).bit_length() - 1
    m >>= z
    sign, man, exp, _ = mpf_log((0, m, e + z, m.bit_length()), prec, _RND[ceil])
    return (-man if sign else man), exp


def iv_fraction(lo: Fraction, hi: Fraction, bits: int):
    """The interval of signed endpoints enclosing the rational interval
    [lo, hi] at `work_prec(bits)`: per end, the quotient of its numerator
    and denominator, each first rounded outward to the precision."""
    prec = work_prec(bits)
    a = div_iv(iv_int(lo.numerator, prec), iv_int(lo.denominator, prec), prec)
    b = a if hi == lo else div_iv(iv_int(hi.numerator, prec), iv_int(hi.denominator, prec), prec)
    return a[0], b[1]


def iv_log_fraction(lo: Fraction, hi: Fraction, bits: int):
    """The log of `iv_fraction(lo, hi, bits)`, for 0 < lo."""
    prec = work_prec(bits)
    a, b = iv_fraction(lo, hi, bits)
    return log_ep(a, prec, 0), log_ep(b, prec, 1)


def trace_zero(logs, prec: int):
    """The trace-zero part of a log 3-vector at `prec`: each entry less the
    mean of the three."""
    t = div_iv(add_iv(add_iv(logs[0], logs[1], prec), logs[2], prec), iv_int(3, prec), prec)
    return [sub_iv(v, t, prec) for v in logs]


def float_ep(p) -> float:
    """An endpoint (m, e) rounded to the nearest double (53 bits, ties to
    even), as `to_float(from_man_exp(m, e, 53, round_nearest))` gives it.
    When m 2^e, in [2^(e+n-1), 2^(e+n)] once rounded with n the bit length
    of m, is a normal double, `float(m)` rounds m the same way and `ldexp`
    scales it exactly; the rest goes to mpmath."""
    m, e = p
    n = m.bit_length()
    if n < 1024 and -1021 <= e + n <= 1023:
        return math.ldexp(float(m), e)
    return to_float(from_man_exp(m, e, 53, round_nearest))


def iv_mid_err(s) -> tuple[float, float]:
    """Midpoint and radius of an interval, as floats from its ends rounded to
    doubles: in the normal double range, those of 53-bit mpfs."""
    fa, fb = float_ep(s[0]), float_ep(s[1])
    return (fa + fb) / 2, abs((fb - fa) / 2)


def iv_sign(s):
    """+1/-1 when an interval of signed endpoints excludes zero, else None."""
    if s[0][0] > 0:
        return 1
    if s[1][0] < 0:
        return -1
    return None
