"""Certified real embeddings of a cubic field.

Roots of the defining polynomial are isolated with Sturm counts and refined
by dyadic bisection; embeddings are evaluated in exact rational interval
arithmetic, so every enclosure is sound by construction. The bisection and
the embedding Horner run on integers: a refined root is a pair of numerators
over 2^e, an element's coordinates are numerators over their common
denominator D, and each enclosure endpoint is one numerator over D 2^(2e),
chosen as the rational interval product would choose it and turned into a
`Fraction` once. Logarithms are the
only transcendental step and are delegated to mpmath, one interval context
per working precision. The interval helpers below and the plane kernels run
on raw (lo, hi) endpoints at their context's precision, with the
operations and roundings the context would apply, so their intervals are
bit-identical to the context arithmetic without its conversion overhead.
The plane kernels' additions, products and quotients go through the exact
directed-rounding kernels below, which compute on the raw mpf tuples
(sign, man, exp, bc) and give the tuple `mpmath.libmp` gives; zeros,
zero-straddling intervals and additions across exponent gaps over 100 that
mpmath rounds by perturbing go to `mpmath.libmp` itself. Float read-outs
round each endpoint to the nearest double, with `math.ldexp` when the
result is a normal double. Every interval computes at its own context's
precision, so no global mpmath state is set or read.

The three embeddings are labeled sigma_1, sigma_2, sigma_3 by ascending root
by default. A scenario may re-label them with an `order` permutation; the
permutation is applied on top of the ascending order, and all downstream
coordinate-indexed conditions read the permuted labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pos,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
)

from .errors import NotTotallyPositive, PrecisionExhausted
from .field import FieldElement, FieldSpec, _scaled, count_real_roots, det3

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
        """The mpmath interval enclosing this one at precision `bits`,
        converted once per precision."""
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

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

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

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def sign(self):
        """+1, -1, or None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None


def interval_det3(m: list[list[RatInterval]]) -> RatInterval:
    return det3(m)


# the embedded first standard basis vector e1, which a None column stands for
# in RealEmbeddings._det_sign
_E1 = [RatInterval.point(1), RatInterval.point(0), RatInterval.point(0)]


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
        elements are linearly dependent over Q."""
        coord_m = [[x.coords[i] for x in (x1, x2, x3)] for i in range(3)]
        if det3(coord_m) == 0:
            return 0
        return self._det_sign((x1, x2, x3), "determinant sign undecided")

    def _det_sign(self, columns, undecided: str) -> int:
        """Certified sign of det of the embedded column matrix, a None column
        being e1; raises PrecisionExhausted(undecided) when the determinant
        stays straddling zero up to the precision cap."""
        for bits in self.cfg.ladder():
            cols = [_E1 if x is None else self.embed(x, bits) for x in columns]
            s = interval_det3([[c[r] for c in cols] for r in range(3)]).sign()
            if s is not None:
                return s
        raise PrecisionExhausted(undecided)

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
        """Interval enclosures of log sigma_i(x) as mpmath iv numbers."""
        enc = self.embed_positive(x, bits)
        return [iv_log_fraction(e.lo, e.hi, bits) for e in enc]

    def project_H(self, x: FieldElement, bits: int):
        """Enclosures of the embeddings of z_H = (z1 z2 z3)^(-1/3) * z."""
        logs = trace_zero(self.log_embed(x, bits))
        return [iv_context(bits).exp(v) for v in logs]


# -- mpmath interval helpers -------------------------------------------------


@lru_cache(maxsize=None)
def iv_context(bits: int) -> MPIntervalContext:
    """The mpmath interval context for working precision `bits`, with guard
    bits; a binary operation runs at its left operand's context."""
    iv = MPIntervalContext()
    iv.prec = max(bits, 64) + 16
    return iv


def iv_int(n: int, prec: int):
    """Raw endpoints of the integer n at `prec`, rounded outward as the
    interval context's `mpf(n)` rounds them."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


# -- exact directed-rounding kernels on raw mpfs ------------------------------
#
# A raw mpf is mpmath's tuple (sign, man, exp, bc) for (-1)^sign man 2^exp; a
# nonzero finite one has an odd mantissa and its exact bit count, zero is
# `fzero`, and the special values have man 0 and exp != 0. mpmath's add, mul
# and div round the exact result in the floor and ceiling modes, and a
# canonical tuple is unique, so each kernel below, which rounds the exact
# result once, returns the very tuple mpmath returns. `ceil` is 0 for
# round_floor and 1 for round_ceiling. A zero or special operand goes to
# mpmath itself, and so does an addition whose exponents differ by over 100
# while its magnitudes lie over prec + 4 bits apart: there mpmath rounds a
# perturbed operand instead of the sum.

_RND = (round_floor, round_ceiling)


def _rounded(sign: int, man: int, exp: int, prec: int, up: int):
    """The canonical mpf of (-1)^sign man 2^exp, man > 0, rounded to `prec`
    bits away from zero when `up`, else toward zero."""
    n = man.bit_length() - prec
    if n > 0:
        man = -(-man >> n) if up else man >> n
        exp += n
    if man & 1:
        return sign, man, exp, man.bit_length()
    z = (man & -man).bit_length() - 1
    man >>= z
    return sign, man, exp + z, man.bit_length()


def add_rounded(s, t, prec: int, ceil: int, sub: int = 0):
    """s + t, or s - t when `sub`, as `mpf_add(s, t, prec, rnd, sub)` gives it."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    d = sexp - texp
    if not (sman and tman) or ((d > 100 or d < -100) and abs(d + sbc - tbc) > prec + 4):
        return mpf_add(s, t, prec, _RND[ceil], sub)
    if d > 0:
        sman <<= d
        exp = texp
    else:
        tman <<= -d
        exp = sexp
    if ssign == tsign ^ sub:
        return _rounded(ssign, sman + tman, exp, prec, ssign ^ ceil)
    m = sman - tman
    if m > 0:
        return _rounded(ssign, m, exp, prec, ssign ^ ceil)
    if m < 0:
        return _rounded(ssign ^ 1, -m, exp, prec, ssign ^ ceil ^ 1)
    return fzero


def mul_rounded(s, t, prec: int, ceil: int):
    """s * t as `mpf_mul(s, t, prec, rnd)` gives it."""
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    if not (sman and tman):
        return mpf_mul(s, t, prec, _RND[ceil])
    sign = ssign ^ tsign
    return _rounded(sign, sman * tman, sexp + texp, prec, sign ^ ceil)


def div_rounded(s, t, prec: int, ceil: int):
    """s / t as `mpf_div(s, t, prec, rnd)` gives it: the quotient to at least
    prec + 4 bits, with a sticky bit for a nonzero remainder."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman):
        return mpf_div(s, t, prec, _RND[ceil])
    sign = ssign ^ tsign
    extra = max(prec - sbc + tbc + 5, 5)
    q, r = divmod(sman << extra, tman)
    if r:
        q = q << 1 | 1
        extra += 1
    return _rounded(sign, q, sexp - texp - extra, prec, sign ^ ceil)


def iv_add(s, t, prec: int):
    """The raw interval `mpi_add(s, t, prec)`."""
    (sa, sb), (ta, tb) = s, t
    if sa[1] and sb[1] and ta[1] and tb[1]:
        return add_rounded(sa, ta, prec, 0), add_rounded(sb, tb, prec, 1)
    return mpi_add(s, t, prec)


def iv_sub(s, t, prec: int):
    """The raw interval `mpi_sub(s, t, prec)`."""
    (sa, sb), (ta, tb) = s, t
    if sa[1] and sb[1] and ta[1] and tb[1]:
        return add_rounded(sa, tb, prec, 0, 1), add_rounded(sb, ta, prec, 1, 1)
    return mpi_sub(s, t, prec)


def iv_mul(s, t, prec: int):
    """The raw interval `mpi_mul(s, t, prec)`; the endpoint products are
    picked by sign when each operand is of one strict sign."""
    (sa, sb), (ta, tb) = s, t
    if not (sa[1] and sb[1] and ta[1] and tb[1] and sa[0] == sb[0] and ta[0] == tb[0]):
        return mpi_mul(s, t, prec)
    if sa[0]:
        if ta[0]:
            return mul_rounded(sb, tb, prec, 0), mul_rounded(sa, ta, prec, 1)
        return mul_rounded(sa, tb, prec, 0), mul_rounded(sb, ta, prec, 1)
    if ta[0]:
        return mul_rounded(sb, ta, prec, 0), mul_rounded(sa, tb, prec, 1)
    return mul_rounded(sa, ta, prec, 0), mul_rounded(sb, tb, prec, 1)


def iv_div(s, t, prec: int):
    """The raw interval `mpi_div(s, t, prec)`; the endpoint quotients are
    picked by sign when each operand is of one strict sign."""
    (sa, sb), (ta, tb) = s, t
    if not (sa[1] and sb[1] and ta[1] and tb[1] and sa[0] == sb[0] and ta[0] == tb[0]):
        return mpi_div(s, t, prec)
    if ta[0]:
        if sa[0]:
            return div_rounded(sb, ta, prec, 0), div_rounded(sa, tb, prec, 1)
        return div_rounded(sb, tb, prec, 0), div_rounded(sa, ta, prec, 1)
    if sa[0]:
        return div_rounded(sa, ta, prec, 0), div_rounded(sb, tb, prec, 1)
    return div_rounded(sa, tb, prec, 0), div_rounded(sb, ta, prec, 1)


def iv_fraction(lo: Fraction, hi: Fraction, bits: int):
    """mpmath interval enclosing the rational interval [lo, hi]."""
    iv = iv_context(bits)
    prec = iv.prec
    a = mpi_div(iv_int(lo.numerator, prec), iv_int(lo.denominator, prec), prec)
    b = a if hi == lo else mpi_div(iv_int(hi.numerator, prec), iv_int(hi.denominator, prec), prec)
    return iv.make_mpf((a[0], b[1]))


def iv_log_fraction(lo: Fraction, hi: Fraction, bits: int):
    iv = iv_context(bits)
    return iv.make_mpf(mpi_log(iv_fraction(lo, hi, bits)._mpi_, iv.prec))


def trace_zero(logs):
    """The trace-zero part of a log 3-vector, at its entries' precision."""
    t = (logs[0] + logs[1] + logs[2]) / 3
    return [v - t for v in logs]


def _float(x) -> float:
    """A raw mpf rounded to the nearest double (53 bits, ties to even), as
    `to_float(mpf_pos(x, 53, round_nearest))` gives it. When the magnitude
    man 2^exp, in [2^(exp+bc-1), 2^(exp+bc)] once rounded, is a normal double,
    `float(man)` rounds the mantissa the same way and `ldexp` scales it
    exactly; zero, special values and the rest go to mpmath."""
    sign, man, exp, bc = x
    if man and bc < 1024 and -1021 <= exp + bc <= 1023:
        f = math.ldexp(float(man), exp)
        return -f if sign else f
    return to_float(mpf_pos(x, 53, round_nearest))


def iv_lower(v) -> float:
    """Lower endpoint of an mpmath interval, as a float."""
    return _float(v._mpi_[0])


def iv_mid_err(v) -> tuple[float, float]:
    """Midpoint and radius of an mpmath interval, as floats. The endpoints
    are rounded to doubles first; in the normal double range the float sum,
    difference and halving then equal those of 53-bit mpfs."""
    a, b = v._mpi_
    fa, fb = _float(a), _float(b)
    return (fa + fb) / 2, abs((fb - fa) / 2)


def iv_sign(v):
    """+1/-1 when the mpmath interval excludes zero, else None."""
    if v.a > 0:
        return 1
    if v.b < 0:
        return -1
    return None
