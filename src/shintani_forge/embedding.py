"""Certified real embeddings of a cubic field.

Roots of the defining polynomial are isolated with Sturm counts and refined
by dyadic bisection; embeddings are evaluated in exact rational interval
arithmetic, so every enclosure is sound by construction. Logarithms are the
only transcendental step and are delegated to mpmath interval contexts, one
per working precision; each interval number computes at its own context's
precision, so no global mpmath state is set or read.

The three embeddings are labeled sigma_1, sigma_2, sigma_3 by ascending root
by default. A scenario may re-label them with an `order` permutation; the
permutation is applied on top of the ascending order, and all downstream
coordinate-indexed conditions read the permuted labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

from .errors import NotTotallyPositive, PrecisionExhausted
from .field import FieldElement, FieldSpec, count_real_roots, det3, _poly_eval

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
    permutation leaves every determinant sign unchanged.
    """

    def __init__(self, spec: FieldSpec, order: tuple[int, int, int] = (0, 1, 2)):
        if sorted(order) != [0, 1, 2]:
            raise ValueError("order must be a permutation of (0, 1, 2)")
        self.spec = spec
        self.order = tuple(order)
        self._initial: list[RatInterval] = self._isolate_initial()
        # bits -> ascending-root interval list; every entry lies on the
        # deterministic bisection chain from the initial isolation, so the
        # enclosure at a given bit level never depends on request history
        self._snapshots: dict[int, list[RatInterval]] = {}

    # -- root isolation ----------------------------------------------------

    def _poly_sign(self, x: Fraction) -> int:
        v = _poly_eval([Fraction(c) for c in self.spec.int_coeffs], x)
        return 0 if v == 0 else (1 if v > 0 else -1)

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
            if n == 1 and self._poly_sign(a) * self._poly_sign(c) < 0:
                found.append(RatInterval(a, c))
                continue
            m = (a + c) / 2
            # irreducibility rules out rational roots, so m is never a root
            stack.append((a, m))
            stack.append((m, c))
        found.sort(key=lambda iv: iv.lo)
        assert len(found) == 3
        return found

    def refine_roots(self, bits: int) -> list[RatInterval]:
        """Isolating intervals bisected to the first width <= 2^-bits.

        The result is the unique element of the bisection chain crossing the
        width target, computed from the deepest cached chain ancestor; nested
        refinement and determinism across request orders both follow.
        """
        snap = self._snapshots.get(bits)
        if snap is None:
            target = Fraction(1, 2**bits)
            snap = []
            for idx, start in enumerate(self._initial):
                for cached in sorted(self._snapshots, reverse=True):
                    cand = self._snapshots[cached][idx]
                    if cand.width() > target:
                        start = cand
                        break
                lo, hi = start.lo, start.hi
                slo = self._poly_sign(lo)
                while hi - lo > target:
                    m = (lo + hi) / 2
                    if self._poly_sign(m) == slo:
                        lo = m
                    else:
                        hi = m
                snap.append(RatInterval(lo, hi))
            self._snapshots[bits] = snap
        return [snap[i] for i in self.order]

    # -- embeddings ---------------------------------------------------------

    def embed(self, x: FieldElement, bits: int) -> list[RatInterval]:
        """Certified enclosures of the three real embeddings, in slot order."""
        roots = self.refine_roots(bits)
        a0, a1, a2 = x.coords
        out = []
        for t in roots:
            acc = RatInterval.point(a2)
            acc = acc * t + RatInterval.point(a1)
            acc = acc * t + RatInterval.point(a0)
            out.append(acc)
        return out

    def is_totally_positive(self, x: FieldElement, cfg: SignConfig) -> bool:
        if x.is_zero():
            return False
        for bits in cfg.ladder():
            enc = self.embed(x, bits)
            signs = [e.sign() for e in enc]
            if all(s == 1 for s in signs):
                return True
            if any(s == -1 for s in signs):
                return False
        raise PrecisionExhausted("total positivity undecided")  # pragma: no cover

    def sign_det(
        self, x1: FieldElement, x2: FieldElement, x3: FieldElement, cfg: SignConfig
    ) -> int:
        """Sign of det of the embedded column matrix; exactly 0 iff the three
        elements are linearly dependent over Q."""
        coord_m = [[x.coords[i] for x in (x1, x2, x3)] for i in range(3)]
        if det3(coord_m) == 0:
            return 0
        return self._det_sign((x1, x2, x3), cfg, "determinant sign undecided")

    def _det_sign(self, columns, cfg: SignConfig, undecided: str) -> int:
        """Certified sign of det of the embedded column matrix, a None column
        being e1; raises PrecisionExhausted(undecided) when the determinant
        stays straddling zero up to the precision cap."""
        for bits in cfg.ladder():
            cols = [_E1 if x is None else self.embed(x, bits) for x in columns]
            s = interval_det3([[c[r] for c in cols] for r in range(3)]).sign()
            if s is not None:
                return s
        raise PrecisionExhausted(undecided)

    def delta_bracket(self, u1: FieldElement, u2: FieldElement, cfg: SignConfig) -> int:
        """delta([u1 | u2]) = sign det of the embedded (1, u1, u1*u2)."""
        one = self.spec.one
        return self.sign_det(one, u1, u1 * u2, cfg)

    def e1_coordinate_signs(self, gens: list[FieldElement], cfg: SignConfig) -> list[int]:
        """Signs of the coordinates of e1 (first slot's standard basis vector)
        in the embedded generator basis of a full-dimensional cone.

        By Cramer, sign(d_i) = sign(det M_i) * sign(det M) with M_i the
        embedded matrix with column i replaced by e1. det M is certified
        nonzero via the rational rank test; the replaced determinants are
        real-algebraic and refined until nonzero, so exact alignment of e1
        with a face raises PrecisionExhausted.
        """
        base = self.sign_det(gens[0], gens[1], gens[2], cfg)
        if base == 0:
            raise ValueError("generators are linearly dependent")
        return [
            base * self._det_sign(
                [None if c == i else g for c, g in enumerate(gens)],
                cfg,
                "e1 is aligned with a face of the cone",
            )
            for i in range(3)
        ]

    def e1_outside_span(self, gens: list[FieldElement], cfg: SignConfig) -> bool:
        """Certify that e1 is not in the real span of <= 2 embedded generators."""
        if len(gens) == 1:
            # e1 = c*sigma(v) would force two embeddings of v to vanish
            return True
        self._det_sign((None, *gens), cfg, "e1 possibly inside the span of a face")
        return True

    # -- logarithmic data ---------------------------------------------------

    def embed_positive(self, x: FieldElement, bits: int) -> list[RatInterval]:
        """Enclosures refined until certified strictly positive (embeddings
        of a totally positive element always separate from zero; a nonzero
        element has no zero embedding, so the refinement always ends)."""
        if x.is_zero():
            raise NotTotallyPositive("0 is not totally positive")
        work = bits
        for _ in range(64):
            enc = self.embed(x, work)
            if all(e.lo > 0 for e in enc):
                return enc
            if any(e.hi < 0 for e in enc):
                raise NotTotallyPositive(f"{x!r} has a negative embedding")
            work *= 2
        raise PrecisionExhausted("could not separate embeddings from zero")

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


# float read-outs round through this double-precision context rather than
# the caller's mpmath.mp
_FLOAT = MPContext()


def iv_fraction(lo: Fraction, hi: Fraction, bits: int):
    """mpmath interval enclosing the rational interval [lo, hi]."""
    iv = iv_context(bits)
    a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([a.a, b.b])


def iv_log_fraction(lo: Fraction, hi: Fraction, bits: int):
    return iv_context(bits).log(iv_fraction(lo, hi, bits))


def trace_zero(logs):
    """The trace-zero part of a log 3-vector, at its entries' precision."""
    t = (logs[0] + logs[1] + logs[2]) / 3
    return [v - t for v in logs]


def iv_lower(v) -> float:
    """Lower endpoint of an mpmath interval, as a float."""
    return float(_FLOAT.mpf(v.a))


def iv_mid_err(v) -> tuple[float, float]:
    """Midpoint and radius of an mpmath interval, as floats."""
    mid = (_FLOAT.mpf(v.a) + _FLOAT.mpf(v.b)) / 2
    rad = (_FLOAT.mpf(v.b) - _FLOAT.mpf(v.a)) / 2
    return float(mid), abs(float(rad))


def iv_sign(v):
    """+1/-1 when the mpmath interval excludes zero, else None."""
    if v.a > 0:
        return 1
    if v.b < 0:
        return -1
    return None
