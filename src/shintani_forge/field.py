"""Exact arithmetic in a totally real cubic field presented by an integer
defining polynomial c3*x^3 + c2*x^2 + c1*x + c0 (c3 may differ from 1).

Elements are stored as exact rational coordinates (a0, a1, a2) with respect
to the power basis 1, y, y^2 of the generator y itself; no rescaling to an
algebraic integer is performed, so the coordinates of published data can be
used verbatim.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotTotallyReal, ZeroInversion

Rat = Fraction


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _int_vec(coords) -> tuple[int, ...]:
    """Scale rational coordinates by the lcm of their denominators."""
    den = 1
    for c in coords:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return tuple(int(c * den) for c in coords)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _poly_deg(coeffs: Sequence[Fraction]) -> int:
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def _poly_rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = list(a)
    db = _poly_deg(b)
    lb = b[db]
    while _poly_deg(a) >= db:
        da = _poly_deg(a)
        q = a[da] / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
    return a


def sturm_chain(coeffs: Sequence[Fraction]) -> list[list[Fraction]]:
    """Sturm sequence of a squarefree polynomial over the rationals."""
    chain = [list(coeffs), _poly_deriv(coeffs)]
    while _poly_deg(chain[-1]) >= 0:
        r = _poly_rem(chain[-2], chain[-1])
        if _poly_deg(r) < 0:
            break
        chain.append([-c for c in r])
    return chain


def sturm_variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return sturm_variations(chain, lo) - sturm_variations(chain, hi)


def _has_rational_root(int_coeffs: Sequence[int]) -> bool:
    # rational root theorem on the integer model; a cubic is reducible over Q
    # exactly when it has a rational root
    c0, c3 = int_coeffs[0], int_coeffs[3]
    if c0 == 0:
        return True

    def divisors(n: int) -> Iterable[int]:
        n = abs(n)
        for d in range(1, n + 1):
            if d * d > n:
                break
            if n % d == 0:
                yield d
                yield n // d

    for p in divisors(c0):
        for q in divisors(c3):
            for s in (1, -1):
                if _poly_eval([Fraction(c) for c in int_coeffs], Fraction(s * p, q)) == 0:
                    return True
    return False


class FieldSpec:
    """A totally real cubic field Q(y) with y a root of the defining polynomial.

    Validates irreducibility over Q and that all three roots are real and
    distinct (Sturm count). Immutable.
    """

    def __init__(self, poly_coeffs: Sequence):
        coeffs = tuple(_as_fraction(c) for c in poly_coeffs)
        if len(coeffs) != 4 or coeffs[3] == 0:
            raise ValueError("defining polynomial must be cubic (four coefficients, c3 != 0)")
        int_coeffs = _int_vec(coeffs)
        if _has_rational_root(int_coeffs):
            raise ValueError("defining polynomial is reducible over Q")
        chain = sturm_chain([Fraction(c) for c in int_coeffs])
        bound = 1 + max(abs(Fraction(c, int_coeffs[3])) for c in int_coeffs[:3])
        if count_real_roots(chain, -bound, bound) != 3:
            raise NotTotallyReal("defining polynomial does not have 3 real roots")
        self.poly_coeffs = coeffs
        self.int_coeffs = int_coeffs
        self.sturm = chain
        self.root_bound = bound
        c0, c1, c2, c3 = coeffs
        # y^3 and y^4 reduced to the power basis
        self._red3 = (-c0 / c3, -c1 / c3, -c2 / c3)
        r = self._red3
        self._red4 = (r[2] * r[0], r[0] + r[2] * r[1], r[1] + r[2] * r[2])
        # traces of 1, y, y^2 via Newton power sums
        e1 = -c2 / c3
        e2 = c1 / c3
        self.trace_basis = (Fraction(3), e1, e1 * e1 - 2 * e2)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.poly_coeffs == other.poly_coeffs

    def __hash__(self):
        return hash(self.poly_coeffs)

    def __repr__(self):
        c = self.poly_coeffs
        return f"FieldSpec({c[3]}*x^3 + {c[2]}*x^2 + {c[1]}*x + {c[0]})"

    def element(self, a0, a1=0, a2=0) -> "FieldElement":
        return FieldElement(self, (_as_fraction(a0), _as_fraction(a1), _as_fraction(a2)))

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def y(self) -> "FieldElement":
        return self.element(0, 1)


class FieldElement:
    """An element a0 + a1*y + a2*y^2 with exact rational coordinates.

    Fraction keeps coordinates in lowest terms with positive denominators,
    so coordinate tuples are canonical and equality is exact.
    """

    __slots__ = ("spec", "coords")

    def __init__(self, spec: FieldSpec, coords: tuple[Fraction, Fraction, Fraction]):
        self.spec = spec
        self.coords = coords

    def _check(self, other: "FieldElement"):
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        a0, a1, a2 = self.coords
        return f"({a0}) + ({a1})*y + ({a2})*y^2"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self.coords, other.coords
        return FieldElement(self.spec, (a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self.coords, other.coords
        return FieldElement(self.spec, (a[0] - b[0], a[1] - b[1], a[2] - b[2]))

    def __neg__(self) -> "FieldElement":
        a = self.coords
        return FieldElement(self.spec, (-a[0], -a[1], -a[2]))

    def scalar_mul(self, q) -> "FieldElement":
        q = _as_fraction(q)
        a = self.coords
        return FieldElement(self.spec, (q * a[0], q * a[1], q * a[2]))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self.coords, other.coords
        p = [Fraction(0)] * 5
        for i in range(3):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(3):
                p[i + j] += ai * b[j]
        r3, r4 = self.spec._red3, self.spec._red4
        return FieldElement(
            self.spec,
            (
                p[0] + p[3] * r3[0] + p[4] * r4[0],
                p[1] + p[3] * r3[1] + p[4] * r4[1],
                p[2] + p[3] * r3[2] + p[4] * r4[2],
            ),
        )

    def mul_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (columns are
        the images of 1, y, y^2)."""
        spec = self.spec
        cols = [
            (self * FieldElement(spec, (Fraction(1), Fraction(0), Fraction(0)))).coords,
            (self * FieldElement(spec, (Fraction(0), Fraction(1), Fraction(0)))).coords,
            (self * FieldElement(spec, (Fraction(0), Fraction(0), Fraction(1)))).coords,
        ]
        return [[cols[j][i] for j in range(3)] for i in range(3)]

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInversion("cannot invert zero")
        m = self.mul_matrix()
        sol = solve3(m, (Fraction(1), Fraction(0), Fraction(0)))
        return FieldElement(self.spec, tuple(sol))

    def __pow__(self, k: int) -> "FieldElement":
        if not isinstance(k, int):
            raise TypeError("only integer powers are defined")
        if k < 0:
            return self.inverse() ** (-k)
        result = self.spec.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def norm(self) -> Fraction:
        return det3(self.mul_matrix())

    def trace(self) -> Fraction:
        m = self.mul_matrix()
        return m[0][0] + m[1][1] + m[2][2]


def det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m):
    """The adjugate of a 3x3 matrix: adjugate3(m) * m = det3(m) * I."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def solve3(m, rhs):
    """Solve a nonsingular exact rational 3x3 system by Cramer's rule."""
    d = Fraction(det3(m))
    if d == 0:
        raise ZeroDivisionError("singular system")
    return [(row[0] * rhs[0] + row[1] * rhs[1] + row[2] * rhs[2]) / d for row in adjugate3(m)]
