"""Exact arithmetic in a totally real cubic field presented by an integer
defining polynomial c3*x^3 + c2*x^2 + c1*x + c0 (c3 may differ from 1).

Elements are stored as exact rational coordinates (a0, a1, a2) with respect
to the power basis 1, y, y^2 of the generator y itself; no rescaling to an
algebraic integer is performed, so the coordinates of published data can be
used verbatim.

Products, multiplication matrices and inverses are computed on integer
numerators over one common denominator: y^3 and y^4 are reduced with the
integer coefficients scaled by c3^2, and each result coordinate becomes a
`Fraction` once, at the end. The coordinates are therefore the same
canonical fractions that rational arithmetic gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

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


def _scaled(coords) -> tuple[tuple[int, ...], int]:
    """Integer numerators of rational coordinates over the lcm of their
    denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def _int_vec(coords) -> tuple[int, ...]:
    """Scale rational coordinates by the lcm of their denominators."""
    return _scaled(coords)[0]


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
    """Whether c3*x^3 + c2*x^2 + c1*x + c0 has a rational root; a cubic is
    reducible over Q exactly when it has one.

    x = z/c3 maps the rational roots to the integer roots of the monic
    g(z) = z^3 + c2*z^2 + c1*c3*z + c0*c3^2, which lie within its root bound.
    Knots at the bound and around g's critical points, (-c2 -+ sqrt(c2^2 -
    3*c1*c3))/3, cut that range into pieces on which g is monotone, or which
    are at most 1 long, so bisection finds the roots in time polynomial in
    the coefficients' bit length.
    """
    c0, c1, c2, c3 = int_coeffs
    a1, a0 = c1 * c3, c0 * c3 * c3

    def g(z: int) -> int:
        return ((z + c2) * z + a1) * z + a0

    bound = 1 + max(abs(c2), abs(a1), abs(a0))
    s = math.isqrt(max(c2 * c2 - 3 * a1, 0))  # each critical point is in [lo/3, (lo+1)/3]
    cuts = {lo // 3 + i for lo in (-c2 - s - 1, -c2 + s) for i in (0, 1)}
    knots = sorted(cuts | {-bound, bound})
    for a, b in zip(knots, knots[1:]):
        while b - a > 1 and (g(a) > 0) != (g(b) > 0):
            m = (a + b) // 2
            a, b = (m, b) if (g(m) > 0) == (g(a) > 0) else (a, m)
        if g(a) == 0 or g(b) == 0:
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
        content = math.gcd(*int_coeffs)
        int_coeffs = tuple(c // content for c in int_coeffs)
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
        c0, c1, c2, c3 = int_coeffs
        # c3^2 y^3 and c3^2 y^4 reduced to the power basis, in integers
        self._c3sq = c3 * c3
        self._red3 = (-c3 * c0, -c3 * c1, -c3 * c2)
        self._red4 = (c2 * c0, c2 * c1 - c0 * c3, c2 * c2 - c1 * c3)
        c0, c1, c2, c3 = coeffs
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
        (a0, a1, a2), da = _scaled(self.coords)
        (b0, b1, b2), db = _scaled(other.coords)
        p3 = a1 * b2 + a2 * b1
        p4 = a2 * b2
        spec = self.spec
        c, r3, r4 = spec._c3sq, spec._red3, spec._red4
        den = da * db * c
        return FieldElement(
            spec,
            (
                Fraction(c * a0 * b0 + p3 * r3[0] + p4 * r4[0], den),
                Fraction(c * (a0 * b1 + a1 * b0) + p3 * r3[1] + p4 * r4[1], den),
                Fraction(c * (a0 * b2 + a1 * b1 + a2 * b0) + p3 * r3[2] + p4 * r4[2], den),
            ),
        )

    def _int_columns(self):
        """Integer numerators of x, x*y and x*y^2 over one common denominator
        s > 0, and s: the columns of the multiplication matrix of x = self."""
        (a0, a1, a2), d = _scaled(self.coords)
        c0, c1, c2, c3 = self.spec.int_coeffs
        # x*y over d*c3, then x*y^2 = (x*y)*y over d*c3^2
        b = (-a2 * c0, a0 * c3 - a2 * c1, a1 * c3 - a2 * c2)
        e = (-b[2] * c0, b[0] * c3 - b[2] * c1, b[1] * c3 - b[2] * c2)
        c3sq = c3 * c3
        return (a0 * c3sq, a1 * c3sq, a2 * c3sq), tuple(v * c3 for v in b), e, d * c3sq

    def mul_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (columns are
        the images of 1, y, y^2)."""
        *cols, s = self._int_columns()
        return [[Fraction(col[i], s) for col in cols] for i in range(3)]

    def inverse(self) -> "FieldElement":
        """The first column of the inverse multiplication matrix: with the
        integer matrix m = s * M, M^-1 e1 = s * adj(m) e1 / det(m)."""
        if self.is_zero():
            raise ZeroInversion("cannot invert zero")
        (a, d, g), (b, e, h), (c, f, i), s = self._int_columns()
        adj = (e * i - f * h, f * g - d * i, d * h - e * g)
        det = a * adj[0] + b * adj[1] + c * adj[2]
        return FieldElement(self.spec, tuple(Fraction(v * s, det) for v in adj))

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
