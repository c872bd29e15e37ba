import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shintani_forge.errors import NotTotallyReal, ZeroInversion
from shintani_forge.field import FieldSpec

from oracles import (
    KERNEL_FIELDS,
    fraction_inverse,
    fraction_mul,
    fraction_mul_matrix,
    fraction_pow,
    random_element,
)

coord = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
coords = st.tuples(coord, coord, coord)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod(a, m):
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] / m[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] -= q * c
        a.pop()
    a += [Fraction(0)] * (dm - len(a))
    return a[:dm]


def resultant(f, g):
    """Sylvester-matrix resultant of two rational polynomials."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction-free-ish Gaussian elimination
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(c + 1, size):
            if rows[r][c] != 0:
                f_ = rows[r][c]
                rows[r] = [rows[r][k] - f_ * rows[c][k] for k in range(size)]
    return det


class TestFieldSpec:
    def test_appendix_polynomial_accepted(self, spec):
        assert spec.poly_coeffs == (1, -1, -4, 2)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec([0, 1, 0, 1])  # root 0
        with pytest.raises(ValueError):
            FieldSpec([-1, 0, 0, 1])  # root 1
        with pytest.raises(ValueError):
            FieldSpec([1, 3, 3, 2])  # root -1/2

    def test_not_totally_real_rejected(self):
        with pytest.raises(NotTotallyReal):
            FieldSpec([-2, 0, 0, 1])  # x^3 - 2

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec([1, 2, 3, 0])


class TestArithmetic:
    def test_additive_identity(self, spec):
        assert spec.element(1) + spec.zero == spec.element(1)

    def test_additive_inverse(self, spec, els):
        g1 = els["g1"]
        assert (g1 + (-g1)).is_zero()

    def test_coordinatewise_sum(self, spec):
        a = spec.element(Fraction(1, 2), 0, 1)
        b = spec.element(Fraction(1, 2), 1, -1)
        assert (a + b).coords == (1, 1, 0)

    def test_y_times_y_squared_reduction(self, spec):
        # oracle: multiply as polynomials, reduce mod the defining polynomial
        prod = poly_mul([0, 1], [0, 0, 1])
        reduced = poly_mod(prod, [Fraction(1), Fraction(-1), Fraction(-4), Fraction(2)])
        got = spec.y * spec.element(0, 0, 1)
        assert list(got.coords) == reduced
        assert got.coords == (Fraction(-1, 2), Fraction(1, 2), 2)

    def test_multiplicative_identity(self, spec, els):
        assert els["g2"] * spec.one == els["g2"]

    def test_unit_inverse(self, els, spec):
        g1 = els["g1"]
        assert g1 * g1.inverse() == spec.one

    def test_appendix_pi_inverse(self, els, spec):
        pi = els["pi"]
        assert pi.inverse() * pi == spec.one

    def test_rational_scalar_inverse(self, spec):
        assert spec.element(2).inverse() == spec.element(Fraction(1, 2))

    def test_zero_inversion(self, spec):
        with pytest.raises(ZeroInversion):
            spec.zero.inverse()

    def test_pow_zero(self, els, spec):
        assert els["g1"] ** 0 == spec.one

    def test_appendix_eps1_power_word(self, els):
        assert els["g1"] ** -3 * els["g2"] ** 4 == els["eps1"]

    def test_exponent_law(self, els):
        g1 = els["g1"]
        assert (g1**2) ** 3 == g1**6

    def test_norm_trace_of_one(self, spec):
        assert spec.one.norm() == 1
        assert spec.one.trace() == 3

    def test_unit_norms(self, els):
        assert els["g1"].norm() == 1
        assert els["g2"].norm() == 1

    def test_pi_norm_is_a_power_of_113(self, spec, els):
        # oracle: Res(defining poly, pi-poly) / c3^deg(pi)
        f = [Fraction(c) for c in spec.poly_coeffs]
        g = [Fraction(c) for c in els["pi"].coords]
        res = resultant(f, g) / spec.poly_coeffs[3] ** 2
        assert res == els["pi"].norm()
        assert els["pi"].norm() == 113**2


class TestRingProperties:
    @given(a=coords, b=coords, c=coords)
    def test_associativity_and_distributivity(self, spec, a, b, c):
        x, y, z = spec.element(*a), spec.element(*b), spec.element(*c)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(a=coords, b=coords)
    def test_commutativity(self, spec, a, b):
        x, y = spec.element(*a), spec.element(*b)
        assert x * y == y * x
        assert x + y == y + x

    @given(a=coords, b=coords)
    def test_norm_multiplicative(self, spec, a, b):
        x, y = spec.element(*a), spec.element(*b)
        assert (x * y).norm() == x.norm() * y.norm()

    @given(a=coords)
    def test_double_inverse(self, spec, a):
        x = spec.element(*a)
        if not x.is_zero():
            assert x.inverse().inverse() == x

    @given(a=coords)
    def test_trace_linear(self, spec, a):
        x = spec.element(*a)
        assert (x + x).trace() == 2 * x.trace()


@pytest.mark.parametrize("coeffs", KERNEL_FIELDS)
def test_integer_kernels_match_the_fraction_oracles(coeffs):
    """Products, multiplication matrices, inverses and negative powers give
    the same canonical fractions as Fraction arithmetic, on a monic and two
    non-monic fields (c3 = 2 and c3 = 3)."""
    spec = FieldSpec(list(coeffs))
    rng = random.Random(sum(coeffs))
    for _ in range(60):
        x, y = random_element(spec, rng), random_element(spec, rng)
        for got, want in (
            ((x * y).coords, fraction_mul(x, y).coords),
            (x.mul_matrix(), fraction_mul_matrix(x)),
            (x.inverse().coords, fraction_inverse(x).coords),
        ):
            assert got == want
        assert all(type(c) is Fraction for c in (x * y).coords + x.inverse().coords)
    for k in (-1, -2, -5):
        x = random_element(spec, rng)
        assert (x**k).coords == fraction_pow(x, k).coords
