from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shintani_forge import plane
from shintani_forge.errors import FixgiViolated

small_pow = st.integers(min_value=-3, max_value=3)


class TestPhi:
    def test_basis_images(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        p1 = plane.phi(e1, e1, e2, emb)
        p2 = plane.phi(e2, e1, e2, emb)
        assert abs(p1.x - 1) <= p1.err + 1e-12 and abs(p1.y) <= p1.err + 1e-12
        assert abs(p2.x) <= p2.err + 1e-12 and abs(p2.y - 1) <= p2.err + 1e-12

    @given(a1=small_pow, a2=small_pow, b1=small_pow, b2=small_pow)
    def test_additivity_on_unit_products(self, emb, els, a1, a2, b1, b2):
        e1, e2 = els["eps1"], els["eps2"]
        x = e1**a1 * e2**a2
        y = e1**b1 * e2**b2
        px = plane.phi(x, e1, e2, emb)
        py = plane.phi(y, e1, e2, emb)
        pxy = plane.phi(x * y, e1, e2, emb)
        tol = px.err + py.err + pxy.err + 1e-9
        assert abs(pxy.x - px.x - py.x) <= tol
        assert abs(pxy.y - px.y - py.y) <= tol

    def test_scale_invariance(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        x = els["pi"]
        p = plane.phi(x, e1, e2, emb)
        q = plane.phi(x.scalar_mul(Fraction(7, 3)), e1, e2, emb)
        assert abs(p.x - q.x) <= p.err + q.err + 1e-12
        assert abs(p.y - q.y) <= p.err + q.err + 1e-12

    def test_lattice_consistency(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        for a in (-2, 0, 3):
            for b in (-1, 2):
                p = plane.phi(e1**a * e2**b, e1, e2, emb)
                assert abs(p.x - a) <= p.err + 1e-9
                assert abs(p.y - b) <= p.err + 1e-9


class TestPhiErrors:
    def test_dependent_basis_rejected(self, emb, els):
        from shintani_forge.errors import DegenerateBasis

        with pytest.raises(DegenerateBasis):
            plane.phi(els["pi"], els["eps1"], els["eps1"], emb)

    def test_phi_requires_totally_positive(self, emb, els, spec):
        from shintani_forge.errors import NotTotallyPositive

        with pytest.raises(NotTotallyPositive):
            plane.phi(-spec.one, els["eps1"], els["eps2"], emb)


class TestCurves:
    def test_endpoints(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        for i, expected in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
            cs = plane.curve_sample(i, 1, e1, e2, emb, n_points=9)
            assert (cs.points[0].x, cs.points[0].y) == (0.0, 0.0)
            assert (cs.points[-1].x, cs.points[-1].y) == expected

    def test_powered_endpoint(self, emb, els):
        cs = plane.curve_sample(1, 3, els["eps1"], els["eps2"], emb, n_points=5)
        assert (cs.points[-1].x, cs.points[-1].y) == (3.0, 0.0)

    def test_translate_tag(self, emb, els):
        base = plane.curve_sample(1, 1, els["eps1"], els["eps2"], emb, n_points=5)
        cs = plane.shifted(base, (0, 1))
        assert base.curve_id == (1, 1, (0, 0))
        assert cs.curve_id == (1, 1, (0, 1))
        assert cs.ts == base.ts
        assert (cs.points[0].x, cs.points[0].y) == (0.0, 1.0)
        assert (cs.points[-1].x, cs.points[-1].y) == (1.0, 1.0)
        assert [(p.x, p.y, p.err) for p in cs.points] == [
            (p.x, p.y + 1.0, p.err) for p in base.points
        ]

    def test_interior_strictly_convex_side(self, emb, els):
        # every interior sample lies strictly on one side of the chord
        cs = plane.curve_sample(1, 1, els["eps1"], els["eps2"], emb, n_points=33)
        x0, y0 = 0.0, 0.0
        x1, y1 = 1.0, 0.0
        crosses = [
            (x1 - x0) * (p.y - y0) - (y1 - y0) * (p.x - x0) for p in cs.points[1:-1]
        ]
        assert all(c > 0 for c in crosses) or all(c < 0 for c in crosses)

    def test_argument_validation(self, emb, els):
        with pytest.raises(ValueError):
            plane.curve_sample(3, 1, els["eps1"], els["eps2"], emb)
        with pytest.raises(ValueError):
            plane.curve_sample(1, 0, els["eps1"], els["eps2"], emb)


class TestDerivatives:
    def test_finite_difference_oracle(self, emb, els):
        import mpmath

        e1, e2 = els["eps1"], els["eps2"]
        basis = plane.PhiBasis(emb, e1, e2, 256)
        h = Fraction(1, 10**20)
        old = mpmath.mp.prec
        mpmath.mp.prec = 400
        try:
            for i in (1, 2):
                e_to = emb.embed_positive((e1 if i == 1 else e2), 256)
                e_one = [plane.RatInterval.point(1)] * 3
                for t_end in (0, 1):
                    d = plane.endpoint_derivative(i, 1, t_end, e1, e2, emb, bits=256)
                    ts = (h, 2 * h) if t_end == 0 else (1 - 2 * h, 1 - h)
                    pts = []
                    for t in ts:
                        ti = plane.iv_fraction(t, t, 256)._mpi_
                        logs = plane._segment_logs(e_one, e_to, ti, 256)
                        a, b = basis.project_logs(logs)
                        mid = lambda v: (mpmath.mpf(v.a) + mpmath.mpf(v.b)) / 2
                        pts.append((mid(a), mid(b)))
                    slope = (pts[1][1] - pts[0][1]) / (pts[1][0] - pts[0][0])
                    assert abs(float(slope) - d.value) <= 1e-6 * abs(d.value)
        finally:
            mpmath.mp.prec = old

    def test_endpoint_signs_at_l1(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        signs = {
            (1, 0): 1,
            (1, 1): -1,
            (2, 0): -1,
            (2, 1): 1,
        }
        for (i, t), want in signs.items():
            assert plane.endpoint_derivative(i, 1, t, e1, e2, emb).sign == want

    def test_limits_match_lemma(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        for i in (1, 2):
            for t in (0, 1):
                lv = plane.limit_derivative(i, t, e1, e2, emb)
                assert lv.ok

    def test_limit_matches_large_power_derivative(self, emb, els):
        e1, e2 = els["eps1"], els["eps2"]
        lv = plane.limit_derivative(1, 1, e1, e2, emb)
        d = plane.endpoint_derivative(1, 50, 1, e1, e2, emb, bits=256)
        assert abs(lv.value - d.value) <= 1e-3 * abs(lv.value)

    def test_fixgi_violated_for_rational_element(self, emb, spec):
        two = spec.element(2)
        with pytest.raises(FixgiViolated):
            plane.limit_derivative(1, 0, two, two, emb)

    def test_fixgi_holds_only_for_the_good_pair(self, emb, els):
        assert plane.fixgi_holds(els["eps1"], els["eps2"], emb)
        assert not plane.fixgi_holds(els["g1"], els["g2"], emb)


class TestDirectionBounds:
    def test_appendix_pair_passes_at_l1(self, emb, els):
        rep = plane.check_direction_bounds(1, els["eps1"], els["eps2"], emb, n_points=32)
        assert rep.passed
        assert rep.min_margin > 0

    def test_raw_generators_fail(self, emb, els):
        rep = plane.check_direction_bounds(1, els["g1"], els["g2"], emb, n_points=32)
        assert not rep.passed

    def test_swapped_pair_fails(self, emb, els):
        rep = plane.check_direction_bounds(1, els["eps2"], els["eps1"], emb, n_points=32)
        assert not rep.passed
