import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shintani_forge.cones import (
    Cone,
    Geometry,
    ShintaniSet,
    cones_fast_disjoint,
    diff_cell,
    intersect_cells,
    primitive_vector,
)
from shintani_forge.errors import (
    DegenerateGeometry,
    EmptySet,
    NotTotallyPositive,
    SignConditionFailed,
    WindowExceeded,
)

small_pow = st.integers(min_value=-2, max_value=2)


@pytest.fixture(scope="module")
def D(geo, els):
    return geo.colmez_domain(els["g1"], els["g2"])


@pytest.fixture(scope="module")
def B(geo, els):
    return geo.explicit_B(els["eps1"], els["eps2"])


class TestConeBasics:
    def test_primitive_vector(self):
        assert primitive_vector((Fraction(2, 3), Fraction(-4, 3), 2)) == (1, -2, 3)
        with pytest.raises(DegenerateGeometry):
            primitive_vector((0, 0, 0))

    def test_same_ray_same_cone(self, geo, spec):
        assert geo.cone(spec.element(2)) == geo.cone(spec.element(5))

    def test_dependent_generators_rejected(self, geo, spec, els):
        with pytest.raises(DegenerateGeometry):
            geo.cone(spec.one, spec.element(3))

    def test_non_positive_generator_rejected(self, geo, spec):
        with pytest.raises(NotTotallyPositive):
            geo.cone(spec.y)

    def test_ray_membership(self, geo, spec):
        c1 = geo.cone(spec.one)
        assert geo.member(spec.element(3), c1)
        assert not geo.member(spec.y, c1)

    def test_generator_not_in_open_two_cone(self, geo, spec, els):
        g1g2 = els["g1"] * els["g2"]
        c = geo.cone(spec.one, g1g2)
        assert not geo.member(g1g2, c)
        assert geo.member(spec.one + g1g2, c)

    def test_midpoint_in_full_cone(self, geo, spec, els):
        v1, v2, v3 = spec.one, els["g1"], els["g1"] * els["g2"]
        c = geo.cone(v1, v2, v3)
        mid = (v1 + v2 + v3).scalar_mul(Fraction(1, 3))
        assert geo.member(mid, c)

    def test_membership_requires_nonzero(self, geo, spec, B):
        with pytest.raises(ValueError):
            geo.member(spec.zero, B)


class TestScale:
    def test_identity(self, geo, spec, B):
        assert geo.scale(B, spec.one) == B

    def test_roundtrip(self, geo, els, B):
        u = els["g1"]
        eq, _ = geo.set_equal(geo.scale(geo.scale(B, u), u.inverse()), B)
        assert eq

    def test_requires_totally_positive(self, geo, spec, B):
        with pytest.raises(NotTotallyPositive):
            geo.scale(B, spec.y)

    @given(k1=small_pow, k2=small_pow)
    def test_scale_commutes_with_intersect(self, geo, els, B, k1, k2):
        u = els["eps1"] ** k1 * els["eps2"] ** k2
        s2 = geo.scale(B, els["eps1"])
        lhs = geo.scale(geo.intersect(B, s2), u)
        rhs = geo.intersect(geo.scale(B, u), geo.scale(s2, u))
        eq, _ = geo.set_equal(lhs, rhs)
        assert eq


class TestIntersect:
    def test_idempotent(self, geo, B):
        eq, _ = geo.set_equal(geo.intersect(B, B), B)
        assert eq

    def test_shared_ray_of_open_two_cones_is_empty(self, geo, spec, els):
        c1 = ShintaniSet.from_cones([geo.cone(spec.one, els["g1"])])
        c2 = ShintaniSet.from_cones([geo.cone(spec.one, els["g2"])])
        assert geo.intersect(c1, c2).is_empty

    def test_counterexample_overlaps(self, geo, els, D):
        pinv_D = geo.scale(D, els["pi"].inverse())
        t1 = geo.scale(D, els["g1"] * els["g2"].inverse())
        t2 = geo.scale(D, els["g2"].inverse())
        assert geo.overlap(pinv_D, t1)
        assert geo.overlap(pinv_D, t2)

    def test_set_equal_reflexive_and_ray_scaling(self, geo, spec, B):
        eq, _ = geo.set_equal(B, B)
        assert eq
        r1 = ShintaniSet.from_cones([geo.cone(spec.one)])
        r2 = ShintaniSet.from_cones([geo.cone(spec.element(2))])
        eq, _ = geo.set_equal(r1, r2)
        assert eq

    def test_set_equal_witness(self, geo, B, els):
        shifted = geo.scale(B, els["eps1"])
        eq, witness = geo.set_equal(B, shifted)
        assert not eq
        assert geo.member(witness, B) != geo.member(witness, shifted)

    def test_difference_union_partition(self, geo, B, els):
        s2 = geo.scale(B, els["pi"].inverse())
        inter = geo.intersect(B, s2)
        diff = geo.difference(B, s2)
        rebuilt = ShintaniSet.from_cones(list(inter.cones) + list(diff.cones))
        eq, _ = geo.set_equal(rebuilt, B)
        assert eq
        assert not geo.overlap(inter, diff)

    def test_cell_carve_partitions_each_cell(self, geo, els, B):
        # every ordered pair of cells of B and pi1^-1 B
        cells = list(B.cones) + list(geo.scale(B, els["pi1"].inverse()).cones)
        for a in cells:
            for b in cells:
                inter = intersect_cells(a, b, geo.trace_form)
                diff = diff_cell(a, b, geo.trace_form)
                fast = cones_fast_disjoint(a, b)
                assert fast == cones_fast_disjoint(b, a)
                if fast:
                    assert inter == [] and diff == [a]
                assert not geo.overlap(inter, diff)
                eq, _ = geo.set_equal(
                    ShintaniSet.from_cones(inter + diff), ShintaniSet.from_cones([a])
                )
                assert eq

    def test_refinement_soundness_random_points(self, geo, spec, els, B):
        rng = random.Random(5)
        cells = list(B.cones)
        for _ in range(25):
            cell = cells[rng.randrange(len(cells))]
            x = spec.zero
            for g in cell.gens:
                q = Fraction(rng.randint(1, 50), rng.randint(1, 50))
                x = x + spec.element(*g).scalar_mul(q)
            hits = [c for c in B.cones if geo.member(x, c)]
            assert len(hits) == 1


class TestPerturbedClosure:
    def test_full_cone_face_selection(self, geo, spec, els):
        g1, g2 = els["g1"], els["g2"]
        c = geo.cone(spec.one, g1, g1 * g2)
        closed = geo.perturbed_closure(c)
        dims = sorted(cell.dim for cell in closed.cones)
        assert dims == [2, 3]
        face = next(cell for cell in closed.cones if cell.dim == 2)
        assert face == Cone.from_rays([spec.one.coords, (g1 * g2).coords])

    def test_second_cone_gets_ray_and_two_faces(self, geo, spec, els):
        g1, g2 = els["g1"], els["g2"]
        c = geo.cone(spec.one, g2, g1 * g2)
        closed = geo.perturbed_closure(c)
        dims = sorted(cell.dim for cell in closed.cones)
        assert dims == [1, 2, 2, 3]

    def test_sandwich(self, geo, spec, els):
        g1, g2 = els["g1"], els["g2"]
        c = geo.cone(spec.one, g1, g1 * g2)
        closed = geo.perturbed_closure(c)
        # every added cell is a face of the closure: generators satisfy the
        # closed inequalities of c
        for cell in closed.cones:
            for g in cell.gens:
                assert all(
                    sum(f[i] * g[i] for i in range(3)) >= 0 for f in c.pos_forms
                )

    def test_low_dim_cone_unchanged(self, geo, spec, els):
        c = geo.cone(spec.one, els["g1"])
        closed = geo.perturbed_closure(c)
        assert closed.cones == (c,)


class TestDomains:
    def test_colmez_domain_cells(self, D):
        assert sorted(c.dim for c in D.cones) == [1, 2, 2, 2, 3, 3]

    def test_colmez_domain_sign_condition(self, geo, els):
        with pytest.raises(SignConditionFailed):
            geo.colmez_domain(els["eps2"], els["eps1"])

    def test_explicit_B_is_six_disjoint_cells(self, B):
        assert len(B) == 6

    def test_explicit_B1_B2_valid_for_normalized_pi(self, geo, els, pihats):
        b1 = geo.explicit_B1(els["eps2"], pihats["case1"])
        b2 = geo.explicit_B2(els["eps1"], pihats["case1"])
        assert len(b1) == 6 and len(b2) == 6

    @pytest.mark.parametrize("which", ["B1", "B2"])
    def test_explicit_B1_rejects_unnormalized_pi(self, geo, els, which):
        with pytest.raises(SignConditionFailed):
            if which == "B1":
                geo.explicit_B1(els["eps2"], els["pi1"])
            else:
                geo.explicit_B2(els["eps1"], els["eps2"].inverse() * els["pi1"])

    def test_sampled_tiling_of_both_B_variants(self, geo, els):
        b = geo.explicit_B(els["eps1"], els["eps2"])
        col = geo.colmez_domain(els["eps1"], els["eps2"])
        for dom in (b, col):
            rep = geo.fundamental_domain_check(
                dom, els["eps1"], els["eps2"], samples=60, window=4, seed=11
            )
            assert rep.passed

    def test_fdcheck_detects_deleted_cell(self, geo, els, B):
        # drop the full-dimensional cell the sampling triple spans
        probe = els["eps1"].spec.one + els["eps1"] + els["eps1"] * els["eps2"]
        victim = next(c for c in B.cones if geo.member(probe, c))
        broken = ShintaniSet.from_cones([c for c in B.cones if c != victim])
        rep = geo.fundamental_domain_check(
            broken, els["eps1"], els["eps2"], samples=60, window=4, seed=11
        )
        assert not rep.passed
        assert any(len(hits) == 0 for _, hits in rep.bad_samples)


class TestCoversAndSupport:
    def test_identity_cover(self, geo, spec, els, B):
        box = geo.translation_cover(B, spec.one, els["eps1"], els["eps2"], window=3)
        assert box.alpha == (0, 0)
        assert box.anchor == (0, 0)

    def test_appendix_cover_boxes(self, geo, els, B):
        box1 = geo.translation_cover(B, els["pi1"], els["eps1"], els["eps2"], window=4)
        assert box1.alpha == (1, 2)
        box2 = geo.translation_cover(B, els["pi2"], els["eps1"], els["eps2"], window=4)
        assert box2.alpha == (1, 1)

    def test_cover_minimality(self, geo, els, B):
        box = geo.translation_cover(B, els["pi2"], els["eps1"], els["eps2"], window=4)
        k1s = {k
               for k, _ in box.support}
        k2s = {k for _, k in box.support}
        assert max(k1s) - min(k1s) == box.alpha[0]
        assert max(k2s) - min(k2s) == box.alpha[1]

    def test_error_support_contains_origin_when_pinv_inside(self, geo, els, D):
        sup = geo.error_support(D, els["pi"], els["g1"], els["g2"], window=3)
        assert (0, 0) in sup

    def test_error_support_appendix_pairs(self, geo, els, D):
        sup = geo.error_support(D, els["pi"], els["g1"], els["g2"], window=3)
        assert (1, -1) in sup and (0, -1) in sup
        assert any(k not in ((0, 0), (0, 1), (1, 0), (1, 1)) for k in sup)

    def test_support_inside_anchored_box(self, geo, els, B):
        box = geo.translation_cover(B, els["pi1"], els["eps1"], els["eps2"], window=4)
        for k1, k2 in box.support:
            assert box.anchor[0] <= k1 <= box.anchor[0] + box.alpha[0]
            assert box.anchor[1] <= k2 <= box.anchor[1] + box.alpha[1]

    def test_error_support_window_stable(self, geo, els, D):
        s2 = geo.error_support(D, els["pi"], els["g1"], els["g2"], window=2)
        s3 = geo.error_support(D, els["pi"], els["g1"], els["g2"], window=3)
        assert s2 == s3

    def test_window_exceeded(self, geo, els, D):
        with pytest.raises(WindowExceeded):
            geo.error_support(D, els["pi"], els["g1"], els["g2"], window=1)

    def test_identity_error_support(self, geo, spec, els, D):
        sup = geo.error_support(D, spec.one, els["g1"], els["g2"], window=2)
        assert sup == [(0, 0)]

    def test_translate_table_matches_rational_translates(self, geo, els, pihats):
        # pi-hat is no unit: the matrix of its inverse has denominators
        u1, u2 = els["eps2"], pihats["case1"]
        b1 = geo.explicit_B1(u1, u2)
        table = geo._translates(b1, u1, u2, 2)
        assert len(table) == 25
        for (k1, k2), cells in table.items():
            m = (u1**k1 * u2**k2).mul_matrix()
            images = [
                sorted(primitive_vector([sum(m[r][j] * g[j] for j in range(3)) for r in range(3)])
                       for g in c.gens)
                for c in b1.cones
            ]
            assert cells == [Cone(tuple(gens)) for gens in images]


class TestSampling:
    def test_sample_point_of_ray(self, geo, spec):
        s = ShintaniSet.from_cones([geo.cone(spec.one)])
        assert geo.sample_point(s) == spec.one

    def test_sample_point_empty(self, geo):
        with pytest.raises(EmptySet):
            geo.sample_point(ShintaniSet.from_cones([]))

    def test_sample_in_intersection_exists_for_identity_config(self, geo, els, pihats):
        pinv = pihats["case1"].inverse()
        e1, e2 = els["eps1"], els["eps2"]
        alpha = geo.sample_in_intersection(
            geo.cone(pinv, e2 * pinv), geo.cone(e2, e1 * e2)
        )
        assert geo.member(alpha, geo.cone(e2, e1 * e2))

    def test_sample_in_empty_intersection(self, geo, spec, els):
        with pytest.raises(EmptySet):
            geo.sample_in_intersection(
                geo.cone(spec.one, els["g1"]), geo.cone(spec.one, els["g2"])
            )
