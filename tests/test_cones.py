import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shintani_forge.cones import (
    Cone,
    Geometry,
    ShintaniSet,
    _TranslateTable,
    _carve,
    _cross,
    _rank,
    cell_covered,
    cones_fast_disjoint,
    decompose_rays,
    diff_cell,
    intersect_cells,
    primitive_vector,
    split_cell,
)
from shintani_forge.errors import (
    DegenerateGeometry,
    EmptySet,
    NotTotallyPositive,
    SignConditionFailed,
    WindowExceeded,
)
from shintani_forge.scenario import _checked_params

from oracles import (
    dot_fast_disjoint,
    fraction_decompose_rays,
    fraction_rank,
    fraction_split_cell,
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


class TestFastDisjoint:
    def test_settled_pairs_have_empty_carve(self, geo):
        # cells on a small shared pool of rays, so many pairs share a ray or
        # a face; every pair the fast test settles must carve to nothing
        tf = geo.trace_form
        rng = random.Random(7)
        settled = touching = 0
        for _ in range(6):
            cells = _pool_cells(rng, tf, 6)
            for a, b in itertools.combinations(cells, 2):
                if cones_fast_disjoint(a, b):
                    settled += 1
                    touching += bool(set(a.gens) & set(b.gens))
                    assert _carve(a, b, tf)[0] == []
                    assert _carve(b, a, tf)[0] == []
        # the rule reaches pairs with a shared generator, which no strict
        # sign test settles
        assert touching > 2000 and settled > 3000

    def test_matches_the_dot_form(self, geo):
        # the unpacked-row test gives the dot-product rule's verdict on every
        # pair, in both orders, touching pairs included
        rng = random.Random(11)
        verdicts = set()
        for _ in range(8):
            cells = _pool_cells(rng, geo.trace_form, 6)
            for _ in range(400):
                a, b = rng.choice(cells), rng.choice(cells)
                for x, y in ((a, b), (b, a)):
                    got = cones_fast_disjoint(x, y)
                    assert got == dot_fast_disjoint(x, y), (x, y)
                    verdicts.add(got)
        assert verdicts == {True, False}

    def test_bundled_domains_settled_without_a_carve(self, rt, config):
        pairs = []
        for sid in ("fdcheck-D", "fdcheck-B", "fdcheck-B1", "fdcheck-B2"):
            d, _, _ = rt.domain(_checked_params(rt, "fdcheck", config.scenario(sid)["params"]))
            pairs += itertools.combinations(d.cones, 2)
        assert len(pairs) == 60
        assert all(cones_fast_disjoint(a, b) for a, b in pairs)

    def test_overlapping_pair_stays_unsettled(self, geo, els):
        # a ray through an interior point of C(1, eps1, eps1*eps2)
        one, e1, e12 = els["eps1"].spec.one, els["eps1"], els["eps1"] * els["eps2"]
        full = geo.cone(one, e1, e12)
        ray = geo.cone(one + e1 + e12)
        assert not cones_fast_disjoint(full, ray)
        assert intersect_cells(full, ray, geo.trace_form) == [ray]


def _pool_cells(rng, tf, size):
    """Every 1-, 2- and 3-cell on a pool of `size` primitive rays of positive
    trace, so that many of them share a ray or a face."""
    pool = set()
    while len(pool) < size:
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if sum(f * x for f, x in zip(tf, v)) > 0:
            pool.add(primitive_vector(v))
    return [
        Cone(tuple(gens))
        for k in (1, 2, 3)
        for gens in itertools.combinations(sorted(pool), k)
        if _rank(gens) == k
    ]


def _random_rays(rng, tf, count):
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        if sum(f * x for f, x in zip(tf, v)) > 0:
            out.append(v)
    return out


def _comb(a, u, b, v):
    return tuple(a * x + b * y for x, y in zip(u, v))


class TestIntegerKernels:
    """`_rank`, `decompose_rays` and `split_cell` against their Fraction
    oracles."""

    def _check(self, rays, tf):
        assert _rank(rays) == fraction_rank(rays)
        assert decompose_rays(rays, tf) == fraction_decompose_rays(rays, tf)

    def test_random_ray_sets(self, geo):
        rng = random.Random(3)
        for _ in range(400):
            rows = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(1, 5))]
            assert _rank(rows) == fraction_rank(rows)
            self._check(_random_rays(rng, geo.trace_form, rng.randint(1, 7)), geo.trace_form)

    def test_collinear_and_coplanar_sets(self, geo):
        tf = geo.trace_form
        rng = random.Random(4)
        for _ in range(200):
            u, v = _random_rays(rng, tf, 2)
            line = [_comb(rng.randint(1, 4), u, 0, v) for _ in range(3)]
            plane = [
                _comb(rng.randint(0, 4), u, rng.randint(1, 4), v) for _ in range(rng.randint(2, 6))
            ]
            self._check(line, tf)
            self._check(plane, tf)
            assert fraction_rank(line) == 1 and fraction_rank(plane) <= 2

    def test_repeated_rays(self, geo):
        tf = geo.trace_form
        rng = random.Random(5)
        for _ in range(200):
            rays = _random_rays(rng, tf, rng.randint(1, 4))
            rays += [tuple(2 * x for x in r) for r in rays[: rng.randint(1, len(rays))]]
            rays += rays[:1]
            self._check(rays, tf)

    def test_rays_with_collinear_section_points(self, geo):
        # r + s lies on the segment from r to s in the section trace = 1, and
        # so does every positive combination; add points off and on the line
        tf = geo.trace_form
        rng = random.Random(6)
        for _ in range(200):
            r, s, w = _random_rays(rng, tf, 3)
            mids = [
                _comb(rng.randint(1, 3), r, rng.randint(1, 3), s) for _ in range(rng.randint(1, 3))
            ]
            self._check([r, s, w] + mids, tf)
            self._check([r, s] + mids, tf)

    def test_split_cell_matches_fraction_split(self, geo):
        # random forms, and forms zero on one or on two generators; every sign
        # pattern of a split comes up, the 4-ray side of a triangle cut
        # through two edges among them
        tf = geo.trace_form
        rng = random.Random(12)
        patterns = set()
        for _ in range(6):
            cells = _pool_cells(rng, tf, 5)
            for cell in cells:
                gens = cell.gens
                w = tuple(rng.randint(-3, 3) for _ in range(3))
                forms = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
                forms += [_cross(g, w) for g in gens]
                forms += [_cross(g, h) for g, h in itertools.combinations(gens, 2)]
                for form in forms:
                    want = fraction_split_cell(cell, form, tf)
                    assert split_cell(cell, form, tf) == want, (cell, form)
                    values = [sum(f * x for f, x in zip(form, g)) for g in gens]
                    patterns.add(tuple(sorted((v > 0) - (v < 0) for v in values)))
        mixed = {(-1, 1), (-1, -1, 1), (-1, 1, 1), (-1, 0, 1)}
        settled = {(0,), (1,), (-1,), (0, 0), (0, 1), (-1, 0), (0, 0, 1), (-1, -1, 0)}
        assert mixed | settled <= patterns

    @pytest.mark.parametrize(
        "gens, form",
        [
            (((-1, 2, 0), (1, 0, 0), (0, 0, 1)), (1, 0, 0)),
            (((-2, 1, 0), (1, 0, 0)), (1, 0, 0)),
            (((-2, 1, 0), (1, 0, 0)), (-1, 0, 0)),
        ],
    )
    def test_split_of_a_generator_without_positive_trace_rejected(self, gens, form):
        # a cut ray is a positive combination of two generators, so a mixed
        # split rejects exactly the cells with a generator of trace <= 0
        cell, tf = Cone(gens), (1, 1, 0)
        with pytest.raises(DegenerateGeometry, match="positive trace"):
            split_cell(cell, form, tf)
        with pytest.raises(DegenerateGeometry, match="positive trace"):
            fraction_split_cell(cell, form, tf)

    @pytest.mark.parametrize(
        "rays",
        [
            [(0, 0, 1)],
            [(1, 0, 0), (-1, 0, 0)],
            [(1, 0, 0), (0, 1, 0), (-2, 0, 1)],
        ],
    )
    def test_ray_of_nonpositive_trace_rejected(self, rays):
        tf = (1, 1, 0)
        with pytest.raises(DegenerateGeometry, match="positive trace"):
            decompose_rays(rays, tf)


def _cells(*rays_list):
    return [Cone.from_rays(rays) for rays in rays_list]


# rays (t, x, y) at the section points (x / t, y / t) of the trace form
# (1, 0, 0): the triangle A B C, its interior point O, the point P on the
# edge A B and the point Q on the open segment P C
A, B_, C, O, P, Q = (1, 0, 0), (1, 6, 0), (1, 0, 6), (3, 4, 4), (1, 3, 0), (2, 3, 6)
FAN = _cells((A, B_, O), (B_, C, O), (C, A, O), (A, O), (B_, O), (C, O), (O,))


@pytest.mark.parametrize("tf", [(1, 0, 0), (2, 1, 1)])
class TestCellCovered:
    """The coverage certificate of `Geometry.set_equal` on hand-built parts
    of the triangle A B C, under two trace forms (two sections)."""

    def test_fan_from_an_interior_ray_is_covered(self, tf):
        assert cell_covered(Cone.from_rays((A, B_, C)), FAN, tf)

    @pytest.mark.parametrize("missing", [(O,), (A, O), (A, B_, O)], ids=["ray", "wall", "triangle"])
    def test_fan_missing_a_part_is_not_covered(self, tf, missing):
        parts = [p for p in FAN if p != Cone.from_rays(missing)]
        assert len(parts) == len(FAN) - 1
        assert not cell_covered(Cone.from_rays((A, B_, C)), parts, tf)

    def test_nothing_covers_a_cell(self, tf):
        assert not cell_covered(Cone.from_rays((A, B_, C)), [], tf)
        assert not cell_covered(Cone.from_rays((A, B_)), [], tf)

    def test_wall_split_on_one_side_counts_twice(self, tf):
        """The wall P C has the triangle P B C on one side and the triangles
        A P Q and A Q C, meeting at Q, on the other: a T-junction whose
        wall is the two 2-cells P Q and Q C and the ray Q."""
        parts = _cells((A, P, Q), (A, Q, C), (P, B_, C), (P, Q), (Q, C), (A, Q), (Q,))
        cell = Cone.from_rays((A, B_, C))
        assert cell_covered(cell, parts, tf)
        for drop in _cells((Q, C), (Q,)):
            assert not cell_covered(cell, [p for p in parts if p != drop], tf)

    def test_two_cell_split_at_an_interior_ray(self, tf):
        cell = Cone.from_rays((A, B_))
        assert cell_covered(cell, _cells((A, P), (P, B_), (P,)), tf)
        assert not cell_covered(cell, _cells((A, P), (P, B_)), tf)
        assert not cell_covered(cell, _cells((A, P), (P,)), tf)

    def test_ray_is_covered_only_by_itself(self, tf):
        ray = Cone.from_rays((O,))
        assert cell_covered(ray, [ray], tf)
        assert not cell_covered(ray, [], tf)


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

    def test_overlapping_cells_rejected(self, geo, els, B):
        # the ray through an interior point of C(1, eps1, eps1*eps2) meets that cell
        one, e1, e12 = els["eps1"].spec.one, els["eps1"], els["eps1"] * els["eps2"]
        with pytest.raises(DegenerateGeometry, match="cells overlap"):
            geo.shintani_set(list(B.cones) + [geo.cone(one + e1 + e12)])

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

    def test_sampled_tiling_of_both_B_variants(self, geo, geo_at, els):
        b = geo.explicit_B(els["eps1"], els["eps2"])
        col = geo.colmez_domain(els["eps1"], els["eps2"])
        for dom in (b, col):
            rep = geo_at(4).fundamental_domain_check(
                dom, els["eps1"], els["eps2"], samples=60, seed=11
            )
            assert rep.passed

    def test_fdcheck_detects_deleted_cell(self, geo, geo_at, els, B):
        # drop the full-dimensional cell the sampling triple spans
        probe = els["eps1"].spec.one + els["eps1"] + els["eps1"] * els["eps2"]
        victim = next(c for c in B.cones if geo.member(probe, c))
        broken = ShintaniSet.from_cones([c for c in B.cones if c != victim])
        rep = geo_at(4).fundamental_domain_check(
            broken, els["eps1"], els["eps2"], samples=60, seed=11
        )
        assert not rep.passed
        assert any(len(hits) == 0 for _, hits in rep.bad_samples)


class TestCoversAndSupport:
    def test_identity_cover(self, geo_at, spec, els, B):
        box = geo_at(3).translation_cover(B, spec.one, els["eps1"], els["eps2"])
        assert box.alpha == (0, 0)
        assert box.anchor == (0, 0)

    def test_appendix_cover_boxes(self, geo_at, els, B):
        box1 = geo_at(4).translation_cover(B, els["pi1"], els["eps1"], els["eps2"])
        assert box1.alpha == (1, 2)
        box2 = geo_at(4).translation_cover(B, els["pi2"], els["eps1"], els["eps2"])
        assert box2.alpha == (1, 1)

    def test_cover_minimality(self, geo_at, els, B):
        box = geo_at(4).translation_cover(B, els["pi2"], els["eps1"], els["eps2"])
        k1s = {k
               for k, _ in box.support}
        k2s = {k for _, k in box.support}
        assert max(k1s) - min(k1s) == box.alpha[0]
        assert max(k2s) - min(k2s) == box.alpha[1]

    def test_error_support_contains_origin_when_pinv_inside(self, geo_at, els, D):
        sup = geo_at(3).error_support(D, els["pi"], els["g1"], els["g2"])
        assert (0, 0) in sup

    def test_error_support_appendix_pairs(self, geo_at, els, D):
        sup = geo_at(3).error_support(D, els["pi"], els["g1"], els["g2"])
        assert (1, -1) in sup and (0, -1) in sup
        assert any(k not in ((0, 0), (0, 1), (1, 0), (1, 1)) for k in sup)

    def test_support_inside_anchored_box(self, geo_at, els, B):
        box = geo_at(4).translation_cover(B, els["pi1"], els["eps1"], els["eps2"])
        for k1, k2 in box.support:
            assert box.anchor[0] <= k1 <= box.anchor[0] + box.alpha[0]
            assert box.anchor[1] <= k2 <= box.anchor[1] + box.alpha[1]

    def test_error_support_window_stable(self, geo, geo_at, els, D):
        # the certified range [-2, 3] x [-1, 2] fits in |k| <= 3, so the
        # support is the one found under the default cap
        s8 = geo.error_support(D, els["pi"], els["g1"], els["g2"])
        s3 = geo_at(3).error_support(D, els["pi"], els["g1"], els["g2"])
        assert s3 == s8

    def test_window_exceeded(self, geo_at, els, D):
        # |k| <= 2 cuts k1 = 3 off the range, though the support, with k1
        # in 0..1, lies well inside the cap
        msg = r"^k1 range \[-2, 3\] cut by the window \|k\| <= 2 \(1 above\)$"
        with pytest.raises(WindowExceeded, match=msg):
            geo_at(2).error_support(D, els["pi"], els["g1"], els["g2"])

    def test_identity_error_support(self, geo_at, spec, els, D):
        sup = geo_at(2).error_support(D, spec.one, els["g1"], els["g2"])
        assert sup == [(0, 0)]

    def test_translate_table_matches_rational_translates(self, geo, geo_at, els, pihats):
        # pi-hat is no unit: the matrix of its inverse has denominators
        u1, u2 = els["eps2"], pihats["case1"]
        b1 = geo.explicit_B1(u1, u2)
        table = _TranslateTable(geo_at(2), b1, u1, u2)
        for k1, k2 in itertools.product(range(-2, 3), repeat=2):
            cells = table.cells((k1, k2))
            assert table.cells((k1, k2)) is cells
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
