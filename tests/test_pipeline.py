import random
from fractions import Fraction
from pathlib import Path

import pytest

from shintani_forge import units
from shintani_forge.cones import _int_vec
from shintani_forge.embedding import iv_mid_err, trace_zero, work_prec
from shintani_forge.errors import (
    Exhausted,
    InclusionViolated,
    NotTotallyPositive,
    SignConditionFailed,
)
from shintani_forge.scenario import Runtime, load_config

from oracles import wedge_sweep_search

SECOND_FIELD = Path(__file__).parent / "second_field.json"


class TestFixgi:
    def test_appendix_pair_passes(self, emb, els):
        rep = units.check_fixgi(els["eps1"], els["eps2"], emb)
        assert rep.passed
        assert all(m > 0 for m in rep.margins.values())

    def test_same_element_twice_fails(self, emb, els):
        rep = units.check_fixgi(els["eps1"], els["eps1"], emb)
        assert not rep.passed

    def test_reciprocal_pair_fails(self, emb, els):
        rep = units.check_fixgi(els["eps1"].inverse(), els["eps2"], emb)
        assert not rep.passed


class TestSignSuite:
    def test_normalized_appendix_passes(self, emb, els, pihats):
        rep = units.check_sign_suite(els["eps1"], els["eps2"], pihats["case2"], emb)
        assert rep.passed
        assert rep.signs["[e1|e2]"] == 1 and rep.signs["[e2|e1]"] == -1
        assert rep.signs["[e1|p]"] == -rep.signs["[p|e1]"] != 0
        assert rep.signs["[e2|p]"] == -rep.signs["[p|e2]"] != 0

    def test_swapped_pair_fails(self, emb, els, pihats):
        rep = units.check_sign_suite(els["eps2"], els["eps1"], pihats["case2"], emb)
        assert not rep.passed
        assert "[e1|e2] != +1" in rep.failures

    def test_degenerate_pi_fails(self, emb, els):
        rep = units.check_sign_suite(els["eps1"], els["eps2"], els["eps1"], emb)
        assert not rep.passed

    def test_unnormalized_pi_fails(self, emb, els):
        rep = units.check_sign_suite(els["eps1"], els["eps2"], els["pi1"], emb)
        assert not rep.passed


class TestChoosePower:
    def test_appendix_units_give_one(self, emb, els):
        assert units.choose_power(els["eps1"], els["eps2"], emb, l_max=3) == 1

    def test_exhausted_at_zero_budget(self, emb, els):
        with pytest.raises(Exhausted):
            units.choose_power(els["eps1"], els["eps2"], emb, l_max=0)


class TestLatticeBall:
    def test_tiny_ball_contains_identity_only(self, emb, els):
        lat = units.LogLattice(basis=(els["eps1"], els["eps2"]))
        res = units.lattice_points_in_ball(lat, (0, 0, 0), Fraction(1, 10), emb)
        assert [(k1, k2) for k1, k2, _ in res.inside] == [(0, 0)]
        assert not res.undecided

    def test_ball_at_l1_nonempty(self, emb, els):
        lat = units.LogLattice(basis=(els["eps1"], els["eps2"]))
        res = units.lattice_points_in_ball(lat, (-20, 40, -20), 30, emb)
        assert res.inside

    def test_result_independent_of_enumeration_box(self, emb, els):
        # oracle: the radius-40 scan covers a larger box; filtered by float
        # distance from the center it must agree with the radius-25 scan
        # wherever that distance is clear of 25
        lat = units.LogLattice(basis=(els["eps1"], els["eps2"]))
        center = (-20, 40, -20)
        small = units.lattice_points_in_ball(lat, center, 25, emb)
        big = units.lattice_points_in_ball(lat, center, 40, emb)
        keys_small = {(k1, k2) for k1, k2, _ in small.inside}
        assert keys_small <= {(k1, k2) for k1, k2, _ in big.inside}
        near, far = set(), set()
        for k1, k2, el in big.inside:
            logs = trace_zero(emb.log_embed(el, 128), work_prec(128))
            dist = max(abs(iv_mid_err(v)[0] - c) for v, c in zip(logs, center))
            if dist < 25 - 1e-6:
                near.add((k1, k2))
            elif dist > 25 + 1e-6:
                far.add((k1, k2))
        assert near and far
        assert near <= keys_small
        assert not far & keys_small

    @pytest.mark.parametrize(
        "center, radius",
        [((-20, 40, -20), 25), ((-41, 66, -25), 1), ((0, 0, 0), 30), ((10, -20, 10), 12)],
    )
    def test_matches_brute_force_scan(self, emb, els, center, radius):
        # oracle: float logs of every exponent pair in a wide square; points
        # clear of the boundary must be classified the same way
        lat = units.LogLattice(basis=(els["eps1"], els["eps2"]))
        res = units.lattice_points_in_ball(lat, center, radius, emb)
        keys = {(k1, k2) for k1, k2, _ in res.inside}
        l1, l2 = (
            [iv_mid_err(v)[0] for v in trace_zero(emb.log_embed(u, 128), work_prec(128))]
            for u in (els["eps1"], els["eps2"])
        )
        near = set()
        for k1 in range(-10, 11):
            for k2 in range(-10, 11):
                dist = max(abs(k1 * a + k2 * b - c) for a, b, c in zip(l1, l2, center))
                if dist < radius - 1e-6:
                    near.add((k1, k2))
                elif dist > radius + 1e-6:
                    assert (k1, k2) not in keys
        assert near and near <= keys

    def test_coset_elements_have_pi_norm(self, emb, els):
        lat = units.LogLattice(basis=(els["g1"], els["g2"]), offset=els["pi"].inverse())
        res = units.lattice_points_in_ball(lat, (0, 0, 0), 10, emb)
        assert res.inside
        for _, _, el in res.inside:
            assert el.norm() == Fraction(1, 113**2)

    def test_dependent_basis_rejected(self, emb, els):
        lat = units.LogLattice(basis=(els["eps1"], els["eps1"]))
        with pytest.raises(SignConditionFailed):
            units.lattice_points_in_ball(lat, (0, 0, 0), 1, emb)


class TestTriangleSearch:
    def test_normalized_pi_keeps_the_identity(self, emb, els, pihats, geo, spec):
        # no shortcut: the identity wins as the first valid candidate of its box
        alpha, omega = units.triangle_search(
            els["eps1"], els["eps2"], pihats["case1"], 1, emb
        )
        assert omega == spec.one
        assert alpha == pihats["case1"].inverse()

    def test_finds_normalization_in_full_unit_group(self, emb, els, geo):
        alpha, omega = units.triangle_search(
            els["eps1"],
            els["eps2"],
            els["pi"],
            1,
            emb,
            unit_basis=(els["g1"], els["g2"]),
        )
        pihat = omega * els["pi"]
        assert geo.prop4_union(els["eps1"], els["eps2"]).contains_vec(
            _int_vec(pihat.inverse().coords)
        )
        assert units.check_sign_suite(els["eps1"], els["eps2"], pihat, emb).passed

    def test_exhausted_when_coset_has_no_valid_point(self, emb, els):
        # the plain pi admits no valid normalization inside the index-20
        # subgroup generated by the overridden pair; the message names the
        # last box searched
        want = r"^triangle search exhausted at the square \[-1, 2\]\^2$"
        with pytest.raises(Exhausted, match=want):
            units.triangle_search(els["eps1"], els["eps2"], els["pi"], 1, emb)


def _search_outcome(search, *args):
    """(alpha, omega) coordinates, or the error's type name and message."""
    try:
        alpha, omega = search(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return alpha.coords, omega.coords


@pytest.mark.parametrize("field", ["bundled", "second"])
def test_search_order_matches_the_wedge_and_sweep_loops(field, rt):
    """On seeded totally positive pi of each field, over (eps1, eps2) and
    over the unit basis, the two-box walk picks the omega of the wedge
    levels q = 1..64 and sweep run as two loops, or raises the same error:
    no level past q = 1 decides."""
    if field == "second":
        rt = Runtime(load_config(SECOND_FIELD))
    els, emb = rt.config.elements, rt.emb
    rng = random.Random(21)
    pis = []
    while len(pis) < 24:
        pi = rt.config.spec.element(*(rng.randint(-4, 4) for _ in range(3)))
        if any(pi.coords) and emb.is_totally_positive(pi):
            pis.append(pi)
    kinds = set()
    for pi in pis:
        for basis in (None, (els["g1"], els["g2"])):
            args = (els["eps1"], els["eps2"], pi, 1, emb, basis)
            got = _search_outcome(units.triangle_search, *args)
            assert got == _search_outcome(wedge_sweep_search, *args)
            kinds.add(got[0] if isinstance(got[0], str) else "found")
    assert kinds == {"found", "Exhausted"}  # both outcomes are compared


@pytest.mark.parametrize("field", ["bundled", "second"])
def test_normalization_is_invariant_on_the_unit_orbit(field, rt):
    """Every translate pi*g1^a*g2^b, a, b in [-2, 2], of the config's pi,
    pi1 and pi2 normalizes over (g1, g2) to the normalization of pi itself."""
    if field == "second":
        rt = Runtime(load_config(SECOND_FIELD))
    els = rt.config.elements
    pair, basis = (els["eps1"], els["eps2"]), (els["g1"], els["g2"])
    for name in ("pi", "pi1", "pi2"):
        want = rt.normalized_pi(els[name], *pair, basis)
        for a in range(-2, 3):
            for b in range(-2, 3):
                moved = els[name] * els["g1"] ** a * els["g2"] ** b
                assert rt.normalized_pi(moved, *pair, basis) == want, (name, a, b)


class TestBuildConstruction:
    def test_appendix_scenario(self, emb, geo, els):
        res = units.build_construction(
            els["g1"],
            els["g2"],
            els["pi"],
            geo,
            l_max=4,
            eps_pair=(els["eps1"], els["eps2"]),
        )
        assert res.l == 1
        assert res.eps1 == els["eps1"] and res.eps2 == els["eps2"]
        assert res.case in ("case1", "case2")
        assert res.evidence["cover_anchor"] == (0, 0)
        pihat = res.omega * els["pi"]
        assert units.check_sign_suite(res.eps1, res.eps2, pihat, emb).passed
        assert geo.prop4_union(res.eps1, res.eps2).contains_vec(_int_vec(pihat.inverse().coords))

    def test_non_unit_rejected(self, geo, els, spec):
        with pytest.raises(ValueError):
            units.build_construction(spec.element(2), els["g2"], els["pi"], geo)

    def test_non_positive_pi_rejected(self, geo, els, spec):
        with pytest.raises(NotTotallyPositive):
            units.build_construction(els["g1"], els["g2"], -els["pi"], geo)

    @pytest.mark.parametrize("swapped", ["g", "eps"])
    def test_unit_pair_delta_rule_names_the_pair(self, geo, els, swapped):
        """A pair in the wrong order fails `Geometry._check_unit_pair` under
        its own labels."""
        pairs = {n: (els[f"{n}1"], els[f"{n}2"]) for n in ("g", "eps")}
        pairs[swapped] = pairs[swapped][::-1]
        a, b = f"{swapped}1", f"{swapped}2"
        with pytest.raises(SignConditionFailed) as exc:
            units.build_construction(*pairs["g"], els["pi"], geo, eps_pair=pairs["eps"])
        assert str(exc.value) == f"delta([{a}|{b}])=-1, delta([{b}|{a}])=1; need +1, -1"


class TestClassifyCase:
    def test_appendix_assignments(self, geo, els, pihats):
        case1, box1 = geo.classify_case(els["eps1"], els["eps2"], els["pi2"])
        assert case1 == "case1" and box1.alpha == (1, 1)
        case2, box2 = geo.classify_case(els["eps1"], els["eps2"], els["pi1"])
        assert case2 == "case2" and box2.alpha == (1, 2)

    def test_stability_under_subgroup_translation(self, geo, els):
        e1, e2 = els["eps1"], els["eps2"]
        case_a, box_a = geo.classify_case(e1, e2, els["pi2"])
        shifted = e1 * e2**2 * els["pi2"]
        case_b, box_b = geo.classify_case(e1, e2, shifted)
        assert case_a == case_b
        assert box_a.alpha == box_b.alpha
        assert box_b.anchor == (box_a.anchor[0] - 1, box_a.anchor[1] - 2)

    def test_inclusion_violated_for_misplaced_generator(self, geo_at, els):
        # a unit multiple positioned across three translate rows cannot fit
        # the guaranteed block and must fail loudly
        bad = els["g1"] ** -3 * els["pi"]
        with pytest.raises(InclusionViolated):
            geo_at(6).classify_case(els["eps1"], els["eps2"], bad)
