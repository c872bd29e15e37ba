"""The pruned tiling check against a brute-force oracle that tests every
cell of every window translate, on the bundled domains, on a second field
and on tampered copies of B."""

import random
from fractions import Fraction

import pytest

from shintani_forge.cones import (
    Cone,
    FDReport,
    Geometry,
    ShintaniSet,
    _cross,
    _int_vec,
    split_cell,
)
from shintani_forge.embedding import RealEmbeddings, SignConfig
from shintani_forge.field import FieldSpec
from shintani_forge.scenario import _checked_params


def brute_force_check(geo, d, u1, u2, samples, window, seed) -> FDReport:
    """The tiling check without pruning: each Fraction sample is tested
    against every cell of all (2 window + 1)^2 translates."""
    translates = geo._translates(d, u1, u2, window)
    rng = random.Random(seed)
    triple = (geo.spec.one, u1, u1 * u2)
    bad = []
    boundary = []
    for _ in range(samples):
        coeffs = [Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(3)]
        x = geo.spec.zero
        for q, v in zip(coeffs, triple):
            x = x + v.scalar_mul(q)
        xv = _int_vec(x.coords)
        hits = [
            k for k, cells in translates.items() if any(c.contains_vec(xv) for c in cells)
        ]
        if len(hits) != 1:
            bad.append((x.coords, sorted(hits)))
        for k1, k2 in hits:
            if abs(k1) == window or abs(k2) == window:
                boundary.append(((k1, k2), x.coords))
    return FDReport(
        passed=not bad and not boundary,
        samples=samples,
        bad_samples=bad,
        boundary_hits=boundary,
        seed=seed,
    )


def check_both(geo, d, u1, u2, samples=200, window=8, seed=0) -> FDReport:
    rep = geo.fundamental_domain_check(d, u1, u2, samples=samples, window=window, seed=seed)
    assert rep == brute_force_check(geo, d, u1, u2, samples, window, seed)
    return rep


@pytest.mark.parametrize("seed", [20577, 1])
@pytest.mark.parametrize("sid", ["fdcheck-D", "fdcheck-B", "fdcheck-B1", "fdcheck-B2"])
def test_bundled_domains_match_the_oracle(rt, config, sid, seed):
    d, u1, u2 = rt.domain(_checked_params(rt, "fdcheck", config.scenario(sid)["params"]))
    rep = check_both(rt.geo, d, u1, u2, window=config.window, seed=seed)
    assert rep.passed


@pytest.fixture(scope="module")
def second_field():
    """x^3 - x^2 - 2x + 1 with g1 = y^2, g2 = (y - 1)^2, eps1 = g1^-3 g2^-1
    and eps2 = g1 g2^-1."""
    spec = FieldSpec([1, -2, -1, 1])
    geo = Geometry(RealEmbeddings(spec, cfg=SignConfig()))
    g1 = spec.y**2
    g2 = (spec.y - spec.one) ** 2
    return geo, g1**-3 * g2**-1, g1 * g2**-1


def test_second_field_B_matches_the_oracle(second_field):
    geo, eps1, eps2 = second_field
    rep = check_both(geo, geo.explicit_B(eps1, eps2), eps1, eps2, seed=3)
    assert rep.passed


@pytest.fixture(scope="module")
def B(geo, els):
    return geo.explicit_B(els["eps1"], els["eps2"])


def sampled_cell(geo, eps1, eps2) -> Cone:
    return geo.cone(geo.spec.one, eps1, eps1 * eps2)


def test_deleted_sampled_cell_leaves_every_sample_unhit(geo, els, B):
    e1, e2 = els["eps1"], els["eps2"]
    cell = sampled_cell(geo, e1, e2)
    broken = ShintaniSet.from_cones([c for c in B.cones if c != cell])
    assert len(broken) == len(B) - 1
    rep = check_both(geo, broken, e1, e2, window=3, seed=5)
    assert len(rep.bad_samples) == 200
    assert all(hits == [] for _, hits in rep.bad_samples)


def test_added_translate_of_sampled_cell_hits_twice(geo, els, B):
    e1, e2 = els["eps1"], els["eps2"]
    moved = geo.scale(ShintaniSet.from_cones([sampled_cell(geo, e1, e2)]), e1)
    doubled = ShintaniSet.from_cones(list(B.cones) + list(moved.cones))
    rep = check_both(geo, doubled, e1, e2, window=3, seed=5)
    assert len(rep.bad_samples) == 200
    assert all(hits == [(-1, 0), (0, 0)] for _, hits in rep.bad_samples)


def test_translated_domain_hits_only_the_window_boundary(geo, els, B):
    e1, e2 = els["eps1"], els["eps2"]
    rep = check_both(geo, geo.scale(B, e1), e1, e2, window=1, seed=5)
    assert rep.bad_samples == []
    assert len(rep.boundary_hits) == 200
    assert all(k == (-1, 0) for k, _ in rep.boundary_hits)


def test_only_cells_meeting_the_sampling_cone_are_tested(geo, els, B, monkeypatch):
    calls = []
    original = Cone.contains_vec

    def counting(cell, x):
        calls.append(cell)
        return original(cell, x)

    monkeypatch.setattr(Cone, "contains_vec", counting)
    rep = geo.fundamental_domain_check(B, els["eps1"], els["eps2"], samples=100, window=8)
    assert rep.passed
    assert len(calls) <= 100


def test_rational_triple_coordinates_match_the_oracle(geo, els):
    # eps2 / 2 gives the triple a denominator that 1 and eps1 lack, and the
    # domain is the part of the sampled cell on one side of a plane through
    # it, so a sample scaled off its ray would change sides
    e1, e2 = els["eps1"], els["eps2"]
    plane = _cross(_int_vec(geo.spec.one.coords), _int_vec((e1 + e1 * e2).coords))
    _, _, half = split_cell(sampled_cell(geo, e1, e2), plane, geo.trace_form)
    d = ShintaniSet.from_cones(half)
    rep = check_both(geo, d, e1, e2.scalar_mul(Fraction(1, 2)), window=3, seed=5)
    assert 0 < len(rep.bad_samples) < 200
