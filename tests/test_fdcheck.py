"""The pruned tiling check against a brute-force oracle that tests every
cell of every translate with |k1|, |k2| <= cones.WINDOW, on the bundled
domains, on a second field and on tampered copies of B, and its
WindowExceeded when the window cuts the range it samples."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from shintani_forge import cones
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
from shintani_forge.errors import WindowExceeded
from shintani_forge.field import FieldSpec
from shintani_forge.scenario import _checked_params

from oracles import window_translates


def brute_force_check(geo, d, u1, u2, samples, seed) -> FDReport:
    """The tiling check without pruning: each Fraction sample is tested
    against every cell of all (2 WINDOW + 1)^2 translates."""
    translates = window_translates(d, u1, u2, cones.WINDOW)
    rng = random.Random(seed)
    triple = (geo.spec.one, u1, u1 * u2)
    bad = []
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
    return FDReport(passed=not bad, samples=samples, bad_samples=bad, seed=seed)


def check_both(geo, d, u1, u2, samples=200, seed=0) -> FDReport:
    rep = geo.fundamental_domain_check(d, u1, u2, samples=samples, seed=seed)
    want = brute_force_check(geo, d, u1, u2, samples, seed)
    assert (rep.samples, rep.bad_samples, rep.seed) == (want.samples, want.bad_samples, want.seed)
    assert rep.passed == (not rep.bad_samples)
    return rep


@pytest.mark.parametrize("seed", [20577, 1])
@pytest.mark.parametrize("sid", ["fdcheck-D", "fdcheck-B", "fdcheck-B1", "fdcheck-B2"])
def test_bundled_domains_match_the_oracle(rt, config, sid, seed):
    d, u1, u2 = rt.domain(_checked_params(rt, "fdcheck", config.scenario(sid)["params"]))
    rep = check_both(rt.geo, d, u1, u2, seed=seed)
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


def test_deleted_sampled_cell_leaves_every_sample_unhit(geo, geo_at, els, B):
    e1, e2 = els["eps1"], els["eps2"]
    cell = sampled_cell(geo, e1, e2)
    broken = ShintaniSet.from_cones([c for c in B.cones if c != cell])
    assert len(broken) == len(B) - 1
    rep = check_both(geo_at(3), broken, e1, e2, seed=5)
    assert len(rep.bad_samples) == 200
    assert all(hits == [] for _, hits in rep.bad_samples)


def test_added_translate_of_sampled_cell_hits_twice(geo, geo_at, els, B):
    e1, e2 = els["eps1"], els["eps2"]
    moved = geo.scale(ShintaniSet.from_cones([sampled_cell(geo, e1, e2)]), e1)
    doubled = ShintaniSet.from_cones(list(B.cones) + list(moved.cones))
    rep = check_both(geo_at(3), doubled, e1, e2, seed=5)
    assert len(rep.bad_samples) == 200
    assert all(hits == [(-1, 0), (0, 0)] for _, hits in rep.bad_samples)


def test_translated_domain_cut_range_is_window_exceeded(geo, geo_at, els, B):
    # every sample hits eps1 B once, at k = (-1, 0); the S-box range of k1
    # is -2..0, so the cap |k| <= 1 cuts it, while under |k| <= 2 the range
    # is whole and the check passes
    e1, e2 = els["eps1"], els["eps2"]
    moved = geo.scale(B, e1)
    cut = "k1 range [-2, 0] cut by the window |k| <= 1 (1 below)"
    with pytest.raises(WindowExceeded, match=re.escape(cut) + "$"):
        geo_at(1).fundamental_domain_check(moved, e1, e2, samples=200, seed=5)
    assert check_both(geo_at(2), moved, e1, e2, seed=5).passed


@pytest.mark.parametrize("window", [1, 2, 3])
def test_double_cover_seen_only_outside_the_cap_is_window_exceeded(geo, geo_at, els, B, window):
    # B u eps1^2 S, S the sampled cell: each sample lies in S and in eps1^2 S,
    # hit at k = (0, 0) and (-2, 0). Under |k| <= 1 the second hit lies
    # outside the cap, so a check that searched only the cap would pass;
    # the S-box range of k1, -3..1, is cut there and under |k| <= 2
    e1, e2 = els["eps1"], els["eps2"]
    moved = geo.scale(ShintaniSet.from_cones([sampled_cell(geo, e1, e2)]), e1**2)
    doubled = ShintaniSet.from_cones(list(B.cones) + list(moved.cones))
    capped = geo_at(window)
    if window < 3:
        cut = f"k1 range [-3, 1] cut by the window |k| <= {window} ({3 - window} below)"
        with pytest.raises(WindowExceeded, match=re.escape(cut) + "$"):
            capped.fundamental_domain_check(doubled, e1, e2, samples=200, seed=5)
        return
    rep = check_both(capped, doubled, e1, e2, seed=5)
    assert not rep.passed
    assert len(rep.bad_samples) == 200
    assert all(hits == [(-2, 0), (0, 0)] for _, hits in rep.bad_samples)


def test_only_cells_meeting_the_sampling_cone_are_tested(geo, els, B, monkeypatch):
    calls = []
    original = cones._holds

    def counting(pos, eq, c0, c1, c2):
        calls.append((pos, eq))
        return original(pos, eq, c0, c1, c2)

    monkeypatch.setattr(cones, "_holds", counting)
    rep = geo.fundamental_domain_check(B, els["eps1"], els["eps2"], samples=100)
    assert rep.passed
    # one cell test a sample: the one kept cell, the sampled cell at k = (0, 0)
    assert len(calls) == 100 and len(set(calls)) == 1


@pytest.mark.parametrize("seed", [0, 1, 20577])
def test_draws_are_the_randint_stream(seed):
    raw = []

    class Recording(random.Random):
        def getrandbits(self, k):
            raw.append(super().getrandbits(k))
            return raw[-1]

    draws = list(itertools.islice(cones._randint_draws(Recording(seed), 999), 6000))
    want = random.Random(seed)
    assert draws == [want.randint(1, 999) for _ in range(6000)]
    # the redraw branch was taken: some raw 10-bit values were >= 999
    assert len(raw) > 6000 and any(r >= 999 for r in raw)


@pytest.mark.parametrize("seed", [0, 1, 20577])
def test_tampered_copies_of_B_match_the_oracle_at_pinned_seeds(geo, geo_at, els, B, seed):
    # every sample is a bad sample, so its coordinates and hits are compared
    e1, e2 = els["eps1"], els["eps2"]
    cell = sampled_cell(geo, e1, e2)
    deleted = ShintaniSet.from_cones([c for c in B.cones if c != cell])
    moved = geo.scale(ShintaniSet.from_cones([cell]), e1)
    added = ShintaniSet.from_cones(list(B.cones) + list(moved.cones))
    for d, hits in ((deleted, []), (added, [(-1, 0), (0, 0)])):
        rep = check_both(geo_at(3), d, e1, e2, seed=seed)
        assert len(rep.bad_samples) == 200
        assert all(h == hits for _, h in rep.bad_samples)


def test_rational_triple_coordinates_match_the_oracle(geo, geo_at, els):
    # eps2 / 2 gives the triple a denominator that 1 and eps1 lack, and the
    # domain is the part of the sampled cell on one side of a plane through
    # it, so a sample scaled off its ray would change sides
    e1, e2 = els["eps1"], els["eps2"]
    plane = _cross(_int_vec(geo.spec.one.coords), _int_vec((e1 + e1 * e2).coords))
    _, _, half = split_cell(sampled_cell(geo, e1, e2), plane, geo.trace_form)
    d = ShintaniSet.from_cones(half)
    rep = check_both(geo_at(3), d, e1, e2.scalar_mul(Fraction(1, 2)), seed=5)
    assert 0 < len(rep.bad_samples) < 200
