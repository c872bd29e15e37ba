"""Randomized algebraic laws of the exact set kernel: unions, differences
and intersections of translated domain fragments must satisfy the boolean
identities exactly."""

import random
from pathlib import Path

import pytest

from shintani_forge.cli import bundled_config_path
from shintani_forge.cones import Geometry, ShintaniSet
from shintani_forge.scenario import Runtime, _checked_params, load_config

from oracles import canonical_difference, canonical_equal

SECOND_FIELD = Path(__file__).parent / "second_field.json"


@pytest.fixture(scope="module")
def pieces(geo, els):
    """A pool of small Shintani sets: translated fragments of the domain."""
    b = geo.explicit_B(els["eps1"], els["eps2"])
    e1, e2 = els["eps1"], els["eps2"]
    rng = random.Random(99)
    pool = []
    for k1, k2 in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)):
        u = e1**k1 * e2**k2
        cells = list(geo.scale(b, u).cones)
        rng.shuffle(cells)
        pool.append(ShintaniSet.from_cones(cells[: rng.randint(2, 5)]))
    pool.append(geo.scale(b, els["pi"].inverse()))
    return pool


def _pairs(pool, rng, n):
    for _ in range(n):
        yield rng.choice(pool), rng.choice(pool)


def test_intersection_commutative(geo, pieces):
    rng = random.Random(1)
    for s1, s2 in _pairs(pieces, rng, 6):
        eq, _ = geo.set_equal(geo.intersect(s1, s2), geo.intersect(s2, s1))
        assert eq


def test_intersection_associative(geo, pieces):
    rng = random.Random(2)
    for _ in range(4):
        a, b, c = (rng.choice(pieces) for _ in range(3))
        lhs = geo.intersect(geo.intersect(a, b), c)
        rhs = geo.intersect(a, geo.intersect(b, c))
        eq, _ = geo.set_equal(lhs, rhs)
        assert eq


def test_difference_chain_equals_union_difference(geo, pieces):
    rng = random.Random(3)
    for _ in range(4):
        a, b, c = (rng.choice(pieces) for _ in range(3))
        lhs = geo.difference(geo.difference(a, b), c)
        rhs = geo.difference(a, geo.union(b, c))
        eq, _ = geo.set_equal(lhs, rhs)
        assert eq


def test_intersection_bounded_by_operands(geo, pieces):
    rng = random.Random(4)
    for s1, s2 in _pairs(pieces, rng, 6):
        inter = geo.intersect(s1, s2)
        ok1, _ = geo.subset(inter, s1)
        ok2, _ = geo.subset(inter, s2)
        assert ok1 and ok2


def test_partition_identity(geo, pieces):
    rng = random.Random(5)
    for s1, s2 in _pairs(pieces, rng, 6):
        inter = geo.intersect(s1, s2)
        diff = geo.difference(s1, s2)
        rebuilt = ShintaniSet.from_cones(list(inter.cones) + list(diff.cones))
        eq, _ = geo.set_equal(rebuilt, s1)
        assert eq
        assert not geo.overlap(inter, diff)


def test_distributivity(geo, pieces):
    rng = random.Random(6)
    for _ in range(3):
        a, b, c = (rng.choice(pieces) for _ in range(3))
        lhs = geo.intersect(a, geo.union(b, c))
        rhs = geo.union(geo.intersect(a, b), geo.intersect(a, c))
        eq, _ = geo.set_equal(lhs, rhs)
        assert eq


def _identity_sides(rt, config):
    """Every (lhs, rhs) pair the config's identities scenarios compare with
    `set_equal`, caught on a geometry of their own."""
    geo = Geometry(rt.emb)
    sides = []
    real = geo.set_equal
    geo.set_equal = lambda s1, s2: sides.append((s1, s2)) or real(s1, s2)
    for sc in config.scenarios:
        if sc["kind"] == "identities":
            p = _checked_params(rt, "identities", sc["params"])
            geo.verify_identity(p["eps1"], p["eps2"], rt.scenario_pi(p))
    return sides


@pytest.fixture(scope="module", params=["bundled", "second"])
def difference_pairs(request):
    """(geometry, seeded pairs of sets) on one field: both orders of every
    pair of identity sides, random pairs of sides, and pieces of B
    translates (unit translates and B moved by pi^-1, pi1^-1 and pi2^-1)
    against each other and against the sides."""
    path = bundled_config_path() if request.param == "bundled" else SECOND_FIELD
    config = load_config(path)
    rt = Runtime(config)
    els = config.elements
    b = rt.geo.explicit_B(els["eps1"], els["eps2"])
    rng = random.Random(27)
    pieces = [b] + [rt.geo.scale(b, els[x].inverse()) for x in ("pi", "pi1", "pi2")]
    for k1, k2 in ((1, 0), (0, 1), (-1, 1), (1, 1)):
        cells = list(rt.geo.scale(b, els["eps1"] ** k1 * els["eps2"] ** k2).cones)
        rng.shuffle(cells)
        pieces.append(ShintaniSet.from_cones(cells[: rng.randint(2, 6)]))
    sides = _identity_sides(rt, config)
    flat = [s for pair in sides for s in pair]
    pairs = [p for s1, s2 in sides for p in ((s1, s2), (s2, s1))]
    pairs += [(rng.choice(flat), rng.choice(flat)) for _ in range(6)]
    pairs += list(_pairs(pieces, rng, 8))
    pairs += [(rng.choice(pieces), rng.choice(flat)) for _ in range(4)]
    pairs += [(rng.choice(flat), rng.choice(pieces)) for _ in range(4)]
    return rt.geo, pairs


def test_difference_matches_the_canonical_order(difference_pairs):
    """Removing the largest cells first gives the set the canonical order
    gives, judged by the oracle's own differences, and the witness of a
    failing subset lies in s1 and not in s2."""
    geo, pairs = difference_pairs
    verdicts = set()
    for s1, s2 in pairs:
        want = canonical_difference(geo, s1, s2)
        assert canonical_equal(geo, geo.difference(s1, s2), want)
        ok, w = geo.subset(s1, s2)
        assert ok == want.is_empty
        if not ok:
            assert geo.member(w, s1) and not geo.member(w, s2)
        verdicts.add(ok)
    assert verdicts == {True, False}
