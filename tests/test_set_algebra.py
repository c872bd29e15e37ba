"""Randomized algebraic laws of the exact set kernel: unions, differences
and intersections of translated domain fragments must satisfy the boolean
identities exactly."""

import random
from pathlib import Path

import pytest

from shintani_forge.cli import bundled_config_path
from shintani_forge.cones import Geometry, ShintaniSet
from shintani_forge.scenario import Runtime, _checked_params, load_config

from oracles import canonical_difference, canonical_equal, two_subset_set_equal

SECOND_FIELD = Path(__file__).parent / "second_field.json"


@pytest.fixture(scope="module")
def pieces(geo, els):
    """A pool of small Shintani sets: translated fragments of the domain,
    and sets that meet: B moved by pi^-1, pi1^-1 and pi2^-1, and the
    intersection of B with B moved by pi1^-1."""
    b = geo.explicit_B(els["eps1"], els["eps2"])
    e1, e2 = els["eps1"], els["eps2"]
    rng = random.Random(99)
    pool = []
    for k1, k2 in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)):
        u = e1**k1 * e2**k2
        cells = list(geo.scale(b, u).cones)
        rng.shuffle(cells)
        pool.append(ShintaniSet.from_cones(cells[: rng.randint(2, 5)]))
    pool += [geo.scale(b, els[x].inverse()) for x in ("pi", "pi1", "pi2")]
    pool.append(geo.intersect(b, pool[-2]))
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
def field_sides(request):
    """(runtime, elements, identity side pairs) on one field."""
    path = bundled_config_path() if request.param == "bundled" else SECOND_FIELD
    config = load_config(path)
    rt = Runtime(config)
    return rt, config.elements, _identity_sides(rt, config)


@pytest.fixture(scope="module")
def difference_pairs(field_sides):
    """(geometry, seeded pairs of sets) on one field: both orders of every
    pair of identity sides, random pairs of sides, and pieces of B
    translates (unit translates and B moved by pi^-1, pi1^-1 and pi2^-1)
    against each other and against the sides."""
    rt, els, sides = field_sides
    b = rt.geo.explicit_B(els["eps1"], els["eps2"])
    rng = random.Random(27)
    pieces = [b] + [rt.geo.scale(b, els[x].inverse()) for x in ("pi", "pi1", "pi2")]
    for k1, k2 in ((1, 0), (0, 1), (-1, 1), (1, 1)):
        cells = list(rt.geo.scale(b, els["eps1"] ** k1 * els["eps2"] ** k2).cones)
        rng.shuffle(cells)
        pieces.append(ShintaniSet.from_cones(cells[: rng.randint(2, 6)]))
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


def _tampered_pairs(geo, els, sides, rng):
    """Seeded pairs around the identity sides: each pair in both orders; a
    copy of either side with one cell of each dimension deleted, or with a
    cell swapped for a unit translate, against the other side; each side
    against the empty set, in both orders; and two empty sets."""
    empty = ShintaniSet.from_cones([])
    units = [els["eps1"], els["eps2"], els["eps1"].inverse(), els["eps2"].inverse()]
    for s1, s2 in sides:
        yield s1, s2
        yield s2, s1
        for a, b in ((s1, s2), (s2, s1)):
            cells = list(a.cones)
            for dim in (1, 2, 3):
                i = rng.choice([n for n, c in enumerate(cells) if c.dim == dim])
                yield ShintaniSet.from_cones(cells[:i] + cells[i + 1 :]), b
            i = rng.randrange(len(cells))
            moved = geo.scale(ShintaniSet((cells[i],)), rng.choice(units)).cones
            swapped = ShintaniSet.from_cones(cells[:i] + list(moved) + cells[i + 1 :])
            assert geo.find_overlap(swapped) is None
            yield swapped, b
            yield a, empty
            yield empty, a
    yield empty, empty


def test_set_equal_matches_two_subsets(field_sides, monkeypatch):
    """The one-carve `set_equal` gives the verdict and witness of the two
    subset checks on every identity pair and on seeded tamperings of them,
    and it decides every identity pair without a subset check."""
    rt, els, sides = field_sides
    geo = rt.geo

    def coords(w):
        return None if w is None else w.coords

    verdicts = set()
    for s1, s2 in _tampered_pairs(geo, els, sides, random.Random(31)):
        ok, w = geo.set_equal(s1, s2)
        want_ok, want_w = two_subset_set_equal(geo, s1, s2)
        assert (ok, coords(w)) == (want_ok, coords(want_w))
        verdicts.add(ok)
    assert verdicts == {True, False}
    subsets = []
    real = geo.subset
    monkeypatch.setattr(geo, "subset", lambda s1, s2: subsets.append(s1) or real(s1, s2))
    assert all(geo.set_equal(s1, s2) == (True, None) for s1, s2 in sides)
    assert not subsets
