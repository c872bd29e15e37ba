"""The pruned translate table: its supports and covers against a scan of
every |k| <= cones.WINDOW, its verdicts under smaller caps, the soundness of
its phi boxes and of its cell-pair pruning, how few translates it builds,
and a translate pair whose phi basis cannot be certified."""

import copy
import functools
import itertools
import random
import time

import pytest
from mpmath import MPContext
from mpmath.libmp import from_man_exp, from_rational, mpf_add, mpf_sub, mpi_sub
from mpmath.libmp.libmpi import mpf_min_max

from shintani_forge import cones
from shintani_forge.cones import (
    Cone,
    Geometry,
    _int_matrix,
    _k_ranges,
    _TranslateTable,
    decompose_rays,
    intersect_cells,
)
from shintani_forge.embedding import RealEmbeddings, SignConfig, raw_iv, signed, sub_iv
from shintani_forge.errors import PrecisionExhausted, ShintaniError
from shintani_forge.field import FieldSpec
from shintani_forge.scenario import Runtime, run_scenario

from oracles import scan_cover, scan_support, window_translates


@pytest.fixture(scope="module")
def translates():
    """translates(geo, d, u1, u2): the scan of |k| <= cones.WINDOW, kept per
    window."""
    scan = functools.cache(window_translates)
    return lambda geo, d, u1, u2: scan(d, u1, u2, cones.WINDOW)


def outcome(fn, *args):
    """fn's result, or the type and message of the engine error it raised."""
    try:
        return fn(*args)
    except ShintaniError as exc:
        return type(exc).__name__, str(exc)


def table_cover(geo, d, x, u1, u2):
    box = geo.translation_cover(d, x, u1, u2)
    return box.alpha, box.anchor, box.support


def table_case(geo, eps1, eps2, pi):
    case, box = geo.classify_case(eps1, eps2, pi)
    return case, (box.alpha, box.anchor, box.support)


def scan_case(geo, translates, eps1, eps2, pi):
    d = geo.explicit_B(eps1, eps2)
    cover = scan_cover(geo, translates(geo, d, eps1, eps2), d, pi)
    a1, a2 = cover[0]
    if a1 <= 1 and a2 <= 1:
        return "case1", cover
    if a1 <= 1 and a2 == 2:
        return "case2", cover
    return "InclusionViolated", f"cover box {cover[0]} exceeds the guaranteed (1,2) block"


def assert_cover_matches(geo, translates, d, x, u1, u2):
    want = outcome(scan_cover, geo, translates(geo, d, u1, u2), d, x)
    assert outcome(table_cover, geo, d, x, u1, u2) == want


# the searches of counterexample (pi on D), of case-pi1 and cover-pi1 (pi1
# on B) and of case-pi2 and inclusion-pi2 (pi2 on B) that a cap cuts, with
# the message; their certified ranges are [-2, 3] x [-1, 2] for pi and
# [-2, 1] x [-2, 0] for pi1 and pi2
B_CUT_AT_1 = (
    "k1 range [-2, 1] cut by the window |k| <= 1 (1 below); "
    "k2 range [-2, 0] cut by the window |k| <= 1 (1 below)"
)
CUT = {
    1: {
        "pi": "k1 range [-2, 3] cut by the window |k| <= 1 (1 below, 2 above); "
        "k2 range [-1, 2] cut by the window |k| <= 1 (1 above)",
        "pi1": B_CUT_AT_1,
        "pi2": B_CUT_AT_1,
    },
    2: {"pi": "k1 range [-2, 3] cut by the window |k| <= 2 (1 above)"},
    3: {},
    8: {},
}


@pytest.mark.parametrize("window", [1, 2, 3, 8])
def test_bundled_supports_match_the_scan(geo, geo_at, els, translates, window):
    """counterexample, case-pi1, case-pi2, cover-pi1 and inclusion-pi2 under
    the cap |k| <= window: a search whose certified range the cap cuts is
    WindowExceeded, and every other one matches the scan of |k| <= 8, even
    where its support reaches the cap."""
    g1, g2, e1, e2 = els["g1"], els["g2"], els["eps1"], els["eps2"]
    d = geo.colmez_domain(g1, g2)
    b = geo.explicit_B(e1, e2)
    want = {"pi": outcome(scan_support, geo, translates(geo, d, g1, g2), d, els["pi"])}
    for name in ("pi1", "pi2"):
        want[name] = (
            outcome(scan_case, geo, translates, e1, e2, els[name]),
            outcome(scan_cover, geo, translates(geo, b, e1, e2), b, els[name]),
        )
    assert (want["pi1"][0][0], want["pi2"][0][0]) == ("case2", "case1")
    capped = geo_at(window)
    for name, cut in CUT[window].items():
        want[name] = ("WindowExceeded", cut) if name == "pi" else 2 * (("WindowExceeded", cut),)
    assert outcome(capped.error_support, d, els["pi"], g1, g2) == want["pi"]
    for name in ("pi1", "pi2"):
        got_case = outcome(table_case, capped, e1, e2, els[name])
        assert (got_case, outcome(table_cover, capped, b, els[name], e1, e2)) == want[name]


def test_cover_sweep_targets_match_the_scan(geo, els, translates):
    e1, e2 = els["eps1"], els["eps2"]
    b = geo.explicit_B(e1, e2)
    for a, c in itertools.product(range(-3, 4), repeat=2):
        x = els["pi1"] * els["g1"] ** a * els["g2"] ** c
        want = outcome(scan_cover, geo, translates(geo, b, e1, e2), b, x)
        assert outcome(table_cover, geo, b, x, e1, e2) == want, (a, c)


@pytest.mark.parametrize("target", ["pi", "pi1", "g1", "eps1"])
def test_mixed_domain_covers_match_the_scan(geo, els, pihats, translates, target):
    # the u2 of B1 and B2 is pi-hat, which is no unit
    e1, e2, ph = els["eps1"], els["eps2"], pihats["case1"]
    x = els[target]
    assert_cover_matches(geo, translates, geo.explicit_B1(e2, ph), x, e2, ph)
    assert_cover_matches(geo, translates, geo.explicit_B2(e1, ph), x, e1, ph)


@pytest.fixture(scope="module")
def second_field():
    """x^3 - x^2 - 2x + 1 with g1 = y^2, g2 = (y - 1)^2, eps1 = g1^-3 g2^-1,
    eps2 = g1 g2^-1 and the normalized pi-hat (19, -55, 28)."""
    spec = FieldSpec([1, -2, -1, 1])
    geo = Geometry(RealEmbeddings(spec, cfg=SignConfig()))
    g1 = spec.y**2
    g2 = (spec.y - spec.one) ** 2
    return geo, g1, g2, g1**-3 * g2**-1, g1 * g2**-1, spec.element(19, -55, 28)


def test_second_field_B_covers_match_the_scan(second_field, translates):
    geo, g1, _, e1, e2, ph = second_field
    b = geo.explicit_B(e1, e2)
    for x in (ph, ph * g1, geo.spec.element(3, 1, 1)):
        assert_cover_matches(geo, translates, b, x, e1, e2)


def edge_distance(geo, d, x, u1, u2) -> float:
    """How far inside its real candidate range, box(D) - phi(x) - box(D) per
    axis with box(D) the hull of the cell boxes, the support hit of x^-1 D
    nearest to an edge lies."""
    table = _TranslateTable(geo, d, u1, u2)
    prec, ctx = table.prec, MPContext()
    boxes = [[raw_iv(v) for v in b] for b in table.cell_boxes]
    box = [
        (mpf_min_max([b[i][0] for b in boxes])[0], mpf_min_max([b[i][1] for b in boxes])[1])
        for i in range(2)
    ]
    fixed = [mpi_sub(b, raw_iv(p), prec) for b, p in zip(box, table.point(x))]
    real = [[ctx.make_mpf(v) for v in mpi_sub(f, m, prec)] for f, m in zip(fixed, box)]
    hits = geo.translation_cover(d, x, u1, u2).support
    return float(min(min(k[i] - real[i][0], real[i][1] - k[i]) for k in hits for i in (0, 1)))


@pytest.mark.parametrize("pair", ["B", "B1"])
def test_point_box_covers_match_the_scan(geo, els, pihats, translates, pair):
    """The ray C(1) has a point box, so the one hit k = (-a, -b) of the
    target u1^a u2^b lies within 0.05 of its candidate range's edges, and a
    box too small by any margin drops it. The bundled domains have no such
    target: their boxes are wider than their phi images, and the nearest
    hit of every target searched lies at least 0.47 inside its range."""
    u1, u2 = (els["eps1"], els["eps2"]) if pair == "B" else (els["eps2"], pihats["case1"])
    ray = geo.shintani_set([geo.cone(geo.spec.one)])
    for a, b in ((0, 0), (1, -1), (-3, 2), (3, 3)):
        x = u1**a * u2**b
        assert_cover_matches(geo, translates, ray, x, u1, u2)
        assert edge_distance(geo, ray, x, u1, u2) < 0.05


# -- box soundness ---------------------------------------------------------


def domains(geo, g1, g2, e1, e2, ph):
    """(name, domain, u1, u2) of D, B, B1 and B2."""
    return [
        ("D", geo.colmez_domain(g1, g2), g1, g2),
        ("B", geo.explicit_B(e1, e2), e1, e2),
        ("B1", geo.explicit_B1(e2, ph), e2, ph),
        ("B2", geo.explicit_B2(e1, ph), e1, ph),
    ]


class Phi256:
    """phi at 256 bits from the midpoints of 512-bit embeddings: the
    trace-zero part of Log x solved in the basis tz(Log u1), tz(Log u2) on
    its first two coordinates."""

    def __init__(self, emb, u1, u2):
        self.emb = emb
        self.ctx = MPContext()
        self.ctx.prec = 256
        self.p = self.tz(u1)
        self.q = self.tz(u2)

    def tz(self, x):
        ctx = self.ctx
        mids = [(v.lo + v.hi) / 2 for v in self.emb.embed(x, 512)]
        logs = [ctx.log(ctx.mpf(v.numerator) / v.denominator) for v in mids]
        mean = sum(logs) / 3
        return [v - mean for v in logs]

    def assert_inside(self, x, box, shift=(0, 0)):
        """phi(x) lies in the box shifted by `shift`, up to 2^-100 for the
        error of the reference (the box of a ray can be one point)."""
        (p0, p1, _), (q0, q1, _), (v0, v1, _) = self.p, self.q, self.tz(x)
        det = p0 * q1 - p1 * q0
        point = ((v0 * q1 - v1 * q0) / det, (p0 * v1 - p1 * v0) / det)
        tol = self.ctx.mpf(2) ** -100
        for v, (lo, hi), k in zip(point, box, shift):
            lo, hi = (self.ctx.make_mpf(v) for v in raw_iv((lo, hi)))
            assert lo + k - tol <= v <= hi + k + tol


def test_box_soundness(geo, els, pihats, second_field):
    """Integer points strictly inside each cell of D, B, B1 and B2 on both
    fields have their phi in the cell's box; their images under u1^k1 u2^k2
    have theirs in the box shifted by k and in the box of the image cell."""
    rng = random.Random(7)
    geo2, *field2 = second_field
    bundled = (els["g1"], els["g2"], els["eps1"], els["eps2"], pihats["case1"])
    for g, (name, d, u1, u2) in [(geo, x) for x in domains(geo, *bundled)] + [
        (geo2, x) for x in domains(geo2, *field2)
    ]:
        table = _TranslateTable(g, d, u1, u2)
        phi = Phi256(g.emb, u1, u2)
        for i, cell in enumerate(d.cones):
            box = table.cell_box(cell.gens)
            for _ in range(2):
                t = [rng.randint(1, 99) for _ in cell.gens]
                v = [sum(c * gen[j] for c, gen in zip(t, cell.gens)) for j in range(3)]
                assert cell.contains_vec(v)
                x = g.element_of_vec(v)
                phi.assert_inside(x, box)
                for k in ((1, 0), (0, 1), (-1, 2), (2, -1)):
                    y = x * u1 ** k[0] * u2 ** k[1]
                    image = table.cells(k)[i]
                    assert image.contains_vec(y.coords), (name, cell, k)
                    phi.assert_inside(y, box, k)
                    phi.assert_inside(y, table.cell_box(image.gens))


# -- cell-pair pruning ------------------------------------------------------


def bundled_searches(config, monkeypatch, tmp_path):
    """(d, x, u1, u2) of every overlap support the bundled config runs."""
    seen = []
    original = Geometry._overlap_support

    def recording(geo, d, x, u1, u2):
        seen.append((d, x, u1, u2))
        return original(geo, d, x, u1, u2)

    monkeypatch.setattr(Geometry, "_overlap_support", recording)
    rt = Runtime(config)
    for sc in config.scenarios:
        if sc["kind"] not in ("fdcheck", "direction", "figures"):
            run_scenario(rt, sc["id"], tmp_path)
    monkeypatch.undo()
    keys = {}
    for d, x, u1, u2 in seen:
        keys.setdefault((d.cones, x.coords, u1.coords, u2.coords), (d, x, u1, u2))
    return rt.geo, list(keys.values())


def meeting_triples(geo, translates, targets):
    """Every (i, j, k) whose cell i of the k-translate meets targets[j],
    found by exact intersection."""
    return [
        (i, j, k)
        for k, cells in translates.items()
        for i, c in enumerate(cells)
        for j, t in enumerate(targets)
        if intersect_cells(c, t, geo.trace_form)
    ]


def shrunk(box, by):
    return tuple(
        (signed(mpf_add(from_man_exp(*lo), by, 80)), signed(mpf_sub(from_man_exp(*hi), by, 80)))
        for lo, hi in box
    )


def missed(table, targets, triples, shrink=False):
    """The meeting triples outside their pair's range, with the table's cell
    boxes and the target boxes, or, with `shrink`, both shrunk by 0.1 per
    side on a copy of the table."""
    if shrink:
        tenth = from_rational(1, 10, 80)
        table = copy.copy(table)
        table.cell_boxes = [shrunk(b, tenth) for b in table.cell_boxes]
        targets = [shrunk(b, tenth) for b in targets]
    pairs = table.pairs(targets)
    return [(i, j, k) for i, j, k in triples if (i, j) not in pairs.get(k, ())]


def test_k_ranges_read_a_zero_endpoint_at_any_exponent():
    """An exact cancellation leaves a zero endpoint (0, e) whose exponent
    lies below every other: it reads as 0, and the ranges are those of the
    boxes [0, 1/2] x [-3/4, 0] and [5/2, 3] x [-1, 4]."""
    tiny = ((1, -300), (1, -300))
    zero = sub_iv(tiny, tiny, 80)[0]
    assert zero == (0, -300)
    moving = [((zero, (1, -1)), ((-3, -2), zero))]
    fixed = [(((5, -1), (3, 0)), ((-1, 0), (1, 2)))]
    assert _k_ranges(moving, fixed) == [[((2, 3), (-1, 4))]]


def support_targets(table, x):
    """The boxes of the cells of x^-1 D: box(cell) - phi(x)."""
    point = table.point(x)
    return [[sub_iv(b, p, table.prec) for b, p in zip(box, point)] for box in table.cell_boxes]


def check_supports(geo, translates, searches):
    """Every meeting triple of each search lies in its pair range; with the
    boxes shrunk some triple falls outside."""
    missed_when_shrunk = 0
    for d, x, u1, u2 in searches:
        table = _TranslateTable(geo, d, u1, u2)
        targets = [c.translate(x.inverse().mul_matrix()) for c in d.cones]
        triples = meeting_triples(geo, translates(geo, d, u1, u2), targets)
        assert triples
        boxes = support_targets(table, x)
        assert missed(table, boxes, triples) == []
        missed_when_shrunk += len(missed(table, boxes, triples, shrink=True))
    assert missed_when_shrunk


def test_pair_ranges_hold_every_bundled_meeting(config, translates, monkeypatch, tmp_path):
    geo, searches = bundled_searches(config, monkeypatch, tmp_path)
    assert len(searches) >= 5
    check_supports(geo, translates, searches)


def test_pair_ranges_hold_every_cover_sweep_meeting(geo, els, translates):
    e1, e2 = els["eps1"], els["eps2"]
    b = geo.explicit_B(e1, e2)
    searches = [
        (b, els["pi1"] * els["g1"] ** a * els["g2"] ** c, e1, e2)
        for a, c in itertools.product(range(-3, 4), repeat=2)
    ]
    check_supports(geo, translates, searches)


def test_fdcheck_pair_ranges_hold_every_meeting(geo, els, pihats, translates):
    """Each translate cell meeting the sampling cone S lies in the range of
    box(S) - box(cell), for D, B, B1 and B2. These ranges are loose: every
    meeting lies at least 1.27 inside its range, so boxes shrunk by 0.1
    still hold them, unlike those of the supports above."""
    bundled = (els["g1"], els["g2"], els["eps1"], els["eps2"], pihats["case1"])
    for name, d, u1, u2 in domains(geo, *bundled):
        table = _TranslateTable(geo, d, u1, u2)
        w = _int_matrix([v.coords for v in (geo.spec.one, u1, u1 * u2)])
        triples = meeting_triples(
            geo, translates(geo, d, u1, u2), decompose_rays(w, geo.trace_form)
        )
        # every S cell shares the one box of S
        triples = [(i, 0, k) for i, _, k in triples]
        assert triples, name
        assert missed(table, [table.cell_box(w)], triples) == [], name


# -- translates built --------------------------------------------------------


def count_translates(monkeypatch) -> list:
    calls = []
    original = Cone.translate

    def counting(cell, m):
        calls.append(cell)
        return original(cell, m)

    monkeypatch.setattr(Cone, "translate", counting)
    return calls


def test_cover_and_fdcheck_build_few_translates(config, els, tmp_path, monkeypatch):
    # a scan of the window makes 1,740 and 1,734 translates here
    calls = count_translates(monkeypatch)
    rt = Runtime(config)
    assert run_scenario(rt, "cover-pi1", tmp_path)["outcome"] == "PASS"
    assert len(calls) <= 200
    calls.clear()
    rt = Runtime(config)
    e1, e2 = els["eps1"], els["eps2"]
    b = rt.geo.explicit_B(e1, e2)
    assert rt.geo.fundamental_domain_check(b, e1, e2, samples=100).passed
    assert len(calls) <= 200


def test_uncertified_pair_is_inconclusive(config, els):
    """g1 and g1^2 have dependent logs, so the determinant of the phi basis
    straddles zero at every precision. No config reaches this: the delta
    sign checks every domain makes rejected each dependent pair g^a, g^b
    tried (g1, g2, eps1 and eps2, with a, b in -4..4 nonzero)."""
    cfg = SignConfig(max_bits=256)
    geo = Geometry(RealEmbeddings(config.spec, config.embedding_order, cfg=cfg))
    g1 = els["g1"]
    d = geo.colmez_domain(g1, els["g2"])
    start = time.monotonic()
    with pytest.raises(PrecisionExhausted, match="not certified independent at 256 bits"):
        geo.error_support(d, els["pi"], g1, g1**2)
    assert time.monotonic() - start < 5
