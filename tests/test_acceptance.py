"""Acceptance suite for the bundled appendix configuration.

Each test prints one PASS line on success (run with `pytest -s` to see
them); tolerances are pinned in the assertions themselves.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from shintani_forge import plane, units
from shintani_forge.field import det3
from shintani_forge.scenario import run_scenario

GOLDEN = Path(__file__).parent / "golden"


def _line(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def omega_pi(rt, els):
    """pi normalized over the full unit group (the construction's output)."""
    _, omega = units.triangle_search(
        els["eps1"],
        els["eps2"],
        els["pi"],
        1,
        rt.emb,
        unit_basis=(els["g1"], els["g2"]),
    )
    return omega * els["pi"]


def test_criterion_1_counterexample_exact(geo, els):
    start = time.monotonic()
    d = geo.colmez_domain(els["g1"], els["g2"])
    support = geo.error_support(d, els["pi"], els["g1"], els["g2"])
    elapsed = time.monotonic() - start
    assert (1, -1) in support
    assert (0, -1) in support
    assert any(k1 not in (0, 1) or k2 not in (0, 1) for k1, k2 in support)
    assert elapsed < 10.0
    _line(1, f"error support {support} violates the unit box in {elapsed:.2f}s")


def test_criterion_2_construction_verification(rt, els):
    res = units.build_construction(
        els["g1"],
        els["g2"],
        els["pi"],
        rt.geo,
        l_max=4,
        eps_pair=(els["eps1"], els["eps2"]),
    )
    assert res.l == 1
    fixgi = units.check_fixgi(els["eps1"], els["eps2"], rt.emb)
    assert fixgi.passed and all(m > 0 for m in fixgi.margins.values())
    suite = units.check_sign_suite(
        els["eps1"], els["eps2"], res.omega * els["pi"], rt.emb
    )
    assert suite.passed and len(suite.signs) == 6
    _line(2, f"fixgi + six-sign suite pass, chosen power l={res.l}")


def test_criterion_3_case_classification(geo, els):
    case_a, box_a = geo.classify_case(els["eps1"], els["eps2"], els["pi1"])
    case_b, box_b = geo.classify_case(els["eps1"], els["eps2"], els["pi2"])
    assert {case_a, case_b} == {"case1", "case2"}
    assert case_b == "case1" and box_b.alpha == (1, 1)
    assert case_a == "case2" and box_a.alpha == (1, 2)
    _line(3, f"pi1 -> {case_a} box {box_a.alpha}, pi2 -> {case_b} box {box_b.alpha}, exact")


def test_criterion_4_set_identities(geo, els, pihats):
    timings = []
    expected_tags = {
        "case1": ["id1", "id2"],
        "case2": ["id1", "id2", "case2extra", "case2extra_reference"],
    }
    for case, tags in expected_tags.items():
        start = time.monotonic()
        got_case, results = geo.verify_identity(els["eps1"], els["eps2"], pihats[case])
        elapsed = time.monotonic() - start
        assert got_case == case
        assert [tag for tag, _, _ in results] == tags
        for tag, ok, witness in results:
            assert ok, f"{case}/{tag} witness {witness}"
        assert elapsed < 60.0
        timings.append(f"{case}:{elapsed:.1f}s")
    ref = geo.case2extra_reference(els["eps1"], els["eps2"], pihats["case2"])
    b = geo.explicit_B(els["eps1"], els["eps2"])
    b2 = geo.explicit_B2(els["eps1"], pihats["case2"])
    lhs = geo.intersect(
        geo.union(geo.scale(b, els["eps2"]), geo.scale(b, els["eps1"] * els["eps2"])),
        geo.scale(b2, pihats["case2"].inverse()),
    )
    ok, _ = geo.set_equal(lhs, ref)
    assert ok
    _line(4, f"all identities exactly empty symmetric differences ({', '.join(timings)})")


def test_criterion_5_tiling(geo, els, omega_pi, config):
    seed = config.seed
    checks = [
        ("D", geo.colmez_domain(els["g1"], els["g2"]), els["g1"], els["g2"]),
        ("B", geo.explicit_B(els["eps1"], els["eps2"]), els["eps1"], els["eps2"]),
        ("B1", geo.explicit_B1(els["eps2"], omega_pi), els["eps2"], omega_pi),
        ("B2", geo.explicit_B2(els["eps1"], omega_pi), els["eps1"], omega_pi),
    ]
    for name, dom, u1, u2 in checks:
        rep = geo.fundamental_domain_check(dom, u1, u2, samples=1000, seed=seed)
        assert rep.passed, f"{name}: {rep.bad_samples[:2]}"
    _line(5, "D, B, B1, B2 tile with exactly one hit per 1000 seeded samples")


def test_criterion_6_numerical_analysis(rt, els):
    e1, e2 = els["eps1"], els["eps2"]
    emb = rt.emb
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
    for i in (1, 2):
        for t in (0, 1):
            assert plane.limit_derivative(i, t, e1, e2, emb).ok
    rep = plane.check_direction_bounds(1, e1, e2, emb, n_points=64)
    assert rep.passed and rep.min_margin > 0
    _line(6, f"derivatives match finite differences at 1e-6; bounds margin {rep.min_margin:.4f}")


def test_criterion_7_phi_properties(rt, els):
    e1, e2 = els["eps1"], els["eps2"]
    emb = rt.emb
    rng = random.Random(rt.config.seed)
    for _ in range(200):
        a1, a2, b1, b2 = (rng.randint(-4, 4) for _ in range(4))
        x = e1**a1 * e2**a2
        y = e1**b1 * e2**b2
        px = plane.phi(x, e1, e2, emb)
        py = plane.phi(y, e1, e2, emb)
        pxy = plane.phi(x * y, e1, e2, emb)
        tol = px.err + py.err + pxy.err + 1e-9
        assert abs(pxy.x - px.x - py.x) <= tol
        assert abs(pxy.y - px.y - py.y) <= tol
    for a in range(-5, 6):
        for b in range(-5, 6):
            p = plane.phi(e1**a * e2**b, e1, e2, emb)
            assert abs(p.x - a) <= p.err + 1e-9
            assert abs(p.y - b) <= p.err + 1e-9
    _line(7, "phi additive over 200 products; unit powers land on the lattice")


def test_criterion_8_delta_suite(rt, els, spec):
    emb = rt.emb
    rng = random.Random(rt.config.seed + 1)

    def rand_el():
        return spec.element(
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        )

    for _ in range(500):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert emb.sign_det(x, y, z) == -emb.sign_det(y, x, z)
    for _ in range(100):
        x, y = rand_el(), rand_el()
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        z = x.scalar_mul(p) + y.scalar_mul(q)
        assert emb.sign_det(x, y, z) == 0
        assert det3([[v.coords[i] for v in (x, y, z)] for i in range(3)]) == 0
    _line(8, "delta antisymmetric on 500 triples, exactly zero on dependent triples")


def test_criterion_9_figure_regression(rt, tmp_path):
    report = run_scenario(rt, "figures", tmp_path)
    assert report["outcome"] == "PASS"
    for name in ("fig1", "fig2", "fig3", "fig4"):
        for ext in (".svg", ".csv"):
            assert (tmp_path / f"{name}{ext}").read_bytes() == (
                GOLDEN / f"{name}{ext}"
            ).read_bytes()
    golden_report = json.loads((GOLDEN / "figures.report.json").read_text())
    assert report == golden_report
    stats = {e["name"]: e for e in report["evidence"]}
    assert [stats[f]["curves"] for f in ("fig1", "fig2", "fig3", "fig4")] == [4, 25, 35, 25]
    _line(9, "figures byte-identical to goldens with matching structure")


def test_criterion_10_scope_boundary(config):
    # the analytic layer (zeta values, Galois data) is out of scope; its
    # geometric substrate is covered by the scenario kinds shipped here
    kinds = {s["kind"] for s in config.scenarios}
    assert {
        "counterexample",
        "construction",
        "case",
        "identities",
        "fdcheck",
        "direction",
        "figures",
        "cover",
    } <= kinds
    _line(10, "geometric substrate fully exercised; analytic layer out of scope")
