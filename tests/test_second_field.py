"""Generality checks on a second totally real cubic (the engine must not be
wired to the bundled instance): x^3 - x^2 - 2x + 1, ascending embedding
order."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from shintani_forge.cli import main
from shintani_forge.cones import Geometry, ShintaniSet
from shintani_forge.embedding import RealEmbeddings, SignConfig
from shintani_forge.field import FieldSpec

CONFIG = Path(__file__).parent / "second_field.json"


@pytest.fixture(scope="module")
def spec2():
    return FieldSpec([1, -2, -1, 1])


@pytest.fixture(scope="module")
def emb2(spec2):
    return RealEmbeddings(spec2, cfg=SignConfig())


@pytest.fixture(scope="module")
def geo2(emb2):
    return Geometry(emb2)


def test_roots_ascending(emb2):
    ivs = emb2.refine_roots(64)
    assert ivs[0].hi < ivs[1].lo < ivs[2].lo
    # roots near -1.2470, 0.4450, 1.8019
    lo, hi = ivs[0].lo, ivs[0].hi
    assert lo <= Fraction(-1247, 1000) <= hi or abs(float((lo + hi) / 2) + 1.247) < 1e-3


def test_y_is_a_unit(spec2):
    assert abs(spec2.y.norm()) == 1


def test_totally_positive_unit_square(spec2, emb2):
    u = spec2.y * spec2.y
    assert emb2.is_totally_positive(u)
    assert u.norm() == 1


def test_cone_partition_roundtrip(geo2, spec2, emb2):
    one = spec2.one
    a = spec2.y**2
    b = (spec2.one + spec2.y) ** 2
    assert emb2.is_totally_positive(b)
    big = ShintaniSet.from_cones([geo2.cone(one, a, b)])
    small = ShintaniSet.from_cones([geo2.cone(one, a + b)])
    inter = geo2.intersect(big, small)
    diff = geo2.difference(big, small)
    rebuilt = ShintaniSet.from_cones(list(inter.cones) + list(diff.cones))
    eq, _ = geo2.set_equal(rebuilt, big)
    assert eq
    assert not geo2.overlap(inter, diff)


def test_delta_antisymmetry_transfers(spec2, emb2):
    x = spec2.element(1, 2, 0)
    y = spec2.element(0, 1, 1)
    z = spec2.element(3, 0, 1)
    assert emb2.sign_det(x, y, z) == -emb2.sign_det(x, z, y)
    assert emb2.sign_det(x, y, x.scalar_mul(2) + y.scalar_mul(3)) == 0


def test_perturbed_closure_on_second_field(geo2, spec2):
    one = spec2.one
    a = spec2.y**2
    b = (spec2.one + spec2.y) ** 2
    c = geo2.cone(one, a, b)
    closed = geo2.perturbed_closure(c)
    assert c in closed.cones
    assert all(cell.dim <= 3 for cell in closed.cones)


def test_second_field_config_verifies(tmp_path):
    """Every scenario of `second_field.json` PASSes. No golden pins its
    figures, so they are checked by structure: the curve and marker counts
    of the bundled figures, 16 CSV rows and one polyline per curve, and one
    circle per marker."""
    out = tmp_path / "out"
    assert main(["verify", "--config", str(CONFIG), "--out", str(out)]) == 0
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.report.json"))]
    assert len(reports) == 13
    assert all(r["outcome"] == "PASS" for r in reports)
    figures = next(r for r in reports if r["kind"] == "figures")
    counts = {e["name"]: (e["curves"], e["markers"]) for e in figures["evidence"]}
    assert counts == {"fig1": (4, 0), "fig2": (25, 5), "fig3": (35, 7), "fig4": (25, 5)}
    for name, (curves, markers) in counts.items():
        rows = (out / f"{name}.csv").read_text().splitlines()
        assert rows[0] == "curve_id,t,x,y,err" and len(rows) == 1 + 16 * curves
        svg = (out / f"{name}.svg").read_text()
        assert svg.count("<polyline") == curves and svg.count("<circle") == markers
    fig1 = [row.split(",") for row in (out / "fig1.csv").read_text().splitlines()[1:]]
    ends = {(float(x), float(y)) for _, t, x, y, _ in fig1 if t in ("0", "1")}
    assert ends == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
