import json
from pathlib import Path

import pytest

from shintani_forge import figures
from shintani_forge.figures import Scene, materialize_scene, render_svg_csv
from shintani_forge.scenario import run_scenario

GOLDEN = Path(__file__).parent / "golden"


class TestRenderBasics:
    def test_empty_scene_has_viewport(self, rt, tmp_path):
        mat = materialize_scene(
            Scene(), rt.emb, (rt.config.elements["eps1"], rt.config.elements["eps2"])
        )
        svg, csv = render_svg_csv(mat, tmp_path / "e.svg", tmp_path / "e.csv")
        text = Path(svg).read_text()
        assert 'viewBox="0 0 640 640"' in text
        assert text.startswith("<?xml")
        assert Path(csv).read_text().splitlines() == ["curve_id,t,x,y,err"]

    def test_set_layer_draws_faces_and_rays(self, rt, geo, els, tmp_path):
        scene = Scene()
        scene.add_set(geo.explicit_B(els["eps1"], els["eps2"]))
        mat = materialize_scene(scene, rt.emb, (els["eps1"], els["eps2"]), n_points=9)
        _, curves, markers = mat[0]
        assert len(curves) == 5  # distinct 2-faces of the six cells
        assert len(markers) == 1  # the single boundary ray


@pytest.fixture(scope="module")
def regenerated(rt, tmp_path_factory):
    """The figures run's output directory, its report and the (face,
    basis) of every face curve it sampled."""
    out = tmp_path_factory.mktemp("figs")
    sampled = []
    original = figures.sample_face_curve

    def counting(pair, basis, *args):
        sampled.append((pair, basis.g1.coords, basis.g2.coords))
        return original(pair, basis, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(figures, "sample_face_curve", counting)
        report = run_scenario(rt, "figures", out)
    assert report["outcome"] == "PASS"
    return out, report, sampled


class TestGoldenRegression:
    def test_artifacts_byte_identical_to_golden(self, regenerated):
        out, _, _ = regenerated
        for name in ("fig1", "fig2", "fig3", "fig4"):
            for ext in (".svg", ".csv"):
                got = (out / f"{name}{ext}").read_bytes()
                want = (GOLDEN / f"{name}{ext}").read_bytes()
                assert got == want, f"{name}{ext} deviates from golden"

    def test_report_matches_golden(self, regenerated):
        _, report, _ = regenerated
        golden = json.loads((GOLDEN / "figures.report.json").read_text())
        assert report == golden

    def test_structural_counts(self, regenerated):
        _, report, _ = regenerated
        stats = {e["name"]: e for e in report["evidence"]}
        assert stats["fig1"]["curves"] == 4
        # four B translates (5 faces + 1 ray marker each) plus the red translate
        assert stats["fig2"]["curves"] == 25
        assert stats["fig2"]["markers"] == 5
        # six translates in case 2
        assert stats["fig3"]["curves"] == 35
        assert stats["fig3"]["markers"] == 7
        # counterexample: D u g1 D u g2 D u g1g2 D in blue plus red pi^-1 D
        assert stats["fig4"]["curves"] == 25
        assert stats["fig4"]["markers"] == 5

    def test_each_distinct_face_curve_sampled_once(self, regenerated):
        # figs 2-4 draw 85 face curves; fig3 redraws fig2's translates of B
        _, report, sampled = regenerated
        drawn = sum(e["curves"] for e in report["evidence"] if e["name"] != "fig1")
        assert drawn == 85
        assert len(sampled) == len(set(sampled)) == 54

    def test_fig1_endpoints_on_the_unit_lattice(self, regenerated):
        out, _, _ = regenerated
        rows = (out / "fig1.csv").read_text().splitlines()[1:]
        by_curve = {}
        for row in rows:
            cid, t, x, y, err = row.split(",")
            by_curve.setdefault(cid, []).append((float(t), float(x), float(y)))
        endpoints = set()
        for pts in by_curve.values():
            pts.sort()
            endpoints.add((round(pts[0][1], 9), round(pts[0][2], 9)))
            endpoints.add((round(pts[-1][1], 9), round(pts[-1][2], 9)))
        assert endpoints == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}

    def test_fig4_red_overflows_blue_block(self, regenerated):
        # the red boundary dips below every blue curve locally, the visual
        # signature of the translate escaping the 2x2 block
        out, _, _ = regenerated
        rows = (out / "fig4.csv").read_text().splitlines()[1:]
        blue, red = [], []
        for r in rows:
            cid, _, x, y, _ = r.split(",")
            (red if cid.startswith("layer4") else blue).append((float(x), float(y)))
        overflow = False
        for rx, ry in red:
            near = [by for bx, by in blue if abs(bx - rx) <= 0.02]
            if near and ry < min(near) - 1e-6:
                overflow = True
                break
        assert overflow
