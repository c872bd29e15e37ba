import json
import os
import time
from pathlib import Path

import pytest

from shintani_forge import figures
from shintani_forge.figures import Layer, materialize_scene, render_svg_csv
from shintani_forge.plane import PhiBasis, grid
from shintani_forge.scenario import run_scenario

GOLDEN = Path(__file__).parent / "golden"


class TestRenderBasics:
    def test_empty_scene_has_viewport(self, rt, tmp_path):
        mat = materialize_scene([], rt.emb, (rt.config.elements["eps1"], rt.config.elements["eps2"]))
        svg, csv = render_svg_csv(mat, tmp_path / "e.svg", tmp_path / "e.csv")
        text = Path(svg).read_text()
        assert 'viewBox="0 0 640 640"' in text
        assert text.startswith("<?xml")
        assert Path(csv).read_text().splitlines() == ["curve_id,t,x,y,err"]

    def test_set_layer_draws_faces_and_rays(self, rt, geo, els, tmp_path):
        layers = [Layer(geo.explicit_B(els["eps1"], els["eps2"]))]
        mat = materialize_scene(layers, rt.emb, (els["eps1"], els["eps2"]), n_points=9)
        _, curves, markers = mat[0]
        assert len(curves) == 5  # distinct 2-faces of the six cells
        assert len(markers) == 1  # the single boundary ray


@pytest.fixture(scope="module")
def regenerated(rt, tmp_path_factory):
    """The figures run's output directory, its report and the (face,
    basis) of every face curve handed to the batch sampler."""
    out = tmp_path_factory.mktemp("figs")
    sampled = []
    original = figures.sample_face_curves

    def counting(pairs, basis, *args):
        sampled.extend((pair, basis.g1.coords, basis.g2.coords) for pair in pairs)
        return original(pairs, basis, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(figures, "sample_face_curves", counting)
        report = run_scenario(rt, "figures", out)
    assert report["outcome"] == "PASS"
    assert_no_child_left()
    return out, report, sampled


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): the batch sampler sees n CPUs; returns the list of the
    pids of the children it forks."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forked

    return force


@pytest.fixture(scope="module")
def batch(rt, els):
    """The faces of B and of eps1 B, their basis and sampling grid."""
    e1, e2 = els["eps1"], els["eps2"]
    b = rt.geo.explicit_B(e1, e2)
    pairs = sorted(
        {p for s in (b, rt.geo.scale(b, e1)) for p in figures.set_boundary_faces(s)[0]}
    )
    basis = PhiBasis(rt.emb, e1, e2, figures.FIGURE_BITS)
    return pairs, basis, grid(9, basis.bits)


def run_figures_into(rt, out):
    report = run_scenario(rt, "figures", out)
    assert_no_child_left()
    return report


class TestBatchSampling:
    # two processes at most, however many CPUs there are
    @pytest.mark.parametrize("n_cpus, n_forks", [(1, 0), (2, 1), (3, 1), (8, 1)])
    def test_batch_is_the_serial_samples(self, batch, cpus, n_cpus, n_forks):
        pairs, basis, sampling = batch
        forked = cpus(n_cpus)
        got = figures.sample_face_curves(pairs, basis, sampling)
        assert_no_child_left()
        assert len(forked) == n_forks
        want = [figures.sample_face_curve(p, basis, sampling) for p in pairs]
        assert len(got) == len(want) == 9
        for g, w in zip(got, want):
            assert g == w

    def test_fork_error_samples_everything_here(self, batch, cpus, monkeypatch):
        pairs, basis, sampling = batch
        cpus(2)

        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        got = figures.sample_face_curves(pairs, basis, sampling)
        assert got == [figures.sample_face_curve(p, basis, sampling) for p in pairs]

    def test_no_fork_samples_everything_here(self, batch, cpus, monkeypatch):
        pairs, basis, sampling = batch
        cpus(2)
        monkeypatch.delattr(os, "fork")
        got = figures.sample_face_curves(pairs, basis, sampling)
        assert got == [figures.sample_face_curve(p, basis, sampling) for p in pairs]

    def test_failing_children_leave_the_golden_artifacts(self, rt, cpus, monkeypatch, tmp_path):
        forked = cpus(2)
        parent, original = os.getpid(), figures.sample_face_curve

        def child_fails(pair, basis, sampling):
            if os.getpid() != parent:
                raise ValueError("sampling fails in a child")
            return original(pair, basis, sampling)

        monkeypatch.setattr(figures, "sample_face_curve", child_fails)
        report = run_figures_into(rt, tmp_path)
        assert report["outcome"] == "PASS"
        assert len(forked) == 3  # one child for each of figs 2-4
        for name in ("fig1", "fig2", "fig3", "fig4"):
            for ext in (".svg", ".csv"):
                got = (tmp_path / f"{name}{ext}").read_bytes()
                assert got == (GOLDEN / f"{name}{ext}").read_bytes(), f"{name}{ext}"

    def test_sampler_failing_everywhere_gives_the_serial_report(
        self, rt, cpus, monkeypatch, tmp_path
    ):
        def fails(pair, basis, sampling):
            raise ValueError(f"no curve for face {pair}")

        monkeypatch.setattr(figures, "sample_face_curve", fails)
        cpus(1)
        serial = run_figures_into(rt, tmp_path / "serial")
        forked = cpus(2)
        report = run_figures_into(rt, tmp_path / "forked")
        assert serial["outcome"] == "ERROR"
        assert forked and report == serial

    def test_first_failing_curve_in_batch_order_is_reported(
        self, rt, cpus, monkeypatch, tmp_path
    ):
        # every curve but the batch's first fails: the child's first curve
        # (batch curve 1) fails before this process's second (batch curve 2)
        batches = []
        sample_batch, sample_one = figures.sample_face_curves, figures.sample_face_curve

        def recording(pairs, *args):
            batches.append(pairs)
            return sample_batch(pairs, *args)

        def first_only(pair, basis, sampling):
            if pair != batches[-1][0]:
                raise ValueError(f"no curve for face {pair}")
            return sample_one(pair, basis, sampling)

        monkeypatch.setattr(figures, "sample_face_curves", recording)
        monkeypatch.setattr(figures, "sample_face_curve", first_only)
        cpus(1)
        serial = run_figures_into(rt, tmp_path / "serial")
        forked = cpus(2)
        report = run_figures_into(rt, tmp_path / "forked")
        assert serial["outcome"] == "ERROR"
        assert str(batches[0][1]) in json.dumps(serial)
        assert forked and report == serial

    def test_interrupted_batch_kills_its_children(self, batch, cpus, monkeypatch):
        class Interrupt(BaseException):
            pass

        pairs, basis, sampling = batch
        forked = cpus(2)
        parent = os.getpid()

        def parent_interrupted(pair, basis, sampling):
            if os.getpid() == parent:
                raise Interrupt
            time.sleep(60)

        monkeypatch.setattr(figures, "sample_face_curve", parent_interrupted)
        t0 = time.monotonic()
        with pytest.raises(Interrupt):
            figures.sample_face_curves(pairs, basis, sampling)
        assert time.monotonic() - t0 < 30
        assert len(forked) == 1
        assert_no_child_left()
