import ast
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

from shintani_forge.cli import bundled_config_path
import shintani_forge
from shintani_forge.embedding import (
    RealEmbeddings,
    SignConfig,
    add_iv,
    iv_fraction,
    iv_int,
    mul_iv,
    raw_iv,
    work_prec,
)
from shintani_forge.errors import NotTotallyReal, PrecisionExhausted
from shintani_forge.field import FieldSpec, count_real_roots, det3
from shintani_forge.scenario import Runtime, load_config, run_scenario

from oracles import (
    KERNEL_FIELDS,
    fraction_det_sign,
    fraction_embed,
    fraction_refine_roots,
    libmpi_fraction,
    random_element,
)

coord = st.fractions(min_value=-15, max_value=15, max_denominator=8)
coords = st.tuples(coord, coord, coord)

SECOND_FIELD = Path(__file__).parent / "second_field.json"


class TestRootIsolation:
    def test_three_disjoint_ascending_sturm_verified(self, spec):
        emb = RealEmbeddings(spec, cfg=SignConfig())
        ivs = emb.refine_roots(64)
        assert len(ivs) == 3
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi < b.lo
        for iv in ivs:
            assert count_real_roots(spec.sturm, iv.lo, iv.hi) == 1

    def test_not_totally_real(self):
        with pytest.raises(NotTotallyReal):
            FieldSpec([-2, 0, 0, 1])

    def test_refinement_nests(self, spec):
        emb = RealEmbeddings(spec, cfg=SignConfig())
        coarse = emb.refine_roots(40)
        fine = emb.refine_roots(80)
        for c, f in zip(coarse, fine):
            assert c.lo <= f.lo and f.hi <= c.hi
            assert f.hi - f.lo <= Fraction(1, 2**80)

    @pytest.mark.parametrize("coeffs", [(1, -1, -4, 2), (1, -2, -1, 1)])
    def test_integer_bisection_matches_fraction_bisection(self, coeffs):
        # the bundled field, in its config's labels, and x^3 - x^2 - 2x + 1;
        # refined fresh at each width and along the 64 -> 128 -> 4096 chain
        spec = FieldSpec(list(coeffs))
        chained = RealEmbeddings(spec, (1, 2, 0), cfg=SignConfig())
        for bits in (64, 128, 4096):
            want = fraction_refine_roots(chained, bits)
            want = [want[i] for i in chained.order]
            fresh = RealEmbeddings(spec, (1, 2, 0), cfg=SignConfig())
            for emb in (chained, fresh):
                assert [(iv.lo, iv.hi) for iv in emb.refine_roots(bits)] == want

    def test_history_independent(self, spec):
        a = RealEmbeddings(spec, cfg=SignConfig())
        a.refine_roots(512)
        b = RealEmbeddings(spec, cfg=SignConfig())
        got_a = a.refine_roots(96)
        got_b = b.refine_roots(96)
        assert [(i.lo, i.hi) for i in got_a] == [(i.lo, i.hi) for i in got_b]


class TestEmbed:
    @pytest.mark.parametrize("coeffs", KERNEL_FIELDS)
    def test_integer_horner_matches_the_fraction_horner(self, coeffs):
        # enclosures of random elements at 64, 128 and 4096 bits, with every
        # endpoint the canonical fraction of the rational interval Horner
        spec = FieldSpec(list(coeffs))
        emb = RealEmbeddings(spec, (1, 2, 0), cfg=SignConfig())
        rng = random.Random(sum(coeffs))
        for bits in (64, 128, 4096):
            for _ in range(20):
                x = random_element(spec, rng)
                want = [(e.lo, e.hi) for e in fraction_embed(emb, x, bits)]
                assert [(e.lo, e.hi) for e in emb.embed(x, bits)] == want

    def test_embed_one(self, emb):
        enc = emb.embed(emb.spec.one, 64)
        for e in enc:
            assert e.lo == e.hi == 1

    def test_embed_y_gives_roots(self, emb):
        enc = emb.embed(emb.spec.y, 64)
        roots = emb.refine_roots(64)
        assert [(e.lo, e.hi) for e in enc] == [(r.lo, r.hi) for r in roots]

    def test_appendix_generator_totally_positive(self, emb, els):
        enc = emb.embed(els["g1"], 128)
        assert all(e.lo > 0 for e in enc)
        assert emb.is_totally_positive(els["g1"])

    def test_sign_cases(self, emb, spec):
        assert emb.is_totally_positive(spec.one)
        assert not emb.is_totally_positive(-spec.one)

    def test_appendix_pi_totally_positive(self, emb, els):
        assert emb.is_totally_positive(els["pi"])

    def test_nesting_of_embedding_enclosures(self, emb, els):
        lo_bits = emb.embed(els["eps1"], 64)
        hi_bits = emb.embed(els["eps1"], 256)
        for a, b in zip(lo_bits, hi_bits):
            assert a.lo <= b.lo and b.hi <= a.hi

    def test_linearity_containment(self, emb, els):
        a, b = els["g1"], els["g2"]
        enc_sum = emb.embed(a + b, 96)
        enc_a = emb.embed(a, 96)
        enc_b = emb.embed(b, 96)
        for s, (x, y) in zip(enc_sum, zip(enc_a, enc_b)):
            comb = x + y
            assert s.lo <= comb.hi and comb.lo <= s.hi


class TestSignDet:
    def test_repeated_column_is_zero(self, emb, els, spec):
        assert emb.sign_det(els["g1"], els["g1"], spec.y) == 0

    def test_bracket_signs_of_appendix_units(self, emb, els):
        assert emb.delta_bracket(els["eps1"], els["eps2"]) == 1
        assert emb.delta_bracket(els["eps2"], els["eps1"]) == -1
        assert emb.delta_bracket(els["g1"], els["g2"]) == 1
        assert emb.delta_bracket(els["g2"], els["g1"]) == -1

    def test_degenerate_bracket(self, emb, spec):
        assert emb.delta_bracket(spec.one, spec.one) == 0

    def test_bracket_against_float_oracle(self, emb, els, spec):
        # high-precision floating determinant as an independent oracle
        mp = mpmath.mp
        old = mp.dps
        mp.dps = 60
        try:
            roots = sorted(mpmath.polyroots([2, -4, -1, 1]))
            roots = [roots[i] for i in emb.order]

            def embv(x):
                return [
                    x.coords[0] + x.coords[1] * t + x.coords[2] * t * t for t in roots
                ]

            one = spec.one
            u1, u2 = els["g1"], els["g2"]
            cols = [embv(one), embv(u1), embv(u1 * u2)]
            m = mpmath.matrix(3, 3)
            for i in range(3):
                for j in range(3):
                    m[i, j] = cols[j][i]
            oracle = 1 if mpmath.det(m) > 0 else -1
        finally:
            mp.dps = old
        assert emb.delta_bracket(u1, u2) == oracle

    @given(a=coords, b=coords, c=coords)
    def test_antisymmetry(self, emb, spec, a, b, c):
        x, y, z = spec.element(*a), spec.element(*b), spec.element(*c)
        assert emb.sign_det(x, y, z) == -emb.sign_det(y, x, z)

    @given(a=coords, b=coords, p=coord, q=coord)
    def test_zero_iff_rationally_dependent(self, emb, spec, a, b, p, q):
        x, y = spec.element(*a), spec.element(*b)
        z = x.scalar_mul(p) + y.scalar_mul(q)
        assert emb.sign_det(x, y, z) == 0
        # exact rank oracle agrees by construction
        m = [[v.coords[i] for v in (x, y, z)] for i in range(3)]
        assert det3(m) == 0


def _spied(emb, call):
    """(call(), the finest precision it asked `emb.embed` for, or None)."""
    seen = []
    real = emb.embed
    emb.embed = lambda x, bits: seen.append(bits) or real(x, bits)
    try:
        return call(), max(seen, default=None)
    finally:
        del emb.embed


class TestDetSignOracle:
    """Integer interval determinants against `fraction_det_sign`, on both
    fields: the same sign, decided at the same rung, and the same
    PrecisionExhausted message at a low cap."""

    @pytest.fixture(scope="class", params=["bundled", "second"])
    def field(self, request):
        """(config, fresh embeddings, geometry) of one field."""
        path = bundled_config_path() if request.param == "bundled" else SECOND_FIELD
        config = load_config(path)
        emb = RealEmbeddings(config.spec, config.embedding_order, cfg=SignConfig())
        return config, emb, Runtime(config).geo

    @staticmethod
    def _agree(emb, columns, undecided="undecided"):
        want = fraction_det_sign(emb, columns, undecided)
        if None in columns:
            got = _spied(emb, lambda: emb._det_sign(columns, undecided))
        else:
            got = _spied(emb, lambda: emb.sign_det(*columns))
        assert got == want
        return want

    def test_random_and_dependent_triples(self, field):
        config, emb, _ = field
        spec = config.spec
        rng = random.Random(27)
        rungs = set()
        for _ in range(12):
            x, y, w = (random_element(spec, rng) for _ in range(3))
            p = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            # a determinant 2^-300 det(x, y, w), which the first rungs leave open
            near = x + y + w.scalar_mul(Fraction(1, 2**300))
            for cols in [
                (x, y, w),
                (x, x, y),
                (y, x, x),
                (x, y, x.scalar_mul(p) + y.scalar_mul(q)),
                (x, y, near),
                (None, x, y),
                (x, None, near),
            ]:
                rungs.add(self._agree(emb, cols)[1])
        assert rungs >= {None, 64, 512}

    def test_e1_columns_of_domain_cells(self, field):
        config, emb, geo = field
        els = config.elements
        b = geo.explicit_B(els["eps1"], els["eps2"])
        for cell in b:
            gens = [geo.element_of_vec(g) for g in cell.gens]
            if cell.dim == 3:
                base = self._agree(emb, tuple(gens))[0]
                signs = []
                for i in range(3):
                    cols = tuple(None if c == i else g for c, g in enumerate(gens))
                    signs.append(base * self._agree(emb, cols)[0])
                assert emb.e1_coordinate_signs(gens) == signs
            elif cell.dim == 2:
                self._agree(emb, (None, *gens))

    def test_low_cap_message(self, field):
        config, _, _ = field
        spec = config.spec
        emb = RealEmbeddings(spec, config.embedding_order, cfg=SignConfig(max_bits=128))
        x, y, w = spec.y, spec.one + spec.y * spec.y, spec.element(2, -1, 3)
        near = x + y + w.scalar_mul(Fraction(1, 2**300))
        for cols, undecided in [
            ((x, y, near), "determinant sign undecided"),
            ((None, y, y.scalar_mul(3)), "e1 is aligned with a face of the cone"),
        ]:
            with pytest.raises(PrecisionExhausted) as want:
                fraction_det_sign(emb, cols, undecided)
            with pytest.raises(PrecisionExhausted) as got:
                if None in cols:
                    emb._det_sign(cols, undecided)
                else:
                    emb.sign_det(*cols)
            assert str(got.value) == str(want.value) == undecided


def ends(v):
    """The endpoints of an interval of signed endpoints, as Fractions."""
    return tuple(Fraction(m) * Fraction(2) ** e for m, e in v)


class TestLogs:
    def test_log_of_one_encloses_zero(self, emb):
        logs = emb.log_embed(emb.spec.one, 96)
        for v in logs:
            lo, hi = ends(v)
            assert lo <= 0 <= hi

    def test_log_power_law(self, emb, els):
        prec = work_prec(128)
        l1 = emb.log_embed(els["g1"], 128)
        l3 = emb.log_embed(els["g1"] ** 3, 128)
        for a, b in zip(l1, l3):
            scaled = ends(mul_iv(iv_int(3, prec), a, prec))
            assert scaled[0] <= ends(b)[1] and ends(b)[0] <= scaled[1]

    def test_unit_log_trace_encloses_zero(self, emb, els):
        prec = work_prec(128)
        logs = emb.log_embed(els["g1"], 128)
        lo, hi = ends(add_iv(add_iv(logs[0], logs[1], prec), logs[2], prec))
        assert lo <= 0 <= hi

    @pytest.mark.parametrize("order", [(96, 256), (256, 96)])
    def test_interval_converted_once_per_precision(self, emb, els, order):
        # the direction check escalates, so one interval is asked for at
        # several precisions, and each must get its own enclosure
        e = emb.embed(els["g1"], 64)[0]
        got = {bits: e.iv(bits) for bits in order}
        for bits, v in got.items():
            assert v == iv_fraction(e.lo, e.hi, bits)
            assert raw_iv(v) == libmpi_fraction(e.lo, e.hi, bits)
            assert e.iv(bits) is v
        assert ends(got[96]) != ends(got[256])

    def test_project_H_of_one(self, emb):
        zh = emb.project_H(emb.spec.one, 96)
        for v in zh:
            lo, hi = ends(v)
            assert lo <= 1 <= hi

    def test_project_H_kills_trace(self, emb, els):
        prec = work_prec(128)
        zh = emb.project_H(els["pi"], 128)
        lo, hi = ends(mul_iv(mul_iv(zh[0], zh[1], prec), zh[2], prec))
        assert lo <= 1 <= hi


class TestSignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignConfig(start_bits=8)
        with pytest.raises(ValueError):
            SignConfig(start_bits=64, max_bits=32)
        for factor in (1, 0, 2.5):
            with pytest.raises(ValueError):
                SignConfig(escalation_factor=factor)

    def test_ladder(self):
        cfg = SignConfig(start_bits=64, max_bits=256, escalation_factor=2)
        assert list(cfg.ladder()) == [64, 128, 256]
        assert list(cfg.ladder(128)) == [128, 256]
        assert list(cfg.ladder(512)) == []

    def test_positivity_ladder_holds_the_cap(self, config, els):
        # g1^16 has an embedding too close to 0 to separate at 128 bits
        x = els["g1"] ** 16
        capped = SignConfig(start_bits=64, max_bits=128)
        emb = RealEmbeddings(config.spec, config.embedding_order, cfg=capped)
        with pytest.raises(PrecisionExhausted):
            emb.embed_positive(x, 64)
        with pytest.raises(PrecisionExhausted):
            emb.is_totally_positive(x)
        with pytest.raises(PrecisionExhausted):
            emb.embed_positive(els["g1"], 256)
        emb = RealEmbeddings(config.spec, config.embedding_order, cfg=SignConfig())
        assert all(e.lo > 0 for e in emb.embed_positive(x, 64))
        assert emb.is_totally_positive(x)


def test_no_shared_mpmath_state(monkeypatch, tmp_path):
    """Intervals compute at their own precision, never in an mpmath
    context: no bundled scenario needs mpmath.iv or follows the caller's
    mpmath.mp."""
    cfg = load_config(bundled_config_path())
    sids = [s["id"] for s in cfg.scenarios]
    rt = Runtime(cfg)
    expected = [run_scenario(rt, sid, tmp_path / "a") for sid in sids]
    monkeypatch.setattr(mpmath, "iv", None)
    with mpmath.mp.workprec(20):
        rt = Runtime(load_config(bundled_config_path()))
        got = [run_scenario(rt, sid, tmp_path / "b") for sid in sids]
    assert got == expected


def test_interval_format_has_one_owner():
    """Only `embedding` imports mpmath, so the interval format has one
    owner, and no module-level function is memoized by functools, whose
    cache would outlive every Runtime."""
    package = Path(shintani_forge.__file__).parent
    importers, cached = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
                importers.append(path.stem)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name in ("lru_cache", "cache"):
                        cached.append(f"{path.stem}.{node.name}")
    assert sorted(set(importers)) == ["embedding"]
    assert cached == []
