"""Every interval past the rational enclosures is a pair of signed integer
endpoints (m, e). The intervals `embedding`, `plane` and `cones` make are
held here to the mpmath interval-context formulas of `oracles` (`ctx_*`),
the formulas they replace: every interval must have the same endpoints, and
every float read-out the same value. The directed-rounding kernels under
them are held to `mpmath.libmp` itself, operation by operation on seeded
random operands, the log to `oracles.mpf_log_ep`, and the per-point steps
to the libmp compositions of `oracles` on every face the figures draw."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import (
    finf,
    fninf,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC

from shintani_forge import embedding, figures, plane
from shintani_forge.cones import Geometry, _TranslateTable
from shintani_forge.embedding import (
    RatInterval,
    RealEmbeddings,
    SignConfig,
    add_ep,
    add_iv,
    div_ep,
    div_iv,
    float_ep,
    iv_fraction,
    iv_int,
    iv_log_fraction,
    iv_mid_err,
    iv_sign,
    log_ep,
    mul_ep,
    mul_iv,
    raw_iv,
    signed,
    signed_iv,
    sub_iv,
    trace_zero,
    work_prec,
)
from shintani_forge.field import FieldElement
from shintani_forge.figures import set_boundary_faces
from shintani_forge.plane import PhiBasis, _endpoint_ratio, _segment_logs, segment_ends
from shintani_forge.scenario import Runtime, load_config, run_scenario

from oracles import (
    _FLOAT,
    ctx,
    ctx_cell_box,
    ctx_endpoint_ratio,
    ctx_fraction,
    ctx_limit_ratio,
    ctx_log_embed,
    ctx_log_fraction,
    ctx_mid_err,
    ctx_point,
    ctx_project_H,
    ctx_trace_zero,
    ctx_translate_rows,
    libmpi_fraction,
    libmpi_project_logs,
    libmpi_segment_logs,
    libmpi_weights,
    mpf_log_ep,
)

SECOND_FIELD = Path(__file__).parent / "second_field.json"
BITS = (96, 128, 256)
TS = (Fraction(0), Fraction(1, 127), Fraction(1, 3), Fraction(64, 127), Fraction(1))

# -- reference: the interval-context formulas --------------------------------


def ref_segment_logs(e_from, e_to, t, bits):
    iv = ctx(bits)
    ti = ctx_fraction(t, t, bits)
    one = iv.mpf(1)
    return [
        iv.log((one - ti) * ctx_fraction(a.lo, a.hi, bits) + ti * ctx_fraction(b.lo, b.hi, bits))
        for a, b in zip(e_from, e_to)
    ]


class RefBasis:
    def __init__(self, emb, g1, g2, bits):
        self.iv = ctx(bits)
        self.l1 = ctx_log_embed(emb, g1, bits)
        self.l2 = ctx_log_embed(emb, g2, bits)
        self.det = self.l1[0] * self.l2[1] - self.l1[1] * self.l2[0]

    def project_logs(self, logs):
        v0, v1, v2 = (self.iv.convert(v) for v in logs)
        t = (v0 + v1 + v2) / 3
        lh0, lh1 = v0 - t, v1 - t
        a = (lh0 * self.l2[1] - lh1 * self.l2[0]) / self.det
        b = (self.l1[0] * lh1 - self.l1[1] * lh0) / self.det
        return a, b


def ref_lower(v):
    return float(_FLOAT.mpf(v.a))


def ref_sign(v):
    if v.a > 0:
        return 1
    if v.b < 0:
        return -1
    return None


# -- comparisons --------------------------------------------------------------


def exact(*xs):
    """Floats as hex strings, so -0.0 and 0.0 differ and nan equals nan."""
    return [float(x).hex() for x in xs]


def raw(p):
    """The canonical raw mpf of an endpoint."""
    return from_man_exp(*p)


def assert_same_ends(got, want):
    """A signed interval with the endpoints of `want`, an mpmath interval or
    a raw one, and the same sign."""
    if not hasattr(want, "_mpi_"):
        want = ctx(64).make_mpf(want)
    assert raw_iv(got) == want._mpi_
    assert iv_sign(got) == ref_sign(want)
    return want


def assert_same(got, want):
    """The same endpoints and sign, and the same float read-outs, which
    equal the 53-bit formulas in the normal double range."""
    want = assert_same_ends(got, want)
    assert exact(float_ep(got[0])) == exact(ref_lower(want))
    assert exact(*iv_mid_err(got)) == exact(*ctx_mid_err(want))


def assert_all_same(got, want, check=assert_same):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        check(g, w)


def element(emb, vec):
    return FieldElement(emb.spec, tuple(Fraction(v) for v in vec))


def weights(t, bits):
    """The signed (1 - t, t) of `libmpi_weights`."""
    return tuple(signed_iv(v) for v in libmpi_weights(t, bits))


def segment_logs(e_from, e_to, t, bits):
    """`_segment_logs` of a segment at t, at the precision of `bits`."""
    ends = segment_ends(e_from, e_to, bits)
    return _segment_logs(ends, weights(t, bits), work_prec(bits))


@pytest.fixture(scope="module")
def face_pairs(geo, els):
    """Generator pairs of the faces the bundled figures draw: those of B at
    (eps1, eps2) and of the Colmez domain of (g1, g2)."""
    b = geo.explicit_B(els["eps1"], els["eps2"])
    d = geo.colmez_domain(els["g1"], els["g2"])
    return set_boundary_faces(b)[0] + set_boundary_faces(d)[0]


@pytest.mark.parametrize("bits", BITS)
def test_fractions_and_logs(emb, els, bits):
    cases = [(Fraction(-7, 3), Fraction(5, 11)), (Fraction(-9, 2), Fraction(-1, 7))]
    cases += [(Fraction(v), Fraction(v)) for v in (1, 3, Fraction(1, 3), Fraction(-2, 9))]
    for x in (els["g1"], els["eps2"], els["pi"]):
        for at in (64, bits):
            cases += [(e.lo, e.hi) for e in emb.embed(x, at)]
    for lo, hi in cases:
        assert_same(iv_fraction(lo, hi, bits), ctx_fraction(lo, hi, bits))
        if lo > 0:
            assert_same(iv_log_fraction(lo, hi, bits), ctx_log_fraction(lo, hi, bits))


@pytest.mark.parametrize("bits", BITS)
def test_face_segments(emb, els, face_pairs, bits):
    pairs = {"eps": (els["eps1"], els["eps2"]), "g": (els["g1"], els["g2"])}
    bases = {k: PhiBasis(emb, *p, bits) for k, p in pairs.items()}
    refs = {k: RefBasis(emb, *p, bits) for k, p in pairs.items()}
    for pair in face_pairs:
        e_from = emb.embed_positive(element(emb, pair[0]), bits)
        e_to = emb.embed_positive(element(emb, pair[1]), bits)
        for t in TS:
            logs = segment_logs(e_from, e_to, t, bits)
            want = ref_segment_logs(e_from, e_to, t, bits)
            assert_all_same(logs, want)
            for k, basis in bases.items():
                assert_all_same(basis.project_logs(logs), refs[k].project_logs(want))


@pytest.mark.parametrize("bits", BITS)
def test_curve_sample_segments(emb, els, bits):
    """The segments curve_sample draws, from (1, 1, 1) to g_i^l."""
    g1, g2 = els["eps1"], els["eps2"]
    basis, ref = PhiBasis(emb, g1, g2, bits), RefBasis(emb, g1, g2, bits)
    e_one = [RatInterval.point(1)] * 3
    for g in (g1, g2):
        for l in (1, 2):
            e_to = emb.embed_positive(g**l, bits)
            for t in TS[1:-1]:
                logs = segment_logs(e_one, e_to, t, bits)
                want = ref_segment_logs(e_one, e_to, t, bits)
                assert_all_same(logs, want)
                assert_all_same(basis.project_logs(logs), ref.project_logs(want))


def test_cross_precision_projection(emb, els, face_pairs):
    """`PhiBasis.project_logs` takes logs finer than its basis with their
    endpoints as they are and projects them at the basis precision, as the
    interval-context formulas do."""
    g1, g2 = els["eps1"], els["eps2"]
    basis, ref = PhiBasis(emb, g1, g2, 128), RefBasis(emb, g1, g2, 128)
    e_one = [RatInterval.point(1)] * 3
    segments = [(e_one, emb.embed_positive(g1**2, 256))]
    segments += [
        [emb.embed_positive(element(emb, v), 256) for v in pair] for pair in face_pairs[:4]
    ]
    for e_from, e_to in segments:
        for t in TS[1:-1]:
            got = basis.project_logs(segment_logs(e_from, e_to, t, 256))
            want = ref.project_logs(ref_segment_logs(e_from, e_to, t, 256))
            assert all(type(v) is type(ctx(128).mpf(0)) for v in want)
            assert_all_same(got, want)


@pytest.mark.parametrize("log_bits", (256, 512))
def test_finer_logs_on_a_128_bit_basis(emb, els, face_pairs, log_bits):
    """The kernels give the segment logs at a precision finer than a
    128-bit basis, and `PhiBasis.project_logs` their projection at the basis
    precision, as the libmp compositions do."""
    g1, g2 = els["eps1"], els["eps2"]
    basis = PhiBasis(emb, g1, g2, 128)
    e_one = [RatInterval.point(1)] * 3
    segments = [(e_one, emb.embed_positive(g**l, log_bits)) for g in (g1, g2) for l in (1, 2)]
    segments += [
        [emb.embed_positive(element(emb, v), log_bits) for v in pair] for pair in face_pairs[:4]
    ]
    for e_from, e_to in segments:
        for t in TS:
            logs = segment_logs(e_from, e_to, t, log_bits)
            want = libmpi_segment_logs(e_from, e_to, libmpi_weights(t, log_bits)[1], log_bits)
            assert_all_same(logs, want)
            projected = libmpi_project_logs(basis, [raw_iv(v) for v in logs])
            assert_all_same(basis.project_logs(logs), projected)


@pytest.fixture(scope="module")
def figure_faces(config, tmp_path_factory):
    """Per field, a Runtime and the (basis pair, face) of every face curve
    its `figures` scenario samples, recorded on a run of the scenario as
    the batches handed to the sampler, which may sample part of a batch in
    a child process."""
    out = {}
    sample = figures.sample_face_curves
    for name, cfg in (("bundled", config), ("second", load_config(SECOND_FIELD))):
        rt, seen = Runtime(cfg), []

        def record(pairs, basis, sampling, seen=seen):
            seen.extend(((basis.g1, basis.g2), pair) for pair in pairs)
            return sample(pairs, basis, sampling)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(figures, "sample_face_curves", record)
            report = run_scenario(rt, "figures", tmp_path_factory.mktemp(name))
        assert report["outcome"] == "PASS"
        out[name] = rt, seen
    return out


@pytest.mark.parametrize("field", ("bundled", "second"))
@pytest.mark.parametrize("bits", BITS)
def test_points_match_the_libmpi_oracles(figure_faces, field, bits):
    """`_segment_logs` and then `project_logs` give, interval by interval,
    the libmp compositions `libmpi_segment_logs` and `libmpi_project_logs`
    on every face the figures sample, at t = 0, t = 1 and between, and on
    the segment from (1, 1, 1) to itself, whose logs are exactly 0 at the
    dyadic t and so reach the zero fallback of the additions."""
    rt, faces = figure_faces[field]
    emb = rt.emb
    bases = {}
    segments = []
    for basis_pair, pair in faces:
        if basis_pair not in bases:
            bases[basis_pair] = PhiBasis(emb, *basis_pair, bits)
        ends = [emb.embed_positive(element(emb, v), bits) for v in pair]
        segments.append((bases[basis_pair], *ends))
    e_one = [RatInterval.point(1)] * 3
    segments.append((next(iter(bases.values())), e_one, e_one))
    zero_logs = 0
    for basis, e_from, e_to in segments:
        ends = segment_ends(e_from, e_to, bits)
        for t in TS + (Fraction(1, 2),):
            logs = _segment_logs(ends, weights(t, bits), basis.prec)
            want = libmpi_segment_logs(e_from, e_to, libmpi_weights(t, bits)[1], bits)
            assert [raw_iv(v) for v in logs] == want, (e_from, e_to, t)
            got = [raw_iv(v) for v in basis.project_logs(logs)]
            assert got == list(libmpi_project_logs(basis, want)), (e_from, e_to, t)
            zero_logs += sum(w == (fzero, fzero) for w in want)
    assert len(faces) > 20
    assert zero_logs >= 3 * 3  # the (1, 1, 1) segment at t = 0, 1/2 and 1


def test_direction_under_a_64_bit_cap_is_inconclusive(config, tmp_path):
    """Below the basis precision the ladder is empty: the basis logs stay
    uncertified and the report is INCONCLUSIVE, before any kernel runs."""
    capped = dataclasses.replace(config, sign_config=SignConfig(start_bits=64, max_bits=64))
    report = run_scenario(Runtime(capped), "direction", tmp_path)
    assert report["outcome"] == "INCONCLUSIVE"
    assert report["evidence"] == [
        {"name": "error", "value": "embeddings not separated from zero at 64 bits"}
    ]
    assert report["artifacts"] == []


# -- every interval maker against its context formula ------------------------

REF_BITS = (64, 128, 256, 4096)


@pytest.fixture(scope="module")
def fields(config):
    """Per field: its Runtime, the element names to take logs of and the
    unit pairs with their domains."""
    out = {}
    for name, cfg in (("bundled", config), ("second", load_config(SECOND_FIELD))):
        rt = Runtime(cfg)
        els = dict(cfg.elements)
        pairs = [
            (els["g1"], els["g2"], rt.geo.colmez_domain(els["g1"], els["g2"])),
            (els["eps1"], els["eps2"], rt.geo.explicit_B(els["eps1"], els["eps2"])),
        ]
        out[name] = rt, els, pairs
    return out


@pytest.mark.parametrize("field", ("bundled", "second"))
@pytest.mark.parametrize("bits", REF_BITS)
def test_interval_makers_match_the_context_formulas(fields, field, bits, monkeypatch):
    """iv_fraction, iv_log_fraction, trace_zero, project_H, _endpoint_ratio,
    the ratios of limit_derivative and the translate table's rows, points
    and cell boxes give, endpoint by endpoint, the intervals of the
    interval-context formulas they replace, on seeded random elements.
    Their ends can lie below the double range, where the float read-outs
    of the 53-bit formulas, with their wider exponents, differ."""
    rt, els, pairs = fields[field]
    emb, spec = rt.emb, rt.emb.spec
    rng = random.Random(bits)
    prec = work_prec(bits)
    xs = [els[n] for n in ("g1", "g2", "eps1", "eps2", "pi", "pi1")]
    while len(xs) < 10:
        coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        x = FieldElement(spec, coords)
        if not x.is_zero() and emb.is_totally_positive(x):
            xs.append(x)
    for x in xs:
        for e in emb.embed_positive(x, bits):
            assert_same_ends(iv_fraction(e.lo, e.hi, bits), ctx_fraction(e.lo, e.hi, bits))
            assert_same_ends(iv_fraction(-e.hi, e.lo, bits), ctx_fraction(-e.hi, e.lo, bits))
        logs, want = emb.log_embed(x, bits), ctx_log_embed(emb, x, bits)
        assert_all_same(logs, want, assert_same_ends)
        assert_all_same(trace_zero(logs, prec), ctx_trace_zero(want), assert_same_ends)
        assert_all_same(emb.project_H(x, bits), ctx_project_H(emb, x, bits), assert_same_ends)
    ratios = 0
    for g1, g2, _ in pairs:
        logs1, logs2 = emb.log_embed(g1, bits), emb.log_embed(g2, bits)
        refs1, refs2 = ctx_log_embed(emb, g1, bits), ctx_log_embed(emb, g2, bits)
        for g in (g1, g2):
            for power in (1, -1, 2, -3):
                e_g = emb.embed(g**power, bits)
                got = _endpoint_ratio(e_g, logs1, logs2, bits)
                want = ctx_endpoint_ratio(e_g, refs1, refs2, bits)
                assert (got is None) == (want is None)
                if got is not None:
                    assert_same_ends(got, want)
                    ratios += 1
    assert ratios
    # limit_derivative from `bits` up: the ratio it reads out at the first
    # rung whose denominator and ratio are certified
    g1, g2 = els["eps1"], els["eps2"]
    monkeypatch.setattr(plane, "PLANE_BITS", bits)
    read = []
    monkeypatch.setattr(plane, "iv_mid_err", lambda v: read.append(v) or iv_mid_err(v))
    for i, t in ((1, 0), (1, 1), (2, 0), (2, 1)):
        got = plane.limit_derivative(i, t, g1, g2, emb)
        for work in emb.cfg.ladder(bits):
            logs1, logs2 = ctx_log_embed(emb, g1, work), ctx_log_embed(emb, g2, work)
            want = ctx_limit_ratio(i, t, logs1, logs2)
            if want is not None and ref_sign(want) is not None:
                break
        assert_same_ends(read.pop(), want)
        assert (got.value, got.err, got.sign) == (*ctx_mid_err(want), ref_sign(want))
    # the translate table of each pair, its rows certified at `bits`
    geo = Geometry(RealEmbeddings(spec, emb.order, cfg=SignConfig(start_bits=bits)))
    for u1, u2, d in pairs:
        table = _TranslateTable(geo, d, u1, u2)
        rows = ctx_translate_rows(geo.emb, u1, u2, bits)
        assert table.bits == bits and rows is not None
        for got, want in zip(table.rows, rows):
            assert_all_same(got, want, assert_same_ends)
        for x in xs:
            want = ctx_point(rows, geo.emb, x, bits)
            assert_all_same(table.point(x), want, assert_same_ends)
        for cell in d.cones:
            want = ctx_cell_box(rows, geo.emb, cell.gens, bits)
            assert_all_same(table.cell_box(cell.gens), want, assert_same_ends)


# -- integers and fractions against libmp -------------------------------------


@pytest.mark.parametrize("prec", (80, 144, 272, 4112))
def test_iv_int_rounds_as_from_int(prec):
    """iv_int gives from_int at floor and ceiling, for n of 0, 1, bit length
    prec and prec + 1, 973 bits and random widths, of either sign."""
    rng = random.Random(prec)
    ns = [0, 1, (1 << prec) - 1, 1 << prec, (1 << prec) + 1, (1 << prec + 1) - 1]
    ns += [rng.getrandbits(973) | 1 << 972, (1 << 973) - 1]
    ns += [rng.getrandbits(rng.randint(1, 2 * prec)) for _ in range(300)]
    for n in ns + [-n for n in ns]:
        lo, hi = iv_int(n, prec)
        assert raw(lo) == from_int(n, prec, round_floor), n
        assert raw(hi) == from_int(n, prec, round_ceiling), n


@pytest.mark.parametrize("bits", REF_BITS)
def test_iv_fraction_matches_the_libmpi_quotient(bits):
    """iv_fraction against per-end `mpi_div` of from_int intervals: zero and
    negative numerators, and numerators and denominators wider than the
    precision, whose double rounding it keeps."""
    rng = random.Random(7 * bits)
    wide = work_prec(bits) + 40
    zero = Fraction(0)
    cases = [(zero, zero), (zero, Fraction(3, 7)), (Fraction(-5, 3), zero)]
    for _ in range(200):
        width = rng.choice((3, 60, wide, 2 * wide))
        ends = []
        for _ in range(2):
            num = rng.getrandbits(width) * rng.choice((1, -1, 0))
            ends.append(Fraction(num, rng.getrandbits(rng.choice((1, width))) + 1))
        cases.append((min(ends), max(ends)))
    assert any(c.numerator.bit_length() > wide - 40 for c, _ in cases)
    for lo, hi in cases:
        assert raw_iv(iv_fraction(lo, hi, bits)) == libmpi_fraction(lo, hi, bits), (lo, hi)


# -- float read-outs ----------------------------------------------------------


def read_out_cases():
    lo3, hi3 = ctx_fraction(Fraction(1, 3), Fraction(1, 3), 128)._mpi_
    one = from_man_exp(1, 0)
    ulp = from_man_exp(1, -52)
    return {
        "point": (lo3, lo3),
        "same double": (lo3, hi3),
        "negative": (from_man_exp(-7, -1), from_man_exp(-5, -3)),
        "negative point": (from_man_exp(-3, -2), from_man_exp(-3, -2)),
        "straddling": (from_man_exp(-5, -4), from_man_exp(3, -2)),
        "symmetric": (from_man_exp(-3, -5), from_man_exp(3, -5)),
        "zero lower": (from_man_exp(0, 0), from_man_exp(1, 0)),
        "zero upper": (from_man_exp(-1, 0), from_man_exp(0, 0)),
        "tiny straddle": (from_man_exp(-1, -200), from_man_exp(1, -190)),
        # 1 + (1 + 2^-52) lies halfway between two doubles; ties go to even
        "tie": (one, mpf_add(one, ulp)),
        "wide": (from_man_exp(-(2**300), -10), from_man_exp(2**280, 5)),
    }


@pytest.mark.parametrize("name", sorted(read_out_cases()))
def test_read_outs_match_the_53_bit_formulas(name):
    """Of the signed endpoints of a raw interval, odd or even."""
    v = read_out_cases()[name]
    assert_same(signed_iv(v), v)
    (am, ae), (bm, be) = signed_iv(v)
    assert_same(((am << 5, ae - 5), (bm << 70, be - 70)), v)


def test_same_double_endpoints_read_as_a_point():
    lo, hi = ctx_fraction(Fraction(1, 3), Fraction(1, 3), 128)._mpi_
    assert lo != hi
    assert iv_mid_err(signed_iv((lo, hi))) == (1 / 3, 0.0)
    assert float_ep(signed(lo)) == 1 / 3


def test_read_outs_agree_with_iv_sign():
    """iv_sign of the signed endpoints, against the lower end and the
    midpoint plus radius."""
    for name, v in read_out_cases().items():
        s = iv_sign(signed_iv(v))
        assert s == ref_sign(ctx(128).make_mpf(v)), name
        low = float_ep(signed(v[0]))
        mid, err = iv_mid_err(signed_iv(v))
        if s is None:
            assert low <= 0 <= mid + err, name
        elif s > 0:
            assert low > 0, name
        else:
            assert mid + err < 0, name
    for bits in BITS:
        for lo, hi in ((Fraction(-1, 3), Fraction(1, 3)), (Fraction(-1, 10**40), Fraction(1, 7))):
            v = iv_fraction(lo, hi, bits)
            assert iv_sign(v) is None
            assert float_ep(v[0]) < 0 < iv_mid_err(v)[0] + iv_mid_err(v)[1]
            assert_same(v, ctx_fraction(lo, hi, bits))


# -- directed-rounding kernels ------------------------------------------------

PRECS = (80, 112, 144, 272)
DIRECTIONS = ((0, round_floor), (1, round_ceiling))
INTERVAL_KERNELS = ((add_iv, mpi_add), (sub_iv, mpi_sub), (mul_iv, mpi_mul), (div_iv, mpi_div))


def random_mpf(rng, prec, exp=None):
    """A nonzero canonical mpf of 1 to 2 prec bits: a random mantissa, or one
    of all ones (a rounding away from zero carries it to a power of two) or
    a power of two."""
    bits = rng.choice((1, 2, 3, prec // 2, prec - 1, prec, prec + 1, prec + 2, 2 * prec))
    shape = rng.random()
    if shape < 0.15:
        man = (1 << bits) - 1
    elif shape < 0.2:
        man = 1 << (bits - 1)
    else:
        man = rng.getrandbits(bits) | 1 << (bits - 1)
    if exp is None:
        exp = rng.randint(-2 * prec, prec)
    return from_man_exp(-man if rng.random() < 0.5 else man, exp)


def unnormalized(rng, x, prec):
    """The endpoint of the raw mpf x, its mantissa shifted left by 0 to 2
    prec bits: the same value with an even mantissa, or a zero with an
    exponent."""
    k = rng.choice((0, 0, 1, 3, prec, 2 * prec))
    m, e = signed(x)
    return m << k, e - k


def band_pairs(rng, prec):
    """Nonzero pairs whose odd-mantissa exponents differ by over 100 and
    whose top bits lie prec + 4 apart, which mpmath adds, or prec + 5 apart,
    which it perturbs; both orders and all four sign pairs."""
    for gap in (prec + 4, prec + 5):
        for d in (101, 140, 2 * prec, 101, 140, 2 * prec):
            low = max(1, d - gap + 1)
            ly = rng.randint(low, low + prec)
            lx = gap + ly - d
            xm = rng.getrandbits(lx) | 1 << (lx - 1) | 1
            ym = rng.getrandbits(ly) | 1 << (ly - 1) | 1
            ey = rng.randint(-2 * prec, prec)
            x, y = (xm, ey + d), (ym, ey)
            assert x[1] + lx - y[1] - ly == gap and x[1] - y[1] > 100
            for sx in (1, -1):
                for sy in (1, -1):
                    a = from_man_exp(sx * x[0], x[1])
                    b = from_man_exp(sy * y[0], y[1])
                    yield a, b
                    yield b, a


def operand_pairs(rng, prec, n):
    """Pairs whose exponents differ by nothing, a few bits or over 100, with
    exact negatives and copies, so that sums and differences cancel, zeros,
    and the pairs on both sides of mpmath's perturbation band."""
    gaps = (0, 1, -1, 7, -7, 60, -60, 101, -101, 150, -150, 2 * prec, -2 * prec, 500, -500)
    for _ in range(n):
        s = random_mpf(rng, prec)
        shape = rng.random()
        if shape < 0.08:
            t = s
        elif shape < 0.16:
            t = mpf_neg(s)
        elif shape < 0.2:
            s, t = rng.choice(((fzero, s), (s, fzero), (fzero, fzero)))
        else:
            t = random_mpf(rng, prec, s[2] + rng.choice(gaps))
        yield s, t
    yield from band_pairs(rng, prec)


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


def raw_outcome(f, *args):
    """The raw mpf of the endpoint f(*args) gives, or the exception type."""
    got = outcome(f, *args)
    return got if isinstance(got, type) else raw(got)


@pytest.mark.parametrize("prec", PRECS)
def test_kernels_round_as_mpmath(prec):
    """add_ep, mul_ep and div_ep, on signed endpoints with odd or even
    mantissas, give the values of mpf_add, mpf_sub, mpf_mul and mpf_div at
    round_floor and round_ceiling."""
    rng = random.Random(prec)
    seen = Counter()
    for s, t in operand_pairs(rng, prec, 600):
        (xm, xe), (ym, ye) = unnormalized(rng, s, prec), unnormalized(rng, t, prec)
        results = {}
        for ceil, rnd in DIRECTIONS:
            got = results[0, ceil] = raw(add_ep(xm, xe, ym, ye, prec, ceil))
            assert got == mpf_add(s, t, prec, rnd), (s, t, prec, rnd)
            got = results[1, ceil] = raw(add_ep(xm, xe, -ym, ye, prec, ceil))
            assert got == mpf_sub(s, t, prec, rnd), (s, t, prec, rnd)
            got = results["mul", ceil] = raw(mul_ep(xm, xe, ym, ye, prec, ceil))
            assert got == mpf_mul(s, t, prec, rnd), (s, t, prec, rnd)
            got = raw_outcome(div_ep, xm, xe, ym, ye, prec, ceil)
            assert got == outcome(mpf_div, s, t, prec, rnd), (s, t, prec, rnd)
        if s[1] and t[1]:
            d = s[2] - t[2]
            if abs(d) > 100:
                top = d + s[3] - t[3]
                if abs(top) == prec + 5:
                    seen["perturbed, prec + 5 apart"] += 1
                elif abs(top) == prec + 4:
                    seen["added, prec + 4 apart"] += 1
                elif abs(top) > prec + 4:
                    seen["gap, magnitudes far apart"] += 1
                else:
                    seen["gap, magnitudes close"] += 1
            if fzero in (results[0, 0], results[1, 0]):
                seen["cancellation"] += 1
            for op in (0, 1, "mul"):
                lo, hi = results[op, 0], results[op, 1]
                away = lo if lo[0] else hi
                if lo != hi and away[1] == 1:
                    seen["carry to a power of two"] += 1
            if (xm, xe) != signed(s) or (ym, ye) != signed(t):
                seen["even mantissa"] += 1
            if xm < 0 or ym < 0:
                seen["negative mantissa"] += 1
        else:
            seen["zero operand"] += 1
    assert set(seen) == {
        "perturbed, prec + 5 apart",
        "added, prec + 4 apart",
        "gap, magnitudes far apart",
        "gap, magnitudes close",
        "cancellation",
        "carry to a power of two",
        "even mantissa",
        "negative mantissa",
        "zero operand",
    }


def random_interval(rng, prec, shape):
    x, y = (mpf_abs(random_mpf(rng, prec)) for _ in range(2))
    if mpf_lt(y, x):
        x, y = y, x
    return {
        "positive": (x, y),
        "negative": (mpf_neg(y), mpf_neg(x)),
        "point": (x, x),
        "straddling": (mpf_neg(x), y),
        "zero lower": (fzero, y),
        "zero upper": (mpf_neg(x), fzero),
        "zero": (fzero, fzero),
    }[shape]


SHAPES = ("positive", "negative", "point", "straddling", "zero lower", "zero upper", "zero")


@pytest.mark.parametrize("prec", PRECS)
def test_interval_kernels_match_libmpi(prec):
    """add_iv, sub_iv, mul_iv and div_iv, on intervals of signed endpoints
    with odd or even mantissas, give the raw intervals of mpi_add, mpi_sub,
    mpi_mul and mpi_div for every pair of shapes: one strict sign (negative
    denominators too), zero endpoints and zero-straddling. A denominator
    with zero in it, to which mpi_div answers an infinite endpoint, raises
    ZeroDivisionError."""
    rng = random.Random(1000 + prec)
    for _ in range(12):
        for s_shape in SHAPES:
            for t_shape in SHAPES:
                s = random_interval(rng, prec, s_shape)
                t = random_interval(rng, prec, t_shape)
                ss = tuple(unnormalized(rng, v, prec) for v in s)
                ts = tuple(unnormalized(rng, v, prec) for v in t)
                for kernel, ref in INTERVAL_KERNELS:
                    want = ref(s, t, prec)
                    if kernel is div_iv and t_shape not in ("positive", "negative", "point"):
                        assert finf in want or fninf in want
                        with pytest.raises(ZeroDivisionError):
                            kernel(ss, ts, prec)
                        continue
                    assert raw_iv(kernel(ss, ts, prec)) == want, (kernel.__name__, s, t, prec)


# -- the interval log --------------------------------------------------------

# 30 and 53 bits are the precision of no other log, so `log_taylor_cached`
# computes new entries; at 2470 bits a cancellation of over 10 bits takes
# the working precision past LOG_TAYLOR_PREC, at 4112 bits every log's does
LOG_PRECS = (30, 53, 80, 112, 144, 272, 1040, 2470, 4112)
# the cases `log_ep` hands to `mpf_log`
LOG_FALLBACKS = ("power of two", "|mag| > 10000", "cancellation over wp", "wp past LOG_TAYLOR_PREC")


def near_one(rng, bc, mag, c):
    """A bc-bit mantissa of magnitude mag, one of -1, 0 and 1, whose
    cancellation as `mpf_log` counts it is c, for 2 <= c < bc: 2^bc - t at
    mag 0, else 2^(bc - 1) + t, with t of bc - c bits."""
    t = rng.getrandbits(bc - c) | 1 << (bc - c - 1)
    return (1 << bc) - t if mag == 0 else (1 << bc - 1) + t


def pick(rng, lo, hi):
    """lo, hi or a random integer between them."""
    return rng.choice((lo, hi, rng.randint(lo, hi)))


def log_case(rng, name, prec):
    """A positive endpoint (m, e) of the named case, its mantissa shifted
    left by 0 to prec bits."""
    wp = prec + 20
    bc = rng.choice((2, 3, prec // 2, prec - 1, prec, prec + 1, 2 * prec))
    m = rng.getrandbits(bc) | 1 << (bc - 1) | 1
    if name == "odd mantissa":
        mag = rng.choice((-1, 1)) * rng.choice((2, 3, rng.randint(4, 60), 10000))
    elif name.startswith("mag"):
        mag = int(name.split()[1].rstrip(","))
        if name.endswith("large cancellation"):
            bc = wp + 2
            m = near_one(rng, bc, mag, pick(rng, prec // 2, min(wp, LOG_TAYLOR_PREC - wp)))
    elif name == "power of two":
        m, mag = 1, rng.randint(-3, 3)
    elif name == "|mag| > 10000":
        mag = rng.choice((-1, 1)) * rng.choice((10001, rng.randint(10002, 10**6), 1 << wp + 1))
    elif name == "cancellation over wp":
        bc, mag = 2 * wp + rng.randint(2, 40), rng.choice((-1, 0, 1))
        m = near_one(rng, bc, mag, pick(rng, wp + 1, bc - 1))
    else:  # "wp past LOG_TAYLOR_PREC", by the cancellation below 2500 bits
        mag = rng.choice((-1, 0, 1))
        if wp <= LOG_TAYLOR_PREC:
            bc = 2 * wp
            m = near_one(rng, bc, mag, pick(rng, LOG_TAYLOR_PREC - wp + 1, wp))
    m <<= rng.choice((0, 0, 1, 3, prec))
    return m, mag - m.bit_length()


@pytest.mark.parametrize("prec", LOG_PRECS)
def test_log_ep_rounds_as_mpf_log(prec, monkeypatch):
    """log_ep gives the value of `mpf_log` on the canonical mpf, down and
    up, for odd and even mantissas shorter and longer than prec, at
    magnitudes -1, 0 and 1 with small and large cancellation, and in each
    case it hands to `mpf_log`; every other case runs its own steps."""
    calls = []
    real = embedding.mpf_log

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(embedding, "mpf_log", counting)
    rng = random.Random(7 * prec)
    wp = prec + 20
    names = ["odd mantissa", "mag -1", "mag 0", "mag 1", *LOG_FALLBACKS[:3]]
    if prec // 2 <= LOG_TAYLOR_PREC - wp:
        names += ["mag -1, large cancellation", "mag 0, large cancellation"]
        names += ["mag 1, large cancellation"]
    if 2 * wp > LOG_TAYLOR_PREC:
        names.append(LOG_FALLBACKS[3])
    n = 40 if prec < 1000 else 6
    for name in names:
        calls.clear()
        for _ in range(n):
            p = log_case(rng, name, prec)
            for ceil in (0, 1):
                got = raw(log_ep(p, prec, ceil))
                assert got == raw(mpf_log_ep(p, prec, ceil)), (name, p, prec, ceil)
        fallback = name in LOG_FALLBACKS or wp > LOG_TAYLOR_PREC
        assert len(calls) == (2 * n if fallback else 0), name


# -- the nearest double of an endpoint ---------------------------------------


def float_cases():
    """Raw mpfs around every branch of the double conversion."""
    k = 1 << 52
    return {
        # 54-bit mantissas halfway between two doubles: ties go to even
        "tie down to even": from_man_exp(2 * (k + 2) + 1, -60),
        "tie up to even": from_man_exp(2 * (k + 1) + 1, -60),
        "tie carries to 2^53": from_man_exp((1 << 54) - 1, 3),
        "carry to 2^60": from_man_exp((1 << 61) - 1, -61),
        "above half": from_man_exp(4 * (k + 2) + 3, 10),
        "exact 53 bits": from_man_exp(2 * k - 1, -52),
        "smallest normal": from_man_exp(1, -1022),
        "just below smallest normal": from_man_exp((1 << 53) - 1, -1075),
        "long below smallest normal": from_man_exp((1 << 90) - 1, -1112),
        "subnormal": from_man_exp(3, -1074),
        "smallest subnormal": from_man_exp(1, -1074),
        "long subnormal": from_man_exp((1 << 60) + 1, -1130),
        "underflow": from_man_exp(1, -1080),
        "largest double": from_man_exp((1 << 53) - 1, 971),
        "rounds past the largest double": from_man_exp((1 << 60) - 1, 964),
        "2^1023": from_man_exp(1, 1023),
        "overflow": from_man_exp(1, 1024),
        "1100-bit mantissa": from_man_exp((1 << 1100) + 1, -1100),
        "zero": fzero,
    }


@pytest.mark.parametrize("name", sorted(float_cases()))
@pytest.mark.parametrize("sign", (1, -1))
def test_float_rounds_as_mpmath(name, sign):
    """float_ep of a raw mpf's signed endpoint, with an odd or an even
    mantissa."""
    x = float_cases()[name]
    if sign < 0:
        x = mpf_neg(x)
    want = exact(to_float(mpf_pos(x, 53, round_nearest)))
    m, e = signed(x)
    assert exact(float_ep((m, e))) == exact(float_ep((m << 9, e - 9))) == want


def test_float_of_random_mpfs():
    rng = random.Random(53)
    for _ in range(3000):
        x = random_mpf(rng, rng.choice((53, 60, 144)), rng.randint(-1200, 1100))
        want = exact(to_float(mpf_pos(x, 53, round_nearest)))
        assert exact(float_ep(unnormalized(rng, x, 60))) == want, x
