"""The plane kernels run on signed integer endpoints (m, e). They are held
here to a reference written with mpmath's interval-context operations, the
formulas they replace: every interval must have the same endpoints, in the
same context, and every float read-out the same value. The directed-rounding
kernels under them are held to `mpmath.libmp` itself, operation by
operation on seeded random operands, and the per-point steps to the libmp
compositions of `oracles` on every face the figures draw."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
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

from shintani_forge import figures
from shintani_forge.embedding import (
    RatInterval,
    SignConfig,
    _float,
    add_ep,
    add_iv,
    div_ep,
    div_iv,
    float_ep,
    iv_context,
    iv_fraction,
    iv_log_fraction,
    iv_mid_err,
    iv_sign,
    mid_err,
    mul_ep,
    mul_iv,
    raw,
    raw_iv,
    sign_iv,
    signed,
    signed_iv,
    sub_iv,
)
from shintani_forge.field import FieldElement
from shintani_forge.figures import set_boundary_faces
from shintani_forge.plane import PhiBasis, _segment_logs, segment_ends
from shintani_forge.scenario import Runtime, load_config, run_scenario

from oracles import libmpi_project_logs, libmpi_segment_logs, libmpi_weights

SECOND_FIELD = Path(__file__).parent / "second_field.json"
BITS = (96, 128, 256)
TS = (Fraction(0), Fraction(1, 127), Fraction(1, 3), Fraction(64, 127), Fraction(1))

# -- reference: the interval-context formulas --------------------------------

_FLOAT = MPContext()


def ref_fraction(lo, hi, bits):
    iv = iv_context(bits)
    a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([a.a, b.b])


def ref_log_fraction(lo, hi, bits):
    return iv_context(bits).log(ref_fraction(lo, hi, bits))


def ref_segment_logs(e_from, e_to, t, bits):
    iv = iv_context(bits)
    ti = ref_fraction(t, t, bits)
    one = iv.mpf(1)
    return [
        iv.log((one - ti) * ref_fraction(a.lo, a.hi, bits) + ti * ref_fraction(b.lo, b.hi, bits))
        for a, b in zip(e_from, e_to)
    ]


class RefBasis:
    def __init__(self, emb, g1, g2, bits):
        self.iv = iv_context(bits)
        self.l1 = [ref_log_fraction(e.lo, e.hi, bits) for e in emb.embed_positive(g1, bits)]
        self.l2 = [ref_log_fraction(e.lo, e.hi, bits) for e in emb.embed_positive(g2, bits)]
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


def ref_mid_err(v):
    mid = (_FLOAT.mpf(v.a) + _FLOAT.mpf(v.b)) / 2
    rad = (_FLOAT.mpf(v.b) - _FLOAT.mpf(v.a)) / 2
    return float(mid), abs(float(rad))


# -- comparisons --------------------------------------------------------------


def lower(v):
    """The lower endpoint of an mpmath interval as a float."""
    return _float(v._mpi_[0])


def exact(*xs):
    """Floats as hex strings, so -0.0 and 0.0 differ and nan equals nan."""
    return [float(x).hex() for x in xs]


def assert_same_read_outs(got, want):
    assert exact(lower(got)) == exact(ref_lower(want))
    assert exact(*iv_mid_err(got)) == exact(*ref_mid_err(want))


def assert_same(got, want):
    """Equal endpoints in the same interval context, and equal read-outs."""
    assert type(got) is type(want)
    assert got._mpi_ == want._mpi_
    assert_same_read_outs(got, want)


def assert_all_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)


def assert_same_signed(got, want):
    """A signed interval with the endpoints of the mpmath interval `want`,
    and the same float read-outs."""
    assert raw_iv(got) == want._mpi_
    assert exact(float_ep(got[0])) == exact(ref_lower(want))
    assert exact(*mid_err(got)) == exact(*ref_mid_err(want))


def assert_all_same_signed(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_signed(g, w)


def element(emb, vec):
    return FieldElement(emb.spec, tuple(Fraction(v) for v in vec))


def weights(t, bits):
    """The signed (1 - t, t) of `libmpi_weights`."""
    return tuple(signed_iv(v) for v in libmpi_weights(t, bits))


def segment_logs(e_from, e_to, t, bits):
    """`_segment_logs` of a segment at t, at the precision of `bits`."""
    ends = segment_ends(e_from, e_to, bits)
    return _segment_logs(ends, weights(t, bits), iv_context(bits).prec)


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
        assert_same(iv_fraction(lo, hi, bits), ref_fraction(lo, hi, bits))
        if lo > 0:
            assert_same(iv_log_fraction(lo, hi, bits), ref_log_fraction(lo, hi, bits))


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
            assert_all_same_signed(logs, want)
            for k, basis in bases.items():
                assert_all_same_signed(basis.project_logs(logs), refs[k].project_logs(want))


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
                assert_all_same_signed(logs, want)
                assert_all_same_signed(basis.project_logs(logs), ref.project_logs(want))


def test_cross_precision_projection(emb, els, face_pairs):
    """Logs from a higher rung of the direction ladder keep their endpoints
    and are projected at the basis precision."""
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
            assert all(type(v) is type(iv_context(128).mpf(0)) for v in want)
            assert_all_same_signed(got, want)


@pytest.mark.parametrize("log_bits", (256, 512))
def test_finer_logs_on_a_128_bit_basis(emb, els, face_pairs, log_bits):
    """`check_direction_bounds` climbs from 128 bits while its basis stays at
    128: the kernels give the segment logs of a finer rung, and their
    projection at the basis precision, as the libmp compositions do."""
    g1, g2 = els["eps1"], els["eps2"]
    basis = PhiBasis(emb, g1, g2, 128)
    ctx = iv_context(log_bits)
    e_one = [RatInterval.point(1)] * 3
    segments = [(e_one, emb.embed_positive(g**l, log_bits)) for g in (g1, g2) for l in (1, 2)]
    segments += [
        [emb.embed_positive(element(emb, v), log_bits) for v in pair] for pair in face_pairs[:4]
    ]
    for e_from, e_to in segments:
        for t in TS:
            logs = segment_logs(e_from, e_to, t, log_bits)
            want = libmpi_segment_logs(e_from, e_to, libmpi_weights(t, log_bits)[1], log_bits)
            assert_all_same_signed(logs, want)
            as_mpf = [ctx.make_mpf(raw_iv(v)) for v in logs]
            assert_all_same_signed(basis.project_logs(logs), libmpi_project_logs(basis, as_mpf))


@pytest.fixture(scope="module")
def figure_faces(config, tmp_path_factory):
    """Per field, a Runtime and the (basis pair, face) of every face curve
    its `figures` scenario samples, recorded on a run of the scenario."""
    out = {}
    sample = figures.sample_face_curve
    for name, cfg in (("bundled", config), ("second", load_config(SECOND_FIELD))):
        rt, seen = Runtime(cfg), []

        def record(pair, basis, sampling, seen=seen):
            seen.append(((basis.g1, basis.g2), pair))
            return sample(pair, basis, sampling)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(figures, "sample_face_curve", record)
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
    emb, ctx = rt.emb, iv_context(bits)
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
            assert [raw_iv(v) for v in logs] == [v._mpi_ for v in want], (e_from, e_to, t)
            got = [raw_iv(v) for v in basis.project_logs(logs)]
            assert got == [v._mpi_ for v in libmpi_project_logs(basis, want)], (e_from, e_to, t)
            zero_logs += sum(w._mpi_ == (fzero, fzero) for w in want)
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


# -- float read-outs ----------------------------------------------------------


def interval(a, b, bits=128):
    return iv_context(bits).make_mpf((a, b))


def read_out_cases():
    lo3, hi3 = ref_fraction(Fraction(1, 3), Fraction(1, 3), 128)._mpi_
    one = from_man_exp(1, 0)
    ulp = from_man_exp(1, -52)
    return {
        "point": interval(lo3, lo3),
        "same double": interval(lo3, hi3),
        "negative": interval(from_man_exp(-7, -1), from_man_exp(-5, -3)),
        "negative point": interval(from_man_exp(-3, -2), from_man_exp(-3, -2)),
        "straddling": interval(from_man_exp(-5, -4), from_man_exp(3, -2)),
        "symmetric": interval(from_man_exp(-3, -5), from_man_exp(3, -5)),
        "zero lower": interval(from_man_exp(0, 0), from_man_exp(1, 0)),
        "zero upper": interval(from_man_exp(-1, 0), from_man_exp(0, 0)),
        "tiny straddle": interval(from_man_exp(-1, -200), from_man_exp(1, -190)),
        # 1 + (1 + 2^-52) lies halfway between two doubles; ties go to even
        "tie": interval(one, mpf_add(one, ulp)),
        "wide": interval(from_man_exp(-(2**300), -10), from_man_exp(2**280, 5)),
    }


@pytest.mark.parametrize("name", sorted(read_out_cases()))
def test_read_outs_match_the_53_bit_formulas(name):
    """Of an mpmath interval, and of its signed endpoints, odd or even."""
    v = read_out_cases()[name]
    assert_same_read_outs(v, v)
    assert_same_signed(signed_iv(v._mpi_), v)
    (am, ae), (bm, be) = signed_iv(v._mpi_)
    assert_same_signed(((am << 5, ae - 5), (bm << 70, be - 70)), v)


def test_same_double_endpoints_read_as_a_point():
    lo, hi = ref_fraction(Fraction(1, 3), Fraction(1, 3), 128)._mpi_
    assert lo != hi
    assert iv_mid_err(interval(lo, hi)) == (1 / 3, 0.0)
    assert lower(interval(lo, hi)) == 1 / 3


def test_read_outs_agree_with_iv_sign():
    """iv_sign of an mpmath interval, and sign_iv of its signed endpoints."""
    for name, v in read_out_cases().items():
        s, low = iv_sign(v), lower(v)
        mid, err = iv_mid_err(v)
        assert sign_iv(signed_iv(v._mpi_)) == s, name
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
            assert lower(v) < 0 < iv_mid_err(v)[0] + iv_mid_err(v)[1]
            assert_same(v, ref_fraction(lo, hi, bits))


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


# -- the nearest double of a raw mpf -----------------------------------------


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
        "inf": finf,
        "-inf": fninf,
        "nan": fnan,
    }


@pytest.mark.parametrize("name", sorted(float_cases()))
@pytest.mark.parametrize("sign", (1, -1))
def test_float_rounds_as_mpmath(name, sign):
    """_float of a raw mpf, and float_ep of a finite one's signed endpoint
    with an odd or an even mantissa."""
    x = float_cases()[name]
    if sign < 0:
        x = mpf_neg(x)
    want = exact(to_float(mpf_pos(x, 53, round_nearest)))
    assert exact(_float(x)) == want
    if x[1] or x == fzero:
        m, e = signed(x)
        assert exact(float_ep((m, e))) == exact(float_ep((m << 9, e - 9))) == want


def test_float_of_random_mpfs():
    rng = random.Random(53)
    for _ in range(3000):
        x = random_mpf(rng, rng.choice((53, 60, 144)), rng.randint(-1200, 1100))
        want = exact(to_float(mpf_pos(x, 53, round_nearest)))
        assert exact(_float(x)) == exact(float_ep(unnormalized(rng, x, 60))) == want, x
