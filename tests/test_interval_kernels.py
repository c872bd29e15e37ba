"""The interval kernels run on raw (lo, hi) endpoints. They are held here to a
reference written with mpmath's interval-context operations, the formulas
they replace: every interval must have the same endpoints, in the same
context, and every float read-out the same value. The directed-rounding
kernels under them are held to `mpmath.libmp` itself, operation by
operation on seeded random operands, and the plane kernels to the libmp
compositions of `oracles`."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

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

from shintani_forge.embedding import (
    RatInterval,
    SignConfig,
    _float,
    add_rounded,
    div_rounded,
    iv_add,
    iv_context,
    iv_div,
    iv_fraction,
    iv_log_fraction,
    iv_lower,
    iv_mid_err,
    iv_mul,
    iv_sign,
    iv_sub,
    mul_rounded,
)
from shintani_forge.field import FieldElement
from shintani_forge.figures import set_boundary_faces
from shintani_forge.plane import PhiBasis, _segment_logs
from shintani_forge.scenario import Runtime, run_scenario

from oracles import libmpi_project_logs, libmpi_segment_logs, libmpi_weights

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


def exact(*xs):
    """Floats as hex strings, so -0.0 and 0.0 differ and nan equals nan."""
    return [float(x).hex() for x in xs]


def assert_same_read_outs(got, want):
    assert exact(iv_lower(got)) == exact(ref_lower(want))
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


def element(emb, vec):
    return FieldElement(emb.spec, tuple(Fraction(v) for v in vec))


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
            logs = _segment_logs(e_from, e_to, libmpi_weights(t, bits), bits)
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
                logs = _segment_logs(e_one, e_to, libmpi_weights(t, bits), bits)
                want = ref_segment_logs(e_one, e_to, t, bits)
                assert_all_same(logs, want)
                assert_all_same(basis.project_logs(logs), ref.project_logs(want))


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
            logs = _segment_logs(e_from, e_to, libmpi_weights(t, 256), 256)
            got = basis.project_logs(logs)
            assert all(type(v) is type(iv_context(128).mpf(0)) for v in got)
            assert_all_same(got, ref.project_logs(ref_segment_logs(e_from, e_to, t, 256)))


@pytest.mark.parametrize("log_bits", (256, 512))
def test_finer_logs_on_a_128_bit_basis(emb, els, face_pairs, log_bits):
    """`check_direction_bounds` climbs from 128 bits while its basis stays at
    128: the kernels give the segment logs of a finer rung, and their
    projection at the basis precision, as the libmp compositions do."""
    g1, g2 = els["eps1"], els["eps2"]
    basis = PhiBasis(emb, g1, g2, 128)
    e_one = [RatInterval.point(1)] * 3
    segments = [(e_one, emb.embed_positive(g**l, log_bits)) for g in (g1, g2) for l in (1, 2)]
    segments += [
        [emb.embed_positive(element(emb, v), log_bits) for v in pair] for pair in face_pairs[:4]
    ]
    for e_from, e_to in segments:
        for t in TS:
            weights = libmpi_weights(t, log_bits)
            logs = _segment_logs(e_from, e_to, weights, log_bits)
            assert_all_same(logs, libmpi_segment_logs(e_from, e_to, weights[1], log_bits))
            assert_all_same(basis.project_logs(logs), libmpi_project_logs(basis, logs))


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
    v = read_out_cases()[name]
    assert_same_read_outs(v, v)


def test_same_double_endpoints_read_as_a_point():
    lo, hi = ref_fraction(Fraction(1, 3), Fraction(1, 3), 128)._mpi_
    assert lo != hi
    assert iv_mid_err(interval(lo, hi)) == (1 / 3, 0.0)
    assert iv_lower(interval(lo, hi)) == 1 / 3


def test_read_outs_agree_with_iv_sign():
    for name, v in read_out_cases().items():
        s, lower = iv_sign(v), iv_lower(v)
        mid, err = iv_mid_err(v)
        if s is None:
            assert lower <= 0 <= mid + err, name
        elif s > 0:
            assert lower > 0, name
        else:
            assert mid + err < 0, name
    for bits in BITS:
        for lo, hi in ((Fraction(-1, 3), Fraction(1, 3)), (Fraction(-1, 10**40), Fraction(1, 7))):
            v = iv_fraction(lo, hi, bits)
            assert iv_sign(v) is None
            assert iv_lower(v) < 0 < iv_mid_err(v)[0] + iv_mid_err(v)[1]
            assert_same(v, ref_fraction(lo, hi, bits))


# -- directed-rounding kernels ------------------------------------------------

PRECS = (80, 112, 144, 272)
DIRECTIONS = ((0, round_floor), (1, round_ceiling))
INTERVAL_KERNELS = ((iv_add, mpi_add), (iv_sub, mpi_sub), (iv_mul, mpi_mul), (iv_div, mpi_div))


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


def operand_pairs(rng, prec, n):
    """Pairs whose exponents differ by nothing, a few bits or over 100, with
    exact negatives and copies, so that sums and differences cancel, and
    zeros."""
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


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("prec", PRECS)
def test_kernels_round_as_mpmath(prec):
    """Every scalar kernel gives the tuple of mpf_add, mpf_sub, mpf_mul and
    mpf_div at round_floor and round_ceiling."""
    rng = random.Random(prec)
    seen = Counter()
    for s, t in operand_pairs(rng, prec, 600):
        results = {}
        for ceil, rnd in DIRECTIONS:
            for sub, ref in ((0, mpf_add), (1, mpf_sub)):
                got = results[sub, ceil] = add_rounded(s, t, prec, ceil, sub)
                assert got == ref(s, t, prec, rnd), (s, t, prec, rnd, sub)
            got = results["mul", ceil] = mul_rounded(s, t, prec, ceil)
            assert got == mpf_mul(s, t, prec, rnd), (s, t, prec, rnd)
            got = outcome(div_rounded, s, t, prec, ceil)
            assert got == outcome(mpf_div, s, t, prec, rnd), (s, t, prec, rnd)
        if s[1] and t[1]:
            d = s[2] - t[2]
            if abs(d) > 100:
                far = abs(d + s[3] - t[3]) > prec + 4
                seen["gap, magnitudes far apart" if far else "gap, magnitudes close"] += 1
            if fzero in (results[0, 0], results[1, 0]):
                seen["cancellation"] += 1
            for op in (0, 1, "mul"):
                lo, hi = results[op, 0], results[op, 1]
                away = lo if lo[0] else hi
                if lo != hi and away[1] == 1:
                    seen["carry to a power of two"] += 1
        else:
            seen["zero operand"] += 1
    assert set(seen) == {
        "gap, magnitudes far apart",
        "gap, magnitudes close",
        "cancellation",
        "carry to a power of two",
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
    """iv_add, iv_sub, iv_mul and iv_div give the raw intervals of mpi_add,
    mpi_sub, mpi_mul and mpi_div for every pair of shapes: one strict sign
    (negative denominators too), zero endpoints and zero-straddling."""
    rng = random.Random(1000 + prec)
    for _ in range(12):
        for s_shape in SHAPES:
            for t_shape in SHAPES:
                s = random_interval(rng, prec, s_shape)
                t = random_interval(rng, prec, t_shape)
                for kernel, ref in INTERVAL_KERNELS:
                    got = outcome(kernel, s, t, prec)
                    assert got == outcome(ref, s, t, prec), (kernel.__name__, s, t, prec)


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
    x = float_cases()[name]
    if sign < 0:
        x = mpf_neg(x)
    assert exact(_float(x)) == exact(to_float(mpf_pos(x, 53, round_nearest)))


def test_float_of_random_mpfs():
    rng = random.Random(53)
    for _ in range(3000):
        x = random_mpf(rng, rng.choice((53, 60, 144)), rng.randint(-1200, 1100))
        assert exact(_float(x)) == exact(to_float(mpf_pos(x, 53, round_nearest))), x
