"""The interval kernels run `mpmath.libmp` on raw (lo, hi) endpoints. They are
held here to a reference written with mpmath's interval-context operations,
the formulas they replace: every interval must have the same endpoints, in
the same context, and every float read-out the same value."""

from fractions import Fraction

import pytest
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, mpf_add

from shintani_forge.embedding import (
    RatInterval,
    iv_context,
    iv_fraction,
    iv_log_fraction,
    iv_lower,
    iv_mid_err,
    iv_sign,
)
from shintani_forge.field import FieldElement
from shintani_forge.figures import set_boundary_faces
from shintani_forge.plane import PhiBasis, _segment_logs

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
            logs = _segment_logs(e_from, e_to, t, bits)
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
                logs = _segment_logs(e_one, e_to, t, bits)
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
            logs = _segment_logs(e_from, e_to, t, 256)
            got = basis.project_logs(logs)
            assert all(type(v) is type(iv_context(128).mpf(0)) for v in got)
            assert_all_same(got, ref.project_logs(ref_segment_logs(e_from, e_to, t, 256)))


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
