"""Independent oracle for the perturbed closure: a face belongs to the
closed-up set exactly when nudging its points along the first embedding axis
enters the open cone. The oracle evaluates that limit test numerically at
high precision, with no reference to the production sign machinery."""

from fractions import Fraction

import mpmath
import pytest

from shintani_forge.cones import Cone
from shintani_forge.errors import PrecisionExhausted
from shintani_forge.embedding import RealEmbeddings, SignConfig


def _float_roots(emb):
    old = mpmath.mp.dps
    mpmath.mp.dps = 80
    try:
        coeffs = list(reversed([mpmath.mpf(int(c)) for c in emb.spec.int_coeffs]))
        roots = sorted(mpmath.polyroots(coeffs))
        return [roots[i] for i in emb.order]
    finally:
        mpmath.mp.dps = old


def _emb_vec(roots, coords):
    return [coords[0] + coords[1] * t + coords[2] * t * t for t in roots]


def _nudged_membership(roots, gens, point_vec, h):
    """Is point + h*e1 in the open cone of the embedded generators?"""
    m = mpmath.matrix(3, 3)
    for j, g in enumerate(gens):
        col = _emb_vec(roots, g)
        for i in range(3):
            m[i, j] = col[i]
    rhs = mpmath.matrix([point_vec[0] + h, point_vec[1], point_vec[2]])
    sol = mpmath.lu_solve(m, rhs)
    return all(v > 0 for v in sol)


@pytest.mark.parametrize("cone_key", ["D1", "D2", "B1", "B2"])
def test_faces_match_the_limit_definition(rt, els, geo, cone_key):
    one = rt.config.spec.one
    g1, g2, e1, e2 = els["g1"], els["g2"], els["eps1"], els["eps2"]
    cones = {
        "D1": geo.cone(one, g1, g1 * g2),
        "D2": geo.cone(one, g2, g1 * g2),
        "B1": geo.cone(one, e1, e1 * e2),
        "B2": geo.cone(one, e2, e1 * e2),
    }
    c = cones[cone_key]
    closed = geo.perturbed_closure(c)
    included = {cell.gens for cell in closed.cones if cell != c}

    old = mpmath.mp.dps
    mpmath.mp.dps = 80
    try:
        roots = _float_roots(rt.emb)
        gens = list(c.gens)
        for t in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            face = Cone(tuple(sorted(c.gens[i] for i in t)))
            # witness in the open face
            w = face.witness_vec()
            pv = _emb_vec(roots, w)
            h = mpmath.mpf(10) ** -40
            inside = _nudged_membership(roots, gens, pv, h)
            # stable under shrinking the nudge
            assert inside == _nudged_membership(roots, gens, pv, h / 10**10)
            assert inside == (face.gens in included), (cone_key, t)
    finally:
        mpmath.mp.dps = old


def test_low_dimensional_cone_has_no_axis_alignment(geo, els, spec):
    c = geo.cone(spec.one, els["eps1"])
    closed = geo.perturbed_closure(c)
    assert closed.cones == (c,)


def test_precision_guard_on_near_degenerate_triple(rt, els, spec):
    # a triple rationally independent but separated only at ~2^-133:
    # a one-rung precision ladder cannot certify the determinant sign
    tiny = Fraction(1, 2**133)
    x = els["g1"]
    y = els["g2"]
    z = x + y.scalar_mul(tiny)
    order = rt.config.embedding_order
    shallow = RealEmbeddings(spec, order, cfg=SignConfig(start_bits=32, max_bits=32))
    with pytest.raises(PrecisionExhausted):
        shallow.sign_det(spec.one, x, z)
    deep = RealEmbeddings(spec, order, cfg=SignConfig(start_bits=32, max_bits=4096))
    assert deep.sign_det(spec.one, x, z) != 0
