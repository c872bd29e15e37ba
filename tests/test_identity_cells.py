"""Cross-validation of the identity machinery against hand-assembled cell
lists: the left side of the first identity decomposes into eight explicit
cells built from one auxiliary ray, and the case-2 extra identity reduces to
four cells built from two auxiliary rays. Both sides here are produced by
different code paths (set carving vs direct cell construction), so agreement
is a strong independent check of the kernel."""

import pytest

from shintani_forge.cones import ShintaniSet


@pytest.fixture(scope="module")
def case1_config(geo, els, pihats):
    e1, e2 = els["eps1"], els["eps2"]
    pihat = pihats["case1"]
    b = geo.explicit_B(e1, e2)
    b1 = geo.explicit_B1(e2, pihat)
    return e1, e2, pihat, b, b1


def test_id1_lhs_matches_explicit_eight_cells(geo, spec, case1_config):
    e1, e2, pihat, b, b1 = case1_config
    pinv = pihat.inverse()
    one = spec.one

    # computed by carving
    pinv_b1 = geo.scale(b1, pinv)
    lhs = geo.union(
        geo.intersect(pinv_b1, b),
        geo.scale(geo.intersect(pinv_b1, geo.scale(b, e2)), e2.inverse()),
    )

    # assembled from the displayed cells around the auxiliary ray
    alpha = geo.sample_in_intersection(geo.cone(pinv, e2 * pinv), geo.cone(e2, e1 * e2))
    explicit = ShintaniSet.from_cones(
        [
            geo.cone(one),
            geo.cone(one, e2),
            geo.cone(one, pinv),
            geo.cone(pinv, e2),
            geo.cone(e2, pinv, alpha),
            geo.cone(one, e2, pinv),
            geo.cone(one, e2.inverse() * alpha),
            geo.cone(one, e2.inverse() * alpha, pinv),
        ]
    )
    eq, witness = geo.set_equal(lhs, explicit)
    assert eq, witness


def test_id1_intersections_match_displayed_pieces(geo, spec, case1_config):
    e1, e2, pihat, b, b1 = case1_config
    pinv = pihat.inverse()
    one = spec.one
    alpha = geo.sample_in_intersection(geo.cone(pinv, e2 * pinv), geo.cone(e2, e1 * e2))

    got = geo.intersect(geo.scale(b1, pinv), b)
    want = ShintaniSet.from_cones(
        [
            geo.cone(one),
            geo.cone(one, e2),
            geo.cone(one, pinv),
            geo.cone(pinv, e2),
            geo.cone(e2, pinv, alpha),
            geo.cone(one, e2, pinv),
        ]
    )
    eq, witness = geo.set_equal(got, want)
    assert eq, witness

    got2 = geo.intersect(geo.scale(b1, pinv), geo.scale(b, e2))
    want2 = ShintaniSet.from_cones(
        [geo.cone(e2, alpha), geo.cone(e2, alpha, e2 * pinv)]
    )
    eq, witness = geo.set_equal(got2, want2)
    assert eq, witness


def test_case2_extra_reference_cells(geo, els, pihats):
    e1, e2 = els["eps1"], els["eps2"]
    pihat = pihats["case2"]
    ref = geo.case2extra_reference(e1, e2, pihat)
    assert sorted(c.dim for c in ref.cones) == [1, 2, 2, 3]
    case, results = geo.verify_identity(e1, e2, pihat)
    assert case == "case2"
    assert {tag: ok for tag, ok, _ in results}["case2extra"]
    b = geo.explicit_B(e1, e2)
    rhs = geo.scale(
        geo.intersect(
            geo.union(geo.scale(b, e2 * e2), geo.scale(b, e1 * e2 * e2)),
            geo.scale(b, pihat.inverse()),
        ),
        e2.inverse(),
    )
    eq, witness = geo.set_equal(rhs, ref)
    assert eq, witness
