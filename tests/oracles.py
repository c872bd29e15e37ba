"""Translate scans of every |k1|, |k2| <= a window, built only from public
pieces: the rational matrix of each power u1^k1 u2^k2, `Cone.translate` and
`Geometry.overlap`. They share no code with the pruned translate table, so
tests hold the table's results to them. Also the Fraction rank and ray
decomposition that the integer cell kernels replace, the Fraction bisection
that the integer root refinement replaces, and the Fraction field products,
multiplication matrices, inverses and embedding Horner that the integer
field and embedding kernels replace, the `mpf_log` call that
`embedding.log_ep` replaces, the `mpmath.libmp` interval compositions that
the plane's directed-rounding kernels replace, the mpmath interval-context
formulas that the signed-endpoint intervals replace, the two-loop
normalization search that `units.triangle_search` folds into one, the
cell split and disjointness test that `cones.split_cell` and
`cones.cones_fast_disjoint` run on unpacked integer rows, the Fraction
interval determinant that `RealEmbeddings._det_sign` runs on integer
numerators, and the canonical-order loop that `Geometry.difference`
replaces by removing the largest cells first."""

import functools
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    from_int,
    mpf_log,
    mpi_add,
    mpi_div,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
)

from shintani_forge.cones import (
    Cone,
    Geometry,
    ShintaniSet,
    _int_vec,
    diff_cell,
    primitive_vector,
)
from shintani_forge.embedding import RatInterval
from shintani_forge.errors import (
    DegenerateGeometry,
    EmptySet,
    Exhausted,
    PrecisionExhausted,
    SignConditionFailed,
)
from shintani_forge.field import FieldElement, det3, solve3
from shintani_forge.plane import limit_derivative, phi
from shintani_forge.units import _exponent_box, check_sign_suite


def window_translates(d, u1, u2, window) -> dict:
    """k -> the cells of u1^k1 u2^k2 D, for all (2 window + 1)^2 k."""
    ks = range(-window, window + 1)
    p1 = {k: u1**k for k in ks}
    p2 = {k: u2**k for k in ks}
    out = {}
    for k1 in ks:
        for k2 in ks:
            m = (p1[k1] * p2[k2]).mul_matrix()
            out[(k1, k2)] = [c.translate(m) for c in d.cones]
    return out


def scan_support(geo, translates, d, x):
    """All scanned k whose translate meets x^-1 D, sorted."""
    m = x.inverse().mul_matrix()
    target = [c.translate(m) for c in d.cones]
    return sorted(k for k, cells in translates.items() if geo.overlap(cells, target))


def scan_cover(geo, translates, d, x):
    """(alpha, anchor, support) of the translate cover of x^-1 D."""
    hits = scan_support(geo, translates, d, x)
    if not hits:
        raise EmptySet("x^-1 D meets no translate of D")
    anchor = (min(k1 for k1, _ in hits), min(k2 for _, k2 in hits))
    alpha = (max(k1 for k1, _ in hits) - anchor[0], max(k2 for _, k2 in hits) - anchor[1])
    return alpha, anchor, tuple(hits)


# Exact rank and ray decomposition in Fraction arithmetic: Gaussian
# elimination and a monotone chain on the rational points of the section
# trace = 1. The integer kernels of `cones` must agree with them exactly.


def fraction_rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(3):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [m[r][k] - f * m[rank][k] for k in range(3)]
        rank += 1
    return rank


def fraction_convex_hull(tagged):
    """Monotone chain on (rational point, ray) pairs; the rays of the hull
    vertices in cyclic order, collinear and interior points dropped."""
    tagged = sorted(tagged, key=lambda t: t[0])

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list = []
    for t in tagged:
        while len(lower) >= 2 and cross(lower[-2][0], lower[-1][0], t[0]) <= 0:
            lower.pop()
        lower.append(t)
    upper: list = []
    for t in reversed(tagged):
        while len(upper) >= 2 and cross(upper[-2][0], upper[-1][0], t[0]) <= 0:
            upper.pop()
        upper.append(t)
    hull = lower[:-1] + upper[:-1]
    return [t[1] for t in hull]


def fraction_decompose_rays(rays, trace_form) -> list[Cone]:
    """The open cells of the cone on `rays` (all of positive trace), with the
    rank, the segment ends and the hull all found in Fraction arithmetic."""
    canon = sorted({primitive_vector(r) for r in rays})
    if not canon:
        return []
    rank = fraction_rank(canon)
    if rank == 1:
        return [Cone((canon[0],))]
    tvals = [Fraction(sum(f * x for f, x in zip(trace_form, r))) for r in canon]
    a = next(i for i in range(3) if trace_form[i] != 0)
    b, c = (i for i in range(3) if i != a)
    pts = [(Fraction(r[b]) / t, Fraction(r[c]) / t) for r, t in zip(canon, tvals)]
    if rank == 2:
        base = pts[0]
        dvec = next((p[0] - base[0], p[1] - base[1]) for p in pts if p != base)
        lam = [(p[0] - base[0]) * dvec[0] + (p[1] - base[1]) * dvec[1] for p in pts]
        imin = min(range(len(lam)), key=lambda i: lam[i])
        imax = max(range(len(lam)), key=lambda i: lam[i])
        return [Cone(tuple(sorted((canon[imin], canon[imax]))))]
    hull = fraction_convex_hull(list(zip(pts, canon)))
    k = len(hull)
    h0 = hull[0]
    cells = [Cone(tuple(sorted((h0, hull[i], hull[i + 1])))) for i in range(1, k - 1)]
    cells += [Cone(tuple(sorted((h0, hull[i])))) for i in range(2, k - 1)]
    return cells


def fraction_split_cell(cone, form, trace_form):
    """(neg, zero, pos) cells of `cone` split by {form = 0}: the cut rays of
    the crossing edges, and each part passed whole through
    `fraction_decompose_rays`, with the trace check of every ray."""
    gens = cone.gens
    svals = [sum(f * x for f, x in zip(form, g)) for g in gens]
    if all(v >= 0 for v in svals):
        return ([], [], [cone]) if any(svals) else ([], [cone], [])
    if all(v <= 0 for v in svals):
        return [cone], [], []
    cut = [
        primitive_vector(tuple(vi * gj[k] - vj * gi[k] for k in range(3)))
        for gi, vi in zip(gens, svals)
        for gj, vj in zip(gens, svals)
        if vi > 0 > vj
    ]
    parts = (
        [g for g, v in zip(gens, svals) if v <= 0] + cut,
        [g for g, v in zip(gens, svals) if v == 0] + cut,
        [g for g, v in zip(gens, svals) if v >= 0] + cut,
    )
    for rays in parts:
        if any(sum(f * x for f, x in zip(trace_form, r)) <= 0 for r in rays):
            raise DegenerateGeometry("every ray must have positive trace")
    return tuple(fraction_decompose_rays(rays, trace_form) for rays in parts)


def dot_fast_disjoint(a, b) -> bool:
    """The disjointness rule of `cones.cones_fast_disjoint` read through a
    dot product and `all`/`min`/`max` over each form's values."""

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    for x, y in ((a, b), (b, a)):
        for f in x.pos_forms:
            if all(dot(f, g) <= 0 for g in y.gens):
                return True
        for e in x.eq_forms:
            s = [dot(e, g) for g in y.gens]
            if any(s) and (min(s) >= 0 or max(s) <= 0):
                return True
    return False


def canonical_difference(geo, s1, s2):
    """s1 \\ s2, removing the cells of s2 in their canonical order, rays
    first."""
    pieces = list(s1.cones)
    for b in s2.cones:
        pieces = [q for p in pieces for q in diff_cell(p, b, geo.trace_form)]
        if not pieces:
            break
    return ShintaniSet.from_cones(pieces)


def canonical_equal(geo, s1, s2) -> bool:
    """Whether two sets are equal, by `canonical_difference` both ways."""
    return canonical_difference(geo, s1, s2).is_empty and canonical_difference(geo, s2, s1).is_empty


def fraction_refine_roots(emb, bits):
    """The ascending isolating intervals of `emb`, each bisected from its
    initial isolation in Fraction arithmetic to the first width <= 2^-bits;
    the integer bisection of `refine_roots` must give the same intervals."""
    coeffs = [Fraction(c) for c in emb.spec.int_coeffs]

    def sign(x):
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * x + c
        return (v > 0) - (v < 0)

    target = Fraction(1, 2**bits)
    out = []
    for start in emb._initial:
        lo, hi = start.lo, start.hi
        slo = sign(lo)
        while hi - lo > target:
            m = (lo + hi) / 2
            if sign(m) == slo:
                lo = m
            else:
                hi = m
        out.append((lo, hi))
    return out


# Field arithmetic and the embedding Horner in Fraction arithmetic: the
# integer kernels of `field` and `embedding` must give the same canonical
# fractions.


# the fields the kernel comparisons run on: the bundled 2x^3 - 4x^2 - x + 1,
# x^3 - x^2 - 2x + 1 and the non-monic 3x^3 - 9x + 1 (coefficients c0 first)
KERNEL_FIELDS = [(1, -1, -4, 2), (1, -2, -1, 1), (1, -9, 0, 3)]


def random_element(spec, rng):
    """An element whose coordinates have 1- to 1000-bit numerators, over
    denominators 1, 2 or of the same size."""
    bits = rng.choice([1, 8, 64, 1000])

    def coord():
        den = rng.randint(1, 2 ** rng.choice([1, bits]))
        return Fraction(rng.randint(-(2**bits), 2**bits), den)

    return spec.element(coord(), coord(), coord())


def fraction_mul(x, y):
    """x * y by the schoolbook product and the reductions of y^3 and y^4."""
    c0, c1, c2, c3 = x.spec.poly_coeffs
    r3 = (-c0 / c3, -c1 / c3, -c2 / c3)
    r4 = (r3[2] * r3[0], r3[0] + r3[2] * r3[1], r3[1] + r3[2] * r3[2])
    a, b = x.coords, y.coords
    p = [Fraction(0)] * 5
    for i in range(3):
        for j in range(3):
            p[i + j] += a[i] * b[j]
    return FieldElement(x.spec, tuple(p[i] + p[3] * r3[i] + p[4] * r4[i] for i in range(3)))


def fraction_mul_matrix(x):
    """Columns x * 1, x * y and x * y^2, each a full product."""
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cols = [fraction_mul(x, FieldElement(x.spec, tuple(map(Fraction, e)))).coords for e in basis]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def fraction_inverse(x):
    """x^-1 by Cramer's rule on the multiplication matrix."""
    return FieldElement(x.spec, tuple(solve3(fraction_mul_matrix(x), (1, 0, 0))))


def fraction_pow(x, k):
    """x^k by square-and-multiply, through the inverse when k < 0."""
    if k < 0:
        x, k = fraction_inverse(x), -k
    result, base = x.spec.one, x
    while k:
        if k & 1:
            result = fraction_mul(result, base)
        base = fraction_mul(base, base)
        k >>= 1
    return result


def fraction_embed(emb, x, bits):
    """Interval Horner of x's coordinates on the refined roots, in slot order."""
    a0, a1, a2 = x.coords
    out = []
    for t in emb.refine_roots(bits):
        acc = RatInterval.point(a2) * t + RatInterval.point(a1)
        out.append(acc * t + RatInterval.point(a0))
    return out


# the embedded e1, which a None column of `fraction_det_sign` stands for
FRACTION_E1 = [RatInterval.point(1), RatInterval.point(0), RatInterval.point(0)]


def fraction_det_sign(emb, columns, undecided):
    """(sign, bits) of det of the embedded column matrix, a None column
    being e1, with `field.det3` on the `RatInterval` enclosures up the
    precision ladder, and bits the rung that decides it; raises
    PrecisionExhausted(undecided) when the cap leaves it straddling zero.
    Columns with rationally dependent coordinates have sign 0 and bits None,
    from the determinant of the Fraction coordinates."""
    if None not in columns and det3([[x.coords[i] for x in columns] for i in range(3)]) == 0:
        return 0, None
    for bits in emb.cfg.ladder():
        cols = [FRACTION_E1 if x is None else emb.embed(x, bits) for x in columns]
        s = det3([[c[r] for c in cols] for r in range(3)]).sign()
        if s is not None:
            return s, bits
    raise PrecisionExhausted(undecided)


def mpf_log_ep(p, prec, ceil):
    """log of a positive endpoint (m, e) rounded to `prec` bits, down for
    `ceil` 0 and up for 1: `mpf_log` of its canonical mpf, whose mantissa
    is odd, as a signed endpoint."""
    m, e = p
    z = (m & -m).bit_length() - 1
    m >>= z
    rnd = (round_floor, round_ceiling)[ceil]
    sign, man, exp, _ = mpf_log((0, m, e + z, m.bit_length()), prec, rnd)
    return (-man if sign else man), exp


# The sampled segment's interval logs and their projection on a basis, each
# operation an `mpmath.libmp` interval one at the working precision, from
# the exact rational enclosures alone. The kernels of `plane._segment_logs`
# and `PhiBasis.project_logs` must give the same raw endpoints.


def libmpi_prec(bits):
    """The precision of an interval at working precision `bits`, with its
    16 guard bits."""
    return max(bits, 64) + 16


def libmpi_int(n, prec):
    """The raw interval of the integer n at `prec`, rounded outward."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def libmpi_fraction(lo, hi, bits):
    """The raw interval enclosing [lo, hi] at `bits`: per end, the quotient
    of its numerator and denominator, each rounded outward first."""
    prec = libmpi_prec(bits)

    def end(x):
        return mpi_div(libmpi_int(x.numerator, prec), libmpi_int(x.denominator, prec), prec)

    return end(lo)[0], end(hi)[1]


def libmpi_log_embed(emb, x, bits):
    """The raw intervals of log sigma_i(x) at `bits`."""
    prec = libmpi_prec(bits)
    return [mpi_log(libmpi_fraction(e.lo, e.hi, bits), prec) for e in emb.embed_positive(x, bits)]


def libmpi_weights(t, bits):
    """The raw intervals (1 - t, t) at `bits` that `plane.grid` gives a
    grid point t, here for any rational t."""
    prec = libmpi_prec(bits)
    ti = libmpi_fraction(t, t, bits)
    return mpi_sub(libmpi_int(1, prec), ti, prec), ti


def libmpi_segment_logs(e_from, e_to, ti, bits):
    """Interval logs of (1-t) v + t w, with t the raw interval `ti`."""
    prec = libmpi_prec(bits)
    si = mpi_sub(libmpi_int(1, prec), ti, prec)
    out = []
    for a, b in zip(e_from, e_to):
        mix = mpi_add(
            mpi_mul(si, libmpi_fraction(a.lo, a.hi, bits), prec),
            mpi_mul(ti, libmpi_fraction(b.lo, b.hi, bits), prec),
            prec,
        )
        out.append(mpi_log(mix, prec))
    return out


def libmpi_project_logs(basis, logs):
    """The (Log g1, Log g2) coordinates of the trace-zero part of the raw
    intervals `logs`, at the precision of the `PhiBasis` `basis`, from the
    logs of its pair alone."""
    prec = libmpi_prec(basis.bits)
    p0, p1, _ = libmpi_log_embed(basis.emb, basis.g1, basis.bits)
    q0, q1, _ = libmpi_log_embed(basis.emb, basis.g2, basis.bits)
    det = mpi_sub(mpi_mul(p0, q1, prec), mpi_mul(p1, q0, prec), prec)
    v0, v1, v2 = logs
    t = mpi_div(mpi_add(mpi_add(v0, v1, prec), v2, prec), libmpi_int(3, prec), prec)
    h0 = mpi_sub(v0, t, prec)
    h1 = mpi_sub(v1, t, prec)
    a = mpi_div(mpi_sub(mpi_mul(h0, q1, prec), mpi_mul(h1, q0, prec), prec), det, prec)
    b = mpi_div(mpi_sub(mpi_mul(p0, h1, prec), mpi_mul(p1, h0, prec), prec), det, prec)
    return a, b


# The interval formulas as mpmath interval-context arithmetic, one context
# per working precision, where a binary operation runs at its left
# operand's context: the certified logs, their trace-zero part and its
# exponential, the endpoint and limit derivative ratios, and the translate
# table's rows, points and cell boxes. The signed-endpoint intervals of
# `embedding`, `plane` and `cones` must have the same endpoints.

_FLOAT = MPContext()


@functools.cache
def ctx(bits):
    """The interval context at working precision `bits`."""
    iv = MPIntervalContext()
    iv.prec = libmpi_prec(bits)
    return iv


def ctx_mid_err(v):
    """Midpoint and radius of an interval from its ends in 53-bit mpfs."""
    mid = (_FLOAT.mpf(v.a) + _FLOAT.mpf(v.b)) / 2
    rad = (_FLOAT.mpf(v.b) - _FLOAT.mpf(v.a)) / 2
    return float(mid), abs(float(rad))


def ctx_fraction(lo, hi, bits):
    iv = ctx(bits)
    a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
    b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
    return iv.mpf([a.a, b.b])


def ctx_log_fraction(lo, hi, bits):
    return ctx(bits).log(ctx_fraction(lo, hi, bits))


def ctx_log_embed(emb, x, bits):
    return [ctx_log_fraction(e.lo, e.hi, bits) for e in emb.embed_positive(x, bits)]


def ctx_trace_zero(logs):
    t = (logs[0] + logs[1] + logs[2]) / 3
    return [v - t for v in logs]


def ctx_project_H(emb, x, bits):
    return [ctx(bits).exp(v) for v in ctx_trace_zero(ctx_log_embed(emb, x, bits))]


def ctx_endpoint_ratio(e_g, logs1, logs2, bits):
    """-(A log g1(1) - B log g1(2)) / (A log g2(1) - B log g2(2)), or None
    when the denominator straddles zero."""
    a_rat = RatInterval.point(2) * e_g[1] - e_g[0] - e_g[2]
    b_rat = RatInterval.point(2) * e_g[0] - e_g[1] - e_g[2]
    a = ctx_fraction(a_rat.lo, a_rat.hi, bits)
    b = ctx_fraction(b_rat.lo, b_rat.hi, bits)
    num = a * logs1[0] - b * logs1[1]
    den = a * logs2[0] - b * logs2[1]
    if den.a <= 0 <= den.b:
        return None
    return -num / den


def ctx_limit_ratio(i, t, logs1, logs2):
    """The ratio -num / den of `plane.limit_derivative` at one rung, or None
    when the denominator straddles zero."""
    if (i, t) == (1, 0):
        num = 2 * logs1[0] + logs1[1]
        den = 2 * logs2[0] + logs2[1]
    elif (i, t) == (2, 1):
        num = logs1[0] + 2 * logs1[1]
        den = logs2[0] + 2 * logs2[1]
    else:
        num = -logs1[0] + logs1[1]
        den = -logs2[0] + logs2[1]
    if den.a <= 0 <= den.b:
        return None
    return -num / den


def ctx_translate_rows(emb, u1, u2, bits):
    """The rows of the translate table's forms at `bits`, or None when
    their determinant straddles zero there."""
    p = ctx_log_embed(emb, u1, bits)
    q = ctx_log_embed(emb, u2, bits)
    a = [q[(j + 1) % 3] - q[(j + 2) % 3] for j in range(3)]
    b = [p[(j + 2) % 3] - p[(j + 1) % 3] for j in range(3)]
    det = p[0] * a[0] + p[1] * a[1] + p[2] * a[2]
    if det.a <= 0 <= det.b:
        return None
    return tuple([c / det for c in row] for row in (a, b))


def ctx_point(rows, emb, x, bits):
    logs = ctx_log_embed(emb, x, bits)
    return tuple(r[0] * logs[0] + r[1] * logs[1] + r[2] * logs[2] for r in rows)


def ctx_cell_box(rows, emb, gens, bits):
    encs = [
        emb.embed_positive(FieldElement(emb.spec, tuple(map(Fraction, g))), bits) for g in gens
    ]
    logs = [
        ctx_log_fraction(min(e[j].lo for e in encs), max(e[j].hi for e in encs), bits)
        for j in range(3)
    ]
    return tuple(r[0] * logs[0] + r[1] * logs[1] + r[2] * logs[2] for r in rows)


# The normalization search as two loops, the wedge levels and then the
# sweep, each enumerating, sorting and verifying its own candidates.
# `units.triangle_search` walks the same boxes in one loop and must pick the
# same omega, or raise the same error.


def wedge_sweep_search(eps1, eps2, pi, l, emb, unit_basis=None):
    """(alpha, omega) of the first verified candidate: the wedge levels
    with q doubling to 64, then the sweep of [-1, l+1]^2. The identity is
    tried only where its phi point falls, as every other candidate."""
    union = Geometry(emb).prop4_union(eps1, eps2)
    u1, u2 = unit_basis if unit_basis is not None else (eps1, eps2)

    def verified(u):
        alpha = u * pi.inverse()
        if not union.contains_vec(_int_vec(alpha.coords)):
            return None
        omega = u.inverse()
        if not check_sign_suite(eps1, eps2, omega * pi, emb).passed:
            return None
        return alpha, omega

    d1 = limit_derivative(1, 1, eps1, eps2, emb)
    d2 = limit_derivative(2, 1, eps1, eps2, emb)
    tan_theta = d2.value / 2
    tan_gamma = -d1.value / 2
    p, s1, s2 = (phi(w, eps1, eps2, emb) for w in (pi.inverse(), u1, u2))
    p, s1, s2 = (p.x, p.y), (s1.x, s1.y), (s2.x, s2.y)
    if abs(s1[0] * s2[1] - s1[1] * s2[0]) < 1e-12:
        raise SignConditionFailed("unit basis does not span the phi plane")
    pad = 1e-9

    def in_wedge(x, y, q):
        if y > l + pad or y < -pad or x > l + pad or x < l - q - pad:
            return False
        if y < l + tan_theta * (x - l) - pad:
            return False
        if x < l - y * tan_gamma - pad:
            return False
        return True

    def candidates_in_box(x_lo, x_hi, y_lo, y_hi):
        out = []
        for m1, m2 in _exponent_box(p, s1, s2, x_lo, x_hi, y_lo, y_hi):
            x = p[0] + m1 * s1[0] + m2 * s2[0]
            y = p[1] + m1 * s1[1] + m2 * s2[1]
            if x_lo - pad <= x <= x_hi + pad and y_lo - pad <= y <= y_hi + pad:
                out.append((x, y, m1, m2))
        return out

    q_max = 64
    tried = set()
    q = 1.0
    while q <= q_max:
        ordered = []
        for x, y, m1, m2 in candidates_in_box(l - q, l, -0.0, l):
            if (m1, m2) in tried or not in_wedge(x, y, q):
                continue
            ordered.append(((l - x) ** 2 + (l - y) ** 2, m1, m2))
        for _, m1, m2 in sorted(ordered):
            tried.add((m1, m2))
            hit = verified(u1**m1 * u2**m2)
            if hit is not None:
                return hit
        q *= 2
    sweep = []
    for x, y, m1, m2 in candidates_in_box(-1.0, l + 1.0, -1.0, l + 1.0):
        if (m1, m2) in tried:
            continue
        sweep.append(((l - x) ** 2 + (l - y) ** 2, m1, m2))
    for _, m1, m2 in sorted(sweep):
        hit = verified(u1**m1 * u2**m2)
        if hit is not None:
            return hit
    raise Exhausted("triangle search", f"the square [-1, {l + 1}]^2")
