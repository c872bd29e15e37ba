"""Translate scans of every |k1|, |k2| <= a window, built only from public
pieces: the rational matrix of each power u1^k1 u2^k2, `Cone.translate` and
`Geometry.overlap`. They share no code with the pruned translate table, so
tests hold the table's results to them. Also the Fraction rank and ray
decomposition that the integer cell kernels replace, the Fraction bisection
that the integer root refinement replaces, and the Fraction field products,
multiplication matrices, inverses and embedding Horner that the integer
field and embedding kernels replace, the `mpmath.libmp` interval
compositions that the plane's directed-rounding kernels replace, and the
two-loop normalization search that `units.triangle_search` folds into one."""

from fractions import Fraction

from mpmath.libmp import mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub

from shintani_forge.cones import Cone, Geometry, _int_vec, primitive_vector
from shintani_forge.embedding import RatInterval, iv_context, iv_fraction, iv_int
from shintani_forge.errors import EmptySet, Exhausted, SignConditionFailed
from shintani_forge.field import FieldElement, solve3
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


# The sampled segment's interval logs and their projection on a basis, each
# operation an `mpmath.libmp` interval one at the working precision. The
# kernels of `plane._segment_logs` and `PhiBasis.project_logs` must give the
# same raw endpoints.


def libmpi_weights(t, bits):
    """The raw intervals (1 - t, t) at `bits` that `plane.grid` gives a
    grid point t, here for any rational t."""
    prec = iv_context(bits).prec
    ti = iv_fraction(t, t, bits)._mpi_
    return mpi_sub(iv_int(1, prec), ti, prec), ti


def libmpi_segment_logs(e_from, e_to, ti, bits):
    """Interval logs of (1-t) v + t w, with t the raw interval `ti`."""
    iv = iv_context(bits)
    prec = iv.prec
    si = mpi_sub(iv_int(1, prec), ti, prec)
    out = []
    for a, b in zip(e_from, e_to):
        mix = mpi_add(
            mpi_mul(si, a.iv(bits)._mpi_, prec), mpi_mul(ti, b.iv(bits)._mpi_, prec), prec
        )
        out.append(iv.make_mpf(mpi_log(mix, prec)))
    return out


def libmpi_project_logs(basis, logs):
    """The (Log g1, Log g2) coordinates of the trace-zero part of `logs`, at
    the precision of the `PhiBasis` `basis`, from its basis logs alone."""
    prec = basis.prec
    p0, p1, _ = basis.l1
    q0, q1, _ = basis.l2
    det = mpi_sub(mpi_mul(p0, q1, prec), mpi_mul(p1, q0, prec), prec)
    v0, v1, v2 = (v._mpi_ for v in logs)
    t = mpi_div(mpi_add(mpi_add(v0, v1, prec), v2, prec), iv_int(3, prec), prec)
    h0 = mpi_sub(v0, t, prec)
    h1 = mpi_sub(v1, t, prec)
    a = mpi_div(mpi_sub(mpi_mul(h0, q1, prec), mpi_mul(h1, q0, prec), prec), det, prec)
    b = mpi_div(mpi_sub(mpi_mul(p0, h1, prec), mpi_mul(p1, h0, prec), prec), det, prec)
    return basis.iv.make_mpf(a), basis.iv.make_mpf(b)


# The normalization search as two loops, the wedge levels and then the
# sweep, each enumerating, sorting and verifying its own candidates.
# `units.triangle_search` walks the same boxes in one loop and must pick the
# same omega, or raise the same error.


def wedge_sweep_search(eps1, eps2, pi, l, emb, unit_basis=None):
    """(alpha, omega) of the first verified candidate: the wedge levels
    with q doubling to 64, then the sweep of [-1, l+1]^2."""
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

    hit = verified(eps1.spec.one)
    if hit is not None:
        return hit

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
    raise Exhausted("triangle search", q_max)
