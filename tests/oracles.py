"""Translate scans of every |k1|, |k2| <= a window, built only from public
pieces: the rational matrix of each power u1^k1 u2^k2, `Cone.translate` and
`Geometry.overlap`. They share no code with the pruned translate table, so
tests hold the table's results to them. Also the Fraction rank and ray
decomposition that the integer cell kernels replace, the Fraction bisection
that the integer root refinement replaces, and the Fraction field products,
multiplication matrices, inverses and embedding Horner that the integer
field and embedding kernels replace."""

from fractions import Fraction

from shintani_forge.cones import Cone, primitive_vector
from shintani_forge.embedding import RatInterval
from shintani_forge.errors import EmptySet
from shintani_forge.field import FieldElement, solve3


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
