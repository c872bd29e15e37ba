"""Translate scans of every |k1|, |k2| <= a window, built only from public
pieces: the rational matrix of each power u1^k1 u2^k2, `Cone.translate` and
`Geometry.overlap`. They share no code with the pruned translate table, so
tests hold the table's results to them. Also the Fraction rank and ray
decomposition that the integer cell kernels replace, and the Fraction
bisection that the integer root refinement replaces."""

from fractions import Fraction

from shintani_forge.cones import Cone, primitive_vector
from shintani_forge.errors import EmptySet


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
