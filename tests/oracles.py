"""Full-window translate scans built only from public pieces: the rational
matrix of each power u1^k1 u2^k2, `Cone.translate` and `Geometry.overlap`.
They share no code with the pruned translate table, so tests hold the
table's results to them."""

from shintani_forge.errors import WindowExceeded


def window_translates(geo, d, u1, u2) -> dict:
    """k -> the cells of u1^k1 u2^k2 D, for all (2 window + 1)^2 k."""
    ks = range(-geo.window, geo.window + 1)
    p1 = {k: u1**k for k in ks}
    p2 = {k: u2**k for k in ks}
    out = {}
    for k1 in ks:
        for k2 in ks:
            m = (p1[k1] * p2[k2]).mul_matrix()
            out[(k1, k2)] = [c.translate(m) for c in d.cones]
    return out


def scan_support(geo, translates, d, x):
    """All k whose translate meets x^-1 D, sorted; a k on the window
    boundary raises WindowExceeded with the whole hit list."""
    m = x.inverse().mul_matrix()
    target = [c.translate(m) for c in d.cones]
    hits = sorted(k for k, cells in translates.items() if geo.overlap(cells, target))
    if any(abs(k1) == geo.window or abs(k2) == geo.window for k1, k2 in hits):
        raise WindowExceeded(f"support touches the window boundary: {hits}")
    return hits


def scan_cover(geo, translates, d, x):
    """(alpha, anchor, support) of the translate cover of x^-1 D."""
    hits = scan_support(geo, translates, d, x)
    if not hits:
        raise WindowExceeded("x^-1 D meets no translate inside the window")
    anchor = (min(k1 for k1, _ in hits), min(k2 for _, k2 in hits))
    alpha = (max(k1 for k1, _ in hits) - anchor[0], max(k2 for _, k2 in hits) - anchor[1])
    return alpha, anchor, tuple(hits)
