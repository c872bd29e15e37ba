"""Deterministic SVG/CSV emission of plane scenes.

A scene is a list of layers; each layer carries a Shintani set (drawn as
the phi images of its cells' boundary segments and ray markers) or
pre-sampled curves. Output is byte-stable: fixed sampling counts, fixed decimal
formatting, viewport derived from the data bounding box with fixed padding,
and element order following the scene and canonical cell order.

A scene samples its new face curves in one batch. When this process may
run on two CPUs or more, it samples every other curve of the batch and a
forked child the rest, which sends its points back as exact doubles.
Every interval, and so every output byte, is the one serial sampling
gives.
"""

from __future__ import annotations

import os
import signal
from array import array
from dataclasses import dataclass

from .cones import ShintaniSet
from .embedding import RealEmbeddings
from .field import FieldElement
from .plane import CurveSample, PhiBasis, PlanePoint, _segment_logs, grid, segment_ends
from fractions import Fraction

# working precision of every figure curve and marker
FIGURE_BITS = 96


@dataclass
class Layer:
    payload: object  # a ShintaniSet, drawn as faces and rays, or a list of curves
    color: str = "#1f4e9c"
    width: float = 1.0


def set_boundary_faces(s: ShintaniSet):
    """Deduplicated 2-dimensional faces (as generator pairs) plus rays of the
    cells of a Shintani set, in canonical order."""
    faces = set()
    rays = set()
    for c in s.cones:
        if c.dim == 3:
            g = c.gens
            faces.update({(g[0], g[1]), (g[0], g[2]), (g[1], g[2])})
        elif c.dim == 2:
            faces.add(c.gens)
        else:
            rays.add(c.gens[0])
    return sorted(faces), sorted(rays)


def sample_face_curve(pair, basis: PhiBasis, sampling) -> CurveSample:
    """phi image of the embedded segment between two generator rays, at the
    basis precision, on `sampling`, the `grid` at that precision. The curve
    id is the face."""
    emb, bits = basis.emb, basis.bits
    e_from = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[0])), bits)
    e_to = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[1])), bits)
    ends, prec = segment_ends(e_from, e_to, bits), basis.prec
    ts, weights = sampling
    pts = tuple(basis.point(_segment_logs(ends, w, prec)) for w in weights)
    return CurveSample(curve_id=pair, ts=ts, points=pts)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_share(pairs, basis: PhiBasis, sampling):
    """Fork a child that samples the face curves of `pairs` and writes
    their points to a pipe as doubles x, y, err; returns its pid and the
    pipe's read end as a file, or None when no child can be forked. The
    child leaves by `os._exit`, so it never flushes the buffers it shares
    with this process."""
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    r, w = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            out = array("d")
            for pair in pairs:
                for p in sample_face_curve(pair, basis, sampling).points:
                    out.extend((p.x, p.y, p.err))
            data = memoryview(out).cast("B")
            while data:
                data = data[os.write(w, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def sample_face_curves(pairs, basis: PhiBasis, sampling) -> list:
    """`[sample_face_curve(p, basis, sampling) for p in pairs]`, on two
    processes when this process may run on two CPUs or more and there are
    two curves or more: this process samples the curves at even positions
    and a forked child those at odd ones. Only two processes were measured,
    so more CPUs are left unused. Should the child not be forked, exit
    nonzero or send short data, its curves are sampled here after it is
    reaped, in batch order with every other curve still missing, so a
    failing curve raises what the serial loop raises. Should this process
    raise, it kills the child first."""
    child = None
    if min(_cpu_count(), len(pairs)) > 1:
        child = _fork_share(pairs[1::2], basis, sampling)
    got = [None] * len(pairs)
    sent = b""
    try:
        for i in range(0, len(pairs), 2 if child else 1):
            try:
                got[i] = sample_face_curve(pairs[i], basis, sampling)
            except Exception:
                break  # sampled again below, after every curve before it
        if child:
            sent = child[1].read()
    except BaseException:
        if child:
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        if child:
            child[1].close()
            if os.waitpid(child[0], 0)[1]:
                sent = b""
    ts, share = sampling[0], range(1, len(pairs), 2)
    if child and len(sent) == 24 * len(ts) * len(share):
        values = array("d")
        values.frombytes(sent)
        points = [PlanePoint(*xye) for xye in zip(*[iter(values)] * 3)]
        for j, i in enumerate(share):
            got[i] = CurveSample(pairs[i], ts, tuple(points[j * len(ts) : (j + 1) * len(ts)]))
    return [
        cs if cs is not None else sample_face_curve(pair, basis, sampling)
        for cs, pair in zip(got, pairs)
    ]


def ray_point(ray, basis: PhiBasis) -> PlanePoint:
    return basis.phi(FieldElement(basis.emb.spec, tuple(Fraction(v) for v in ray)))


def materialize_scene(
    layers: list,
    emb: RealEmbeddings,
    basis_pair,
    n_points: int = 33,
    sampled: dict | None = None,
):
    """Expand a scene, a list of `Layer`s, into concrete curves and markers
    at FIGURE_BITS; returns a list of (layer, curves, markers). A
    `ShintaniSet` payload gives its face curves, sampled on one `grid` of
    `n_points`, and its ray markers; any other payload is its curves.

    `sampled` maps (basis coords, n_points, face) to a sampled face curve;
    scenes that share it sample each distinct face curve once. The faces
    not in it are sampled in one batch (`sample_face_curves`), in the order
    the layers first draw them."""
    basis = PhiBasis(emb, basis_pair[0], basis_pair[1], FIGURE_BITS)
    basis_key = (basis_pair[0].coords, basis_pair[1].coords)
    sampled = {} if sampled is None else sampled
    drawn = [
        set_boundary_faces(layer.payload) if isinstance(layer.payload, ShintaniSet) else None
        for layer in layers
    ]
    new = [
        pair
        for pair in dict.fromkeys(pair for d in drawn if d for pair in d[0])
        if (basis_key, n_points, pair) not in sampled
    ]
    if new:
        curves = sample_face_curves(new, basis, grid(n_points, basis.bits))
        for pair, cs in zip(new, curves):
            sampled[(basis_key, n_points, pair)] = cs
    out = []
    for li, (layer, d) in enumerate(zip(layers, drawn)):
        if d is None:
            out.append((layer, list(layer.payload), []))
            continue
        faces, rays = d
        curves = []
        for fi, pair in enumerate(faces):
            hit = sampled[(basis_key, n_points, pair)]
            curves.append(CurveSample((f"layer{li}/face{fi}",), hit.ts, hit.points))
        out.append((layer, curves, [ray_point(ray, basis) for ray in rays]))
    return out


def render_svg_csv(materialized, svg_path, csv_path):
    """Write the SVG document and the CSV table of all sampled points, on a
    640-pixel square with 5% padding around the data."""
    size, pad = 640, 0.05
    xs = []
    ys = []
    for _, curves, markers in materialized:
        for cs in curves:
            xs.extend(p.x for p in cs.points)
            ys.extend(p.y for p in cs.points)
        xs.extend(p.x for p in markers)
        ys.extend(p.y for p in markers)
    if not xs:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    else:
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
    dx = (x1 - x0) * pad
    dy = (y1 - y0) * pad
    x0, x1, y0, y1 = x0 - dx, x1 + dx, y0 - dy, y1 + dy
    sx = size / (x1 - x0)
    sy = size / (y1 - y0)

    def tx(x):
        return (x - x0) * sx

    def ty(y):
        return size - (y - y0) * sy

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<!-- bbox {x0:.9g} {y0:.9g} {x1:.9g} {y1:.9g} -->',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    csv_rows = ["curve_id,t,x,y,err"]
    for layer, curves, markers in materialized:
        for cs in curves:
            pts = " ".join(f"{tx(p.x):.3f},{ty(p.y):.3f}" for p in cs.points)
            lines.append(
                f'<polyline fill="none" stroke="{layer.color}" '
                f'stroke-width="{layer.width:.3f}" points="{pts}"/>'
            )
            cid = "/".join(str(v) for v in cs.curve_id).replace(",", ";").replace(" ", "")
            for t, p in zip(cs.ts, cs.points):
                csv_rows.append(f"{cid},{float(t):.12g},{p.x:.12g},{p.y:.12g},{p.err:.3g}")
        for p in markers:
            lines.append(
                f'<circle cx="{tx(p.x):.3f}" cy="{ty(p.y):.3f}" r="2.5" '
                f'fill="{layer.color}"/>'
            )
    lines.append("</svg>")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    return svg_path, csv_path
