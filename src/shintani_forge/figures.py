"""Deterministic SVG/CSV emission of plane scenes.

A scene is a list of layers; each layer carries a Shintani set (drawn as
the phi images of its cells' boundary segments and ray markers) or
pre-sampled curves. Output is byte-stable: fixed sampling counts, fixed decimal
formatting, viewport derived from the data bounding box with fixed padding,
and element order following the scene and canonical cell order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cones import ShintaniSet
from .embedding import RealEmbeddings, iv_fraction
from .field import FieldElement
from .plane import CurveSample, PhiBasis, PlanePoint, _segment_logs
from fractions import Fraction

# working precision of every figure curve and marker
FIGURE_BITS = 96


@dataclass
class Layer:
    kind: str  # "set" | "curves"
    payload: object
    color: str = "#1f4e9c"
    width: float = 1.0


@dataclass
class Scene:
    layers: list = dc_field(default_factory=list)

    def add_set(self, s: ShintaniSet, **kw):
        self.layers.append(Layer(kind="set", payload=s, **kw))

    def add_curves(self, curves, **kw):
        self.layers.append(Layer(kind="curves", payload=list(curves), **kw))


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


def sample_face_curve(pair, basis: PhiBasis, grid) -> CurveSample:
    """phi image of the embedded segment between two generator rays, at the
    basis precision; `grid` holds the parameter values t and their raw
    intervals at that precision. The curve id is the face."""
    emb, bits = basis.emb, basis.bits
    e_from = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[0])), bits)
    e_to = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[1])), bits)
    ts, tis = grid
    pts = tuple(basis.point(_segment_logs(e_from, e_to, ti, bits)) for ti in tis)
    return CurveSample(curve_id=pair, ts=ts, points=pts)


def ray_point(ray, basis: PhiBasis) -> PlanePoint:
    emb = basis.emb
    x = FieldElement(emb.spec, tuple(Fraction(v) for v in ray))
    return basis.point(emb.log_embed(x, basis.bits))


def materialize_scene(
    scene: Scene,
    emb: RealEmbeddings,
    basis_pair,
    n_points: int = 33,
    sampled: dict | None = None,
):
    """Expand set layers into concrete curves/markers at FIGURE_BITS;
    returns a list of (layer, curves, markers).

    `sampled` maps (basis coords, n_points, face) to a sampled face curve;
    scenes that share it sample each distinct face curve once."""
    basis = PhiBasis(emb, basis_pair[0], basis_pair[1], FIGURE_BITS)
    basis_key = (basis_pair[0].coords, basis_pair[1].coords)
    sampled = {} if sampled is None else sampled
    grid = None  # built on the first face this call samples
    out = []
    for li, layer in enumerate(scene.layers):
        curves = []
        markers = []
        if layer.kind == "set":
            faces, rays = set_boundary_faces(layer.payload)
            for fi, pair in enumerate(faces):
                key = (basis_key, n_points, pair)
                if key not in sampled:
                    if grid is None:
                        ts = tuple(Fraction(j, n_points - 1) for j in range(n_points))
                        grid = ts, tuple(iv_fraction(t, t, basis.bits)._mpi_ for t in ts)
                    sampled[key] = sample_face_curve(pair, basis, grid)
                hit = sampled[key]
                curves.append(CurveSample((f"layer{li}/face{fi}",), hit.ts, hit.points))
            for ray in rays:
                markers.append(ray_point(ray, basis))
        elif layer.kind == "curves":
            curves.extend(layer.payload)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        out.append((layer, curves, markers))
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
