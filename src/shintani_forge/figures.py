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
from .embedding import RealEmbeddings
from .field import FieldElement
from .plane import CurveSample, PhiBasis, PlanePoint, _segment_logs
from fractions import Fraction


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


def sample_face_curve(
    pair,
    basis: PhiBasis,
    emb: RealEmbeddings,
    n_points: int,
    bits: int,
    curve_id: str,
) -> CurveSample:
    """phi image of the embedded segment between two generator rays."""
    e_from = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[0])), bits)
    e_to = emb.embed_positive(FieldElement(emb.spec, tuple(Fraction(v) for v in pair[1])), bits)
    ts = tuple(Fraction(j, n_points - 1) for j in range(n_points))
    pts = tuple(basis.point(_segment_logs(e_from, e_to, t, bits)) for t in ts)
    return CurveSample(curve_id=(curve_id,), ts=ts, points=pts)


def ray_point(ray, basis: PhiBasis, emb: RealEmbeddings, bits: int) -> PlanePoint:
    x = FieldElement(emb.spec, tuple(Fraction(v) for v in ray))
    return basis.point(emb.log_embed(x, bits))


def materialize_scene(
    scene: Scene,
    emb: RealEmbeddings,
    basis_pair,
    n_points: int = 33,
    bits: int = 96,
    sampled: dict | None = None,
):
    """Expand set layers into concrete curves/markers; returns a list of
    (layer, curves, markers).

    `sampled` maps (basis coords, n_points, bits, face) to a sampled face
    curve; scenes that share it sample each distinct face curve once."""
    basis = PhiBasis(emb, basis_pair[0], basis_pair[1], bits)
    basis_key = (basis_pair[0].coords, basis_pair[1].coords)
    sampled = {} if sampled is None else sampled
    out = []
    for li, layer in enumerate(scene.layers):
        curves = []
        markers = []
        if layer.kind == "set":
            faces, rays = set_boundary_faces(layer.payload)
            for fi, pair in enumerate(faces):
                curve_id = f"layer{li}/face{fi}"
                key = (basis_key, n_points, bits, pair)
                if key not in sampled:
                    sampled[key] = sample_face_curve(pair, basis, emb, n_points, bits, curve_id)
                hit = sampled[key]
                curves.append(CurveSample((curve_id,), hit.ts, hit.points))
            for ray in rays:
                markers.append(ray_point(ray, basis, emb, bits))
        elif layer.kind == "curves":
            curves.extend(layer.payload)
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        out.append((layer, curves, markers))
    return out


def render_svg_csv(materialized, svg_path, csv_path, size: int = 640, pad: float = 0.05):
    """Write the SVG document and the CSV table of all sampled points."""
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
