"""Exact algebra of relatively open simplicial cones in the coordinate space
of a cubic field.

Every set here is a finite disjoint union of relatively open simplicial
cones whose generators are primitive integer coordinate vectors. Because the
real-embedding map is an injective rational-linear map, membership, unit
translation, intersection and set equality of embedded Shintani sets are
decided by exact rational computations on coordinates; the embedding engine
is consulted only for total positivity and for the perturbation direction of
closures.

The one nontrivial primitive is splitting an open cell by a rational
hyperplane. Intersections carve one cell by the defining forms of another;
differences keep the carved-away pieces; open polyhedral pieces are
re-triangulated into open simplicial cells by a fan of the cross-section
polygon. The cross-section functional is the field trace: a rational linear
form that is strictly positive on every nonzero vector of the closed totally
positive cone, hence on every ray these operations can produce.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .embedding import RealEmbeddings
from .errors import (
    DegenerateGeometry,
    EmptySet,
    InclusionViolated,
    NotTotallyPositive,
    SignConditionFailed,
    WindowExceeded,
)
from .field import FieldElement, FieldSpec, _int_vec, adjugate3, det3

Vec = tuple[int, int, int]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sign(v) -> int:
    return 0 if v == 0 else (1 if v > 0 else -1)


def primitive_vector(v) -> Vec:
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector (direction preserving)."""
    a, b, c = v
    if not (type(a) is int and type(b) is int and type(c) is int):
        a, b, c = _int_vec([Fraction(a), Fraction(b), Fraction(c)])
    g = math.gcd(a, b, c)
    if g == 0:
        raise DegenerateGeometry("zero vector cannot generate a ray")
    return (a // g, b // g, c // g)


def _int_matrix(m):
    """An integer matrix that is a positive multiple of the rational matrix
    `m`, so it maps every ray to the same ray as `m`."""
    flat = [x for row in m for x in row]
    if not all(type(x) is int for x in flat):
        flat = _int_vec(flat)
    return (flat[0:3], flat[3:6], flat[6:9])


def _matmul(a, b):
    return tuple(tuple(_dot(r, c) for c in zip(*b)) for r in a)


def _rank(rows) -> int:
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


def _cross(a: Vec, b: Vec):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


class Cone:
    """A relatively open simplicial cone spanned by 1..3 independent
    primitive integer generators (strictly positive combinations only).

    H-form: the cell equals {x : e.x = 0 for equalities e, p.x > 0 for
    positivity forms p}; forms are integer vectors, computed lazily and
    cached.
    """

    __slots__ = ("gens", "_pos_forms", "_eq_forms")

    def __init__(self, gens: tuple[Vec, ...]):
        self.gens = gens
        self._pos_forms = None
        self._eq_forms = None

    @classmethod
    def from_rays(cls, rays) -> "Cone":
        rays = list(rays)
        canon = sorted({primitive_vector(r) for r in rays})
        if len(canon) != len(rays):
            raise DegenerateGeometry("repeated generators")
        if _rank(canon) != len(canon):
            raise DegenerateGeometry("generators are linearly dependent")
        return cls(tuple(canon))

    @property
    def dim(self) -> int:
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"Cone{self.gens}"

    def _compute_forms(self):
        gens = self.gens
        if len(gens) == 3:
            m = [[gens[j][i] for j in range(3)] for i in range(3)]
            s = _sign(det3(m))
            adj = adjugate3(m)
            pos = tuple(primitive_vector([s * v for v in row]) for row in adj)
            eq = ()
        elif len(gens) == 2:
            n = primitive_vector(_cross(gens[0], gens[1]))
            m = [[gens[0][i], gens[1][i], n[i]] for i in range(3)]
            adj = adjugate3(m)  # det = |cross|^2 > 0
            pos = tuple(primitive_vector(adj[row]) for row in (0, 1))
            eq = (n,)
        else:
            g = gens[0]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                ei = tuple(1 if k == i else 0 for k in range(3))
                ej = tuple(1 if k == j else 0 for k in range(3))
                m = [[g[r], ei[r], ej[r]] for r in range(3)]
                d = det3(m)
                if d != 0:
                    break
            adj = adjugate3(m)
            s = _sign(d)
            pos = (primitive_vector([s * v for v in adj[0]]),)
            eq = tuple(primitive_vector(adj[row]) for row in (1, 2))
        self._pos_forms = pos
        self._eq_forms = eq

    @property
    def pos_forms(self):
        if self._pos_forms is None:
            self._compute_forms()
        return self._pos_forms

    @property
    def eq_forms(self):
        if self._eq_forms is None:
            self._compute_forms()
        return self._eq_forms

    def contains_vec(self, x) -> bool:
        """Exact membership of a rational/integer coordinate vector."""
        for p in self.pos_forms:
            if _dot(p, x) <= 0:
                return False
        for e in self.eq_forms:
            if _dot(e, x) != 0:
                return False
        return True

    def witness_vec(self) -> Vec:
        """An integer point in the cell (the sum of the generators)."""
        return tuple(sum(g[i] for g in self.gens) for i in range(3))  # type: ignore[return-value]

    def translate(self, matrix) -> "Cone":
        """Image under an invertible rational matrix acting on coordinates."""
        m = _int_matrix(matrix)
        new = []
        for g in self.gens:
            img = [m[r][0] * g[0] + m[r][1] * g[1] + m[r][2] * g[2] for r in range(3)]
            new.append(primitive_vector(img))
        return Cone(tuple(sorted(new)))


def cones_fast_disjoint(a: Cone, b: Cone) -> bool:
    """Cheap certified disjointness: one cone lies strictly on the wrong side
    of a defining form of the other. False means undecided."""
    for x, y in ((a, b), (b, a)):
        for f in x.pos_forms:
            if all(_dot(f, g) < 0 for g in y.gens):
                return True
        for e in x.eq_forms:
            s = [_sign(_dot(e, g)) for g in y.gens]
            if all(v > 0 for v in s) or all(v < 0 for v in s):
                return True
    return False


@dataclass(frozen=True)
class ShintaniSet:
    """Finite disjoint union of relatively open simplicial cones, stored in a
    canonical cell order for deterministic serialization."""

    cones: tuple[Cone, ...]

    @classmethod
    def from_cones(cls, cones) -> "ShintaniSet":
        return cls(tuple(sorted(cones, key=lambda c: (len(c.gens), c.gens))))

    @property
    def is_empty(self) -> bool:
        return not self.cones

    def contains_vec(self, x) -> bool:
        return any(c.contains_vec(x) for c in self.cones)

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)


# -- splitting and re-triangulation -------------------------------------------


def split_cell(cone: Cone, form, trace_form):
    """Split an open cell by the hyperplane {form = 0} into (neg, zero, pos)
    lists of open cells."""
    gens = cone.gens
    svals = [_dot(form, g) for g in gens]
    signs = [_sign(v) for v in svals]
    if all(s >= 0 for s in signs):
        if any(s > 0 for s in signs):
            return [], [], [cone]
        return [], [cone], []
    if all(s <= 0 for s in signs):
        return [cone], [], []
    # mixed: edges crossing the hyperplane contribute new boundary rays
    cut = []
    for i in range(len(gens)):
        for j in range(len(gens)):
            if signs[i] > 0 > signs[j]:
                u = tuple(
                    svals[i] * gens[j][k] - svals[j] * gens[i][k] for k in range(3)
                )
                cut.append(primitive_vector(u))
    pos_rays = [g for g, s in zip(gens, signs) if s >= 0] + cut
    neg_rays = [g for g, s in zip(gens, signs) if s <= 0] + cut
    zero_rays = [g for g, s in zip(gens, signs) if s == 0] + cut
    return (
        decompose_rays(neg_rays, trace_form),
        decompose_rays(zero_rays, trace_form),
        decompose_rays(pos_rays, trace_form),
    )


def decompose_rays(rays, trace_form) -> list[Cone]:
    """Disjoint open simplicial cells whose union is the relative interior of
    the cone generated by `rays` (all rays must have positive trace)."""
    canon = sorted({primitive_vector(r) for r in rays})
    if not canon:
        return []
    rank = _rank(canon)
    if rank == 1:
        assert len(canon) == 1, "opposite rays cannot both have positive trace"
        return [Cone((canon[0],))]

    tvals = [Fraction(_dot(trace_form, r)) for r in canon]
    assert all(t > 0 for t in tvals)
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

    hull = _convex_hull(list(zip(pts, canon)))
    k = len(hull)
    h0 = hull[0]
    cells = [Cone(tuple(sorted((h0, hull[i], hull[i + 1])))) for i in range(1, k - 1)]
    cells += [Cone(tuple(sorted((h0, hull[i])))) for i in range(2, k - 1)]
    return cells


def _convex_hull(tagged):
    """Monotone chain on exact rational points; returns the rays of the hull
    vertices in cyclic order (collinear and interior points dropped)."""
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


def _carve(a: Cone, b: Cone, trace_form) -> tuple[list[Cone], list[Cone]]:
    """Split `a` by the defining forms of `b` into the cells inside `b` and
    the cells outside it: an equality form keeps its zero part, a positivity
    form its positive part, and the other two parts go outside."""
    inside = [a]
    outside: list[Cone] = []
    for forms, keep in ((b.eq_forms, 1), (b.pos_forms, 2)):
        for form in forms:
            kept: list[Cone] = []
            for p in inside:
                for i, part in enumerate(split_cell(p, form, trace_form)):
                    (kept if i == keep else outside).extend(part)
            inside = kept
    return inside, outside


def intersect_cells(a: Cone, b: Cone, trace_form) -> list[Cone]:
    """Exact intersection of two open cells as disjoint open cells (carves
    `a` by the defining forms of `b`)."""
    if cones_fast_disjoint(a, b):
        return []
    return _carve(a, b, trace_form)[0]


def diff_cell(a: Cone, b: Cone, trace_form) -> list[Cone]:
    """Exact difference a \\ b as disjoint open cells."""
    if cones_fast_disjoint(a, b):
        return [a]
    return _carve(a, b, trace_form)[1]


# -- the geometry engine -------------------------------------------------------


@dataclass
class CoverBox:
    """Minimal translate box covering x^-1 D, anchored at the overlap-support
    minimum (replacing x by the anchor's unit multiple shifts the box to the
    origin)."""

    alpha: tuple[int, int]
    anchor: tuple[int, int]
    base_units: tuple[FieldElement, FieldElement]
    support: tuple[tuple[int, int], ...]
    domain: ShintaniSet  # the D whose translates cover x^-1 D


@dataclass
class FDReport:
    passed: bool
    samples: int
    bad_samples: list
    boundary_hits: list
    seed: int


class Geometry:
    """Exact Shintani set operations bound to one field and one embedding
    labeling."""

    def __init__(self, emb: RealEmbeddings):
        self.emb = emb
        self.spec: FieldSpec = emb.spec
        self.trace_form = primitive_vector(self.spec.trace_basis)
        # (cell generators, u1, u2, window) -> the translate table of
        # _overlap_support; fdcheck tables stay out (large, never shared)
        self._tables: dict = {}

    # -- constructors -------------------------------------------------------

    def cone(self, *elems: FieldElement) -> Cone:
        for e in elems:
            if not self.emb.is_totally_positive(e):
                raise NotTotallyPositive(f"cone generator {e!r} is not totally positive")
        return Cone.from_rays([e.coords for e in elems])

    def shintani_set(self, cones, check: bool = True) -> ShintaniSet:
        s = ShintaniSet.from_cones(cones)
        if check:
            bad = self.find_overlap(s)
            if bad is not None:
                raise DegenerateGeometry(f"cells overlap: {bad[0]!r} and {bad[1]!r}")
        return s

    def find_overlap(self, s: ShintaniSet):
        return self._first_meeting(itertools.combinations(s.cones, 2))

    def _first_meeting(self, pairs):
        """The first pair of cells with a nonempty intersection, or None."""
        for a, b in pairs:
            if cones_fast_disjoint(a, b):
                continue
            if intersect_cells(a, b, self.trace_form):
                return (a, b)
        return None

    def element_of_vec(self, v) -> FieldElement:
        return FieldElement(self.spec, tuple(Fraction(x) for x in v))

    # -- membership and sampling --------------------------------------------

    def member(self, x: FieldElement, target) -> bool:
        if x.is_zero():
            raise ValueError("membership is defined for nonzero elements")
        return target.contains_vec(_int_vec(x.coords))

    def sample_point(self, s) -> FieldElement:
        if isinstance(s, Cone):
            return self.element_of_vec(s.witness_vec())
        if s.is_empty:
            raise EmptySet("no cells to sample")
        return self.element_of_vec(s.cones[0].witness_vec())

    def sample_in_intersection(self, c1: Cone, c2: Cone) -> FieldElement:
        cells = intersect_cells(c1, c2, self.trace_form)
        if not cells:
            raise EmptySet("cones do not intersect")
        return self.element_of_vec(cells[0].witness_vec())

    # -- set algebra ---------------------------------------------------------

    def scale(self, s: ShintaniSet, u: FieldElement) -> ShintaniSet:
        if not self.emb.is_totally_positive(u):
            raise NotTotallyPositive("scaling element must be totally positive")
        m = u.mul_matrix()
        return ShintaniSet.from_cones([c.translate(m) for c in s.cones])

    def intersect(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        out = []
        for a in s1.cones:
            for b in s2.cones:
                out.extend(intersect_cells(a, b, self.trace_form))
        return ShintaniSet.from_cones(out)

    def difference(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        pieces = list(s1.cones)
        for b in s2.cones:
            pieces = [q for p in pieces for q in diff_cell(p, b, self.trace_form)]
            if not pieces:
                break
        return ShintaniSet.from_cones(pieces)

    def union(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        extra = self.difference(s2, s1)
        return ShintaniSet.from_cones(list(s1.cones) + list(extra.cones))

    def subset(self, s1: ShintaniSet, s2: ShintaniSet):
        """(True, None) or (False, witness FieldElement in s1 \\ s2)."""
        rest = self.difference(s1, s2)
        if rest.is_empty:
            return True, None
        return False, self.sample_point(rest)

    def set_equal(self, s1: ShintaniSet, s2: ShintaniSet):
        ok, w = self.subset(s1, s2)
        if not ok:
            return False, w
        return self.subset(s2, s1)

    def overlap(self, s1, s2) -> bool:
        """Whether two Shintani sets (or plain cell lists) meet."""
        return self._first_meeting(itertools.product(s1, s2)) is not None

    # -- perturbed closures and domains ---------------------------------------

    def perturbed_closure(self, c: Cone) -> ShintaniSet:
        """The cone plus the open faces entered by an infinitesimal
        perturbation along e1 (the first embedding slot)."""
        gens_e = [self.element_of_vec(g) for g in c.gens]
        if c.dim < 3:
            if self.emb.e1_outside_span(gens_e):
                return ShintaniSet.from_cones([c])
            raise DegenerateGeometry("e1 inside the span of a low-dimensional cone")
        d = self.emb.e1_coordinate_signs(gens_e)
        neg = {i for i in range(3) if d[i] < 0}
        cells = [c]
        for t in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            if neg <= set(t):
                cells.append(Cone(tuple(sorted(c.gens[i] for i in t))))
        return ShintaniSet.from_cones(cells)

    def bracket(self, x1: FieldElement, x2: FieldElement) -> Cone:
        """C([x1 | x2]) = C(1, x1, x1*x2)."""
        return self.cone(self.spec.one, x1, x1 * x2)

    def _check_unit_pair(self, eps1: FieldElement, eps2: FieldElement):
        d12 = self.emb.delta_bracket(eps1, eps2)
        d21 = self.emb.delta_bracket(eps2, eps1)
        if d12 != 1 or d21 != -1:
            raise SignConditionFailed(
                f"delta([e1|e2])={d12}, delta([e2|e1])={d21}; need +1, -1"
            )

    def colmez_domain(self, eps1: FieldElement, eps2: FieldElement) -> ShintaniSet:
        self._check_unit_pair(eps1, eps2)
        cells = list(self.perturbed_closure(self.bracket(eps1, eps2)).cones)
        cells += list(self.perturbed_closure(self.bracket(eps2, eps1)).cones)
        return self.shintani_set(cells, check=True)

    def explicit_B(self, eps1: FieldElement, eps2: FieldElement) -> ShintaniSet:
        self._check_unit_pair(eps1, eps2)
        one = self.spec.one
        e12 = eps1 * eps2
        cells = [
            self.cone(one),
            self.cone(one, eps1),
            self.cone(one, eps2),
            self.cone(one, e12),
            self.cone(one, eps1, e12),
            self.cone(one, eps2, e12),
        ]
        return self.shintani_set(cells, check=True)

    def explicit_B1(self, eps2: FieldElement, pi: FieldElement) -> ShintaniSet:
        return self._mixed_domain(eps2, pi, "e2")

    def explicit_B2(self, eps1: FieldElement, pi: FieldElement) -> ShintaniSet:
        return self._mixed_domain(eps1, pi, "e1")

    def _mixed_domain(self, eps: FieldElement, pi: FieldElement, label: str) -> ShintaniSet:
        """The six cells on 1, eps, pi and eps*pi (B1 for eps = e2, B2 for
        eps = e1); [eps|pi] and [pi|eps] must have opposite nonzero signs."""
        dp = self.emb.delta_bracket(eps, pi)
        dm = self.emb.delta_bracket(pi, eps)
        if dp == 0 or dp != -dm:
            raise SignConditionFailed(
                f"delta([{label}|pi])={dp}, delta([pi|{label}])={dm}; "
                "need opposite nonzero signs"
            )
        one = self.spec.one
        epi = eps * pi
        cells = [
            self.cone(pi),
            self.cone(pi, epi),
            self.cone(one, pi),
            self.cone(one, epi),
            self.cone(one, eps, epi),
            self.cone(one, pi, epi),
        ]
        return self.shintani_set(cells, check=True)

    # -- translates, covers, supports -----------------------------------------

    def _translates(self, d: ShintaniSet, u1: FieldElement, u2: FieldElement, window: int):
        m1 = _power_matrices(u1, window)
        m2 = _power_matrices(u2, window)
        out = {}
        for k1 in range(-window, window + 1):
            for k2 in range(-window, window + 1):
                m = _matmul(m1[k1], m2[k2])
                out[(k1, k2)] = [c.translate(m) for c in d.cones]
        return out

    def _overlap_support(self, d, x, u1, u2, window):
        """All k in the window with u1^k1 u2^k2 D meeting x^-1 D, sorted;
        a k on the window boundary raises WindowExceeded."""
        key = (tuple(c.gens for c in d.cones), u1.coords, u2.coords, window)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._translates(d, u1, u2, window)
        xinv_m = x.inverse().mul_matrix()
        target = [c.translate(xinv_m) for c in d.cones]
        hits = sorted(k for k, cells in table.items() if self.overlap(cells, target))
        if any(abs(k1) == window or abs(k2) == window for k1, k2 in hits):
            raise WindowExceeded(f"support touches the window boundary: {hits}")
        return hits

    def error_support(
        self,
        d: ShintaniSet,
        pi: FieldElement,
        u1: FieldElement,
        u2: FieldElement,
        window: int = 8,
    ) -> list[tuple[int, int]]:
        return self._overlap_support(d, pi, u1, u2, window)

    def translation_cover(
        self,
        d: ShintaniSet,
        x: FieldElement,
        u1: FieldElement,
        u2: FieldElement,
        window: int = 8,
    ) -> CoverBox:
        if not self.emb.is_totally_positive(x):
            raise NotTotallyPositive("cover target must be totally positive")
        hits = self._overlap_support(d, x, u1, u2, window)
        if not hits:
            raise WindowExceeded("x^-1 D meets no translate inside the window")
        k1s = [k1 for k1, _ in hits]
        k2s = [k2 for _, k2 in hits]
        anchor = (min(k1s), min(k2s))
        alpha = (max(k1s) - anchor[0], max(k2s) - anchor[1])
        return CoverBox(
            alpha=alpha, anchor=anchor, base_units=(u1, u2), support=tuple(hits), domain=d
        )

    # -- tiling check ----------------------------------------------------------

    def fundamental_domain_check(
        self,
        d: ShintaniSet,
        u1: FieldElement,
        u2: FieldElement,
        samples: int = 1000,
        window: int = 8,
        seed: int = 0,
    ) -> FDReport:
        """Seeded sampling check that the window translates of D hit each
        random totally positive point exactly once.

        Points are positive rational combinations of the spanning triple
        (1, u1, u1*u2), so every point lies in the open cone S the triple
        spans. A translate cell that misses S holds no point, so each point
        is tested only against the cells that meet S, found once by exact
        intersection; its hit set over the whole window is still exact.

        A PASS is evidence about S only. Each bundled domain has S as one of
        its cells, so a PASS there shows that no other window translate
        meets that cell; a domain with another cell deleted, or with a
        translate of another cell added, can still pass.
        """
        if samples < 1:
            raise ValueError("fundamental domain check needs samples >= 1")
        triple = (self.spec.one, u1, u1 * u2)
        flat = _int_vec([c for v in triple for c in v.coords])
        w = (flat[0:3], flat[3:6], flat[6:9])
        s_cells = decompose_rays(w, self.trace_form)
        candidates = {}
        for k, cells in self._translates(d, u1, u2, window).items():
            kept = [
                c for c in cells if any(intersect_cells(s, c, self.trace_form) for s in s_cells)
            ]
            if kept:
                candidates[k] = kept
        rng = random.Random(seed)
        bad = []
        boundary = []
        for _ in range(samples):
            coeffs = [(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(3)]
            (a0, b0), (a1, b1), (a2, b2) = coeffs
            # b0 b1 b2 times the point, scaled as the triple is to w: its ray
            c0, c1, c2 = a0 * b1 * b2, a1 * b0 * b2, a2 * b0 * b1
            xv = tuple(c0 * w[0][i] + c1 * w[1][i] + c2 * w[2][i] for i in range(3))
            hits = [
                k
                for k, cells in candidates.items()
                if any(c.contains_vec(xv) for c in cells)
            ]
            edge = [k for k in hits if abs(k[0]) == window or abs(k[1]) == window]
            if len(hits) == 1 and not edge:
                continue
            x = self.spec.zero
            for (a, b), v in zip(coeffs, triple):
                x = x + v.scalar_mul(Fraction(a, b))
            if len(hits) != 1:
                bad.append((x.coords, sorted(hits)))
            boundary += [(k, x.coords) for k in edge]
        return FDReport(
            passed=not bad and not boundary,
            samples=samples,
            bad_samples=bad,
            boundary_hits=boundary,
            seed=seed,
        )

    # -- the explicit Shintani-set identities -----------------------------------

    def prop4_union(self, eps1: FieldElement, eps2: FieldElement) -> ShintaniSet:
        """C([e1|e2]) u C([e2|e1]) u C(1, e1*e2): where a normalized pi^-1
        must lie."""
        one = self.spec.one
        return ShintaniSet.from_cones(
            [
                self.bracket(eps1, eps2),
                self.bracket(eps2, eps1),
                self.cone(one, eps1 * eps2),
            ]
        )

    def classify_case(
        self, eps1: FieldElement, eps2: FieldElement, pi: FieldElement, window: int = 8
    ) -> tuple[str, CoverBox]:
        b = self.explicit_B(eps1, eps2)
        box = self.translation_cover(b, pi, eps1, eps2, window)
        a1, a2 = box.alpha
        if a1 <= 1 and a2 <= 1:
            return "case1", box
        if a1 <= 1 and a2 == 2:
            return "case2", box
        raise InclusionViolated(f"cover box {box.alpha} exceeds the guaranteed (1,2) block")

    def verify_identity(
        self, eps1: FieldElement, eps2: FieldElement, pi: FieldElement, window: int = 8
    ) -> tuple[str, list]:
        """Exact check of every displayed Shintani-set equality of the
        configuration's case.

        Returns (case, [(tag, ok, witness), ...]) with the tags "id1" and
        "id2", and in case 2 also "case2extra" and "case2extra_reference"
        (its left side against the four-cell value). A witness lies in the
        symmetric difference and is None exactly when ok.
        """
        case, box = self.classify_case(eps1, eps2, pi, window)
        pinv = pi.inverse()
        if not self.prop4_union(eps1, eps2).contains_vec(_int_vec(pinv.coords)):
            raise SignConditionFailed(
                "pi is not normalized: pi^-1 lies outside C([e1|e2]) u C([e2|e1]) u C(1,e1e2)"
            )
        b = box.domain
        pinv_b = self.scale(b, pinv)

        def translate_meet_b(u: FieldElement) -> ShintaniSet:
            return self.scale(self.intersect(self.scale(b, u), pinv_b), u.inverse())

        # id1: B1 against the e2-translate, RHS translates e1 e2^k2;
        # id2: B2 against the e1-translate, RHS translates e1^k1 e2^k2
        k2s = (1,) if case == "case1" else (1, 2)
        results = []
        for tag, u, mixed_domain, exponents in (
            ("id1", eps2, self.explicit_B1, [(1, k2) for k2 in (0,) + k2s]),
            ("id2", eps1, self.explicit_B2, [(k1, k2) for k1 in (0, 1) for k2 in k2s]),
        ):
            pinv_mixed = self.scale(mixed_domain(u, pi), pinv)
            lhs = self.union(
                self.intersect(pinv_mixed, b),
                self.scale(self.intersect(pinv_mixed, self.scale(b, u)), u.inverse()),
            )
            rhs = ShintaniSet.from_cones([])
            for k1, k2 in exponents:
                rhs = self.union(rhs, translate_meet_b(eps1**k1 * eps2**k2))
            results.append((tag, *self.set_equal(lhs, rhs)))
        if case == "case2":
            # (e2 B u e1e2 B) n pi^-1 B2  =  e2^-1 ((e2^2 B u e1 e2^2 B) n pi^-1 B),
            # with pinv_mixed = pi^-1 B2 from the id2 pass
            def b_and_e1_b(u: FieldElement) -> ShintaniSet:
                return self.union(self.scale(b, u), self.scale(b, eps1 * u))

            lhs = self.intersect(b_and_e1_b(eps2), pinv_mixed)
            rhs = self.scale(self.intersect(b_and_e1_b(eps2 * eps2), pinv_b), eps2.inverse())
            results.append(("case2extra", *self.set_equal(lhs, rhs)))
            ref = self.case2extra_reference(eps1, eps2, pi)
            results.append(("case2extra_reference", *self.set_equal(lhs, ref)))
        return case, results

    def case2extra_reference(
        self, eps1: FieldElement, eps2: FieldElement, pi: FieldElement
    ) -> ShintaniSet:
        """The four-cell value both sides of the extra identity reduce to,
        built from the two auxiliary ray points."""
        pinv = pi.inverse()
        e12 = eps1 * eps2
        alpha = self.sample_in_intersection(
            self.cone(pinv, eps1 * pinv), self.cone(eps2, e12)
        )
        beta = self.sample_in_intersection(
            self.cone(pinv, eps1 * pinv), self.cone(e12, eps1 * e12)
        )
        return ShintaniSet.from_cones(
            [
                self.cone(e12),
                self.cone(alpha, e12),
                self.cone(e12, beta),
                self.cone(alpha, e12, beta),
            ]
        )


def _power_matrices(u: FieldElement, window: int) -> dict:
    """k -> an integer matrix that is a positive multiple of the matrix of
    u^k, for |k| <= window."""
    out = {0: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    if window:
        step = _int_matrix(u.mul_matrix())
        back = _int_matrix(u.inverse().mul_matrix())
        for k in range(1, window + 1):
            out[k] = _matmul(out[k - 1], step)
            out[-k] = _matmul(out[-(k - 1)], back)
    return out
