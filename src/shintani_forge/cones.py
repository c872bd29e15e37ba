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

from .embedding import RealEmbeddings, div_iv, dot_iv, iv_log_fraction, iv_sign, sub_iv, work_prec
from .errors import (
    DegenerateGeometry,
    EmptySet,
    InclusionViolated,
    NotTotallyPositive,
    PrecisionExhausted,
    SignConditionFailed,
    WindowExceeded,
)
from .field import FieldElement, FieldSpec, _int_vec, adjugate3, det3

Vec = tuple[int, int, int]

# cap on |k1|, |k2| in a translate search, whose certified box range decides
# its completeness: a range this cap cuts is an error (bundled: |k| <= 3)
WINDOW = 8


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


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


def _cross(a: Vec, b: Vec):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _rank(rows) -> int:
    """Rank of a list of integer 3-vectors: a first nonzero row v, a first
    nonzero normal n = v x r, and rank 3 exactly when n is off some row."""
    v = next((r for r in rows if any(r)), None)
    if v is None:
        return 0
    n = next((c for c in (_cross(v, r) for r in rows) if any(c)), None)
    if n is None:
        return 1
    return 3 if any(_dot(n, r) for r in rows) else 2


def _holds(pos, eq, c0, c1, c2) -> bool:
    """Whether (c0, c1, c2) is > 0 on every form of `pos` and 0 on every
    form of `eq`: membership of a cell, in the coordinates its forms are
    written in."""
    for p0, p1, p2 in pos:
        if p0 * c0 + p1 * c1 + p2 * c2 <= 0:
            return False
    for e0, e1, e2 in eq:
        if e0 * c0 + e1 * c1 + e2 * c2:
            return False
    return True


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
            d = det3(m)
            s = (d > 0) - (d < 0)
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
            s = (d > 0) - (d < 0)
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
        return _holds(self.pos_forms, self.eq_forms, x[0], x[1], x[2])

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
    """Cheap certified disjointness; False means undecided.

    The cells are disjoint when a positivity form of one is <= 0 on every
    generator of the other, or when an equality form of one has one sign on
    the other's generators and is not zero on all of them. Sound because
    every point of a relatively open simplicial cell is a strictly positive
    combination of all its generators, so the form is <= 0, or nonzero, on
    each point of the other cell. This settles cells that only touch: a
    shared face puts zeros among the values, which a strict test rejects."""
    for x, y in ((a, b), (b, a)):
        gens = y.gens
        for f0, f1, f2 in x.pos_forms:
            for g0, g1, g2 in gens:
                if f0 * g0 + f1 * g1 + f2 * g2 > 0:
                    break
            else:
                return True
        for e0, e1, e2 in x.eq_forms:
            pos = neg = False
            for g0, g1, g2 in gens:
                v = e0 * g0 + e1 * g1 + e2 * g2
                if v > 0:
                    pos = True
                elif v < 0:
                    neg = True
            if pos != neg:
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
    lists of open cells.

    A mixed split of a d-cell cuts each edge from a generator g_i with
    form > 0 to one g_j with form < 0 at the primitive ray of
    form(g_i) g_j - form(g_j) g_i, strictly inside the edge. The neg and pos
    parts have rank d and the zero part rank d - 1, and their rays are
    distinct and primitive, so a part with as many rays as its rank is the
    one cell on them; only the 4-ray side of a triangle cut through two
    edges goes to `decompose_rays`. Every cut ray is a positive combination
    of two generators, so the parts have rays of positive trace exactly when
    the generators do; DegenerateGeometry otherwise."""
    gens = cone.gens
    f0, f1, f2 = form
    svals = [f0 * g0 + f1 * g1 + f2 * g2 for g0, g1, g2 in gens]
    if min(svals) >= 0:
        if max(svals) > 0:
            return [], [], [cone]
        return [], [cone], []
    if max(svals) <= 0:
        return [cone], [], []
    t0, t1, t2 = trace_form
    for g0, g1, g2 in gens:
        if t0 * g0 + t1 * g1 + t2 * g2 <= 0:
            raise DegenerateGeometry("every ray must have positive trace")
    neg, zero, pos = [], [], []
    for g, v in zip(gens, svals):
        (pos if v > 0 else neg if v < 0 else zero).append(g)
    cut = []
    for (i0, i1, i2), vi in zip(gens, svals):
        if vi > 0:
            for (j0, j1, j2), vj in zip(gens, svals):
                if vj < 0:
                    cut.append(
                        primitive_vector((vi * j0 - vj * i0, vi * j1 - vj * i1, vi * j2 - vj * i2))
                    )
    d = len(gens)

    def part(rays, rank):
        if len(rays) == rank:
            return [Cone(tuple(sorted(rays)))]
        return decompose_rays(rays, trace_form)

    return part(neg + zero + cut, d), part(zero + cut, d - 1), part(pos + zero + cut, d)


def decompose_rays(rays, trace_form) -> list[Cone]:
    """Disjoint open simplicial cells whose union is the relative interior of
    the cone generated by `rays`; DegenerateGeometry unless every ray has
    positive trace. A cone of rank 3 is fanned from the first vertex of the
    hull of its points in the section trace = 1. `split_cell` sends here only
    a part with more rays than its rank."""
    canon = sorted({primitive_vector(r) for r in rays})
    if not canon:
        return []
    tvals = [_dot(trace_form, r) for r in canon]
    if min(tvals) <= 0:
        raise DegenerateGeometry("every ray must have positive trace")
    rank = _rank(canon)
    if rank == 1:
        # two distinct primitive rays on one line are opposite, and opposite
        # rays cannot both have positive trace
        return [Cone((canon[0],))]
    if rank == 2:
        # the rays lie in an open half-plane, where r comes before s exactly
        # when n . (r x s) > 0; the cell spans the first and the last ray
        n = next(c for c in (_cross(canon[0], r) for r in canon) if any(c))
        first = last = canon[0]
        for r in canon[1:]:
            if _dot(n, _cross(r, first)) > 0:
                first = r
            elif _dot(n, _cross(last, r)) > 0:
                last = r
        return [Cone(tuple(sorted((first, last))))]

    a = next(i for i in range(3) if trace_form[i] != 0)
    b, c = (i for i in range(3) if i != a)
    hull = _convex_hull([((t, r[b], r[c]), r) for r, t in zip(canon, tvals)])
    k = len(hull)
    h0 = hull[0]
    cells = [Cone(tuple(sorted((h0, hull[i], hull[i + 1])))) for i in range(1, k - 1)]
    cells += [Cone(tuple(sorted((h0, hull[i])))) for i in range(2, k - 1)]
    return cells


def _convex_hull(tagged):
    """Monotone chain over (row, ray) pairs, where a ray r of trace t > 0 has
    the integer row (t, r_b, r_c) and the exact point (r_b / t, r_c / t) of
    the section trace = 1; returns the rays of the hull vertices in cyclic
    order (collinear and interior points dropped). Points sort by their
    coordinates times the product T of all the traces, the integers
    (r_b T / t, r_c T / t), which keeps their order since T > 0; three of
    them turn left exactly when the determinant of their rows is positive,
    since it is their planar cross product times the three traces."""
    total = math.prod(row[0] for row, _ in tagged)
    keyed = []
    for row, ray in tagged:
        m = total // row[0]
        keyed.append(((row[1] * m, row[2] * m), row, ray))
    keyed.sort(key=lambda t: t[0])

    def turn(o, p, q):
        return _dot(o[1], _cross(p[1], q[1]))

    lower: list = []
    for t in keyed:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], t) <= 0:
            lower.pop()
        lower.append(t)
    upper: list = []
    for t in reversed(keyed):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], t) <= 0:
            upper.pop()
        upper.append(t)
    hull = lower[:-1] + upper[:-1]
    return [t[2] for t in hull]


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


# -- translate tables --------------------------------------------------------


class _TranslateTable:
    """The translates u1^k1 u2^k2 D of one domain, each built on first use
    and kept, with a certified box of each cell of D in the phi plane.

    phi writes the trace-zero part of a log-embedding vector in the basis
    tz(Log u1), tz(Log u2). Multiplying by u1^k1 u2^k2 shifts it by exactly
    (k1, k2), also when u2 is not a unit, and a positive scalar moves it
    nowhere. It is evaluated as two linear forms in the three logs, both
    zero on (1, 1, 1); on a box of logs each log then enters once, so the
    image is as tight as interval arithmetic allows, where taking the
    trace-zero part first and solving after would count each log twice.

    A point sum t_i v_i of an open cone with totally positive generators v_i
    has, in each slot j, sigma_j(x) / sum t_i between the least and the
    greatest sigma_j(v_i). The forms applied to the logs of those slot
    intervals give the cone's certified box, and a k whose shifted box
    misses a target's box cannot meet the target, so the cell boxes decide
    which pairs of cells to intersect for each k, and the hull of those
    ranges whether the window cuts a search. The forms are computed up
    the precision ladder until their determinant is certified nonzero; a
    pair that stays undecided at the cap raises PrecisionExhausted. Rows,
    points and boxes are `embedding`'s intervals of signed endpoints at the
    precision of that rung.
    """

    def __init__(self, geo: "Geometry", d: ShintaniSet, u1: FieldElement, u2: FieldElement):
        # no reference to geo, whose memo keeps the table: a cycle would keep
        # a dropped Geometry and its embeddings alive until a full collection
        self.emb = geo.emb
        self.domain = d.cones
        # per axis: k -> a positive integer multiple of the matrix of u^k
        self._powers = tuple(
            {k: _int_matrix((u**k).mul_matrix()) for k in (-1, 0, 1)} for u in (u1, u2)
        )
        self._cells: dict = {}
        self._forms(u1, u2)
        self.cell_boxes = [self.cell_box(c.gens) for c in self.domain]

    def _forms(self, u1: FieldElement, u2: FieldElement):
        """Rows of the forms a, b with a(Log u1) = b(Log u2) = 1 and
        a(Log u2) = b(Log u1) = 0: (Log u2 x 1) and (1 x Log u1) over
        det(1, Log u1, Log u2)."""
        emb = self.emb
        for bits in emb.cfg.ladder():
            prec = work_prec(bits)
            p = emb.log_embed(u1, bits)
            q = emb.log_embed(u2, bits)
            a = [sub_iv(q[(j + 1) % 3], q[(j + 2) % 3], prec) for j in range(3)]
            b = [sub_iv(p[(j + 2) % 3], p[(j + 1) % 3], prec) for j in range(3)]
            det = dot_iv(p, a, prec)
            if iv_sign(det) is not None:
                self.bits, self.prec = bits, prec
                self.rows = tuple([div_iv(c, det, prec) for c in row] for row in (a, b))
                return
        raise PrecisionExhausted(
            f"phi basis of the translate pair not certified independent at {emb.cfg.max_bits} bits"
        )

    def point(self, x: FieldElement):
        """phi(x), one interval per axis."""
        logs = self.emb.log_embed(x, self.bits)
        return tuple(dot_iv(row, logs, self.prec) for row in self.rows)

    def cell_box(self, gens):
        """Certified phi box, one interval per axis, of the open cone
        spanned by the integer generators `gens`."""
        emb, bits = self.emb, self.bits
        encs = [
            emb.embed_positive(FieldElement(emb.spec, tuple(map(Fraction, g))), bits)
            for g in gens
        ]
        logs = [
            iv_log_fraction(min(e[j].lo for e in encs), max(e[j].hi for e in encs), bits)
            for j in range(3)
        ]
        return tuple(dot_iv(row, logs, self.prec) for row in self.rows)

    def pairs(self, targets) -> dict:
        """k -> the (i, j), i-major, for which the shifted box of cell i of D
        meets the box targets[j]: per pair, the k in the range ceil(lo) ..
        floor(hi) of targets[j] - box(cell i) on both axes (`_k_ranges`).
        Cell i of the k-translate can meet a set inside box j only for those
        k. The search is complete unless `WINDOW` cuts the hull of the
        ranges, per axis the least lo and the greatest hi, and then it
        raises WindowExceeded; an empty hull gives no k."""
        ranges = _k_ranges(self.cell_boxes, targets)
        flat = [r for row in ranges for r in row]
        hull = [(min(r[a][0] for r in flat), max(r[a][1] for r in flat)) for a in range(2)]
        if any(lo > hi for lo, hi in hull):
            return {}
        cuts = [
            (axis, lo, hi) for axis, (lo, hi) in enumerate(hull) if lo < -WINDOW or hi > WINDOW
        ]
        if cuts:
            raise WindowExceeded(_cut_message(cuts))
        out: dict = {}
        for i, row in enumerate(ranges):
            for j, ((lo1, hi1), (lo2, hi2)) in enumerate(row):
                for k1 in range(lo1, hi1 + 1):
                    for k2 in range(lo2, hi2 + 1):
                        out.setdefault((k1, k2), []).append((i, j))
        return out

    def _power(self, axis: int, k: int):
        powers = self._powers[axis]
        if k not in powers:
            step = 1 if k > 0 else -1
            powers[k] = _matmul(self._power(axis, k - step), powers[step])
        return powers[k]

    def cells(self, k) -> list[Cone]:
        """The cells of u1^k1 u2^k2 D."""
        cells = self._cells.get(k)
        if cells is None:
            m = _matmul(self._power(0, k[0]), self._power(1, k[1]))
            cells = self._cells[k] = [c.translate(m) for c in self.domain]
        return cells


def _k_ranges(moving, fixed):
    """For each box m of `moving` and each box f of `fixed` (boxes of
    interval pairs), rows by m: per axis the integer range ceil(lo),
    floor(hi) of f - m, unclipped and empty when lo > hi. The range is
    exact for the boxes: every endpoint is taken as an integer over one
    power of two 2^s, s >= 0. A zero endpoint is 0 whatever its exponent,
    which an exact cancellation leaves below -s."""
    ends = [p for box in (*moving, *fixed) for iv in box for p in iv]
    s = max([0] + [-e for m, e in ends if m])
    nums = [m << (e + s) if m else 0 for m, e in ends]
    boxes = [nums[n : n + 4] for n in range(0, len(nums), 4)]
    # ceil((fl - mh) / 2^s) and floor((fh - ml) / 2^s)
    return [
        [
            ((-((mh1 - fl1) >> s), (fh1 - ml1) >> s), (-((mh2 - fl2) >> s), (fh2 - ml2) >> s))
            for fl1, fh1, fl2, fh2 in boxes[len(moving) :]
        ]
        for ml1, mh1, ml2, mh2 in boxes[: len(moving)]
    ]


def _cut_message(cuts) -> str:
    """One clause per cut: `k1 range [-2, 3] cut by the window |k| <= 2 (1 above)`."""
    clauses = []
    for axis, lo, hi in cuts:
        over = ((-WINDOW - lo, "below"), (hi - WINDOW, "above"))
        over = ", ".join(f"{n} {side}" for n, side in over if n > 0)
        clauses.append(f"k{axis + 1} range [{lo}, {hi}] cut by the window |k| <= {WINDOW} ({over})")
    return "; ".join(clauses)


# -- the geometry engine -------------------------------------------------------


@dataclass
class CoverBox:
    """Minimal translate box covering x^-1 D, anchored at the overlap-support
    minimum (replacing x by the anchor's unit multiple shifts the box to the
    origin)."""

    alpha: tuple[int, int]
    anchor: tuple[int, int]
    support: tuple[tuple[int, int], ...]
    domain: ShintaniSet  # the D whose translates cover x^-1 D


def _randint_draws(rng: random.Random, n: int):
    """The values of rng.randint(1, n), n >= 1, drawn in turn without end.

    Each draw is CPython's `_randbelow_with_getrandbits(n)` plus 1: take
    `getrandbits` of n's bit length and draw again while it is >= n, so the
    stream is `randint`'s, from the same generator state."""
    bits = itertools.repeat(n.bit_length())
    return map((1).__add__, filter(n.__gt__, map(rng.getrandbits, bits)))


def _pulled_back(forms, w) -> tuple:
    """Integer `forms` as forms in (c0, c1, c2), on the ray c0 w[0] + c1 w[1]
    + c2 w[2]: form f becomes (f.w[0], f.w[1], f.w[2])."""
    return tuple(tuple(_dot(f, r) for r in w) for f in forms)


@dataclass
class FDReport:
    passed: bool
    samples: int
    bad_samples: list
    seed: int


class Geometry:
    """Exact Shintani set operations bound to one field and one embedding
    labeling; translate searches run over certified k ranges."""

    def __init__(self, emb: RealEmbeddings):
        self.emb = emb
        self.spec: FieldSpec = emb.spec
        self.trace_form = primitive_vector(self.spec.trace_basis)
        # (cell generators, u1, u2) -> the _TranslateTable of
        # _overlap_support; fdcheck tables stay out (never shared)
        self._tables: dict = {}
        # (eps1, eps2) coordinates -> explicit_B(eps1, eps2)
        self._b_domains: dict = {}

    # -- constructors -------------------------------------------------------

    def cone(self, *elems: FieldElement) -> Cone:
        for e in elems:
            if not self.emb.is_totally_positive(e):
                raise NotTotallyPositive(f"cone generator {e!r} is not totally positive")
        return Cone.from_rays([e.coords for e in elems])

    def shintani_set(self, cones) -> ShintaniSet:
        """The set of the given cells; DegenerateGeometry when two meet."""
        s = ShintaniSet.from_cones(cones)
        bad = self.find_overlap(s)
        if bad is not None:
            raise DegenerateGeometry(f"cells overlap: {bad[0]!r} and {bad[1]!r}")
        return s

    def find_overlap(self, s: ShintaniSet):
        return self._first_meeting(itertools.combinations(s.cones, 2))

    def _first_meeting(self, pairs):
        """The first pair of cells with a nonempty intersection, or None."""
        return next(((a, b) for a, b in pairs if intersect_cells(a, b, self.trace_form)), None)

    def element_of_vec(self, v) -> FieldElement:
        return FieldElement(self.spec, tuple(Fraction(x) for x in v))

    # -- membership and sampling --------------------------------------------

    def member(self, x: FieldElement, target) -> bool:
        if x.is_zero():
            raise ValueError("membership is defined for nonzero elements")
        return target.contains_vec(_int_vec(x.coords))

    def sample_point(self, s: ShintaniSet) -> FieldElement:
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
        m = _int_matrix(u.mul_matrix())
        return ShintaniSet.from_cones([c.translate(m) for c in s.cones])

    def intersect(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        out = []
        for a in s1.cones:
            for b in s2.cones:
                out.extend(intersect_cells(a, b, self.trace_form))
        return ShintaniSet.from_cones(out)

    def difference(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        """s1 \\ s2 as disjoint open cells, removing the cells of s2 largest
        first: 3-cells, then 2-cells, then rays, each dimension in canonical
        order. A full cell takes its volume away before a face or ray can
        split a piece of s1, since every split piece is tested again by each
        later cell."""
        pieces = list(s1.cones)
        for b in sorted(s2.cones, key=lambda c: -c.dim):
            pieces = [q for p in pieces for q in diff_cell(p, b, self.trace_form)]
            if not pieces:
                break
        return ShintaniSet.from_cones(pieces)

    def union(self, s1: ShintaniSet, s2: ShintaniSet) -> ShintaniSet:
        extra = self.difference(s2, s1)
        return ShintaniSet.from_cones(list(s1.cones) + list(extra.cones))

    def subset(self, s1: ShintaniSet, s2: ShintaniSet):
        """(True, None) or (False, witness FieldElement in s1 \\ s2): the
        witness of the first cell of `difference(s1, s2)`."""
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
            self.emb.e1_outside_span(gens_e)
            return ShintaniSet.from_cones([c])
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

    def _check_unit_pair(self, eps1: FieldElement, eps2: FieldElement, names=("e1", "e2")):
        """delta([eps1|eps2]) = +1 and delta([eps2|eps1]) = -1, or a
        SignConditionFailed that reads the pair by `names`."""
        d12 = self.emb.delta_bracket(eps1, eps2)
        d21 = self.emb.delta_bracket(eps2, eps1)
        if d12 != 1 or d21 != -1:
            n1, n2 = names
            raise SignConditionFailed(
                f"delta([{n1}|{n2}])={d12}, delta([{n2}|{n1}])={d21}; need +1, -1"
            )

    def colmez_domain(self, eps1: FieldElement, eps2: FieldElement) -> ShintaniSet:
        self._check_unit_pair(eps1, eps2)
        cells = list(self.perturbed_closure(self.bracket(eps1, eps2)).cones)
        cells += list(self.perturbed_closure(self.bracket(eps2, eps1)).cones)
        return self.shintani_set(cells)

    def explicit_B(self, eps1: FieldElement, eps2: FieldElement) -> ShintaniSet:
        """B for the unit pair, built once per pair; a pair that fails its
        sign check raises each time and is not kept."""
        key = (eps1.coords, eps2.coords)
        b = self._b_domains.get(key)
        if b is None:
            self._check_unit_pair(eps1, eps2)
            b = self._b_domains[key] = self._six_cells(eps1, eps2, self.spec.one)
        return b

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
        return self._six_cells(eps, pi, pi)

    def _six_cells(self, a: FieldElement, b: FieldElement, r: FieldElement) -> ShintaniSet:
        """C(r), C(r, a*r), C(1, b), C(1, a*b), C(1, a, a*b), C(1, b, a*b):
        B for (a, b, r) = (e1, e2, 1), B1 and B2 for (eps, pi, pi)."""
        one = self.spec.one
        ab = a * b
        cells = [
            self.cone(r),
            self.cone(r, a * r),
            self.cone(one, b),
            self.cone(one, ab),
            self.cone(one, a, ab),
            self.cone(one, b, ab),
        ]
        return self.shintani_set(cells)

    # -- translates, covers, supports -----------------------------------------

    def _overlap_support(self, d, x, u1, u2):
        """All k with u1^k1 u2^k2 D meeting x^-1 D, sorted: cell i of the
        k-translate is intersected with cell j of x^-1 D only when its
        shifted box meets box(cell j) - phi(x) (`_TranslateTable.pairs`,
        which raises WindowExceeded when the window cuts those k), and a
        translate with no such pair is not built."""
        if not self.emb.is_totally_positive(x):
            raise NotTotallyPositive("translate target must be totally positive")
        key = (tuple(c.gens for c in d.cones), u1.coords, u2.coords)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _TranslateTable(self, d, u1, u2)
        xinv_m = _int_matrix(x.inverse().mul_matrix())
        target = [c.translate(xinv_m) for c in d.cones]
        point = table.point(x)
        # cell j of x^-1 D lies in box(cell j) - phi(x)
        pairs = table.pairs(
            [[sub_iv(b, p, table.prec) for b, p in zip(box, point)] for box in table.cell_boxes]
        )
        hits = []
        for k in sorted(pairs):
            cells = table.cells(k)
            if self._first_meeting((cells[i], target[j]) for i, j in pairs[k]):
                hits.append(k)
        return hits

    def error_support(
        self, d: ShintaniSet, pi: FieldElement, u1: FieldElement, u2: FieldElement
    ) -> list[tuple[int, int]]:
        return self._overlap_support(d, pi, u1, u2)

    def translation_cover(
        self, d: ShintaniSet, x: FieldElement, u1: FieldElement, u2: FieldElement
    ) -> CoverBox:
        hits = self._overlap_support(d, x, u1, u2)
        if not hits:
            raise EmptySet("x^-1 D meets no translate of D")
        k1s, k2s = zip(*hits)
        anchor = (min(k1s), min(k2s))
        alpha = (max(k1s) - anchor[0], max(k2s) - anchor[1])
        return CoverBox(alpha=alpha, anchor=anchor, support=tuple(hits), domain=d)

    # -- tiling check ----------------------------------------------------------

    def fundamental_domain_check(
        self,
        d: ShintaniSet,
        u1: FieldElement,
        u2: FieldElement,
        samples: int = 1000,
        seed: int = 0,
    ) -> FDReport:
        """Seeded sampling check that the translates of D hit each random
        totally positive point exactly once.

        Points are positive rational combinations of the spanning triple
        (1, u1, u1*u2), so every point lies in the open cone S the triple
        spans, one cell: the domain's delta check has already certified the
        triple independent. A translate cell that misses S holds no point,
        so each point is tested only against the cells that meet S, found
        once by exact intersection; its hit set is still exact. The
        translate table's phi boxes choose the cells to intersect: of each
        translate only the cells whose box + k meets box(S), since no other
        cell can meet S; a k with no such cell is not built. As in every
        translate search, a range of those k that WINDOW cuts raises
        WindowExceeded. The table is not kept.

        A point's six numerators and denominators in 1..999 are drawn as raw
        bits, the stream of `random.Random(seed).randint(1, 999)`
        (`_randint_draws`). Each
        point is tested on its ray c0 w0 + c1 w1 + c2 w2 in the triple's
        coordinates: a kept cell's forms are pulled back to (c0, c1, c2)
        once, so a test is one three-term integer dot per form, and a
        point's Fraction coordinates are built only for a report entry.

        A PASS is evidence about S only. Each bundled domain has S as one of
        its cells, so a PASS there shows that no other translate meets that
        cell; a domain with another cell deleted, or with a translate of
        another cell added, can still pass.
        """
        if samples < 1:
            raise ValueError("fundamental domain check needs samples >= 1")
        triple = (self.spec.one, u1, u1 * u2)
        w = _int_matrix([v.coords for v in triple])
        s = Cone.from_rays(w)
        table = _TranslateTable(self, d, u1, u2)
        s_box = table.cell_box(w)
        pairs = table.pairs([s_box])
        candidates = []
        for k in sorted(pairs):
            cells = table.cells(k)
            kept = [cells[i] for i, _ in pairs[k] if intersect_cells(s, cells[i], self.trace_form)]
            if kept:
                forms = [(_pulled_back(c.pos_forms, w), _pulled_back(c.eq_forms, w)) for c in kept]
                candidates.append((k, forms))
        draws = _randint_draws(random.Random(seed), 999)
        bad = []
        # six draws a sample, a0, b0, a1, b1, a2, b2 in turn
        for a0, b0, a1, b1, a2, b2 in itertools.islice(zip(*[draws] * 6), samples):
            # b0 b1 b2 times the point, scaled as the triple is to w: its ray
            c0, c1, c2 = a0 * b1 * b2, a1 * b0 * b2, a2 * b0 * b1
            hits = []
            for k, forms in candidates:
                for pos, eq in forms:
                    if _holds(pos, eq, c0, c1, c2):
                        hits.append(k)
                        break
            if len(hits) == 1:
                continue
            x = self.spec.zero
            for a, b, v in ((a0, b0, triple[0]), (a1, b1, triple[1]), (a2, b2, triple[2])):
                x = x + v.scalar_mul(Fraction(a, b))
            bad.append((x.coords, hits))
        return FDReport(passed=not bad, samples=samples, bad_samples=bad, seed=seed)

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
        self, eps1: FieldElement, eps2: FieldElement, pi: FieldElement
    ) -> tuple[str, CoverBox]:
        b = self.explicit_B(eps1, eps2)
        box = self.translation_cover(b, pi, eps1, eps2)
        a1, a2 = box.alpha
        if a1 <= 1 and a2 <= 1:
            return "case1", box
        if a1 <= 1 and a2 == 2:
            return "case2", box
        raise InclusionViolated(f"cover box {box.alpha} exceeds the guaranteed (1,2) block")

    def verify_identity(
        self, eps1: FieldElement, eps2: FieldElement, pi: FieldElement
    ) -> tuple[str, list]:
        """Exact check of every displayed Shintani-set equality of the
        configuration's case.

        Returns (case, [(tag, ok, witness), ...]) with the tags "id1" and
        "id2", and in case 2 also "case2extra" and "case2extra_reference"
        (its left side against the four-cell value). A witness lies in the
        symmetric difference and is None exactly when ok.
        """
        case, box = self.classify_case(eps1, eps2, pi)
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

