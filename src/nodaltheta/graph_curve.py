"""Exact cohomology of glued line bundles on all-rational nodal curves.

Every component is a projective line over a prime field F_p, so a line
bundle of degree d on a component is the space of binary forms of degree
d, and a line bundle on the curve is a choice of degrees plus one nonzero
gluing scalar per node.  A global section is a tuple of forms satisfying,
at every node, ``s(q2) = c * s(q1)`` for the two branch points; h^0 is
the nullity of that linear system, computed exactly mod p.

Points of the projective line are stored as canonical pairs: ``(a, 1)``
with ``0 <= a < p`` for affine points and ``(1, 0)`` for infinity.  All
evaluations use these representatives; rescaling the representative on a
component changes the gluing scalars by a torus action that leaves every
h^0 unchanged (this invariance is asserted in the test suite).

Genericity has no meaning on a single rational component (its Picard
variety is a point); it lives entirely in the gluing torus and in the
branch-point configuration, so "general" statements are probed by
exhaustive scans over small primes and by seeded sampling at large ones.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# imported here and not inside w_count on purpose: numpy loads with this
# module, so the first torus scan of a session does not pay for the import
import numpy as np

from .dual_graph import DualGraph
from .modp import (
    EXHAUSTIVE_SCAN,
    batch_rank,
    charge,
    determinant,
    inverse,
    is_prime,
    nullity,
    nullspace,
    rank,
    stack_dtype,
)

INFINITY = (1, 0)

#: Per-component degree guard; the gluing systems are meant to be tiny.
MAX_COMPONENT_DEGREE = 512


def canonical_point(value, p: int) -> tuple[int, int]:
    """Normalize a point spec: an integer, ``(a, 1)``, ``(1, 0)`` or "inf"."""
    if value == "inf" or value == INFINITY:
        return INFINITY
    if isinstance(value, int):
        return (value % p, 1)
    a, b = value
    if b % p == 0:
        if a % p == 0:
            raise ValueError("(0, 0) is not a projective point")
        return INFINITY
    return (a * inverse(b, p) % p, 1)


# -- curves -------------------------------------------------------------

@dataclass(frozen=True)
class GraphCurve:
    """All-rational nodal curve: genus-0 dual graph, prime, branch points.

    ``branch[(e, side)]`` is the point of the side's component where the
    node ``e`` attaches; all branch points on one component must be
    pairwise distinct (this also bounds the valency by p + 1).
    """

    graph: DualGraph
    prime: int
    branch: dict

    def __post_init__(self):
        if any(g != 0 for g in self.graph.genera):
            raise ValueError("graph curve components must all have genus 0")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        per_vertex: dict[int, set] = {}
        for e in range(self.graph.num_edges):
            for side in (1, 2):
                he = (e, side)
                if he not in self.branch:
                    raise ValueError(f"missing branch point for half-edge {he}")
                pt = self.branch[he]
                if pt != INFINITY and not (pt[1] == 1 and 0 <= pt[0] < self.prime):
                    raise ValueError(f"branch point {pt} at {he} is not canonical")
                v = self.graph.edges[e][side - 1]
                seen = per_vertex.setdefault(v, set())
                if pt in seen:
                    raise ValueError(
                        f"branch point collision on component {v}: {pt} repeats "
                        f"(prime {self.prime} too small for this valency?)"
                    )
                seen.add(pt)

    def branch_points_of(self, v: int) -> set:
        return {
            self.branch[(e, side)]
            for e in range(self.graph.num_edges)
            for side in (1, 2)
            if self.graph.edges[e][side - 1] == v
        }

    def smooth_points_of(self, v: int) -> list:
        """Points of the component available as smooth marked points."""
        taken = self.branch_points_of(v)
        points = [(a, 1) for a in range(self.prime)] + [INFINITY]
        return [pt for pt in points if pt not in taken]


def delete_edges(curve: GraphCurve, edge_subset) -> GraphCurve:
    """Partial normalization: drop the given nodes, keep branch data."""
    s = frozenset(edge_subset)
    graph = curve.graph.delete_edges(s)
    kept = [e for e in range(curve.graph.num_edges) if e not in s]
    branch = {}
    for new_e, old_e in enumerate(kept):
        branch[(new_e, 1)] = curve.branch[(old_e, 1)]
        branch[(new_e, 2)] = curve.branch[(old_e, 2)]
    return GraphCurve(graph, curve.prime, branch)


# -- bundles ------------------------------------------------------------

@dataclass(frozen=True)
class GluedLineBundle:
    """Degrees per component plus one gluing scalar per node.

    Degree -1 (or lower) means the component contributes no sections; -1
    is legal input to support residual constructions.  When
    ``tree_normalized`` is set, the scalars on the graph's spanning
    forest must all be 1.
    """

    degrees: tuple[int, ...]
    gluing: tuple[int, ...]
    tree_normalized: bool = False


def _check_bundle(curve: GraphCurve, bundle: GluedLineBundle, skip=()):
    if len(bundle.degrees) != curve.graph.num_vertices:
        raise ValueError("bundle degree vector does not match vertex count")
    if len(bundle.gluing) != curve.graph.num_edges:
        raise ValueError("bundle gluing vector does not match edge count")
    for e, c in enumerate(bundle.gluing):
        if e in skip:
            continue
        if c % curve.prime == 0:
            raise ValueError(f"gluing scalar at edge {e} vanishes mod p")
    for d in bundle.degrees:
        if d > MAX_COMPONENT_DEGREE:
            raise ValueError(f"component degree {d} exceeds the guard")
    if bundle.tree_normalized:
        for e in curve.graph.spanning_forest():
            if e not in skip and bundle.gluing[e] % curve.prime != 1:
                raise ValueError("tree_normalized bundle with non-1 forest scalar")


def restrict_bundle(curve: GraphCurve, bundle: GluedLineBundle, edge_subset) -> GluedLineBundle:
    """The same degrees with the gluing scalars of the kept edges, for use
    on ``delete_edges(curve, edge_subset)``."""
    s = frozenset(edge_subset)
    kept = tuple(
        bundle.gluing[e] for e in range(curve.graph.num_edges) if e not in s
    )
    return GluedLineBundle(bundle.degrees, kept)


def trivial_bundle(curve: GraphCurve) -> GluedLineBundle:
    return GluedLineBundle(
        (0,) * curve.graph.num_vertices,
        (1,) * curve.graph.num_edges,
        tree_normalized=True,
    )


# -- evaluation and the gluing system ------------------------------------

def evaluate_form(coeffs, point, p: int) -> int:
    """Value of the binary form sum(c_k X^k Z^(d-k)) at a canonical point."""
    if not coeffs:
        return 0
    if point == INFINITY:
        return coeffs[-1] % p
    a = point[0]
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * a + c) % p
    return acc


def _evaluation_vector(degree: int, point, p: int):
    """Row of evaluation functionals on forms of the given degree."""
    if degree < 0:
        return []
    if point == INFINITY:
        return [0] * degree + [1]
    a = point[0]
    row = [1]
    for _ in range(degree):
        row.append(row[-1] * a % p)
    return row


def _vanishing_rows(degree: int, point, multiplicity: int, p: int):
    """Conditions for a degree-``degree`` form to vanish to the given order.

    At an affine point a these are the coefficients of t^0..t^(m-1) of
    f(a + t); the binomial weights are exact integers so the rows are
    valid in any characteristic.  At infinity they pick the top
    coefficients.
    """
    if degree < 0:
        return []
    rows = []
    if point == INFINITY:
        for k in range(multiplicity):
            row = [0] * (degree + 1)
            if degree - k >= 0:
                row[degree - k] = 1
            rows.append(row)
        return rows
    a = point[0]
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * a % p)
    for k in range(multiplicity):
        row = [0] * (degree + 1)
        for i in range(k, degree + 1):
            row[i] = math.comb(i, k) * powers[i - k] % p
        rows.append(row)
    return rows


def _block_layout(degrees):
    offsets = []
    total = 0
    for d in degrees:
        offsets.append(total)
        total += max(d + 1, 0)
    return offsets, total


def _edge_rows(curve: GraphCurve, degrees):
    """Per edge, the two evaluation rows (side 1 and side 2) embedded in
    the concatenated coefficient space; the gluing row is row2 - c*row1."""
    p = curve.prime
    offsets, total = _block_layout(degrees)
    out = []
    for e, (u, v) in enumerate(curve.graph.edges):
        row1 = [0] * total
        row2 = [0] * total
        vec1 = _evaluation_vector(degrees[u], curve.branch[(e, 1)], p)
        for i, x in enumerate(vec1):
            row1[offsets[u] + i] = x
        vec2 = _evaluation_vector(degrees[v], curve.branch[(e, 2)], p)
        for i, x in enumerate(vec2):
            row2[offsets[v] + i] = x
        out.append((row1, row2))
    return out, total


def _gluing_matrix(curve: GraphCurve, bundle: GluedLineBundle, vanishing=()):
    p = curve.prime
    pairs, total = _edge_rows(curve, bundle.degrees)
    rows = []
    for e, (row1, row2) in enumerate(pairs):
        c = bundle.gluing[e] % p
        rows.append([(b - c * a) % p for a, b in zip(row1, row2)])
    offsets, _ = _block_layout(bundle.degrees)
    for vertex, point, mult in vanishing:
        d = bundle.degrees[vertex]
        for vrow in _vanishing_rows(d, canonical_point(point, p), mult, p):
            row = [0] * total
            for i, x in enumerate(vrow):
                row[offsets[vertex] + i] = x
            rows.append(row)
    return rows, total


def h0(curve: GraphCurve, bundle: GluedLineBundle, vanishing=()) -> int:
    """Number of independent global sections, exactly.

    ``vanishing`` imposes extra conditions: an iterable of
    ``(vertex, point, multiplicity)`` triples, so twists like M(-q) are
    h0 with a vanishing condition at q.
    """
    _check_bundle(curve, bundle)
    rows, total = _gluing_matrix(curve, bundle, vanishing)
    return nullity(rows, total, curve.prime)


@dataclass(frozen=True)
class SectionSpace:
    """Basis of global sections; each section is one coefficient tuple per
    component (degree d means d + 1 coefficients, none for negative d)."""

    basis: tuple
    dim: int


def section_space(curve: GraphCurve, bundle: GluedLineBundle) -> SectionSpace:
    _check_bundle(curve, bundle)
    rows, total = _gluing_matrix(curve, bundle)
    vectors = nullspace(rows, total, curve.prime)
    offsets, _ = _block_layout(bundle.degrees)
    sections = []
    for vec in vectors:
        parts = []
        for v, d in enumerate(bundle.degrees):
            size = max(d + 1, 0)
            parts.append(tuple(vec[offsets[v]:offsets[v] + size]))
        sections.append(tuple(parts))
    return SectionSpace(basis=tuple(sections), dim=len(sections))


def normalization_h0(degrees) -> int:
    """h^0 on the full normalization: sum of max(d_v + 1, 0)."""
    return sum(max(d + 1, 0) for d in degrees)


# -- torus action --------------------------------------------------------

def torus_rescale(curve: GraphCurve, bundle: GluedLineBundle, scalars) -> GluedLineBundle:
    """Gluing vector after rescaling the section values on each component.

    Rescaling by lambda_v sends the scalar of an edge to
    ``c * lambda(side2) / lambda(side1)``; loops are unchanged.  Every
    h^0 is invariant under this action.
    """
    p = curve.prime
    if len(scalars) != curve.graph.num_vertices:
        raise ValueError("one scalar per vertex required")
    for lam in scalars:
        if lam % p == 0:
            raise ValueError("torus scalars must be nonzero")
    new = []
    for e, (u, v) in enumerate(curve.graph.edges):
        new.append(bundle.gluing[e] * scalars[v] % p * inverse(scalars[u], p) % p)
    return GluedLineBundle(bundle.degrees, tuple(new))


def tree_normalize(curve: GraphCurve, bundle: GluedLineBundle) -> GluedLineBundle:
    """The torus-equivalent bundle with scalar 1 on the spanning forest."""
    p = curve.prime
    forest = curve.graph.spanning_forest()
    scalars = [None] * curve.graph.num_vertices
    forest_adj: dict[int, list] = {}
    for e in forest:
        u, v = curve.graph.edges[e]
        forest_adj.setdefault(u, []).append((e, v))
        forest_adj.setdefault(v, []).append((e, u))
    for comp in curve.graph.connected_components():
        root = comp[0]
        scalars[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for e, y in forest_adj.get(x, ()):
                if scalars[y] is not None:
                    continue
                u, v = curve.graph.edges[e]
                c = bundle.gluing[e]
                # want c * lam_v / lam_u = 1
                if x == u:
                    scalars[y] = scalars[x] * inverse(c, p) % p
                else:
                    scalars[y] = scalars[x] * c % p
                stack.append(y)
    result = torus_rescale(curve, bundle, tuple(scalars))
    return GluedLineBundle(result.degrees, result.gluing, tree_normalized=True)


# -- blow-up --------------------------------------------------------------

def blow_up_curve(curve: GraphCurve, edge_subset, bundle: GluedLineBundle,
                  exceptional_gluing=None):
    """Curve and bundle on the blow-up at the given nodes.

    Each node is replaced by a rational component carrying the two new
    nodes at 0 and infinity, with degree 1 there; the original branch
    points stay where they were.  ``exceptional_gluing`` optionally maps
    each replaced edge to its pair of new scalars (default 1, 1) -- the
    resulting h^0 does not depend on the choice.
    """
    s = sorted(frozenset(edge_subset))
    _check_bundle(curve, bundle, skip=frozenset(s))
    graph, exceptional = curve.graph.blow_up(s)
    branch = dict(delete_edges(curve, s).branch)
    gluing = list(restrict_bundle(curve, bundle, s).gluing)
    next_e = len(gluing)
    exceptional_gluing = exceptional_gluing or {}
    for old_e in s:
        c1, c2 = exceptional_gluing.get(old_e, (1, 1))
        # (u, w): side 1 keeps the old side-1 branch, side 2 is 0 on w
        branch[(next_e, 1)] = curve.branch[(old_e, 1)]
        branch[(next_e, 2)] = (0, 1)
        gluing.append(c1)
        next_e += 1
        # (w, v): side 1 is infinity on w, side 2 keeps the old side-2 branch
        branch[(next_e, 1)] = INFINITY
        branch[(next_e, 2)] = curve.branch[(old_e, 2)]
        gluing.append(c2)
        next_e += 1
    blown = GraphCurve(graph, curve.prime, branch)
    degrees = tuple(bundle.degrees) + (1,) * len(s)
    return blown, GluedLineBundle(degrees, tuple(gluing)), exceptional


def h0_blowup(curve: GraphCurve, edge_subset, bundle: GluedLineBundle,
              exceptional_gluing=None) -> int:
    """h^0 on the blow-up at the given nodes; equals h^0 of the restricted
    bundle on the partial normalization for every gluing choice."""
    blown, blown_bundle, _ = blow_up_curve(curve, edge_subset, bundle,
                                           exceptional_gluing)
    return h0(blown, blown_bundle)


# -- Abel images -----------------------------------------------------------

def abel_image(curve: GraphCurve, points) -> GluedLineBundle:
    """Line bundle of the effective divisor given by smooth marked points.

    ``points`` is a list of ``(vertex, point)`` pairs avoiding the branch
    points.  On each component the unique form (up to scalar) vanishing
    exactly on its points is built, and the gluing scalars are read off
    as value ratios at the nodes, so the constructed section descends and
    h^0 of the result is at least 1.
    """
    p = curve.prime
    by_vertex: dict[int, list] = {v: [] for v in range(curve.graph.num_vertices)}
    for vertex, point in points:
        if vertex not in by_vertex:
            raise ValueError(f"vertex {vertex} is not on the curve")
        pt = canonical_point(point, p)
        if pt in curve.branch_points_of(vertex):
            raise ValueError(f"point {pt} collides with a branch point on {vertex}")
        by_vertex[vertex].append(pt)
    forms = {v: _divisor_form(pts, p) for v, pts in by_vertex.items()}
    gluing = []
    for e, (u, v) in enumerate(curve.graph.edges):
        s1 = evaluate_form(forms[u], curve.branch[(e, 1)], p)
        s2 = evaluate_form(forms[v], curve.branch[(e, 2)], p)
        gluing.append(s2 * inverse(s1, p) % p)
    degrees = tuple(len(by_vertex[v]) for v in range(curve.graph.num_vertices))
    return GluedLineBundle(degrees, tuple(gluing))


def _divisor_form(points, p: int):
    """Coefficients (in X-degree order) of the binary form with the given
    zero divisor: product of (X - a Z) and of Z for points at infinity."""
    degree = len(points)
    # start with the constant 1 in degree `degree` ... build in two steps:
    # multiply the affine linear factors, then shift for infinity factors.
    coeffs = [1]
    inf_count = 0
    for pt in points:
        if pt == INFINITY:
            inf_count += 1
            continue
        a = pt[0]
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % p          # X * c X^i
            nxt[i] = (nxt[i] - a * c) % p              # -aZ * c X^i
        coeffs = nxt
    # each Z factor raises the Z-degree: the X-coefficients stay but the
    # form lives in degree `degree`, so pad on the high end
    coeffs = coeffs + [0] * inf_count
    assert len(coeffs) == degree + 1
    return coeffs


# -- vanishing at nodes ----------------------------------------------------

@dataclass(frozen=True)
class ForcedVanishing:
    """Nodes where every global section vanishes.

    With no sections at all the universal quantifier is vacuous: the whole
    query set is returned and the flag is set.
    """

    nodes: tuple[int, ...]
    empty_section_space: bool


def forced_vanishing_nodes(curve: GraphCurve, bundle: GluedLineBundle,
                           node_subset) -> ForcedVanishing:
    """Nodes in the query set at which every section of the bundle vanishes.

    Evaluation on the side-1 branch decides; by the gluing relation the
    side-2 value vanishes simultaneously.
    """
    p = curve.prime
    space = section_space(curve, bundle)
    if space.dim == 0:
        return ForcedVanishing(tuple(sorted(node_subset)), True)
    out = []
    for e in sorted(node_subset):
        u = curve.graph.edges[e][0]
        q1 = curve.branch[(e, 1)]
        if all(evaluate_form(sec[u], q1, p) == 0 for sec in space.basis):
            out.append(e)
    return ForcedVanishing(tuple(out), False)


# -- effective-locus counting ------------------------------------------------

def free_gluing_edges(curve: GraphCurve) -> tuple[int, ...]:
    """Edges outside the spanning forest; their scalars parametrize the
    gluing torus once the forest is normalized to 1."""
    forest = frozenset(curve.graph.spanning_forest())
    return tuple(e for e in range(curve.graph.num_edges) if e not in forest)


@dataclass(frozen=True)
class WCountResult:
    prime: int
    r: int
    count: int
    total: int
    exponent_estimate: float | None
    mode: str
    seed: int | None = None


#: Cells per numpy chunk of a torus scan: matrix entries per stacked
#: elimination, or polynomial coefficients per batch of evaluations (64 KB
#: per int64 array), so a scan's working set stays small whatever its size.
CHUNK_CELLS = 1 << 13


def w_count(curve: GraphCurve, degrees, r: int = 0, mode: str = "exhaustive",
            sample_size: int | None = None, seed: int | None = None) -> WCountResult:
    """Count tree-normalized gluing vectors whose bundle has h^0 >= r + 1.

    Exhaustive mode covers the whole torus (F_p*)^k over the free edges and
    refuses loudly when its (p - 1)^k points exceed the rank-computation
    budget, whichever path then counts them; sample mode draws seeded
    uniform vectors instead.

    On a square system (``normalization_h0(degrees)`` equal to the number
    of nodes) the theta determinant f decides, when its 2^k determinants
    are fewer than the points; ``symbolic_theta_polynomial`` builds it and
    charges them to the budget, which in exhaustive mode they always fit.
    For r = 0 the bundles counted are its zeros:
    ``ThetaPolynomial.zero_count`` over the torus, or its values at the
    same seeded draws.  For r >= 1 the matrix has rank at most n - 2, so
    in the split f = x*g + h in the last free scalar x, g and h (up to
    sign the determinants with that node's row replaced by ``row1`` or by
    ``row2``, which keep the other n - 1 rows) both vanish at the other
    scalars y; only the points (y, x) over such y, or the draws there, are
    ranked (every point when f is identically zero).  Otherwise
    ``rank_scan`` ranks every point: for non-square degrees, and when the
    points are too few (p <= 3, or at most 2^k samples).  With no free
    edge the torus is one point, ranked once however many draws land on
    it.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    p = curve.prime
    k = len(free_gluing_edges(curve))
    rng = used_seed = None
    if mode == "exhaustive":
        total = (p - 1) ** k
        charge(total, EXHAUSTIVE_SCAN)
    elif mode == "sample":
        if sample_size is None or seed is None:
            raise ValueError("sample mode needs sample_size and seed")
        if sample_size < 1:
            raise ValueError(f"sample_size must be positive, got {sample_size}")
        rng = random.Random(seed)
        total = sample_size
        used_seed = seed
    else:
        raise ValueError(f"unknown w_count mode {mode!r}")
    if k == 0:
        count = total * rank_scan(curve, degrees, r, 1)
    elif 2 ** k >= total or normalization_h0(degrees) != curve.graph.num_edges:
        count = rank_scan(curve, degrees, r, total, rng)
    else:
        poly = symbolic_theta_polynomial(curve, degrees)
        if r == 0:
            count = poly.zero_count() if rng is None else poly._zeros_among(total, rng)
        else:
            count = _rank_points(curve, degrees, r, poly._double_zeros(total, rng))
    exponent = math.log(count) / math.log(p) if count > 0 else None
    return WCountResult(prime=p, r=r, count=count, total=total,
                        exponent_estimate=exponent, mode=mode, seed=used_seed)


def rank_scan(curve: GraphCurve, degrees, r: int, total: int, rng=None) -> int:
    """Points with h^0 >= r + 1 among the first ``total`` points of the
    torus (F_p*)^k in ``itertools.product`` order, or among ``total``
    seeded draws from ``rng``, by the rank of the gluing matrix at each.
    No budget is checked here.
    """
    k = len(free_gluing_edges(curve))
    points = _torus_points(curve.prime, k, total, max(1, CHUNK_CELLS // max(1, k)), rng)
    return _rank_points(curve, degrees, r, points)


def _rank_points(curve: GraphCurve, degrees, r: int, chunks) -> int:
    """Points with h^0 >= r + 1 among the rows of the arrays in ``chunks``,
    each row the free scalars of a tree-normalized gluing, by the rank of
    its gluing matrix: one stacked elimination per at most ``CHUNK_CELLS``
    matrix entries."""
    p = curve.prime
    dtype = stack_dtype(p)
    free = free_gluing_edges(curve)
    k = len(free)
    pairs, ncols = _edge_rows(curve, degrees)
    forest = sorted(curve.graph.spanning_forest())
    fixed = np.array([[(b - a) % p for a, b in zip(*pairs[e])] for e in forest],
                     dtype).reshape(len(forest), ncols)
    row1, row2 = (np.array([pairs[e][side] for e in free], dtype).reshape(k, ncols)
                  for side in (0, 1))
    step = max(1, CHUNK_CELLS // max(1, (len(forest) + k) * ncols))
    count = 0
    for chunk in chunks:
        for start in range(0, len(chunk), step):
            values = chunk[start:start + step]
            stack = np.concatenate([
                np.broadcast_to(fixed, (len(values),) + fixed.shape),
                (row2 - values[:, :, None] * row1) % p,
            ], axis=1)
            count += int(np.count_nonzero(ncols - batch_rank(stack, p) >= r + 1))
    return count


def _torus_points(p: int, k: int, total: int, step: int, rng=None):
    """The first ``total`` points of (F_p*)^k in ``itertools.product``
    order, or ``total`` draws of k values ``rng.randrange(1, p)``, as
    arrays of at most ``step`` rows."""
    for start in range(0, total, step):
        size = min(step, total - start)
        if rng is None:
            yield _torus_at(np.arange(start, start + size, dtype=np.int64), p, k)
        else:
            values = np.empty((size, k), stack_dtype(p))
            values.flat = [rng.randrange(1, p) for _ in range(size * k)]
            yield values


def _torus_at(index, p: int, k: int):
    """The points of (F_p*)^k numbered ``index`` (an int64 array) in
    ``itertools.product`` order, as a len(index) x k array."""
    values = np.empty((len(index), k), stack_dtype(p))
    for j in reversed(range(k)):
        index, digit = np.divmod(index, p - 1)
        values[:, j] = digit + 1
    return values


def _multilinear_values(coeffs, values, p: int):
    """Values mod p at each row of ``values`` (N x m) of the multilinear
    polynomials whose coefficients are the columns of ``coeffs`` (2^m x B,
    row index the exponent bits, first variable most significant), as an
    N x B array: Horner in one variable at a time, the last one first."""
    acc = coeffs[None]
    for j in reversed(range(values.shape[1])):
        acc = acc.reshape(len(acc), -1, 2, coeffs.shape[1])
        acc = (acc[:, :, 0] + values[:, j, None, None] * acc[:, :, 1]) % p
    return np.broadcast_to(acc[:, 0], (len(values), coeffs.shape[1]))


def _grid_values(coeffs, m: int, p: int):
    """Values mod p at every point of (F_p*)^m of the multilinear
    polynomials in the rows of ``coeffs`` (N x 2^m B, each row 2^m blocks
    of B coefficients, first variable most significant), as an
    N x (p - 1)^m x B array in ``itertools.product`` order: one variable
    at a time, its pair of coefficient blocks becomes p - 1 values."""
    acc = coeffs.reshape(len(coeffs), 1, -1)
    for _ in range(m):
        x = np.arange(1, p, dtype=coeffs.dtype)[:, None]
        acc = acc.reshape(len(acc), acc.shape[1], 2, -1)
        acc = (acc[:, :, None, 0] + x * acc[:, :, None, 1]) % p
        acc = acc.reshape(len(acc), -1, acc.shape[-1])
    return acc


@dataclass(frozen=True)
class ExponentFit:
    """Growth exponent of counts across primes.

    ``slope`` is the least-squares fit of log(count) = s * log(p), the
    model behind the single-prime estimate log_p(count).  Zero counts
    carry no logarithm and are excluded; all-zero data is flagged empty,
    and fewer than two positive counts yield no slope.
    """

    slope: float | None
    max_residual: float | None
    empty: bool


def fit_exponent(counts: dict[int, int]) -> ExponentFit:
    pts = [(math.log(p), math.log(n)) for p, n in sorted(counts.items()) if n > 0]
    if len(pts) < 2:
        return ExponentFit(None, None, not pts)
    slope = sum(x * y for x, y in pts) / sum(x * x for x, _ in pts)
    residual = max(abs(y - slope * x) for x, y in pts)
    return ExponentFit(slope, residual, False)


# -- one-node case analysis ---------------------------------------------------

@dataclass(frozen=True)
class NodeCaseReport:
    """Exact case analysis of the gluing fiber over one node.

    ``h0_base`` is h^0 on the curve with the node separated; the three
    twists drop one or both branch points.  The case tag determines the
    h^0 value of every gluing and the shape of the locus with
    h^0 >= r + 1; ``scan_histogram`` is that distribution of h^0 over the
    p - 1 scalars, as (h^0, count) pairs with zero counts dropped.
    """

    case: str
    r: int
    h0_base: int
    h0_minus_q1: int
    h0_minus_q2: int
    h0_minus_both: int
    generic_h0: int
    special_h0: int | None
    special_gluing: int | None
    locus: str            # "empty" | "point" | "all"
    scan_histogram: tuple


def classify_one_node(curve: GraphCurve, edge: int, bundle: GluedLineBundle,
                      r: int = 0) -> NodeCaseReport:
    """Classify the bundles over one node by branch-point drops.

    The bundle's scalar at ``edge`` is ignored; all other scalars are
    fixed.  Every count is read off one basis of the separated curve's
    sections, by phi1, their values at q1, and phi2, at q2: dropping q1
    keeps a - [phi1 != 0] of the a sections, q2 a - [phi2 != 0], and both
    a - rank(phi1; phi2).  Only linked branches have a special gluing:
    there phi1 and phi2 are nonzero with one kernel, so the gluing row
    ``row2 - c*row1`` kills every section exactly at c* = phi2(s)/phi1(s)
    for any s with phi1(s) != 0.  The exhaustive scalar scan is the
    checks' oracle.
    """
    p = curve.prime
    _check_bundle(curve, bundle, skip={edge})
    separated = delete_edges(curve, {edge})
    restricted = restrict_bundle(curve, bundle, {edge})
    u, v = curve.graph.edges[edge]
    q1 = curve.branch[(edge, 1)]
    q2 = curve.branch[(edge, 2)]
    sections = section_space(separated, restricted).basis
    a = len(sections)
    phi1 = [evaluate_form(sec[u], q1, p) for sec in sections]
    phi2 = [evaluate_form(sec[v], q2, p) for sec in sections]
    b1, b2, ab = a - any(phi1), a - any(phi2), a - rank([phi1, phi2], p)

    special_c = None
    if a == 0:
        case, generic, special = "no_sections", 0, None
    elif b1 != b2:
        case, generic, special = "single_branch_base_point", a - 1, None
    elif b1 == a:
        case, generic, special = "both_branches_base_points", a, None
    elif ab == a - 2:
        case, generic, special = "independent_branches", a - 1, None
    else:
        case, generic, special = "linked_branches", a - 1, a
        i = next(j for j, x in enumerate(phi1) if x)
        special_c = phi2[i] * inverse(phi1[i], p) % p

    if special is None:
        histogram = ((generic, p - 1),)
    else:  # generic = special - 1 sorts first; at p = 2 no scalar is generic
        histogram = tuple((h, n) for h, n in ((generic, p - 2), (special, 1)) if n)

    top = special if special is not None else generic
    if top >= r + 1 and generic >= r + 1:
        locus = "all"
    elif top >= r + 1:
        locus = "point"
    else:
        locus = "empty"
    return NodeCaseReport(
        case=case, r=r, h0_base=a, h0_minus_q1=b1, h0_minus_q2=b2,
        h0_minus_both=ab, generic_h0=generic, special_h0=special,
        special_gluing=special_c, locus=locus, scan_histogram=histogram,
    )


# -- hyperelliptic test --------------------------------------------------------

def node_quadric(curve: GraphCurve, edge: int):
    """Coefficients (Z^2, XZ, X^2) of the degree-2 form vanishing on the
    two branch points of a node of an irreducible rational curve."""
    p = curve.prime
    pt1 = curve.branch[(edge, 1)]
    pt2 = curve.branch[(edge, 2)]
    if pt1 == INFINITY and pt2 == INFINITY:
        raise ValueError("branch points of a node must be distinct")
    if pt1 == INFINITY or pt2 == INFINITY:
        a = pt2[0] if pt1 == INFINITY else pt1[0]
        return (-a % p, 1, 0)  # Z(X - aZ)
    a, b = pt1[0], pt2[0]
    return (a * b % p, -(a + b) % p, 1)  # (X - aZ)(X - bZ)


def hyperelliptic_rational(curve: GraphCurve) -> bool:
    """Whether all node divisors of an irreducible rational curve lie in a
    single pencil of degree-2 forms: rank of their coefficient matrix <= 2.

    Needs a single component and at least 3 nodes (arithmetic genus >= 3);
    the pairwise-distinct branch points rule out base points of the pencil.
    """
    if curve.graph.num_vertices != 1:
        raise ValueError("hyperelliptic test needs an irreducible curve")
    if curve.graph.arithmetic_genus() < 3:
        raise ValueError("hyperelliptic test needs arithmetic genus >= 3")
    rows = [list(node_quadric(curve, e)) for e in range(curve.graph.num_edges)]
    return rank(rows, curve.prime) <= 2


def rational_curve(prime: int, branch_pairs) -> GraphCurve:
    """Irreducible rational curve with one loop per branch pair.

    Pair entries may be integers (reduced mod p) or "inf"; collisions mod
    p raise, so a configuration written over the integers transfers to
    any prime large enough to keep the points distinct.
    """
    pairs = [
        (canonical_point(x, prime), canonical_point(y, prime))
        for x, y in branch_pairs
    ]
    graph = DualGraph((0,), tuple((0, 0) for _ in pairs))
    branch = {}
    for e, (pt1, pt2) in enumerate(pairs):
        branch[(e, 1)] = pt1
        branch[(e, 2)] = pt2
    return GraphCurve(graph, prime, branch)


@dataclass(frozen=True)
class ProbeResult:
    genus: int
    r: int
    counts: dict
    fit: ExponentFit


def w1_dimension_probe(branch_pairs, primes, r: int = 1) -> ProbeResult:
    """Exhaustive counts of gluings with h^0 >= r + 1 in degree g - 1 on the
    irreducible rational curve with the given branch pairs, across primes,
    with the growth exponent fitted from the nonzero counts."""
    g = len(branch_pairs)
    if g < 3:
        raise ValueError("dimension probe needs arithmetic genus >= 3")
    counts = {}
    for p in primes:
        curve = rational_curve(p, branch_pairs)
        result = w_count(curve, (g - 1,), r=r)
        counts[p] = result.count
    return ProbeResult(genus=g, r=r, counts=counts, fit=fit_exponent(counts))


# -- theta determinant -----------------------------------------------------------

@dataclass(frozen=True)
class ThetaPolynomial:
    """Determinant of the square gluing system as an exact polynomial over
    F_p in the free gluing scalars (forest scalars fixed to 1)."""

    prime: int
    free_edges: tuple[int, ...]
    terms: tuple         # ((exponent tuple, coefficient), ...) sorted

    @property
    def variables(self) -> tuple[str, ...]:
        """Names of the free scalars, ``c<edge>``."""
        return tuple(f"c{e}" for e in self.free_edges)

    @property
    def is_identically_zero(self) -> bool:
        return not self.terms

    def zero_count(self) -> int:
        """Zeros on the torus (F_p*)^k, from (p - 1)^(k - 1) evaluations.

        f is multilinear, so f = x*g + h in its last scalar x, with g and h
        free of x.  At a point y of the other scalars, g(y) != 0 leaves the
        one root x = -h(y)/g(y), on the torus exactly when h(y) != 0, and
        g(y) = 0 leaves p - 1 roots when h(y) = 0 and none otherwise.  As
        in ``w_count``, the budget caps (p - 1)^k, the points of the torus.
        """
        p = self.prime
        k = len(self.free_edges)
        charge((p - 1) ** k, EXHAUSTIVE_SCAN)
        if k == 0:
            return int(self.is_identically_zero)
        count = 0
        for _, g, h in self._split_torus():
            count += int(np.count_nonzero((g != 0) & (h != 0)))
            count += (p - 1) * int(np.count_nonzero((g == 0) & (h == 0)))
        return count

    def _split_torus(self):
        """``(first, g, h)`` over the points y of (F_p*)^(k - 1), k >= 1, in
        ``itertools.product`` order: g and h of the split f = x*g + h at the
        points numbered first, first + 1, ... in that order, as flat
        arrays.  They are evaluated with numpy in chunks of about
        ``CHUNK_CELLS`` cells: the last scalars over their whole grid at
        once, one variable at a time, the others point by point."""
        p = self.prime
        k = len(self.free_edges)
        inner = 0
        while inner < k - 1 and 2 * (p - 1) ** (inner + 1) <= CHUNK_CELLS:
            inner += 1
        outer = k - 1 - inner
        coeffs = self._coefficients().reshape(2 ** outer, -1)  # h and g interleaved
        step = max(1, CHUNK_CELLS // max(2 ** k, 2 * (p - 1) ** inner))
        first = 0
        for values in _torus_points(p, outer, (p - 1) ** outer, step):
            hg = _grid_values(_multilinear_values(coeffs, values, p), inner, p).reshape(-1, 2)
            yield first, hg[:, 1], hg[:, 0]
            first += len(hg)

    def _split_draws(self, total: int, rng):
        """``(points, g, h)`` over ``total`` points drawn as ``w_count``'s
        sample mode draws them, k >= 1 values ``rng.randrange(1, p)`` per
        point: g and h of the split f = x*g + h at each point's scalars
        before the last."""
        p = self.prime
        k = len(self.free_edges)
        coeffs = self._coefficients().reshape(-1, 2)  # columns h and g
        for values in _torus_points(p, k, total, max(1, CHUNK_CELLS >> k), rng):
            hg = _multilinear_values(coeffs, values[:, :-1], p)
            yield values, hg[:, 1], hg[:, 0]

    def _zeros_among(self, total: int, rng) -> int:
        """Zeros among ``total`` points drawn as ``w_count``'s sample mode
        draws them."""
        return sum(int(np.count_nonzero((values[:, -1] * g + h) % self.prime == 0))
                   for values, g, h in self._split_draws(total, rng))

    def _double_zeros(self, total: int, rng=None):
        """Arrays of the torus points (y, x) with g(y) = h(y) = 0, where f
        vanishes for every x: all of them, in arrays of at most
        ``CHUNK_CELLS`` cells, or those among ``total`` draws from ``rng``
        as ``_split_draws`` draws them."""
        if rng is not None:
            for values, g, h in self._split_draws(total, rng):
                yield values[(g == 0) & (h == 0)]
            return
        p = self.prime
        k = len(self.free_edges)
        step = max(1, CHUNK_CELLS // k)
        for first, g, h in self._split_torus():
            ys = first + np.flatnonzero((g == 0) & (h == 0))
            size = (p - 1) * len(ys)
            # the point (y, x) is numbered (p - 1) * (number of y) + x - 1
            for start in range(0, size, step):
                j = np.arange(start, min(start + step, size))
                yield _torus_at(ys[j // (p - 1)] * (p - 1) + j % (p - 1), p, k)

    def _coefficients(self):
        """All 2^k coefficients, indexed by the exponent bits with the first
        variable most significant (``itertools.product`` order)."""
        k = len(self.free_edges)
        coeffs = np.zeros(2 ** k, stack_dtype(self.prime))
        for expo, c in self.terms:
            coeffs[sum(b << (k - 1 - i) for i, b in enumerate(expo))] = c % self.prime
        return coeffs

    def factor_count(self):
        """Number of irreducible factors over F_p, or None for the zero
        polynomial; a nonzero constant is a unit and has 0.

        The factors of a multilinear polynomial split its variables into
        disjoint blocks, so the count holds over the algebraic closure too.
        x_i and x_j share a block exactly when ``f00 * f11 != f10 * f01``,
        ``f_ab`` being the coefficient of ``x_i^a x_j^b`` (Shpilka and
        Volkovich, ICALP 2010); sharing is an equivalence, so one variable
        stands for each block."""
        if self.is_identically_zero:
            return None
        monomials = {sum(b << i for i, b in enumerate(e)): c
                     for e, c in self.terms if c % self.prime}
        heads = []
        for i in range(len(self.free_edges)):
            if any(m >> i & 1 for m in monomials) and not any(
                    _share_factor(monomials, h, i, self.prime) for h in heads):
                heads.append(i)
        return len(heads)


def _share_factor(monomials, i, j, p) -> bool:
    """Whether ``f00 * f11 - f10 * f01 != 0`` for the multilinear polynomial
    ``{bitmask: coefficient}``, split by the degrees in x_i and x_j.

    A product's leading term, in the lex order that compares bitmasks as
    integers, is the product of its factors' leading terms, so the two
    products differ when those differ; only when they agree, as on every
    pair from two blocks, are both products built in full."""
    parts = {(a, b): {} for a in (0, 1) for b in (0, 1)}
    for m, c in monomials.items():
        parts[m >> i & 1, m >> j & 1][m & ~(1 << i | 1 << j)] = c
    products = ((parts[0, 0], parts[1, 1], 1), (parts[1, 0], parts[0, 1], -1))
    # a product monomial is keyed by its variables of degree >= 1 and of degree 2
    leads = []
    for f, g, _ in products:
        a, b = max(f, default=None), max(g, default=None)
        leads.append(None if a is None or b is None else (a | b, a & b, f[a] * g[b] % p))
    if leads[0] != leads[1]:
        return True
    diff = {}
    for f, g, sign in products:
        for (a, x), (b, y) in itertools.product(f.items(), g.items()):
            diff[a | b, a & b] = diff.get((a | b, a & b), 0) + sign * x * y
    return any(v % p for v in diff.values())


def symbolic_theta_polynomial(curve: GraphCurve, degrees) -> ThetaPolynomial:
    """Exact determinant of the gluing matrix in the free scalars.

    Requires the square case: h^0 of the normalization equal to the number
    of nodes.  The coefficient of the monomial over a set S of free edges
    is ``(-1)^|S| det(M_S)``, where M_S takes ``row1`` on S, ``row2`` on the
    other free edges and ``row2 - row1`` on the forest: 2^k determinants,
    counted against the rank budget.  The polynomial is identically zero
    exactly when every gluing admits a section.
    """
    l = normalization_h0(degrees)
    if l != curve.graph.num_edges:
        raise ValueError(
            f"square case needed: normalization h^0 {l} != {curve.graph.num_edges} nodes"
        )
    p = curve.prime
    free = free_gluing_edges(curve)
    charge(2 ** len(free), "theta determinant needs {} determinants")
    pairs, _ = _edge_rows(curve, degrees)
    forest_rows = [[(b - a) % p for a, b in zip(row1, row2)] for row1, row2 in pairs]
    terms = []
    for expo in itertools.product((0, 1), repeat=len(free)):
        rows = list(forest_rows)
        for e, bit in zip(free, expo):
            rows[e] = pairs[e][1 - bit]
        coeff = (-1) ** sum(expo) * determinant(rows, p) % p
        if coeff:
            terms.append((expo, coeff))
    return ThetaPolynomial(prime=p, free_edges=free, terms=tuple(terms))
