"""Stability of multidegrees on nodal curves, in both standard forms.

A multidegree on a graph with vertices ``0..n-1`` is an integer tuple of
length ``n``; throughout, the total degree is ``g - 1`` with ``g`` the
arithmetic genus.  Two equivalent notions are used:

* the subcurve inequality ``d_Z >= p_a(Z) - 1`` over all connected
  subcurves ``Z`` (strict on proper subcurves for stability), and
* realizability by an orientation, ``d_v = genus(v) - 1 + b_v`` with
  ``b_v`` the number of ending half-edges at ``v`` (each loop contributes
  exactly one), stability requiring the oriented non-loop graph to be
  strongly connected on every component.

The predicates test the subcurve inequalities; the enumeration searches
in orientation coordinates.  Shifting by ``genus(v) + loops(v) - 1``
leaves ``b_v``, the non-loop ending half-edges, and the inequalities
become ``|E(Z)| <= b_Z <= #edges touching Z`` over the loopless core
(non-loop edges only), with total ``b_V = #non-loop edges`` (Hakimi
1965); stability adds 1 to the lower and takes 1 from the upper bound
on proper subcurves of a connected graph.  The search fixes ``b_v`` in
vertex order, each connected subcurve bounding the vertex that is its
highest; for semistability these are the bounds of the projection of a
base polyhedron onto the assigned prefix, so the search never backs out
of a dead end, and its output is lexicographic as generated.  The
agreement of both forms with exhaustive orientation enumeration on
small graph families is one of the package's main self-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dual_graph import (
    DualGraph,
    GraphTooLargeError,
    MAX_SUBSET_EDGES,
    connected_subsets,
)

Multidegree = tuple  # tuple[int, ...], one entry per vertex
Orientation = tuple  # tuple[int, ...], one entry per edge: 0 keeps side 1
#                      as the starting half-edge, 1 swaps the two sides


class InternalConsistencyError(RuntimeError):
    """Two implementations of the same notion disagreed; this is a bug."""


def _check_degree(graph: DualGraph, d) -> None:
    if len(d) != graph.num_vertices:
        raise ValueError(
            f"multidegree length {len(d)} does not match {graph.num_vertices} vertices"
        )


def total(d) -> int:
    return sum(d)


def degree_box(graph: DualGraph) -> list[tuple[int, int]]:
    """Per-vertex interval that contains every semistable multidegree.

    For the one-vertex subcurve at ``v`` the inequality pair reads
    ``p_a - 1 <= d_v <= p_a - 1 + (non-loop valency)`` where
    ``p_a = genus(v) + loops(v)``.
    """
    box = []
    for v in range(graph.num_vertices):
        lo = graph.genera[v] + graph.loops_at(v) - 1
        box.append((lo, lo + graph.nonloop_valency(v)))
    return box


def _core(graph: DualGraph) -> DualGraph:
    """The loopless genus-0 core: the non-loop edges on the same vertices.

    Connected subcurves depend only on the core, so the predicates and the
    enumeration look up ``connected_subsets`` on it, and decorated graphs
    that share a core share one cache entry.
    """
    return DualGraph((0,) * graph.num_vertices,
                     tuple((u, v) for u, v in graph.edges if u != v))


# -- subcurve-inequality form ------------------------------------------

def is_semistable(graph: DualGraph, d) -> bool:
    """Whether ``d_Z >= p_a(Z) - 1`` for every nonempty connected subcurve.

    Requires total degree ``g - 1``; anything else is immediately not
    semistable.  Exhausts connected vertex subsets, so the graph must be
    within the subset cap.
    """
    _check_degree(graph, d)
    if total(d) != graph.arithmetic_genus() - 1:
        return False
    for sub in connected_subsets(_core(graph)):
        if sum(d[v] for v in sub) < graph.arithmetic_genus(sub) - 1:
            return False
    return True


def is_stable(graph: DualGraph, d) -> bool:
    """Strict subcurve inequality on proper connected subcurves.

    On a disconnected graph the multidegree is stable when its restriction
    to every connected component is stable there (with the component's own
    genus), which also forces the per-component totals.
    """
    _check_degree(graph, d)
    components = graph.connected_components()
    if len(components) > 1:
        return all(_component_stable(graph, d, comp) for comp in components)
    if total(d) != graph.arithmetic_genus() - 1:
        return False
    n = graph.num_vertices
    for sub in connected_subsets(_core(graph)):
        if len(sub) == n:
            continue
        if sum(d[v] for v in sub) < graph.arithmetic_genus(sub):
            return False
    return True


def _component_stable(graph: DualGraph, d, comp) -> bool:
    comp_set = frozenset(comp)
    if sum(d[v] for v in comp) != graph.arithmetic_genus(comp) - 1:
        return False
    for sub in connected_subsets(_core(graph)):
        if sub < comp_set:
            if sum(d[v] for v in sub) < graph.arithmetic_genus(sub):
                return False
    return True


def enumerate_semistable(graph: DualGraph) -> list[Multidegree]:
    """All semistable multidegrees, in lexicographic order."""
    return _enumerate(graph, strict=False)


def enumerate_stable(graph: DualGraph) -> list[Multidegree]:
    """All stable multidegrees, in lexicographic order.

    On a disconnected graph this is the cartesian product of the
    per-component enumerations, merged back into full-length vectors.
    """
    components = graph.connected_components()
    if len(components) == 1:
        return _enumerate(graph, strict=True)
    per_comp = []
    for comp in components:
        sub = DualGraph(
            tuple(graph.genera[v] for v in comp),
            tuple(
                (comp.index(u), comp.index(v))
                for u, v in (graph.edges[e] for e in graph.induced_edges(comp))
            ),
        )
        per_comp.append((comp, _enumerate(sub, strict=True)))
    out = []
    for combo in itertools.product(*(degs for _, degs in per_comp)):
        full = [0] * graph.num_vertices
        for (comp, _), dsub in zip(per_comp, combo):
            for i, v in enumerate(comp):
                full[v] = dsub[i]
        out.append(tuple(full))
    return sorted(out)


def _enumerate(graph: DualGraph, strict: bool) -> list[Multidegree]:
    """Depth-first search over ``b_v = d_v - genus(v) - loops(v) + 1`` in
    vertex order; ``strict`` (stability) expects a connected graph.

    The last vertex takes what is left of the total, unchecked: a
    connected subcurve ``Z`` through it bounds it exactly when the
    complement ``W`` has ``|E(W)| <= b_W <= #edges touching W`` (1 tighter
    on each side for stability), and the bounds already applied to the
    components of ``W`` imply that.
    """
    n = graph.num_vertices
    shift = [g - 1 for g in graph.genera]
    for u, v in graph.edges:
        if u == v:
            shift[u] += 1
    core = _core(graph)
    total_b = core.num_edges
    if n == 1:
        return [(shift[0],)]
    edge_masks = [(1 << u) | (1 << v) for u, v in core.edges]
    bounds = [[] for _ in range(n - 1)]  # per highest vertex: (rest of Z, lo, hi)
    for sub in connected_subsets(core):
        top = max(sub)
        if top == n - 1:
            continue
        mask = 0
        for v in sub:
            mask |= 1 << v
        inner = touching = 0
        for em in edge_masks:
            hit = em & mask
            if hit:
                touching += 1
                inner += hit == em
        bounds[top].append((tuple(sub - {top}), inner + strict, touching - strict))
    b = [0] * n
    out: list[Multidegree] = []

    def extend(v: int, assigned: int) -> None:
        lo, hi = 0, total_b - assigned
        for rest, lo_z, hi_z in bounds[v]:
            for u in rest:
                lo_z -= b[u]
                hi_z -= b[u]
            if lo_z > lo:
                lo = lo_z
            if hi_z < hi:
                hi = hi_z
        for x in range(lo, hi + 1):
            b[v] = x
            if v < n - 2:
                extend(v + 1, assigned + x)
            else:
                b[n - 1] = total_b - assigned - x
                out.append(tuple(map(int.__add__, shift, b)))

    extend(0, 0)
    return out


# -- orientation form ---------------------------------------------------

def orientation_ends(graph: DualGraph, orientation) -> list[int]:
    """Ending vertex of each edge under the orientation."""
    if len(orientation) != graph.num_edges:
        raise ValueError("orientation length does not match edge count")
    ends = []
    for e, (u, v) in enumerate(graph.edges):
        ends.append(v if orientation[e] == 0 else u)
    return ends


def ending_half_edge(graph: DualGraph, orientation, e: int) -> tuple[int, int]:
    return (e, 2 if orientation[e] == 0 else 1)


def multidegree_of_orientation(graph: DualGraph, orientation) -> Multidegree:
    """``d_v = genus(v) - 1 + b_v`` with ``b_v`` counting ending half-edges.

    A loop contributes exactly 1 to its vertex whichever way it points;
    the total is always ``g - 1``.
    """
    b = [0] * graph.num_vertices
    for v in orientation_ends(graph, orientation):
        b[v] += 1
    return tuple(graph.genera[v] - 1 + b[v] for v in range(graph.num_vertices))


def is_stable_orientation(graph: DualGraph, orientation) -> bool:
    """No subcurve inside a component has its whole cut pointing one way.

    Equivalently, the oriented non-loop graph is strongly connected on
    each component, which is what is computed; single-vertex components
    pass vacuously.  The subset scan of the definition is the test
    suite's oracle for this.
    """
    ends = orientation_ends(graph, orientation)
    starts = [graph.edges[e][0] if orientation[e] == 0 else graph.edges[e][1]
              for e in range(graph.num_edges)]
    succ = [[] for _ in range(graph.num_vertices)]
    for e in range(graph.num_edges):
        if not graph.is_loop(e):
            succ[starts[e]].append(ends[e])
    for comp in graph.connected_components():
        if len(comp) == 1:
            continue
        if not _strongly_connected(succ, comp):
            return False
    return True


def _strongly_connected(succ, comp) -> bool:
    comp_set = set(comp)

    def reach(start, edges_of):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in edges_of(v):
                if w in comp_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    root = comp[0]
    if reach(root, lambda v: succ[v]) != comp_set:
        return False
    pred = {v: [] for v in comp}
    for v in comp:
        for w in succ[v]:
            if w in comp_set:
                pred[w].append(v)
    return reach(root, lambda v: pred[v]) == comp_set


def find_stable_orientation(graph: DualGraph):
    """A stable orientation, or ``None`` exactly when the graph has a bridge.

    Depth-first search orienting tree edges away from the root and every
    other edge toward the earlier-discovered endpoint; on a bridgeless
    component this is strongly connected.  The result is validated before
    being returned.
    """
    if graph.bridges():
        return None
    orientation = [0] * graph.num_edges
    disc = [-1] * graph.num_vertices
    adj = graph.adjacency()
    counter = itertools.count()
    oriented = [graph.is_loop(e) for e in range(graph.num_edges)]

    def orient(e, start):
        u, _ = graph.edges[e]
        orientation[e] = 0 if start == u else 1
        oriented[e] = True

    for root in range(graph.num_vertices):
        if disc[root] != -1:
            continue
        disc[root] = next(counter)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for e, w in it:
                if oriented[e]:
                    continue
                if disc[w] == -1:
                    orient(e, v)  # tree edge, away from the root
                    disc[w] = next(counter)
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                # back edge, toward the ancestor
                orient(e, v if disc[v] > disc[w] else w)
            if not advanced:
                stack.pop()
    result = tuple(orientation)
    if not is_stable_orientation(graph, result):
        raise InternalConsistencyError("DFS orientation of a bridgeless graph not stable")
    return result


# -- destabilizing nodes and stabilization ------------------------------

def destabilizing_nodes(graph: DualGraph, d) -> tuple[int, ...]:
    """Non-loop edges in the cut of some connected subcurve with
    ``d_Z = p_a(Z) - 1``; empty exactly when ``d`` is stable."""
    if not is_semistable(graph, d):
        raise ValueError("multidegree is not semistable")
    out = set()
    for sub in _equality_subcurves(graph, d):
        out.update(graph.cut_edges(sub))
    return tuple(sorted(out))


def _equality_subcurves(graph: DualGraph, d):
    n = graph.num_vertices
    for sub in connected_subsets(_core(graph)):
        if len(sub) == n:
            continue
        if sum(d[v] for v in sub) == graph.arithmetic_genus(sub) - 1:
            yield sub


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of sliding a semistable multidegree to a stable one.

    ``stable_degree`` lives on ``graph.delete_edges(destabilizing_set)``
    (same vertex set); ``ending_halves`` records, per removed edge, the
    half-edge where one unit of degree was subtracted.  ``degree_unique``
    reports whether every admissible witness orientation produces the same
    stable degree (always checkable here because the removed edges'
    directions are forced).
    """

    destabilizing_set: tuple[int, ...]
    stable_degree: tuple[int, ...]
    witness_orientation: tuple[int, ...]
    ending_halves: dict
    degree_unique: bool


def stabilize(graph: DualGraph, d) -> StabilizationResult:
    """Compute the destabilizing node set and the induced stable multidegree.

    A witness orientation realizes ``d`` while pointing every cut edge of
    every degree-equality subcurve out of that subcurve; one unit is then
    subtracted at the ending half-edge of each destabilizing node.  The
    equality constraints force the direction of every destabilizing edge,
    so the resulting multidegree does not depend on the witness.
    """
    if not is_semistable(graph, d):
        raise ValueError("multidegree is not semistable")
    forced: dict[int, int] = {}  # edge -> orientation value
    for sub in _equality_subcurves(graph, d):
        for e in graph.cut_edges(sub):
            u, _v = graph.edges[e]
            value = 0 if u in sub else 1  # start inside the subcurve
            if forced.get(e, value) != value:
                raise InternalConsistencyError(
                    f"conflicting forced directions at edge {e}; "
                    "no orientation satisfies all equality subcurves"
                )
            forced[e] = value
    destab = tuple(sorted(forced))

    witness = _realize_orientation(graph, d, forced)
    if witness is None:
        raise InternalConsistencyError(
            "no orientation realizes the multidegree with the forced directions"
        )

    ends = orientation_ends(graph, witness)
    stable = list(d)
    ending_halves = {}
    for e in destab:
        stable[ends[e]] -= 1
        ending_halves[e] = ending_half_edge(graph, witness, e)
    stable_degree = tuple(stable)

    normalized = graph.delete_edges(destab)
    if not is_stable(normalized, stable_degree):
        raise InternalConsistencyError("stabilized multidegree is not stable")
    if total(stable_degree) != total(d) - len(destab):
        raise InternalConsistencyError("stabilized total degree is off")
    return StabilizationResult(
        destabilizing_set=destab,
        stable_degree=stable_degree,
        witness_orientation=witness,
        ending_halves=ending_halves,
        degree_unique=True,
    )


def _realize_orientation(graph: DualGraph, d, forced):
    """First orientation (lexicographic in edge values) with in-degrees
    matching ``d`` and the given forced edge directions."""
    n = graph.num_vertices
    need = [d[v] - graph.genera[v] + 1 - graph.loops_at(v) for v in range(n)]
    if any(x < 0 for x in need):
        return None
    nonloop = [e for e in range(graph.num_edges) if not graph.is_loop(e)]
    if len(nonloop) > MAX_SUBSET_EDGES:
        raise GraphTooLargeError(
            f"{len(nonloop)} non-loop edges exceed the orientation search cap"
        )
    orientation = [0] * graph.num_edges
    remaining_at = [0] * n  # undecided non-loop half-edge capacity per vertex
    free = []
    for e in nonloop:
        if e in forced:
            orientation[e] = forced[e]
            u, v = graph.edges[e]
            end = v if forced[e] == 0 else u
            need[end] -= 1
            if need[end] < 0:
                return None
        else:
            free.append(e)
            u, v = graph.edges[e]
            remaining_at[u] += 1
            remaining_at[v] += 1

    def feasible():
        return all(0 <= need[v] <= remaining_at[v] for v in range(n))

    if not feasible():
        return None

    def rec(i):
        if i == len(free):
            return all(x == 0 for x in need)
        e = free[i]
        u, v = graph.edges[e]
        remaining_at[u] -= 1
        remaining_at[v] -= 1
        for value, end in ((0, v), (1, u)):
            if need[end] > 0:
                need[end] -= 1
                orientation[e] = value
                if feasible() and rec(i + 1):
                    return True
                need[end] += 1
        remaining_at[u] += 1
        remaining_at[v] += 1
        return False

    if not rec(0):
        return None
    return tuple(orientation)


# -- numerics -----------------------------------------------------------

def brill_noether_number(g: int, r: int, d: int) -> int:
    """Expected dimension ``g - (r + 1)(r - d + g)`` of a locus of line
    bundles of degree ``d`` with at least ``r + 1`` sections."""
    return g - (r + 1) * (r - d + g)
