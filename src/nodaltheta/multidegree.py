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

The predicates, ``destabilizing_nodes`` and ``stabilize`` use the
orientation form and have no size cap: ``_orient`` finds one realizing
orientation by path reversal (Hakimi 1965), and the edges between its
strong components (``dual_graph.cross_edges``, one Tarjan pass) are the
destabilizing nodes, the cut edges of the equality subcurves
``d_Z = p_a(Z) - 1``.  No edge enters an equality subcurve in *any*
realizing orientation, so those edges, and the way each points, do not
depend on which orientation was found.  A stable orientation, when one
exists, is the depth-first orientation ``dual_graph.dfs_ends``, whose
cross edges are the bridges.

The enumeration uses the subcurve form, in orientation coordinates.
Shifting by ``genus(v) + loops(v) - 1`` leaves ``b_v``, the non-loop
ending half-edges, and the inequalities become ``|E(Z)| <= b_Z <= #edges
touching Z`` over the loopless core (non-loop edges only), with total
``b_V = #non-loop edges``; stability adds 1 to the lower and takes 1
from the upper bound on every subcurve with a cut edge, the proper
subcurves of each component, so one search also covers disconnected
graphs.  The search fixes ``b_v`` in vertex order, each connected
subcurve bounding the vertex that is its highest; for semistability
these are the bounds of the projection of a base polyhedron onto the
assigned prefix, so the search never backs out of a dead end, and its
output is lexicographic as generated.  Nothing in it depends on the
decoration: it runs once per core and strictness, its output kept with
the bound table in the ``dual_graph.connected_subsets`` cache entry of
the core's vertex count and edge tuple (so the subset cap holds).  A
decoration whose shift is the stored one gets the stored tuples
themselves; any other shifts them in one pass over the flattened
vectors.  The agreement of enumeration and predicates, and of both with
exhaustive orientation enumeration on small graph families, is one of
the package's main self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle
from operator import add, sub

from .dual_graph import DualGraph, connected_subsets, cross_edges, dfs_ends

Multidegree = tuple  # tuple[int, ...], one entry per vertex


def _check_degree(graph: DualGraph, d) -> None:
    if len(d) != graph.num_vertices:
        raise ValueError(
            f"multidegree length {len(d)} does not match {graph.num_vertices} vertices"
        )


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


# -- orientation core ---------------------------------------------------

def _orient(graph: DualGraph, d):
    """Ending vertex of each edge in an orientation realizing ``d``, or
    ``None`` when no orientation does.

    Every edge starts out ending at its second vertex; then, while some
    vertex ``s`` has fewer ending half-edges than ``d`` asks for, a
    breadth-first path along the current directions from ``s`` to a
    vertex with too many is reversed.  If none is reachable, the set
    reached from ``s`` has every cut edge pointing into it and still
    falls short, so it violates its upper subcurve bound.
    """
    _check_degree(graph, d)
    need = [x - g + 1 for x, g in zip(d, graph.genera)]
    ends = []
    for _u, v in graph.edges:
        ends.append(v)
        need[v] -= 1
    if sum(need):
        return None  # total degree is not g - 1
    adj = graph.adjacency()
    for s in range(graph.num_vertices):
        while need[s] > 0:
            came = {s: None}  # vertex -> edge it was reached by
            queue = [s]
            for v in queue:
                if need[v] < 0:
                    break
                for e, w in adj[v]:
                    if ends[e] == w and w not in came:
                        came[w] = e
                        queue.append(w)
            else:
                return None
            need[s] -= 1
            need[v] += 1
            while v != s:
                e = came[v]
                a, b = graph.edges[e]
                ends[e] = a + b - v
                v = ends[e]
    return ends


def is_semistable(graph: DualGraph, d) -> bool:
    """Whether ``d_Z >= p_a(Z) - 1`` for every nonempty connected subcurve,
    decided as: some orientation realizes ``d``.

    Requires total degree ``g - 1``; anything else is immediately not
    semistable.
    """
    return _orient(graph, d) is not None


def is_stable(graph: DualGraph, d) -> bool:
    """Strict subcurve inequality on proper connected subcurves, decided
    as: a realizing orientation has no edge between strong components.

    On a disconnected graph the multidegree is stable when its restriction
    to every connected component is stable there (with the component's own
    genus), which also forces the per-component totals.
    """
    ends = _orient(graph, d)
    return ends is not None and not cross_edges(graph, ends)


# -- enumeration, in the subcurve form ---------------------------------

def enumerate_semistable(graph: DualGraph) -> list[Multidegree]:
    """All semistable multidegrees, in lexicographic order."""
    return _enumerate(graph, strict=False)


def enumerate_stable(graph: DualGraph) -> list[Multidegree]:
    """All stable multidegrees, in lexicographic order.

    On a disconnected graph these are the degrees whose restriction to
    every component is stable there; one search fixes each component's
    total, because a whole component has no cut edge and its bounds meet.
    """
    return _enumerate(graph, strict=True)


def _enumerate(graph: DualGraph, strict: bool) -> list[Multidegree]:
    """The search output of the loopless genus-0 core (the non-loop edges on
    the same vertices), moved by this decoration's shift.

    Connected subcurves, their edge counts and so the search's output
    depend only on the core; ``connected_subsets`` keeps all of them in
    its cache entry, keyed on the vertex count and the core's edge tuple
    (no core graph is built: this one was validated already), so the
    search runs once per core and strictness.  The stored shift gets the
    stored tuples, any other new ones moved by a constant (so the order
    holds); either way the list is fresh."""
    n = graph.num_vertices
    shift = [g - 1 for g in graph.genera]
    edges = []
    for e in graph.edges:
        u, v = e
        if u == v:
            shift[u] += 1
        else:
            edges.append(e)
    if n == 1:
        return [(shift[0],)]
    bounds, found = connected_subsets(n, tuple(edges))  # per highest vertex: (rest of Z, lo, hi)
    if strict not in found:
        found[strict] = shift, _search(bounds, strict, shift, len(edges))
    base, degrees = found[strict]
    if shift == base:
        return list(degrees)
    return list(zip(*[map(add, cycle(map(sub, shift, base)), chain.from_iterable(degrees))] * n))


def _search(bounds, strict: bool, shift: list[int], total_b: int) -> list[Multidegree]:
    """Depth-first search over ``b_v = d_v - genus(v) - loops(v) + 1`` in
    vertex order, iterative, on the bounds ``inner <= b_Z <= touching`` of the
    core's cached table; ``strict`` (stability) builds new rows 1 tighter on
    every subcurve with a cut edge, so a whole component keeps ``b_Z = |E(Z)|``.

    The last vertex takes what is left of the total, unchecked: a
    connected subcurve ``Z`` through it bounds it exactly when the
    complement ``W`` has ``|E(W)| <= b_W <= #edges touching W`` (1 tighter
    on each side for stability, where the cut is nonempty), and the
    bounds already applied to the components of ``W`` imply that.
    """
    n = len(shift)
    if strict:
        bounds = [[(rest, inner + (cut := touching > inner), touching - cut)
                   for rest, inner, touching in row] for row in bounds[:-1]]
    b = [0] * n
    ceiling = [0] * n  # the highest b_v allowed by the vertices below v
    out: list[Multidegree] = []
    v, left = 0, total_b  # the vertex to bound next, and what b_v.. must sum to
    while v >= 0:
        lo, hi = 0, left
        for rest, lo_z, hi_z in bounds[v]:
            for u in rest:
                lo_z -= b[u]
                hi_z -= b[u]
            if lo_z > lo:
                lo = lo_z
            if hi_z < hi:
                hi = hi_z
        if v < n - 2 and lo <= hi:
            b[v], ceiling[v] = lo, hi
            left -= lo
            v += 1
            continue
        if v == n - 2:
            for x in range(lo, hi + 1):
                b[v], b[n - 1] = x, left - x
                out.append(tuple(map(add, shift, b)))
        # back up to the deepest vertex below v that can still go up by one
        v -= 1
        while v >= 0 and b[v] == ceiling[v]:
            left += b[v]
            v -= 1
        if v >= 0:
            b[v] += 1
            left -= 1
            v += 1
    return out


# -- orientation form ---------------------------------------------------

def orientation_ends(graph: DualGraph, orientation) -> list[int]:
    """Ending vertex of each edge under the orientation."""
    if len(orientation) != graph.num_edges:
        raise ValueError("orientation length does not match edge count")
    return [v if o == 0 else u for (u, v), o in zip(graph.edges, orientation)]


def _orientation(graph: DualGraph, ends) -> tuple[int, ...]:
    """The orientation whose ending vertices are ``ends`` (0 when an edge
    ends at its second vertex, as every loop does)."""
    return tuple(0 if end == v else 1 for (_u, v), end in zip(graph.edges, ends))


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
    return not cross_edges(graph, orientation_ends(graph, orientation))


def find_stable_orientation(graph: DualGraph):
    """A stable orientation, or ``None`` exactly when the graph has a bridge.

    The depth-first orientation ``dfs_ends``, whose cross edges are the
    bridges; without them it is strongly connected on every component.
    """
    ends = dfs_ends(graph)
    return None if cross_edges(graph, ends) else _orientation(graph, ends)


# -- destabilizing nodes and stabilization ------------------------------

def destabilizing_nodes(graph: DualGraph, d) -> tuple[int, ...]:
    """Non-loop edges in the cut of some connected subcurve with
    ``d_Z = p_a(Z) - 1``; empty exactly when ``d`` is stable.

    These are the edges between distinct strong components of any
    realizing orientation.
    """
    return stabilize(graph, d).destabilizing_set


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of sliding a semistable multidegree to a stable one.

    ``stable_degree`` lives on ``graph.delete_edges(destabilizing_set)``
    (same vertex set); ``ending_halves`` records, per removed edge, the
    half-edge where one unit of degree was subtracted.  ``degree_unique``
    reports whether every admissible witness orientation produces the same
    stable degree (always, because every realizing orientation agrees on
    the directions of the removed edges).
    """

    destabilizing_set: tuple[int, ...]
    stable_degree: tuple[int, ...]
    witness_orientation: tuple[int, ...]
    ending_halves: dict
    degree_unique: bool


def stabilize(graph: DualGraph, d) -> StabilizationResult:
    """Compute the destabilizing node set and the induced stable multidegree.

    A witness orientation realizes ``d``; one unit is subtracted at the
    ending half-edge of each edge between its strong components.  Those
    edges are the cut edges of the equality subcurves, and every
    realizing orientation points them out of their subcurve, so the
    result does not depend on the witness.
    """
    ends = _orient(graph, d)
    if ends is None:
        raise ValueError("multidegree is not semistable")
    destab = cross_edges(graph, ends)
    witness = _orientation(graph, ends)
    stable = list(d)
    for e in destab:
        stable[ends[e]] -= 1
    return StabilizationResult(
        destabilizing_set=destab,
        stable_degree=tuple(stable),
        witness_orientation=witness,
        ending_halves={e: (e, 2 if witness[e] == 0 else 1) for e in destab},
        degree_unique=True,
    )

