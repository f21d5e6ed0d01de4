"""Stratification of the compactified degree-(g-1) Picard variety and of
its theta divisor, by pairs (node subset, stable multidegree).

A stratum is indexed by a subset ``S`` of the nodes together with a stable
multidegree on the normalization at ``S``; its dimension is
``g - #S + (#components of the normalization) - 1``.  The theta divisor
shares the same index set; on each stratum it is the effective locus of
the normalization, a divisor there or empty, so its strata are the Picard
strata one dimension down.  Both come from one pass over the node subsets
that normalizes once per distinct kept-edge tuple, not once per subset.

Closure between strata is only ever reported as a *candidate* relation:
the implemented conditions are necessary, not known to be sufficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dual_graph import DualGraph, GraphTooLargeError, MAX_SUBSET_EDGES
from .multidegree import enumerate_stable


@dataclass(frozen=True)
class Stratum:
    nodes: tuple[int, ...]    # removed node subset S, sorted edge indices
    degree: tuple[int, ...]   # stable multidegree on the S-normalization
    dim: int
    kind: str                 # "picard" or "theta"


@dataclass(frozen=True)
class ThetaSummary:
    """Component bookkeeping for the theta divisor.

    ``pieces`` counts the connected components after normalizing at every
    separating node (bridges + 1 on a connected graph); ``stable_classes``
    counts the stable multidegrees of that normalization.  The product
    ``component_count`` is the classical count, valid when every piece has
    positive arithmetic genus; ``effective_component_count`` drops the
    genus-0 pieces, whose effective loci are empty.
    """

    pieces: int
    stable_classes: int
    component_count: int
    positive_genus_pieces: int
    effective_component_count: int


def _edge_subsets(graph: DualGraph):
    """Every node subset, in (size, lexicographic) order."""
    if graph.num_edges > MAX_SUBSET_EDGES:
        raise GraphTooLargeError(
            f"{graph.num_edges} edges exceed the edge-subset cap of {MAX_SUBSET_EDGES}"
        )
    n = graph.num_edges
    return (s for k in range(n + 1) for s in itertools.combinations(range(n), k))


def _stable_normalizations(graph: DualGraph):
    """Each node subset ``S`` whose normalization has a stable multidegree:
    ``(S, Picard stratum dimension, stable classes)``, normalized once per
    kept-edge tuple (loops too: a kept loop moves the shift) in a dict kept
    for this call only."""
    g, edges, indices = graph.arithmetic_genus(), graph.edges, range(graph.num_edges)
    seen = {}  # kept edges -> (component count - 1, stable classes)
    for s in _edge_subsets(graph):
        kept = tuple([edges[e] for e in indices if e not in s])
        if kept not in seen:
            normalized = DualGraph(graph.genera, kept)
            seen[kept] = len(normalized.connected_components()) - 1, enumerate_stable(normalized)
        extra, degrees = seen[kept]
        if degrees:
            yield s, g - len(s) + extra, degrees


def _at_bridges(graph: DualGraph):
    """The bridges, the normalization at them, its connected pieces and its
    stable classes.  No edge-subset cap applies."""
    bridges = graph.bridges()
    normalized = graph.delete_edges(bridges)
    return bridges, normalized, normalized.connected_components(), enumerate_stable(normalized)


def enumerate_picard_strata(graph: DualGraph) -> list[Stratum]:
    """One stratum per (node subset, stable multidegree on the normalization).

    Subsets whose normalization has no stable multidegree contribute
    nothing.  Output is sorted by (subset size, subset, degree).
    """
    return [Stratum(nodes=s, degree=d, dim=dim, kind="picard")
            for s, dim, degrees in _stable_normalizations(graph) for d in degrees]


def smooth_locus_strata(graph: DualGraph) -> list[Stratum]:
    """The strata indexed by exactly the separating nodes; these are the
    top-dimensional ones, of dimension g + c - 1 on a graph with c
    connected components, and there are ``stable_classes`` of them."""
    bridges, _, pieces, degrees = _at_bridges(graph)
    dim = graph.arithmetic_genus() - len(bridges) + len(pieces) - 1
    return [Stratum(nodes=bridges, degree=d, dim=dim, kind="picard") for d in degrees]


def _check_strata(graph: DualGraph, *strata: Stratum) -> None:
    n, m = graph.num_vertices, graph.num_edges
    for s in strata:
        if len(s.degree) != n or any(not 0 <= e < m for e in s.nodes):
            raise ValueError("stratum does not belong to this graph")


def closure_candidate(graph: DualGraph, s1: Stratum, s2: Stratum) -> bool:
    """Necessary conditions for ``s2`` to lie in the closure of ``s1``.

    Checks, for distinct strata: strict containment of node subsets,
    componentwise decrease of the degree, total drop equal to the number
    of added nodes, and a per-component branch-count bound: the degree on
    a component cannot drop by more than the number of branches the added
    nodes have on it.  The exact per-component equality reading of the
    branch count is ambiguous for nodes joining two components, so only
    this weaker, consistent form is enforced.
    """
    _check_strata(graph, s1, s2)
    return _closes(graph, s1, s2)


def _closes(graph: DualGraph, s1: Stratum, s2: Stratum) -> bool:
    """``closure_candidate`` on strata already checked against ``graph``."""
    n = graph.num_vertices
    if s1 == s2:
        return False
    set1, set2 = frozenset(s1.nodes), frozenset(s2.nodes)
    if not set1 < set2:
        return False
    added = set2 - set1
    drop = [a - b for a, b in zip(s1.degree, s2.degree)]
    if any(x < 0 for x in drop):
        return False
    if sum(drop) != len(added):
        return False
    branches = [0] * n
    for e in added:
        u, v = graph.edges[e]  # a loop puts both branches on u
        branches[u] += 1
        branches[v] += 1
    return all(drop[v] <= branches[v] for v in range(n))


def theta_strata(graph: DualGraph) -> tuple[list[Stratum], ThetaSummary]:
    """Theta strata (same index set as the Picard strata) plus the
    component-count summary.  On each stratum theta is the effective locus
    of the normalization, a divisor there or empty, so its dimension is the
    Picard stratum's minus one: the sum of the component genera minus one,
    which is -1 when every component has genus 0 (empty locus)."""
    strata = [Stratum(nodes=s, degree=d, dim=dim - 1, kind="theta")
              for s, dim, degrees in _stable_normalizations(graph) for d in degrees]
    _, normalized, pieces, degrees = _at_bridges(graph)
    positive = sum(1 for c in pieces if normalized.arithmetic_genus(c) >= 1)
    return strata, ThetaSummary(
        pieces=len(pieces),
        stable_classes=len(degrees),
        component_count=len(pieces) * len(degrees),
        positive_genus_pieces=positive,
        effective_component_count=positive * len(degrees),
    )


def is_picard_irreducible(graph: DualGraph) -> bool:
    """Whether the compactified Picard variety is irreducible.

    The ground truth from the stratification: irreducible exactly when the
    normalization at the bridges has a single stable multidegree.  The
    valency shortcut (see :func:`picard_valency_criterion`) agrees in one
    direction only; see its docstring for the counterexamples.
    """
    *_, degrees = _at_bridges(graph)
    return len(degrees) == 1


def picard_valency_criterion(graph: DualGraph) -> bool:
    """Valency-based shortcut: after stripping loops and bridges, every
    vertex has valency 0 or 2.

    This is sufficient for irreducibility of the compactified Picard
    variety but, despite the classical claim, not necessary: in a star of
    bananas (one central component meeting each of k >= 2 others in
    exactly 2 nodes) the central vertex has valency 2k yet there is
    exactly one stable multidegree, because each 2-node cut forces one
    unit of degree in both orientations.  Exhaustive enumeration over
    small graphs confirms the gap; the test suite records it.
    """
    stripped = graph.strip("loops_and_bridges")
    return all(
        stripped.valency(v) in (0, 2) for v in range(stripped.num_vertices)
    )


def is_theta_irreducible(graph: DualGraph) -> bool:
    """Whether the theta divisor is irreducible: the normalization at the
    separating nodes is one connected piece with a single stable class, so
    exactly one component of dimension g - 1 (``pieces == stable_classes
    == 1`` in :func:`theta_strata`).  Decided without building strata, so
    no edge-subset cap applies.  Being bridgeless and Picard irreducible is
    not enough: two disjoint bananas have two pieces."""
    _, _, pieces, degrees = _at_bridges(graph)
    return len(pieces) == 1 and len(degrees) == 1


def theta_valency_criterion(graph: DualGraph) -> bool:
    """Valency-based shortcut for theta irreducibility: the loop-stripped
    graph is a point or has every valency 2.  Sufficient but not
    necessary, for the same reason as :func:`picard_valency_criterion`."""
    stripped = graph.strip("loops_only")
    return stripped.num_vertices == 1 or all(
        stripped.valency(v) == 2 for v in range(stripped.num_vertices)
    )


def strata_irreducible_curve(graph: DualGraph, d: int) -> list[Stratum]:
    """Stratification of the compactified degree-``d`` Picard variety of an
    irreducible curve: one stratum per subset of the loops, with degree
    ``d - #S`` on the normalization and dimension ``g - #S``."""
    if graph.num_vertices != 1:
        raise ValueError("irreducible-curve stratification needs a single vertex")
    g = graph.arithmetic_genus()
    out = []
    for s in _edge_subsets(graph):
        out.append(
            Stratum(nodes=s, degree=(d - len(s),), dim=g - len(s), kind="picard")
        )
    return out


# -- emitters -----------------------------------------------------------

def strata_payload(strata, summary: ThetaSummary | None = None) -> dict:
    """The JSON view: one plain dict per stratum, and the theta summary
    when given, ready for a single ``json.dumps``."""
    payload = {"strata": [dict(vars(s)) for s in strata]}
    if summary is not None:
        payload["theta_summary"] = dict(vars(summary))
    return payload


def _label(s: Stratum) -> str:
    nodes = ",".join(str(e) for e in s.nodes)
    deg = ",".join(str(x) for x in s.degree)
    return f"S={{{nodes}}} d=({deg}) dim={s.dim}"


def strata_poset_dot(graph: DualGraph, strata) -> str:
    """GraphViz rendering of the candidate-closure poset; each stratum is
    checked once, and only strictly nested node subsets are tried."""
    _check_strata(graph, *strata)
    masks = [sum(1 << e for e in set(s.nodes)) for s in strata]
    above = {low: [j for j, high in enumerate(masks) if high != low and high & low == low]
             for low in set(masks)}
    lines = ["digraph strata {"]
    lines += [f'  n{i} [label="{_label(s)}"];' for i, s in enumerate(strata)]
    for i, (s, mask) in enumerate(zip(strata, masks)):
        lines += [f"  n{i} -> n{j};" for j in above[mask] if _closes(graph, s, strata[j])]
    lines.append("}")
    return "\n".join(lines) + "\n"
