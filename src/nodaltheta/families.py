"""Exhaustive families of small decorated multigraphs for verification.

The package's main correctness arguments are exhaustive agreements of two
independent implementations over every connected multigraph up to a size
bound, so enumerating those families lives in the library where both the
self-check command and the test suite can reach it.

Each isomorphism class is yielded once, at its least relabeling (orderly
generation: R. C. Read, "Every one a winner", Ann. Discrete Math. 2,
1978).  Candidates come in lexicographic order, so the least member of a
class is reached first, and one is kept exactly when no vertex
permutation sends it to a smaller candidate; no set of classes is kept.
"""

from __future__ import annotations

import itertools

from .dual_graph import DualGraph
from .multidegree import is_stable_orientation, multidegree_of_orientation


def connected_multigraphs(max_vertices: int, max_edges: int):
    """All connected multigraphs (loops allowed) up to isomorphism, with
    genus 0 on every vertex; decorations are layered on separately."""
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        index = {slot: k for k, slot in enumerate(slots)}
        # every non-identity permutation, as a map on slot indices
        relabelings = [
            [index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in slots]
            for perm in itertools.permutations(range(n))
        ][1:]
        for n_edges in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(range(len(slots)), n_edges):
                if any(tuple(sorted(m[k] for k in combo)) < combo for m in relabelings):
                    continue
                graph = DualGraph((0,) * n, tuple(slots[k] for k in combo))
                if graph.is_connected():
                    yield graph


def genus_decorations(graph: DualGraph, max_genus: int):
    """All genus assignments up to the bound (no isomorphism pruning)."""
    for genera in itertools.product(range(max_genus + 1), repeat=graph.num_vertices):
        yield DualGraph(genera, graph.edges)


def orientation_multidegree_sets(graph: DualGraph):
    """Multidegrees of all orientations, and of the stable ones.

    Exhaustive over the non-loop edges (loop direction affects nothing).
    For a decorated version of the same graph, translate each multidegree
    by the genera: the orientation form is d_v = genus_v - 1 + b_v.
    """
    nonloop = [e for e in range(graph.num_edges) if not graph.is_loop(e)]
    all_degrees = set()
    stable_degrees = set()
    for bits in itertools.product((0, 1), repeat=len(nonloop)):
        orientation = [0] * graph.num_edges
        for e, b in zip(nonloop, bits):
            orientation[e] = b
        orientation = tuple(orientation)
        d = multidegree_of_orientation(graph, orientation)
        all_degrees.add(d)
        if d not in stable_degrees and is_stable_orientation(graph, orientation):
            stable_degrees.add(d)
    return all_degrees, stable_degrees


def translate(degree, genera):
    return tuple(d + g for d, g in zip(degree, genera))
