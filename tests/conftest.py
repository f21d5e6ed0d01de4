"""Shared brute-force oracles and small builders for the test suite.

The oracles here deliberately avoid the library's algorithms: stability
of degrees and of orientations and the destabilizing nodes by scanning
every subset (not only connected ones), determinants and matrix rank by
minor expansion, the irreducible factors of a multilinear polynomial by
scanning its variable bipartitions, its torus zeros by evaluating it at
every point, theta stratum dimensions by normalizing once per stratum,
primality by trial division, the multigraph families by a canonical form
over every relabeling.  The component-count, bridge, one-node
and per-point torus oracles, the random and cycle curve builders and
the random square degrees live in ``nodaltheta.selfcheck``, whose
invariant registry uses them too; they are re-exported here.
Expected values frozen in the tests were computed with these.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from nodaltheta.dual_graph import DualGraph
from nodaltheta.graph_curve import INFINITY, GraphCurve
from nodaltheta.selfcheck import (  # noqa: F401
    brute_bridges,
    brute_component_count,
    brute_node_scan,
    brute_torus_count,
    cycle_curve,
    random_rational_curve,
    square_degrees,
)


def brute_is_semistable(graph: DualGraph, d) -> bool:
    """Subcurve scan over ALL nonempty subsets, connected or not."""
    if sum(d) != graph.arithmetic_genus() - 1:
        return False
    n = graph.num_vertices
    for bits in range(1, 1 << n):
        sub = [v for v in range(n) if bits >> v & 1]
        if sum(d[v] for v in sub) < graph.arithmetic_genus(sub) - 1:
            return False
    return True


def brute_is_stable(graph: DualGraph, d) -> bool:
    """Strict scan over all proper nonempty subsets of each component,
    with per-component totals; matches the disconnected convention."""
    comps = [frozenset(c) for c in graph.connected_components()]
    for comp in comps:
        if sum(d[v] for v in comp) != graph.arithmetic_genus(comp) - 1:
            return False
    n = graph.num_vertices
    for bits in range(1, 1 << n):
        sub = frozenset(v for v in range(n) if bits >> v & 1)
        if any(sub < comp for comp in comps):
            if sum(d[v] for v in sub) < graph.arithmetic_genus(sub):
                return False
        elif len(comps) == 1 and len(sub) < n:
            if sum(d[v] for v in sub) < graph.arithmetic_genus(sub):
                return False
    return True


def brute_destabilizing_nodes(graph: DualGraph, d) -> dict:
    """The cut edges of every subset ``Z`` with ``d_Z = p_a(Z) - 1``, each
    mapped to its ending half-edge when it points out of ``Z`` (side 2
    when ``Z`` holds its first vertex).  Every subset is scanned; a
    disconnected equality subset splits into connected ones."""
    out = {}
    n = graph.num_vertices
    for bits in range(1, (1 << n) - 1):
        sub = frozenset(v for v in range(n) if bits >> v & 1)
        if sum(d[v] for v in sub) != graph.arithmetic_genus(sub) - 1:
            continue
        for e, (u, v) in enumerate(graph.edges):
            if (u in sub) != (v in sub):
                half = (e, 2 if u in sub else 1)
                assert out.setdefault(e, half) == half, "conflicting directions"
    return out


def brute_is_stable_orientation(graph: DualGraph, orientation) -> bool:
    """No proper nonempty subset of a component has its whole cut pointing
    out of it or into it.  Every subset is scanned, connected or not: a
    one-way cut of a disconnected subset is also one-way on each piece."""
    ends = [v if orientation[e] == 0 else u for e, (u, v) in enumerate(graph.edges)]
    n = graph.num_vertices
    for comp in graph.connected_components():
        comp_set = frozenset(comp)
        for bits in range(1, 1 << n):
            sub = frozenset(v for v in range(n) if bits >> v & 1)
            if not sub < comp_set:
                continue
            cut = [e for e, (u, v) in enumerate(graph.edges) if (u in sub) != (v in sub)]
            outgoing = sum(1 for e in cut if ends[e] not in sub)
            if cut and outgoing in (0, len(cut)):
                return False
    return True


def brute_box_scan(graph: DualGraph, predicate) -> list:
    """Every multidegree of total ``g - 1`` in the per-vertex box
    ``genus + loops - 1 <= d_v <= genus + loops - 1 + valency`` (loops
    counted twice, a superset of the semistable box) that passes
    ``predicate``, in lexicographic order."""
    g1 = graph.arithmetic_genus() - 1
    ranges = []
    for v in range(graph.num_vertices):
        loops = sum(1 for a, b in graph.edges if a == b == v)
        lo = graph.genera[v] + loops - 1
        ranges.append(range(lo, lo + graph.valency(v) + 1))
    return [d for d in itertools.product(*ranges) if sum(d) == g1 and predicate(graph, d)]


def per_stratum_theta_dim(graph: DualGraph, nodes) -> int:
    """Theta stratum dimension recomputed from scratch for one stratum:
    normalize at ``nodes``, then the sum of the component genera minus
    one, or -1 when every component has genus 0 (empty effective locus)."""
    normalized = graph.delete_edges(nodes)
    genera = [normalized.arithmetic_genus(c) for c in normalized.connected_components()]
    if all(g == 0 for g in genera):
        return -1
    return sum(genera) - 1


def brute_connected_multigraphs(max_vertices: int, max_edges: int):
    """Every connected multigraph up to isomorphism, as its first member in
    generation order: a canonical form (the least edge multiset over all
    vertex relabelings) is computed for every connected candidate and
    remembered in a set of the classes seen."""
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        seen = set()
        for n_edges in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, n_edges):
                graph = DualGraph((0,) * n, combo)
                if not graph.is_connected():
                    continue
                key = min(tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in combo))
                          for perm in itertools.permutations(range(n)))
                if key not in seen:
                    seen.add(key)
                    yield graph


def disjoint_union(*graphs: DualGraph) -> DualGraph:
    genera, edges, offset = (), (), 0
    for g in graphs:
        genera += g.genera
        edges += tuple((u + offset, v + offset) for u, v in g.edges)
        offset += g.num_vertices
    return DualGraph(genera, edges)


def brute_det(rows, p: int) -> int:
    """Determinant over F_p by expansion along the first row (tiny square
    matrices only); the 0 x 0 determinant is 1."""
    if not rows:
        return 1
    total = 0
    for j, x in enumerate(rows[0]):
        if x % p:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * brute_det(minor, p)
    return total % p


def brute_rank(rows, p: int) -> int:
    """Rank over F_p by scanning square minors (tiny matrices only)."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for idx_r in itertools.combinations(range(m), k):
            for idx_c in itertools.combinations(range(n), k):
                if brute_det([[rows[i][j] for j in idx_c] for i in idx_r], p):
                    return k
    return 0


def brute_is_prime(n: int) -> bool:
    """Primality by trial division (small n only)."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def brute_evaluate(poly, values) -> int:
    """A ``ThetaPolynomial`` at one point, term by term over F_p."""
    p = poly.prime
    acc = 0
    for expo, coeff in poly.terms:
        term = coeff
        for x, k in zip(values, expo):
            term = term * pow(x, k, p) % p
        acc = (acc + term) % p
    return acc


def brute_zero_count(poly) -> int:
    """Zeros of a ``ThetaPolynomial`` on the torus (F_p*)^k, by evaluating
    it at every point (small tori only)."""
    return sum(1 for values in itertools.product(range(1, poly.prime), repeat=len(poly.free_edges))
               if brute_evaluate(poly, values) == 0)


def brute_factor_count(terms, p: int):
    """Irreducible factors of a multilinear polynomial over F_p, by scanning
    every subset A of the variables that occur.  The factors have disjoint
    variables, and f splits along A | rest exactly when its coefficient
    matrix (rows: exponents on A, columns: exponents on the rest) has rank
    1, that is every 2 x 2 minor vanishes, so with m factors there are 2^m
    such subsets.  ``terms`` is a sequence of (0/1 exponent tuple,
    coefficient); None for the zero polynomial."""
    coeffs = {tuple(e): c % p for e, c in terms if c % p}
    if not coeffs:
        return None
    k = len(next(iter(coeffs)))
    used = [i for i in range(k) if any(e[i] for e in coeffs)]
    splits = 0
    for size in range(len(used) + 1):
        for part in itertools.combinations(used, size):
            rest = tuple(i for i in used if i not in part)

            def coeff(a, b):
                bits = dict(zip(part + rest, a + b))
                return coeffs.get(tuple(bits.get(i, 0) for i in range(k)), 0)

            matrix = [[coeff(a, b) for b in itertools.product((0, 1), repeat=len(rest))]
                      for a in itertools.product((0, 1), repeat=size)]
            splits += all((a * d - b * c) % p == 0
                          for r1, r2 in itertools.combinations(matrix, 2)
                          for (a, c), (b, d) in itertools.combinations(zip(r1, r2), 2))
    return splits.bit_length() - 1


# -- curve builders -----------------------------------------------------

def theta_curve(prime: int) -> GraphCurve:
    graph = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)))
    branch = {(0, 1): (0, 1), (0, 2): (0, 1),
              (1, 1): (1, 1), (1, 2): (1, 1),
              (2, 1): (2, 1), (2, 2): (2, 1)}
    return GraphCurve(graph, prime, branch)


def two_cycle_curve(prime: int) -> GraphCurve:
    graph = DualGraph((0, 0), ((0, 1), (0, 1)))
    branch = {(0, 1): (0, 1), (0, 2): (0, 1),
              (1, 1): INFINITY, (1, 2): INFINITY}
    return GraphCurve(graph, prime, branch)


def two_loops_two_nodes_curve(prime: int) -> GraphCurve:
    """Two loops on one line plus two nodes to a second line; with degrees
    (0, 2) every gluing admits a section, so its theta determinant is
    identically zero."""
    graph = DualGraph((0, 0), ((0, 0), (0, 0), (0, 1), (0, 1)))
    branch = {(0, 1): (0, 1), (0, 2): (1, 1),
              (1, 1): (2, 1), (1, 2): (3, 1),
              (2, 1): (4, 1), (2, 2): (0, 1),
              (3, 1): INFINITY, (3, 2): (1, 1)}
    return GraphCurve(graph, prime, branch)


@pytest.fixture
def rng():
    return random.Random(987654321)
