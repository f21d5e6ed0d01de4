"""Genus-decorated dual multigraphs of nodal curves.

A nodal curve is encoded by its dual graph: one vertex per irreducible
component, decorated with the geometric genus of that component, and one
edge per node.  A node lying on a single component is a loop.  Everything
here is exact integer combinatorics; graphs are immutable values and all
operations are read-only.

The arithmetic genus of a (possibly disconnected) decorated graph is

    g = sum(genera) + #edges - #vertices + 1

and the same formula applied to an induced subgraph gives the arithmetic
genus of the corresponding subcurve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache


class GraphTooLargeError(ValueError):
    """An exhaustive enumeration would exceed the hard size cap."""


#: Hard cap on the connected vertex subsets of one graph (K14 has 2^14 - 1).
MAX_CONNECTED_SUBSETS = 1 << 14

#: Hard cap on edge count for operations that enumerate edge subsets.
MAX_SUBSET_EDGES = 20


@dataclass(frozen=True)
class DualGraph:
    """Immutable multigraph with nonnegative integer genus per vertex.

    ``genera[v]`` is the geometric genus of component ``v``; ``edges[e]``
    is an unordered pair ``(u, v)`` of vertex indices, ``u == v`` for a
    loop.  The stored order of the pair fixes the two half-edge sides:
    side 1 attaches to ``edges[e][0]``, side 2 to ``edges[e][1]``.
    """

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.genera) == 0:
            raise ValueError("empty subcurve: a graph needs at least one vertex")
        for v, g in enumerate(self.genera):
            if not isinstance(g, int) or g < 0:
                raise ValueError(f"vertex {v}: genus must be a nonnegative integer")
        n = len(self.genera)
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e}: endpoint out of range")

    # -- basic counts -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def valency(self, v: int) -> int:
        """Number of half-edges at ``v``; a loop has two."""
        return sum((a == v) + (b == v) for a, b in self.edges)

    def loops_at(self, v: int) -> int:
        return sum(1 for a, b in self.edges if a == v and b == v)

    def nonloop_valency(self, v: int) -> int:
        return sum(1 for a, b in self.edges if (a == v) != (b == v))

    # -- genus --------------------------------------------------------

    def arithmetic_genus(self, vertices=None) -> int:
        """Arithmetic genus of the graph or of an induced subgraph.

        The formula ``sum(genus) + #edges - #vertices + 1`` is used as is;
        it is valid whether or not the (sub)graph is connected.
        """
        if vertices is None:
            return sum(self.genera) + self.num_edges - self.num_vertices + 1
        sub = frozenset(vertices)
        if not sub:
            raise ValueError("empty subcurve")
        if not sub <= frozenset(range(self.num_vertices)):
            raise ValueError("subcurve contains invalid vertex indices")
        genus_sum = sum(self.genera[v] for v in sub)
        inner = sum(1 for u, v in self.edges if u in sub and v in sub)
        return genus_sum + inner - len(sub) + 1

    # -- connectivity -------------------------------------------------

    def adjacency(self):
        """Per-vertex list of ``(edge_index, other_endpoint)``, loops twice."""
        adj = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((e, v))
            adj[v].append((e, u))
        return adj

    def _union_find(self):
        """One union-find pass over the edges in index order: the root of
        each vertex, the lowest vertex of its component, and the edges that
        joined two components, the lowest-index spanning forest."""
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        forest = []
        for e, (u, v) in enumerate(self.edges):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                forest.append(e)
        return [find(v) for v in range(self.num_vertices)], tuple(forest)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the vertices, each component sorted, ordered by minimum."""
        groups: dict[int, list[int]] = {}
        for v, root in enumerate(self._union_find()[0]):
            groups.setdefault(root, []).append(v)
        return tuple(map(tuple, groups.values()))

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def spanning_forest(self) -> tuple[int, ...]:
        """Lowest-index maximal cycle-free edge set (greedy union-find)."""
        return self._union_find()[1]

    def bridges(self) -> tuple[int, ...]:
        """Edges whose removal increases the component count (separating nodes).

        The cross edges of the depth-first orientation ``dfs_ends``: a tree
        edge there is a bridge exactly when no back edge (a parallel copy
        of it included) leads from below it to above it, which is when its
        child cannot reach its parent.  Loops are never bridges.
        """
        return cross_edges(self, dfs_ends(self))

    # -- derived graphs -----------------------------------------------

    def delete_edges(self, edge_subset) -> "DualGraph":
        """Normalization at the nodes in ``edge_subset``: drop those edges.

        Vertices and genera are unchanged; the remaining edges keep their
        relative order (new index = rank among kept edges).
        """
        s = frozenset(edge_subset)
        for e in s:
            if not (0 <= e < self.num_edges):
                raise ValueError(f"invalid edge index {e}")
        kept = tuple(self.edges[e] for e in range(self.num_edges) if e not in s)
        return DualGraph(self.genera, kept)

    def blow_up(self, edge_subset) -> tuple["DualGraph", dict[int, int]]:
        """Replace each edge in the subset by a genus-0 vertex with two edges.

        For an edge ``(u, v)`` the new vertex ``w`` gets edges ``(u, w)`` and
        ``(w, v)``; side 1 of the first and side 2 of the second keep the
        original attachment.  A loop becomes two parallel edges to ``w``.
        Arithmetic genus and component count are preserved.

        Returns the new graph and a map ``old edge -> exceptional vertex``.
        """
        s = sorted(frozenset(edge_subset))
        for e in s:
            if not (0 <= e < self.num_edges):
                raise ValueError(f"invalid edge index {e}")
        genera = list(self.genera)
        new_edges = [self.edges[e] for e in range(self.num_edges) if e not in s]
        exceptional: dict[int, int] = {}
        for e in s:
            u, v = self.edges[e]
            w = len(genera)
            genera.append(0)
            exceptional[e] = w
            new_edges.append((u, w))
            new_edges.append((w, v))
        return DualGraph(tuple(genera), tuple(new_edges)), exceptional

    def strip(self, mode: str) -> "DualGraph":
        """Remove loops, and with mode ``loops_and_bridges`` also bridges."""
        if mode not in ("loops_and_bridges", "loops_only"):
            raise ValueError(f"unknown strip mode {mode!r}")
        drop = {e for e in range(self.num_edges) if self.is_loop(e)}
        if mode == "loops_and_bridges":
            drop.update(self.bridges())
        return self.delete_edges(drop)


# -- orientations and their strong components ---------------------------

def dfs_ends(graph: DualGraph) -> list[int]:
    """Ending vertex of each edge in one depth-first orientation.

    The search restarts at the lowest unvisited vertex of each component.
    Each edge points away from the vertex it is first seen from: a tree
    edge away from the root, any other edge toward its endpoint found
    first, an ancestor.  A loop ends at its own vertex.  On a bridgeless
    component this is strongly connected (Robbins 1939); in general its
    cross edges are the bridges.
    """
    ends = [u if u == v else -1 for u, v in graph.edges]
    seen = [False] * graph.num_vertices
    adj = graph.adjacency()
    for root in range(graph.num_vertices):
        if seen[root]:
            continue
        seen[root] = True
        stack = [iter(adj[root])]
        while stack:
            for e, w in stack[-1]:
                if ends[e] == -1:
                    ends[e] = w
                    if not seen[w]:  # a tree edge: go down it
                        seen[w] = True
                        stack.append(iter(adj[w]))
                        break
            else:
                stack.pop()
    return ends


def _strong_components(graph: DualGraph, ends) -> list[int]:
    """Strong-component label per vertex of the non-loop edges oriented
    toward ``ends`` (iterative Tarjan)."""
    n = graph.num_vertices
    succ = [[] for _ in range(n)]
    for (a, b), end in zip(graph.edges, ends):
        if a != b:
            succ[a + b - end].append(end)
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    stack: list[int] = []
    counter = components = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if label[w] == -1:  # w is still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
    return label


def cross_edges(graph: DualGraph, ends) -> tuple[int, ...]:
    """Edges joining two distinct strong components of the orientation
    whose ending vertices are ``ends``, in index order."""
    label = _strong_components(graph, ends)
    return tuple(e for e, (a, b) in enumerate(graph.edges) if label[a] != label[b])


# -- subcurve enumeration ---------------------------------------------

@lru_cache(maxsize=4096)
def connected_subsets(n: int, edges: tuple) -> tuple[tuple[tuple[tuple, ...], ...], dict]:
    """``(rows, found)``: connected subcurves of the graph on vertices
    ``0..n-1`` with edge tuple ``edges`` (pairs of valid vertex indices, as
    in ``DualGraph.edges``; genera play no part), with their edge counts, by
    highest vertex, and a slot for the degree vectors they bound.  The
    cache is keyed on exactly these two arguments.

    Row ``v`` of ``rows`` has an entry ``(rest, inner, touching)`` for each
    connected induced subgraph with highest vertex ``v``: its other
    vertices, and the edges inside it and meeting it (a loop at a member
    counts once in each).  By extension (ESU; Wernicke 2006), downward from
    the highest vertex: each vertex added brings in as candidates its
    neighbours below that root not next to the subset before it, so each
    subset comes once, in depth-first stack order, and the work follows
    the output; ``inner`` and the valency sum grow with it, and
    ``touching`` is their difference.  There is no sampling fallback: past
    ``MAX_CONNECTED_SUBSETS`` the graph is refused.  ``found`` starts
    empty; ``multidegree`` fills it, at most once per strictness, with
    ``found[strict] = (shift, degrees)``, the shift of the first decoration
    of this core that asked and that call's output list, so the search
    runs once per core and strictness and its result lives in this entry.
    """
    mult = Counter((min(e), max(e)) for e in edges)  # edges per vertex pair
    width = max(mult.values(), default=1)
    # weights[a]: in the width-bit field of each vertex b, one bit per edge joining a and b
    weights, nbr, valency = [0] * n, [0] * n, [0] * n
    for (u, v), m in mult.items():
        for a, b in (u, v), (v, u):
            weights[a] |= (1 << m) - 1 << b * width
            nbr[a] |= 1 << b
            valency[a] += m
    field = (1 << width) - 1
    table, count = [], 0
    for root in range(n):
        below, row, fields = (1 << root) - 1, [], field << root * width
        # (rest, member fields, candidates, members and neighbours, inner edges, valency sum)
        stack = [((), fields, nbr[root] & below, nbr[root] | 1 << root,
                  (fields & weights[root]).bit_count(), valency[root])]
        while stack:
            rest, fields, ext, near, inner, ends = stack.pop()
            if count == MAX_CONNECTED_SUBSETS:
                raise GraphTooLargeError(f"at least {count + 1} connected vertex subsets"
                                         f" exceed the exhaustive subset cap of {count}")
            count += 1
            row.append((rest, inner, ends - inner))
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                grown = fields | field << w * width
                stack.append((rest + (w,), grown, ext | nbr[w] & below & ~near, near | nbr[w],
                              inner + (grown & weights[w]).bit_count(), ends + valency[w]))
        table.append(tuple(row))
    return tuple(table), {}
