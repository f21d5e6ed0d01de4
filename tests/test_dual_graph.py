import itertools

import pytest

from conftest import brute_bridges, brute_component_count, brute_connected_multigraphs
from nodaltheta.dual_graph import (
    DualGraph,
    GraphTooLargeError,
    connected_subsets,
)
from nodaltheta.families import connected_multigraphs
from nodaltheta.selfcheck import _interleaved_union


TRIANGLE = DualGraph((0, 0, 0), ((0, 1), (1, 2), (0, 2)))
THETA = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)))
BANANA = DualGraph((0, 0), ((0, 1), (0, 1)))
# two triangles joined by one edge
DUMBBELL = DualGraph(
    (0,) * 6,
    ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)),
)


def complete_graph(n):
    return DualGraph((0,) * n, tuple(itertools.combinations(range(n), 2)))


class TestArithmeticGenus:
    def test_single_rational_component(self):
        assert DualGraph((0,), ()).arithmetic_genus() == 0

    def test_three_parallel_edges(self):
        assert THETA.arithmetic_genus() == 2

    @pytest.mark.parametrize("g1,g2", [(1, 2), (0, 3), (2, 2)])
    def test_compact_type_is_genus_sum(self, g1, g2):
        graph = DualGraph((g1, g2), ((0, 1),))
        assert graph.arithmetic_genus() == g1 + g2

    def test_subcurve_genus(self):
        graph = DualGraph((1, 2), ((0, 1), (0, 0)))
        assert graph.arithmetic_genus({0}) == 2  # genus 1 plus one loop
        assert graph.arithmetic_genus({1}) == 2
        assert graph.arithmetic_genus({0, 1}) == 4

    def test_empty_subcurve_rejected(self):
        with pytest.raises(ValueError, match="empty subcurve"):
            TRIANGLE.arithmetic_genus(set())

    def test_disconnected_graph_formula(self):
        # two isolated genus-1 vertices: 2 + 0 - 2 + 1 = 1
        graph = DualGraph((1, 1), ())
        assert graph.arithmetic_genus() == 1

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            DualGraph((), ())
        with pytest.raises(ValueError):
            DualGraph((-1,), ())
        with pytest.raises(ValueError):
            DualGraph((0,), ((0, 1),))


class TestConnectivity:
    def test_two_isolated_vertices(self):
        assert DualGraph((0, 0), ()).connected_components() == ((0,), (1,))

    def test_triangle(self):
        assert TRIANGLE.connected_components() == ((0, 1, 2),)

    def test_dumbbell_minus_bridges_splits(self):
        stripped = DUMBBELL.delete_edges(DUMBBELL.bridges())
        assert brute_component_count(stripped) == 2
        assert len(stripped.connected_components()) == 2


class TestBridges:
    def test_cycle_has_none(self):
        assert TRIANGLE.bridges() == ()

    def test_path_has_both(self):
        path = DualGraph((0, 0, 0), ((0, 1), (1, 2)))
        assert path.bridges() == (0, 1)

    def test_dumbbell_joining_edge_only(self):
        assert DUMBBELL.bridges() == (6,)
        assert brute_bridges(DUMBBELL) == (6,)

    def test_loops_never_bridges(self):
        graph = DualGraph((0, 0), ((0, 0), (0, 1), (1, 1)))
        assert graph.bridges() == (1,)

    def test_parallel_edges_never_bridges(self):
        assert BANANA.bridges() == ()


class TestDeleteEdges:
    def test_triangle_fully_normalized(self):
        split = TRIANGLE.delete_edges({0, 1, 2})
        assert split.num_edges == 0
        assert split.arithmetic_genus() == TRIANGLE.arithmetic_genus() - 3

    def test_theta_minus_edge_is_banana(self):
        banana = THETA.delete_edges({1})
        assert banana.edges == ((0, 1), (0, 1))
        assert THETA.arithmetic_genus() == 2
        assert banana.arithmetic_genus() == 1

    def test_empty_deletion_is_identity(self):
        assert THETA.delete_edges(set()) == THETA

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="invalid edge index"):
            THETA.delete_edges({3})


class TestBlowUp:
    def test_two_cycle_becomes_triangle(self):
        cycle = DualGraph((0, 0), ((0, 1), (0, 1)))
        blown, exceptional = cycle.blow_up({0})
        assert blown.num_vertices == 3
        assert blown.num_edges == 3
        assert blown.arithmetic_genus() == 1
        assert exceptional == {0: 2}

    def test_loop_becomes_two_parallel_edges(self):
        graph = DualGraph((0,), ((0, 0),))
        blown, exceptional = graph.blow_up({0})
        assert blown.edges == ((0, 1), (1, 0))
        assert blown.arithmetic_genus() == graph.arithmetic_genus() == 1

    def test_empty_blow_up_is_identity(self):
        blown, exceptional = THETA.blow_up(set())
        assert blown == THETA and exceptional == {}


class TestSpanningForest:
    def test_tree_keeps_all_edges(self):
        tree = DualGraph((0, 0, 0), ((0, 1), (1, 2)))
        assert tree.spanning_forest() == (0, 1)

    def test_theta_takes_lowest_index(self):
        assert THETA.spanning_forest() == (0,)

    def test_loop_never_selected(self):
        graph = DualGraph((0, 0, 0), ((0, 0), (0, 1), (1, 2), (0, 2)))
        assert graph.spanning_forest() == (1, 2)


class TestStrip:
    def test_loops_only_on_loop_rose(self):
        rose = DualGraph((0,), ((0, 0), (0, 0), (0, 0)))
        assert rose.strip("loops_only").num_edges == 0

    def test_dumbbell_loses_bridge_and_splits(self):
        stripped = DUMBBELL.strip("loops_and_bridges")
        assert stripped.num_edges == 6
        assert len(stripped.connected_components()) == 2

    def test_banana_unchanged(self):
        assert BANANA.strip("loops_only") == BANANA
        assert BANANA.strip("loops_and_bridges") == BANANA

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BANANA.strip("everything")


def subsets(graph):
    """The connected subsets of the table, each as a frozenset of vertices."""
    rows = connected_subsets(graph.num_vertices, graph.edges)[0]
    return [frozenset((v, *rest)) for v, row in enumerate(rows) for rest, _inner, _touching in row]


def _subset_families():
    # the disconnected graphs interleave their components, so a subset
    # grown from its highest vertex skips labels of another component
    disconnected = [DualGraph((0,) * 4, ((0, 2), (1, 3))),
                    DualGraph((0,) * 5, ((0, 2), (2, 4), (4, 0), (1, 1), (3, 3))),
                    DualGraph((0,) * 3, ())]
    small = list(connected_multigraphs(2, 3))
    return disconnected + [_interleaved_union(a, b) for a, b in itertools.product(small, repeat=2)]


class TestConnectedSubsets:
    def test_triangle_subsets(self):
        subs = subsets(TRIANGLE)
        assert len(subs) == 7  # every nonempty subset is connected

    def test_path_misses_endpoints_pair(self):
        path = DualGraph((0, 0, 0), ((0, 1), (1, 2)))
        subs = subsets(path)
        assert frozenset({0, 2}) not in subs
        assert len(subs) == 6

    def test_size_cap(self):
        # the cap counts subsets, not vertices: a long path answers
        path = DualGraph((0,) * 15, tuple((i, i + 1) for i in range(14)))
        assert len(subsets(path)) == 15 * 16 // 2
        assert len(subsets(complete_graph(14))) == (1 << 14) - 1
        k15 = complete_graph(15)
        with pytest.raises(GraphTooLargeError, match="cap of 16384"):
            connected_subsets(k15.num_vertices, k15.edges)

    def test_cap_counts_each_component(self):
        cycle = tuple((i, (i + 1) % 8) for i in range(8))
        two_cycles = DualGraph((0,) * 16, cycle + tuple((u + 8, v + 8) for u, v in cycle))
        subs = subsets(two_cycles)
        assert len(subs) == 2 * 57  # 56 arcs and the whole cycle, twice
        assert all(max(s) < 8 or min(s) >= 8 for s in subs)
        path_and_point = DualGraph((0,) * 16, tuple((i, i + 1) for i in range(14)))
        assert len(subsets(path_and_point)) == 120 + 1
        # the count is over the whole graph: each K14 alone answers
        k14 = complete_graph(14)
        two_k14 = DualGraph((0,) * 28, k14.edges + tuple((u + 14, v + 14) for u, v in k14.edges))
        with pytest.raises(GraphTooLargeError):
            connected_subsets(two_k14.num_vertices, two_k14.edges)

    def test_matches_brute_force(self):
        for graph in [*connected_multigraphs(3, 3), *_subset_families()]:
            subs = set(subsets(graph))
            assert len(subs) == len(subsets(graph))
            n = graph.num_vertices
            for bits in range(1, 1 << n):
                sub = frozenset(v for v in range(n) if bits >> v & 1)
                induced = DualGraph(
                    tuple(0 for _ in sub),
                    tuple(
                        (sorted(sub).index(u), sorted(sub).index(v))
                        for u, v in graph.edges if u in sub and v in sub
                    ),
                )
                assert (sub in subs) == (brute_component_count(induced) == 1)

    def test_edge_counts(self):
        # loops, parallel edges, and edges stored in either direction
        reversed_pairs = [DualGraph((0,) * 3, ((1, 0), (0, 1), (2, 2), (2, 1), (2, 2), (1, 1))),
                          DualGraph((0,) * 4, ((3, 0), (3, 3), (0, 3), (2, 1), (1, 2), (1, 3)))]
        for graph in [*connected_multigraphs(4, 6), *_subset_families(), *reversed_pairs]:
            for top, row in enumerate(connected_subsets(graph.num_vertices, graph.edges)[0]):
                for rest, inner, touching in row:
                    assert all(v < top for v in rest)
                    sub = {top, *rest}
                    assert len(sub) == len(rest) + 1
                    assert inner == sum(u in sub and v in sub for u, v in graph.edges)
                    assert touching == sum(u in sub or v in sub for u, v in graph.edges)


class TestConnectedMultigraphs:
    @pytest.mark.parametrize("max_vertices, max_edges", [(4, 6), (5, 4)])
    def test_matches_brute_force(self, max_vertices, max_edges):
        # the same graphs, each at the same relabeling, in the same order
        assert list(connected_multigraphs(max_vertices, max_edges)) == list(
            brute_connected_multigraphs(max_vertices, max_edges))

    @pytest.mark.parametrize("max_vertices, max_edges, count",
                             [(3, 5, 69), (4, 6, 283), (4, 7, 668), (5, 6, 405)])
    def test_frozen_counts(self, max_vertices, max_edges, count):
        assert sum(1 for _ in connected_multigraphs(max_vertices, max_edges)) == count
