import copy
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_box_scan,
    brute_bridges,
    brute_destabilizing_nodes,
    brute_is_semistable,
    brute_is_stable,
    brute_is_stable_orientation,
    disjoint_union,
)
from nodaltheta import multidegree
from nodaltheta.dual_graph import DualGraph, connected_subsets
from nodaltheta.families import connected_multigraphs, genus_decorations
from nodaltheta.multidegree import (
    degree_box,
    destabilizing_nodes,
    enumerate_semistable,
    enumerate_stable,
    find_stable_orientation,
    is_semistable,
    is_stable,
    is_stable_orientation,
    multidegree_of_orientation,
    stabilize,
)
from nodaltheta.selfcheck import _interleaved_union


def theta_graph(g1=0, g2=0, delta=3):
    return DualGraph((g1, g2), tuple((0, 1) for _ in range(delta)))


class TestIsSemistable:
    @pytest.mark.parametrize("g1,g2", [(0, 0), (1, 2)])
    def test_three_edge_examples(self, g1, g2):
        graph = theta_graph(g1, g2)
        assert is_semistable(graph, (g1, g2 + 1)) is True
        # equality on the first component, allowed for semistability
        assert is_semistable(graph, (g1 - 1, g2 + 2)) is True
        assert is_semistable(graph, (g1 - 2, g2 + 3)) is False

    def test_wrong_total_immediately_false(self):
        graph = theta_graph()
        assert is_semistable(graph, (1, 1)) is False

    @pytest.mark.parametrize("d", [(1, 1), (0, 0), (-1, 1)])
    def test_total_off_either_way(self, d):
        graph = theta_graph()
        assert is_semistable(graph, d) is False
        assert is_stable(graph, d) is False
        with pytest.raises(ValueError, match="not semistable"):
            stabilize(graph, d)

    def test_matches_all_subset_oracle(self):
        for graph in connected_multigraphs(3, 4):
            for dec in genus_decorations(graph, 1):
                g1 = dec.arithmetic_genus() - 1
                box = degree_box(dec)
                for d in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
                    if sum(d) != g1:
                        continue
                    assert is_semistable(dec, d) == brute_is_semistable(dec, d)


class TestIsStable:
    @pytest.mark.parametrize("genus,loops", [(0, 2), (1, 0), (2, 3)])
    def test_irreducible_curve_always_stable(self, genus, loops):
        graph = DualGraph((genus,), tuple((0, 0) for _ in range(loops)))
        assert is_stable(graph, (genus - 1 + loops,)) is True

    @pytest.mark.parametrize("d", [(0, 2), (1, 1), (2, 0), (-1, 3)])
    def test_bridge_graph_never_stable(self, d):
        graph = DualGraph((1, 2), ((0, 1),))
        assert is_stable(graph, d) is False

    def test_theta_graph(self):
        assert is_stable(theta_graph(), (0, 1)) is True
        assert is_stable(theta_graph(), (-1, 2)) is False

    def test_disconnected_needs_per_component_totals(self):
        two_triangles = DualGraph(
            (0,) * 6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        )
        assert is_stable(two_triangles, (0, 0, 0, 0, 0, 0)) is True
        # total is right but the split between components is wrong
        assert is_stable(two_triangles, (1, 0, 0, -1, 0, 0)) is False

    def test_matches_all_subset_oracle(self):
        for graph in connected_multigraphs(3, 4):
            for dec in genus_decorations(graph, 1):
                g1 = dec.arithmetic_genus() - 1
                box = degree_box(dec)
                for d in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
                    if sum(d) != g1:
                        continue
                    assert is_stable(dec, d) == brute_is_stable(dec, d)


class TestPredicatesOnDisjointUnions:
    def test_match_all_subset_oracle(self):
        rng = random.Random(20071031)
        family = [dec for graph in connected_multigraphs(3, 3)
                  for dec in genus_decorations(graph, 1)]
        for _ in range(60):
            union = disjoint_union(*rng.sample(family, rng.choice((2, 2, 3))))
            g1 = union.arithmetic_genus() - 1
            box = degree_box(union)
            for d in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
                if sum(d) != g1:
                    continue
                assert is_semistable(union, d) == brute_is_semistable(union, d)
                assert is_stable(union, d) == brute_is_stable(union, d)


def doubled_cycle(n):
    pairs = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return DualGraph((0,) * n, tuple(p for p in pairs for _ in (0, 1)))


def seeded_large_graph():
    """A 40-cycle plus 39 seeded chords, with seeded genera: bridgeless,
    with more connected subcurves than the subset cap allows."""
    rng = random.Random(40)
    edges = [(i, (i + 1) % 40) for i in range(40)]
    edges += [(rng.randrange(40), rng.randrange(40)) for _ in range(39)]
    return DualGraph(tuple(rng.randrange(3) for _ in range(40)), tuple(edges))


class TestPredicatesBeyondSubsetCap:
    """The orientation core has no size cap: these graphs have 16 and 40
    vertices, and the subcurve scan refuses the second."""

    @pytest.mark.parametrize("graph", [doubled_cycle(16), seeded_large_graph()],
                             ids=["doubled-16-cycle", "seeded-40-vertices"])
    def test_random_orientations(self, graph):
        rng = random.Random(16)
        for _ in range(30):
            orientation = tuple(rng.randrange(2) for _ in range(graph.num_edges))
            d = multidegree_of_orientation(graph, orientation)
            assert is_semistable(graph, d)
            result = stabilize(graph, d)
            assert multidegree_of_orientation(graph, result.witness_orientation) == d
            normalized = graph.delete_edges(result.destabilizing_set)
            assert is_stable(normalized, result.stable_degree)
            assert bool(result.destabilizing_set) != is_stable(graph, d)
            # below the one-vertex bound at vertex 0
            lo = degree_box(graph)[0][0]
            below = (lo - 1, d[1] + d[0] - lo + 1) + d[2:]
            assert not is_semistable(graph, below) and not is_stable(graph, below)

    def test_doubled_cycle_known_classes(self):
        graph = doubled_cycle(16)
        assert is_stable(graph, (1,) * 16)
        # d_0 = p_a({0}) - 1 is the only equality: its four edges destabilize
        d = (-1, 2) + (1,) * 13 + (2,)
        assert is_semistable(graph, d) and not is_stable(graph, d)
        assert destabilizing_nodes(graph, d) == (0, 1, 30, 31)
        result = stabilize(graph, d)
        assert result.stable_degree == (-1, 0) + (1,) * 13 + (0,)
        assert result.ending_halves == {0: (0, 2), 1: (1, 2), 30: (30, 2), 31: (31, 2)}

    @pytest.mark.parametrize("graph", [doubled_cycle(16), seeded_large_graph()],
                             ids=["doubled-16-cycle", "seeded-40-vertices"])
    def test_stable_orientation_degree(self, graph):
        orientation = find_stable_orientation(graph)
        assert orientation is not None
        assert is_stable(graph, multidegree_of_orientation(graph, orientation))


class TestEnumeration:
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("g1,g2", [(0, 0), (1, 2)])
    def test_theta_graph_count(self, delta, g1, g2):
        stable = enumerate_stable(theta_graph(g1, g2, delta))
        assert len(stable) == delta - 1
        assert stable == [(g1 + i, g2 + delta - 2 - i) for i in range(delta - 1)]

    def test_bridge_graph_empty(self):
        assert enumerate_stable(DualGraph((1, 2), ((0, 1),))) == []

    def test_bridge_graph_semistable(self):
        assert enumerate_semistable(DualGraph((1, 2), ((0, 1),))) == [(0, 2), (1, 1)]

    def test_disjoint_union_is_product(self):
        triangle = DualGraph((0, 0, 0), ((0, 1), (1, 2), (0, 2)))
        theta = theta_graph()
        union = DualGraph(
            (0,) * 5,
            ((0, 1), (1, 2), (0, 2), (3, 4), (3, 4), (3, 4)),
        )
        expected = sorted(
            a + b
            for a in enumerate_stable(triangle)
            for b in enumerate_stable(theta)
        )
        assert enumerate_stable(union) == expected

    def test_sorted_lexicographically(self):
        out = enumerate_semistable(theta_graph(1, 2, 4))
        assert out == sorted(out)

    def test_stable_subset_of_semistable(self):
        for graph in connected_multigraphs(3, 5):
            assert set(enumerate_stable(graph)) <= set(enumerate_semistable(graph))

    def test_fifteen_cycle(self):
        # T_G(2, 1) = 2^n - 1 semistable classes on an n-cycle
        cycle = DualGraph((0,) * 15, tuple((i, (i + 1) % 15) for i in range(15)))
        semistable = enumerate_semistable(cycle)
        assert len(semistable) == (1 << 15) - 1
        assert all(is_semistable(cycle, d) for d in random.Random(15).sample(semistable, 200))
        assert enumerate_stable(cycle) == [(0,) * 15]

    def test_more_vertices_than_the_recursion_limit(self):
        assert enumerate_stable(DualGraph((1,) * 1000, ())) == [(0,) * 1000]

    def test_decorations_share_one_subcurve_table(self):
        # genera and loops leave the loopless core alone: one cache entry
        # serves every decoration, holding the table and one search output
        # per strictness, and later rounds change neither
        kite = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
        graph = DualGraph((0,) * 4, kite + ((2, 2),))

        def enumerate_all():
            for decorated in genus_decorations(graph, 2):
                enumerate_semistable(decorated)
                enumerate_stable(decorated)

        connected_subsets.cache_clear()
        enumerate_all()
        assert connected_subsets.cache_info().misses == 1
        rows, found = connected_subsets(4, kite)
        snapshot = copy.deepcopy((rows, found))
        assert rows == connected_subsets.__wrapped__(4, kite)[0]
        assert found.keys() == {False, True}
        stored = {strict: degrees for strict, (_shift, degrees) in found.items()}
        enumerate_all()
        assert connected_subsets.cache_info().misses == 1
        assert (rows, found) == snapshot
        assert all(found[strict][1] is degrees for strict, degrees in stored.items())

    def test_one_search_per_core_and_strictness(self, monkeypatch):
        calls = []
        search = multidegree._search

        def counted(bounds, strict, shift, total_b):
            calls.append(strict)
            return search(bounds, strict, shift, total_b)

        monkeypatch.setattr(multidegree, "_search", counted)
        kite = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
        connected_subsets.cache_clear()
        for decorated in genus_decorations(DualGraph((0,) * 4, kite + ((2, 2),)), 2):
            enumerate_semistable(decorated)
            enumerate_stable(decorated)
        assert sorted(calls) == [False, True]

    @pytest.mark.parametrize("enumerate_", [enumerate_semistable, enumerate_stable])
    def test_stored_shift_gets_the_stored_tuples(self, enumerate_):
        # a loop shifts its vertex as one more genus does, so the twin asks
        # with the stored shift and every other decoration with another
        kite = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
        first = DualGraph((0, 0, 0, 0), kite + ((2, 2),))
        twin = DualGraph((0, 0, 1, 0), kite)
        others = [graph for graph in genus_decorations(DualGraph((0,) * 4, kite), 1)
                  if graph.genera != twin.genera]
        cold = []
        for graph in others:
            connected_subsets.cache_clear()
            cold.append(enumerate_(graph))
        connected_subsets.cache_clear()
        stored = enumerate_(first)
        assert stored
        for graph in first, twin:
            out = enumerate_(graph)
            assert out is not stored and len(out) == len(stored)
            assert all(map(operator.is_, out, stored))
        stored_ids = set(map(id, stored))
        for graph, expected in zip(others, cold):
            out = enumerate_(graph)
            assert out == expected
            assert stored_ids.isdisjoint(map(id, out))

    def test_warm_equals_cold(self):
        # decorations of one core, and unions sharing a core, in shuffled
        # order: the stored output comes from whichever asked first, so
        # the shift moves it both up and down
        loopy = [dec for graph in connected_multigraphs(3, 5)
                 for dec in genus_decorations(graph, 2)]
        small = [dec for graph in connected_multigraphs(2, 3)
                 for dec in genus_decorations(graph, 1)]
        graphs = loopy + [_interleaved_union(a, b) for a, b in itertools.product(small, repeat=2)]
        assert len(graphs) >= 2000
        random.Random(37).shuffle(graphs)
        cold = []
        for graph in graphs:
            connected_subsets.cache_clear()
            semistable = enumerate_semistable(graph)
            connected_subsets.cache_clear()
            cold.append((semistable, enumerate_stable(graph)))
        connected_subsets.cache_clear()
        for graph, expected in zip(graphs, cold):
            assert (enumerate_semistable(graph), enumerate_stable(graph)) == expected

    @pytest.mark.parametrize("enumerate_", [enumerate_semistable, enumerate_stable])
    def test_callers_may_mutate_the_output(self, enumerate_):
        kite = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
        first = DualGraph((0, 1, 0, 2), kite + ((2, 2),))
        second = DualGraph((1, 0, 2, 0), kite)
        expected = []
        for graph in first, second:
            connected_subsets.cache_clear()
            expected.append(enumerate_(graph))
        connected_subsets.cache_clear()
        for mutate in (lambda out: out.append((9, 9, 9, 9)),
                       lambda out: out.sort(reverse=True), list.clear):
            mutate(enumerate_(first))
            assert [enumerate_(first), enumerate_(second)] == expected
            mutate(enumerate_(second))
            assert [enumerate_(first), enumerate_(second)] == expected


@st.composite
def small_multigraphs(draw):
    """Decorated multigraphs with loops, possibly disconnected."""
    n = draw(st.integers(1, 6))
    genera = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    vertex = st.integers(0, n - 1)
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=7)))
    return DualGraph(genera, edges)


class TestEnumerationOracles:
    """The depth-first enumeration against a box scan with the all-subset
    predicates of the test suite."""

    def test_matches_box_scan_on_family(self):
        for graph in connected_multigraphs(3, 5):
            for dec in genus_decorations(graph, 1):
                assert enumerate_semistable(dec) == brute_box_scan(dec, brute_is_semistable)
                assert enumerate_stable(dec) == brute_box_scan(dec, brute_is_stable)

    def test_disjoint_unions(self):
        # a seeded relabelling interleaves the components, so most of them
        # end below the last vertex and the search must close them there
        rng = random.Random(20071030)
        family = [dec for graph in connected_multigraphs(3, 3)
                  for dec in genus_decorations(graph, 1)]
        bridgeless = [dec for dec in family if not dec.bridges()]
        for trial in range(60):
            # unions of bridgeless parts are the ones with stable classes
            pool = family if trial < 40 else bridgeless
            parts = rng.sample(pool, rng.choice((2, 2, 3)))
            blocks = disjoint_union(*parts)
            n = blocks.num_vertices
            new = rng.sample(range(n), n)  # vertex v becomes new[v]
            old = sorted(range(n), key=new.__getitem__)
            union = DualGraph(tuple(blocks.genera[v] for v in old),
                              tuple((new[u], new[v]) for u, v in blocks.edges))
            semistable = enumerate_semistable(union)
            assert semistable == brute_box_scan(union, brute_is_semistable)
            product = (sum(combo, ()) for combo in
                       itertools.product(*map(enumerate_semistable, parts)))
            assert semistable == sorted(tuple(d[v] for v in old) for d in product)
            assert enumerate_stable(union) == brute_box_scan(union, brute_is_stable)

    def test_components_past_the_vertex_cap(self):
        # 16 vertices, 8 per component, with 2 * 57 connected subcurves
        cycle = DualGraph((0,) * 8, tuple((i, (i + 1) % 8) for i in range(8)))
        blocks = disjoint_union(doubled_cycle(8), cycle)
        new = random.Random(8).sample(range(16), 16)  # vertex v becomes new[v]
        old = sorted(range(16), key=new.__getitem__)
        union = DualGraph(tuple(blocks.genera[v] for v in old),
                          tuple((new[u], new[v]) for u, v in blocks.edges))
        product = (d + e for d in enumerate_stable(doubled_cycle(8))
                   for e in enumerate_stable(cycle))
        stable = enumerate_stable(union)
        assert len(stable) == 255
        assert stable == sorted(tuple(d[v] for v in old) for d in product)

    def test_doubled_eight_cycle_counts(self):
        graph = doubled_cycle(8)
        assert len(enumerate_semistable(graph)) == 6305
        assert len(enumerate_stable(graph)) == 255

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_multigraphs())
    def test_random_multigraphs(self, graph):
        assert enumerate_semistable(graph) == brute_box_scan(graph, brute_is_semistable)
        assert enumerate_stable(graph) == brute_box_scan(graph, brute_is_stable)


class TestOrientations:
    def test_cyclic_cycle_gives_zero(self):
        cycle = DualGraph((0, 0, 0, 0), ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert multidegree_of_orientation(cycle, (0, 0, 0, 0)) == (0, 0, 0, 0)

    @pytest.mark.parametrize("genus,loops", [(0, 1), (2, 0), (1, 3)])
    def test_single_vertex(self, genus, loops):
        graph = DualGraph((genus,), tuple((0, 0) for _ in range(loops)))
        for bits in itertools.product((0, 1), repeat=loops):
            assert multidegree_of_orientation(graph, bits) == (genus - 1 + loops,)

    def test_theta_totals_always_one(self):
        graph = theta_graph()
        for bits in itertools.product((0, 1), repeat=3):
            assert sum(multidegree_of_orientation(graph, bits)) == 1

    def test_stable_orientation_examples(self):
        cycle = DualGraph((0, 0, 0), ((0, 1), (1, 2), (2, 0)))
        assert is_stable_orientation(cycle, (0, 0, 0)) is True
        banana = DualGraph((0, 0), ((0, 1), (0, 1)))
        assert is_stable_orientation(banana, (0, 0)) is False
        assert is_stable_orientation(banana, (0, 1)) is True

    def test_loops_pass_vacuously(self):
        rose = DualGraph((0,), ((0, 0), (0, 0)))
        assert is_stable_orientation(rose, (0, 0)) is True

    def test_matches_subset_scan_oracle(self):
        for graph in connected_multigraphs(4, 6):
            for orientation in itertools.product((0, 1), repeat=graph.num_edges):
                assert (is_stable_orientation(graph, orientation)
                        == brute_is_stable_orientation(graph, orientation))


class TestFindStableOrientation:
    def test_path_has_none(self):
        assert find_stable_orientation(DualGraph((0, 0), ((0, 1),))) is None

    def test_triangle_gives_stable_multidegree(self):
        triangle = DualGraph((0, 0, 0), ((0, 1), (1, 2), (0, 2)))
        orientation = find_stable_orientation(triangle)
        assert orientation is not None
        assert is_stable(triangle, multidegree_of_orientation(triangle, orientation))

    def test_loop_rose_trivial(self):
        rose = DualGraph((1,), ((0, 0), (0, 0)))
        orientation = find_stable_orientation(rose)
        assert orientation is not None
        assert multidegree_of_orientation(rose, orientation) == (2,)

    def test_none_exactly_when_bridged(self):
        for graph in connected_multigraphs(4, 5):
            orientation = find_stable_orientation(graph)
            assert (orientation is None) == bool(brute_bridges(graph))
            if orientation is not None:
                assert brute_is_stable_orientation(graph, orientation)


class TestDestabilizingNodes:
    def test_stable_degree_has_none(self):
        assert destabilizing_nodes(theta_graph(), (0, 1)) == ()

    @pytest.mark.parametrize("g1,g2", [(1, 2), (2, 2)])
    def test_bridge_graph(self, g1, g2):
        graph = DualGraph((g1, g2), ((0, 1),))
        assert destabilizing_nodes(graph, (g1 - 1, g2)) == (0,)

    def test_rejects_non_semistable(self):
        with pytest.raises(ValueError, match="not semistable"):
            destabilizing_nodes(theta_graph(), (-2, 3))

    def test_strictly_semistable_theta_class(self):
        # (-1, 2) meets the bound with equality on the first vertex, so it
        # is semistable and every edge of the cut destabilizes
        graph = theta_graph()
        assert is_semistable(graph, (-1, 2)) is True
        assert destabilizing_nodes(graph, (-1, 2)) == (0, 1, 2)
        result = stabilize(graph, (-1, 2))
        assert result.stable_degree == (-1, -1)


class TestStabilize:
    @pytest.mark.parametrize("g1,g2", [(1, 2), (2, 3)])
    def test_bridge_graph_both_classes(self, g1, g2):
        graph = DualGraph((g1, g2), ((0, 1),))
        for d in ((g1 - 1, g2), (g1, g2 - 1)):
            result = stabilize(graph, d)
            assert result.destabilizing_set == (0,)
            assert result.stable_degree == (g1 - 1, g2 - 1)
            assert result.degree_unique is True
        # the two ending half-edges are on opposite sides
        r1 = stabilize(graph, (g1 - 1, g2))
        r2 = stabilize(graph, (g1, g2 - 1))
        assert r1.ending_halves[0] == (0, 2)
        assert r2.ending_halves[0] == (0, 1)

    def test_stable_input_is_fixed(self):
        result = stabilize(theta_graph(), (0, 1))
        assert result.destabilizing_set == ()
        assert result.stable_degree == (0, 1)

    def test_matches_equality_subcurve_oracle(self):
        for graph in connected_multigraphs(3, 5):
            for dec in genus_decorations(graph, 1):
                for d in enumerate_semistable(dec):
                    brute = brute_destabilizing_nodes(dec, d)
                    result = stabilize(dec, d)
                    assert result.destabilizing_set == tuple(sorted(brute))
                    assert result.ending_halves == brute
                    assert destabilizing_nodes(dec, d) == result.destabilizing_set


class TestDefinitionEquivalence:
    def test_trivial_curve_exception(self):
        # a single genus-0 vertex has total degree -1: the one legitimate
        # negative stable class
        assert enumerate_stable(DualGraph((0,), ())) == [(-1,)]
