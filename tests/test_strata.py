import json
import random
import re
from math import comb

import pytest

from conftest import disjoint_union, per_stratum_theta_dim
from nodaltheta.dual_graph import (
    MAX_SUBSET_EDGES,
    DualGraph,
    GraphTooLargeError,
)
from nodaltheta.families import (
    connected_multigraphs,
    genus_decorations,
    orientation_multidegree_sets,
)
from nodaltheta.multidegree import enumerate_stable
from nodaltheta.strata import (
    Stratum,
    closure_candidate,
    enumerate_picard_strata,
    is_picard_irreducible,
    is_theta_irreducible,
    picard_valency_criterion,
    smooth_locus_strata,
    strata_irreducible_curve,
    strata_payload,
    strata_poset_dot,
    theta_strata,
    theta_valency_criterion,
)


def theta_graph(g1=0, g2=0, delta=3):
    return DualGraph((g1, g2), tuple((0, 1) for _ in range(delta)))


def theta_family():
    """Every decorated connected multigraph with at most 3 vertices, 5 edges
    and genus 1, plus seeded disjoint unions of the smaller ones."""
    family = [dec for graph in connected_multigraphs(3, 5)
              for dec in genus_decorations(graph, 1)]
    small = [dec for dec in family if dec.num_edges <= 3]
    rng = random.Random(20071101)
    unions = [disjoint_union(*rng.sample(small, rng.choice((2, 2, 3)))) for _ in range(60)]
    return family + unions


class TestPicardStrata:
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("g1,g2", [(0, 0), (1, 2)])
    def test_two_component_counts(self, delta, g1, g2):
        graph = theta_graph(g1, g2, delta)
        g = graph.arithmetic_genus()
        strata = enumerate_picard_strata(graph)
        by_codim = {}
        for s in strata:
            by_codim.setdefault(g - s.dim, 0)
            by_codim[g - s.dim] += 1
        expected = {0: delta - 1}
        for k in range(1, delta - 1):
            expected[k] = (delta - k - 1) * comb(delta, k)
        # removing all nodes leaves one stratum of codimension delta - 1
        expected[delta - 1] = expected.get(delta - 1, 0) + 1
        assert by_codim == expected
        full = [s for s in strata if len(s.nodes) == delta]
        assert len(full) == 1
        assert full[0].degree == (g1 - 1, g2 - 1)
        # subsets of delta - 1 nodes leave a separating node: no strata
        assert not [s for s in strata if len(s.nodes) == delta - 1]

    def test_sorted_canonically(self):
        strata = enumerate_picard_strata(theta_graph())
        keys = [(len(s.nodes), s.nodes, s.degree) for s in strata]
        assert keys == sorted(keys)

    def test_one_normalization_per_kept_edge_tuple(self, monkeypatch):
        # parallel copies of an edge leave the same kept edges whichever
        # copy is dropped: 3 ways per doubled pair, 13 for 12 parallel edges
        # and, with no repeated edge, one per subset
        calls = []

        def counted(graph):
            calls.append(graph.edges)
            return enumerate_stable(graph)

        monkeypatch.setattr("nodaltheta.strata.enumerate_stable", counted)
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        c6_chords = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5))
        for graph, distinct in [(DualGraph((0,) * 4, tuple(p for p in k4 for _ in (0, 1))), 729),
                                (DualGraph((0, 0), ((0, 1),) * 12), 13),
                                (DualGraph((1, 0, 2, 0, 1, 0), c6_chords), 512)]:
            for _ in range(2):  # nothing is carried from one call to the next
                calls.clear()
                enumerate_picard_strata(graph)
                assert len(calls) == len(set(calls)) == distinct


class TestSmoothLocus:
    def test_bridgeless_uses_empty_set(self):
        graph = theta_graph()
        top = smooth_locus_strata(graph)
        assert all(s.nodes == () for s in top)
        assert len(top) == len(enumerate_stable(graph)) == 2
        assert all(s.dim == graph.arithmetic_genus() for s in top)

    @pytest.mark.parametrize("g1,g2", [(1, 2), (2, 2)])
    def test_compact_type_single_stratum(self, g1, g2):
        graph = DualGraph((g1, g2), ((0, 1),))
        top = smooth_locus_strata(graph)
        assert len(top) == 1
        assert top[0].nodes == (0,)
        assert top[0].degree == (g1 - 1, g2 - 1)

    def test_dumbbell_product_count(self):
        dumbbell = DualGraph(
            (0,) * 6,
            ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)),
        )
        top = smooth_locus_strata(dumbbell)
        triangle = DualGraph((0, 0, 0), ((0, 1), (1, 2), (0, 2)))
        assert len(top) == len(enumerate_stable(triangle)) ** 2
        assert all(s.nodes == (6,) for s in top)


class TestClosureCandidate:
    def test_theta_graph_examples(self):
        g1, g2 = 1, 2
        graph = theta_graph(g1, g2)
        s_top = Stratum((), (g1, g2 + 1), 4, "picard")
        s_down = Stratum((0,), (g1, g2), 3, "picard")
        s_other = Stratum((0,), (g1 - 1, g2 + 1), 3, "picard")
        assert closure_candidate(graph, s_top, s_down) is True
        assert closure_candidate(graph, s_top, s_other) is True
        assert closure_candidate(graph, s_top, s_top) is False
        assert closure_candidate(graph, s_down, s_top) is False

    def test_total_drop_must_match(self):
        graph = theta_graph()
        s_top = Stratum((), (0, 1), 2, "picard")
        bad = Stratum((0, 1), (0, 0), 1, "picard")  # drop 1, added 2
        assert closure_candidate(graph, s_top, bad) is False

    def test_branch_bound(self):
        # adding one node between the vertices cannot drop one side by 2
        graph = theta_graph()
        s_top = Stratum((), (2, -1), 2, "picard")
        bad = Stratum((0,), (0, 0), 1, "picard")
        assert closure_candidate(graph, s_top, bad) is False

    def test_mismatched_graph_rejected(self):
        graph = theta_graph()
        with pytest.raises(ValueError):
            closure_candidate(graph, Stratum((), (0, 1, 0), 2, "picard"),
                              Stratum((0,), (0, 0, 0), 1, "picard"))

    def test_partial_order_compatible_on_small_graph(self):
        graph = theta_graph()
        strata = enumerate_picard_strata(graph)
        related = {
            (i, j)
            for i, s1 in enumerate(strata)
            for j, s2 in enumerate(strata)
            if closure_candidate(graph, s1, s2)
        }
        for i, j in related:
            assert (j, i) not in related  # antisymmetric on distinct strata
        for i, j in related:
            for k in range(len(strata)):
                if (j, k) in related:
                    assert (i, k) in related  # transitive at candidate level


class TestThetaStrata:
    def test_bridgeless_component_count(self):
        _, summary = theta_strata(theta_graph())
        assert summary.pieces == 1
        assert summary.stable_classes == 2
        assert summary.component_count == 2
        assert summary.effective_component_count == 2

    @pytest.mark.parametrize("g1,g2,effective", [(1, 2, 2), (0, 2, 1), (0, 0, 0)])
    def test_compact_type_cases(self, g1, g2, effective):
        graph = DualGraph((g1, g2), ((0, 1),))
        _, summary = theta_strata(graph)
        assert summary.pieces == 2
        assert summary.stable_classes == 1
        assert summary.component_count == 2  # the product formula
        assert summary.effective_component_count == effective

    def test_top_strata_have_dim_g_minus_1(self):
        graph = theta_graph(1, 2)
        g = graph.arithmetic_genus()
        strata, _ = theta_strata(graph)
        top = [s for s in strata if s.nodes == ()]
        assert top and all(s.dim == g - 1 for s in top)

    def test_index_set_matches_picard(self):
        graph = theta_graph(1, 0, 4)
        picard = enumerate_picard_strata(graph)
        theta, _ = theta_strata(graph)
        assert [(s.nodes, s.degree) for s in picard] == \
            [(s.nodes, s.degree) for s in theta]
        assert all(s.kind == "theta" for s in theta)

    def test_dims_match_per_stratum_normalization(self):
        for graph in theta_family():
            strata, _ = theta_strata(graph)
            for s in strata:
                assert s.dim == per_stratum_theta_dim(graph, s.nodes)

    def test_edge_subset_cap_still_applies(self):
        # the output has up to 2^|E| strata, so the cap stays
        rose = DualGraph((0,), ((0, 0),) * (MAX_SUBSET_EDGES + 1))
        with pytest.raises(GraphTooLargeError):
            theta_strata(rose)
        with pytest.raises(GraphTooLargeError):
            theta_strata(theta_graph(delta=MAX_SUBSET_EDGES + 1))

    def test_empty_effective_locus_dim(self):
        # normalizing a 2-cycle of rational curves at both nodes leaves two
        # projective lines with degree -1 each: no sections, dimension -1
        graph = DualGraph((0, 0), ((0, 1), (0, 1)))
        strata, _ = theta_strata(graph)
        last = [s for s in strata if len(s.nodes) == 2]
        assert last == [Stratum((0, 1), (-1, -1), -1, "theta")]


class TestIrreducibility:
    def test_examples(self):
        rose = DualGraph((0,), ((0, 0), (0, 0)))
        cycle = DualGraph((1, 0, 2), ((0, 1), (1, 2), (0, 2)))
        assert is_picard_irreducible(rose) is True
        assert is_picard_irreducible(cycle) is True
        assert is_picard_irreducible(theta_graph()) is False
        assert is_theta_irreducible(rose) is True
        assert is_theta_irreducible(DualGraph((1, 2), ((0, 1),))) is False
        assert is_theta_irreducible(DualGraph((0, 0), ((0, 1), (0, 1)))) is True

    def test_matches_direct_counting_on_family(self):
        for graph in theta_family():
            tilde = graph.delete_edges(graph.bridges())
            b = len(enumerate_stable(tilde))
            c = len(tilde.connected_components())
            assert is_picard_irreducible(graph) == (b == 1)
            assert is_theta_irreducible(graph) == (c == 1 and b == 1)
            # the predicate and the summary both read the normalization at
            # the bridges; the strata indexed by the bridges must agree
            strata, summary = theta_strata(graph)
            assert is_theta_irreducible(graph) == (summary.pieces == summary.stable_classes == 1)
            separating = graph.bridges()
            top = [s for s in strata if s.nodes == separating]
            assert len(top) == summary.stable_classes
            assert top == [Stratum(s.nodes, s.degree, s.dim - 1, "theta")
                           for s in smooth_locus_strata(graph)]

    @pytest.mark.parametrize("graph", [
        # bridgeless with one stable class, but two pieces
        disjoint_union(theta_graph(delta=2), theta_graph(delta=2)),
        DualGraph((1, 1), ()),
    ], ids=["two-disjoint-bananas", "two-edgeless-genus-1"])
    def test_disconnected_not_theta_irreducible(self, graph):
        assert not graph.bridges()
        assert is_picard_irreducible(graph) is True
        assert is_theta_irreducible(graph) is False

    def test_theta_beyond_edge_subset_cap(self):
        rose = DualGraph((0,), ((0, 0),) * (MAX_SUBSET_EDGES + 1))
        assert is_theta_irreducible(rose) is True
        assert is_theta_irreducible(theta_graph(delta=MAX_SUBSET_EDGES + 1)) is False

    def test_past_the_vertex_subset_cap(self):
        # deleting the bridges of a path leaves one vertex per component;
        # 1000 vertices is deeper than Python's recursion limit
        for n in (15, 1000):
            path = DualGraph((0,) * n, tuple((i, i + 1) for i in range(n - 1)))
            assert is_picard_irreducible(path) is True
            assert is_theta_irreducible(path) is False
        cycle = tuple((i, (i + 1) % 8) for i in range(8))
        two_cycles = DualGraph((0,) * 16, cycle + tuple((u + 8, v + 8) for u, v in cycle))
        assert is_picard_irreducible(two_cycles) is True
        assert is_theta_irreducible(two_cycles) is False

    def test_star_of_bananas_breaks_valency_converse(self):
        """One component meeting two others in 2 nodes each has a unique
        stable multidegree even though its vertex has valency 4, so the
        valency shortcut is not necessary for irreducibility.

        Both stability implementations are consulted to make sure the
        class count is right.
        """
        star = DualGraph((0, 0, 0), ((0, 1), (0, 1), (0, 2), (0, 2)))
        assert enumerate_stable(star) == [(1, 0, 0)]
        _, by_orientation = orientation_multidegree_sets(star)
        assert by_orientation == {(1, 0, 0)}
        assert is_picard_irreducible(star) is True
        assert picard_valency_criterion(star) is False
        assert is_theta_irreducible(star) is True
        assert theta_valency_criterion(star) is False


class TestIrreducibleCurveStrata:
    def test_smooth_curve_single_stratum(self):
        graph = DualGraph((3,), ())
        strata = strata_irreducible_curve(graph, 5)
        assert strata == [Stratum((), (5,), 3, "picard")]

    def test_two_loops_give_four_strata(self):
        graph = DualGraph((1,), ((0, 0), (0, 0)))
        strata = strata_irreducible_curve(graph, 2)
        assert len(strata) == 4
        for s in strata:
            assert s.degree == (2 - len(s.nodes),)
            assert s.dim == graph.arithmetic_genus() - len(s.nodes)

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            strata_irreducible_curve(theta_graph(), 1)


class TestEmitters:
    def test_json_round_trip(self):
        graph = theta_graph()
        strata, summary = theta_strata(graph)
        payload = json.loads(json.dumps(strata_payload(strata, summary)))
        assert len(payload["strata"]) == len(strata)
        assert payload["theta_summary"]["component_count"] == 2
        assert payload["strata"][0]["kind"] == "theta"

    def test_dot_output(self):
        graph = theta_graph()
        strata = enumerate_picard_strata(graph)
        dot = strata_poset_dot(graph, strata)
        assert dot.startswith("digraph strata {")
        assert 'label="S={} d=(0,1) dim=2"' in dot
        assert dot.count("->") == sum(
            1
            for s1 in strata
            for s2 in strata
            if closure_candidate(graph, s1, s2)
        )

    @pytest.mark.parametrize("graph", [
        theta_graph(),
        DualGraph((0, 0), ((0, 1),) * 6),
        DualGraph((0, 0, 0), ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2))),
        DualGraph((1, 0, 0), ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (2, 2))),
    ], ids=["theta", "banana-6", "doubled-triangle", "kite"])
    def test_dot_arcs_are_the_candidate_pairs(self, graph):
        strata = enumerate_picard_strata(graph)
        arcs = re.findall(r"^  n(\d+) -> n(\d+);$", strata_poset_dot(graph, strata), re.M)
        assert [(int(i), int(j)) for i, j in arcs] == [
            (i, j)
            for i, s1 in enumerate(strata)
            for j, s2 in enumerate(strata)
            if closure_candidate(graph, s1, s2)
        ]

    @pytest.mark.parametrize("stratum", [
        Stratum((), (0, 1, 0), 2, "picard"),
        Stratum((3,), (0, 0), 1, "picard"),
    ], ids=["degree-length", "node-index"])
    def test_dot_rejects_a_lone_foreign_stratum(self, stratum):
        with pytest.raises(ValueError, match="does not belong to this graph"):
            strata_poset_dot(theta_graph(), [stratum])
