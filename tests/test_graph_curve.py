import itertools
import math
import random

import pytest

from conftest import (
    brute_torus_count,
    cycle_curve,
    random_rational_curve,
    theta_curve,
    two_cycle_curve,
)
from nodaltheta.dual_graph import DualGraph
from nodaltheta.graph_curve import (
    INFINITY,
    GluedLineBundle,
    GraphCurve,
    abel_image,
    canonical_point,
    delete_edges,
    evaluate_form,
    fit_exponent,
    forced_vanishing_nodes,
    free_gluing_edges,
    h0,
    h0_blowup,
    restrict_bundle,
    section_space,
    tree_normalize,
    trivial_bundle,
    w_count,
)
from nodaltheta.modp import (
    DEFAULT_RANK_BUDGET,
    BudgetExceededError,
    BudgetSettingError,
    rank_budget,
)


def brute_h0(curve, bundle):
    """Count solutions of the gluing equations by full enumeration; the
    section space has p^h0 points.  Tiny instances only."""
    p = curve.prime
    sizes = [max(d + 1, 0) for d in bundle.degrees]
    total = sum(sizes)
    assert p ** total <= 200_000, "oracle instance too large"
    count = 0
    for vec in itertools.product(range(p), repeat=total):
        parts = []
        at = 0
        for size in sizes:
            parts.append(vec[at:at + size])
            at += size
        ok = True
        for e, (u, v) in enumerate(curve.graph.edges):
            lhs = evaluate_form(parts[v], curve.branch[(e, 2)], p)
            rhs = bundle.gluing[e] * evaluate_form(parts[u], curve.branch[(e, 1)], p)
            if (lhs - rhs) % p:
                ok = False
                break
        if ok:
            count += 1
    return round(math.log(count, p))


class TestValidation:
    def test_needs_prime(self):
        graph = DualGraph((0,), ((0, 0),))
        with pytest.raises(ValueError, match="not prime"):
            GraphCurve(graph, 9, {(0, 1): (0, 1), (0, 2): (1, 1)})

    def test_needs_genus_zero(self):
        graph = DualGraph((1,), ((0, 0),))
        with pytest.raises(ValueError, match="genus 0"):
            GraphCurve(graph, 5, {(0, 1): (0, 1), (0, 2): (1, 1)})

    def test_branch_collision(self):
        graph = DualGraph((0,), ((0, 0),))
        with pytest.raises(ValueError, match="collision"):
            GraphCurve(graph, 5, {(0, 1): (2, 1), (0, 2): (2, 1)})

    def test_capacity_forces_collision(self):
        # 4 loops need 8 distinct points; the projective line over F_5
        # only has 6
        graph = DualGraph((0,), ((0, 0),) * 4)
        branch = {}
        k = 0
        for e in range(4):
            for side in (1, 2):
                branch[(e, side)] = (k % 5, 1) if k < 5 else INFINITY
                k += 1
        with pytest.raises(ValueError, match="collision"):
            GraphCurve(graph, 5, branch)

    def test_canonical_point(self):
        assert canonical_point(7, 5) == (2, 1)
        assert canonical_point("inf", 5) == INFINITY
        assert canonical_point((3, 2), 5) == (4, 1)  # 3/2 = 4 mod 5
        assert canonical_point((2, 0), 5) == INFINITY

    def test_gluing_must_be_nonzero(self):
        curve = two_cycle_curve(5)
        with pytest.raises(ValueError, match="vanishes"):
            h0(curve, GluedLineBundle((0, 0), (1, 5)))


class TestH0:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_two_cycle_constants_glue_only_trivially(self, p):
        curve = two_cycle_curve(p)
        assert h0(curve, GluedLineBundle((0, 0), (1, 1))) == 1
        for c in range(2, p):
            assert h0(curve, GluedLineBundle((0, 0), (1, c))) == 0

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(25):
            curve = random_rational_curve(rng, prime=5, max_v=2, max_e=3)
            degrees = tuple(
                rng.randrange(-1, 2) for _ in range(curve.graph.num_vertices)
            )
            if sum(max(d + 1, 0) for d in degrees) > 6:
                continue
            gluing = tuple(
                rng.randrange(1, 5) for _ in range(curve.graph.num_edges)
            )
            bundle = GluedLineBundle(degrees, gluing)
            assert h0(curve, bundle) == brute_h0(curve, bundle)

    def test_vanishing_conditions_are_vandermonde(self):
        curve = two_cycle_curve(11)
        bundle = GluedLineBundle((3, -1), (1, 1))
        # vanishing at distinct smooth points drops h0 one by one
        base = h0(curve, bundle)
        points = [(2, 1), (3, 1), (4, 1)]
        for k in range(1, 4):
            vanishing = [(0, pt, 1) for pt in points[:k]]
            assert h0(curve, bundle, vanishing) == max(base - k, 0)

    def test_multiplicity_conditions(self):
        graph = DualGraph((0,), ((0, 0),))
        curve = GraphCurve(graph, 11, {(0, 1): (0, 1), (0, 2): (1, 1)})
        bundle = GluedLineBundle((4,), (3,))
        base = h0(curve, bundle)
        assert base == 4
        assert h0(curve, bundle, [(0, (5, 1), 2)]) == base - 2
        assert h0(curve, bundle, [(0, INFINITY, 2)]) == base - 2

    def test_conditions_overlapping_gluing_do_not_double_count(self):
        # the degree -1 side already forces vanishing at both nodes, so a
        # repeated condition at the branch point adds only one new row
        curve = two_cycle_curve(11)
        bundle = GluedLineBundle((4, -1), (1, 1))
        base = h0(curve, bundle)
        assert h0(curve, bundle, [(0, INFINITY, 1)]) == base
        assert h0(curve, bundle, [(0, INFINITY, 2)]) == base - 1


class TestSectionSpace:
    def test_basis_satisfies_gluing(self):
        curve = theta_curve(11)
        bundle = GluedLineBundle((0, 1), (1, 6, 2))
        space = section_space(curve, bundle)
        assert space.dim == h0(curve, bundle)
        for sec in space.basis:
            for e, (u, v) in enumerate(curve.graph.edges):
                lhs = evaluate_form(sec[v], curve.branch[(e, 2)], 11)
                rhs = bundle.gluing[e] * evaluate_form(
                    sec[u], curve.branch[(e, 1)], 11)
                assert (lhs - rhs) % 11 == 0

    def test_negative_degree_blocks_empty(self):
        curve = two_cycle_curve(5)
        space = section_space(curve, GluedLineBundle((2, -1), (1, 1)))
        for sec in space.basis:
            assert sec[1] == ()


class TestBlowUp:
    def test_two_cycle_example(self):
        curve = two_cycle_curve(11)
        bundle = trivial_bundle(curve)
        restricted = restrict_bundle(curve, bundle, {0})
        direct = h0(delete_edges(curve, {0}), restricted)
        assert h0_blowup(curve, {0}, bundle) == direct == 1

    def test_empty_subset_is_plain_h0(self, rng):
        curve = theta_curve(11)
        bundle = GluedLineBundle((1, 0), (3, 4, 5))
        assert h0_blowup(curve, (), bundle) == h0(curve, bundle)


class TestAbelImage:
    def test_always_has_a_section(self, rng):
        curve = theta_curve(11)
        for pt in curve.smooth_points_of(1):
            bundle = abel_image(curve, [(1, pt)])
            assert bundle.degrees == (0, 1)
            assert h0(curve, bundle) >= 1

    def test_stable_degree_no_forced_vanishing(self, rng):
        curve = theta_curve(13)
        for _ in range(50):
            pt = rng.choice(curve.smooth_points_of(1))
            bundle = abel_image(curve, [(1, pt)])
            forced = forced_vanishing_nodes(curve, bundle, range(3))
            assert forced.nodes == ()

    def test_rejects_branch_point(self):
        curve = theta_curve(11)
        with pytest.raises(ValueError, match="collides"):
            abel_image(curve, [(1, (0, 1))])

    @pytest.mark.parametrize("vertex", [2, -1])
    def test_rejects_vertex_off_curve(self, vertex):
        with pytest.raises(ValueError, match=f"vertex {vertex} is not on the curve"):
            abel_image(theta_curve(11), [(1, 5), (vertex, 3)])

    def test_repeated_points_allowed(self):
        curve = theta_curve(11)
        bundle = abel_image(curve, [(1, 5), (1, 5)])
        assert bundle.degrees == (0, 2)
        assert h0(curve, bundle) >= 1


class TestForcedVanishing:
    def test_empty_space_returns_flagged_universe(self):
        curve = two_cycle_curve(7)
        bundle = GluedLineBundle((0, 0), (1, 3))  # only the trivial class glues
        forced = forced_vanishing_nodes(curve, bundle, (0, 1))
        assert forced.empty_section_space is True
        assert forced.nodes == (0, 1)

    def test_constructed_base_node(self):
        # a degree -1 component forces every section to vanish at the node
        # joining it to the rest
        graph = DualGraph((0, 0), ((0, 1), (1, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (2, 1)}
        curve = GraphCurve(graph, 11, branch)
        bundle = GluedLineBundle((-1, 2), (1, 1))
        assert h0(curve, bundle) == 1
        forced = forced_vanishing_nodes(curve, bundle, (0, 1))
        assert 0 in forced.nodes
        assert forced.empty_section_space is False


class TestWCount:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_trivial_class_unique_on_cycles(self, p, length):
        curve = cycle_curve(length, p)
        result = w_count(curve, (0,) * length)
        assert result.count == 1
        assert result.total == p - 1
        # and that unique class has exactly one section
        assert h0(curve, trivial_bundle(curve)) == 1

    def test_free_edges_off_forest(self):
        curve = theta_curve(5)
        assert free_gluing_edges(curve) == (1, 2)

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_trivial_class_unique_at_larger_primes(self, p):
        result = w_count(cycle_curve(3, p), (0, 0, 0))
        assert result.count == 1

    def test_tree_curve_has_empty_torus(self):
        # a single node between two lines: no free gluings, so the scan
        # covers exactly one class
        graph = DualGraph((0, 0), ((0, 1),))
        curve = GraphCurve(graph, 7, {(0, 1): (0, 1), (0, 2): (0, 1)})
        result = w_count(curve, (0, 0))
        assert (result.count, result.total) == (1, 1)
        assert w_count(curve, (-1, -1)).count == 0

    @pytest.mark.parametrize("degrees, r", [((0, 1, -1), 0), ((0, 1, -1), 1),
                                            ((-1, 0, -1), 0), ((1, 1, 1), 1)])
    def test_forest_counts_in_both_modes(self, degrees, r):
        # a path of three lines: the torus is one point, and a sample
        # counts it once per draw
        graph = DualGraph((0, 0, 0), ((0, 1), (1, 2)))
        curve = GraphCurve(graph, 11, {(0, 1): (0, 1), (0, 2): (0, 1),
                                       (1, 1): (1, 1), (1, 2): (0, 1)})
        want = brute_torus_count(curve, degrees, r)
        assert w_count(curve, degrees, r=r).count == want
        result = w_count(curve, degrees, r=r, mode="sample", sample_size=1000, seed=1)
        assert (result.count, result.total) == (1000 * want, 1000)

    def test_edgeless_curve(self):
        curve = GraphCurve(DualGraph((0,), ()), 7, {})
        assert h0(curve, GluedLineBundle((3,), ())) == 4
        assert h0(curve, GluedLineBundle((-1,), ())) == 0
        # no gluing rows: every coefficient vector is a section
        space = section_space(curve, GluedLineBundle((2,), ()))
        assert space.basis == (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
        assert space.dim == 3
        assert section_space(curve, GluedLineBundle((-1,), ())).basis == ()

    def test_r_above_dimension_gives_zero(self):
        curve = theta_curve(5)
        result = w_count(curve, (0, 1), r=3)
        assert result.count == 0
        assert result.exponent_estimate is None

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("THETA_STRATA_BUDGET", "10")
        curve = theta_curve(11)
        with pytest.raises(BudgetExceededError):
            w_count(curve, (0, 1))

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-5"])
    def test_budget_setting_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("THETA_STRATA_BUDGET", raw)
        with pytest.raises(BudgetSettingError, match=f"THETA_STRATA_BUDGET.*{raw!r}"):
            rank_budget()
        with pytest.raises(BudgetSettingError):
            w_count(theta_curve(5), (0, 1))

    @pytest.mark.parametrize("raw, want", [("", DEFAULT_RANK_BUDGET), ("1", 1), ("250", 250)])
    def test_budget_setting_accepted(self, monkeypatch, raw, want):
        monkeypatch.setenv("THETA_STRATA_BUDGET", raw)
        assert rank_budget() == want

    def test_sample_mode_deterministic(self):
        curve = theta_curve(11)
        a = w_count(curve, (0, 1), mode="sample", sample_size=200, seed=42)
        b = w_count(curve, (0, 1), mode="sample", sample_size=200, seed=42)
        assert a == b
        with pytest.raises(ValueError):
            w_count(curve, (0, 1), mode="sample", sample_size=200)

    def test_known_theta_counts(self):
        # frozen counts, cross-checked against the symbolic determinant in
        # the probes tests
        counts = {p: w_count(theta_curve(p), (0, 1)).count for p in (5, 7, 11)}
        assert counts == {5: 3, 7: 5, 11: 9}

    def test_rejects_negative_r_and_empty_sample(self):
        curve = theta_curve(11)
        with pytest.raises(ValueError, match="r must be nonnegative"):
            w_count(curve, (0, 1), r=-2)
        for size in (0, -3):
            with pytest.raises(ValueError, match="sample_size"):
                w_count(curve, (0, 1), mode="sample", sample_size=size, seed=1)

    @pytest.mark.parametrize("p", [2, 3, 11])
    def test_exhaustive_matches_per_point_ranks(self, p):
        # random curves with forests, loops, k = 0 free edges and
        # degree -1 components (zero columns), against one h0 per point
        rng = random.Random(p)
        for _ in range(40):
            curve = random_rational_curve(rng, prime=p, max_e=3 if p == 11 else 4)
            n = curve.graph.num_vertices
            degrees = tuple(rng.randrange(-1, 3) for _ in range(n))
            r = rng.randrange(0, 3)
            assert w_count(curve, degrees, r=r).count == brute_torus_count(curve, degrees, r)

    @pytest.mark.parametrize("degrees", [(0, 1), (1, 1)])
    def test_sample_at_large_prime_matches_per_point_ranks(self, degrees):
        # p above 2^31 runs the stacked elimination on exact integers
        p = 2147483659
        curve = theta_curve(p)
        result = w_count(curve, degrees, mode="sample", sample_size=300, seed=5)
        rng = random.Random(5)
        expected = sum(
            h0(curve, GluedLineBundle(degrees, (1, rng.randrange(1, p), rng.randrange(1, p))))
            >= 1
            for _ in range(300)
        )
        assert (result.count, result.total) == (expected, 300)


class TestTorusAction:
    def test_tree_normalize(self, rng):
        for _ in range(50):
            curve = random_rational_curve(rng)
            degrees = tuple(
                rng.randrange(-1, 3) for _ in range(curve.graph.num_vertices)
            )
            gluing = tuple(
                rng.randrange(1, 11) for _ in range(curve.graph.num_edges)
            )
            bundle = GluedLineBundle(degrees, gluing)
            normalized = tree_normalize(curve, bundle)
            assert normalized.tree_normalized
            for e in curve.graph.spanning_forest():
                assert normalized.gluing[e] == 1
            assert h0(curve, bundle) == h0(curve, normalized)


class TestFitExponent:
    def test_origin_model(self):
        fit = fit_exponent({5: 5, 7: 7, 11: 11})
        assert fit.slope == pytest.approx(1.0)
        assert fit.max_residual == pytest.approx(0.0)

    def test_empty_and_single(self):
        assert fit_exponent({5: 0, 7: 0}).empty is True
        single = fit_exponent({5: 0, 7: 3})
        assert single.empty is False and single.slope is None

    def test_constant_counts(self):
        fit = fit_exponent({5: 1, 7: 1, 11: 1})
        assert fit.slope == pytest.approx(0.0)
