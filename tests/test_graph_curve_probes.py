import itertools

import pytest

from conftest import brute_node_scan, brute_rank, theta_curve, two_cycle_curve
from nodaltheta.dual_graph import DualGraph
from nodaltheta.graph_curve import (
    INFINITY,
    GluedLineBundle,
    GraphCurve,
    ThetaPolynomial,
    abel_image,
    classify_one_node,
    forced_vanishing_nodes,
    h0,
    hyperelliptic_rational,
    node_quadric,
    rational_curve,
    section_space,
    symbolic_theta_polynomial,
    w_count,
    w1_dimension_probe,
)
from nodaltheta.multidegree import is_semistable


def sqrt_mod(a, p):
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    return None


class TestClassifyOneNode:
    def test_independent_branches(self):
        # separating the node leaves one node joining two degree-1 lines:
        # both twists drop independently, so every gluing has h0 = a - 1
        # and no vanishing is forced at the node
        graph = DualGraph((0, 0), ((0, 1), (0, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (1, 1)}
        curve = GraphCurve(graph, 13, branch)
        bundle = GluedLineBundle((1, 1), (1, 5))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "independent_branches"
        assert (report.h0_base, report.h0_minus_both) == (3, 1)
        assert report.generic_h0 == 2
        assert report.scan_histogram == ((2, 12),)
        assert report.locus == "all"  # r = 0 and h0 = 2 everywhere
        # no gluing forces vanishing at the node
        for c in range(1, 13):
            b = GluedLineBundle((1, 1), (c, 5))
            assert 0 not in forced_vanishing_nodes(curve, b, (0,)).nodes

    def test_unique_special_gluing_from_one_section(self):
        # a single loop on one line with degree 0: one section, vanishing
        # at neither branch; exactly one gluing (the trivial one) glues it
        graph = DualGraph((0,), ((0, 0),))
        curve = GraphCurve(graph, 13, {(0, 1): (2, 1), (0, 2): (5, 1)})
        bundle = GluedLineBundle((0,), (1,))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "linked_branches"
        assert report.h0_base == 1
        assert (report.h0_minus_q1, report.h0_minus_q2) == (0, 0)
        assert report.special_h0 == 1 and report.special_gluing == 1
        assert report.scan_histogram == ((0, 11), (1, 1))
        assert report.locus == "point"

    def test_special_gluing_past_any_scan(self):
        # p - 1 scalars are far too many to scan, but the special gluing is
        # read off one section: on the loop it is 1, and on two degree-0
        # lines joined twice it is the other node's scalar
        p = 2**31 + 11
        loop = GraphCurve(DualGraph((0,), ((0, 0),)), p,
                          {(0, 1): (2, 1), (0, 2): (5, 1)})
        report = classify_one_node(loop, 0, GluedLineBundle((0,), (1,)))
        assert report.case == "linked_branches"
        assert report.special_gluing == 1
        assert report.scan_histogram == ((0, p - 2), (1, 1))
        report = classify_one_node(two_cycle_curve(p), 0,
                                   GluedLineBundle((0, 0), (1, 123456789)))
        assert report.case == "linked_branches"
        assert report.special_gluing == 123456789
        assert report.scan_histogram == ((0, p - 2), (1, 1))

    def test_linked_branches_at_two(self):
        # F_2 has the single scalar 1, which is the special gluing, so the
        # generic value has no scalar and drops out of the histogram
        curve = GraphCurve(DualGraph((0,), ((0, 0),)), 2,
                           {(0, 1): (0, 1), (0, 2): (1, 1)})
        bundle = GluedLineBundle((0,), (1,))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "linked_branches"
        assert (report.generic_h0, report.special_h0) == (0, 1)
        assert report.special_gluing == 1
        assert report.scan_histogram == ((1, 1),)
        assert brute_node_scan(curve, 0, bundle) == (report.scan_histogram, 1)

    def test_linked_branches_with_two_sections(self):
        # theta curve, focus on the last node, degrees (1, 1): the other
        # two gluings can be tuned so that vanishing at one branch forces
        # the other, giving a unique gluing with h0 = a = 2
        curve = theta_curve(13)
        hit = None
        for c1, c2 in itertools.product(range(1, 13), repeat=2):
            bundle = GluedLineBundle((1, 1), (c1, c2, 1))
            report = classify_one_node(curve, 2, bundle)
            if report.case == "linked_branches" and report.h0_base == 2:
                hit = report
                break
        assert hit is not None
        assert hit.special_h0 == 2
        assert hit.scan_histogram == ((1, 11), (2, 1))

    def test_single_branch_base_point(self):
        # degree -1 on the far side: the section space never moves there,
        # so one branch is a base point and no gluing ever glues
        graph = DualGraph((0, 0), ((0, 1), (0, 0)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (2, 1)}
        curve = GraphCurve(graph, 13, branch)
        bundle = GluedLineBundle((2, -1), (1, 4))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "single_branch_base_point"
        assert report.generic_h0 == report.h0_base - 1
        assert report.locus in ("all", "empty")

    def test_both_branches_base_points(self):
        # central line of degree 2 with forced vanishing toward two
        # degree -1 tails: every section vanishes at both branches of the
        # node joining the tails, so h0 never drops with the gluing
        graph = DualGraph((0, 0, 0), ((0, 1), (2, 0), (2, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (1, 1),
                  (2, 1): (2, 1), (2, 2): (2, 1)}
        curve = GraphCurve(graph, 13, branch)
        bundle = GluedLineBundle((-1, -1, 2), (1, 1, 1))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "both_branches_base_points"
        assert report.h0_base == 1
        assert report.scan_histogram == ((1, 12),)
        assert report.locus == "all"

    def test_separating_focus_edge(self):
        # normalizing at a separating node disconnects the curve; the
        # histogram is then constant in the gluing (the torus acts
        # transitively on the fiber) and the branches drop independently
        graph = DualGraph((0, 0), ((0, 1),))
        curve = GraphCurve(graph, 7, {(0, 1): (0, 1), (0, 2): (0, 1)})
        report = classify_one_node(curve, 0, GluedLineBundle((0, 0), (1,)))
        assert report.case == "independent_branches"
        assert report.scan_histogram == ((1, 6),)

    def test_no_sections(self):
        graph = DualGraph((0, 0), ((0, 1), (0, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (1, 1)}
        curve = GraphCurve(graph, 13, branch)
        bundle = GluedLineBundle((-1, -1), (1, 1))
        report = classify_one_node(curve, 0, bundle)
        assert report.case == "no_sections"
        assert report.locus == "empty"

    def test_r_shifts_the_locus(self):
        graph = DualGraph((0, 0), ((0, 1), (0, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (0, 1),
                  (1, 1): (1, 1), (1, 2): (1, 1)}
        curve = GraphCurve(graph, 13, branch)
        bundle = GluedLineBundle((1, 1), (1, 5))
        assert classify_one_node(curve, 0, bundle, r=0).locus == "all"
        assert classify_one_node(curve, 0, bundle, r=1).locus == "all"
        assert classify_one_node(curve, 0, bundle, r=2).locus == "empty"


class TestHyperelliptic:
    def test_square_map_fibers(self):
        for p in (11, 13):
            curve = rational_curve(p, [(1, -1), (2, -2), (3, -3), (4, -4)])
            assert hyperelliptic_rational(curve) is True

    def test_generic_pairs(self):
        for p in (11, 13):
            curve = rational_curve(p, [(0, 1), (2, 3), (4, 5), (6, 7)])
            assert hyperelliptic_rational(curve) is False

    def test_constructed_pencil_member(self):
        # third pair built inside the pencil spanned by the first two
        p = 11
        pairs = [(1, -1), (2, -2)]
        # members of span{X^2 - Z^2, X^2 - 4Z^2} are X^2 - tZ^2; pick a
        # square t distinct from 1 and 4
        t = next(
            t for t in range(2, p)
            if t not in (1, 4) and sqrt_mod(t, p) is not None
        )
        r = sqrt_mod(t, p)
        pairs.append((r, -r))
        curve = rational_curve(p, pairs)
        assert hyperelliptic_rational(curve) is True

    def test_rank_matches_minor_oracle(self):
        for pairs in ([(1, -1), (2, -2), (3, -3)],
                      [(0, 1), (2, 3), (4, "inf")],
                      [(1, -1), (2, -2), (3, -3), (4, -4)],
                      [(0, 1), (2, 3), (4, 5), (6, 7)]):
            curve = rational_curve(13, pairs)
            rows = [list(node_quadric(curve, e))
                    for e in range(curve.graph.num_edges)]
            assert hyperelliptic_rational(curve) == (brute_rank(rows, 13) <= 2)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="genus"):
            hyperelliptic_rational(rational_curve(11, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="irreducible"):
            hyperelliptic_rational(theta_curve(11))


class TestW1Probe:
    def test_genus3_generic_is_empty(self):
        probe = w1_dimension_probe([(0, 1), (2, 3), (4, 5)], [7, 11, 13])
        assert probe.counts == {7: 0, 11: 0, 13: 0}
        assert probe.fit.empty is True

    def test_genus3_hyperelliptic_unique_class(self):
        # dimension g - 3 = 0; the unique double-cover class is rational
        # over every prime, so each count is exactly one
        probe = w1_dimension_probe([(1, -1), (2, -2), (3, -3)], [7, 11, 13])
        assert probe.counts == {7: 1, 11: 1, 13: 1}
        assert probe.fit.slope == pytest.approx(0.0)

    def test_hyperelliptic_class_has_two_sections(self):
        # the class counted above: gluing scalars of the degree-2 pencil
        curve = rational_curve(11, [(1, -1), (2, -2), (3, -3)])
        # sections X^2 and Z^2 glue with scalar s(q2)/s(q1) = 1 for fibers
        # of the square map, so the trivial gluing carries the pencil
        bundle = GluedLineBundle((2,), (1, 1, 1))
        assert h0(curve, bundle) == 2

    def test_needs_genus_three(self):
        with pytest.raises(ValueError):
            w1_dimension_probe([(0, 1), (2, 3)], [7, 11])


class TestSymbolicDeterminant:
    def test_two_cycle_linear_polynomial(self):
        curve = two_cycle_curve(5)
        poly = symbolic_theta_polynomial(curve, (0, 0))
        assert poly.variables == ("c1",)
        assert poly.terms == (((0,), 4), ((1,), 1))  # c - 1 mod 5
        assert poly.zero_count() == 1
        assert poly.factor_count() == 1

    @pytest.mark.parametrize("terms, variables, want", [
        ((((), 3),), (), 0),          # a nonzero constant is a unit
        ((((1,), 3),), ("c1",), 1),   # 3*c1
        ((), ("c1",), None),          # the zero polynomial
    ])
    def test_factor_count_counts_irreducible_factors(self, terms, variables, want):
        poly = ThetaPolynomial(prime=5, free_edges=tuple(range(len(variables))),
                               terms=terms, variables=variables)
        assert poly.factor_count() == want

    @pytest.mark.parametrize("p", [5, 7])
    def test_zero_set_matches_w_count(self, p):
        curve = theta_curve(p)
        poly = symbolic_theta_polynomial(curve, (0, 1))
        assert not poly.is_identically_zero
        assert poly.zero_count() == w_count(curve, (0, 1)).count

    def test_identically_zero_for_non_semistable(self):
        # two loops on one component plus two connecting nodes; putting
        # all the degree on the far side violates the subcurve bound and
        # every gluing admits a section
        graph = DualGraph((0, 0), ((0, 0), (0, 0), (0, 1), (0, 1)))
        branch = {(0, 1): (0, 1), (0, 2): (1, 1),
                  (1, 1): (2, 1), (1, 2): (3, 1),
                  (2, 1): (4, 1), (2, 2): (0, 1),
                  (3, 1): INFINITY, (3, 2): (1, 1)}
        curve = GraphCurve(graph, 7, branch)
        degrees = (0, 2)
        assert not is_semistable(curve.graph, degrees)
        poly = symbolic_theta_polynomial(curve, degrees)
        assert poly.is_identically_zero
        # cross-check: every gluing admits a section
        result = w_count(curve, degrees)
        assert result.count == result.total

    def test_rejects_non_square(self):
        curve = theta_curve(5)
        with pytest.raises(ValueError, match="square"):
            symbolic_theta_polynomial(curve, (1, 1))

    def test_variable_cap(self):
        pairs = [(k, k + 7) for k in range(7)]
        curve = rational_curve(31, pairs)
        with pytest.raises(ValueError, match="free scalars"):
            symbolic_theta_polynomial(curve, (6,))


class TestStatisticalProbes:
    def test_forced_base_point_fraction_shrinks(self):
        # semistable degree: the locus of Abel images whose sections all
        # vanish at a fixed marked point is a proper subvariety, so its
        # share of a sample drops as the prime grows
        import random

        fractions = {}
        for p in (11, 101):
            curve = theta_curve(p)
            marked = (5, 1)
            sample = random.Random(7)
            smooth = [pt for pt in curve.smooth_points_of(1) if pt != marked]
            hits = 0
            n = 200
            for _ in range(n):
                bundle = abel_image(curve, [(1, sample.choice(smooth))])
                space = section_space(curve, bundle)
                from nodaltheta.graph_curve import evaluate_form

                if all(evaluate_form(sec[1], marked, p) == 0
                       for sec in space.basis):
                    hits += 1
            fractions[p] = hits / n
        assert fractions[101] <= 0.1
        assert fractions[101] <= fractions[11] + 0.05

    def test_vanishing_locus_count_stays_bounded(self):
        # for the theta curve the forced-vanishing locus inside the
        # effective locus is 0-dimensional, so its exhaustive count does
        # not grow with the prime
        for p in (5, 7, 11, 13):
            curve = theta_curve(p)
            count = 0
            for c1, c2 in itertools.product(range(1, p), repeat=2):
                bundle = GluedLineBundle((0, 1), (1, c1, c2))
                if h0(curve, bundle) >= 1:
                    forced = forced_vanishing_nodes(curve, bundle, (0, 1, 2))
                    if forced.nodes:
                        count += 1
            assert count <= 4
