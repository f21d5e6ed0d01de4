"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exhaustive family: every connected multigraph with at most 4
vertices and 7 edges (up to isomorphism), decorated with all vertex genera
up to 2.

Criterion 5 is expected to fail: the valency shortcut for irreducibility
is refuted by the star-of-bananas counterexample, where the stable-class
count (cross-validated here by exhaustive orientation enumeration) says
irreducible while the shortcut says not.  The failure message names the
smallest counterexample; the engineering notes ship with the review
materials, not the package.
"""

import itertools
import math
import random
import time
from math import comb

import pytest

from conftest import (
    brute_bridges,
    brute_node_scan,
    cycle_curve,
    random_rational_curve,
    theta_curve,
    two_cycle_curve,
)
from nodaltheta.dual_graph import DualGraph
from nodaltheta.families import (
    connected_multigraphs,
    genus_decorations,
    orientation_multidegree_sets,
    translate,
)
from nodaltheta.graph_curve import (
    INFINITY,
    GluedLineBundle,
    GraphCurve,
    abel_image,
    classify_one_node,
    delete_edges,
    fit_exponent,
    h0,
    h0_blowup,
    hyperelliptic_rational,
    node_quadric,
    normalization_h0,
    rational_curve,
    restrict_bundle,
    torus_rescale,
    w_count,
    w1_dimension_probe,
)
from nodaltheta.multidegree import enumerate_semistable, enumerate_stable, \
    is_semistable, is_stable, stabilize
from nodaltheta.strata import (
    enumerate_picard_strata,
    is_picard_irreducible,
    is_theta_irreducible,
    picard_valency_criterion,
    theta_strata,
    theta_valency_criterion,
)

MAX_VERTICES, MAX_EDGES, MAX_GENUS = 4, 7, 2

_cache = {}


def family():
    """Exhaustive graph family with orientation degree sets, computed once."""
    if "family" not in _cache:
        out = []
        for graph in connected_multigraphs(MAX_VERTICES, MAX_EDGES):
            all_d, stable_d = orientation_multidegree_sets(graph)
            out.append((graph, all_d, stable_d))
        _cache["family"] = out
    return _cache["family"]


def ok(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {detail}")


def test_criterion_01_definition_equivalence():
    """Subcurve-inequality stability agrees with orientation realizability
    for every multidegree in the bound box, exhaustively."""
    start = time.time()
    graphs = 0
    decorated = 0
    spot = random.Random(1)
    for graph, all_d, stable_d in family():
        graphs += 1
        for dec in genus_decorations(graph, MAX_GENUS):
            genera = dec.genera
            expected_ss = sorted(translate(d, genera) for d in all_d)
            expected_st = sorted(translate(d, genera) for d in stable_d)
            assert enumerate_semistable(dec) == expected_ss, dec
            assert enumerate_stable(dec) == expected_st, dec
            decorated += 1
            if spot.random() < 0.002:
                ss = set(expected_ss)
                stable = set(expected_st)
                for d in expected_ss[:4]:
                    assert is_semistable(dec, d)
                    assert is_stable(dec, d) == (d in stable)
                probe = tuple(x + 1 for x in expected_ss[0])
                if sum(probe) != dec.arithmetic_genus() - 1 or probe not in ss:
                    assert not is_semistable(dec, probe)
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime target missed: {elapsed:.1f}s"
    ok(1, f"{graphs} graphs, {decorated} decorated, exact agreement, "
          f"{elapsed:.1f}s")


def test_criterion_02_stable_empty_iff_separating_node():
    checked = 0
    for graph, _all_d, stable_d in family():
        bridges = brute_bridges(graph)
        assert (not stable_d) == bool(bridges), graph.edges
        assert graph.bridges() == bridges
        for dec in genus_decorations(graph, MAX_GENUS):
            assert (not enumerate_stable(dec)) == bool(bridges), dec
            checked += 1
    ok(2, f"{len(family())} graphs ({checked} decorations), "
          "empty stable set exactly at separating nodes")


def test_criterion_03_two_component_stratum_counts():
    for delta in (2, 3, 4, 5, 6):
        for g1, g2 in ((0, 0), (1, 2), (2, 2)):
            graph = DualGraph((g1, g2), tuple((0, 1) for _ in range(delta)))
            g = graph.arithmetic_genus()
            assert len(enumerate_stable(graph)) == delta - 1
            strata = enumerate_picard_strata(graph)
            by_size = {}
            for s in strata:
                by_size.setdefault(len(s.nodes), []).append(s)
            for k in range(1, delta - 1):
                assert len(by_size[k]) == (delta - k - 1) * comb(delta, k)
                assert all(g - s.dim == k for s in by_size[k])
            assert delta - 1 not in by_size
            assert len(by_size[delta]) == 1
            last = by_size[delta][0]
            assert last.degree == (g1 - 1, g2 - 1)
            assert g - last.dim == delta - 1
    ok(3, "stable-class and stratum counts match the closed formulas for "
          "2-vertex graphs, delta = 2..6")


def test_criterion_04_bridge_stabilization():
    for g1, g2 in ((1, 1), (1, 2), (2, 3), (0, 2)):
        graph = DualGraph((g1, g2), ((0, 1),))
        assert enumerate_stable(graph.delete_edges({0})) == [(g1 - 1, g2 - 1)]
        for d in ((g1 - 1, g2), (g1, g2 - 1)):
            result = stabilize(graph, d)
            assert result.destabilizing_set == (0,)
            assert result.stable_degree == (g1 - 1, g2 - 1)
            assert result.degree_unique
    ok(4, "both strictly semistable classes on bridge graphs stabilize to "
          "(g1-1, g2-1)")


def test_criterion_05_irreducibility_valency_criteria():
    """Valency shortcuts versus direct class counting.

    This criterion fails by mathematical necessity: the star of bananas
    has a unique stable multidegree (verified here twice, by subcurve
    scan and by exhaustive orientations), yet its central vertex has
    valency 4.  The failure is expected and documented.
    """
    disagreements = []
    for graph, _all_d, stable_d in family():
        tilde = graph.delete_edges(graph.bridges())
        _tilde_all, tilde_stable = orientation_multidegree_sets(tilde)
        b = len(tilde_stable)
        assert b == len(enumerate_stable(tilde))
        c = len(tilde.connected_components())
        assert is_picard_irreducible(graph) == (b == 1)
        assert is_theta_irreducible(graph) == (c == 1 and b == 1)
        if picard_valency_criterion(graph) != (b == 1):
            disagreements.append(("picard", graph.edges, b))
        if theta_valency_criterion(graph) != (c == 1 and b == 1):
            disagreements.append(("theta", graph.edges, b))
    if not disagreements:
        ok(5, "valency criteria agree with class counting everywhere")
    smallest = min(disagreements, key=lambda t: (len(t[1]), t[1]))
    pytest.fail(
        f"ACCEPTANCE criterion 5: FAIL — valency shortcut disagrees with the "
        f"(doubly verified) stable-class count on {len(disagreements)} "
        f"family members; smallest counterexample: kind={smallest[0]}, "
        f"edges={smallest[1]}, stable classes={smallest[2]}. The class count "
        f"is the ground truth; see the review notes for the analysis."
    )


def test_criterion_06_theta_component_bookkeeping():
    checked = 0
    for graph, _all_d, _stable_d in family():
        bridges = brute_bridges(graph)
        tilde = graph.delete_edges(bridges)
        _ta, tilde_stable0 = orientation_multidegree_sets(tilde)
        for dec in genus_decorations(graph, 1):
            dec_tilde = dec.delete_edges(bridges)
            # independent route: removal-oracle bridges + orientation
            # enumeration for the stable classes
            b_independent = len({
                translate(d, dec_tilde.genera) for d in tilde_stable0
            })
            c_independent = len(dec_tilde.connected_components())
            lhs = (len(bridges) + 1) * len(enumerate_stable(dec_tilde))
            assert lhs == c_independent * b_independent
            checked += 1
    # the strata machinery reports the same numbers on a subfamily
    for graph, _a, _s in family():
        if graph.num_edges > 4:
            continue
        for dec in genus_decorations(graph, 1):
            _strata, summary = theta_strata(dec)
            tilde = dec.delete_edges(dec.bridges())
            assert summary.pieces == len(tilde.connected_components())
            assert summary.stable_classes == len(enumerate_stable(tilde))
            assert summary.component_count == \
                summary.pieces * summary.stable_classes
    ok(6, f"component bookkeeping c*b agrees across routes on {checked} "
          "decorated graphs")


def test_criterion_07_trivial_bundle_unique_on_cycles():
    for p in (5, 7, 11, 13):
        for length in (2, 3, 4, 5):
            curve = cycle_curve(length, p)
            zero = (0,) * length
            witnesses = []
            for c in range(1, p):
                gluing = (1,) * (length - 1) + (c,)
                value = h0(curve, GluedLineBundle(zero, gluing))
                if value > 0:
                    witnesses.append((c, value))
            assert witnesses == [(1, 1)], (p, length, witnesses)
            assert w_count(curve, zero).count == 1
    ok(7, "cycles of length 2..5 over p in {5,7,11,13}: exactly one gluing "
          "with sections, and it has exactly one")


def test_criterion_08_h0_bounds_and_blowup_equality():
    rng = random.Random(20260808)
    instances = 10_000
    for _ in range(instances):
        curve = random_rational_curve(rng)
        e = curve.graph.num_edges
        degrees = tuple(
            rng.randrange(-1, 3) for _ in range(curve.graph.num_vertices)
        )
        gluing = tuple(rng.randrange(1, 11) for _ in range(e))
        bundle = GluedLineBundle(degrees, gluing)
        value = h0(curve, bundle)
        upper = normalization_h0(degrees)
        assert upper - e <= value <= upper
        subset = tuple(x for x in range(e) if rng.random() < 0.4)
        exceptional = {
            x: (rng.randrange(1, 11), rng.randrange(1, 11)) for x in subset
        }
        lhs = h0_blowup(curve, subset, bundle, exceptional)
        rhs = h0(delete_edges(curve, subset),
                 restrict_bundle(curve, bundle, subset))
        assert lhs == rhs
    ok(8, f"{instances} randomized instances, zero violations of the h0 "
          "bounds or of blow-up invariance")


def test_criterion_09_effective_locus_dimension():
    start = time.time()
    primes = (5, 7, 11)
    # theta graph: arithmetic genus 2, expect growth exponent 1
    for degrees in ((0, 1), (1, 0)):
        counts = {}
        for p in primes:
            curve = theta_curve(p)
            histogram = {}
            for c1, c2 in itertools.product(range(1, p), repeat=2):
                value = h0(curve, GluedLineBundle(degrees, (1, c1, c2)))
                histogram[value] = histogram.get(value, 0) + 1
            in_locus = sum(n for v, n in histogram.items() if v >= 1)
            counts[p] = in_locus
            assert in_locus == w_count(curve, degrees).count
            exactly_one = histogram.get(1, 0)
            assert exactly_one / in_locus >= 1 - 8 / p, (degrees, p)
        fit = fit_exponent(counts)
        assert abs(fit.slope - 1) <= 0.35, (degrees, counts, fit)
    # banana graph: arithmetic genus 1, expect exponent 0
    counts = {}
    for p in primes:
        curve = two_cycle_curve(p)
        result = w_count(curve, (0, 0))
        counts[p] = result.count
        assert h0(curve, GluedLineBundle((0, 0), (1, 1))) == 1
    fit = fit_exponent(counts)
    assert abs(fit.slope - 0) <= 0.35, counts
    elapsed = time.time() - start
    assert elapsed < 300
    ok(9, f"growth exponents within 0.35 of g-1 and generic one-section "
          f"share at least 1 - 8/p, {elapsed:.1f}s")


def test_criterion_10_unstable_abel_images_have_two_sections():
    p = 11
    graph = DualGraph((0, 0), ((0, 0), (0, 0), (0, 1), (0, 1)))
    branch = {(0, 1): (0, 1), (0, 2): (1, 1),
              (1, 1): (2, 1), (1, 2): (3, 1),
              (2, 1): (4, 1), (2, 2): (0, 1),
              (3, 1): (5, 1), (3, 2): (1, 1)}
    curve = GraphCurve(graph, p, branch)
    degrees = (0, 2)
    assert sum(degrees) == graph.arithmetic_genus() - 1
    assert min(degrees) >= 0
    assert not is_semistable(graph, degrees)
    smooth = curve.smooth_points_of(1)
    checked = 0
    for pts in itertools.combinations_with_replacement(smooth, 2):
        bundle = abel_image(curve, [(1, pts[0]), (1, pts[1])])
        assert h0(curve, bundle) >= 2, pts
        checked += 1
    ok(10, f"all {checked} effective divisors in the exhaustive grid give "
           "at least two sections")


def test_criterion_11_one_node_case_oracle():
    """Every recorded case prediction, the h^0 histogram over the node's
    scalars and the special gluing, equals an exhaustive scan of h^0 at
    all p - 1 gluings."""
    p = 13
    rng = random.Random(20260811)
    buckets = {}

    def classify(curve, edge, bundle):
        report = classify_one_node(curve, edge, bundle)
        scanned = brute_node_scan(curve, edge, bundle)
        assert (report.scan_histogram, report.special_gluing) == scanned, report
        buckets.setdefault(report.case, []).append(report)
        return report

    def distinct_points(n):
        points = [(a, 1) for a in range(p)] + [INFINITY]
        return rng.sample(points, n)

    for _ in range(260):
        # two lines joined twice; independent drops are the generic case
        a1, a2 = distinct_points(2)
        b1, b2 = distinct_points(2)
        graph = DualGraph((0, 0), ((0, 1), (0, 1)))
        curve = GraphCurve(graph, p, {(0, 1): a1, (0, 2): b1,
                                      (1, 1): a2, (1, 2): b2})
        du, dv = rng.randrange(0, 3), rng.randrange(0, 3)
        bundle = GluedLineBundle((du, dv), (1, rng.randrange(1, p)))
        classify(curve, 0, bundle)
        # degenerate degrees populate the no-section case
        bundle = GluedLineBundle((-1, -1), (1, rng.randrange(1, p)))
        classify(curve, 0, bundle)

    for _ in range(260):
        # a degree -1 far side makes one branch a base point
        a1, a2, a3 = distinct_points(3)
        graph = DualGraph((0, 0), ((0, 1), (0, 0)))
        curve = GraphCurve(graph, p, {(0, 1): a1, (0, 2): a1,
                                      (1, 1): a2, (1, 2): a3})
        bundle = GluedLineBundle((rng.randrange(1, 4), -1),
                                 (1, rng.randrange(1, p)))
        classify(curve, 0, bundle)

    for _ in range(260):
        # hub with two degree -1 tails: both branches are base points
        tail0 = distinct_points(2)   # on component 0
        tail1 = distinct_points(2)   # on component 1
        hub = distinct_points(2)     # on component 2
        graph = DualGraph((0, 0, 0), ((0, 1), (2, 0), (2, 1)))
        curve = GraphCurve(graph, p, {(0, 1): tail0[0], (0, 2): tail1[0],
                                      (1, 1): hub[0], (1, 2): tail0[1],
                                      (2, 1): hub[1], (2, 2): tail1[1]})
        bundle = GluedLineBundle((-1, -1, rng.randrange(2, 4)),
                                 (1, 1, rng.randrange(1, p)))
        classify(curve, 0, bundle)

    for _ in range(260):
        # one loop on a line with degree 0: the unique-special-gluing case
        q1, q2 = distinct_points(2)
        graph = DualGraph((0,), ((0, 0),))
        curve = GraphCurve(graph, p, {(0, 1): q1, (0, 2): q2})
        classify(curve, 0, GluedLineBundle((0,), (1,)))

    # linked branches with two sections, found by scanning the side gluings
    hits = 0
    while hits < 40:
        a1, a2, a3 = distinct_points(3)
        b1, b2, b3 = distinct_points(3)
        curve = GraphCurve(DualGraph((0, 0), ((0, 1), (0, 1), (0, 1))), p,
                           {(0, 1): a1, (0, 2): b1, (1, 1): a2, (1, 2): b2,
                            (2, 1): a3, (2, 2): b3})
        for c1, c2 in itertools.product(range(1, p), repeat=2):
            report = classify(curve, 2, GluedLineBundle((1, 1), (c1, c2, 1)))
            if report.case == "linked_branches" and report.h0_base >= 2:
                hits += 1

    for case in ("no_sections", "single_branch_base_point",
                 "both_branches_base_points", "independent_branches",
                 "linked_branches"):
        assert len(buckets.get(case, ())) >= 200, \
            {k: len(v) for k, v in buckets.items()}
    # every report also fixes the shape of the locus for r = 0 and r = 1
    for case, reports in buckets.items():
        for report in reports[:50]:
            count = sum(n for v, n in report.scan_histogram if v >= 1)
            expected = {0: "empty", 1: "point", p - 1: "all"}[count]
            assert report.locus == expected
    sizes = {k: len(v) for k, v in sorted(buckets.items())}
    ok(11, f"scan-verified case counts {sizes}")


def test_criterion_12_rational_w1_dichotomy():
    """Growth dichotomy for the double-point locus on irreducible rational
    curves of arithmetic genus 4 and 3.

    The stated prime 5 cannot carry genus 4 at all: eight pairwise
    distinct branch points do not fit in a projective line with six
    points, and the square-map pairs already collide mod 7.  Both facts
    are asserted below; the probes therefore run over 11, 13, 17 (genus
    4) and 7, 11, 13 (genus 3).
    """
    hyp_pairs = [(1, -1), (2, -2), (3, -3), (4, -4)]
    gen_pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]

    # stated-prime infeasibility, asserted rather than silently skipped
    with pytest.raises(ValueError, match="collision"):
        rational_curve(5, hyp_pairs)
    with pytest.raises(ValueError, match="collision"):
        rational_curve(5, gen_pairs)
    with pytest.raises(ValueError, match="collision"):
        rational_curve(7, hyp_pairs)  # 3 = -4 and 4 = -3 mod 7
    # a pencil configuration does exist over 7, but its double-point
    # locus has no rational points there, which is why 7 contributes
    # nothing to a growth fit
    seven = rational_curve(7, [(1, 6), (3, 2), (5, 4), (0, "inf")])
    assert hyperelliptic_rational(seven) is True
    assert w_count(seven, (3,), r=1).count == 0

    primes4 = (11, 13, 17)
    hyp = w1_dimension_probe(hyp_pairs, primes4)
    assert all(n > 0 for n in hyp.counts.values()), hyp.counts
    assert abs(hyp.fit.slope - 1) <= 0.35, hyp  # g - 3 = 1
    for p in primes4:
        assert hyperelliptic_rational(rational_curve(p, hyp_pairs))

    gen = w1_dimension_probe(gen_pairs, primes4)
    assert max(gen.counts.values()) <= 4, gen.counts  # bounded: g - 4 = 0
    for p, n in gen.counts.items():
        if n > 0:
            assert math.log(n, p) <= 0.35
    for p in primes4:
        assert not hyperelliptic_rational(rational_curve(p, gen_pairs))

    g3 = w1_dimension_probe([(0, 1), (2, 3), (4, 5)], (7, 11, 13))
    assert g3.counts == {7: 0, 11: 0, 13: 0}

    # pencil-rank oracle agreement on a mixed bag of configurations
    rng = random.Random(12)
    agreements = 0
    for _ in range(40):
        p = rng.choice(primes4)
        points = rng.sample(range(p), 8)
        pairs = [(points[2 * i], points[2 * i + 1]) for i in range(4)]
        if rng.random() < 0.3:
            q = rng.sample(range(1, (p - 1) // 2 + 1), 4)
            pairs = [(x, -x) for x in q]
        curve = rational_curve(p, pairs)
        rows = [list(node_quadric(curve, e)) for e in range(4)]
        from conftest import brute_rank

        assert hyperelliptic_rational(curve) == (brute_rank(rows, p) <= 2)
        agreements += 1
    ok(12, f"hyperelliptic growth ~ p^1 {hyp.counts}, generic bounded "
           f"{gen.counts}, genus-3 generic empty, {agreements} oracle "
           "agreements; infeasibility of the stated small primes asserted")


def test_criterion_13_torus_action_invariance():
    rng = random.Random(20260813)
    instances = 10_000
    for _ in range(instances):
        curve = random_rational_curve(rng)
        degrees = tuple(
            rng.randrange(-1, 3) for _ in range(curve.graph.num_vertices)
        )
        gluing = tuple(
            rng.randrange(1, 11) for _ in range(curve.graph.num_edges)
        )
        bundle = GluedLineBundle(degrees, gluing)
        scalars = tuple(
            rng.randrange(1, 11) for _ in range(curve.graph.num_vertices)
        )
        assert h0(curve, bundle) == h0(
            curve, torus_rescale(curve, bundle, scalars))
    ok(13, f"{instances} random rescalings left h0 unchanged")
