"""The theta determinant on all-rational curves: its terms, its factor
count, its zeros on the gluing torus and the h0 >= r + 1 counts that
rank only the points over its double zeros, both against the rank scan,
and the irreducibility of Theta_d on a seeded family."""

import hashlib
import itertools
import random

import pytest

from conftest import (
    brute_factor_count,
    brute_zero_count,
    random_rational_curve,
    square_degrees,
    theta_curve,
    two_loops_two_nodes_curve,
)
from nodaltheta.dual_graph import DualGraph
from nodaltheta.graph_curve import (
    INFINITY,
    GluedLineBundle,
    GraphCurve,
    ThetaPolynomial,
    free_gluing_edges,
    h0,
    rank_scan,
    rational_curve,
    symbolic_theta_polynomial,
    w_count,
)
from nodaltheta.modp import BudgetExceededError
from nodaltheta.multidegree import enumerate_stable

# SHA-256 of the terms of the 1,200 ``square_cases`` below, as the sympy
# Berkowitz expansion that computed the determinant before the F_p
# elimination gave them
TERMS_DIGEST = "c53021ace9f4ca938acbe6f9f416af00769d3703aceb959d382fe790520be819"


def square_cases(count=1200, seed=20):
    """Seeded square cases at p in {5, 7, 11, 13}: curves with at most 3
    vertices and 5 edges, so at most 5 free scalars."""
    rng = random.Random(seed)
    for i in range(count):
        curve = random_rational_curve(rng, prime=(5, 7, 11, 13)[i % 4], max_v=3, max_e=5)
        yield curve, square_degrees(rng, curve.graph)


def terms_digest(polys) -> str:
    h = hashlib.sha256()
    for poly in polys:
        h.update(repr((poly.prime, poly.free_edges, poly.terms)).encode() + b"\n")
    return h.hexdigest()


def test_terms_match_the_sympy_digest():
    polys = [symbolic_theta_polynomial(curve, degrees) for curve, degrees in square_cases()]
    assert len(polys) >= 1000
    assert terms_digest(polys) == TERMS_DIGEST


def test_factor_count_matches_bipartition_oracle():
    counts = set()
    for curve, degrees in square_cases():
        poly = symbolic_theta_polynomial(curve, degrees)
        if len(poly.variables) <= 5:
            count = poly.factor_count()
            assert count == brute_factor_count(poly.terms, poly.prime), poly
            counts.add(count)
    assert counts >= {None, 0, 1, 2, 3}


@pytest.mark.parametrize("p", [2, 3, 5, 2 ** 61 - 1])
def test_factor_count_of_random_products(p):
    # products of random multilinear factors on disjoint groups of at most
    # 5 variables; each nonconstant factor holds at least one irreducible
    rng = random.Random(p)
    for _ in range(200):
        k = rng.randrange(6)
        group = [rng.randrange(3) for _ in range(k)]
        poly = {(0,) * k: 1 + rng.randrange(p - 1)}
        nonconstant = 0
        for g in range(3):
            own = [i for i in range(k) if group[i] == g]
            factor = {}
            for bits in itertools.product((0, 1), repeat=len(own)):
                expo = [0] * k
                for i, b in zip(own, bits):
                    expo[i] = b
                factor[tuple(expo)] = rng.randrange(p)
            nonconstant += any(c and any(e) for e, c in factor.items())
            poly = {tuple(a + b for a, b in zip(e1, e2)): c1 * c2 % p
                    for e1, c1 in poly.items() for e2, c2 in factor.items()}
        terms = tuple(sorted((e, c) for e, c in poly.items() if c))
        theta = ThetaPolynomial(prime=p, free_edges=tuple(range(k)), terms=terms)
        count = theta.factor_count()
        assert count == brute_factor_count(terms, p), terms
        assert count is None or count >= nonconstant


def test_theta_irreducible_verified_on_seeded_rational_family():
    """Verified on 1,200 seeded all-rational curves (at most 4 vertices and
    7 edges, p in {7, 11, 13}; the bridgeless ones of genus >= 1 carry the
    stable classes): the theta determinant of every stable multidegree has
    exactly one irreducible factor, so Theta_d is irreducible there, as
    Caporaso states (arXiv 0707.4602)."""
    rng = random.Random(5)
    classes = 0
    for i in range(1200):
        curve = random_rational_curve(rng, prime=(7, 11, 13)[i % 3], max_v=4, max_e=7)
        if curve.graph.arithmetic_genus() < 1:
            continue
        for degrees in enumerate_stable(curve.graph):
            assert symbolic_theta_polynomial(curve, degrees).factor_count() == 1, (curve, degrees)
            classes += 1
    assert classes > 1000


# -- zeros on the gluing torus ---------------------------------------------

GENERIC_PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7)]
HYPERELLIPTIC_PAIRS = [(1, -1), (2, -2), (3, -3), (4, -4)]


def torus_rank_scan(curve, degrees, r=0):
    """The h0 >= r + 1 count over the whole torus by one rank per point."""
    return rank_scan(curve, degrees, r, (curve.prime - 1) ** len(free_gluing_edges(curve)))


def trivalent_curve_at_two(num_vertices, edges):
    """A curve over F_2 whose lines each carry at most three nodes, put at
    0, 1 and infinity in edge order."""
    points = [(0, 1), (1, 1), INFINITY]
    used = [0] * num_vertices
    branch = {}
    for e, (u, v) in enumerate(edges):
        for side, w in ((1, u), (2, v)):
            branch[(e, side)] = points[used[w]]
            used[w] += 1
    return GraphCurve(DualGraph((0,) * num_vertices, tuple(edges)), 2, branch)


def small_square_family():
    """Seeded square cases at p in {2, 3, 5, 7, 11, 13}, with at most 3
    lines and 5 nodes (4 at p = 11, 3 at p = 13).  The random curves at
    p = 2 have at most one free scalar, so the theta graph, K4 and the
    triangular prism over F_2 join them, with every square degree."""
    rng = random.Random(23)
    for i in range(480):
        p = (2, 3, 5, 7, 11, 13)[i % 6]
        curve = random_rational_curve(rng, prime=p, max_v=3, max_e={11: 4, 13: 3}.get(p, 5))
        yield curve, square_degrees(rng, curve.graph)
    for n, edges in ((2, [(0, 1)] * 3),
                     (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
                     (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])):
        curve = trivalent_curve_at_two(n, edges)
        for degrees in itertools.product(range(-1, 3), repeat=n):
            if sum(d + 1 for d in degrees) == len(edges):
                yield curve, degrees


def test_zero_count_matches_rank_scan_on_small_family():
    # the determinant count, w_count, the rank scan and evaluation at
    # every point agree on every case
    seen = set()
    for curve, degrees in small_square_family():
        poly = symbolic_theta_polynomial(curve, degrees)
        want = torus_rank_scan(curve, degrees)
        assert poly.zero_count() == brute_zero_count(poly) == want, (curve, degrees)
        assert w_count(curve, degrees).count == want, (curve, degrees)
        seen.add((curve.prime, len(poly.variables) > 1, poly.is_identically_zero))
    # identically zero determinants are all g = h = 0 in zero_count's split
    assert seen >= {(p, True, z) for p in (2, 3, 5, 7, 11, 13) for z in (False, True)}


@pytest.mark.parametrize("p", [11, 13, 17, 31])
@pytest.mark.parametrize("pairs", [GENERIC_PAIRS, HYPERELLIPTIC_PAIRS],
                         ids=["generic", "hyperelliptic"])
def test_genus_four_counts_match_rank_scan(pairs, p):
    curve = rational_curve(p, pairs)
    poly = symbolic_theta_polynomial(curve, (3,))
    want = torus_rank_scan(curve, (3,))
    assert w_count(curve, (3,)).count == poly.zero_count() == want
    if p == 11:
        assert brute_zero_count(poly) == want
    assert w_count(curve, (3,), r=1).count == torus_rank_scan(curve, (3,), 1)


@pytest.mark.parametrize("seed", [3, 5, 8, 13, 21, 34, 55, 89])
def test_sample_counts_match_rank_scan(seed):
    # the same seeded draws, in the same order, on both paths; for r = 1
    # w_count ranks only the draws over g = h = 0, and on the hyperelliptic
    # genus-3 curve at p = 7 the g^1_2 is one of the 216 torus points; on
    # the last curve f is identically zero, so it ranks every draw
    banana = GraphCurve(DualGraph((0, 0), ((0, 1),) * 4), 17,
                        {(e, side): (e + side - 1, 1) for e in range(4) for side in (1, 2)})
    theta = rational_curve(13, [(1, 2), (3, 4), (5, 6)])
    hyperelliptic = rational_curve(7, HYPERELLIPTIC_PAIRS[:3])
    for curve, degrees in ((banana, (1, 1)), (theta, (2,)), (hyperelliptic, (2,)),
                           (two_loops_two_nodes_curve(7), (0, 2))):
        for r in (0, 1):
            result = w_count(curve, degrees, r=r, mode="sample", sample_size=700, seed=seed)
            assert result.count == rank_scan(curve, degrees, r, 700, random.Random(seed))


def test_sample_mode_budgets_the_determinants(monkeypatch):
    # 700 draws take the determinant path, whose 2^3 determinants are
    # charged to the budget as in every other caller
    monkeypatch.setenv("THETA_STRATA_BUDGET", "4")
    curve = two_loops_two_nodes_curve(7)
    assert len(free_gluing_edges(curve)) == 3
    with pytest.raises(BudgetExceededError) as info:
        w_count(curve, (0, 2), mode="sample", sample_size=700, seed=3)
    assert (info.value.cost, info.value.budget) == (8, 4)


# -- W^r for r >= 1: ranking the points over g = h = 0 ---------------------

def test_w_r_counts_match_rank_scan_on_square_family():
    # seeded square systems with at most 4 lines and 6 nodes, those whose
    # torus has at most 4,096 points, at p in {2, 3, 5, 7, 11, 13}
    rng = random.Random(24)
    seen, nonzero = set(), 0
    for i in range(1000):
        p = (2, 3, 5, 7, 11, 13)[i % 6]
        curve = random_rational_curve(rng, prime=p, max_v=4, max_e=6)
        degrees = square_degrees(rng, curve.graph)
        k = len(free_gluing_edges(curve))
        if (p - 1) ** k > 4096:
            continue
        vanishing = symbolic_theta_polynomial(curve, degrees).is_identically_zero
        for r in (1, 2, 3):
            count = w_count(curve, degrees, r=r).count
            assert count == torus_rank_scan(curve, degrees, r), (curve, degrees, r)
            nonzero += count > 0 and p > 3 and k > 0 and not vanishing
        seen.add((k > 0, vanishing))
    # forests, identically zero determinants, and nonzero counts from the
    # determinant path (p > 3, a free scalar, f not identically zero)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert nonzero >= 10


def test_w_r_with_one_free_scalar():
    # a path of three lines with a loop on the middle one: k = 1, so g and
    # h are constants and only an identically zero f leaves points to rank
    graph = DualGraph((0, 0, 0), ((0, 1), (1, 2), (1, 1)))
    branch = {(0, 1): (0, 1), (0, 2): (0, 1), (1, 1): (1, 1), (1, 2): (0, 1),
              (2, 1): (2, 1), (2, 2): (3, 1)}
    seen = set()
    for p in (5, 7, 11):
        curve = GraphCurve(graph, p, branch)
        for degrees in itertools.product(range(-2, 3), repeat=3):
            if sum(max(d + 1, 0) for d in degrees) != 3:
                continue
            vanishing = symbolic_theta_polynomial(curve, degrees).is_identically_zero
            for r in (1, 2):
                count = w_count(curve, degrees, r=r).count
                assert count == torus_rank_scan(curve, degrees, r), (p, degrees, r)
                seen.add((vanishing, count > 0))
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("degrees", [(0, 1), (1, 0)])
def test_w1_sample_at_large_prime(degrees):
    # exact object integers above 2^31; the torus is past any budget
    curve = theta_curve(2147483659)
    result = w_count(curve, degrees, r=1, mode="sample", sample_size=300, seed=5)
    assert (result.count, result.total) == (rank_scan(curve, degrees, 1, 300, random.Random(5)), 300)


def test_zero_count_without_free_scalars():
    assert ThetaPolynomial(5, (), (((), 3),)).zero_count() == 0
    assert ThetaPolynomial(5, (), ()).zero_count() == 1


def test_zero_count_at_large_prime(monkeypatch):
    # exact object integers above 2^31: 3*c0 - 5 has the one root 5/3
    p = 2147483659
    monkeypatch.setenv("THETA_STRATA_BUDGET", str(p))
    poly = ThetaPolynomial(p, (0,), (((0,), p - 5), ((1,), 3)))
    assert poly.zero_count() == 1
    assert ThetaPolynomial(p, (0,), (((1,), 3),)).zero_count() == 0


def test_zero_count_budget_caps_the_torus(monkeypatch):
    poly = symbolic_theta_polynomial(rational_curve(11, GENERIC_PAIRS), (3,))
    monkeypatch.setenv("THETA_STRATA_BUDGET", "9999")
    with pytest.raises(BudgetExceededError) as info:
        poly.zero_count()
    assert (info.value.cost, info.value.budget) == (10_000, 9_999)


def test_many_free_edges_at_two():
    # the prism over a 25-cycle at p = 2: 50 lines, each with its 3 points
    # taken by nodes, 75 nodes and 26 free scalars.  The torus is a single
    # point, so w_count ranks it instead of taking 2^26 determinants, which
    # the default budget refuses.
    n = 25
    edges = ([tuple(sorted((i, (i + 1) % n))) for i in range(n)]
             + [tuple(sorted((n + i, n + (i + 1) % n))) for i in range(n)]
             + [(i, n + i) for i in range(n)])
    curve = trivalent_curve_at_two(2 * n, edges)
    degrees = (1,) * n + (0,) * n
    result = w_count(curve, degrees)
    assert (result.total, len(free_gluing_edges(curve))) == (1, 26)
    assert result.count == (h0(curve, GluedLineBundle(degrees, (1,) * len(edges))) >= 1)
    with pytest.raises(BudgetExceededError):
        symbolic_theta_polynomial(curve, degrees)
