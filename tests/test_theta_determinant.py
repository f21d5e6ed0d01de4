"""The theta determinant on all-rational curves: its terms, its factor
count and the irreducibility of Theta_d on a seeded family."""

import hashlib
import itertools
import random

import pytest

from conftest import brute_factor_count, random_rational_curve
from nodaltheta.graph_curve import ThetaPolynomial, symbolic_theta_polynomial
from nodaltheta.multidegree import enumerate_stable

# SHA-256 of the terms of the 1,200 ``square_cases`` below, as the sympy
# Berkowitz expansion that computed the determinant before the F_p
# elimination gave them
TERMS_DIGEST = "c53021ace9f4ca938acbe6f9f416af00769d3703aceb959d382fe790520be819"


def square_degrees(rng: random.Random, graph):
    """Random degrees with ``sum(max(d + 1, 0)) == number of edges``: the
    edges are split among the vertices, and a vertex given none gets
    degree -1 or -2."""
    cuts = sorted(rng.randrange(graph.num_edges + 1) for _ in range(graph.num_vertices - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [graph.num_edges])]
    return tuple(k - 1 if k else -1 - rng.randrange(2) for k in parts)


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
        theta = ThetaPolynomial(prime=p, free_edges=tuple(range(k)), terms=terms,
                                variables=tuple(f"c{i}" for i in range(k)))
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
