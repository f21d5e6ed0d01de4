import math
import random

import numpy as np
import pytest

from conftest import brute_det, brute_is_prime, brute_rank
from nodaltheta.modp import (
    PRIMALITY_LIMIT,
    batch_rank,
    determinant,
    is_prime,
    rank,
    stack_dtype,
)

# 2^61 - 1 overflows int64 products: only exact integers get it right
PRIMES = [2, 3, 11, 2147483659, 2 ** 61 - 1]


def random_matrix(rng, p, m, n, deficient):
    """Random m x n matrix mod p; ``deficient`` builds every row from fewer
    than m random rows, so the rank is below m."""
    if deficient and m > 1:
        base = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, m))]
        rows = []
        for _ in range(m):
            coeffs = [rng.randrange(p) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) % p for j in range(n)])
        return rows
    return [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("p", PRIMES)
def test_batch_rank_matches_rank(p):
    rng = random.Random(p)
    for trial in range(80):
        m, n = rng.randrange(0, 6), rng.randrange(0, 6)
        mats = [random_matrix(rng, p, m, n, trial % 2 == 0)
                for _ in range(rng.randrange(0, 25))]
        stack = np.array(mats, dtype=stack_dtype(p)).reshape(len(mats), m, n)
        before = stack.copy()
        assert batch_rank(stack, p).tolist() == [rank(rows, p) for rows in mats]
        assert np.array_equal(stack, before)


@pytest.mark.parametrize("p", PRIMES)
def test_batch_rank_degenerate_shapes(p):
    dtype = stack_dtype(p)
    for shape in [(0, 3, 3), (4, 0, 3), (4, 3, 0), (2, 0, 0)]:
        assert batch_rank(np.zeros(shape, dtype), p).tolist() == [0] * shape[0]
    zeros_and_identity = np.stack([np.zeros((3, 3), np.int64), np.eye(3, dtype=np.int64)])
    zeros_and_identity = zeros_and_identity.astype(dtype)
    assert batch_rank(zeros_and_identity, p).tolist() == [0, 3]


def test_stack_dtype_switches_at_int64_safe_primes():
    assert stack_dtype(2147483647) is np.int64
    assert stack_dtype(2147483659) is object


@pytest.mark.parametrize("p", PRIMES)
def test_determinant_matches_minor_expansion(p):
    rng = random.Random(p)
    singular = 0
    for trial in range(150):
        n = rng.randrange(1, 6)
        rows = random_matrix(rng, p, n, n, trial % 3 == 0)
        det = determinant(rows, p)
        assert det == brute_det(rows, p)
        singular += det == 0
    assert singular >= 30
    assert determinant([], p) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_determinant_of_scaled_permutation(p):
    # every column but the last needs a row swap: det = sign * prod(scales)
    n = 5
    perm = [n - 1] + list(range(n - 1))  # a 5-cycle, sign +1
    scales = [(3 * i + 2) % p or 1 for i in range(n)]
    rows = [[scales[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    assert determinant(rows, p) == brute_det(rows, p) == math.prod(scales) % p
    rows[0], rows[1] = rows[1], rows[0]
    assert determinant(rows, p) == brute_det(rows, p) == -math.prod(scales) % p


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        determinant([[1, 2, 3], [4, 5, 6]], 7)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_minor_oracle(p):
    rng = random.Random(p)
    for trial in range(60):
        rows = random_matrix(rng, p, rng.randrange(1, 5), rng.randrange(1, 5), trial % 2 == 0)
        assert rank(rows, p) == brute_rank(rows, p)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n) != brute_is_prime(n)] == []


def test_is_prime_on_pseudoprimes_and_large_primes():
    strong_pseudoprimes = [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
    carmichael = [561, 41041]
    assert not any(is_prime(n) for n in strong_pseudoprimes + carmichael + [2 ** 64 - 57])
    assert all(is_prime(p) for p in PRIMES + [2 ** 64 - 59])


def test_is_prime_refuses_past_the_limit():
    # the limit is composite, yet a strong probable prime to every base
    assert PRIMALITY_LIMIT == 1287836182261 * 2575672364521
    assert is_prime(1287836182261) and is_prime(2575672364521)
    for n in (PRIMALITY_LIMIT, PRIMALITY_LIMIT + 2):
        with pytest.raises(ValueError, match="primality limit"):
            is_prime(n)
