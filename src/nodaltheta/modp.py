"""Exact dense linear algebra over a prime field F_p.

Single matrices are lists of row lists with entries already reduced mod
p, handled in plain integer arithmetic: the gluing systems are tiny (at
most a few dozen rows), so per-matrix numpy overhead would dominate.
Scans that need the rank of many same-shaped matrices (one per point of
a gluing torus) stack them and call ``batch_rank``, which eliminates the
whole stack at once with numpy.  numpy is imported by ``batch_rank`` and
``stack_dtype`` alone, so the single-matrix routines and the budget below
load without it.

The rank budget caps the work of one computation, the rank computations
of an exhaustive scan or the determinants of a theta polynomial;
``THETA_STRATA_BUDGET`` overrides the default.  ``charge`` is the one
check against it.
"""

from __future__ import annotations

import os

#: Default cap on the work of one computation, in rank computations or
#: determinants.
DEFAULT_RANK_BUDGET = 20_000_000

#: What an exhaustive scan charges, as a ``charge`` message template.
EXHAUSTIVE_SCAN = "exhaustive scan needs {} rank computations"


class BudgetExceededError(RuntimeError):
    """A computation would need more work than the budget allows; ``work``
    is a template that names the work, filled in with ``cost``."""

    def __init__(self, cost: int, budget: int, work: str):
        super().__init__(f"{work.format(cost)}, budget is {budget}")
        self.cost = cost
        self.budget = budget


class BudgetSettingError(ValueError):
    """``THETA_STRATA_BUDGET`` is set to something other than a positive
    integer."""


def rank_budget() -> int:
    """Active rank-computation budget (env THETA_STRATA_BUDGET overrides)."""
    raw = os.environ.get("THETA_STRATA_BUDGET")
    if not raw:
        return DEFAULT_RANK_BUDGET
    problem = f"THETA_STRATA_BUDGET: need an integer >= 1, got {raw!r}"
    try:
        budget = int(raw)
    except ValueError as exc:
        raise BudgetSettingError(problem) from exc
    if budget < 1:
        raise BudgetSettingError(problem)
    return budget


def charge(cost: int, work: str) -> None:
    """Refuse with ``BudgetExceededError`` when ``cost`` units of ``work``
    (a template such as ``EXHAUSTIVE_SCAN``) exceed the active budget."""
    budget = rank_budget()
    if cost > budget:
        raise BudgetExceededError(cost, budget, work)


#: Miller-Rabin with the prime bases up to 41 is exact below this bound,
#: the least strong pseudoprime to all of them (Sorenson and Webster,
#: Math. Comp. 2017).
PRIMALITY_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(_WITNESSES)


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; ``ValueError`` at or
    above ``PRIMALITY_LIMIT``, where the fixed bases are not proven."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"{n} is past the exact primality limit {PRIMALITY_LIMIT}")
    if n <= _WITNESSES[-1]:
        return n in _SMALL_PRIMES
    if any(n % a == 0 for a in _WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inverse(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(a, p - 2, p)


def row_echelon(rows, p):
    """In-place forward elimination.  Returns the pivot columns and the
    product of the pivots divided out, negated once per row swap: the
    determinant when the input is square and every column has a pivot."""
    if not rows:
        return [], 1
    m, n = len(rows), len(rows[0])
    pivots, scale = [], 1
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = scale * rows[r][c] * (-1 if pivot != r else 1) % p
        inv = inverse(rows[r][c], p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, scale


def determinant(rows, p) -> int:
    """Determinant mod p of a square matrix (1 for the 0 x 0 matrix)."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant needs a square matrix")
    pivots, scale = row_echelon([list(r) for r in rows], p)
    return scale if len(pivots) == len(rows) else 0


def rank(rows, p) -> int:
    return len(row_echelon([list(r) for r in rows], p)[0])


def nullity(rows, ncols, p) -> int:
    return ncols - rank(rows, p)


def nullspace(rows, ncols, p):
    """Basis of the right kernel, one vector per free column of the RREF."""
    work = [list(r) for r in rows]
    pivots, _ = row_echelon(work, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-work[r][fc]) % p
        basis.append(vec)
    return basis


def stack_dtype(p: int):
    """Element type of a matrix stack mod p: int64 for p < 2^31, where
    every product of two entries stays below 2^62, exact Python integers
    (object) beyond that."""
    import numpy as np

    return np.int64 if p < 2 ** 31 else object


def batch_rank(stack, p: int):
    """Ranks mod p of a stack of matrices of shape (N, m, n).

    Entries must lie in [0, p) and the dtype must be ``stack_dtype(p)``.
    Fraction-free forward elimination: column by column, each matrix picks
    its own pivot among the rows not yet used as pivots, and those rows
    become ``piv * row_i - a_ic * row_pivot`` reduced mod p, so no inverse
    is taken and no intermediate reaches p^2.  The rank is the number of
    pivot rows.  The input is not modified.
    """
    import numpy as np

    count, m, n = stack.shape
    used = np.zeros((count, m), dtype=bool)
    a = stack.copy()
    mats = np.arange(count)
    for c in range(n):
        candidates = (a[:, :, c] != 0) & ~used
        has = candidates.any(axis=1)
        if not has.any():
            continue
        pivot = candidates.argmax(axis=1)
        prow = a[mats, pivot, c:]
        used[mats[has], pivot[has]] = True
        rest = ~used & has[:, None]
        scale = np.where(rest, prow[:, :1], 1)
        factor = np.where(rest, a[:, :, c], 0)
        # column c itself is never read again, so only the columns after it
        a[:, :, c + 1:] = (scale[:, :, None] * a[:, :, c + 1:]
                           - factor[:, :, None] * prow[:, None, 1:]) % p
    return np.count_nonzero(used, axis=1)
