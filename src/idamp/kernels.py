"""Matrix amplitude kernels for N identical particles.

The joint transition amplitude of N non-interacting identical particles is a
matrix function of the N x N single-particle amplitude matrix: the permanent
for bosons and the determinant for fermions. Distinguishable particles have
no amplitude-level function, only a classical probability rule.

Fast kernels (Ryser inclusion-exclusion for the permanent, partially pivoted
elimination for the determinant) are paired with brute-force permutation
expansions that act as independent test oracles.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import islice, permutations

import numpy as np

from .errors import (
    AmplitudeError,
    ExchangeClassError,
    MatrixShapeError,
    MatrixSizeError,
)

try:
    import numba
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None

#: Cap on the brute-force permutation expansions (n! terms).
NAIVE_MAX_N = 10

#: Cap on the Ryser kernel (2^n subsets); guards against runaway runtime.
RYSER_MAX_N = 24

_PERM_BATCH = 40320  # 8!; keeps the n=9,10 expansions within ~10 MB


class ExchangeClass(Enum):
    """Behavior of the joint amplitude under particle relabeling."""

    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixShapeError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise MatrixShapeError("matrix dimensions must be >= 1")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise MatrixShapeError("matrix entries must be finite")
    return a


def _has_zero_line(a: np.ndarray) -> bool:
    zero = a == 0
    return bool(zero.all(axis=1).any() or zero.all(axis=0).any())


def _has_duplicate_lines(a: np.ndarray) -> bool:
    # Bitwise-equal rows or columns. Duplicates must force an exact zero
    # determinant; cancellation in floating point is only approximate, so the
    # elimination kernel cannot be trusted to produce it.
    n = a.shape[0]
    for j in range(n):
        for k in range(j + 1, n):
            if np.array_equal(a[:, j], a[:, k]) or np.array_equal(a[j], a[k]):
                return True
    return False


def _batch_parities(batch: np.ndarray) -> np.ndarray:
    """Permutation signs (+-1) for a batch of one-line permutations."""
    m, n = batch.shape
    inversions = np.zeros(m, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += batch[:, i] > batch[:, j]
    return 1 - 2 * (inversions & 1)


@lru_cache(maxsize=None)
def _cached_permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    arr = np.array(list(permutations(range(n))), dtype=np.intp)
    return arr, _batch_parities(arr)


def _permutation_batches(n: int):
    """Yield (permutations, parities) batches; cached whole for n <= 8."""
    if n <= 8:
        yield _cached_permutations(n)
        return
    it = permutations(range(n))
    while batch := list(islice(it, _PERM_BATCH)):
        arr = np.array(batch, dtype=np.intp)
        yield arr, _batch_parities(arr)


def permanent_naive(matrix) -> complex:
    """Brute-force permanent: sum over all n! permutations of row products.

    Exact oracle for the Ryser kernel; capped at n <= NAIVE_MAX_N.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if n > NAIVE_MAX_N:
        raise MatrixSizeError(f"permanent_naive supports n <= {NAIVE_MAX_N}, got {n}")
    rows = np.arange(n)
    total = 0.0 + 0.0j
    for batch, _ in _permutation_batches(n):
        total += a[rows[None, :], batch].prod(axis=1).sum()
    return complex(total)


def determinant_naive(matrix) -> complex:
    """Signed permutation expansion of the determinant (test oracle, n <= 10)."""
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if n > NAIVE_MAX_N:
        raise MatrixSizeError(f"determinant_naive supports n <= {NAIVE_MAX_N}, got {n}")
    rows = np.arange(n)
    total = 0.0 + 0.0j
    for batch, parities in _permutation_batches(n):
        prods = a[rows[None, :], batch].prod(axis=1)
        total += (parities * prods).sum()
    return complex(total)


def _ryser_gray_reference(a: np.ndarray) -> complex:
    """Pure-Python Gray-code Ryser walk; fallback and bitwise reference."""
    n = a.shape[0]
    cols = [[complex(a[i, j]) for i in range(n)] for j in range(n)]
    sums = [0j] * n
    in_subset = [False] * n
    total = 0j
    count = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        col = cols[j]
        if in_subset[j]:
            in_subset[j] = False
            count -= 1
            for i in range(n):
                sums[i] -= col[i]
        else:
            in_subset[j] = True
            count += 1
            for i in range(n):
                sums[i] += col[i]
        prod = 1 + 0j
        for i in range(n):
            prod *= sums[i]
        if (n - count) & 1:
            total -= prod
        else:
            total += prod
    return total


def _ryser_gray_impl(a):  # pragma: no cover - exercised through the jit wrapper
    n = a.shape[0]
    sums = np.zeros(n, dtype=np.complex128)
    in_subset = np.zeros(n, dtype=np.bool_)
    total = 0.0 + 0.0j
    count = 0
    for k in range(1, 1 << n):
        j = 0
        while (k >> j) & 1 == 0:
            j += 1
        if in_subset[j]:
            in_subset[j] = False
            count -= 1
            for i in range(n):
                sums[i] = sums[i] - a[i, j]
        else:
            in_subset[j] = True
            count += 1
            for i in range(n):
                sums[i] = sums[i] + a[i, j]
        prod = 1.0 + 0.0j
        for i in range(n):
            prod = prod * sums[i]
        if (n - count) & 1 == 1:
            total = total - prod
        else:
            total = total + prod
    return total


if numba is not None:
    _ryser_gray_jit = numba.njit(cache=True)(_ryser_gray_impl)
else:  # pragma: no cover
    _ryser_gray_jit = None


def permanent_ryser(matrix) -> complex:
    """Permanent via Ryser inclusion-exclusion, O(2^n * n).

    Subsets are visited in binary-reflected Gray-code order with a running
    row-sum vector; the summation order is fixed so results are reproducible
    run to run. An all-zero row or column short-circuits to an exact 0.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if n > RYSER_MAX_N:
        raise MatrixSizeError(f"permanent_ryser supports n <= {RYSER_MAX_N}, got {n}")
    if _has_zero_line(a):
        return 0j
    if _ryser_gray_jit is not None:
        return complex(_ryser_gray_jit(np.ascontiguousarray(a)))
    return _ryser_gray_reference(a)  # pragma: no cover


def determinant(matrix) -> complex:
    """Determinant via closed forms (n <= 3) or partially pivoted elimination.

    Exact zeros are returned for any zero row/column and for bitwise-repeated
    rows or columns, so that exclusion results come out as true zeros rather
    than elimination round-off.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if _has_zero_line(a):
        return 0j
    if n == 1:
        return complex(a[0, 0])
    if _has_duplicate_lines(a):
        return 0j
    if n == 2:
        return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if n == 3:
        return complex(
            a[0, 0] * a[1, 1] * a[2, 2]
            + a[0, 1] * a[1, 2] * a[2, 0]
            + a[0, 2] * a[1, 0] * a[2, 1]
            - a[0, 2] * a[1, 1] * a[2, 0]
            - a[0, 0] * a[1, 2] * a[2, 1]
            - a[0, 1] * a[1, 0] * a[2, 2]
        )
    u = a.copy()
    sign = 1.0 + 0.0j
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if u[p, k] == 0:
            return 0j
        if p != k:
            u[[k, p], k:] = u[[p, k], k:]
            sign = -sign
        factors = u[k + 1 :, k] / u[k, k]
        u[k + 1 :, k + 1 :] -= np.outer(factors, u[k, k + 1 :])
    det = sign
    for k in range(n):
        det *= u[k, k]
    return complex(det)


def two_particle_amplitude(matrix, exchange_class: ExchangeClass) -> complex:
    """Joint amplitude for two identical particles from a 2x2 matrix.

    Bosons: a00*a11 + a01*a10. Fermions: a00*a11 - a01*a10.
    """
    a = as_square_matrix(matrix)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got shape {a.shape}")
    direct = a[0, 0] * a[1, 1]
    crossed = a[0, 1] * a[1, 0]
    if exchange_class is ExchangeClass.BOSON:
        return complex(direct + crossed)
    if exchange_class is ExchangeClass.FERMION:
        return complex(direct - crossed)
    raise ExchangeClassError(
        "distinguishable particles have no joint amplitude; "
        "use distinguishable_probability"
    )


def n_particle_amplitude(matrix, exchange_class: ExchangeClass) -> complex:
    """Joint amplitude for N identical particles from an N x N matrix.

    Permanent for bosons, determinant for fermions. The 2x2 case delegates to
    two_particle_amplitude so both entry points agree bit for bit.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if exchange_class is ExchangeClass.DISTINGUISHABLE:
        raise ExchangeClassError(
            "distinguishable particles have no joint amplitude; "
            "use distinguishable_probability"
        )
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return two_particle_amplitude(a, exchange_class)
    if exchange_class is ExchangeClass.BOSON:
        return permanent_ryser(a)
    return determinant(a)


def distinguishable_probability(matrix) -> float:
    """Classical baseline: permanent of the entrywise squared-modulus matrix.

    Requires each row's squared moduli to sum to at most 1 (physical,
    subunitary single-particle transitions).
    """
    a = as_square_matrix(matrix)
    weights = a.real * a.real + a.imag * a.imag
    row_sums = weights.sum(axis=1)
    if np.any(row_sums > 1.0 + 1e-9):
        raise AmplitudeError(
            f"row squared moduli must sum to <= 1, max {row_sums.max()!r}"
        )
    return weight_permanent(weights)


def weight_permanent(weights) -> float:
    """Permanent of an entrywise nonnegative matrix of squared moduli.

    The value is mathematically nonnegative; inclusion-exclusion round-off
    down to -1e-12 is reported as 0, anything lower raises.
    """
    value = permanent_ryser(weights).real
    if value < 0.0:
        if value < -1e-12:
            raise AmplitudeError(f"negative probability {value!r}")
        value = 0.0
    return value
