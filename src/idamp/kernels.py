"""Matrix amplitude kernels for N identical particles.

The joint transition amplitude of N non-interacting identical particles is a
matrix function of the N x N single-particle amplitude matrix: the permanent
for bosons and the determinant for fermions. Distinguishable particles have
no amplitude-level function, only a classical probability rule.

Fast kernels (Ryser inclusion-exclusion for the permanent, partially pivoted
elimination for the determinant) are paired with brute-force permutation
expansions that act as independent test oracles. n_particle_amplitudes is the
one amplitude path: it evaluates a whole (S, N, N) stack at once, for the
verifier sweeps and for the experiment runner, which restricts its matrix to
every final configuration in one gather. The single-matrix entry points
(n_particle_amplitude, determinant, two_particle_amplitude) pass it a stack
of one.
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

_COMPARE_BUDGET = 1 << 16  # entries per comparison array in _duplicate_lines


class ExchangeClass(Enum):
    """Behavior of the joint amplitude under particle relabeling."""

    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"


def _as_square(matrix, ndim: int) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        kind = "square matrix" if ndim == 2 else "stack of square matrices"
        raise MatrixShapeError(f"expected a {kind}, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise MatrixShapeError("matrix dimensions must be >= 1")
    if not np.isfinite(a).all():
        raise MatrixShapeError("matrix entries must be finite")
    return a


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    return _as_square(matrix, 2)


def _zero_lines(a: np.ndarray):
    """True where a matrix (trailing two axes) has an all-zero row or column."""
    zero = a == 0
    return zero.all(axis=-1).any(axis=-1) | zero.all(axis=-2).any(axis=-1)


def _duplicate_lines(a: np.ndarray):
    """True where a matrix (trailing two axes) has bitwise-equal rows or columns.

    Duplicates must force an exact zero determinant; cancellation in floating
    point is only approximate, so elimination cannot be trusted to produce it.
    Lines are compared a chunk at a time, so the comparison arrays stay within
    max(_COMPARE_BUDGET, a.size) entries: O(n^2) for one large matrix.
    """
    n = a.shape[-1]
    step = max(1, _COMPARE_BUDGET // max(a.size, 1))
    found = np.zeros(a.shape[:-2], dtype=bool)
    for start in range(0, n, step):
        lines = slice(start, start + step)
        same_rows = (a[..., lines, None, :] == a[..., None, :, :]).all(axis=-1)
        same_columns = (a[..., :, lines, None] == a[..., :, None, :]).all(axis=-3)
        # Every line equals itself (entries are finite), so each chunk line
        # has one self hit; any further hit is a repeated line.
        found |= (same_rows | same_columns).sum(axis=(-2, -1)) > same_rows.shape[-2]
    return found


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
    if _zero_lines(a):
        return 0j
    if _ryser_gray_jit is not None:
        return complex(_ryser_gray_jit(np.ascontiguousarray(a)))
    return _ryser_gray_reference(a)  # pragma: no cover


def _pair_closed_form(a: np.ndarray, exchange_class: ExchangeClass):
    """a00*a11 +- a01*a10 over the trailing 2x2 axes."""
    direct = a[..., 0, 0] * a[..., 1, 1]
    crossed = a[..., 0, 1] * a[..., 1, 0]
    if exchange_class is ExchangeClass.BOSON:
        return direct + crossed
    return direct - crossed


def _triple_closed_form(a: np.ndarray, exchange_class: ExchangeClass):
    """Six-term permanent (bosons) or determinant (fermions) over the trailing 3x3 axes."""
    even = (
        a[..., 0, 0] * a[..., 1, 1] * a[..., 2, 2]
        + a[..., 0, 1] * a[..., 1, 2] * a[..., 2, 0]
        + a[..., 0, 2] * a[..., 1, 0] * a[..., 2, 1]
    )
    odd = (
        a[..., 0, 2] * a[..., 1, 1] * a[..., 2, 0],
        a[..., 0, 0] * a[..., 1, 2] * a[..., 2, 1],
        a[..., 0, 1] * a[..., 1, 0] * a[..., 2, 2],
    )
    if exchange_class is ExchangeClass.BOSON:
        return even + odd[0] + odd[1] + odd[2]
    return even - odd[0] - odd[1] - odd[2]


def n_particle_amplitude(matrix, exchange_class: ExchangeClass) -> complex:
    """Joint amplitude for N identical particles from an N x N matrix.

    Permanent for bosons, determinant for fermions: n_particle_amplitudes on
    a stack of one.
    """
    return complex(n_particle_amplitudes(as_square_matrix(matrix)[None], exchange_class)[0])


def determinant(matrix) -> complex:
    """Determinant, with exact zeros for a zero or bitwise-repeated line."""
    return n_particle_amplitude(matrix, ExchangeClass.FERMION)


def two_particle_amplitude(matrix, exchange_class: ExchangeClass) -> complex:
    """Joint amplitude for two identical particles from a 2x2 matrix.

    Bosons: a00*a11 + a01*a10. Fermions: a00*a11 - a01*a10.
    """
    a = as_square_matrix(matrix)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got shape {a.shape}")
    return complex(n_particle_amplitudes(a[None], exchange_class)[0])


def _permanent_stack(a: np.ndarray) -> np.ndarray:
    """Gray-code Ryser walk over a (S, n, n) stack: each subset is one
    array step on the stack axis, in the order _ryser_gray_reference uses."""
    n = a.shape[-1]
    columns = np.ascontiguousarray(a.transpose(2, 1, 0))  # columns[j]: (n, S)
    sums = np.zeros(columns.shape[1:], dtype=np.complex128)
    total = np.zeros(a.shape[0], dtype=np.complex128)
    in_subset = [False] * n
    count = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        if in_subset[j]:
            sums -= columns[j]
            count -= 1
        else:
            sums += columns[j]
            count += 1
        in_subset[j] = not in_subset[j]
        prod = np.prod(sums, axis=0)
        if (n - count) & 1:
            total -= prod
        else:
            total += prod
    return total


def _determinant_stack(a: np.ndarray) -> np.ndarray:
    """Partially pivoted elimination over a (S, n, n) stack. A zero pivot
    (an all-zero pivot column) leaves its column untouched (it is divided by
    1 instead) and gives an exact 0."""
    n = a.shape[-1]
    u = a.copy()
    samples = np.arange(a.shape[0])
    det = np.ones(a.shape[0], dtype=np.complex128)
    for k in range(n - 1):
        p = k + np.argmax(np.abs(u[:, k:, k]), axis=1)
        swapped = p != k
        det[swapped] = -det[swapped]
        pivot_row = u[samples, p, k:]
        u[samples, p, k:] = u[:, k, k:]
        u[:, k, k:] = pivot_row
        pivot = u[:, k, k]
        factors = u[:, k + 1 :, k] / np.where(pivot == 0, 1.0, pivot)[:, None]
        u[:, k + 1 :, k + 1 :] -= factors[:, :, None] * u[:, k, None, k + 1 :]
    diagonal = np.diagonal(u, axis1=1, axis2=2)
    for k in range(n):
        det *= diagonal[:, k]
    # Exact 0 even where the other diagonal factors overflow (inf * 0).
    det[(diagonal == 0).any(axis=1)] = 0
    return det


def n_particle_amplitudes(stack, exchange_class: ExchangeClass) -> np.ndarray:
    """Joint amplitudes of a (S, N, N) stack of matrices, as a (S,) array.

    The stack is validated once and each step is one array operation over
    the stack axis. N <= 3 uses the closed forms; larger N a Gray-code Ryser
    walk (bosons) or partially pivoted elimination (fermions). A single boson
    matrix takes the single-matrix Ryser walk instead, which costs about a
    third of the stacked walk for one matrix. A zero row or column, and for
    fermions a bitwise-repeated row or column, gives an exact 0. S may be 0.
    """
    a = _as_square(stack, 3)
    n = a.shape[-1]
    if exchange_class is ExchangeClass.DISTINGUISHABLE:
        raise ExchangeClassError(
            "distinguishable particles have no joint amplitude; use distinguishable_probability"
        )
    if n == 1:
        return a[:, 0, 0].copy()
    if n <= 3:
        closed_form = _pair_closed_form if n == 2 else _triple_closed_form
        values = closed_form(a, exchange_class)
        # A zero line puts a 0 factor in every closed-form term, so the value
        # is already exactly 0 unless another factor overflowed (inf * 0 is
        # NaN): only non-finite values need the (costly) line test.
        suspect = np.flatnonzero(~np.isfinite(values))
        values[suspect[_zero_lines(a[suspect])]] = 0
    else:
        if exchange_class is ExchangeClass.BOSON:
            if n > RYSER_MAX_N:
                raise MatrixSizeError(f"permanent supports n <= {RYSER_MAX_N}, got {n}")
            values = np.array([permanent_ryser(a[0])]) if len(a) == 1 else _permanent_stack(a)
        else:
            values = _determinant_stack(a)
        values[_zero_lines(a)] = 0
    if exchange_class is ExchangeClass.FERMION:
        values[_duplicate_lines(a)] = 0
    return values


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
    return float(weight_permanent(weights[None])[0])


def weight_permanent(weights) -> np.ndarray:
    """Permanents of a (S, N, N) stack of entrywise nonnegative matrices of
    squared moduli, as a (S,) float array.

    Each value is mathematically nonnegative; inclusion-exclusion round-off
    down to -1e-12 is reported as 0, anything lower raises.
    """
    values = n_particle_amplitudes(weights, ExchangeClass.BOSON).real
    if (values < -1e-12).any():
        raise AmplitudeError(f"negative probability {float(values.min())!r}")
    return np.where(values < 0.0, 0.0, values)
