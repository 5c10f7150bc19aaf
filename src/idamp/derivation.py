"""Mechanical checks for the algebra that pins down the two exchange classes.

Each verifier exercises one step of the argument that forces the joint
amplitude of identical particles to be either fully symmetric (permanent) or
fully antisymmetric (determinant):

* the two-step amplitude factorizes through path products,
* the amplitude is additive in matrix columns (coarse graining),
* single-particle amplitudes slide along paths (multiplicativity),
* the induced scalar map obeys f(uv) = f(u)f(v) and f(u+v) = f(u) + f(v),
* reciprocity plus determinism pins the two free constants to +-1,
* for three particles, brute-force enumeration collapses the 32 candidate
  sign assignments to the trivial and signature characters, and the same
  collapse holds for multiplicative sign maps on larger symmetric groups.

Checks return VerificationReport records; run_full_derivation_suite executes
all of them with seeded sweeps. Each identity has one implementation, a
deviation function over a stack of samples: a sweep draws its samples as
arrays, in blocks of SAMPLE_BLOCK, and a single-instance verifier passes a
stack of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable, Mapping

import numpy as np

from .amplitudes import probability
from .errors import IdampError, MatrixShapeError, MatrixSizeError
from .kernels import ExchangeClass, as_square_matrix, n_particle_amplitudes
from .sampling import unit_disk

#: A counterexample function must miss one of the functional equations by
#: more than this margin to count as rejected.
REJECTION_MARGIN = 0.1

#: Largest symmetric group for the sign-character enumeration (n! domain).
CHARACTER_MAX_N = 6

#: Sweeps draw and evaluate their samples in blocks of at most this many,
#: which bounds their memory. A sample's index in the whole sweep, not in its
#: block, decides its matrix size or column.
SAMPLE_BLOCK = 2048

#: Maps a (S, 2, 2) stack to its (S,) joint amplitudes.
PairAmplitudeFn = Callable[[np.ndarray, ExchangeClass], np.ndarray]


# ---------------------------------------------------------------------------
# report and candidate types


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: pass iff max_deviation <= tolerance."""

    check_name: str
    samples: int
    max_deviation: float
    tolerance: float
    passed: bool

    @classmethod
    def from_deviation(
        cls, check_name: str, samples: int, max_deviation: float, tolerance: float
    ) -> "VerificationReport":
        max_deviation = float(max_deviation)
        tolerance = float(tolerance)
        return cls(check_name, int(samples), max_deviation, tolerance, max_deviation <= tolerance)

    def as_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "samples": self.samples,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)


def format_report_table(reports: Iterable[VerificationReport]) -> str:
    """Fixed-width table, one line per report plus an overall verdict."""
    reports = list(reports)
    lines = [f"{'check':<42} {'samples':>8} {'max deviation':>14} {'tolerance':>10} {'status':>7}"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.check_name:<42} {r.samples:>8} {r.max_deviation:>14.3e} "
            f"{r.tolerance:>10.1e} {status:>7}"
        )
    passed = sum(r.passed for r in reports)
    verdict = "PASS" if passed == len(reports) else "FAIL"
    lines.append(f"overall: {verdict} ({passed}/{len(reports)})")
    return "\n".join(lines)


def suite_passed(reports: Iterable[VerificationReport]) -> bool:
    return all(r.passed for r in reports)


@dataclass(frozen=True)
class CandidateFunction:
    """Named deterministic map from amplitudes to amplitudes, applied
    elementwise to an array of amplitudes."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.evaluator(z)


def identity_candidate() -> CandidateFunction:
    return CandidateFunction("identity", lambda z: z)


def conjugation_candidate() -> CandidateFunction:
    return CandidateFunction("conjugation", np.conj)


def counterexample_candidates() -> list[CandidateFunction]:
    """Functions the equation checker must reject."""
    return [
        CandidateFunction("doubling", lambda z: 2.0 * z),
        CandidateFunction("squaring", lambda z: z * z),
        CandidateFunction("modulus", lambda z: np.abs(z) + 0j),
        CandidateFunction("zero", np.zeros_like),
    ]


# ---------------------------------------------------------------------------
# permutations and sign assignments


def compose_permutations(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """One-line composition: apply tau first, then sigma."""
    return tuple(sigma[t] for t in tau)


def permutation_sign(perm: tuple[int, ...]) -> int:
    """+1 for even permutations, -1 for odd, by inversion count."""
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return 1 - 2 * (inversions & 1)


@dataclass(frozen=True)
class SignAssignment:
    """Map from the permutations of S_n (one-line notation) to +-1.

    Entries are stored sorted by permutation for stable set comparisons; the
    identity permutation is pinned to +1 by normalization.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("sign assignment must not be empty")
        n = len(self.entries[0][0])
        expected = list(permutations(range(n)))
        perms = [perm for perm, _ in self.entries]
        if perms != expected:
            raise ValueError(f"domain must be all {len(expected)} permutations of S_{n}, sorted")
        for perm, value in self.entries:
            if value not in (1, -1):
                raise ValueError(f"sign of {perm} must be +-1, got {value!r}")
        if self.sign(tuple(range(n))) != 1:
            raise ValueError("the identity permutation must map to +1")

    @classmethod
    def from_signs(cls, signs: Mapping[tuple[int, ...], int]) -> "SignAssignment":
        return cls(tuple(sorted((tuple(p), int(v)) for p, v in signs.items())))

    @classmethod
    def trivial(cls, n: int) -> "SignAssignment":
        return cls.from_signs({p: 1 for p in permutations(range(n))})

    @classmethod
    def signature(cls, n: int) -> "SignAssignment":
        return cls.from_signs({p: permutation_sign(p) for p in permutations(range(n))})

    @property
    def degree(self) -> int:
        return len(self.entries[0][0])

    def sign(self, perm: tuple[int, ...]) -> int:
        key = tuple(perm)
        for p, value in self.entries:
            if p == key:
                return value
        raise KeyError(perm)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)


# ---------------------------------------------------------------------------
# single-instance verifiers


def _check_pair_matrix(matrix) -> np.ndarray:
    a = as_square_matrix(matrix)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got shape {a.shape}")
    return a


def _check_sweep_args(samples: int, tol: float) -> None:
    if samples < 1:
        raise IdampError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise IdampError(f"tol must be finite and >= 0, got {tol!r}")


def _blocks(samples: int):
    """(index of the first sample, size) of each block of a sweep."""
    for start in range(0, samples, SAMPLE_BLOCK):
        yield start, min(SAMPLE_BLOCK, samples - start)


def _sweep_max(samples: int, block_deviations) -> float:
    """Largest of the per-sample deviations block_deviations(start, size)
    returns for each block."""
    return max(float(np.max(block_deviations(start, size))) for start, size in _blocks(samples))


def _pair_stack(a00, a01, a10, a11) -> np.ndarray:
    """(S, 2, 2) stack with the given entries; scalars broadcast over the stack."""
    entries = np.stack(np.broadcast_arrays(a00, a01, a10, a11), axis=-1)
    return entries.reshape(-1, 2, 2).astype(np.complex128, copy=False)


_S2 = ((0, 1), (1, 0))


def _chi(perm: tuple[int, ...], exchange_class: ExchangeClass) -> int:
    return permutation_sign(perm) if exchange_class is ExchangeClass.FERMION else 1


def _factorization_deviation(
    a: np.ndarray, b: np.ndarray, exchange_class: ExchangeClass, pair_fn: PairAmplitudeFn
) -> np.ndarray:
    lhs = pair_fn(a, exchange_class) * pair_fn(b, exchange_class)
    # The right-hand side may use only the eight composite path amplitudes
    # a[i,k]*b[k,j], never a and b factors separately.
    composite = a[:, :, :, None] * b[:, None, :, :]  # [sample, i, k, j]
    rhs = np.zeros(len(composite), dtype=np.complex128)
    for pi in _S2:
        for rho in _S2:
            term = composite[:, 0, pi[0], rho[pi[0]]] * composite[:, 1, pi[1], rho[pi[1]]]
            if _chi(pi, exchange_class) * _chi(rho, exchange_class) > 0:
                rhs = rhs + term
            else:
                rhs = rhs - term
    return np.abs(lhs - rhs)


def verify_two_step_factorization(
    a,
    b,
    exchange_class: ExchangeClass,
    tol: float = 1e-12,
    pair_amplitude_fn: PairAmplitudeFn | None = None,
) -> VerificationReport:
    """Check that the product of two pair amplitudes equals the sum over the
    four path-product assignments built from the eight composite amplitudes."""
    pair_fn = pair_amplitude_fn or n_particle_amplitudes
    deviation = _factorization_deviation(
        _check_pair_matrix(a)[None], _check_pair_matrix(b)[None], exchange_class, pair_fn
    )
    return VerificationReport.from_deviation(
        f"two-step-factorization-{exchange_class.value}", 1, deviation[0], tol
    )


def _additivity_deviation(
    m: np.ndarray,
    m2: np.ndarray,
    columns: np.ndarray,
    exchange_class: ExchangeClass,
    amplitude_fn: Callable[[np.ndarray, ExchangeClass], np.ndarray],
) -> np.ndarray:
    """m[s] and m2[s] differ only in column columns[s]."""
    merged = m.copy()
    samples = np.arange(len(m))
    merged[samples, :, columns] = m[samples, :, columns] + m2[samples, :, columns]
    return np.abs(
        amplitude_fn(merged, exchange_class)
        - amplitude_fn(m, exchange_class)
        - amplitude_fn(m2, exchange_class)
    )


def verify_column_additivity(
    m,
    m2,
    column: int,
    exchange_class: ExchangeClass,
    tol: float = 1e-12,
    amplitude_fn: Callable[[np.ndarray, ExchangeClass], np.ndarray] | None = None,
) -> VerificationReport:
    """Check that summing one column of two otherwise-identical matrices sums
    the joint amplitudes (coarse graining over a middle measurement)."""
    a = as_square_matrix(m)
    a2 = as_square_matrix(m2)
    if a.shape != a2.shape:
        raise MatrixShapeError(f"shape mismatch: {a.shape} vs {a2.shape}")
    if not 0 <= column < a.shape[1]:
        raise MatrixShapeError(f"column {column} out of range for shape {a.shape}")
    others = [j for j in range(a.shape[1]) if j != column]
    if others and not np.array_equal(a[:, others], a2[:, others]):
        raise MatrixShapeError("matrices must differ only in the given column")
    fn = amplitude_fn or n_particle_amplitudes
    deviation = _additivity_deviation(a[None], a2[None], np.array([column]), exchange_class, fn)
    return VerificationReport.from_deviation(
        f"column-additivity-{exchange_class.value}", 1, deviation[0], tol
    )


def _slide_deviation(
    u: np.ndarray, v: np.ndarray, exchange_class: ExchangeClass, pair_fn: PairAmplitudeFn
) -> np.ndarray:
    def h(a00, a01, a10, a11) -> np.ndarray:
        return pair_fn(_pair_stack(a00, a01, a10, a11), exchange_class)

    h_swap = h(0, 1, 1, 0)
    h_eye = h(1, 0, 0, 1)
    uv = u * v
    # Sliding a diagonal pair through a crossed transition moves the product
    # uv onto a single path.
    d1 = np.abs(h(u, 0, 0, v) * h_swap - h_swap * h(uv, 0, 0, 1))
    # Twin identity for the crossed pair.
    d2 = np.abs(h(0, u, v, 0) * h_eye - h_swap * h(v, 0, 0, u))
    # Multiplicativity of the single-path function.
    d3 = np.abs(h(uv, 0, 0, 1) * h_eye - h(u, 0, 0, 1) * h(v, 0, 0, 1))
    return np.maximum(np.maximum(d1, d2), d3)


def verify_slide_identity(
    u: complex,
    v: complex,
    exchange_class: ExchangeClass,
    tol: float = 1e-12,
    pair_amplitude_fn: PairAmplitudeFn | None = None,
) -> VerificationReport:
    """Check the amplitude-sliding identities and the induced multiplicativity."""
    pair_fn = pair_amplitude_fn or n_particle_amplitudes
    deviation = _slide_deviation(
        np.array([complex(u)]), np.array([complex(v)]), exchange_class, pair_fn
    )
    return VerificationReport.from_deviation(
        f"slide-identities-{exchange_class.value}", 1, deviation[0], tol
    )


def check_functional_equations(
    candidate: CandidateFunction,
    samples: int = 10000,
    seed: int = 42,
    tol: float = 1e-12,
) -> VerificationReport:
    """Max deviation of f from multiplicativity, additivity, and f(1) = 1.

    The normalization probe rules out the everywhere-zero map, which solves
    both equations but is not a regraduation of amplitudes. The fixed pair
    (1, i) is checked along with the random samples, so that every
    counterexample misses an equation whatever the sample count: at that pair
    doubling misses multiplicativity by 2, squaring additivity by 2 and the
    modulus additivity by 2 - sqrt(2).
    """
    _check_sweep_args(samples, tol)
    rng = np.random.default_rng(seed)
    f = candidate

    def equation_deviations(u, v):
        return np.maximum(np.abs(f(u * v) - f(u) * f(v)), np.abs(f(u + v) - (f(u) + f(v))))

    def block_deviations(start, size):
        return equation_deviations(unit_disk(rng, size), unit_disk(rng, size))

    one = np.ones(1, dtype=np.complex128)
    deviation = max(
        float(np.max(np.abs(f(one) - one))),
        float(np.max(equation_deviations(one, 1j * one))),
        _sweep_max(samples, block_deviations),
    )
    return VerificationReport.from_deviation(
        f"functional-equation-{candidate.name}", samples, deviation, tol
    )


def verify_reciprocity_constants(
    exchange_class: ExchangeClass,
    pair_amplitude_fn: PairAmplitudeFn | None = None,
) -> VerificationReport:
    """Check the two free constants: the direct and crossed deterministic
    transitions must carry amplitude exactly +1 and +-1, with probability 1."""
    pair_fn = pair_amplitude_fn or n_particle_amplitudes
    eye_and_swap = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=np.complex128)
    h_eye, h_swap = (complex(h) for h in pair_fn(eye_and_swap, exchange_class))
    expected_swap = 1.0 if exchange_class is ExchangeClass.BOSON else -1.0
    deviation = max(
        abs(h_eye - 1.0),
        abs(h_swap - expected_swap),
        abs(probability(h_eye) - 1.0),
        abs(probability(h_swap) - 1.0),
    )
    return VerificationReport.from_deviation(
        f"reciprocity-constants-{exchange_class.value}", 2, deviation, 0.0
    )


# ---------------------------------------------------------------------------
# sign enumeration


_S3 = tuple(permutations(range(3)))
_S3_IDENTITY = (0, 1, 2)
_S3_NON_IDENTITY = tuple(p for p in _S3 if p != _S3_IDENTITY)

# The two coarse-grained three-particle processes whose probabilities must
# agree under relabeling of the first two (identical) particles. Each side
# pairs two coefficients twinned by a transposition.
_PAIR_LHS = (_S3_IDENTITY, (0, 2, 1))
_PAIR_RHS = ((1, 2, 0), (1, 0, 2))


def _satisfies_product_rule(signs: dict[tuple[int, ...], int]) -> bool:
    for sigma in _S3:
        for tau in _S3:
            if signs[compose_permutations(sigma, tau)] != signs[sigma] * signs[tau]:
                return False
    return True


def _satisfies_probability_pair(signs: dict[tuple[int, ...], int]) -> bool:
    lhs = abs(signs[_PAIR_LHS[0]] + signs[_PAIR_LHS[1]]) ** 2
    rhs = abs(signs[_PAIR_RHS[0]] + signs[_PAIR_RHS[1]]) ** 2
    return lhs == rhs


def three_particle_sign_survivors() -> dict[str, frozenset[SignAssignment]]:
    """Survivors of the 32 candidate sign assignments under each filter.

    Filters: multiplicative consistency of the product rule, and equality of
    the twinned-pair probabilities. Returned keys: "product-rule",
    "probability-pair", "both".
    """
    product_rule = []
    probability_pair = []
    both = []
    for bits in range(1 << len(_S3_NON_IDENTITY)):
        signs: dict[tuple[int, ...], int] = {_S3_IDENTITY: 1}
        for i, perm in enumerate(_S3_NON_IDENTITY):
            signs[perm] = 1 - 2 * ((bits >> i) & 1)
        assignment = SignAssignment.from_signs(signs)
        keeps_products = _satisfies_product_rule(signs)
        keeps_probability = _satisfies_probability_pair(signs)
        if keeps_products:
            product_rule.append(assignment)
        if keeps_probability:
            probability_pair.append(assignment)
        if keeps_products and keeps_probability:
            both.append(assignment)
    return {
        "product-rule": frozenset(product_rule),
        "probability-pair": frozenset(probability_pair),
        "both": frozenset(both),
    }


def enumerate_three_particle_signs() -> frozenset[SignAssignment]:
    """Sign assignments on S_3 surviving both filters; expected: trivial and
    signature."""
    return three_particle_sign_survivors()["both"]


def _adjacent_word(perm: tuple[int, ...]) -> list[int]:
    """Decompose into adjacent transpositions (bubble sort swap positions)."""
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                changed = True
    return word


def enumerate_sign_characters(n: int) -> frozenset[SignAssignment]:
    """All multiplicative maps S_n -> {+1, -1}, by brute force.

    Candidates are generated from sign choices on the n-1 adjacent
    transpositions and extended along a fixed decomposition of each
    permutation; multiplicativity is then verified on every pair of group
    elements. Exactly two maps survive for each n: trivial and signature.
    """
    if not 2 <= n <= CHARACTER_MAX_N:
        raise MatrixSizeError(f"sign-character enumeration supports 2 <= n <= {CHARACTER_MAX_N}")
    perms = list(permutations(range(n)))
    p_arr = np.array(perms, dtype=np.int64)
    # Lexicographic one-line order makes the base-n keys strictly increasing.
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = p_arr @ powers
    order = len(perms)
    table = np.empty((order, order), dtype=np.int64)
    for i in range(order):
        table[i] = np.searchsorted(keys, p_arr[i][p_arr] @ powers)
    # counts[p, t]: how often adjacent transposition t occurs in p's word, so
    # a candidate's value on p is the parity of counts[p] @ flips.
    counts = np.array(
        [np.bincount(np.asarray(_adjacent_word(p), dtype=np.intp), minlength=n - 1) for p in perms]
    )
    survivors = []
    for bits in range(1 << (n - 1)):
        flips = (bits >> np.arange(n - 1)) & 1
        values = (1 - 2 * ((counts @ flips) & 1)).astype(np.int8)
        if np.array_equal(values[table], np.multiply.outer(values, values)):
            survivors.append(
                SignAssignment.from_signs({p: int(v) for p, v in zip(perms, values)})
            )
    return frozenset(survivors)


# ---------------------------------------------------------------------------
# full suite


def _sweep_factorization(exchange_class, rng, samples, tol, pair_fn) -> VerificationReport:
    def block_deviations(start, size):
        a = unit_disk(rng, (size, 2, 2))
        b = unit_disk(rng, (size, 2, 2))
        return _factorization_deviation(a, b, exchange_class, pair_fn)

    return VerificationReport.from_deviation(
        f"two-step-factorization-{exchange_class.value}",
        samples,
        _sweep_max(samples, block_deviations),
        tol,
    )


def _sweep_additivity(exchange_class, rng, samples, tol, amplitude_fn) -> VerificationReport:
    """Sample i replaces column i % n, for n = 2 and n = 3."""

    def block_deviations(start, size):
        deviations = []
        for n in (2, 3):
            m = unit_disk(rng, (size, n, n))
            columns = np.arange(start, start + size) % n
            m2 = m.copy()
            m2[np.arange(size), :, columns] = unit_disk(rng, (size, n))
            deviations.append(_additivity_deviation(m, m2, columns, exchange_class, amplitude_fn))
        return np.concatenate(deviations)

    return VerificationReport.from_deviation(
        f"column-additivity-{exchange_class.value}",
        2 * samples,
        _sweep_max(samples, block_deviations),
        tol,
    )


def _sweep_slides(exchange_class, rng, samples, tol, pair_fn) -> VerificationReport:
    def block_deviations(start, size):
        u = unit_disk(rng, size)
        v = unit_disk(rng, size)
        return _slide_deviation(u, v, exchange_class, pair_fn)

    return VerificationReport.from_deviation(
        f"slide-identities-{exchange_class.value}",
        samples,
        _sweep_max(samples, block_deviations),
        tol,
    )


def _sweep_conjugation_equivariance(rng, samples) -> VerificationReport:
    """h(conj(M)) must equal conj(h(M)) bit for bit, both classes; sample i
    is an n x n matrix with n = 2 + i % 3."""

    def block_deviations(start, size):
        sizes = 2 + np.arange(start, start + size) % 3
        deviations = []
        for n in (2, 3, 4):
            m = unit_disk(rng, (np.count_nonzero(sizes == n), n, n))
            for exchange_class in (ExchangeClass.BOSON, ExchangeClass.FERMION):
                value = n_particle_amplitudes(np.conj(m), exchange_class)
                expected = np.conj(n_particle_amplitudes(m, exchange_class))
                deviations.append(np.abs(value - expected))
        return np.concatenate(deviations)

    return VerificationReport.from_deviation(
        "conjugation-equivariance", 2 * samples, _sweep_max(samples, block_deviations), 0.0
    )


def _sweep_mixed_terms(rng, samples) -> VerificationReport:
    """Splitting a matrix into direct and crossed parts is exact, and the
    mixed (zero-row or zero-column) terms vanish identically."""

    def block_deviations(start, size):
        m = unit_disk(rng, (size, 2, 2))
        diag_part = _pair_stack(m[:, 0, 0], 0, 0, m[:, 1, 1])
        cross_part = _pair_stack(0, m[:, 0, 1], m[:, 1, 0], 0)
        zero_row = m.copy()
        zero_row[:, 1, :] = 0
        zero_col = m.copy()
        zero_col[:, :, 0] = 0
        m3_zero = unit_disk(rng, (size, 3, 3))
        m3_zero[:, 2, :] = 0
        deviations = []
        for exchange_class in (ExchangeClass.BOSON, ExchangeClass.FERMION):
            diag, cross, whole, *mixed = (
                n_particle_amplitudes(part, exchange_class)
                for part in (diag_part, cross_part, m, zero_row, zero_col, m3_zero)
            )
            # Sum the two parts first: the split is exact as an identity on the
            # summed value, not term by term.
            deviations.append(np.abs(diag + cross - whole))
            deviations.extend(np.abs(value) for value in mixed)
        return np.concatenate(deviations)

    return VerificationReport.from_deviation(
        "mixed-term-vanishing", 2 * samples, _sweep_max(samples, block_deviations), 0.0
    )


def _check_counterexamples(samples, seed) -> VerificationReport:
    """Each counterexample must miss an equation by more than the margin;
    the reported deviation is the worst shortfall below that margin."""
    shortfall = 0.0
    for candidate in counterexample_candidates():
        observed = check_functional_equations(candidate, samples=samples, seed=seed, tol=0.0)
        shortfall = max(shortfall, max(0.0, REJECTION_MARGIN - observed.max_deviation))
    return VerificationReport.from_deviation(
        "functional-equation-counterexamples", samples * len(counterexample_candidates()),
        shortfall, 0.0,
    )


def _check_sign_collapse() -> VerificationReport:
    survivors = enumerate_three_particle_signs()
    expected = frozenset({SignAssignment.trivial(3), SignAssignment.signature(3)})
    deviation = 0.0 if survivors == expected else 1.0
    return VerificationReport.from_deviation(
        "sign-collapse-three-particles", 1 << len(_S3_NON_IDENTITY), deviation, 0.0
    )


def _check_character_counts() -> VerificationReport:
    deviation = 0.0
    candidates = 0
    for n in range(2, CHARACTER_MAX_N + 1):
        candidates += 1 << (n - 1)
        deviation = max(deviation, float(abs(len(enumerate_sign_characters(n)) - 2)))
    return VerificationReport.from_deviation("sign-character-count", candidates, deviation, 0.0)


def run_full_derivation_suite(
    seed: int = 42,
    tol: float = 1e-12,
    samples: int = 10000,
    pair_amplitude_fn: PairAmplitudeFn | None = None,
) -> list[VerificationReport]:
    """Run every registered check; reports are returned sorted by name.

    ``tol`` applies to the floating-point identity sweeps; structural and
    exactness checks use tolerance 0. ``pair_amplitude_fn`` is a test hook
    replacing the closed-form pair amplitude on (S, 2, 2) stacks.
    """
    _check_sweep_args(samples, tol)
    pair_fn = pair_amplitude_fn or n_particle_amplitudes

    def amplitude_fn(stack, exchange_class):
        fn = pair_fn if stack.shape[-2:] == (2, 2) else n_particle_amplitudes
        return fn(stack, exchange_class)

    reports = []
    for i, exchange_class in enumerate((ExchangeClass.BOSON, ExchangeClass.FERMION)):
        rng = np.random.default_rng([seed, i])
        reports.append(_sweep_factorization(exchange_class, rng, samples, tol, pair_fn))
        reports.append(_sweep_additivity(exchange_class, rng, samples, tol, amplitude_fn))
        reports.append(_sweep_slides(exchange_class, rng, samples, tol, pair_fn))
        reports.append(verify_reciprocity_constants(exchange_class, pair_amplitude_fn=pair_fn))
    reports.append(_sweep_conjugation_equivariance(np.random.default_rng([seed, 2]), samples))
    reports.append(_sweep_mixed_terms(np.random.default_rng([seed, 3]), samples))
    reports.append(
        check_functional_equations(identity_candidate(), samples=samples, seed=seed, tol=tol)
    )
    reports.append(
        check_functional_equations(conjugation_candidate(), samples=samples, seed=seed, tol=tol)
    )
    reports.append(_check_counterexamples(samples, seed))
    reports.append(_check_sign_collapse())
    reports.append(_check_character_counts())
    return sorted(reports, key=lambda r: r.check_name)
