import math
import tracemalloc

import numpy as np
import pytest

from idamp.errors import (
    AmplitudeError,
    ExchangeClassError,
    MatrixShapeError,
    MatrixSizeError,
)
from idamp.kernels import (
    ExchangeClass,
    _ryser_gray_jit,
    _ryser_gray_reference,
    determinant,
    determinant_naive,
    distinguishable_probability,
    n_particle_amplitude,
    n_particle_amplitudes,
    permanent_naive,
    permanent_ryser,
    two_particle_amplitude,
    weight_permanent,
)
from idamp.sampling import unit_disk, unit_disk_matrix

BOSON = ExchangeClass.BOSON
FERMION = ExchangeClass.FERMION
DIST = ExchangeClass.DISTINGUISHABLE

S = math.sqrt(0.5)
BEAM_SPLITTER = np.array([[S, S], [S, -S]], dtype=np.complex128)


def test_permanent_naive_identity():
    assert permanent_naive(np.eye(3)) == 1 + 0j


def test_permanent_naive_hand_2x2():
    # 0.1*0.4 + 0.2*0.3 = 0.10
    value = permanent_naive([[0.1, 0.2], [0.3, 0.4]])
    assert value == pytest.approx(0.10, abs=1e-15)


def test_permanent_naive_zero_row():
    m = np.array([[0.1, 0.2], [0.0, 0.0]])
    assert permanent_naive(m) == 0j


def test_permanent_ryser_identity():
    assert permanent_ryser(np.eye(4)) == 1 + 0j


def test_permanent_ryser_constant_matrix():
    # n! * c^n for an all-c matrix
    assert permanent_ryser(np.full((3, 3), 0.5)) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_permanent_oracle_equivalence(n, rng):
    for _ in range(25):
        m = unit_disk_matrix(rng, n)
        fast = permanent_ryser(m)
        slow = permanent_naive(m)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_ryser_reference_matches_jit(rng):
    if _ryser_gray_jit is None:
        pytest.skip("numba unavailable")
    for n in (2, 3, 5, 7):
        m = np.ascontiguousarray(unit_disk_matrix(rng, n))
        assert complex(_ryser_gray_jit(m)) == _ryser_gray_reference(m)


def test_permanent_ryser_zero_line_exact(rng):
    m = unit_disk_matrix(rng, 5)
    m[2, :] = 0
    assert permanent_ryser(m) == 0j
    m = unit_disk_matrix(rng, 5)
    m[:, 3] = 0
    assert permanent_ryser(m) == 0j


def test_size_caps():
    with pytest.raises(MatrixSizeError):
        permanent_naive(np.eye(11))
    with pytest.raises(MatrixSizeError):
        permanent_ryser(np.eye(25))


def test_non_square_rejected():
    with pytest.raises(MatrixShapeError):
        permanent_ryser(np.ones((2, 3)))
    with pytest.raises(MatrixShapeError):
        determinant(np.ones((2, 3)))


def test_determinant_identity():
    for n in (1, 2, 3, 5, 8):
        assert determinant(np.eye(n)) == 1 + 0j


def test_determinant_hand_2x2():
    assert determinant([[0.1, 0.2], [0.3, 0.4]]) == pytest.approx(-0.02, abs=1e-15)


def test_determinant_equal_columns_exact(rng):
    for n in (2, 3, 4, 6):
        m = unit_disk_matrix(rng, n)
        m[:, n - 1] = m[:, 0]
        assert determinant(m) == 0j


@pytest.mark.parametrize("n", range(2, 9))
def test_determinant_oracle_equivalence(n, rng):
    for _ in range(25):
        m = unit_disk_matrix(rng, n)
        fast = determinant(m)
        slow = determinant_naive(m)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_determinant_product_rule(rng):
    for n in (2, 3, 5, 8):
        a = unit_disk_matrix(rng, n) / math.sqrt(n)
        b = unit_disk_matrix(rng, n) / math.sqrt(n)
        lhs = determinant(a @ b)
        rhs = determinant(a) * determinant(b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_pair_amplitude_identity_and_swap():
    eye = np.eye(2)
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert two_particle_amplitude(eye, BOSON) == 1 + 0j
    assert two_particle_amplitude(eye, FERMION) == 1 + 0j
    assert two_particle_amplitude(swap, BOSON) == 1 + 0j
    assert two_particle_amplitude(swap, FERMION) == -1 + 0j


def test_pair_amplitude_beam_splitter():
    # The two-photon coincidence amplitude vanishes for bosons.
    assert two_particle_amplitude(BEAM_SPLITTER, BOSON) == 0j
    fermion = two_particle_amplitude(BEAM_SPLITTER, FERMION)
    assert fermion == pytest.approx(-1.0, abs=1e-12)


def test_pair_amplitude_rejects_distinguishable():
    with pytest.raises(ExchangeClassError):
        two_particle_amplitude(np.eye(2), DIST)
    with pytest.raises(ExchangeClassError):
        n_particle_amplitude(np.eye(3), DIST)


def test_pair_amplitude_agrees_with_n_particle_exactly(rng):
    for _ in range(200):
        m = unit_disk_matrix(rng, 2)
        for cls in (BOSON, FERMION):
            assert two_particle_amplitude(m, cls) == n_particle_amplitude(m, cls)


def test_n_particle_permutation_matrices():
    cycle = np.zeros((3, 3))
    cycle[0, 1] = cycle[1, 2] = cycle[2, 0] = 1  # 3-cycle, even
    transposition = np.eye(3)[[0, 2, 1]]  # swap rows 2,3, odd
    assert n_particle_amplitude(np.eye(3), BOSON) == 1 + 0j
    assert n_particle_amplitude(np.eye(3), FERMION) == 1 + 0j
    assert n_particle_amplitude(cycle, BOSON) == 1 + 0j
    assert n_particle_amplitude(cycle, FERMION) == 1 + 0j
    assert n_particle_amplitude(transposition, BOSON) == 1 + 0j
    assert n_particle_amplitude(transposition, FERMION) == -1 + 0j


def test_n_particle_single_entry():
    assert n_particle_amplitude([[0.5 + 0.25j]], BOSON) == 0.5 + 0.25j
    assert n_particle_amplitude([[0.5 + 0.25j]], FERMION) == 0.5 + 0.25j


def test_multilinearity_in_columns(rng):
    for n in (2, 3, 4):
        for _ in range(50):
            m = unit_disk_matrix(rng, n)
            m2 = m.copy()
            col = int(rng.integers(n))
            m2[:, col] = unit_disk(rng, n)
            merged = m.copy()
            merged[:, col] = m[:, col] + m2[:, col]
            for cls in (BOSON, FERMION):
                total = n_particle_amplitude(merged, cls)
                parts = n_particle_amplitude(m, cls) + n_particle_amplitude(m2, cls)
                assert abs(total - parts) <= 1e-12 * max(1.0, abs(total))


def test_zero_row_and_column_vanish_exactly(rng):
    for n in (2, 3, 4, 5):
        m = unit_disk_matrix(rng, n)
        m[1, :] = 0
        for cls in (BOSON, FERMION):
            assert n_particle_amplitude(m, cls) == 0j
        m = unit_disk_matrix(rng, n)
        m[:, 0] = 0
        for cls in (BOSON, FERMION):
            assert n_particle_amplitude(m, cls) == 0j


def test_conjugation_equivariance_exact(rng):
    for n in (2, 3, 4, 5, 6):
        for _ in range(50):
            m = unit_disk_matrix(rng, n)
            for cls in (BOSON, FERMION):
                assert n_particle_amplitude(np.conj(m), cls) == n_particle_amplitude(
                    m, cls
                ).conjugate()


def test_pauli_exclusion_repeated_columns(rng):
    for n in (2, 3, 4, 6):
        m = unit_disk_matrix(rng, n)
        m[:, 1] = m[:, 0]
        assert n_particle_amplitude(m, FERMION) == 0j


def test_pair_fermion_repeated_rows_exact_zero():
    row = [-0.3763370959790291 + 0.6554051876408835j, -0.1533471020548487 - 0.18160172726167745j]
    m = np.array([row, row])
    assert repr(n_particle_amplitude(m, FERMION)) == "0j"
    assert repr(two_particle_amplitude(m, FERMION)) == "0j"
    assert repr(determinant(m)) == "0j"


def test_distinguishable_probability_values():
    assert distinguishable_probability(np.eye(3)) == 1.0
    assert distinguishable_probability(BEAM_SPLITTER) == pytest.approx(0.5, abs=1e-12)
    zero_row = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert distinguishable_probability(zero_row) == 0.0


def test_distinguishable_probability_row_check():
    with pytest.raises(AmplitudeError):
        distinguishable_probability(np.full((2, 2), 0.9))


def test_weight_permanent_roundoff_policy(monkeypatch):
    # a repeated column breaks distinguishable_probability's row check, but
    # the weight permanent itself is still a valid probability numerator
    weights = np.array([[[0.69, 0.69], [0.2, 0.2]]])
    assert weight_permanent(weights) == pytest.approx([2 * 0.69 * 0.2], abs=1e-15)

    def patched(value):
        return lambda stack, exchange_class: np.full(len(stack), complex(value))

    monkeypatch.setattr("idamp.kernels.n_particle_amplitudes", patched(-5e-13))
    assert weight_permanent(weights).tolist() == [0.0]
    monkeypatch.setattr("idamp.kernels.n_particle_amplitudes", patched(-2e-12))
    with pytest.raises(AmplitudeError, match="negative probability"):
        weight_permanent(weights)


# ---------------------------------------------------------------------------
# stacked kernel


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_amplitudes_match_scalar_and_oracles(n, rng):
    stack = np.array([unit_disk_matrix(rng, n) for _ in range(12)])
    for cls, oracle in ((BOSON, permanent_naive), (FERMION, determinant_naive)):
        values = n_particle_amplitudes(stack, cls)
        assert values.shape == (12,)
        for m, value in zip(stack, values):
            for reference in (n_particle_amplitude(m, cls), oracle(m)):
                assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_exact_zeros(n, rng):
    zero_row = unit_disk_matrix(rng, n)
    zero_row[n - 1, :] = 0
    zero_col = unit_disk_matrix(rng, n)
    zero_col[:, n - 1] = 0  # the Gray-code walk toggles the last column least
    stack = np.array([zero_row, zero_col])
    for cls in (BOSON, FERMION):
        values = n_particle_amplitudes(stack, cls)
        assert values[0] == 0j and values[1] == 0j
    repeated_col = unit_disk_matrix(rng, n)
    repeated_col[:, n - 1] = repeated_col[:, 0]
    repeated_row = unit_disk_matrix(rng, n)
    repeated_row[n - 1] = repeated_row[0]
    values = n_particle_amplitudes(np.array([repeated_col, repeated_row]), FERMION)
    assert values[0] == 0j and values[1] == 0j


def test_stacked_determinant_zero_pivot():
    # Proportional rows: elimination meets an all-zero pivot column without
    # any zero or repeated line to mask.
    m = np.eye(4, dtype=np.complex128)
    m[:2, :2] = [[1, 2], [2, 4]]
    assert determinant(m) == 0j
    assert n_particle_amplitudes(np.array([m, np.eye(4)]), FERMION).tolist() == [0j, 1 + 0j]
    # The zero lands last on the diagonal, after two factors whose product
    # overflows to inf.
    m = np.diag([1e200, 1e200, 1, 1]).astype(np.complex128)
    m[2:, 2:] = [[1, 2], [2, 4]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert determinant(m) == 0j
        assert n_particle_amplitudes(m[None], FERMION).tolist() == [0j]


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_zero_line_with_overflowing_products(n, rng):
    # Partial products of the other entries overflow; inf * 0 must not leak
    # through as NaN.
    big = 1e200 * (1 + 1j) * (1 + rng.random((n, n)))
    zero_row, zero_col = big.copy(), big.copy()
    zero_row[n - 1] = 0
    zero_col[:, n - 1] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for cls in (BOSON, FERMION):
            stack = np.array([zero_row, zero_col])
            assert n_particle_amplitudes(stack, cls).tolist() == [0j, 0j]
            assert n_particle_amplitude(zero_row, cls) == 0j
            assert n_particle_amplitude(zero_col, cls) == 0j


def test_determinant_repeated_lines_across_chunks(rng):
    # n = 50 compares its lines in two chunks; each pair straddles them.
    m = np.eye(50) + 0.1 * unit_disk_matrix(rng, 50)
    assert determinant(m) != 0j
    repeated_row, repeated_col = m.copy(), m.copy()
    repeated_row[45] = repeated_row[3]
    repeated_col[:, 49] = repeated_col[:, 0]
    assert determinant(repeated_row) == 0j
    assert determinant(repeated_col) == 0j
    stack = np.array([m, repeated_row, repeated_col])
    assert n_particle_amplitudes(stack, FERMION)[1:].tolist() == [0j, 0j]


def test_large_fermion_determinant_memory(rng):
    n = 300
    m = np.eye(n) + 0.01 * unit_disk_matrix(rng, n)
    tracemalloc.start()
    try:
        value = determinant(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    reference = np.linalg.det(m)
    assert abs(value - reference) <= 1e-10 * abs(reference)
    # One (n, n, n) comparison array alone would take n / 16 = 18.75 times
    # the matrix's bytes.
    assert peak < 8 * m.nbytes
    m[:, n - 1] = m[:, 0]
    assert determinant(m) == 0j


@pytest.mark.parametrize("n", range(4, 9))
def test_single_boson_matrix_takes_single_walk(n, rng):
    stack = np.array([unit_disk_matrix(rng, n) for _ in range(3)])
    assert n_particle_amplitudes(stack[:1], BOSON)[0] == permanent_ryser(stack[0])
    for m, value in zip(stack, n_particle_amplitudes(stack, BOSON)):
        reference = permanent_ryser(m)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_stacked_conjugation_equivariance_bitwise(rng):
    for n in range(1, 7):
        stack = np.array([unit_disk_matrix(rng, n) for _ in range(50)])
        for cls in (BOSON, FERMION):
            assert np.array_equal(
                n_particle_amplitudes(np.conj(stack), cls),
                np.conj(n_particle_amplitudes(stack, cls)),
            )


def test_stacked_empty_stack():
    for n in range(1, 6):
        for cls in (BOSON, FERMION):
            values = n_particle_amplitudes(np.zeros((0, n, n)), cls)
            assert values.shape == (0,) and values.dtype == np.complex128


def test_stacked_validation():
    with pytest.raises(MatrixShapeError):
        n_particle_amplitudes(np.eye(2), BOSON)  # a matrix, not a stack
    with pytest.raises(MatrixShapeError):
        n_particle_amplitudes(np.ones((3, 2, 3)), BOSON)
    with pytest.raises(MatrixShapeError):
        n_particle_amplitudes(np.ones((3, 0, 0)), BOSON)
    bad = np.ones((2, 2, 2), dtype=np.complex128)
    bad[1, 0, 0] = complex(0.0, np.inf)
    with pytest.raises(MatrixShapeError):
        n_particle_amplitudes(bad, FERMION)
    with pytest.raises(ExchangeClassError):
        n_particle_amplitudes(np.ones((1, 2, 2)), DIST)
    with pytest.raises(MatrixSizeError):
        n_particle_amplitudes(np.ones((1, 25, 25)), BOSON)
