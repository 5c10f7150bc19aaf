from collections import Counter

import numpy as np
import pytest

from idamp import derivation
from idamp.derivation import (
    REJECTION_MARGIN,
    SAMPLE_BLOCK,
    CandidateFunction,
    SignAssignment,
    VerificationReport,
    check_functional_equations,
    compose_permutations,
    conjugation_candidate,
    counterexample_candidates,
    enumerate_sign_characters,
    enumerate_three_particle_signs,
    format_report_table,
    identity_candidate,
    permutation_sign,
    reports_to_json,
    run_full_derivation_suite,
    suite_passed,
    three_particle_sign_survivors,
    verify_column_additivity,
    verify_reciprocity_constants,
    verify_slide_identity,
    verify_two_step_factorization,
)
from idamp.errors import IdampError, MatrixShapeError, MatrixSizeError
from idamp.kernels import ExchangeClass, n_particle_amplitudes, two_particle_amplitude
from idamp.sampling import unit_disk, unit_disk_matrix

BOSON = ExchangeClass.BOSON
FERMION = ExchangeClass.FERMION


def swapped_class_amplitude(stack, exchange_class):
    """Crossed-term sign flipped (boson and fermion formulas swapped)."""
    a = np.asarray(stack, dtype=np.complex128)
    direct = a[..., 0, 0] * a[..., 1, 1]
    crossed = a[..., 0, 1] * a[..., 1, 0]
    if exchange_class is ExchangeClass.BOSON:
        return direct - crossed
    return direct + crossed


def phase_dropped_amplitude(stack, exchange_class):
    """Crossed term's phase discarded (a sign flip whenever it is negative).

    Unlike a plain sign swap this also destroys linearity in the matrix
    entries, so the additivity check can see it.
    """
    a = np.asarray(stack, dtype=np.complex128)
    direct = a[..., 0, 0] * a[..., 1, 1]
    crossed = np.abs(a[..., 0, 1] * a[..., 1, 0]) + 0j
    if exchange_class is ExchangeClass.BOSON:
        return direct + crossed
    return direct - crossed


# ---------------------------------------------------------------------------
# factorization


def test_factorization_identity_matrices():
    eye = np.eye(2)
    for cls in (BOSON, FERMION):
        report = verify_two_step_factorization(eye, eye, cls)
        assert report.passed and report.max_deviation == 0.0


def test_factorization_hand_case(rng):
    # diag(u, v) followed by a crossed transition: both sides equal -u*v for
    # fermions.
    u, v = unit_disk(rng, 2)
    a = np.array([[u, 0], [0, v]])
    b = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    lhs = two_particle_amplitude(a, FERMION) * two_particle_amplitude(b, FERMION)
    assert lhs == pytest.approx(-u * v, abs=1e-15)
    report = verify_two_step_factorization(a, b, FERMION)
    assert report.passed


def test_factorization_sweep(rng):
    for cls in (BOSON, FERMION):
        worst = 0.0
        for _ in range(500):
            report = verify_two_step_factorization(
                unit_disk_matrix(rng, 2), unit_disk_matrix(rng, 2), cls
            )
            worst = max(worst, report.max_deviation)
        assert worst <= 1e-12


def test_factorization_detects_corruption(rng):
    for corrupted in (swapped_class_amplitude, phase_dropped_amplitude):
        report = verify_two_step_factorization(
            unit_disk_matrix(rng, 2),
            unit_disk_matrix(rng, 2),
            BOSON,
            pair_amplitude_fn=corrupted,
        )
        assert not report.passed


# ---------------------------------------------------------------------------
# additivity


def test_additivity_zero_second_column(rng):
    m = unit_disk_matrix(rng, 3)
    m2 = m.copy()
    m2[:, 1] = 0
    # the merged matrix equals m, and h(m2) = 0, so the identity is tight
    for cls in (BOSON, FERMION):
        report = verify_column_additivity(m, m2, 1, cls)
        assert report.passed


def test_additivity_sweep(rng):
    for cls in (BOSON, FERMION):
        worst = 0.0
        for i in range(500):
            n = 2 + (i % 2)
            m = unit_disk_matrix(rng, n)
            m2 = m.copy()
            col = i % n
            m2[:, col] = unit_disk(rng, n)
            report = verify_column_additivity(m, m2, col, cls)
            worst = max(worst, report.max_deviation)
        assert worst <= 1e-12


def test_additivity_rejects_multi_column_difference(rng):
    m = unit_disk_matrix(rng, 3)
    m2 = unit_disk_matrix(rng, 3)
    with pytest.raises(MatrixShapeError):
        verify_column_additivity(m, m2, 0, BOSON)


def test_additivity_detects_nonlinear_corruption(rng):
    m = unit_disk_matrix(rng, 2)
    m2 = m.copy()
    m2[:, 0] = unit_disk(rng, 2)
    report = verify_column_additivity(
        m, m2, 0, FERMION, amplitude_fn=phase_dropped_amplitude
    )
    assert not report.passed


def test_additivity_blind_to_multilinear_corruption(rng):
    # Swapping the crossed-term sign yields another multilinear function, so
    # column additivity alone cannot distinguish the two exchange classes.
    m = unit_disk_matrix(rng, 2)
    m2 = m.copy()
    m2[:, 1] = unit_disk(rng, 2)
    report = verify_column_additivity(
        m, m2, 1, FERMION, amplitude_fn=swapped_class_amplitude
    )
    assert report.passed


# ---------------------------------------------------------------------------
# slides


def test_slide_trivial_endpoints():
    for cls in (BOSON, FERMION):
        assert verify_slide_identity(1 + 0j, 1 + 0j, cls).passed
        assert verify_slide_identity(0j, 0.5 + 0.1j, cls).passed


def test_slide_sweep(rng):
    for cls in (BOSON, FERMION):
        worst = 0.0
        for _ in range(500):
            u, v = unit_disk(rng, 2)
            report = verify_slide_identity(u, v, cls)
            worst = max(worst, report.max_deviation)
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# functional equations


def test_identity_and_conjugation_pass_exactly():
    for candidate in (identity_candidate(), conjugation_candidate()):
        report = check_functional_equations(candidate, samples=2000, seed=5)
        assert report.passed
        assert report.max_deviation == 0.0


def test_counterexamples_rejected():
    for candidate in counterexample_candidates():
        report = check_functional_equations(candidate, samples=2000, seed=5, tol=0.0)
        assert report.max_deviation > 0.1, candidate.name


def test_counterexamples_rejected_at_one_sample():
    # The fixed (1, i) probe rejects every counterexample even when the
    # random draws alone would not.
    for seed in range(50):
        for candidate in counterexample_candidates():
            report = check_functional_equations(candidate, samples=1, seed=seed, tol=0.0)
            assert report.max_deviation > REJECTION_MARGIN, (seed, candidate.name)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(IdampError):
        check_functional_equations(identity_candidate(), samples=10, tol=tol)
    with pytest.raises(IdampError):
        run_full_derivation_suite(samples=10, tol=tol)


def test_zero_tolerance_accepted():
    report = check_functional_equations(identity_candidate(), samples=10, tol=0.0)
    assert report.passed


def test_zero_map_satisfies_both_equations_but_fails_normalization():
    zero = CandidateFunction("zero", lambda z: 0j)
    report = check_functional_equations(zero, samples=100, seed=5, tol=0.0)
    # both equations hold identically; only the f(1)=1 probe rejects it
    assert report.max_deviation == 1.0


def test_scaling_fails_multiplicativity_only():
    doubling = CandidateFunction("doubling", lambda z: 2 * z)
    u, v = 0.5 + 0.2j, 0.4 - 0.3j
    assert abs(doubling(u + v) - (doubling(u) + doubling(v))) == 0.0
    assert abs(doubling(u * v) - doubling(u) * doubling(v)) == pytest.approx(
        2 * abs(u * v), abs=1e-15
    )


# ---------------------------------------------------------------------------
# reciprocity constants


def test_reciprocity_constants():
    boson = verify_reciprocity_constants(BOSON)
    fermion = verify_reciprocity_constants(FERMION)
    assert boson.passed and boson.max_deviation == 0.0
    assert fermion.passed and fermion.max_deviation == 0.0


def test_reciprocity_values_per_class():
    eye = np.eye(2)
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert two_particle_amplitude(eye, BOSON) == 1 + 0j
    assert two_particle_amplitude(swap, BOSON) == 1 + 0j
    assert two_particle_amplitude(eye, FERMION) == 1 + 0j
    assert two_particle_amplitude(swap, FERMION) == -1 + 0j
    assert abs(two_particle_amplitude(swap, FERMION)) ** 2 == 1.0
    assert abs(two_particle_amplitude(swap, BOSON)) ** 2 == 1.0


# ---------------------------------------------------------------------------
# sign enumeration


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1


def test_compose_permutations():
    # apply tau first, then sigma
    assert compose_permutations((1, 0, 2), (0, 2, 1)) == (1, 2, 0)


def test_sign_assignment_validation():
    with pytest.raises(ValueError):
        SignAssignment.from_signs({(0, 1): -1, (1, 0): 1})  # identity must be +1
    with pytest.raises(ValueError):
        SignAssignment.from_signs({(0, 1): 1})  # incomplete domain
    trivial = SignAssignment.trivial(3)
    assert trivial.degree == 3
    assert trivial.sign((2, 1, 0)) == 1
    signature = SignAssignment.signature(3)
    assert signature.sign((1, 0, 2)) == -1
    assert signature.sign((1, 2, 0)) == 1


def test_three_particle_collapse_set_equality():
    survivors = enumerate_three_particle_signs()
    expected = frozenset({SignAssignment.trivial(3), SignAssignment.signature(3)})
    assert survivors == expected


def test_three_particle_filter_breakdown():
    breakdown = three_particle_sign_survivors()
    assert len(breakdown["both"]) == 2
    # multiplicativity alone already pins the characters
    assert breakdown["product-rule"] == breakdown["both"]
    # the single twinned-pair probability constraint alone leaves more:
    # c(23)=+1 forces c(123)=c(12) (8 choices), c(23)=-1 forces c(123)=-c(12) (8)
    assert len(breakdown["probability-pair"]) == 16
    assert breakdown["both"] <= breakdown["probability-pair"]


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_character_counts(n):
    characters = enumerate_sign_characters(n)
    assert characters == frozenset({SignAssignment.trivial(n), SignAssignment.signature(n)})


def test_sign_characters_match_three_particle_enumeration():
    assert enumerate_sign_characters(3) == enumerate_three_particle_signs()


def test_sign_characters_size_cap():
    with pytest.raises(MatrixSizeError):
        enumerate_sign_characters(7)
    with pytest.raises(MatrixSizeError):
        enumerate_sign_characters(1)


# ---------------------------------------------------------------------------
# suite


def test_suite_passes_and_is_sorted():
    reports = run_full_derivation_suite(seed=11, samples=300)
    assert suite_passed(reports)
    names = [r.check_name for r in reports]
    assert names == sorted(names)
    assert len(reports) >= 7


def test_suite_fails_with_corrupted_amplitude():
    reports = run_full_derivation_suite(
        seed=11, samples=100, pair_amplitude_fn=phase_dropped_amplitude
    )
    failed = {r.check_name for r in reports if not r.passed}
    assert any(name.startswith("two-step-factorization") for name in failed)
    assert any(name.startswith("column-additivity") for name in failed)


def test_suite_passes_with_one_and_two_samples():
    # The n = 3 and n = 4 conjugation sub-stacks are empty here.
    for samples in (1, 2):
        assert suite_passed(run_full_derivation_suite(seed=42, samples=samples))


def test_additivity_column_follows_global_sample_index():
    stacks = []

    def recording_amplitude(stack, exchange_class):
        stacks.append(stack)
        return n_particle_amplitudes(stack, exchange_class)

    samples = SAMPLE_BLOCK + 5
    report = derivation._sweep_additivity(
        FERMION, np.random.default_rng(1), samples, 1e-12, recording_amplitude
    )
    assert report.passed and report.samples == 2 * samples
    # Per block and size: amplitude of merged, m, m2.
    for n in (2, 3):
        m = np.concatenate([s for s in stacks[1::3] if s.shape[1] == n])
        m2 = np.concatenate([s for s in stacks[2::3] if s.shape[1] == n])
        changed = (m != m2).any(axis=1)
        assert changed.sum(axis=1).tolist() == [1] * samples
        assert np.argmax(changed, axis=1).tolist() == [i % n for i in range(samples)]


def test_conjugation_size_follows_global_sample_index(monkeypatch):
    evaluated = Counter()

    def recording_amplitudes(stack, exchange_class):
        if exchange_class is BOSON:
            evaluated[stack.shape[1]] += len(stack)
        return n_particle_amplitudes(stack, exchange_class)

    monkeypatch.setattr(derivation, "n_particle_amplitudes", recording_amplitudes)
    samples = SAMPLE_BLOCK + 2
    report = derivation._sweep_conjugation_equivariance(np.random.default_rng(1), samples)
    assert report.passed
    # Each matrix is evaluated twice per class: conjugated and as drawn.
    assert {n: count // 2 for n, count in evaluated.items()} == Counter(
        2 + i % 3 for i in range(samples)
    )


def test_report_invariant_and_serialization():
    report = VerificationReport.from_deviation("demo", 10, 0.5, 1e-12)
    assert not report.passed
    data = reports_to_json([report])
    assert '"check_name": "demo"' in data
    assert '"pass": false' in data
    table = format_report_table([report])
    assert "FAIL" in table and "demo" in table
