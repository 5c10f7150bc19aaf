"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from idamp.derivation import (
    SignAssignment,
    check_functional_equations,
    conjugation_candidate,
    counterexample_candidates,
    enumerate_sign_characters,
    enumerate_three_particle_signs,
    identity_candidate,
    verify_column_additivity,
    verify_two_step_factorization,
)
from idamp.experiments import load_scenario, parse_experiment, run_experiment
from idamp.kernels import (
    ExchangeClass,
    determinant,
    determinant_naive,
    n_particle_amplitude,
    permanent_naive,
    permanent_ryser,
    two_particle_amplitude,
)
from idamp.sampling import haar_unitary, unit_disk, unit_disk_matrix
from idamp.sequences import (
    Configuration,
    MeasurementStep,
    all_configurations,
    compose_coarse,
    distinct_configurations,
    occupancy_weight,
    restrict_matrix,
)

BOSON = ExchangeClass.BOSON
FERMION = ExchangeClass.FERMION
DIST = ExchangeClass.DISTINGUISHABLE


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # JIT compilation happens once here so timed criteria measure steady state.
    permanent_ryser(np.eye(3, dtype=np.complex128))


def test_criterion_1_exchange_class_collapse():
    start = time.perf_counter()
    survivors = enumerate_three_particle_signs()
    elapsed = time.perf_counter() - start
    expected = frozenset({SignAssignment.trivial(3), SignAssignment.signature(3)})
    ok = survivors == expected and elapsed < 1.0
    counts_ok = all(len(enumerate_sign_characters(n)) == 2 for n in range(2, 7))
    report(
        1,
        f"sign collapse to trivial+signature in {elapsed:.3f}s; "
        "2 characters for S_2..S_6",
        ok and counts_ok,
    )


def test_criterion_2_two_step_factorization():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for exchange_class in (BOSON, FERMION):
        for _ in range(10_000):
            result = verify_two_step_factorization(
                unit_disk_matrix(rng, 2), unit_disk_matrix(rng, 2), exchange_class
            )
            worst = max(worst, result.max_deviation)
    elapsed = time.perf_counter() - start
    report(
        2,
        f"factorization deviation {worst:.3e} <= 1e-12 over 1e4 pairs/class "
        f"in {elapsed:.1f}s (< 5s)",
        worst <= 1e-12 and elapsed < 5.0,
    )


def test_criterion_3_column_additivity_and_vanishing():
    rng = np.random.default_rng(3)
    worst = 0.0
    for exchange_class in (BOSON, FERMION):
        for i in range(10_000):
            n = 2 + (i % 2)
            m = unit_disk_matrix(rng, n)
            m2 = m.copy()
            column = i % n
            m2[:, column] = unit_disk(rng, n)
            result = verify_column_additivity(m, m2, column, exchange_class)
            worst = max(worst, result.max_deviation)
    mixed_ok = True
    for _ in range(100):
        m = unit_disk_matrix(rng, 2)
        m[1, :] = 0  # inconsistent with two particles: must vanish identically
        for exchange_class in (BOSON, FERMION):
            mixed_ok &= two_particle_amplitude(m, exchange_class) == 0j
    report(
        3,
        f"additivity deviation {worst:.3e} <= 1e-12 (n=2,3); zero-row terms exactly 0",
        worst <= 1e-12 and mixed_ok,
    )


def test_criterion_4_functional_equations():
    for candidate in (identity_candidate(), conjugation_candidate()):
        result = check_functional_equations(candidate, samples=10_000, seed=4)
        report(
            4,
            f"{candidate.name} candidate deviation {result.max_deviation:.1e} == 0",
            result.max_deviation == 0.0,
        )
    for candidate in counterexample_candidates():
        result = check_functional_equations(candidate, samples=10_000, seed=4, tol=0.0)
        report(
            4,
            f"counterexample {candidate.name} rejected with deviation "
            f"{result.max_deviation:.3g} > 0.1",
            result.max_deviation > 0.1,
        )


def test_criterion_5_reciprocity_and_conjugation():
    eye = np.eye(2, dtype=np.complex128)
    swap = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    constants_ok = (
        two_particle_amplitude(eye, BOSON) == 1 + 0j
        and two_particle_amplitude(swap, BOSON) == 1 + 0j
        and two_particle_amplitude(eye, FERMION) == 1 + 0j
        and two_particle_amplitude(swap, FERMION) == -1 + 0j
    )
    rng = np.random.default_rng(5)
    equivariance_ok = True
    for i in range(10_000):
        n = 2 + (i % 3)
        m = unit_disk_matrix(rng, n)
        for exchange_class in (BOSON, FERMION):
            lhs = n_particle_amplitude(np.conj(m), exchange_class)
            rhs = n_particle_amplitude(m, exchange_class).conjugate()
            equivariance_ok &= lhs == rhs
    report(
        5,
        "deterministic constants are exactly +-1; conjugation equivariance exact "
        "on 1e4 samples (n<=4)",
        constants_ok and equivariance_ok,
    )


def test_criterion_6_kernel_oracle_equivalence():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst_perm = 0.0
    worst_det = 0.0
    for n in range(2, 9):
        for _ in range(500):
            m = unit_disk_matrix(rng, n)
            slow = permanent_naive(m)
            worst_perm = max(
                worst_perm, abs(permanent_ryser(m) - slow) / max(1.0, abs(slow))
            )
            slow = determinant_naive(m)
            worst_det = max(worst_det, abs(determinant(m) - slow) / max(1.0, abs(slow)))
    elapsed = time.perf_counter() - start
    report(
        6,
        f"Ryser vs naive {worst_perm:.3e}, elimination vs expansion {worst_det:.3e} "
        f"<= 1e-9 on 500 matrices for each n in 2..8, in {elapsed:.1f}s (< 30s)",
        worst_perm <= 1e-9 and worst_det <= 1e-9 and elapsed < 30.0,
    )


def test_criterion_7_cauchy_binet_coarse_graining():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        n = 2 + (i % 2)  # N <= 3
        m = n + 1 + (i % (5 - n))  # intermediate outcomes <= 5
        src = tuple(f"s{j}" for j in range(n))
        mid = tuple(f"i{j}" for j in range(m))
        tgt = tuple(f"t{j}" for j in range(n))
        step_a = MeasurementStep("a", src, mid, unit_disk(rng, (n, m)))
        step_b = MeasurementStep("b", mid, tgt, unit_disk(rng, (m, n)))
        source, target = Configuration.of(*src), Configuration.of(*tgt)
        product = step_a.matrix @ step_b.matrix
        fermion = compose_coarse(step_a, step_b, source, target, FERMION)
        oracle = determinant(product)
        worst = max(worst, abs(fermion - oracle) / max(1.0, abs(oracle)))
        boson = compose_coarse(step_a, step_b, source, target, BOSON)
        oracle = permanent_ryser(product)
        worst = max(worst, abs(boson - oracle) / max(1.0, abs(oracle)))
    report(
        7,
        f"coarse graining matches det/perm of the matrix product to {worst:.3e} <= 1e-9",
        worst <= 1e-9,
    )


def test_criterion_8_hong_ou_mandel_and_exclusion():
    table = run_experiment(load_scenario("hom-beamsplitter"))
    rows = {(r.final.text, r.exchange_class): r for r in table.rows}
    coincidence = "out0:1;out1:1"
    hom_ok = (
        abs(rows[(coincidence, BOSON)].probability - 0.0) <= 1e-12
        and abs(rows[(coincidence, FERMION)].probability - 1.0) <= 1e-12
        and abs(rows[(coincidence, DIST)].probability - 0.5) <= 1e-12
    )
    exclusion = run_experiment(load_scenario("fermion-exclusion"))
    ex_rows = {(r.final.text, r.exchange_class): r for r in exclusion.rows}
    exclusion_ok = (
        ex_rows[("p:2", FERMION)].amplitude == 0j
        and ex_rows[("p:2", FERMION)].probability == 0.0
    )
    report(
        8,
        "HOM coincidence 0 (boson), 1 (fermion), 0.5 (distinguishable) to 1e-12; "
        "doubly occupied fermion final exactly 0",
        hom_ok and exclusion_ok,
    )


def test_criterion_9_unitary_normalization():
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(20):
        n = 2 + (i % 2)  # N <= 3
        m = n + 1 + (i % (6 - n))  # m <= 5
        labels = tuple(f"u{j}" for j in range(m))
        step = MeasurementStep("u", labels, labels, haar_unitary(rng, m))
        source = Configuration.of(*labels[:n])
        fermion_total = sum(
            abs(n_particle_amplitude(restrict_matrix(step, source, final), FERMION)) ** 2
            for final in distinct_configurations(labels, n)
        )
        boson_total = sum(
            abs(n_particle_amplitude(restrict_matrix(step, source, final), BOSON)) ** 2
            / occupancy_weight(final)
            for final in all_configurations(labels, n)
        )
        dist_total = 0.0
        for final in all_configurations(labels, n):
            restricted = restrict_matrix(step, source, final)
            weights = np.abs(restricted) ** 2
            dist_total += permanent_ryser(weights).real / occupancy_weight(final)
        worst = max(
            worst,
            abs(fermion_total - 1.0),
            abs(boson_total - 1.0),
            abs(dist_total - 1.0),
        )
    report(
        9,
        f"per-class probabilities over all finals sum to 1 within {worst:.3e} <= 1e-9 "
        "for 20 random unitary steps",
        worst <= 1e-9,
    )


def test_criterion_10_determinism():
    scenario = Path(str(resources.files("idamp") / "scenarios" / "hom-beamsplitter.json"))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "idamp", *args], capture_output=True
        )

    verify_a = run("verify", "--seed", "42")
    verify_b = run("verify", "--seed", "42")
    run_a = run("run", str(scenario))
    run_b = run("run", str(scenario))
    ok = (
        verify_a.returncode == verify_b.returncode == 0
        and verify_a.stdout == verify_b.stdout
        and run_a.returncode == run_b.returncode == 0
        and run_a.stdout == run_b.stdout
    )
    report(10, "verify --seed 42 and run outputs are byte-identical across runs", ok)
