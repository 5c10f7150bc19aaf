import math

import numpy as np
import pytest

from idamp.errors import ExchangeClassError, SequenceError
from idamp.kernels import ExchangeClass, determinant, n_particle_amplitude, permanent_ryser
from idamp.sampling import haar_unitary, unit_disk
from idamp.sequences import (
    Configuration,
    MeasurementSequence,
    MeasurementStep,
    all_configurations,
    coarse_grain_sum,
    compose_coarse,
    concatenate,
    distinct_configurations,
    occupancy_weight,
    restrict_matrix,
    reverse_sequence,
    sequence_amplitude,
)

BOSON = ExchangeClass.BOSON
FERMION = ExchangeClass.FERMION


def labels(prefix, count):
    return tuple(f"{prefix}{i}" for i in range(count))


def step_between(rng, label, rows, cols, matrix=None):
    if matrix is None:
        matrix = unit_disk(rng, (len(rows), len(cols)))
    return MeasurementStep(label=label, row_labels=rows, col_labels=cols, matrix=matrix)


def random_configuration(rng, outcome_labels, n, distinct=False):
    pool = list(outcome_labels)
    if distinct:
        picked = rng.choice(len(pool), size=n, replace=False)
    else:
        picked = rng.integers(0, len(pool), size=n)
    return Configuration.of(*(pool[int(i)] for i in picked))


def random_sequence(rng, n_particles, k_measurements, prefix="m"):
    measurement_labels = [
        labels(f"{prefix}{k}_", int(rng.integers(n_particles, n_particles + 3)))
        for k in range(k_measurements)
    ]
    steps = tuple(
        step_between(rng, f"{prefix}s{k}", measurement_labels[k], measurement_labels[k + 1])
        for k in range(k_measurements - 1)
    )
    configs = tuple(
        random_configuration(rng, measurement_labels[k], n_particles)
        for k in range(k_measurements)
    )
    return MeasurementSequence(configurations=configs, steps=steps)


# ---------------------------------------------------------------------------
# configurations


def test_configuration_canonical_order():
    config = Configuration.of("q", "p", "q")
    assert config.items == (("p", 1), ("q", 2))
    assert config.total == 3
    assert config.expanded == ("p", "q", "q")
    assert config.text == "p:1;q:2"


def test_configuration_rejects_bad_counts():
    with pytest.raises(SequenceError):
        Configuration.from_counts({"p": 0})
    with pytest.raises(SequenceError):
        Configuration.from_counts({})


def test_occupancy_weight():
    assert occupancy_weight(Configuration.of("a", "b")) == 1
    assert occupancy_weight(Configuration.of("a", "a", "b")) == 2
    assert occupancy_weight(Configuration.of("a", "a", "b", "b", "b")) == 12


def test_configuration_enumeration():
    all_two = all_configurations(("b", "a"), 2)
    assert [c.text for c in all_two] == ["a:2", "a:1;b:1", "b:2"]
    distinct = distinct_configurations(("c", "a", "b"), 2)
    assert [c.text for c in distinct] == ["a:1;b:1", "a:1;c:1", "b:1;c:1"]


# ---------------------------------------------------------------------------
# restriction


def test_restrict_full_two_particle(rng):
    step = step_between(rng, "s", ("m", "n"), ("m2", "n2"))
    restricted = restrict_matrix(step, Configuration.of("m", "n"), Configuration.of("m2", "n2"))
    assert np.array_equal(restricted, step.matrix)


def test_restrict_repeats_rows_by_occupation(rng):
    step = step_between(rng, "s", ("m",), ("p", "q"))
    restricted = restrict_matrix(step, Configuration.of("m", "m"), Configuration.of("p", "q"))
    assert restricted.shape == (2, 2)
    assert np.array_equal(restricted[0], restricted[1])


def test_restrict_single_particle(rng):
    step = step_between(rng, "s", ("m",), ("p",))
    restricted = restrict_matrix(step, Configuration.of("m"), Configuration.of("p"))
    assert restricted.shape == (1, 1)
    assert restricted[0, 0] == step.matrix[0, 0]


def test_restrict_label_mismatch(rng):
    step = step_between(rng, "s", ("m", "n"), ("p", "q"))
    with pytest.raises(SequenceError):
        restrict_matrix(step, Configuration.of("x", "n"), Configuration.of("p", "q"))
    with pytest.raises(SequenceError):
        restrict_matrix(step, Configuration.of("m", "n"), Configuration.of("p", "x"))


def test_restrict_particle_count_mismatch(rng):
    step = step_between(rng, "s", ("m", "n"), ("p", "q"))
    with pytest.raises(SequenceError):
        restrict_matrix(step, Configuration.of("m"), Configuration.of("p", "q"))


def test_step_rejects_out_of_disk_entries():
    with pytest.raises(SequenceError):
        MeasurementStep("s", ("a",), ("b",), [[1.5]])


# ---------------------------------------------------------------------------
# sequence amplitude, concatenation


def test_single_configuration_amplitude_is_one():
    seq = MeasurementSequence(configurations=(Configuration.of("a", "b"),), steps=())
    assert sequence_amplitude(seq, BOSON) == 1 + 0j
    assert sequence_amplitude(seq, FERMION) == 1 + 0j


def test_identity_step_amplitude(rng):
    step = step_between(rng, "s", ("a", "b"), ("a", "b"), matrix=np.eye(2))
    seq = MeasurementSequence(
        configurations=(Configuration.of("a", "b"), Configuration.of("a", "b")),
        steps=(step,),
    )
    assert sequence_amplitude(seq, BOSON) == 1 + 0j
    assert sequence_amplitude(seq, FERMION) == 1 + 0j


def test_two_step_amplitude_factorizes(rng):
    for cls in (BOSON, FERMION):
        seq = random_sequence(rng, 2, 3)
        total = sequence_amplitude(seq, cls)
        first = MeasurementSequence(seq.configurations[:2], seq.steps[:1])
        second = MeasurementSequence(seq.configurations[1:], seq.steps[1:])
        parts = sequence_amplitude(first, cls) * sequence_amplitude(second, cls)
        assert abs(total - parts) <= 1e-12 * max(1.0, abs(total))


def test_concatenate_product_rule(rng):
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k1 = int(rng.integers(1, 5))
        k2 = int(rng.integers(1, 5))
        s1 = random_sequence(rng, n, k1, prefix="a")
        tail_labels = s1.steps[-1].col_labels if s1.steps else labels("a0_", n + 1)
        # s2 starts at s1's junction measurement
        if not s1.steps:
            s1 = MeasurementSequence(
                (random_configuration(rng, tail_labels, n),), ()
            )
        s2_labels = [tail_labels] + [
            labels(f"b{k}_", int(rng.integers(n, n + 3))) for k in range(1, k2)
        ]
        s2_steps = tuple(
            step_between(rng, f"bs{k}", s2_labels[k], s2_labels[k + 1])
            for k in range(k2 - 1)
        )
        s2_configs = (s1.final,) + tuple(
            random_configuration(rng, s2_labels[k], n) for k in range(1, k2)
        )
        s2 = MeasurementSequence(s2_configs, s2_steps)
        joined = concatenate(s1, s2)
        for cls in (BOSON, FERMION):
            lhs = sequence_amplitude(joined, cls)
            rhs = sequence_amplitude(s1, cls) * sequence_amplitude(s2, cls)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_concatenate_with_trivial_sequence(rng):
    seq = random_sequence(rng, 2, 3)
    trivial = MeasurementSequence((seq.final,), ())
    joined = concatenate(seq, trivial)
    for cls in (BOSON, FERMION):
        assert sequence_amplitude(joined, cls) == sequence_amplitude(seq, cls)


def test_concatenate_junction_mismatch(rng):
    s1 = random_sequence(rng, 2, 2, prefix="a")
    s2 = random_sequence(rng, 2, 2, prefix="b")
    with pytest.raises(SequenceError):
        concatenate(s1, s2)


def test_concatenate_associativity(rng):
    n = 2
    m_labels = [labels(f"c{k}_", 3) for k in range(4)]
    steps = [step_between(rng, f"cs{k}", m_labels[k], m_labels[k + 1]) for k in range(3)]
    configs = [random_configuration(rng, m_labels[k], n) for k in range(4)]
    pieces = [
        MeasurementSequence((configs[k], configs[k + 1]), (steps[k],)) for k in range(3)
    ]
    left = concatenate(concatenate(pieces[0], pieces[1]), pieces[2])
    right = concatenate(pieces[0], concatenate(pieces[1], pieces[2]))
    for cls in (BOSON, FERMION):
        assert sequence_amplitude(left, cls) == sequence_amplitude(right, cls)


# ---------------------------------------------------------------------------
# coarse graining


def family_over_middles(rng, middles, step_a, step_b, source, target):
    return [
        MeasurementSequence((source, middle, target), (step_a, step_b))
        for middle in middles
    ]


def test_coarse_grain_single_member(rng):
    seq = random_sequence(rng, 2, 3)
    assert coarse_grain_sum([seq], BOSON) == sequence_amplitude(seq, BOSON)


def test_coarse_grain_two_members_adds(rng):
    mid_labels = labels("i", 4)
    step_a = step_between(rng, "a", ("m", "n"), mid_labels)
    step_b = step_between(rng, "b", mid_labels, ("p", "q"))
    source, target = Configuration.of("m", "n"), Configuration.of("p", "q")
    middles = [Configuration.of("i0", "i1"), Configuration.of("i2", "i3")]
    family = family_over_middles(rng, middles, step_a, step_b, source, target)
    total = coarse_grain_sum(family, FERMION)
    parts = sum(sequence_amplitude(seq, FERMION) for seq in family)
    assert total == pytest.approx(parts, abs=1e-15)


def test_coarse_grain_full_subsets_is_cauchy_binet(rng):
    mid_labels = labels("i", 4)
    step_a = step_between(rng, "a", ("m", "n"), mid_labels)
    step_b = step_between(rng, "b", mid_labels, ("p", "q"))
    source, target = Configuration.of("m", "n"), Configuration.of("p", "q")
    middles = distinct_configurations(mid_labels, 2)
    family = family_over_middles(rng, middles, step_a, step_b, source, target)
    total = coarse_grain_sum(family, FERMION)
    oracle = determinant(step_a.matrix @ step_b.matrix)
    assert abs(total - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_coarse_grain_rejects_malformed_families(rng):
    seq = random_sequence(rng, 2, 3)
    with pytest.raises(SequenceError):
        coarse_grain_sum([], BOSON)
    with pytest.raises(SequenceError):
        coarse_grain_sum([seq, seq], BOSON)  # intermediates not distinct
    other = random_sequence(rng, 2, 3, prefix="z")
    with pytest.raises(SequenceError):
        coarse_grain_sum([seq, other], BOSON)  # different steps


def test_compose_coarse_fermion_matches_matrix_product(rng):
    for n, m in ((2, 3), (2, 5), (3, 4), (4, 6)):
        src_labels = labels("s", n)
        mid_labels = labels("i", m)
        tgt_labels = labels("t", n)
        step_a = step_between(rng, "a", src_labels, mid_labels)
        step_b = step_between(rng, "b", mid_labels, tgt_labels)
        source = Configuration.of(*src_labels)
        target = Configuration.of(*tgt_labels)
        value = compose_coarse(step_a, step_b, source, target, FERMION)
        oracle = determinant(step_a.matrix @ step_b.matrix)
        assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_compose_coarse_boson_matches_matrix_product(rng):
    for n, m in ((2, 3), (2, 4), (3, 5)):
        src_labels = labels("s", n)
        mid_labels = labels("i", m)
        tgt_labels = labels("t", n)
        step_a = step_between(rng, "a", src_labels, mid_labels)
        step_b = step_between(rng, "b", mid_labels, tgt_labels)
        source = Configuration.of(*src_labels)
        target = Configuration.of(*tgt_labels)
        value = compose_coarse(step_a, step_b, source, target, BOSON)
        oracle = permanent_ryser(step_a.matrix @ step_b.matrix)
        assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_compose_coarse_boson_explicit_multiset_sum(rng):
    # Independent route: enumerate multisets by hand instead of through
    # configuration helpers.
    from itertools import combinations_with_replacement

    mid_labels = labels("i", 3)
    step_a = step_between(rng, "a", ("m", "n"), mid_labels)
    step_b = step_between(rng, "b", mid_labels, ("p", "q"))
    source, target = Configuration.of("m", "n"), Configuration.of("p", "q")
    total = 0j
    for combo in combinations_with_replacement(range(3), 2):
        rows = list(combo)
        weight = 2 if rows[0] == rows[1] else 1
        left = step_a.matrix[np.ix_([0, 1], rows)]
        right = step_b.matrix[np.ix_(rows, [0, 1])]
        total += (
            n_particle_amplitude(left, BOSON) * n_particle_amplitude(right, BOSON) / weight
        )
    value = compose_coarse(step_a, step_b, source, target, BOSON)
    assert value == pytest.approx(total, abs=1e-12)


def test_compose_coarse_exclusion_empty(rng):
    step_a = step_between(rng, "a", ("m", "n"), ("i",))
    step_b = step_between(rng, "b", ("i",), ("p", "q"))
    value = compose_coarse(
        step_a, step_b, Configuration.of("m", "n"), Configuration.of("p", "q"), FERMION
    )
    assert value == 0j


def test_compose_coarse_rejects_distinguishable(rng):
    step_a = step_between(rng, "a", ("m", "n"), ("i", "j"))
    step_b = step_between(rng, "b", ("i", "j"), ("p", "q"))
    with pytest.raises(ExchangeClassError):
        compose_coarse(
            step_a,
            step_b,
            Configuration.of("m", "n"),
            Configuration.of("p", "q"),
            ExchangeClass.DISTINGUISHABLE,
        )


# ---------------------------------------------------------------------------
# reversal


def test_reverse_twice_is_identity(rng):
    seq = random_sequence(rng, 2, 4)
    double = reverse_sequence(reverse_sequence(seq))
    for cls in (BOSON, FERMION):
        assert sequence_amplitude(double, cls) == sequence_amplitude(seq, cls)


def test_reverse_real_matrices_amplitude_unchanged(rng):
    m_labels = [labels(f"r{k}_", 2) for k in range(3)]
    steps = tuple(
        step_between(
            rng, f"rs{k}", m_labels[k], m_labels[k + 1], matrix=rng.random((2, 2)) * 0.9
        )
        for k in range(2)
    )
    configs = tuple(random_configuration(rng, m_labels[k], 2) for k in range(3))
    seq = MeasurementSequence(configs, steps)
    for cls in (BOSON, FERMION):
        forward = sequence_amplitude(seq, cls)
        backward = sequence_amplitude(reverse_sequence(seq), cls)
        assert abs(backward - forward) <= 1e-12 * max(1.0, abs(forward))


def test_reverse_conjugates_amplitude(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        seq = random_sequence(rng, n, k)
        for cls in (BOSON, FERMION):
            forward = sequence_amplitude(seq, cls)
            backward = sequence_amplitude(reverse_sequence(seq), cls)
            assert abs(backward - forward.conjugate()) <= 1e-12 * max(1.0, abs(forward))


# ---------------------------------------------------------------------------
# normalization under unitary steps


def test_fermion_normalization_unitary(rng):
    for m, n in ((3, 2), (4, 2), (5, 3)):
        mid_labels = labels("u", m)
        step = step_between(rng, "u", mid_labels, mid_labels, matrix=haar_unitary(rng, m))
        source = random_configuration(rng, mid_labels, n, distinct=True)
        total = 0.0
        for final in distinct_configurations(mid_labels, n):
            amp = n_particle_amplitude(restrict_matrix(step, source, final), FERMION)
            total += abs(amp) ** 2
        assert total == pytest.approx(1.0, abs=1e-9)


def test_boson_normalization_unitary(rng):
    for m, n in ((3, 2), (4, 2), (5, 3)):
        mid_labels = labels("u", m)
        step = step_between(rng, "u", mid_labels, mid_labels, matrix=haar_unitary(rng, m))
        source = random_configuration(rng, mid_labels, n, distinct=True)
        total = 0.0
        for final in all_configurations(mid_labels, n):
            amp = n_particle_amplitude(restrict_matrix(step, source, final), BOSON)
            total += abs(amp) ** 2 / occupancy_weight(final)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_boson_normalization_repeated_source(rng):
    # With a doubly occupied source the squared amplitudes need the source
    # occupancy weight as well.
    m = 3
    mid_labels = labels("u", m)
    step = step_between(rng, "u", mid_labels, mid_labels, matrix=haar_unitary(rng, m))
    source = Configuration.of("u0", "u0")
    total = 0.0
    for final in all_configurations(mid_labels, 2):
        amp = n_particle_amplitude(restrict_matrix(step, source, final), BOSON)
        total += abs(amp) ** 2 / (occupancy_weight(source) * occupancy_weight(final))
    assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# structural validation


def test_sequence_validation_errors(rng):
    step = step_between(rng, "s", ("a", "b"), ("p", "q"))
    with pytest.raises(SequenceError):
        MeasurementSequence((), ())
    with pytest.raises(SequenceError):
        MeasurementSequence((Configuration.of("a"),), (step,))
    with pytest.raises(SequenceError):
        MeasurementSequence(
            (Configuration.of("a"), Configuration.of("p", "q")), (step,)
        )  # particle count mismatch
    with pytest.raises(SequenceError):
        MeasurementSequence(
            (Configuration.of("a", "x"), Configuration.of("p", "q")), (step,)
        )  # unknown label
