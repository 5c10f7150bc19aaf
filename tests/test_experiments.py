import json
import math

import numpy as np
import pytest

from idamp.errors import ExperimentFormatError, MatrixSizeError, NormalizationError
from idamp.experiments import (
    ExperimentSpec,
    bench_permanent,
    bench_to_csv,
    load_scenario,
    parse_experiment,
    run_experiment,
    sample_outcomes,
    scenario_names,
    serialize_experiment,
)
from idamp.kernels import (
    ExchangeClass,
    n_particle_amplitude,
    permanent_naive,
    weight_permanent,
)
from idamp.sampling import haar_unitary, unit_disk
from idamp.sequences import (
    Configuration,
    MeasurementSequence,
    all_configurations,
    distinct_configurations,
    occupancy_weight,
    restrict_matrix,
    sequence_amplitude,
)

BOSON = ExchangeClass.BOSON
FERMION = ExchangeClass.FERMION
DIST = ExchangeClass.DISTINGUISHABLE

S = math.sqrt(0.5)

HOM_DOC = {
    "name": "hom",
    "particle_count": 2,
    "exchange_classes": ["boson", "fermion", "distinguishable"],
    "measurements": [["in0", "in1"], ["out0", "out1"]],
    "steps": [[[[S, 0.0], [S, 0.0]], [[S, 0.0], [-S, 0.0]]]],
    "initial": {"in0": 1, "in1": 1},
    "finals": "all",
    "intermediate_policy": "resolved",
}


def hom_text(**overrides):
    doc = json.loads(json.dumps(HOM_DOC))
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# parsing


def test_parse_well_formed():
    spec = parse_experiment(hom_text().encode())
    assert spec.name == "hom"
    assert spec.particle_count == 2
    assert len(spec.steps) == 1
    assert spec.finals is None
    assert spec.initial == Configuration.of("in0", "in1")


def test_parse_rejects_unknown_fields():
    with pytest.raises(ExperimentFormatError, match="unknown fields"):
        parse_experiment(hom_text(extra=1))


def test_parse_rejects_out_of_disk_entry():
    doc = json.loads(hom_text())
    doc["steps"][0][0][0] = [1.5, 0.0]
    with pytest.raises(ExperimentFormatError, match="unit disk"):
        parse_experiment(json.dumps(doc))


def test_parse_rejects_wrong_step_shape():
    doc = json.loads(hom_text())
    doc["steps"][0][0] = [[S, 0.0], [S, 0.0], [0.0, 0.0]]
    with pytest.raises(ExperimentFormatError, match=r"steps\[0\]\[0\]"):
        parse_experiment(json.dumps(doc))


def test_parse_rejects_bad_json_with_location():
    with pytest.raises(ExperimentFormatError, match="line 1"):
        parse_experiment(b"{not json")


def test_parse_rejects_unknown_label_in_configuration():
    doc = json.loads(hom_text())
    doc["initial"] = {"nope": 2}
    with pytest.raises(ExperimentFormatError, match="nope"):
        parse_experiment(json.dumps(doc))


def test_parse_rejects_wrong_particle_total():
    doc = json.loads(hom_text())
    doc["initial"] = {"in0": 1}
    with pytest.raises(ExperimentFormatError, match="sum to 1"):
        parse_experiment(json.dumps(doc))


def test_parse_intermediates_rules():
    doc = json.loads(hom_text())
    doc["measurements"] = [["in0", "in1"], ["m0", "m1"], ["out0", "out1"]]
    doc["steps"] = [HOM_DOC["steps"][0], HOM_DOC["steps"][0]]
    # resolved with interior measurements requires intermediates
    with pytest.raises(ExperimentFormatError, match="intermediates"):
        parse_experiment(json.dumps(doc))
    doc["intermediates"] = [{"m0": 1, "m1": 1}]
    spec = parse_experiment(json.dumps(doc))
    assert spec.intermediates == (Configuration.of("m0", "m1"),)
    # coarse forbids intermediates
    doc["intermediate_policy"] = "coarse"
    with pytest.raises(ExperimentFormatError, match="coarse"):
        parse_experiment(json.dumps(doc))


def test_round_trip_identity():
    for name in scenario_names():
        spec = load_scenario(name)
        again = parse_experiment(serialize_experiment(spec))
        assert again == spec
        assert serialize_experiment(again) == serialize_experiment(spec)


# ---------------------------------------------------------------------------
# running


def hom_rows():
    table = run_experiment(parse_experiment(hom_text()))
    return {(row.final.text, row.exchange_class): row for row in table.rows}


def test_hom_probabilities():
    rows = hom_rows()
    coincidence = "out0:1;out1:1"
    assert rows[(coincidence, BOSON)].probability == pytest.approx(0.0, abs=1e-12)
    assert rows[(coincidence, FERMION)].probability == pytest.approx(1.0, abs=1e-12)
    assert rows[(coincidence, DIST)].probability == pytest.approx(0.5, abs=1e-12)
    assert rows[("out0:2", BOSON)].probability == pytest.approx(0.5, abs=1e-12)
    assert rows[("out0:2", FERMION)].probability == 0.0


def test_distinguishable_rows_have_no_amplitude():
    rows = hom_rows()
    assert rows[("out0:2", DIST)].amplitude is None
    assert rows[("out0:2", BOSON)].amplitude is not None


def test_identity_step_is_deterministic():
    doc = json.loads(hom_text())
    doc["steps"] = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    table = run_experiment(parse_experiment(json.dumps(doc)))
    for row in table.rows:
        if row.final.text == "in0:1;in1:1".replace("in", "out"):
            assert row.probability == pytest.approx(1.0, abs=1e-12)
        else:
            assert row.probability == pytest.approx(0.0, abs=1e-12)


def test_run_is_deterministic():
    spec = parse_experiment(hom_text())
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_bundled_scenarios_normalize():
    for name in scenario_names():
        spec = load_scenario(name)
        if spec.finals is not None:
            continue
        table = run_experiment(spec)
        for cls in spec.exchange_classes:
            total = sum(r.probability for r in table.rows if r.exchange_class is cls)
            assert total == pytest.approx(1.0, abs=1e-9), (name, cls)


def test_fermion_exclusion_exact_zero():
    table = run_experiment(load_scenario("fermion-exclusion"))
    rows = {(r.final.text, r.exchange_class): r for r in table.rows}
    assert rows[("p:2", FERMION)].amplitude == 0j
    assert rows[("p:2", FERMION)].probability == 0.0


def test_coarse_normalization_two_steps():
    table = run_experiment(load_scenario("two-slit-two-particle"))
    for cls in (BOSON, FERMION, DIST):
        total = sum(r.probability for r in table.rows if r.exchange_class is cls)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_coarse_amplitude_matches_matrix_product(rng):
    # Coarse graining over the interior measurement must reproduce the
    # one-step experiment on the product of the step matrices.
    u1 = haar_unitary(rng, 3)
    u2 = haar_unitary(rng, 3)

    def complex_rows(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix]

    doc = {
        "name": "chain",
        "particle_count": 2,
        "exchange_classes": ["boson", "fermion"],
        "measurements": [["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"]],
        "steps": [complex_rows(u1), complex_rows(u2)],
        "initial": {"a0": 1, "a1": 1},
        "finals": "all",
        "intermediate_policy": "coarse",
    }
    coarse = run_experiment(parse_experiment(json.dumps(doc)))
    direct_doc = {
        "name": "direct",
        "particle_count": 2,
        "exchange_classes": ["boson", "fermion"],
        "measurements": [["a0", "a1", "a2"], ["c0", "c1", "c2"]],
        "steps": [complex_rows(u1 @ u2)],
        "initial": {"a0": 1, "a1": 1},
        "finals": "all",
        "intermediate_policy": "resolved",
    }
    direct = run_experiment(parse_experiment(json.dumps(direct_doc)))
    coarse_rows = {(r.final.text, r.exchange_class): r for r in coarse.rows}
    for row in direct.rows:
        twin = coarse_rows[(row.final.text, row.exchange_class)]
        assert abs(twin.amplitude - row.amplitude) <= 1e-9
        assert twin.probability == pytest.approx(row.probability, abs=1e-9)


def _weight_permanent(matrix):
    weights = matrix.real * matrix.real + matrix.imag * matrix.imag
    return weight_permanent(weights[None])[0]


def dp_coarse_amplitudes(spec, finals, exchange_class):
    """Oracle: coarse amplitudes summed configuration by configuration.

    Dynamic programming over every intermediate configuration, dividing each
    summed-over configuration by its occupancy weight.
    """
    dp = {spec.initial: 1 + 0j}
    n = spec.particle_count
    for k, step in enumerate(spec.steps):
        last = k == len(spec.steps) - 1
        if last:
            targets = finals
        elif exchange_class is ExchangeClass.FERMION:
            targets = distinct_configurations(spec.measurements[k + 1], n)
        else:
            targets = all_configurations(spec.measurements[k + 1], n)
        new_dp = {}
        sources = sorted(dp, key=lambda c: c.items)
        for target in targets:
            acc = 0j
            for source in sources:
                weight = occupancy_weight(source) if k > 0 else 1
                restricted = restrict_matrix(step, source, target)
                acc += dp[source] * n_particle_amplitude(restricted, exchange_class) / weight
            new_dp[target] = acc
        dp = new_dp
    norm_initial = occupancy_weight(spec.initial)
    results = {}
    for final in finals:
        amplitude = dp.get(final, 0j)
        norm = norm_initial * occupancy_weight(final)
        results[final] = (amplitude, abs(amplitude) ** 2 / norm)
    return results


def dp_coarse_distinguishable(spec, finals):
    """Oracle: coarse classical probabilities summed configuration by configuration."""
    dp = {spec.initial: 1.0}
    n = spec.particle_count
    for k, step in enumerate(spec.steps):
        last = k == len(spec.steps) - 1
        targets = finals if last else all_configurations(spec.measurements[k + 1], n)
        new_dp = {}
        sources = sorted(dp, key=lambda c: c.items)
        for target in targets:
            acc = 0.0
            for source in sources:
                restricted = restrict_matrix(step, source, target)
                acc += dp[source] * _weight_permanent(restricted)
            new_dp[target] = acc / occupancy_weight(target)
        dp = new_dp
    return {final: (None, dp.get(final, 0.0)) for final in finals}


@pytest.mark.parametrize("initial", [{"a0": 2, "a3": 1}, {"a0": 1, "a2": 1, "a3": 1}])
def test_coarse_matches_dp_oracle(initial, rng):
    # Three subunitary, non-unitary steps over five modes, summed over two
    # unobserved measurements; the first initial occupies one mode twice.
    modes = 5

    def contraction():
        singular = rng.uniform(0.8, 0.99, modes)
        return haar_unitary(rng, modes) @ np.diag(singular) @ haar_unitary(rng, modes)

    steps = [contraction() for _ in range(3)]
    doc = {
        "name": "coarse-oracle",
        "particle_count": 3,
        "exchange_classes": ["boson", "fermion", "distinguishable"],
        "measurements": [[f"{prefix}{i}" for i in range(modes)] for prefix in "abcd"],
        "steps": [[[[z.real, z.imag] for z in row] for row in u] for u in steps],
        "initial": initial,
        "finals": "all",
        "intermediate_policy": "coarse",
    }
    spec = parse_experiment(json.dumps(doc))
    table = run_experiment(spec)
    finals = all_configurations(spec.measurements[-1], 3)
    oracle = {
        BOSON: dp_coarse_amplitudes(spec, finals, BOSON),
        FERMION: dp_coarse_amplitudes(spec, finals, FERMION),
        DIST: dp_coarse_distinguishable(spec, finals),
    }
    assert len(table.rows) == 3 * len(finals)
    for row in table.rows:
        amplitude, probability = oracle[row.exchange_class][row.final]
        if amplitude is None:
            assert row.amplitude is None
        else:
            assert abs(row.amplitude - amplitude) <= 1e-12
        assert abs(row.probability - probability) <= 1e-12
        if row.exchange_class is FERMION and len(row.final.items) < 3:
            assert row.amplitude == 0j
    bunched = len(spec.initial.items) < 3
    for cls in (BOSON, FERMION, DIST):
        total = sum(r.probability for r in table.rows if r.exchange_class is cls)
        if cls is FERMION and bunched:
            assert total == 0.0
        else:
            assert 0.1 < total < 1.0


def test_resolved_chain_is_product_of_steps(rng):
    u1 = haar_unitary(rng, 2)
    u2 = haar_unitary(rng, 2)

    def complex_rows(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix]

    doc = {
        "name": "resolved-chain",
        "particle_count": 2,
        "exchange_classes": ["boson", "fermion", "distinguishable"],
        "measurements": [["a0", "a1"], ["b0", "b1"], ["c0", "c1"]],
        "steps": [complex_rows(u1), complex_rows(u2)],
        "initial": {"a0": 1, "a1": 1},
        "finals": "all",
        "intermediate_policy": "resolved",
        "intermediates": [{"b0": 1, "b1": 1}],
    }
    spec = parse_experiment(json.dumps(doc))
    # round trip holds with intermediates present
    assert parse_experiment(serialize_experiment(spec)) == spec
    table = run_experiment(spec)
    rows = {(r.final.text, r.exchange_class): r for r in table.rows}

    def one_step(matrix, name):
        one = {
            "name": name,
            "particle_count": 2,
            "exchange_classes": ["boson", "fermion", "distinguishable"],
            "measurements": [["a0", "a1"], ["c0", "c1"]],
            "steps": [complex_rows(matrix)],
            "initial": {"a0": 1, "a1": 1},
            "finals": "all",
            "intermediate_policy": "resolved",
        }
        return run_experiment(parse_experiment(json.dumps(one)))

    first = {
        (r.final.text, r.exchange_class): r for r in one_step(u1, "first").rows
    }
    second = {
        (r.final.text, r.exchange_class): r for r in one_step(u2, "second").rows
    }
    # the resolved chain conditions on the distinct middle configuration, so
    # each probability is the product of the per-step probabilities
    for cls in (BOSON, FERMION, DIST):
        for final in ("c0:2", "c0:1;c1:1", "c1:2"):
            chained = rows[(final, cls)].probability
            expected = (
                first[("c0:1;c1:1", cls)].probability
                * second[(final, cls)].probability
            )
            assert chained == pytest.approx(expected, abs=1e-12)


def test_resolved_rows_match_per_final_reference(rng):
    # Four particles through a fixed, doubly occupied intermediate: the first
    # step is a stack of one, the second a stack of every final (N = 4 takes
    # the Ryser walk and the elimination, not the closed forms).
    labels = [[f"{m}{i}" for i in range(4)] for m in "abc"]
    steps = [unit_disk(rng, (4, 4)) / 2 for _ in range(2)]
    doc = {
        "name": "resolved-reference",
        "particle_count": 4,
        "exchange_classes": ["boson", "fermion", "distinguishable"],
        "measurements": labels,
        "steps": [[[[z.real, z.imag] for z in row] for row in step] for step in steps],
        "initial": {"a0": 1, "a1": 1, "a2": 1, "a3": 1},
        "finals": "all",
        "intermediate_policy": "resolved",
        "intermediates": [{"b0": 2, "b2": 1, "b3": 1}],
    }
    spec = parse_experiment(json.dumps(doc))
    table = run_experiment(spec)
    assert len(table.rows) == 3 * 35
    for row in table.rows:
        configs = (spec.initial, spec.intermediates[0], row.final)
        if row.exchange_class is DIST:
            expected = 1.0
            for k, step in enumerate(spec.steps):
                r = restrict_matrix(step, configs[k], configs[k + 1])
                weight = permanent_naive(r.real * r.real + r.imag * r.imag).real
                expected *= weight / occupancy_weight(configs[k + 1])
            assert row.probability == pytest.approx(expected, abs=1e-12)
            continue
        sequence = MeasurementSequence(configs, spec.steps)
        amplitude = sequence_amplitude(sequence, row.exchange_class)
        norm = occupancy_weight(configs[0]) * occupancy_weight(configs[1]) ** 2
        norm *= occupancy_weight(configs[2])
        assert abs(row.amplitude - amplitude) <= 1e-12
        assert row.probability == pytest.approx(abs(amplitude) ** 2 / norm, abs=1e-12)


def test_repeated_initial_normalizes(rng):
    u = haar_unitary(rng, 3)
    doc = {
        "name": "bunched",
        "particle_count": 2,
        "exchange_classes": ["boson", "distinguishable"],
        "measurements": [["a0", "a1", "a2"], ["b0", "b1", "b2"]],
        "steps": [[[[z.real, z.imag] for z in row] for row in u]],
        "initial": {"a0": 2},
        "finals": "all",
        "intermediate_policy": "resolved",
    }
    table = run_experiment(parse_experiment(json.dumps(doc)))
    for cls in (BOSON, DIST):
        total = sum(r.probability for r in table.rows if r.exchange_class is cls)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_doubly_occupied_fermions_vanish_exactly(rng):
    for _ in range(20):
        step = haar_unitary(rng, 3)[:2] * rng.uniform(0.5, 1.0)
        doc = {
            "name": "pauli",
            "particle_count": 2,
            "exchange_classes": ["boson", "fermion"],
            "measurements": [["a0", "a1"], ["b0", "b1", "b2"]],
            "steps": [[[[z.real, z.imag] for z in row] for row in step]],
            "initial": {"a0": 2},
            "finals": "all",
            "intermediate_policy": "resolved",
        }
        table = run_experiment(parse_experiment(json.dumps(doc)))
        fermion_rows = [r for r in table.rows if r.exchange_class is FERMION]
        assert len(fermion_rows) == 6
        for row in fermion_rows:
            assert repr(row.amplitude) == "0j"
            assert repr(row.probability) == "0.0"


def test_csv_format():
    table = run_experiment(parse_experiment(hom_text()))
    lines = table.to_csv().splitlines()
    assert lines[0] == "final,class,amp_re,amp_im,probability"
    assert len(lines) == 1 + len(table.rows)
    dist_lines = [line for line in lines if ",distinguishable," in line]
    assert all(",,," in line for line in dist_lines)


def test_json_format():
    table = run_experiment(parse_experiment(hom_text()))
    payload = json.loads(table.to_json())
    assert isinstance(payload, list)
    assert payload[0]["final"] == {"out0": 2}
    assert payload[0]["class"] == "boson"
    assert isinstance(payload[0]["amplitude"], list)
    dist_rows = [row for row in payload if row["class"] == "distinguishable"]
    assert all(row["amplitude"] is None for row in dist_rows)


def test_result_metadata():
    table = run_experiment(parse_experiment(hom_text()))
    assert table.spec_name == "hom"


# ---------------------------------------------------------------------------
# sampling


def test_sampling_requires_all_finals():
    spec = load_scenario("fermion-exclusion")
    with pytest.raises(ExperimentFormatError, match='finals "all"'):
        sample_outcomes(spec, 10, seed=1, exchange_class=FERMION)


def test_sampling_requires_single_class():
    spec = load_scenario("hom-beamsplitter")
    with pytest.raises(ExperimentFormatError, match="selected"):
        sample_outcomes(spec, 10, seed=1)


def test_sampling_rejects_non_unitary():
    doc = json.loads(hom_text())
    doc["steps"] = [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]
    spec = parse_experiment(json.dumps(doc))
    with pytest.raises(NormalizationError):
        sample_outcomes(spec, 10, seed=1, exchange_class=BOSON)


def test_sampling_hom_extremes():
    spec = load_scenario("hom-beamsplitter")
    boson = dict(
        (c.text, n) for c, n in sample_outcomes(spec, 1000, seed=3, exchange_class=BOSON)
    )
    assert boson["out0:1;out1:1"] == 0
    fermion = dict(
        (c.text, n) for c, n in sample_outcomes(spec, 1000, seed=3, exchange_class=FERMION)
    )
    assert fermion["out0:1;out1:1"] == 1000


def test_sampling_seeded_determinism():
    spec = load_scenario("hom-beamsplitter")
    first = sample_outcomes(spec, 500, seed=17, exchange_class=DIST)
    second = sample_outcomes(spec, 500, seed=17, exchange_class=DIST)
    assert first == second


def test_sampling_histogram_matches_distribution():
    spec = load_scenario("hom-beamsplitter")
    counts = dict(
        (c.text, n)
        for c, n in sample_outcomes(spec, 100_000, seed=23, exchange_class=DIST)
    )
    coincidence_rate = counts["out0:1;out1:1"] / 100_000
    assert abs(coincidence_rate - 0.5) <= 0.01


# ---------------------------------------------------------------------------
# bench


def test_bench_zero_reps_empty():
    assert bench_permanent(max_n=8, repetitions=0) == []
    assert bench_to_csv([]) == "n,median_ns,oracle_checked\n"


def test_bench_rows_and_oracle_flags():
    rows = bench_permanent(max_n=12, repetitions=1)
    assert [row.n for row in rows] == list(range(2, 13))
    for row in rows:
        assert row.oracle_checked == (row.n <= 10)
        assert row.median_ns >= 0
    csv = bench_to_csv(rows)
    assert csv.startswith("n,median_ns,oracle_checked\n")
    assert "true" in csv and "false" in csv


def test_bench_caps_max_n():
    with pytest.raises(MatrixSizeError):
        bench_permanent(max_n=30, repetitions=1)
