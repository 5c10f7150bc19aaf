"""Config-driven experiment runner, outcome sampler, and benchmark harness.

Experiment documents are strict JSON (unknown keys are errors):

    {
      "name": "hom-beamsplitter",
      "particle_count": 2,
      "exchange_classes": ["boson", "fermion", "distinguishable"],
      "measurements": [["in0", "in1"], ["out0", "out1"]],
      "steps": [[[[0.707, 0.0], [0.707, 0.0]], [[0.707, 0.0], [-0.707, 0.0]]]],
      "initial": {"in0": 1, "in1": 1},
      "finals": "all",
      "intermediate_policy": "resolved"
    }

Complex entries are [re, im] pairs. ``steps[k]`` maps the outcomes of
measurement k (rows) to those of measurement k+1 (columns). ``finals`` is an
explicit list of configurations or the token "all". With the "resolved"
policy an ``intermediates`` list supplies one configuration per interior
measurement. "coarse" leaves the interior measurements unobserved; by
Cauchy-Binet, summing over their configurations is the same as one step
through the product of the step matrices. Bosons and fermions take the
permanent or determinant of the restricted product ``A1 @ ... @ Ak``;
distinguishable particles take the permanent of the restricted
``|A1|^2 @ ... @ |Ak|^2`` (entrywise squared moduli, not ``|A1 @ ... @ Ak|^2``)
over the final weight. The cost does not grow with the number of
intermediate configurations.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from functools import reduce
from importlib import resources
from typing import Iterable

import numpy as np

from .amplitudes import clamp_probability
from .errors import (
    ExperimentFormatError,
    IdampError,
    MatrixSizeError,
    NormalizationError,
)
from .kernels import (
    ExchangeClass,
    NAIVE_MAX_N,
    RYSER_MAX_N,
    n_particle_amplitudes,
    permanent_naive,
    permanent_ryser,
    weight_permanent,
)
from .sampling import unit_disk_matrix
from .sequences import (
    ENTRY_SLACK,
    Configuration,
    MeasurementStep,
    all_configurations,
    occupancy_weight,
)

#: Slack for the [0, 1] window on reported probabilities.
_TABLE_PROB_WINDOW = 1e-9

#: Allowed deviation of a sampled distribution's total probability from 1.
_SAMPLING_NORM_TOL = 1e-6

_CLASS_NAMES = {c.value: c for c in ExchangeClass}

_POLICIES = ("resolved", "coarse")

_TOP_LEVEL_KEYS = (
    "name",
    "particle_count",
    "exchange_classes",
    "measurements",
    "steps",
    "initial",
    "finals",
    "intermediate_policy",
    "intermediates",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment document. ``finals`` is None for the "all" token."""

    name: str
    particle_count: int
    exchange_classes: tuple[ExchangeClass, ...]
    measurements: tuple[tuple[str, ...], ...]
    steps: tuple[MeasurementStep, ...]
    initial: Configuration
    finals: tuple[Configuration, ...] | None
    intermediate_policy: str
    intermediates: tuple[Configuration, ...] = ()

    def with_classes(self, classes: Iterable[ExchangeClass]) -> "ExperimentSpec":
        return replace(self, exchange_classes=tuple(classes))


@dataclass(frozen=True)
class ResultRow:
    final: Configuration
    exchange_class: ExchangeClass
    amplitude: complex | None  # None for distinguishable rows
    probability: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]
    spec_name: str

    def to_csv(self) -> str:
        lines = ["final,class,amp_re,amp_im,probability"]
        for row in self.rows:
            if row.amplitude is None:
                amp_re = amp_im = ""
            else:
                amp_re = repr(row.amplitude.real)
                amp_im = repr(row.amplitude.imag)
            lines.append(
                f"{row.final.text},{row.exchange_class.value},"
                f"{amp_re},{amp_im},{row.probability!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = []
        for row in self.rows:
            amplitude = None
            if row.amplitude is not None:
                amplitude = [row.amplitude.real, row.amplitude.imag]
            payload.append(
                {
                    "final": row.final.as_dict(),
                    "class": row.exchange_class.value,
                    "amplitude": amplitude,
                    "probability": row.probability,
                }
            )
        return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing and serialization


def _fail(path: str, message: str):
    raise ExperimentFormatError(f"{path}: {message}")


def _require_int(value, path: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _parse_entry(value, path: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(part, bool) or not isinstance(part, (int, float)) for part in value)
    ):
        _fail(path, f"complex entries must be [re, im] number pairs, got {value!r}")
    entry = complex(float(value[0]), float(value[1]))
    if abs(entry) > 1.0 + ENTRY_SLACK:
        _fail(path, f"entry modulus {abs(entry)!r} exceeds the unit disk")
    return entry


def _parse_configuration(value, path: str, labels: tuple[str, ...], total: int) -> Configuration:
    if not isinstance(value, dict) or not value:
        _fail(path, f"expected a non-empty label -> count object, got {value!r}")
    for label, count in value.items():
        if label not in labels:
            _fail(path, f"label {label!r} is not an outcome of this measurement")
        _require_int(count, f"{path}[{label!r}]", minimum=1)
    config = Configuration.from_counts(value)
    if config.total != total:
        _fail(path, f"occupations sum to {config.total}, expected {total}")
    return config


def parse_experiment(text: bytes | str) -> ExperimentSpec:
    """Parse and validate a UTF-8 JSON experiment document (strict schema)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ExperimentFormatError(f"document is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExperimentFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ExperimentFormatError("top level must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ExperimentFormatError(f"unknown fields: {', '.join(unknown)}")
    missing = [key for key in _TOP_LEVEL_KEYS if key not in doc and key != "intermediates"]
    if missing:
        raise ExperimentFormatError(f"missing fields: {', '.join(missing)}")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        _fail("name", f"expected a non-empty string, got {name!r}")
    total = _require_int(doc["particle_count"], "particle_count", minimum=1)

    raw_classes = doc["exchange_classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        _fail("exchange_classes", "expected a non-empty list")
    classes = []
    for i, raw in enumerate(raw_classes):
        if raw not in _CLASS_NAMES:
            _fail(f"exchange_classes[{i}]", f"unknown class {raw!r}")
        cls = _CLASS_NAMES[raw]
        if cls in classes:
            _fail(f"exchange_classes[{i}]", f"duplicate class {raw!r}")
        classes.append(cls)

    raw_measurements = doc["measurements"]
    if not isinstance(raw_measurements, list) or not raw_measurements:
        _fail("measurements", "expected a non-empty list of outcome label sets")
    measurements = []
    for k, raw in enumerate(raw_measurements):
        path = f"measurements[{k}]"
        if not isinstance(raw, list) or not raw:
            _fail(path, "expected a non-empty list of labels")
        if any(not isinstance(label, str) or not label for label in raw):
            _fail(path, "labels must be non-empty strings")
        if len(set(raw)) != len(raw):
            _fail(path, "labels must be unique")
        measurements.append(tuple(raw))
    measurements = tuple(measurements)

    raw_steps = doc["steps"]
    if not isinstance(raw_steps, list) or len(raw_steps) != len(measurements) - 1:
        _fail("steps", f"expected {len(measurements) - 1} step matrices")
    steps = []
    for k, raw in enumerate(raw_steps):
        rows, cols = measurements[k], measurements[k + 1]
        path = f"steps[{k}]"
        if not isinstance(raw, list) or len(raw) != len(rows):
            _fail(path, f"expected {len(rows)} rows, got {raw!r}")
        matrix = np.zeros((len(rows), len(cols)), dtype=np.complex128)
        for i, raw_row in enumerate(raw):
            if not isinstance(raw_row, list) or len(raw_row) != len(cols):
                _fail(f"{path}[{i}]", f"expected {len(cols)} entries")
            for j, raw_entry in enumerate(raw_row):
                matrix[i, j] = _parse_entry(raw_entry, f"{path}[{i}][{j}]")
        steps.append(
            MeasurementStep(label=f"step-{k}", row_labels=rows, col_labels=cols, matrix=matrix)
        )

    initial = _parse_configuration(doc["initial"], "initial", measurements[0], total)

    raw_finals = doc["finals"]
    if raw_finals == "all":
        finals = None
    else:
        if not isinstance(raw_finals, list) or not raw_finals:
            _fail("finals", 'expected "all" or a non-empty list of configurations')
        finals = []
        for i, raw in enumerate(raw_finals):
            config = _parse_configuration(raw, f"finals[{i}]", measurements[-1], total)
            if config in finals:
                _fail(f"finals[{i}]", f"duplicate configuration {config.text}")
            finals.append(config)
        finals = tuple(finals)

    policy = doc["intermediate_policy"]
    if policy not in _POLICIES:
        _fail("intermediate_policy", f"expected one of {_POLICIES}, got {policy!r}")

    raw_intermediates = doc.get("intermediates", [])
    interior = len(measurements) - 2
    if policy == "coarse" and raw_intermediates:
        _fail("intermediates", 'must be absent under the "coarse" policy')
    intermediates: tuple[Configuration, ...] = ()
    if policy == "resolved" and interior > 0:
        if not isinstance(raw_intermediates, list) or len(raw_intermediates) != interior:
            _fail(
                "intermediates",
                f'"resolved" policy requires {interior} interior configurations',
            )
        intermediates = tuple(
            _parse_configuration(raw, f"intermediates[{i}]", measurements[i + 1], total)
            for i, raw in enumerate(raw_intermediates)
        )
    elif raw_intermediates:
        _fail("intermediates", "not allowed when there are no interior measurements")

    return ExperimentSpec(
        name=name,
        particle_count=total,
        exchange_classes=tuple(classes),
        measurements=measurements,
        steps=tuple(steps),
        initial=initial,
        finals=finals,
        intermediate_policy=policy,
        intermediates=intermediates,
    )


def serialize_experiment(spec: ExperimentSpec) -> str:
    """Canonical JSON text; parse(serialize(spec)) == spec."""
    doc = {
        "name": spec.name,
        "particle_count": spec.particle_count,
        "exchange_classes": [c.value for c in spec.exchange_classes],
        "measurements": [list(m) for m in spec.measurements],
        "steps": [
            [[[entry.real, entry.imag] for entry in row] for row in step.matrix]
            for step in spec.steps
        ],
        "initial": spec.initial.as_dict(),
        "finals": "all" if spec.finals is None else [f.as_dict() for f in spec.finals],
        "intermediate_policy": spec.intermediate_policy,
    }
    if spec.intermediates:
        doc["intermediates"] = [c.as_dict() for c in spec.intermediates]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# running


def _final_configurations(spec: ExperimentSpec) -> tuple[Configuration, ...]:
    if spec.finals is None:
        return all_configurations(spec.measurements[-1], spec.particle_count)
    return tuple(sorted(spec.finals, key=lambda c: c.items))


def _class_results(
    spec: ExperimentSpec,
    finals: tuple[Configuration, ...],
    exchange_class: ExchangeClass,
) -> tuple[list[complex] | None, list[float]]:
    """Amplitudes (None for distinguishable particles) and probabilities of
    the finals, in their order.

    Bosons and fermions chain the step matrices, distinguishable particles
    their entrywise squared moduli. Under the "coarse" policy the unobserved
    measurements are summed out by multiplying the chained matrices
    (Cauchy-Binet), which leaves one link from the initial to the final
    measurement. Each link then gathers its restrictions to every final as
    one (F, N, N) stack (a stack of one between two fixed configurations) and
    makes one kernel call for it.
    """
    distinguishable = exchange_class is ExchangeClass.DISTINGUISHABLE
    matrices = [step.matrix for step in spec.steps]
    if distinguishable:
        matrices = [a.real * a.real + a.imag * a.imag for a in matrices]
    observed = range(len(spec.measurements))
    interior = spec.intermediates
    if spec.intermediate_policy == "coarse":
        matrices = [reduce(np.matmul, matrices)]
        observed = (0, len(spec.measurements) - 1)
        interior = ()
    index = [{label: i for i, label in enumerate(spec.measurements[m])} for m in observed]
    # Per measurement: the configurations (one fixed, or every final), their
    # (count, N) label indices and their occupancy weights.
    configs = [(c,) for c in (spec.initial, *interior)] + [finals]
    lines = [
        np.array([[index[k][label] for label in c.expanded] for c in group])
        for k, group in enumerate(configs)
    ]
    weights = [np.array([float(occupancy_weight(c)) for c in group]) for group in configs]

    amplitudes = np.ones(len(finals), dtype=np.complex128)
    probabilities = np.ones(len(finals))
    norms = np.ones(len(finals))
    for k, matrix in enumerate(matrices):
        rows, cols = lines[k], lines[k + 1]
        restricted = matrix[rows[:, :, None], cols[:, None, :]]
        if distinguishable:
            probabilities = probabilities * (weight_permanent(restricted) / weights[k + 1])
        else:
            amplitudes = amplitudes * n_particle_amplitudes(restricted, exchange_class)
            norms = norms * (weights[k] * weights[k + 1])
    if not distinguishable:
        probabilities = np.abs(amplitudes) ** 2 / norms
    clamped = [clamp_probability(p, window=_TABLE_PROB_WINDOW) for p in probabilities.tolist()]
    return (None if distinguishable else amplitudes.tolist()), clamped


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """One row per (final configuration, exchange class), in canonical order."""
    finals = _final_configurations(spec)
    per_class = [_class_results(spec, finals, cls) for cls in spec.exchange_classes]
    rows = []
    for i, final in enumerate(finals):
        for exchange_class, (amplitudes, probabilities) in zip(spec.exchange_classes, per_class):
            amplitude = None if amplitudes is None else amplitudes[i]
            rows.append(ResultRow(final, exchange_class, amplitude, probabilities[i]))
    return ResultTable(rows=tuple(rows), spec_name=spec.name)


def sample_outcomes(
    spec: ExperimentSpec,
    draws: int,
    seed: int,
    exchange_class: ExchangeClass | None = None,
) -> list[tuple[Configuration, int]]:
    """Multinomial draws from the final-configuration distribution.

    Requires finals "all" and (effectively) unitary steps: the computed
    probabilities must sum to 1 within a small tolerance or the run aborts.
    """
    if spec.finals is not None:
        raise ExperimentFormatError('sampling requires finals "all"')
    if draws < 0:
        raise ExperimentFormatError(f"draws must be >= 0, got {draws}")
    if exchange_class is None:
        if len(spec.exchange_classes) != 1:
            raise ExperimentFormatError(
                "an exchange class must be selected when the spec lists several"
            )
        exchange_class = spec.exchange_classes[0]
    table = run_experiment(spec.with_classes([exchange_class]))
    probabilities = np.array([row.probability for row in table.rows])
    total = float(probabilities.sum())
    if abs(total - 1.0) > _SAMPLING_NORM_TOL:
        raise NormalizationError(
            f"final probabilities sum to {total!r}; expected 1 within {_SAMPLING_NORM_TOL:g} "
            "(are all steps unitary?)"
        )
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(draws, probabilities / total)
    return [(row.final, int(count)) for row, count in zip(table.rows, counts)]


# ---------------------------------------------------------------------------
# benchmark


@dataclass(frozen=True)
class BenchRow:
    n: int
    median_ns: int
    oracle_checked: bool


def bench_permanent(max_n: int = 12, repetitions: int = 3, seed: int = 2024) -> list[BenchRow]:
    """Median wall time of the Ryser kernel per matrix size, n = 2..max_n.

    For n <= NAIVE_MAX_N each timed value is also checked against the
    brute-force oracle. repetitions=0 yields an empty table.
    """
    if max_n < 2:
        raise IdampError(f"max_n must be >= 2, got {max_n}")
    if max_n > RYSER_MAX_N:
        raise MatrixSizeError(f"max_n must be <= {RYSER_MAX_N}, got {max_n}")
    if repetitions < 0:
        raise IdampError(f"repetitions must be >= 0, got {repetitions}")
    if repetitions == 0:
        return []
    rng = np.random.default_rng(seed)
    permanent_ryser(np.eye(2, dtype=np.complex128))  # JIT warmup, untimed
    rows = []
    for n in range(2, max_n + 1):
        matrix = unit_disk_matrix(rng, n)
        value = 0j
        times = []
        for _ in range(repetitions):
            start = time.perf_counter_ns()
            value = permanent_ryser(matrix)
            times.append(time.perf_counter_ns() - start)
        checked = n <= NAIVE_MAX_N
        if checked:
            reference = permanent_naive(matrix)
            if abs(value - reference) > 1e-9 * max(1.0, abs(reference)):
                raise RuntimeError(
                    f"Ryser kernel disagrees with the oracle at n={n}: "
                    f"{value!r} vs {reference!r}"
                )
        rows.append(BenchRow(n=n, median_ns=int(statistics.median(times)), oracle_checked=checked))
    return rows


def bench_to_csv(rows: list[BenchRow]) -> str:
    lines = ["n,median_ns,oracle_checked"]
    for row in rows:
        lines.append(f"{row.n},{row.median_ns},{'true' if row.oracle_checked else 'false'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled scenarios


def scenario_names() -> list[str]:
    root = resources.files("idamp") / "scenarios"
    return sorted(path.name[: -len(".json")] for path in root.iterdir() if path.name.endswith(".json"))


def scenario_text(name: str) -> str:
    path = resources.files("idamp") / "scenarios" / f"{name}.json"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ExperimentFormatError(
            f"unknown scenario {name!r}; bundled: {', '.join(scenario_names())}"
        ) from None


def load_scenario(name: str) -> ExperimentSpec:
    return parse_experiment(scenario_text(name))
