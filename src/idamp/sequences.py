"""Measurement sequences and the rules for composing their amplitudes.

A sequence is an ordered chain of configurations (multisets of outcome
labels, one per measurement) joined by steps that carry the single-particle
transition matrix between consecutive measurements. Concatenation multiplies
amplitudes, coarse graining over an unobserved intermediate measurement adds
them, and reversing a sequence conjugates its amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Mapping

import numpy as np

from .errors import ExchangeClassError, SequenceError
from .kernels import ExchangeClass, n_particle_amplitude

#: Slack on the unit-disk invariant for step matrix entries.
ENTRY_SLACK = 1e-12


@dataclass(frozen=True)
class Configuration:
    """Multiset of outcome labels with occupation counts, canonically ordered."""

    items: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.items:
            raise SequenceError("configuration must contain at least one particle")
        labels = [label for label, _ in self.items]
        if labels != sorted(labels) or len(set(labels)) != len(labels):
            raise SequenceError(f"labels must be unique and sorted, got {labels}")
        for label, count in self.items:
            if not isinstance(label, str) or not label:
                raise SequenceError(f"labels must be non-empty strings, got {label!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise SequenceError(f"occupation counts must be integers >= 1, got {count!r}")

    @classmethod
    def from_counts(cls, occupations: Mapping[str, int]) -> "Configuration":
        return cls(tuple(sorted(occupations.items())))

    @classmethod
    def of(cls, *labels: str) -> "Configuration":
        """Configuration from one label per particle (repeats allowed)."""
        counts: dict[str, int] = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        return cls.from_counts(counts)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.items)

    @property
    def expanded(self) -> tuple[str, ...]:
        """One label per particle, in canonical order; fixes row/column order."""
        return tuple(label for label, count in self.items for _ in range(count))

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    @property
    def text(self) -> str:
        return ";".join(f"{label}:{count}" for label, count in self.items)

    def __str__(self) -> str:
        return self.text


def occupancy_weight(config: Configuration) -> int:
    """Product of factorials of the occupation counts."""
    weight = 1
    for _, count in config.items:
        weight *= math.factorial(count)
    return weight


def all_configurations(labels: Iterable[str], total: int) -> tuple[Configuration, ...]:
    """All size-`total` multisets over `labels`, in canonical order."""
    return tuple(
        Configuration.of(*combo)
        for combo in combinations_with_replacement(sorted(labels), total)
    )


def distinct_configurations(labels: Iterable[str], total: int) -> tuple[Configuration, ...]:
    """Size-`total` subsets (no repeats) over `labels`, in canonical order."""
    return tuple(
        Configuration.of(*combo) for combo in combinations(sorted(labels), total)
    )


@dataclass(frozen=True, eq=False)
class MeasurementStep:
    """Transition matrix between the outcome sets of two consecutive measurements.

    ``matrix[i, j]`` is the single-particle amplitude from ``row_labels[i]``
    of the earlier measurement to ``col_labels[j]`` of the later one.
    """

    label: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        rows, cols = tuple(self.row_labels), tuple(self.col_labels)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise SequenceError("step outcome labels must be unique")
        a = np.array(self.matrix, dtype=np.complex128)
        if a.shape != (len(rows), len(cols)):
            raise SequenceError(
                f"step {self.label!r}: matrix shape {a.shape} does not match "
                f"{len(rows)} x {len(cols)} outcome labels"
            )
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise SequenceError(f"step {self.label!r}: matrix entries must be finite")
        moduli = np.abs(a)
        if np.any(moduli > 1.0 + ENTRY_SLACK):
            raise SequenceError(
                f"step {self.label!r}: entry modulus {moduli.max()!r} exceeds the unit disk"
            )
        a.setflags(write=False)
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        object.__setattr__(self, "matrix", a)

    @cached_property
    def _row_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.row_labels)}

    @cached_property
    def _col_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.col_labels)}

    def same_structure(self, other: "MeasurementStep") -> bool:
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and np.array_equal(self.matrix, other.matrix)
        )

    def __eq__(self, other):
        if not isinstance(other, MeasurementStep):
            return NotImplemented
        return self.label == other.label and self.same_structure(other)

    def __hash__(self):
        return hash((self.label, self.row_labels, self.col_labels, self.matrix.tobytes()))

    def reversed(self) -> "MeasurementStep":
        """Step for the interchanged measurements: adjoint matrix, labels swapped."""
        return MeasurementStep(
            label=self.label,
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            matrix=self.matrix.conj().T,
        )


def restrict_matrix(
    step: MeasurementStep, source: Configuration, target: Configuration
) -> np.ndarray:
    """N x N matrix between two configurations, repeating rows/columns by occupation."""
    if source.total != target.total:
        raise SequenceError(
            f"particle count mismatch: {source.total} -> {target.total}"
        )
    try:
        rows = [step._row_index[label] for label in source.expanded]
    except KeyError as exc:
        raise SequenceError(
            f"label {exc.args[0]!r} not among step {step.label!r} source outcomes"
        ) from None
    try:
        cols = [step._col_index[label] for label in target.expanded]
    except KeyError as exc:
        raise SequenceError(
            f"label {exc.args[0]!r} not among step {step.label!r} target outcomes"
        ) from None
    return step.matrix[np.ix_(rows, cols)]


@dataclass(frozen=True, eq=False)
class MeasurementSequence:
    """Ordered configurations joined by transition steps, all with equal N."""

    configurations: tuple[Configuration, ...]
    steps: tuple[MeasurementStep, ...]

    def __post_init__(self):
        configs = tuple(self.configurations)
        steps = tuple(self.steps)
        if not configs:
            raise SequenceError("a sequence needs at least one configuration")
        if len(steps) != len(configs) - 1:
            raise SequenceError(
                f"{len(configs)} configurations require {len(configs) - 1} steps, "
                f"got {len(steps)}"
            )
        n = configs[0].total
        for config in configs[1:]:
            if config.total != n:
                raise SequenceError(
                    f"particle count mismatch: {n} vs {config.total}"
                )
        for k, step in enumerate(steps):
            missing = set(configs[k].labels) - set(step.row_labels)
            if missing:
                raise SequenceError(
                    f"configuration {k} labels {sorted(missing)} missing from "
                    f"step {step.label!r} source outcomes"
                )
            missing = set(configs[k + 1].labels) - set(step.col_labels)
            if missing:
                raise SequenceError(
                    f"configuration {k + 1} labels {sorted(missing)} missing from "
                    f"step {step.label!r} target outcomes"
                )
        object.__setattr__(self, "configurations", configs)
        object.__setattr__(self, "steps", steps)

    @property
    def particle_count(self) -> int:
        return self.configurations[0].total

    @property
    def initial(self) -> Configuration:
        return self.configurations[0]

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]


def sequence_amplitude(seq: MeasurementSequence, exchange_class: ExchangeClass) -> complex:
    """Product over steps of the N-particle amplitude of each restriction."""
    amplitude = 1 + 0j
    for k, step in enumerate(seq.steps):
        restricted = restrict_matrix(step, seq.configurations[k], seq.configurations[k + 1])
        amplitude *= n_particle_amplitude(restricted, exchange_class)
    return amplitude


def concatenate(s1: MeasurementSequence, s2: MeasurementSequence) -> MeasurementSequence:
    """Join two sequences whose junction configurations coincide."""
    if s1.final != s2.initial:
        raise SequenceError(
            f"junction mismatch: {s1.final.text} != {s2.initial.text}"
        )
    return MeasurementSequence(
        configurations=s1.configurations + s2.configurations[1:],
        steps=s1.steps + s2.steps,
    )


def coarse_grain_sum(
    family: list[MeasurementSequence], exchange_class: ExchangeClass
) -> complex:
    """Amplitude of the coarse graining of sequences differing at one interior index.

    Members must be identical except for a single intermediate configuration;
    their amplitudes are summed in canonical configuration order.
    """
    if not family:
        raise SequenceError("coarse graining requires at least one sequence")
    base = family[0]
    k_count = len(base.configurations)
    varying: set[int] = set()
    for member in family[1:]:
        if len(member.configurations) != k_count or len(member.steps) != len(base.steps):
            raise SequenceError("family members must have the same length")
        for step_a, step_b in zip(base.steps, member.steps):
            if not step_a.same_structure(step_b):
                raise SequenceError("family members must share identical steps")
        for idx in range(k_count):
            if member.configurations[idx] != base.configurations[idx]:
                varying.add(idx)
    if len(varying) > 1:
        raise SequenceError(
            f"family members differ at indices {sorted(varying)}; only one is allowed"
        )
    if varying:
        idx = varying.pop()
        if idx in (0, k_count - 1):
            raise SequenceError("only an interior configuration may vary")
        seen = [member.configurations[idx] for member in family]
        if len(set(seen)) != len(seen):
            raise SequenceError("intermediate configurations must be distinct")
        ordered = sorted(family, key=lambda m: m.configurations[idx].items)
    else:
        if len(family) > 1:
            raise SequenceError("intermediate configurations must be distinct")
        ordered = list(family)
    total = 0j
    for member in ordered:
        total += sequence_amplitude(member, exchange_class)
    return total


def compose_coarse(
    step_a: MeasurementStep,
    step_b: MeasurementStep,
    source: Configuration,
    target: Configuration,
    exchange_class: ExchangeClass,
) -> complex:
    """Two-step amplitude with the middle measurement fully coarse grained.

    Fermions sum det(A_restricted) * det(B_restricted) over all size-N subsets
    of the intermediate outcomes; bosons sum the permanent products over all
    size-N multisets, each divided by the product of multiplicity factorials.
    """
    if set(step_a.col_labels) != set(step_b.row_labels):
        raise SequenceError(
            "intermediate outcome sets of the two steps do not match"
        )
    if source.total != target.total:
        raise SequenceError(
            f"particle count mismatch: {source.total} -> {target.total}"
        )
    if exchange_class is ExchangeClass.FERMION:
        middles = distinct_configurations(step_a.col_labels, source.total)
    elif exchange_class is ExchangeClass.BOSON:
        middles = all_configurations(step_a.col_labels, source.total)
    else:
        raise ExchangeClassError("coarse composition is defined for bosons and fermions")
    total = 0j
    for middle in middles:
        left = n_particle_amplitude(restrict_matrix(step_a, source, middle), exchange_class)
        right = n_particle_amplitude(restrict_matrix(step_b, middle, target), exchange_class)
        total += left * right / occupancy_weight(middle)
    return total


def reverse_sequence(seq: MeasurementSequence) -> MeasurementSequence:
    """Time-reversed sequence: configurations reversed, each step adjointed.

    Reciprocity conjugates every single-particle amplitude, and the joint
    amplitude functions are conjugation-equivariant, so the reversed sequence
    carries the conjugate amplitude.
    """
    return MeasurementSequence(
        configurations=tuple(reversed(seq.configurations)),
        steps=tuple(step.reversed() for step in reversed(seq.steps)),
    )
