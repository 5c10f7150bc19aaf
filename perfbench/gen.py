"""Seeded inputs for the idamp benchmark workloads.

Uses numpy only, with its own Haar sampler, so that no change to idamp can
change what the benchmark feeds it. The same (workload, seed) pair always
yields byte-identical experiment documents.

Each input is a dict with:
    name   file stem, also the key the checks use
    argv   idamp command line; "{file}" stands for the written document
    doc    the experiment document (None for verify)
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("coarse-table", "verify-suite")

#: Distinct inputs per run; operations cycle through them.
INPUTS_PER_RUN = 4

ALL_CLASSES = ["boson", "fermion", "distinguishable"]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by diag(R)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def mode_labels(prefix: str, modes: int) -> list[str]:
    """Zero-padded labels, so string order equals mode order."""
    width = len(str(modes - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(modes)]


def occupation(labels: list[str], modes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for mode in sorted(int(m) for m in modes):
        counts[labels[mode]] = counts.get(labels[mode], 0) + 1
    return counts


def matrix_doc(u: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def distinct_modes(rng: np.random.Generator, modes: int, particles: int) -> list[int]:
    return sorted(int(m) for m in rng.choice(modes, size=particles, replace=False))


def coarse_doc(rng: np.random.Generator, index: int) -> dict:
    """3 particles, 8 modes, 2 Haar steps, the middle measurement summed over."""
    particles, modes = 3, 8
    measurements = [mode_labels(prefix, modes) for prefix in "abc"]
    return {
        "name": f"coarse-{index}",
        "particle_count": particles,
        "exchange_classes": list(ALL_CLASSES),
        "measurements": measurements,
        "steps": [matrix_doc(haar_unitary(rng, modes)) for _ in range(2)],
        "initial": occupation(measurements[0], distinct_modes(rng, modes, particles)),
        "finals": "all",
        "intermediate_policy": "coarse",
    }


def generate(workload: str, seed: int) -> list[dict]:
    """The run's inputs, a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = []
    for i in range(INPUTS_PER_RUN):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), i])
        name = f"{workload}-{i}"
        if workload == "verify-suite":
            verify_seed = int(rng.integers(0, 2**31 - 1))
            inputs.append({"name": name, "argv": ["verify", "--seed", str(verify_seed)], "doc": None})
        else:
            doc = coarse_doc(rng, i)
            inputs.append({"name": name, "argv": ["run", "{file}", "--output", "csv"], "doc": doc})
    return inputs


def document_bytes(doc: dict) -> bytes:
    """Strict JSON (no NaN or infinity); floats keep their round-trip repr."""
    return (json.dumps(doc, indent=1, allow_nan=False) + "\n").encode("utf-8")


def check_reproducible(workload: str, seed: int, inputs: list[dict]) -> None:
    """Raise unless a second generation gives byte-identical inputs."""
    if document_bytes(generate(workload, seed)) != document_bytes(inputs):
        raise RuntimeError(f"{workload} inputs are not reproducible from seed {seed}")
