"""Independent checks of idamp's output, in numpy only.

Each ``check_*`` function takes the generated input and the command's captured
stdout and returns a list of problems (empty when the output is correct).
Nothing here imports idamp: the references are brute-force permutation sums
and Cauchy-Binet matrix products.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

#: Allowed deviation of amplitudes and probabilities from the references.
TOLERANCE = 1e-9

CLASS_NAMES = ("boson", "fermion", "distinguishable")

VERIFY_CHECKS = frozenset(
    {
        "column-additivity-boson",
        "column-additivity-fermion",
        "conjugation-equivariance",
        "functional-equation-conjugation",
        "functional-equation-counterexamples",
        "functional-equation-identity",
        "mixed-term-vanishing",
        "reciprocity-constants-boson",
        "reciprocity-constants-fermion",
        "sign-character-count",
        "sign-collapse-three-particles",
        "slide-identities-boson",
        "slide-identities-fermion",
        "two-step-factorization-boson",
        "two-step-factorization-fermion",
    }
)

VERIFY_SURVIVORS = (
    "three-particle sign survivors by filter: product-rule=2, probability-pair=16, both=2"
)


# -- reference kernels -------------------------------------------------------


@lru_cache(maxsize=None)
def _permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    inversions = np.zeros(len(perms), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += perms[:, i] > perms[:, j]
    return perms, 1 - 2 * (inversions & 1)


def brute_force(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(permanents, determinants) of a stack (S, n, n) by the n! expansion."""
    n = stack.shape[-1]
    perms, signs = _permutation_table(n)
    products = stack[:, np.arange(n), perms].prod(axis=-1)  # (S, n!)
    return products.sum(axis=-1), products @ signs


# -- parsing -----------------------------------------------------------------


def parse_csv(text: str) -> dict[tuple[str, str], tuple[complex | None, float]]:
    """{(final text, class): (amplitude or None, probability)}; raises on bad rows."""
    lines = text.splitlines()
    if not lines or lines[0] != "final,class,amp_re,amp_im,probability":
        raise ValueError("missing CSV header")
    rows: dict[tuple[str, str], tuple[complex | None, float]] = {}
    for line in lines[1:]:
        final, cls, re_part, im_part, prob = line.split(",")
        amplitude = None if re_part == "" else complex(float(re_part), float(im_part))
        if (final, cls) in rows:
            raise ValueError(f"duplicate row {final},{cls}")
        rows[(final, cls)] = (amplitude, float(prob))
    return rows


def config_text(labels: list[str], modes) -> str:
    counts: dict[str, int] = {}
    for mode in modes:
        counts[labels[mode]] = counts.get(labels[mode], 0) + 1
    return ";".join(f"{label}:{counts[label]}" for label in sorted(counts))


def expanded_modes(labels: list[str], occupation: dict[str, int]) -> list[int]:
    """One mode index per particle, ordered as idamp orders rows and columns."""
    index = {label: i for i, label in enumerate(labels)}
    return [index[label] for label in sorted(occupation) for _ in range(occupation[label])]


def occupancy_weight(modes) -> int:
    weight = 1
    for mode in set(modes):
        weight *= math.factorial(list(modes).count(mode))
    return weight


def _step(doc: dict, k: int) -> np.ndarray:
    return np.array([[complex(*entry) for entry in row] for row in doc["steps"][k]])


def _compare(rows, expected) -> list[str]:
    """Compare parsed rows with {(final, class): (amp, prob)} references."""
    problems = []
    if set(rows) != set(expected):
        missing = len(set(expected) - set(rows))
        extra = len(set(rows) - set(expected))
        return [f"row set differs: {missing} missing, {extra} unexpected"]
    for key, (ref_amp, ref_prob) in expected.items():
        amp, prob = rows[key]
        if (ref_amp is None) != (amp is None):
            problems.append(f"{key}: amplitude presence differs")
        elif ref_amp is not None and abs(amp - ref_amp) > TOLERANCE:
            problems.append(f"{key}: amplitude {amp!r} vs reference {ref_amp!r}")
        if not 0.0 <= prob <= 1.0 or abs(prob - min(ref_prob, 1.0)) > TOLERANCE:
            problems.append(f"{key}: probability {prob!r} vs reference {ref_prob!r}")
        if len(problems) >= 5:
            break
    return problems


# -- per-workload checks -----------------------------------------------------


def check_coarse(doc: dict, text: str) -> list[str]:
    """Cauchy-Binet: perm/det of restrict(A1 @ A2), and perm of
    restrict(|A1|^2 @ |A2|^2) over the final weight; each class sums to 1."""
    rows = parse_csv(text)
    measurements = doc["measurements"]
    n = doc["particle_count"]
    product = np.eye(len(measurements[0]), dtype=np.complex128)
    weights = np.eye(len(measurements[0]))
    for k in range(len(doc["steps"])):
        step = _step(doc, k)
        product = product @ step
        weights = weights @ (np.abs(step) ** 2)
    initial = expanded_modes(measurements[0], doc["initial"])
    w_initial = occupancy_weight(initial)
    finals = list(combinations_with_replacement(range(len(measurements[-1])), n))
    perm, det = brute_force(np.stack([product[np.ix_(initial, f)] for f in finals]))
    dist = brute_force(np.stack([weights[np.ix_(initial, f)] for f in finals]).astype(complex))[0]
    expected = {}
    for i, final in enumerate(finals):
        key = config_text(measurements[-1], final)
        w = occupancy_weight(final)
        expected[(key, "boson")] = (perm[i], abs(perm[i]) ** 2 / (w_initial * w))
        expected[(key, "fermion")] = (det[i], abs(det[i]) ** 2 / (w_initial * w))
        expected[(key, "distinguishable")] = (None, dist[i].real / w)
    problems = _compare(rows, expected)
    for cls in CLASS_NAMES:
        total = sum(prob for (_, c), (_, prob) in rows.items() if c == cls)
        if abs(total - 1.0) > TOLERANCE:
            problems.append(f"{cls} probabilities sum to {total!r}")
    return problems


def check_verify(text: str, exit_code: int) -> list[str]:
    """Exit 0, the fifteen named checks all PASS, survivors 2/16/2."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    statuses = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] in VERIFY_CHECKS:
            statuses[parts[0]] = parts[4]
    if set(statuses) != VERIFY_CHECKS:
        problems.append(f"missing checks: {sorted(VERIFY_CHECKS - set(statuses))}")
    failing = sorted(name for name, status in statuses.items() if status != "PASS")
    if failing:
        problems.append(f"checks not passing: {failing}")
    if f"overall: PASS ({len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)})" not in text:
        problems.append("overall verdict is not PASS 15/15")
    if VERIFY_SURVIVORS not in text:
        problems.append("sign survivors are not 2/16/2")
    return problems


def check_smoke(name: str, text: str) -> list[str]:
    """Bundled scenarios: HOM boson coincidence is zero, and every fermion row
    with a doubly occupied outcome is an exact zero."""
    rows = parse_csv(text)
    problems = []
    for (final, cls), (amp, prob) in rows.items():
        doubled = any(int(part.rsplit(":", 1)[1]) >= 2 for part in final.split(";"))
        if cls == "fermion" and doubled and (amp != 0 or prob != 0):
            problems.append(f"{name}: fermion row {final} is not an exact zero")
    if name == "hom-beamsplitter":
        amp, prob = rows.get(("out0:1;out1:1", "boson"), (None, None))
        if amp != 0 or prob != 0:
            problems.append(f"{name}: boson coincidence {amp!r} is not zero")
    return problems
