"""Complex amplitude arithmetic and the amplitude-to-probability contract.

Amplitudes are plain Python complex numbers. Physical amplitudes (those
attached to a complete outcome sequence) live in the closed unit disk;
intermediate algebraic values are unconstrained.
"""

from __future__ import annotations

import math

from .errors import AmplitudeError

Amplitude = complex

#: Probabilities within this window above 1 are clamped to 1; beyond it they
#: are a contract violation.
PROBABILITY_CLAMP = 1e-12


def ensure_finite(a: complex) -> complex:
    """Return ``a`` unchanged, raising if either component is NaN or infinite."""
    a = complex(a)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise AmplitudeError(f"amplitude must be finite, got {a!r}")
    return a


def amp_product(a: complex, b: complex) -> complex:
    """Amplitude of the concatenation of two processes."""
    return ensure_finite(a) * ensure_finite(b)


def amp_sum(a: complex, b: complex) -> complex:
    """Amplitude of the coarse graining of two processes."""
    return ensure_finite(a) + ensure_finite(b)


def amp_conjugate(a: complex) -> complex:
    """Amplitude of the time-reversed process."""
    return ensure_finite(a).conjugate()


def probability(a: complex) -> float:
    """Squared modulus of a complete-sequence amplitude.

    Values within PROBABILITY_CLAMP above 1 (round-off from exponential-size
    summations) are clamped to 1. Anything further out signals a modeling
    error upstream and raises.
    """
    a = ensure_finite(a)
    p = a.real * a.real + a.imag * a.imag
    return clamp_probability(p, window=PROBABILITY_CLAMP)


def clamp_probability(value: float, window: float = PROBABILITY_CLAMP) -> float:
    """Clamp a computed probability into [0, 1], raising outside the window."""
    if not math.isfinite(value) or value < 0.0 or value > 1.0 + window:
        raise AmplitudeError(
            f"probability {value!r} outside [0, 1 + {window:g}]"
        )
    return min(value, 1.0)
