"""Amplitude calculus for identical, non-interacting particles.

Joint transition amplitudes are permanents (bosons) or determinants
(fermions) of single-particle amplitude matrices; measurement sequences
compose by the product, sum, and reciprocity rules; and a verifier suite
mechanically checks every algebraic step that forces those two exchange
classes and no others.
"""

from ._version import __version__
from .amplitudes import (
    Amplitude,
    amp_conjugate,
    amp_product,
    amp_sum,
    clamp_probability,
    probability,
)
from .derivation import (
    CandidateFunction,
    SignAssignment,
    VerificationReport,
    check_functional_equations,
    conjugation_candidate,
    counterexample_candidates,
    enumerate_sign_characters,
    enumerate_three_particle_signs,
    format_report_table,
    identity_candidate,
    reports_to_json,
    run_full_derivation_suite,
    suite_passed,
    three_particle_sign_survivors,
    verify_column_additivity,
    verify_reciprocity_constants,
    verify_slide_identity,
    verify_two_step_factorization,
)
from .errors import (
    AmplitudeError,
    ExchangeClassError,
    ExperimentFormatError,
    IdampError,
    MatrixShapeError,
    MatrixSizeError,
    NormalizationError,
    SequenceError,
)
from .experiments import (
    BenchRow,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    bench_permanent,
    bench_to_csv,
    load_scenario,
    parse_experiment,
    run_experiment,
    sample_outcomes,
    scenario_names,
    serialize_experiment,
)
from .kernels import (
    ExchangeClass,
    determinant,
    determinant_naive,
    distinguishable_probability,
    n_particle_amplitude,
    n_particle_amplitudes,
    permanent_naive,
    permanent_ryser,
    two_particle_amplitude,
)
from .sequences import (
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
