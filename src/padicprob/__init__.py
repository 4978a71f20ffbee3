"""Exact p-adic arithmetic, Haar/character integration, self-similar
jump measures, samplers for their laws, and limit-law experiments."""

__version__ = "0.5.0"

from .errors import (
    InfiniteMassError,
    PrecisionError,
    PrimeMismatchError,
    ToleranceError,
)
from .padic import (
    CharacterSum,
    DEFAULT_PRECISION,
    PAdicNumber,
    format_padic,
    from_rational,
    grid_points,
    parse_number,
    parse_padic,
    rational_char_phase,
)
from .sets import (
    Ball,
    CompactOpenSet,
    TailSet,
    annulus,
    integrate_char,
    integrate_char_exact,
    sphere,
    split_sphere,
)
from .charfn import (
    BallProbability,
    CompoundPoissonSampler,
    HaarBallSampler,
    HaarUniform,
    PointMass,
    PointMassSampler,
    RadialSampler,
    Sampler,
    SphereMassTable,
    StableLaw,
    StableParams,
    Transform,
    TwoValuedForm,
    ball_probability,
    poisson_draw,
    sphere_masses,
    stable_sampler,
    substream,
)
from .levy import (
    JumpMeasure,
    LevyExponent,
    SelfSimilarLevyMeasure,
    classify_two_valued,
    invert_exponent,
    levy_exponent_exact,
    make_example_measure,
    make_measure,
    measure_mass,
    random_self_similar_measure,
    validate_scaling,
)
from .limits import (
    ConvergenceReport,
    LimitScheme,
    Scenario,
    SumTransform,
    convergence_report,
    default_ball_family,
    phi_n_measure,
    scaling_identity_check,
    simulate_sums,
    theoretical_fn,
    theoretical_sphere,
)
