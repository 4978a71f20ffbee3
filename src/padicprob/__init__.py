"""Exact p-adic arithmetic, Haar/character integration, self-similar
jump measures, samplers for their laws, and limit-law experiments.

Importing the package loads none of its modules: each name it exports is
imported from its module on first use (PEP 562), so a program that draws
nothing never loads numpy or the Monte Carlo layer (``samplers`` and
``residues``).
"""

import importlib

__version__ = "0.5.0"

# the names the package exports, by the module that defines them
_EXPORTS = {
    "errors": "InfiniteMassError PrecisionError PrimeMismatchError ToleranceError",
    "padic": """CharacterSum DEFAULT_PRECISION PAdicNumber format_padic from_rational
        grid_points parse_number parse_padic rational_char_phase""",
    "sets": """Ball CompactOpenSet TailSet annulus integrate_char integrate_char_exact
        sphere split_sphere""",
    "charfn": """BallProbability HaarUniform PointMass SphereMassTable StableLaw
        StableParams Transform TwoValuedForm ball_probability sphere_masses""",
    "samplers": """CompoundPoissonSampler HaarBallSampler PointMassSampler RadialSampler
        Sampler poisson_draw substream""",
    "levy": """JumpMeasure LevyExponent SelfSimilarLevyMeasure classify_two_valued
        invert_exponent levy_exponent_exact make_example_measure make_measure
        measure_mass random_self_similar_measure validate_scaling""",
    "limits": """ConvergenceReport LimitScheme Scenario SumTransform convergence_report
        default_ball_family phi_n_measure scaling_identity_check simulate_sums
        theoretical_fn""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
