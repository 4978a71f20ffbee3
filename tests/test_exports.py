"""The package's exports resolve lazily to the objects of their modules.

``padicprob/__init__.py`` imports no module: a PEP 562 ``__getattr__``
imports a name's module on first use.  These tests pin every name the
package exported when it imported all its modules eagerly (version
0.5.0), with the module that defines it now.
"""

import importlib

import pytest

import padicprob
from padicprob import charfn, levy, limits, samplers

EXPORTS = {
    "errors": "InfiniteMassError PrecisionError PrimeMismatchError ToleranceError",
    "padic": "CharacterSum DEFAULT_PRECISION PAdicNumber format_padic from_rational "
             "grid_points parse_number parse_padic rational_char_phase",
    "sets": "Ball CompactOpenSet TailSet annulus integrate_char integrate_char_exact "
            "sphere split_sphere",
    "charfn": "BallProbability HaarUniform PointMass SphereMassTable StableLaw "
              "StableParams Transform TwoValuedForm ball_probability sphere_masses",
    "samplers": "CompoundPoissonSampler HaarBallSampler PointMassSampler RadialSampler "
                "Sampler poisson_draw stable_sampler substream",
    "levy": "JumpMeasure LevyExponent SelfSimilarLevyMeasure classify_two_valued "
            "invert_exponent levy_exponent_exact make_example_measure make_measure "
            "measure_mass random_self_similar_measure validate_scaling",
    "limits": "ConvergenceReport LimitScheme Scenario SumTransform convergence_report "
              "default_ball_family phi_n_measure scaling_identity_check simulate_sums "
              "theoretical_fn theoretical_sphere",
}
MODULE_OF = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_all_lists_the_names_the_eager_package_exported():
    assert len(MODULE_OF) == 61
    assert sorted(padicprob.__all__) == sorted(MODULE_OF)


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_export_is_its_defining_module_s_object(name):
    module = importlib.import_module("padicprob." + MODULE_OF[name])
    obj = getattr(padicprob, name)
    assert obj is getattr(module, name)
    assert getattr(obj, "__module__", module.__name__) == module.__name__
    assert name in dir(padicprob)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padicprob.no_such_name
    assert not hasattr(padicprob, "RadialCharFn")
    with pytest.raises(AttributeError, match="HaarBallSampler"):
        charfn.HaarBallSampler


def test_the_names_perfbench_reads_resolve():
    # perfbench/ reads the samplers and substream through charfn
    for name in ("CompoundPoissonSampler", "RadialSampler", "substream", "poisson_draw"):
        assert getattr(charfn, name) is getattr(samplers, name)
    assert charfn.RadialCharFn.stable is charfn.StableLaw
    assert callable(levy.make_measure) and callable(limits.simulate_sums)
