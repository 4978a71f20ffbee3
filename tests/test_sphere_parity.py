"""Sphere evaluators against the point path.

Every evaluator the probing algorithms read (the four transforms, the
Lévy exponent and the law of S_n) answers a whole sphere p**v * u at
once.  For each unit the sphere must give, bit for bit, what the point
path gives at PAdicNumber(p, v, u, precision): the evaluator's own point
call, and the per-point arithmetic the package used before spheres (the
oracles below).  Where the point path raises, the sphere raises the same
type and text: PrecisionError for a window too short, PrimeMismatchError
for a point over another prime.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.charfn import HaarUniform, PointMass, StableLaw, StableParams
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import (
    JumpMeasure,
    LevyExponent,
    make_example_measure,
    make_measure,
    random_self_similar_measure,
)
from padicprob.limits import LimitScheme, SumTransform
from padicprob.padic import PAdicNumber, chi
from padicprob.samplers import substream
from padicprob.sets import Ball
from test_levy import oracle_exponent

PRIMES = (2, 3, 5, 7)


def _underflow_measure(p):
    """A float measure whose depth-2 ball weighs w * beta**k = 0.0 on
    every sphere with k >= 2, while its phases there still need two
    digits below the unit scale."""
    return make_measure(p, 1e-200, p, (((Ball(p, 1, -2), Fraction(1, 2)),),))


# evaluators over p, built fresh for each example so that no cache
# answers the sphere
EVALUATORS = {
    "point_mass": lambda p: PointMass(PAdicNumber(p, -2, p + 1, 6)),
    "point_mass_short": lambda p: PointMass(PAdicNumber(p, -3, 1, 2)),
    "point_mass_zero": lambda p: PointMass(PAdicNumber.zero(p)),
    "point_mass_certified_zero": lambda p: PointMass(PAdicNumber.zero(p, 2)),
    "haar_centred": lambda p: HaarUniform(Ball(p, 0, -1)),
    "haar_off_centre": lambda p: HaarUniform(Ball(p, Fraction(p + 2, p**2), -3)),
    "stable": lambda p: StableLaw(StableParams(1.5, 0.7, p)),
    "jump_example": lambda p: JumpMeasure(make_example_measure(1, 1, p)),
    "jump_random": lambda p: JumpMeasure(random_self_similar_measure(substream(p, 9), p)),
    "jump_underflow": lambda p: JumpMeasure(_underflow_measure(p)),
    "exponent_random": lambda p: LevyExponent(random_self_similar_measure(substream(p, 9), p)),
    "exponent_underflow": lambda p: LevyExponent(_underflow_measure(p)),
    "sum_geometric": lambda p: _sum_law(
        p, JumpMeasure(make_example_measure(1, 1, p)), _geometric(p)
    ),
    "sum_geometric_haar": lambda p: _sum_law(
        p, HaarUniform(Ball(p, Fraction(1, p), -2)), _geometric(p)
    ),
    "sum_explicit": lambda p: _sum_law(
        p, HaarUniform(Ball(p, 0, 0)),
        LimitScheme.explicit(p, [Fraction(1, p**n) for n in range(4)], [1, 2, 3, 5]),
    ),
    "sum_explicit_point": lambda p: _sum_law(
        p, PointMass(PAdicNumber(p, -1, 1, 8)),
        LimitScheme.explicit(p, [Fraction(p**n, 1 + p) for n in range(4)], [1, 1, 4, 7]),
    ),
}


def _geometric(p):
    return LimitScheme.geometric(p, Fraction(1, p), p, n_max=3)


def _sum_law(p, source, scheme):
    return SumTransform(source, scheme, 2 + p % 2)


# ---------------------------------------------------------------------
# The point path as it was computed before spheres
# ---------------------------------------------------------------------


def _transform_value(g, t):
    """g(t) by PAdicNumber arithmetic at the one point."""
    if t.prime != g.prime:
        raise PrimeMismatchError(
            f"transform over p={g.prime} evaluated at a point over p={t.prime}"
        )
    if t.is_zero:
        return complex(1.0, 0.0)
    if isinstance(g, PointMass):
        return chi(g.prime, *(t * g.xi).character_phase())
    if isinstance(g, HaarUniform):
        if t.valuation < g.ball.radius_exp:
            return complex(0.0, 0.0)
        if g.ball.contains_zero:
            return complex(1.0, 0.0)
        return chi(g.prime, *t.mul_rational(g.ball.center).character_phase())
    if isinstance(g, StableLaw):
        return complex(g.radial_value(-t.valuation), 0.0)
    if isinstance(g, JumpMeasure):
        return cmath.exp(oracle_exponent(g.measure, t).to_complex())
    # the law of S_n: the source at t / B_n, raised to k(n)
    return _transform_power(g.source, t.mul_rational(1 / g.scheme.B(g.n)), g.scheme.k(g.n))


def _transform_power(g, t, k):
    """g(t)**k: exactly scaled for a jump measure, in floats otherwise."""
    if isinstance(g, JumpMeasure):
        if t.prime != g.prime:
            raise PrimeMismatchError(
                f"transform over p={g.prime} evaluated at a point over p={t.prime}"
            )
        return cmath.exp(oracle_exponent(g.measure, t).scale(k).to_complex())
    if not g.is_radial:
        return _transform_value(g, t) ** k
    val = _transform_value(g, t).real
    if val == 0.0:
        return complex(0.0, 0.0)
    if val > 0.0:
        return complex(math.exp(k * math.log(val)), 0.0)
    return complex(val, 0.0) ** k


def _one_unit(g, t, k):
    """g(t)**k (g(t) when k is None) through a one-unit sphere call."""
    return g.sphere(t.prime, t.valuation, (t.unit,), t.precision, k)[0]


def _outcome(fn, *args):
    try:
        return "value", repr(fn(*args))
    except (PrecisionError, PrimeMismatchError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _sphere_outcomes(fn, *args, count):
    """The outcome of each of ``count`` points from one sphere call: its
    value, or the sphere's exception for every point."""
    try:
        return [("value", repr(x)) for x in fn(*args)]
    except (PrecisionError, PrimeMismatchError, OverflowError) as exc:
        return [(type(exc).__name__, str(exc))] * count


@st.composite
def spheres(draw):
    """(evaluator name, its prime, the sphere's prime, v, units,
    precision, k)."""
    p = draw(st.sampled_from(PRIMES))
    name = draw(st.sampled_from(sorted(EVALUATORS)))
    q = draw(st.sampled_from(PRIMES)) if draw(st.integers(0, 5)) == 0 else p
    precision = draw(st.sampled_from((1, 2, 3, 4, 6, 48)))
    v = draw(st.integers(-6, 8))
    unit = st.integers(1, q**precision - 1).filter(lambda u: u % q)
    units = draw(st.lists(unit, min_size=1, max_size=6))
    k = draw(st.sampled_from((None, 1, 2, 3, 7)))
    return name, p, q, v, units, precision, k


@settings(max_examples=600, deadline=None)
@given(case=spheres())
def test_sphere_gives_the_point_path(case):
    name, p, q, v, units, precision, k = case
    ev = EVALUATORS[name](p)
    points = [PAdicNumber(q, v, u, precision) for u in units]
    if isinstance(ev, LevyExponent):
        got = _sphere_outcomes(ev.sphere, q, v, units, precision, count=len(units))
        exact = _sphere_outcomes(ev.sphere_exact, q, v, units, precision, count=len(units))
        point = [_outcome(ev, t) for t in points]
        old = [_outcome(lambda t: oracle_exponent(ev.measure, t).to_complex(), t) for t in points]
        old_exact = [_outcome(oracle_exponent, ev.measure, t) for t in points]
        assert exact == old_exact
    else:
        if isinstance(ev, SumTransform):
            k = None  # its values are the source's to the power k(n) already
        got = _sphere_outcomes(ev.sphere, q, v, units, precision, k, count=len(units))
        point = [_outcome(_one_unit, ev, t, k) for t in points]
        if k is None:
            old = [_outcome(_transform_value, ev, t) for t in points]
            assert point == [_outcome(ev, t) for t in points]
        else:
            old = [_outcome(_transform_power, ev, t, k) for t in points]
    assert got == point == old


@pytest.mark.parametrize("p", PRIMES)
def test_a_ball_whose_weight_underflows_still_needs_its_digits(p):
    # on the sphere n = 2 the ball's weight is 1e-400 = 0.0, and its
    # phase needs two digits below the unit scale
    phi = LevyExponent(_underflow_measure(p))
    t = PAdicNumber(p, 0, 1, 1)
    with pytest.raises(PrecisionError, match="^need 2 digits below the unit scale, have 1$"):
        oracle_exponent(phi.measure, t)
    with pytest.raises(PrecisionError, match="^need 2 digits below the unit scale, have 1$"):
        phi.sphere(p, 0, [1, p - 1 or 1], 1)
    with pytest.raises(PrecisionError, match="^need 2 digits below the unit scale, have 1$"):
        phi(t)
    # two digits are enough, and the ball adds no term
    assert phi.exact(PAdicNumber(p, 0, 1, 2)) == oracle_exponent(phi.measure, PAdicNumber(p, 0, 1, 2))


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_the_point_call_is_the_one_unit_sphere(name):
    for p in PRIMES:
        ev = EVALUATORS[name](p)
        units = [u for u in range(1, p**3) if u % p]
        for v in range(-3, 4):
            sphere = _sphere_outcomes(ev.sphere, p, v, units, 48, count=len(units))
            assert sphere == [_outcome(ev, PAdicNumber(p, v, u, 48)) for u in units]
        assert ev(PAdicNumber.zero(p)) == (0j if isinstance(ev, LevyExponent) else 1)
