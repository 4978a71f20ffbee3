import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balls as oracle
import per_ball
from evaluators import Pointwise
from float_probe import probe_classify
from padicprob.charfn import HaarUniform, PointMass, StableLaw, StableParams
from padicprob.errors import (
    InfiniteMassError,
    PrecisionError,
    PrimeMismatchError,
    ToleranceError,
)
from padicprob.levy import (
    REFINE_CAP,
    SEARCH_RADIUS_EXP,
    JumpMeasure,
    LevyExponent,
    _probe_sphere,
    _sphere_units,
    classify_two_valued,
    invert_exponent,
    levy_exponent_exact,
    make_example_measure,
    make_measure,
    measure_mass,
    random_compact_open,
    random_self_similar_measure,
    validate_scaling,
)
from padicprob.padic import (
    CharacterSum,
    DEFAULT_PRECISION,
    PAdicNumber,
    grid_points,
)
from padicprob.limits import LimitScheme, SumTransform
from padicprob.samplers import substream
from padicprob.sets import Ball, CompactOpenSet, TailSet, annulus, sphere, split_sphere
from padicprob.specs import measure_from_spec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_example_measure_construction():
    m = make_example_measure(1, 1, 2)
    assert m.beta == Fraction(1, 2)
    assert m.gamma0 == 2
    assert m.j == 1
    assert measure_mass(m, sphere(0, 2)) == Fraction(2, 3)
    assert measure_mass(m, sphere(1, 2)) == Fraction(1, 3)
    assert m.is_radial()


def test_example_measure_masses():
    m = make_example_measure(1, 1, 2)
    assert measure_mass(m, TailSet(2, 0)) == Fraction(2, 3)
    assert measure_mass(m, annulus(0, 2, 2)) == Fraction(1, 2)
    # half of the fundamental ball carries half its weight
    assert measure_mass(m, Ball(2, 1, -2)) == Fraction(1, 3)
    with pytest.raises(InfiniteMassError):
        measure_mass(m, Ball(2, 0, 0))


def test_measure_validation():
    with pytest.raises(ValueError):
        make_measure(2, Fraction(3, 2), 2, ((),))  # beta out of range
    with pytest.raises(ValueError):
        make_measure(2, Fraction(1, 2), 3, ((),))  # |gamma0| = 1
    with pytest.raises(ValueError):
        # ball not inside its declared fundamental sphere
        make_measure(
            2, Fraction(1, 2), 2, (((Ball(2, Fraction(1, 2), -2), 1),),)
        )


@pytest.mark.parametrize("a, alpha", [
    (math.inf, 1), (math.inf, 0.5), (math.nan, 1), (1, math.inf), (1, math.nan),
    (-1, 1), (1, 0),
])
def test_example_measure_refuses_what_stable_params_refuses(a, alpha):
    # an infinite a with an integral alpha raised OverflowError, and with
    # alpha = 0.5 built a measure of weight inf
    with pytest.raises(ValueError, match="^need finite a > 0 and alpha > 0$"):
        make_example_measure(a, alpha, 2)


@pytest.mark.parametrize("w, message", [
    (math.inf, "weights must be finite"),
    (math.nan, "weights must be finite"),
    (-math.inf, "weights must be nonnegative"),
    (Fraction(-1, 3), "weights must be nonnegative"),
])
def test_measure_refuses_a_weight_that_is_not_finite(w, message):
    # a nan weight gave a nan tail mass and g(1/2) = nan+nanj; an infinite
    # one gave g(1/2) = 0j, which reads as a certified zero
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_measure(2, Fraction(1, 2), 2, (((Ball(2, 1, -1), w),),))


def test_measure_takes_a_finite_weight_beyond_the_float_range():
    w = Fraction(10**400)
    m = make_measure(2, Fraction(1, 2), 2, (((Ball(2, 1, -1), w),),))
    assert measure_mass(m, Ball(2, 1, -1)) == w


def test_validate_scaling_example_and_empty():
    m = make_example_measure(1, 1, 2)
    assert validate_scaling(m, trials=30, seed=5).passed
    empty = CompactOpenSet(2, [])
    assert measure_mass(m, empty) == 0


def test_levy_exponent_closed_form_values():
    m = make_example_measure(1, 1, 2)
    for num, den, want in ((1, 4, -4.0), (1, 1, -1.0), (4, 1, -0.25)):
        t = PAdicNumber.from_rational(num, den, p=2)
        val = LevyExponent(m)(t)
        assert val == complex(want, 0.0)
    assert LevyExponent(m)(PAdicNumber.zero(2)) == 0


def test_levy_exponent_scaling_exact():
    rng = substream(77, 0)
    for i in range(5):
        m = random_self_similar_measure(rng)
        for t in grid_points(m.prime, -3, 3, unit_digit_sets=((1,), (1, 1))):
            lhs = levy_exponent_exact(m, t.mul_rational(m.gamma0))
            rhs = levy_exponent_exact(m, t).scale(m.beta)
            assert lhs == rhs


def test_levy_exponent_symmetric_is_real():
    # residues 1 and 2 mod 3 swap under negation: symmetric data
    balls = split_sphere(0, 1, 3)
    m = make_measure(3, Fraction(1, 3), 3, ((tuple((b, Fraction(2, 5)) for b in balls)),))
    assert [-b.center % 3 for b in balls] == [b.center for b in balls[::-1]]
    for t in grid_points(3, -3, 3):
        assert LevyExponent(m)(t).imag == 0.0


def test_levy_exponent_brute_force_two_ball():
    # single fundamental sphere, two balls: expand the defining sum by hand.
    # For |t| = 3 the character factor survives only on the unit sphere
    # (|t * 3**-N| <= 3**1 needs N <= 0), so
    #   phi(t) = w1 chi(t c1) + w2 chi(t c2) - sum_{N>=0} beta**N (w1+w2)
    p = 3
    b1, b2 = split_sphere(0, 1, p)
    w1, w2 = Fraction(1, 2), Fraction(1, 4)
    m = make_measure(p, Fraction(1, 3), p, (((b1, w1), (b2, w2)),))
    t = PAdicNumber.from_rational(1, 3, p=p)

    def chi(fr):
        return cmath.exp(2j * math.pi * float(fr % 1))

    beta = Fraction(1, 3)
    tail = float((w1 + w2) * sum(beta**k for k in range(0, 60)))
    hand = (
        float(w1) * chi(Fraction(1, 3) * b1.center)
        + float(w2) * chi(Fraction(1, 3) * b2.center)
        - tail
    )
    val = LevyExponent(m)(t)
    assert abs(val - hand) <= 1e-12


def test_cf_matches_closed_form_grid():
    for p, a, alpha in ((2, 1, 1), (3, 0.5, 2), (5, 2, 0.5)):
        m = make_example_measure(a, alpha, p)
        g = StableLaw(StableParams(float(a), float(alpha), p))
        jump = JumpMeasure(m)
        for k in range(-4, 5):
            t = PAdicNumber.from_rational(Fraction(p) ** (-k), p=p)
            assert abs(jump(t) - g(t)) <= 1e-12


def test_cf_basics_and_nonvanishing():
    m = make_example_measure(1, 1, 2)
    jump = JumpMeasure(m)
    assert jump(PAdicNumber.zero(2)) == 1.0
    for t in grid_points(2, -5, 5):
        g = jump(t)
        assert abs(g) <= 1.0 + 1e-15
        tau = -t.valuation
        lower = math.exp(-2.0 * float(measure_mass(m, TailSet(2, -tau))))
        assert abs(g) >= lower - 1e-15
        assert abs(g) > 0.0


def test_cf_modulus_scaling_identity():
    m = make_example_measure(1, 1, 2)
    g = JumpMeasure(m)
    for t in grid_points(2, -4, 4):
        lhs = abs(g(t.mul_rational(m.gamma0)))
        rhs = abs(g(t)) ** float(m.beta)
        assert abs(lhs - rhs) <= 1e-14


def test_invert_exponent_annulus_and_tail():
    m = make_example_measure(1, 1, 2)
    phi = LevyExponent(m)
    got = invert_exponent(phi, 0, 2, 2)
    assert abs(got - 0.5) <= 1e-10
    tail = invert_exponent(phi, 0, None, 2, tol=1e-8)
    assert abs(tail - 2.0 / 3.0) <= 1e-8
    assert invert_exponent(Pointwise(lambda t: 0j, 2), 0, 2, 2) == 0.0


def test_invert_exponent_rejects_bounds_that_are_not_integers():
    m = make_example_measure(1, 1, 2)
    phi = LevyExponent(m)
    # {2**-1 <= |x| <= 2**-0.5} is annulus(-2, -1); l = -0.5 used to be
    # truncated to 0, which gave the mass of annulus(-2, 0)
    bad = ((-2, -0.5), (0.5, 2), (-2, 1.5), (math.nan, 2), (0, math.nan),
           (0, -math.inf), (math.inf, None), (Fraction(1, 2), 3),
           (True, 3), (0, False))
    for i, l in bad:
        with pytest.raises(ValueError, match="is not an integer"):
            invert_exponent(phi, i, l, 2, tol=1e-12)
    exact = float(measure_mass(m, annulus(-2, -1, 2)))
    got = invert_exponent(phi, -2.0, -1.0, 2, tol=1e-12)
    assert got == invert_exponent(LevyExponent(m), -2, -1, 2, tol=1e-12)
    assert abs(got - exact) <= 1e-10 * exact


def test_invert_exponent_refuses_a_tolerance_that_is_not_positive():
    # tol = -1 or nan used to run the whole series of spheres and end in
    # a ToleranceError ("tol=-0.5") instead of refusing the input
    phi = LevyExponent(make_example_measure(1, 1, 2))
    for tol in (0.0, -1.0, -0.0, math.nan, -math.inf):
        for l in (2, None):
            with pytest.raises(ValueError, match="tol must be > 0"):
                invert_exponent(phi, 0, l, 2, tol=tol)
    assert not phi._cache
    assert math.isfinite(invert_exponent(phi, 0, 2, 2, tol=math.inf))


def test_invert_exponent_random_round_trip():
    rng = substream(123, 9)
    for _ in range(3):
        m = random_self_similar_measure(rng)
        phi = LevyExponent(m)
        for (i, l) in ((0, 2), (-1, 1)):
            exact = float(measure_mass(m, annulus(i, l, m.prime)))
            got = invert_exponent(phi, i, l, m.prime, tol=1e-12)
            assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


MEMO_REGIONS = ((0, 2), (-1, 1), (1, 3), (-2, 0), (0, math.inf))


def _memo_measures():
    rng = substream(7, 3)
    for p in (2, 3, 5):
        yield make_example_measure(1, 1, p)
        yield random_self_similar_measure(rng, p)


class _CountingExponent(LevyExponent):
    """A LevyExponent that records every point it is asked for, as
    (valuation, unit, precision): the point call is the one-unit case of
    ``sphere``."""

    def __init__(self, measure):
        super().__init__(measure)
        self.asked = []

    def sphere(self, p, v, units, precision):
        self.asked.extend((v, u, precision) for u in units)
        return super().sphere(p, v, units, precision)


def _residue_depth(measure):
    """D, the deepest r - R over the fundamental balls B(p**-r * c, p**R)
    of nonzero weight, and at least 1: phi(p**v * u) reads u mod p**D."""
    return max(
        (r - ball.radius_exp
         for r, entries in enumerate(measure.fundamental)
         for ball, w in entries if w),
        default=1,
    )


@pytest.mark.parametrize("m", list(_memo_measures()), ids=lambda m: f"p{m.prime}j{m.j}")
def test_inversion_memo_changes_no_bit(m):
    p = m.prime

    def invert(phi, i, l):
        return repr(invert_exponent(phi, i, l, p, tol=1e-12))

    fresh, spheres = [], 0
    for i, l in MEMO_REGIONS:
        phi = LevyExponent(m)
        fresh.append(invert(phi, i, l))
        spheres += len(phi.sphere_integrals)
    shared = LevyExponent(m)
    assert [invert(shared, i, l) for i, l in MEMO_REGIONS] == fresh
    backwards = LevyExponent(m)
    assert [invert(backwards, i, l) for i, l in MEMO_REGIONS[::-1]] == fresh[::-1]
    # the ball integrals of later regions reuse the spheres of earlier ones
    assert len(shared.sphere_integrals) < spheres
    # keyed by the sphere m alone: ball(i) sums the spheres m <= -i
    top = max(-i for i, _ in MEMO_REGIONS)
    assert set(shared.sphere_integrals) == set(range(min(shared.sphere_integrals), top + 1))


def test_repeated_inversion_evaluates_no_new_point():
    m = make_example_measure(1, 1, 3)
    phi = _CountingExponent(m)
    first = [invert_exponent(phi, i, l, 3, tol=1e-12) for i, l in MEMO_REGIONS]
    asked = len(phi.asked)
    # each point is asked for once, and the exponent cache is the one
    # place its value is kept: one entry per residue class mod p**D of
    # the unit, on each sphere and window
    assert asked == len(set(phi.asked))
    mod = 3 ** _residue_depth(m)
    assert len(phi._cache) == len({(v, u % mod, prec) for v, u, prec in phi.asked})
    again = [invert_exponent(phi, i, l, 3, tol=1e-12) for i, l in MEMO_REGIONS]
    assert again == first
    assert len(phi.asked) == asked
    # finished sphere integrals are answered without reading any point
    phi._cache.clear()
    again = [invert_exponent(phi, i, l, 3, tol=1e-12) for i, l in MEMO_REGIONS]
    assert again == first
    assert len(phi.asked) == asked
    # a tighter tolerance extends the series by new spheres only
    invert_exponent(phi, 0, 2, 3, tol=1e-15)
    assert len(set(phi.asked)) == len(phi.asked)


def test_inversion_memo_keeps_its_exponent_collectable():
    import gc
    import weakref

    m = make_example_measure(1, 1, 2)
    gc.disable()
    try:
        phi = LevyExponent(m)
        invert_exponent(phi, 0, 2, 2, tol=1e-12)
        assert phi.sphere_integrals and phi._cache
        ref = weakref.ref(phi)
        del phi
        # no reference cycle: plain reference counting frees it
        assert ref() is None
    finally:
        gc.enable()


def test_other_evaluators_get_a_memo_per_call():
    m = make_example_measure(1, 1, 2)
    exponent = LevyExponent(m)
    calls = []

    def phi(t):
        calls.append(t)
        return exponent(t)

    pointwise = Pointwise(phi, 2)
    first = invert_exponent(pointwise, 0, 2, 2, tol=1e-12)
    n = len(calls)
    assert invert_exponent(pointwise, 0, 2, 2, tol=1e-12) == first
    assert len(calls) == 2 * n
    assert not exponent.sphere_integrals


def test_invert_exponent_refinement_cap():
    # an evaluator that is not locally constant anywhere; at p = 2 the
    # cap's depth is 2**REFINE_CAP points
    import random

    noisy = Pointwise(lambda t: random.random(), 2)
    with pytest.raises(ToleranceError, match=f"refinement cap {REFINE_CAP} hit"):
        invert_exponent(noisy, 0, 2, 2)


def test_classify_cutoff():
    form = classify_two_valued(HaarUniform(Ball(2, 0, 0)), 2)
    assert form.kind == "haar_cutoff"
    assert form.cutoff_exp == 0
    assert form.xi.is_zero


def test_classify_pure_character():
    xi = Fraction(1, 3)
    form = classify_two_valued(PointMass(PAdicNumber.from_rational(xi, p=3)), 3)
    assert form.kind == "delta"
    assert form.xi.as_rational() == xi


def test_classify_stable_not_two_valued():
    form = classify_two_valued(StableLaw(StableParams(1.0, 1.0, 2)), 2)
    assert form.kind == "not_two_valued"


def test_classify_shifted_cutoff():
    # chi(t xi) on |t| <= p, 0 above: uniform law on a shifted ball
    p = 2
    xi = Fraction(1, 2)
    form = classify_two_valued(HaarUniform(Ball(p, xi, -1)), p)
    assert form.kind == "haar_cutoff"
    assert form.cutoff_exp == 1
    assert form.xi.as_rational() == xi


def test_classify_refuses_an_empty_probe_range():
    # radius -9 below depth 8 probed no sphere and gave "delta xi=0"
    g = StableLaw(StableParams(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="probes no sphere"):
        classify_two_valued(g, 2, search_radius_exp=-9, probe_depth=8)
    # one sphere is a probe range
    form = classify_two_valued(HaarUniform(Ball(2, 0, 0)), 2, -8, 8)
    assert form.kind == "delta" and form.xi.is_zero


def test_classify_refuses_a_point_below_the_probe_depth():
    # g(p**probe_depth) is 1 (its phase is 0) exactly when xi has no
    # digit below the probe depth; a truncated xi was returned
    cases = ((Fraction(1, 2**9), 2, 8), (Fraction(1, 2), 2, 0), (Fraction(5, 3**4), 3, 3))
    for xi, p, depth in cases:
        g = PointMass(PAdicNumber.from_rational(xi, p=p))
        with pytest.raises(ValueError, match=f"below the probe depth {depth}"):
            classify_two_valued(g, p, probe_depth=depth)
        form = classify_two_valued(g, p, probe_depth=depth + 1)
        assert form.kind == "delta" and form.xi.as_rational() == xi
    # a Haar ball around such a point is refused alike
    with pytest.raises(ValueError, match="below the probe depth 2"):
        classify_two_valued(HaarUniform(Ball(3, Fraction(1, 27), -4)), 3, probe_depth=2)


def test_classify_a_digit_far_below_the_probe_depth_raises():
    # xi = 2**-(8 + j) has its digit j places below the probe depth 8.
    # The float probe saw it only within its tolerance, and gave
    # "delta xi=0" at j = 33 and 34; from j = 35 on, xi's 48-digit window
    # stops short of p**6, the top of the default radius
    for j in range(1, 65):
        g = PointMass(PAdicNumber.from_rational(Fraction(1, 2 ** (8 + j)), p=2))
        if DEFAULT_PRECISION - (8 + j) < SEARCH_RADIUS_EXP:
            with pytest.raises(PrecisionError):
                classify_two_valued(g, 2)
        else:
            with pytest.raises(ValueError, match="below the probe depth 8"):
                classify_two_valued(g, 2)


# sum schemes B = p**s * c, k coprime to p: the sum's xi is known to as
# many digits as the probe's reads of the summand's
SUM_UNITS = (Fraction(1), Fraction(7, 11), Fraction(13))
SUM_COUNTS = (1, 2, 3, 4, 7, 9)


@st.composite
def two_valued_cases(draw):
    """A transform with a two-valued form (or a stable law), a probe
    range, and xi with its digits within 30 binary places of the depth,
    p**places <= 2**30, where the float probe still sees them."""
    p = draw(st.sampled_from((2, 3, 5)))
    depth = draw(st.integers(0, 8))
    radius = draw(st.integers(-depth, SEARCH_RADIUS_EXP))
    places = int(30 / math.log2(p))
    kind = draw(st.sampled_from(("point", "haar", "sum_point", "sum_haar", "stable")))
    if kind == "stable":
        return StableLaw(StableParams(1.0, 1.0, p)), p, radius, depth
    value = Fraction(0)
    if draw(st.integers(0, 5)):
        unit = draw(st.integers(0, 200)) * p + draw(st.integers(1, p - 1))
        value = Fraction(p) ** draw(st.integers(-depth - places, 8)) * Fraction(
            unit, draw(st.sampled_from((1, 7, 11)))
        )
    radius_exp = draw(st.integers(-8, 10))  # of the law's ball
    s, k = 0, 1
    if kind.startswith("sum"):
        s = draw(st.integers(-3, 3))
        b = Fraction(p) ** s * draw(st.sampled_from(SUM_UNITS))
        k = draw(st.sampled_from([k for k in SUM_COUNTS if k % p]))
        value = value * b / k
    if kind.endswith("point"):
        precision = draw(st.integers(1, DEFAULT_PRECISION))
        g = PointMass(
            PAdicNumber.from_rational(value, p=p, precision=precision) if value
            else PAdicNumber.zero(p)
        )
    else:
        g = HaarUniform(Ball(p, value, radius_exp - s))
    if kind.startswith("sum"):
        g = SumTransform(g, LimitScheme.explicit(p, [b], [k]), 0)
    return g, p, radius, depth


def _classified(classify, g, p, radius, depth):
    try:
        return classify(g, p, radius, depth)
    except PrecisionError:
        return PrecisionError
    except ValueError as err:
        return str(err).split(":")[0]


@settings(max_examples=150, deadline=None)
@given(two_valued_cases())
def test_classify_reads_the_form_the_float_probe_saw(case):
    assert _classified(classify_two_valued, *case) == _classified(probe_classify, *case)


def test_classify_symmetric_never_offcenter_delta():
    m = make_example_measure(1, 2, 3)
    form = classify_two_valued(JumpMeasure(m), 3, search_radius_exp=3, probe_depth=5)
    assert form.kind == "not_two_valued"


def test_gamma0_with_unit_part():
    # gamma0 = 3 * 2**2: the unit part rotates balls exactly
    p = 2
    balls0 = split_sphere(0, 2, p)
    balls1 = split_sphere(1, 1, p)
    m = make_measure(
        p,
        Fraction(1, 3),
        Fraction(12),
        (
            ((balls0[0], Fraction(1, 2)), (balls0[1], Fraction(1, 5))),
            ((balls1[0], Fraction(2, 3)),),
        ),
    )
    assert m.j == 2
    assert validate_scaling(m, trials=25, seed=1).passed
    exact = float(measure_mass(m, annulus(0, 2, p)))
    got = invert_exponent(LevyExponent(m), 0, 2, p, tol=1e-12)
    assert abs(got - exact) <= 1e-10 * max(1.0, exact)


# ---------------------------------------------------------------------
# The integer exponent and probe points against the paths they replaced
# ---------------------------------------------------------------------


def oracle_exponent(measure, t):
    """levy_exponent_exact as it was before integer residues: exact
    rational scalings of t, character_phase per term, and one
    CharacterSum added per term."""
    p = measure.prime
    if t.prime != p:
        raise PrimeMismatchError("t over a different prime")
    if t.is_zero:
        return CharacterSum(p)
    j = measure.j
    tau = -t.valuation
    total = CharacterSum.constant(p, -measure.tail_mass(-tau))
    empty_streak = 0
    n = -tau + 1
    while empty_streak < j:
        r = n % j
        k = (n - r) // j
        contributed = False
        entries = measure.fundamental[r]
        if entries:
            s = t.mul_rational(measure.gamma0 ** (-k))
            for ball, w in entries:
                if not w:
                    continue
                if s.abs_le_exp(-ball.radius_exp):
                    phase = (
                        s.mul_rational(ball.center).character_phase()
                        if ball.center
                        else (0, 0)
                    )
                    total = total + CharacterSum(
                        p, {phase: w * measure.beta_pow(k)}
                    )
                    contributed = True
        empty_streak = 0 if contributed else empty_streak + 1
        n += 1
    return total


def _outcome(fn, *args):
    try:
        cs = fn(*args)
    except (PrecisionError, ValueError) as exc:
        return type(exc), str(exc)
    # the terms in order, their exact coefficients, and the complex value
    return list(cs.terms().items()), cs.to_complex()


def assert_exponent_matches(measure, ts, shared=None):
    for t in ts:
        want = _outcome(oracle_exponent, measure, t)
        assert _outcome(levy_exponent_exact, measure, t) == want
        if shared is not None:
            assert _outcome(shared.exact, t) == want


_GAMMA_UNITS = {
    p: (Fraction(1), Fraction(1 + p), Fraction(1, 1 + p)) for p in (2, 3, 5)
}


@st.composite
def points(draw, p):
    """Nonzero t over p; short windows reach the PrecisionError path."""
    precision = draw(st.sampled_from((1, 2, 3, 4, 48)))
    unit = draw(st.integers(1, p**precision - 1).filter(lambda u: u % p))
    return PAdicNumber(p, draw(st.integers(-7, 7)), unit, precision)


@st.composite
def measures_and_points(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    m = random_self_similar_measure(
        substream(draw(st.integers(0, 2**32 - 1)), 0), p
    )
    return m, draw(st.lists(points(p), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(measures_and_points())
def test_exponent_matches_oracle(case):
    m, ts = case
    # one LevyExponent across windows of different widths shares its tables
    assert_exponent_matches(m, ts, LevyExponent(m))


def test_exponent_oracle_covers_every_gamma_shape():
    # random_self_similar_measure draws j in {1, 2} and the unit of gamma0
    # from 1, 1+p and 1/(1+p): check each shape on the grid
    for p in (2, 3, 5):
        seen = set()
        rng = substream(404, p)
        for _ in range(200):
            m = random_self_similar_measure(rng, p)
            shape = (m.j, m.gamma0 / Fraction(p) ** m.j)
            assert shape[1] in _GAMMA_UNITS[p]
            if shape in seen:
                continue
            seen.add(shape)
            ts = grid_points(p, -4, 4) + grid_points(
                p, -3, 3, unit_digit_sets=((1, 1),), precision=2
            )
            assert_exponent_matches(m, ts, LevyExponent(m))
        assert len(seen) == 6


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("alpha", (0.5, 0.7, 1.5, 2.5))
def test_exponent_float_alpha_coefficients_equal(p, alpha):
    # float beta and weights: the coefficients must be the same floats
    m = make_example_measure(0.75, alpha, p)
    assert isinstance(m.beta, float)
    ts = grid_points(p, -5, 5)
    assert_exponent_matches(m, ts, LevyExponent(m))
    for t in ts:
        got = levy_exponent_exact(m, t).terms()
        assert all(isinstance(c, float) for c in got.values())


def test_exponent_zero_and_foreign_prime():
    m = random_self_similar_measure(substream(5, 5), 3)
    for z in (PAdicNumber.zero(3), PAdicNumber.zero(3, 4)):
        assert levy_exponent_exact(m, z) == CharacterSum(3)
        assert LevyExponent(m)(z) == 0j
    t = PAdicNumber.from_rational(1, 2, p=2)
    assert _outcome(levy_exponent_exact, m, t) == (
        PrimeMismatchError, "t over a different prime"
    )
    assert _outcome(levy_exponent_exact, m, t) == _outcome(oracle_exponent, m, t)
    with pytest.raises(PrimeMismatchError, match="t over a different prime"):
        LevyExponent(m)(t)


def test_exponent_short_window_error_text():
    # a depth-4 ball needs four digits of t below its leading one
    p = 3
    ball = split_sphere(0, 4, p)[7]
    m = make_measure(p, Fraction(1, 2), p, (((ball, Fraction(1, 7)),),))
    for precision in (1, 2, 3):
        t = PAdicNumber(p, -2, 1, precision)
        got = _outcome(levy_exponent_exact, m, t)
        assert got[0] is PrecisionError
        assert got == _outcome(oracle_exponent, m, t)
    t = PAdicNumber(p, -2, 1, 4)
    assert isinstance(_outcome(levy_exponent_exact, m, t)[0], list)
    assert_exponent_matches(m, [t])


def test_exponent_skips_zero_weights():
    # a zero-weight ball contributes no term, needs no digits of t and
    # does not keep the sphere loop going
    p = 2
    deep, shallow = split_sphere(0, 3, p)[1], split_sphere(0, 3, p)[2]
    for weights in ((0, Fraction(1, 3)), (0, 0), (0.0, 0.25)):
        m = make_measure(
            p, Fraction(1, 2), Fraction(4), (
                ((deep, weights[0]), (shallow, weights[1])),
                ((split_sphere(1, 1, p)[0], Fraction(1, 5)),),
            ),
        )
        ts = [PAdicNumber(p, v, 1, k) for v in (-3, -1, 0, 2) for k in (1, 2, 3)]
        assert_exponent_matches(m, ts, LevyExponent(m))


def test_levy_exponent_caches_sum_and_value():
    m = random_self_similar_measure(substream(8, 1), 2)
    phi = LevyExponent(m)
    t = PAdicNumber.from_rational(3, 8, p=2)
    first = phi.exact(t)
    assert phi(t) == first.to_complex()
    assert phi.exact(PAdicNumber.from_rational(3, 8, p=2)) is first
    assert phi(t) is phi(t)


def _bits(z):
    return z.real.hex(), z.imag.hex()


_FLOAT_BETA_MEASURE = make_example_measure(0.75, 0.7, 3)


@st.composite
def residue_cases(draw):
    """A measure, a sphere v and units of a few residue classes mod p**D,
    each class drawn several times at random digits above p**D."""
    m = draw(st.one_of(
        st.builds(
            lambda seed, p: random_self_similar_measure(substream(seed, 0), p),
            st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 5)),
        ),
        st.just(_FLOAT_BETA_MEASURE),
    ))
    p, depth = m.prime, _residue_depth(m)
    mod = p**depth
    classes = draw(st.lists(
        st.integers(1, mod - 1).filter(lambda u: u % p), min_size=1, max_size=3
    ))
    units = [
        c + mod * draw(st.integers(0, p ** (48 - depth) - 1))
        for c in classes
        for _ in range(draw(st.integers(2, 3)))
    ]
    return m, draw(st.integers(-7, 7)), draw(st.permutations(units))


@settings(max_examples=120, deadline=None)
@given(residue_cases(), st.sampled_from((1, 2, 3, 4)))
def test_units_of_one_residue_class_share_the_exact_value(case, short):
    m, v, units = case
    p, depth = m.prime, _residue_depth(m)
    shared = LevyExponent(m)
    exact = shared.sphere_exact(p, v, units, 48)
    values = shared.sphere(p, v, units, 48)
    for u, cs, z in zip(units, exact, values):
        alone = LevyExponent(m).sphere_exact(p, v, [u], 48)[0]
        assert list(cs.terms().items()) == list(alone.terms().items())
        assert _bits(z) == _bits(LevyExponent(m).sphere(p, v, [u], 48)[0])
        assert _bits(z) == _bits(alone.to_complex())
    # the window check reads (v, precision), whatever the cache holds: at
    # v = R of a deepest ball B(p**-r * c, p**R), r - R = D, that ball
    # adds its term at the phase scale D, so every window below D raises
    deep = next(
        ball.radius_exp for r, entries in enumerate(m.fundamental)
        for ball, w in entries if w and r - ball.radius_exp == depth
    )
    shared.sphere(p, deep, units, 48)
    for sphere_v, precision in [(v, short)] + [(deep, k) for k in range(1, depth)]:
        for u in units:
            t = PAdicNumber(p, sphere_v, u % p**precision, precision)
            want = _outcome(LevyExponent(m).exact, t)
            assert _outcome(shared.exact, t) == want
            if sphere_v == deep and precision < depth:
                assert want == (
                    PrecisionError,
                    f"need {depth} digits below the unit scale, have {precision}",
                )
    # the units of the warmed entries over another prime miss every one
    for call in (shared.sphere, shared.sphere_exact):
        with pytest.raises(PrimeMismatchError, match="t over a different prime"):
            call(7, v, units, 48)
    with pytest.raises(PrimeMismatchError, match="t over a different prime"):
        shared.exact(PAdicNumber(7, v, 1, 48))


def test_custom_measure_inversion_sweep_runs_one_kernel_unit_per_residue(monkeypatch):
    import padicprob.levy as levy

    spec = json.loads((CONFIG_DIR / "custom_measure.json").read_text())
    m = measure_from_spec(spec)
    calls = []
    real = levy.LevyExponent._kernel

    def counting(self, p, v, units, precision):
        calls.append(len(units))
        return real(self, p, v, units, precision)

    monkeypatch.setattr(levy.LevyExponent, "_kernel", counting)
    phi = LevyExponent(m)
    for i, l in MEMO_REGIONS:
        invert_exponent(phi, i, l, 3, tol=1e-12)
    # 24 spheres, each refined to depth 2: 6 probe units of each, 144
    # points.  Every ball has depth r - R = 1, so phi reads the unit mod 3:
    # the depth-1 call computes the 2 classes, and depth 2 computes none
    # (keyed by point, 144 units in 48 calls)
    assert _residue_depth(m) == 1
    assert len(phi.sphere_integrals) == 24
    assert calls == [2] * 24


@pytest.mark.parametrize("p", (2, 3, 5))
def test_probe_points_match_former_construction(p):
    for m in (-3, 0, 2):
        for depth in (1, 2, 3):
            # the points a probe of the sphere asks a pointwise evaluator for
            new = []
            asked = Pointwise(lambda t: new.append(t) or 0j, p)
            _probe_sphere(asked, p, m, list(_sphere_units(depth, p)))
            # the float probe of classification (tests/float_probe.py)
            # read the centres of split_sphere ...
            assert new == [
                PAdicNumber.from_rational(b.center, p=p)
                for b in split_sphere(m, depth, p)
            ]
            # ... and quadrature built a * p**-m as a Fraction
            assert new == [
                PAdicNumber.from_rational(a * Fraction(p) ** (-m), p=p)
                for a in range(1, p**depth)
                if a % p
            ]


def test_inversion_and_classification_match_oracle_values():
    # the integer path must give bit-identical floats end to end
    rng = substream(31, 2)
    for _ in range(3):
        m = random_self_similar_measure(rng)
        p = m.prime
        oracle = Pointwise(lambda t, m=m: oracle_exponent(m, t).to_complex(), p)
        for i, l in ((0, 2), (-1, None)):
            assert invert_exponent(LevyExponent(m), i, l, p) == invert_exponent(
                oracle, i, l, p
            )
    # a jump measure's transform has no two-valued form, and probing
    # the oracle's values finds none either
    m = make_example_measure(1, 1, 2)
    ev = Pointwise(lambda t: cmath.exp(oracle_exponent(m, t).to_complex()), 2)
    assert classify_two_valued(JumpMeasure(m), 2, 3, 4) == probe_classify(
        ev, 2, 3, 4
    )



# ---------------------------------------------------------------------
# Integer ball masses against the Fraction path they replaced
# ---------------------------------------------------------------------


@st.composite
def mass_measures(draw):
    """Measures with j in {1, 2}, gamma0 units 1, 1+p, 1/(1+p) and negative
    ones, rational or float beta, and rational or float weights."""
    p = draw(st.sampled_from((2, 3, 5)))
    j = draw(st.integers(1, 2))
    unit = draw(st.sampled_from(
        (Fraction(1), Fraction(1 + p), Fraction(1, 1 + p), Fraction(-1),
         Fraction(-(1 + p), 2 * p + 1))
    ))
    beta = draw(st.one_of(
        st.fractions(Fraction(1, 20), Fraction(19, 20)), st.floats(0.05, 0.95)
    ))
    fundamental = []
    for r in range(j):
        pool = split_sphere(r, draw(st.integers(1, 2)), p)
        picks = draw(st.lists(
            st.integers(0, len(pool) - 1), unique=True, min_size=0, max_size=3
        ))
        fundamental.append(tuple(
            (pool[i], draw(st.one_of(
                st.fractions(Fraction(1, 9), 9), st.floats(0.1, 9.0)
            )))
            for i in sorted(picks)
        ))
    return make_measure(p, beta, Fraction(p) ** j * unit, fundamental)


def _mass(fn, *args):
    try:
        out = fn(*args)
    except InfiniteMassError as exc:
        return type(exc), str(exc)
    return out, type(out)


@settings(max_examples=150, deadline=None)
@given(mass_measures(), st.integers(0, 2**32 - 1))
def test_ball_mass_matches_fraction_oracle(m, seed):
    rng = substream(seed, 9)
    for _ in range(4):
        s = random_compact_open(rng, m.prime, -7, 7, 5)
        balls = [oracle.state(b) for b in s]
        assert _mass(measure_mass, m, s) == _mass(oracle.measure_mass, m, balls)
        for b in s:
            assert _mass(measure_mass, m, b) == _mass(oracle.ball_mass, m, oracle.state(b))
    for b in (Ball(m.prime, 0, -3), Ball(m.prime, m.prime**4, 2)):
        assert _mass(measure_mass, m, b) == _mass(oracle.ball_mass, m, oracle.state(b))
        assert _mass(measure_mass, m, b)[0] is InfiniteMassError


def oracle_validate_scaling(m, trials, seed):
    """validate_scaling with oracle masses and Fraction-scaled balls."""
    rng = substream(seed, 97)
    failures = []
    for i in range(trials):
        s = random_compact_open(rng, m.prime)
        balls = [oracle.state(b) for b in s]
        scaled = sorted(
            (oracle.scale(b, m.gamma0) for b in balls), key=lambda b: (b[1], b[2])
        )
        lhs = oracle.measure_mass(m, balls)
        rhs = m.beta * oracle.measure_mass(m, scaled)
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            ok = lhs == rhs
        else:
            scale = max(abs(float(lhs)), abs(float(rhs)), 1e-30)
            ok = abs(float(lhs) - float(rhs)) <= 1e-12 * scale
        if not ok:
            failures.append(f"trial {i}: {s}: {lhs} != beta * {rhs}")
    return failures


@settings(max_examples=60, deadline=None)
@given(mass_measures(), st.integers(0, 2**16))
def test_validate_scaling_matches_fraction_oracle(m, seed):
    rep = validate_scaling(m, trials=8, seed=seed)
    assert list(rep.failures) == oracle_validate_scaling(m, 8, seed)


class _SkewedMeasure(type(make_example_measure(1, 1, 3))):
    """Doubles the mass of every sphere above the fundamental ones, so
    the scaling law fails wherever a set reaches them."""

    def beta_pow(self, k):
        return self.beta**k * (2 if k > 0 else 1)


def test_validate_scaling_failures_match_fraction_oracle():
    # the failure lines name the set and both masses as before
    m = make_example_measure(1, 1, 3)
    broken = _SkewedMeasure(m.prime, m.beta, m.gamma0, m.fundamental)
    rep = validate_scaling(broken, trials=10, seed=2)
    assert rep.failures
    assert list(rep.failures) == oracle_validate_scaling(broken, 10, 2)


def test_exponent_cache_does_not_answer_another_prime():
    # 1 over p = 5 has the digit window of 1 over p = 3; the cached value
    # of the first point must not answer the second
    phi = LevyExponent(make_example_measure(1, 1, 3))
    phi(PAdicNumber.from_rational(1, p=3))
    with pytest.raises(ValueError):
        phi(PAdicNumber.from_rational(1, p=5))
    with pytest.raises(ValueError):
        phi.exact(PAdicNumber.from_rational(1, p=5))


def test_measure_mass_refuses_sets_over_another_prime():
    # each of these used to answer a mass: only relate raised, and only
    # when the set's sphere had fundamental balls to relate to
    m3 = make_measure(
        3, Fraction(1, 4), 9, (((Ball(3, 1, -1), Fraction(2, 3)),), ())
    )
    foreign = Ball(2, Fraction(1, 2), -2)  # sphere 1 of m3 is empty
    m2 = make_example_measure(1, 1, 2)
    cases = [
        (m3, foreign),
        (m3, CompactOpenSet(2, [foreign])),
        (m3, Ball(2, 0, 0)),  # contains 0: the prime is checked first
        (m2, TailSet(3, 0)),
        (m2, Ball(3, 1, -1)),
        (m2, CompactOpenSet(3, [])),
    ]
    for m, s in cases:
        with pytest.raises(PrimeMismatchError, match="set over a different prime"):
            measure_mass(m, s)
    with pytest.raises(TypeError, match="no mass for"):
        measure_mass(m2, 1)


# ---------------------------------------------------------------------
# Integer ball masses against the image-ball path they replaced
# ---------------------------------------------------------------------


def image_ball_mass(measure, ball):
    """levy._ball_mass as it was: the image of the ball under gamma0**k
    built as a Ball and related to each fundamental ball."""
    if ball.contains_zero:
        raise InfiniteMassError(
            "the set contains a neighbourhood of 0; total jump mass there "
            "is infinite"
        )
    j, a, b = measure._gamma_split
    c_exp = ball.sphere_exp
    r = c_exp % j
    k = (c_exp - r) // j
    if k >= 0:
        image = ball._scaled(j * k, a**k, b**k)
    else:
        image = ball._scaled(j * k, b**-k, a**-k)
    p = measure.prime
    total = Fraction(0)
    for q, w in measure.fundamental[r]:
        rel = image.relate(q)
        if rel in ("inside", "equal"):
            total = total + w * Fraction(1, p ** (q.radius_exp - image.radius_exp))
        elif rel == "contains":
            total = total + w
    return measure.beta_pow(k) * total


def image_ball_measure_mass(measure, m):
    """measure_mass as it was (weights summed again for every tail), with
    the one prime check it now makes first."""
    if isinstance(m, (Ball, CompactOpenSet, TailSet)) and m.prime != measure.prime:
        raise PrimeMismatchError("set over a different prime")
    if isinstance(m, TailSet):
        j, total = measure.j, Fraction(0)
        for r in range(j):
            fr = Fraction(0)
            for _, w in measure.fundamental[r]:
                fr = fr + w
            if fr:
                k_min = -((r - m.radius_exp - 1) // j)
                total = total + fr * measure.beta_pow(k_min) / (1 - measure.beta)
        return total
    if isinstance(m, Ball):
        return image_ball_mass(measure, m)
    total = Fraction(0)
    for b in m:
        total = total + image_ball_mass(measure, b)
    return total


def _mass_repr(fn, *args):
    try:
        out = fn(*args)
    except (InfiniteMassError, PrimeMismatchError) as exc:
        return type(exc), str(exc)
    return repr(out), type(out)


@st.composite
def mass_inputs(draw, p):
    """Balls, sets and tails over p, ones that contain 0, and ones over
    another prime."""
    q = draw(st.sampled_from((p, p, p, 7)))
    seed = draw(st.integers(0, 2**32 - 1))
    s = random_compact_open(substream(seed, 9), q, -7, 7, 5)
    kind = draw(st.sampled_from(("set", "ball", "zero", "tail")))
    if kind == "set":
        if draw(st.booleans()):
            return s
        return CompactOpenSet(q, list(s) + [Ball(q, 0, draw(st.integers(-9, 9)))])
    if kind == "ball":
        return s.balls[0]
    if kind == "zero":
        return Ball(q, q ** draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    return TailSet(q, draw(st.integers(-9, 9)))


@settings(max_examples=200, deadline=None)
@given(mass_measures(), st.booleans(), st.data())
def test_integer_masses_match_image_balls(m, skewed, data):
    if skewed:
        m = _SkewedMeasure(m.prime, m.beta, m.gamma0, m.fundamental)
    for s in data.draw(st.lists(mass_inputs(m.prime), min_size=1, max_size=4)):
        want = _mass_repr(image_ball_measure_mass, m, s)
        assert _mass_repr(measure_mass, m, s) == want
        if isinstance(s, CompactOpenSet) and s.prime == m.prime:
            for b in s:
                assert _mass_repr(measure_mass, m, b) == _mass_repr(image_ball_mass, m, b)


# ---------------------------------------------------------------------
# One loop over a set's balls against the per-ball loop it replaced
# ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        mass_measures(),
        st.just(make_example_measure(Fraction(3, 4), 2, 3)),
        st.just(make_example_measure(0.75, 0.7, 3)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_set_masses_match_the_per_ball_loop(m, seed):
    # bit for bit and type for type: float weights or a float beta see the
    # same operations in the same order
    rng = substream(seed, 11)
    for _ in range(4):
        s = random_compact_open(rng, m.prime, -6, 6, 5)
        want = _mass_repr(per_ball.measure_mass, m, s.balls)
        assert _mass_repr(measure_mass, m, s) == want
        for b in s:
            assert _mass_repr(measure_mass, m, b) == _mass_repr(per_ball.ball_mass, m, b)
    with_zero = CompactOpenSet(m.prime, [Ball(m.prime, 1, -2), Ball(m.prime, 0, -3)])
    assert _mass_repr(measure_mass, m, with_zero) == _mass_repr(
        per_ball.measure_mass, m, with_zero.balls
    )


def test_a_float_measure_gives_a_float_zero_to_sets_it_misses():
    # sphere 1 carries no ball, and the ball of sphere 0 misses 2 + 3Z_3:
    # each ball's mass is the float beta**k times Fraction(0), so the set's
    # mass is 0.0, not the Fraction(0) a sum grouped by k would give
    m = make_measure(3, 0.3, 9, (((Ball(3, 1, -1), 0.5),), ()))
    for s in (
        CompactOpenSet(3, [Ball(3, 2, -1), Ball(3, Fraction(1, 3), -1)]),
        CompactOpenSet(3, [Ball(3, 2, -2), Ball(3, Fraction(2, 27), -2)]),
    ):
        got = measure_mass(m, s)
        assert type(got) is float and got == 0.0
        assert _mass_repr(measure_mass, m, s) == _mass_repr(per_ball.measure_mass, m, s.balls)


def test_a_bool_weight_is_refused():
    # True used to be read as the weight 1
    for flag in (True, False):
        with pytest.raises(ValueError, match="^a bool is not a rational: "):
            make_measure(3, Fraction(1, 4), 9, (((Ball(3, 1, -1), flag),), ()))


def _fundamental(weights):
    """Spheres 0 and 1 of p = 3, gamma0 = 9, with these four weights."""
    w0, w1, w2, w3 = weights
    return (
        ((Ball(3, 1, -1), w0), (Ball(3, 2, -2), w1)),
        ((Ball(3, Fraction(1, 3), 0), w2), (Ball(3, Fraction(5, 3), -1), w3)),
    )


def _masses_match_per_ball(m, seeds=range(8)):
    """measure_mass against the per-ball loop, repr and type, on random sets
    and their balls; returns the types seen."""
    seen = set()
    for seed in seeds:
        s = random_compact_open(substream(seed, 23), 3, -6, 6, 5)
        got = _mass_repr(measure_mass, m, s)
        assert got == _mass_repr(per_ball.measure_mass, m, s.balls)
        seen.add(got[1])
        for b in s:
            got = _mass_repr(measure_mass, m, b)
            assert got == _mass_repr(per_ball.ball_mass, m, b)
            seen.add(got[1])
    return seen


def test_int_weights_give_fraction_masses():
    m = make_measure(3, Fraction(1, 4), 9, _fundamental((2, 5, 1, 7)))
    assert _masses_match_per_ball(m) == {Fraction}
    assert measure_mass(m, Ball(3, 1, -2)) == Fraction(2, 3)


def test_one_float_weight_takes_the_float_path():
    m = make_measure(
        3, Fraction(1, 4), 9,
        _fundamental((Fraction(2, 3), 0.5, Fraction(1, 7), Fraction(5, 2))),
    )
    # a set that meets the float weight's ball weighs a float; one that
    # misses it adds Fractions alone, as the per-ball loop does
    assert _masses_match_per_ball(m) == {Fraction, float}
    hit = measure_mass(m, Ball(3, 2, -2))
    assert type(hit) is float and hit == 0.5
    assert measure_mass(m, Ball(3, 1, -1)) == Fraction(2, 3)


def test_rational_data_gives_fraction_zero_to_sets_it_misses():
    m = make_measure(3, Fraction(1, 4), 9, _fundamental((2, Fraction(1, 5), 0, 3)))
    empty = CompactOpenSet(3, [])
    # 5 + 9Z_3 lies in no fundamental ball, and 1/3 + Z_3 has weight 0
    missed = [Ball(3, 5, -2), Ball(3, Fraction(1, 3), 0), Ball(3, Fraction(2, 27), -2)]
    for s in [empty, CompactOpenSet(3, missed)] + missed:
        got = measure_mass(m, s)
        assert type(got) is Fraction and got == 0
        balls = [s] if isinstance(s, Ball) else s.balls
        assert _mass_repr(measure_mass, m, s) == _mass_repr(per_ball.measure_mass, m, balls)
