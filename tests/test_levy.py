import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balls as oracle
from padicprob.charfn import RadialCharFn, StableParams, stable_cf, substream
from padicprob.errors import InfiniteMassError, PrecisionError, ToleranceError
from padicprob.levy import (
    CfEvaluator,
    LevyExponent,
    _probe_point,
    _sphere_units,
    cf_from_levy,
    classify_two_valued,
    invert_exponent,
    levy_exponent,
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
    PAdicNumber,
    Phase,
    from_rational,
    grid_points,
)
from padicprob.sets import Ball, CompactOpenSet, TailSet, annulus, split_sphere


def test_example_measure_construction():
    m = make_example_measure(1, 1, 2)
    assert m.beta == Fraction(1, 2)
    assert m.gamma0 == 2
    assert m.j == 1
    assert m.sphere_mass(0) == Fraction(2, 3)
    assert m.sphere_mass(1) == Fraction(1, 3)
    assert m.is_symmetric() and m.is_radial()


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


def test_validate_scaling_example_and_empty():
    m = make_example_measure(1, 1, 2)
    assert validate_scaling(m, trials=30, seed=5).passed
    empty = CompactOpenSet(2, [])
    assert measure_mass(m, empty) == 0


def test_levy_exponent_closed_form_values():
    m = make_example_measure(1, 1, 2)
    for num, den, want in ((1, 4, -4.0), (1, 1, -1.0), (4, 1, -0.25)):
        t = from_rational(num, den, p=2)
        val = levy_exponent(m, t)
        assert val == complex(want, 0.0)
    assert levy_exponent(m, PAdicNumber.zero(2)) == 0


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
    assert m.is_symmetric()
    for t in grid_points(3, -3, 3):
        assert levy_exponent(m, t).imag == 0.0


def test_levy_exponent_brute_force_two_ball():
    # single fundamental sphere, two balls: expand the defining sum by hand.
    # For |t| = 3 the character factor survives only on the unit sphere
    # (|t * 3**-N| <= 3**1 needs N <= 0), so
    #   phi(t) = w1 chi(t c1) + w2 chi(t c2) - sum_{N>=0} beta**N (w1+w2)
    p = 3
    b1, b2 = split_sphere(0, 1, p)
    w1, w2 = Fraction(1, 2), Fraction(1, 4)
    m = make_measure(p, Fraction(1, 3), p, (((b1, w1), (b2, w2)),))
    t = from_rational(1, 3, p=p)

    def chi(fr):
        return cmath.exp(2j * math.pi * float(fr % 1))

    beta = Fraction(1, 3)
    tail = float((w1 + w2) * sum(beta**k for k in range(0, 60)))
    hand = (
        float(w1) * chi(Fraction(1, 3) * b1.center)
        + float(w2) * chi(Fraction(1, 3) * b2.center)
        - tail
    )
    val = complex(levy_exponent(m, t))
    assert abs(val - hand) <= 1e-12


def test_cf_matches_closed_form_grid():
    for p, a, alpha in ((2, 1, 1), (3, 0.5, 2), (5, 2, 0.5)):
        m = make_example_measure(a, alpha, p)
        params = StableParams(float(a), float(alpha), p)
        for k in range(-4, 5):
            t = from_rational(Fraction(p) ** (-k), p=p)
            assert abs(cf_from_levy(m, t) - stable_cf(params, t)) <= 1e-12


def test_cf_basics_and_nonvanishing():
    m = make_example_measure(1, 1, 2)
    assert cf_from_levy(m, PAdicNumber.zero(2)) == 1.0
    for t in grid_points(2, -5, 5):
        g = cf_from_levy(m, t)
        assert abs(g) <= 1.0 + 1e-15
        tau = -t.valuation
        lower = math.exp(-2.0 * float(measure_mass(m, TailSet(2, -tau))))
        assert abs(g) >= lower - 1e-15
        assert abs(g) > 0.0


def test_cf_modulus_scaling_identity():
    m = make_example_measure(1, 1, 2)
    g = CfEvaluator(m)
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
    assert invert_exponent(lambda t: 0j, 0, 2, 2) == 0.0


def test_invert_exponent_random_round_trip():
    rng = substream(123, 9)
    for _ in range(3):
        m = random_self_similar_measure(rng)
        phi = LevyExponent(m)
        for (i, l) in ((0, 2), (-1, 1)):
            exact = float(measure_mass(m, annulus(i, l, m.prime)))
            got = invert_exponent(phi, i, l, m.prime, tol=1e-12)
            assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


def test_invert_exponent_refinement_cap():
    # an evaluator that is not locally constant anywhere
    import random

    noisy = lambda t: complex(random.random())  # noqa: E731
    with pytest.raises(ToleranceError):
        invert_exponent(noisy, 0, 2, 2, refine_cap=3)


def test_classify_cutoff():
    g = RadialCharFn.indicator(2, 0)
    form = classify_two_valued(lambda t: complex(g(t)), 2)
    assert form.kind == "haar_cutoff"
    assert form.cutoff_exp == 0
    assert form.xi.is_zero


def test_classify_pure_character():
    xi = Fraction(1, 3)
    ev = lambda t: t.mul_rational(xi).character_phase().to_complex()  # noqa: E731
    form = classify_two_valued(ev, 3)
    assert form.kind == "delta"
    assert form.xi.as_rational() == xi


def test_classify_stable_not_two_valued():
    g = RadialCharFn.stable(StableParams(1.0, 1.0, 2))
    form = classify_two_valued(lambda t: complex(g(t)), 2)
    assert form.kind == "not_two_valued"


def test_classify_shifted_cutoff():
    # chi(t xi) on |t| <= p, 0 above: uniform law on a shifted ball
    p = 2
    xi = Fraction(1, 2)

    def ev(t):
        if t.is_zero or -t.valuation <= 1:
            return t.mul_rational(xi).character_phase().to_complex()
        return complex(0.0, 0.0)

    form = classify_two_valued(ev, p)
    assert form.kind == "haar_cutoff"
    assert form.cutoff_exp == 1
    assert form.xi.as_rational() == xi


def test_classify_inconsistent_phases_raise():
    # unit-modulus values whose phases fit the snap grid but belong to
    # no single point
    quarter = cmath.exp(2j * math.pi * 0.25)
    with pytest.raises(ValueError):
        classify_two_valued(lambda t: quarter, 2)
    # phases that do not even lie on a p-power grid
    off_grid = cmath.exp(2j * math.pi * 0.137)
    with pytest.raises(ValueError):
        classify_two_valued(lambda t: off_grid, 2)


def test_classify_symmetric_never_offcenter_delta():
    m = make_example_measure(1, 2, 3)
    form = classify_two_valued(CfEvaluator(m), 3, search_radius_exp=3, probe_depth=5)
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
        raise ValueError("t over a different prime")
    if t.is_zero:
        return CharacterSum.zero(p)
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
                        else Phase.zero(p)
                    )
                    total = total + CharacterSum.single(
                        phase, w * measure.beta_pow(k)
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
        assert levy_exponent_exact(m, z) == CharacterSum.zero(3)
        assert LevyExponent(m)(z) == 0j
    t = from_rational(1, 2, p=2)
    assert _outcome(levy_exponent_exact, m, t) == (
        ValueError, "t over a different prime"
    )
    assert _outcome(levy_exponent_exact, m, t) == _outcome(oracle_exponent, m, t)


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
    t = from_rational(3, 8, p=2)
    first = phi.exact(t)
    assert phi(t) == first.to_complex()
    assert phi.exact(from_rational(3, 8, p=2)) is first
    assert phi(t) is phi(t)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_probe_points_match_former_construction(p):
    for m in (-3, 0, 2):
        for depth in (1, 2, 3):
            new = [_probe_point(p, m, a) for a in _sphere_units(depth, p)]
            # classification read the centres of split_sphere ...
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
        oracle = lambda t, m=m: oracle_exponent(m, t).to_complex()  # noqa: E731
        for i, l in ((0, 2), (-1, None)):
            assert invert_exponent(LevyExponent(m), i, l, p) == invert_exponent(
                oracle, i, l, p
            )
    m = make_example_measure(1, 1, 2)
    ev = lambda t: cmath.exp(oracle_exponent(m, t).to_complex())  # noqa: E731
    assert classify_two_valued(CfEvaluator(m), 2, 3, 4) == classify_two_valued(
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
