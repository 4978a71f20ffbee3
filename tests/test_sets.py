import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balls as oracle
from padicprob.charfn import substream
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import random_compact_open
from padicprob.padic import PAdicNumber, from_rational, rational_char_phase
from padicprob.sets import (
    Ball,
    _ball_char_exact,
    CompactOpenSet,
    StepFunction,
    TailSet,
    annulus,
    fourier_indicator,
    haar_measure,
    integrate_char,
    integrate_char_exact,
    integrate_step,
    integrate_step_inverse,
    normalize,
    sphere,
    split_sphere,
)

PRIMES = (2, 3, 5)


def test_normalize_nested_merge():
    s = normalize([Ball(2, 0, 0), Ball(2, 1, -1)])
    assert s.balls == (Ball(2, 0, 0),)


def test_normalize_keeps_disjoint_siblings():
    s = normalize([Ball(2, 0, -1), Ball(2, 1, -1)])
    assert len(s) == 2
    assert s.measure() == 1


def test_normalize_idempotent():
    s = normalize([Ball(3, 1, -2), Ball(3, 0, -1), Ball(3, 1, -1)])
    again = CompactOpenSet(3, s.balls)
    assert again == s


def test_normalize_mixed_primes():
    with pytest.raises(PrimeMismatchError):
        CompactOpenSet(2, [Ball(3, 0, 0)])


def test_haar_measures():
    assert haar_measure(Ball(5, 0, 0)) == 1
    assert haar_measure(Ball(5, 0, 3)) == 125
    assert sphere(0, 3).measure() == Fraction(2, 3)


def test_canonical_centers():
    # centers agreeing above the radius scale define the same ball
    assert Ball(2, 5, 0) == Ball(2, 0, 0)
    assert Ball(2, Fraction(7, 2), -1) == Ball(2, Fraction(3, 2), -1)
    assert Ball(2, Fraction(7, 2), -1) != Ball(2, Fraction(1, 2), -1)
    b = Ball(3, from_rational(5, 9, p=3), -1)
    assert b.center == Fraction(5, 9)


def test_ball_center_insufficient_precision():
    shallow = PAdicNumber.from_digits(2, -6, (1,))
    with pytest.raises(PrecisionError):
        Ball(2, shallow, -6 - 3)


def test_membership():
    b = Ball(2, 1, -2)  # 1 + 4 Z_2
    assert b.contains(Fraction(5))
    assert not b.contains(Fraction(3))
    assert b.contains(from_rational(5, p=2))
    assert not b.contains(from_rational(1, 2, p=2))


def test_split_sphere_examples():
    balls = split_sphere(0, 1, 3)
    assert [b.center for b in balls] == [1, 2]
    assert all(b.radius_exp == -1 for b in balls)
    s2 = split_sphere(2, 2, 2)
    assert [b.center for b in s2] == [Fraction(1, 4), Fraction(3, 4)]
    # measures tile the sphere exactly
    for p in PRIMES:
        for d in (1, 2, 3):
            total = sum(b.measure for b in split_sphere(1, d, p))
            assert total == (1 - Fraction(1, p)) * p


def test_annulus_measure():
    assert annulus(0, 2, 2).measure() == 3  # (1-1/2)(2+4)
    with pytest.raises(ValueError):
        annulus(2, 1, 2)


def test_scaling_law_of_measure():
    s = normalize([Ball(3, 1, -1), Ball(3, Fraction(2, 3), -2)])
    a = Fraction(9, 2)  # |a|_3 = 1/9
    assert s.scale(a).measure() == Fraction(1, 9) * s.measure()


balls_strategy = st.tuples(
    st.sampled_from(PRIMES),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=200, deadline=None)
@given(balls_strategy)
def test_ball_dichotomy(args):
    p, c_num, n1, n2 = args
    b1 = Ball(p, Fraction(c_num, p), n1)
    b2 = Ball(p, Fraction(c_num % 7), n2)
    rel = b1.relate(b2)
    assert rel in ("equal", "inside", "contains", "disjoint")
    # no partial overlap: containment matches measure comparison
    if rel == "inside":
        assert b1.measure <= b2.measure
    if rel == "contains":
        assert b2.measure <= b1.measure


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    ns=st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4),
)
def test_normalize_permutation_invariant(p, ns):
    balls = [Ball(p, i, n) for i, n in enumerate(ns)]
    s1 = normalize(balls)
    s2 = normalize(list(reversed(balls)) + [balls[0]])
    assert s1 == s2
    assert s1.measure() == s2.measure()


def brute_char_integral(m: CompactOpenSet, t: PAdicNumber) -> complex:
    """Exhaustive coset sum at a scale where the character is constant."""
    p = m.prime
    tau = -t.valuation
    tval = t.as_rational()
    total = 0j
    for ball in m:
        depth = max(0, tau + ball.radius_exp) + 1
        step = Fraction(p) ** (-ball.radius_exp)
        haar = float(Fraction(p) ** (ball.radius_exp - depth))
        for i in range(p**depth):
            fr = rational_char_phase(tval * (ball.center + i * step), p)
            total += haar * cmath.exp(2j * math.pi * float(fr.as_fraction()))
    return total


@pytest.mark.parametrize("p", (2, 3))
def test_integrate_char_against_bruteforce(p):
    zp = CompactOpenSet(p, [Ball(p, 0, 0)])
    for tau in range(-2, 3):
        for unit in (1, 1 + p):
            t = from_rational(Fraction(unit) * Fraction(p) ** (-tau), p=p)
            got = integrate_char(zp, t)
            want = brute_char_integral(zp, t)
            assert abs(got - want) <= 1e-12
    shifted = CompactOpenSet(p, [Ball(p, 1, -1), Ball(p, Fraction(1, p), -2)])
    for tau in range(-2, 3):
        t = from_rational(Fraction(p) ** (-tau), p=p)
        assert abs(integrate_char(shifted, t) - brute_char_integral(shifted, t)) <= 1e-12


def test_integrate_char_unit_ball():
    zp = CompactOpenSet(2, [Ball(2, 0, 0)])
    assert integrate_char(zp, from_rational(1, p=2)) == 1
    assert integrate_char(zp, from_rational(1, 2, p=2)) == 0
    assert integrate_char(zp, PAdicNumber.zero(2)) == 1


def test_integrate_char_exact_cancellation():
    # vanishes identically (not approximately) once |t| exceeds the ball scale
    for n in (-1, 0, 2):
        ball = Ball(3, 0, n)
        t = from_rational(Fraction(3) ** (n - 1), p=3)  # |t| = p**(-n+1)
        assert not integrate_char_exact(CompactOpenSet(3, [ball]), t)


def test_integrate_char_zero_t_gives_measure():
    m = annulus(0, 2, 3)
    assert integrate_char(m, PAdicNumber.zero(3)) == float(m.measure())


def test_step_function_basics():
    f = CompactOpenSet(2, [Ball(2, 1, -1)]).indicator()
    assert f.evaluate(Fraction(3)) == 1
    assert f.evaluate(Fraction(2)) == 0
    assert integrate_step(f, PAdicNumber.zero(2)) == 0.5
    with pytest.raises(ValueError):
        StepFunction(2, [(Ball(2, 0, 0), 1.0), (Ball(2, 1, -1), 2.0)])


def test_step_transform_self_dual_unit_ball():
    f = CompactOpenSet(3, [Ball(3, 0, 0)]).indicator()
    for k in range(-3, 4):
        t = from_rational(Fraction(3) ** (-k), p=3)
        want = 1.0 if k <= 0 else 0.0
        assert abs(integrate_step(f, t) - want) <= 1e-15


def test_fourier_round_trip_on_grid():
    ball = Ball(2, Fraction(1, 2), -2)
    fhat = fourier_indicator(ball)
    for num, den in ((1, 2), (5, 2), (3, 4), (1, 1), (3, 1), (7, 8), (0, 1)):
        x = (
            from_rational(num, den, p=2)
            if num
            else PAdicNumber.zero(2)
        )
        want = 1.0 if (num and ball.contains(Fraction(num, den))) else 0.0
        got = integrate_step_inverse(fhat, x)
        assert abs(got - want) <= 1e-12


def test_tailset_scaling():
    # |r x| = |r| |x|, and |1/4|_2 = 4: the tail threshold moves with |r|
    t = TailSet(2, 0)
    assert t.scale(Fraction(1, 4)).radius_exp == 2
    assert t.scale(4).radius_exp == -2


def test_integrate_char_rejects_a_foreign_prime():
    # a 2-adic set integrated against a 3-adic point used to give a 3-adic
    # sum for balls with a nonzero centre instead of an error
    t = from_rational(1, p=3)
    for ball in (Ball(2, 1, -1), Ball(2, 1, -3), Ball(2, 0, 0)):
        with pytest.raises(PrimeMismatchError, match="different primes"):
            integrate_char_exact(ball, t)
    assert not integrate_char_exact(CompactOpenSet(2, []), t)



# ---------------------------------------------------------------------
# The integer ball algebra against the Fraction paths it replaced
# ---------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, PrimeMismatchError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def padics(draw, p, zero=True):
    """Points over p: exact and certified zeros, and nonzero values with
    digit windows short enough to reach the PrecisionError paths."""
    if zero and draw(st.booleans()) and draw(st.booleans()):
        return PAdicNumber.zero(p, draw(st.one_of(st.none(), st.integers(-5, 5))))
    precision = draw(st.sampled_from((1, 2, 3, 4, 6, 48)))
    unit = draw(st.integers(1, p**precision - 1).filter(lambda u: u % p))
    return PAdicNumber(p, draw(st.integers(-7, 7)), unit, precision)


@st.composite
def centers(draw, p):
    kind = draw(st.sampled_from(("zero", "int", "fraction", "padic")))
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0))))
    if kind == "int":
        return draw(st.integers(-(10**6), 10**6))
    if kind == "fraction":
        den = p ** draw(st.integers(0, 6)) * draw(st.sampled_from((1, 2, 3, 5, 7, 11)))
        return Fraction(draw(st.integers(-(10**4), 10**4)), den)
    return draw(padics(p))


@st.composite
def balls(draw, p=None):
    p = p or draw(st.sampled_from(PRIMES))
    return p, draw(centers(p)), draw(st.integers(-6, 4))


def _state(ball):
    return oracle.state(ball), type(ball.center), hash(ball)


@settings(max_examples=400, deadline=None)
@given(balls())
def test_ball_matches_fraction_oracle(args):
    p, center, radius_exp = args
    want = _outcome(oracle.ball, p, center, radius_exp)
    got = _outcome(lambda *a: oracle.state(Ball(*a)), p, center, radius_exp)
    assert got == want
    if isinstance(want, tuple) and want[0] == p:
        ball = Ball(p, center, radius_exp)
        # dict and set order depend on the hash of (prime, center, radius)
        assert _state(ball) == (want, Fraction, hash((p, want[1], radius_exp)))


def test_ball_integer_and_padic_centres_with_negative_radius():
    for p in PRIMES:
        for c in (0, 1, -1, p, -(p**3) + 1, 7 * p**2):
            for r in (-5, -1, 0, 2):
                assert oracle.state(Ball(p, c, r)) == oracle.ball(p, c, r)
                x = PAdicNumber.from_rational(c, p=p, precision=6) if c else None
                if x is not None:
                    assert _outcome(lambda: oracle.state(Ball(p, x, r))) == (
                        _outcome(oracle.ball, p, x, r)
                    )
    with pytest.raises(PrimeMismatchError, match="different prime"):
        Ball(2, from_rational(1, p=3), 0)
    short = PAdicNumber.from_digits(3, -2, (1, 2))
    assert _outcome(Ball, 3, short, -1) == _outcome(oracle.ball, 3, short, -1)
    assert _outcome(Ball, 3, short, -1)[0] is PrecisionError


@pytest.mark.parametrize("p", PRIMES)
def test_split_sphere_matches_fraction_oracle(p):
    for n in range(-3, 4):
        for depth in (1, 2, 3):
            got = [oracle.state(b) for b in split_sphere(n, depth, p)]
            assert got == oracle.split_sphere(n, depth, p)


scalars = st.one_of(
    st.integers(-(10**4), 10**4),
    st.builds(
        Fraction,
        st.integers(-(10**4), 10**4),
        st.integers(1, 10**4),
    ),
)


@settings(max_examples=400, deadline=None)
@given(balls(), scalars)
def test_ball_scale_matches_fraction_oracle(args, r):
    want = _outcome(oracle.ball, *args)
    if not isinstance(want, tuple) or want[0] not in PRIMES:
        return
    ball = Ball(*args)
    got = _outcome(lambda: oracle.state(ball.scale(r)))
    assert got == _outcome(oracle.scale, want, r)
    if r:
        assert _state(ball.scale(r))[1:] == (
            Fraction, hash(oracle.scale(want, r)[:3])
        )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 2**32 - 1), scalars)
def test_set_scale_matches_scaled_balls(p, seed, r):
    s = random_compact_open(substream(seed, 3), p, -4, 4, 5)
    if not r:
        with pytest.raises(ValueError, match="cannot scale a ball by zero"):
            s.scale(r)
        return
    got = s.scale(r)
    want = sorted(
        (oracle.scale(oracle.state(b), r) for b in s), key=lambda b: (b[1], b[2])
    )
    assert [oracle.state(b) for b in got] == want


@st.composite
def ball_pairs(draw):
    """Two balls over one prime; the second often near the first's centre,
    so nested, equal and disjoint pairs all occur."""
    p, c, r1 = draw(balls())
    first = oracle.ball(p, c if not isinstance(c, PAdicNumber) else 1, r1)
    if draw(st.booleans()):
        offset = Fraction(draw(st.integers(-50, 50))) * Fraction(p) ** draw(
            st.integers(-6, 6)
        )
        c2 = first[1] + offset
    else:
        c2 = draw(centers(p).filter(lambda c: not isinstance(c, PAdicNumber)))
    return first, oracle.ball(p, c2, draw(st.integers(-6, 4)))


@settings(max_examples=300, deadline=None)
@given(ball_pairs())
def test_relate_matches_fraction_oracle(pair):
    x, y = pair
    bx, by = Ball(x[0], x[1], x[2]), Ball(y[0], y[1], y[2])
    assert bx.relate(by) == oracle.relate(x, y)
    assert by.relate(bx) == oracle.relate(y, x)


def test_relate_foreign_prime_text():
    assert _outcome(Ball(2, 1, -1).relate, Ball(3, 1, -1)) == (
        _outcome(oracle.relate, oracle.ball(2, 1, -1), oracle.ball(3, 1, -1))
    )


def _integral(fn, m, t):
    out = _outcome(fn, m, t)
    if isinstance(out, tuple):
        return out
    # the terms in order, their exact coefficients and types, the value
    return [(ph, c, type(c)) for ph, c in out.terms().items()], out.to_complex()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 2**32 - 1), st.data())
def test_integrate_char_matches_fraction_oracle(p, seed, data):
    rng = substream(seed, 4)
    s = random_compact_open(rng, p, -5, 5, 6)
    extra = [Ball(p, 0, int(rng.integers(-4, 5))), Ball(p, int(rng.integers(1, 99)), -2)]
    ts = data.draw(st.lists(padics(p), min_size=1, max_size=5))
    for t in ts:
        states = [oracle.state(b) for b in s]
        assert _integral(integrate_char_exact, s, t) == _integral(
            oracle.integrate_char_exact, states, t
        )
        for b in list(s) + extra:
            assert _integral(integrate_char_exact, b, t) == _integral(
                oracle.integrate_char_exact, [oracle.state(b)], t
            )
            assert _integral(_ball_char_exact, b, t) == _integral(
                oracle.char_exact, oracle.state(b), t
            )


def test_integrate_char_short_window_and_certified_zero_texts():
    ball = Ball(3, Fraction(5, 27), -1)  # needs the digits of t*c below p**0
    for t in (PAdicNumber(3, 0, 1, 1), PAdicNumber(3, 1, 2, 1), PAdicNumber.zero(3, 2)):
        got = _integral(integrate_char_exact, ball, t)
        assert got == _integral(oracle.integrate_char_exact, [oracle.state(ball)], t)
        assert got[0] is PrecisionError
    zero_ball = Ball(3, 0, 1)
    t = PAdicNumber.zero(3, 0)
    got = _integral(integrate_char_exact, zero_ball, t)
    assert got == (PrecisionError, "cannot compare |x| with p**-1: x only certified O(p**0)")
    assert got == _integral(oracle.integrate_char_exact, [oracle.state(zero_ball)], t)
