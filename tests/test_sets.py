import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balls as oracle
import per_ball
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import random_compact_open
from padicprob.padic import PAdicNumber, rational_char_phase
from padicprob.samplers import substream
from padicprob.sets import (
    Ball,
    CompactOpenSet,
    TailSet,
    annulus,
    integrate_char,
    integrate_char_exact,
    sphere,
    split_sphere,
)

PRIMES = (2, 3, 5)


def test_normalize_nested_merge():
    s = CompactOpenSet(2, [Ball(2, 0, 0), Ball(2, 1, -1)])
    assert s.balls == (Ball(2, 0, 0),)


def test_normalize_keeps_disjoint_siblings():
    s = CompactOpenSet(2, [Ball(2, 0, -1), Ball(2, 1, -1)])
    assert len(s) == 2
    assert s.measure() == 1


def test_normalize_idempotent():
    s = CompactOpenSet(3, [Ball(3, 1, -2), Ball(3, 0, -1), Ball(3, 1, -1)])
    again = CompactOpenSet(3, s.balls)
    assert again == s


def test_normalize_mixed_primes():
    with pytest.raises(PrimeMismatchError):
        CompactOpenSet(2, [Ball(3, 0, 0)])


def test_haar_measures():
    assert Ball(5, 0, 0).measure == 1
    assert Ball(5, 0, 3).measure == 125
    assert sphere(0, 3).measure() == Fraction(2, 3)


def test_canonical_centers():
    # centers agreeing above the radius scale define the same ball
    assert Ball(2, 5, 0) == Ball(2, 0, 0)
    assert Ball(2, Fraction(7, 2), -1) == Ball(2, Fraction(3, 2), -1)
    assert Ball(2, Fraction(7, 2), -1) != Ball(2, Fraction(1, 2), -1)
    b = Ball(3, PAdicNumber.from_rational(5, 9, p=3), -1)
    assert b.center == Fraction(5, 9)


def test_ball_center_insufficient_precision():
    shallow = PAdicNumber.from_digits(2, -6, (1,))
    with pytest.raises(PrecisionError):
        Ball(2, shallow, -6 - 3)


def test_membership():
    b = Ball(2, 1, -2)  # 1 + 4 Z_2
    assert b.contains(Fraction(5))
    assert not b.contains(Fraction(3))
    assert b.contains(PAdicNumber.from_rational(5, p=2))
    assert not b.contains(PAdicNumber.from_rational(1, 2, p=2))


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
    s = CompactOpenSet(3, [Ball(3, 1, -1), Ball(3, Fraction(2, 3), -2)])
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
    s1 = CompactOpenSet(p, balls)
    s2 = CompactOpenSet(p, list(reversed(balls)) + [balls[0]])
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
            s, k = rational_char_phase(tval * (ball.center + i * step), p)
            total += haar * cmath.exp(2j * math.pi * float(Fraction(k, p**s)))
    return total


@pytest.mark.parametrize("p", (2, 3))
def test_integrate_char_against_bruteforce(p):
    zp = CompactOpenSet(p, [Ball(p, 0, 0)])
    for tau in range(-2, 3):
        for unit in (1, 1 + p):
            t = PAdicNumber.from_rational(Fraction(unit) * Fraction(p) ** (-tau), p=p)
            got = integrate_char(zp, t)
            want = brute_char_integral(zp, t)
            assert abs(got - want) <= 1e-12
    shifted = CompactOpenSet(p, [Ball(p, 1, -1), Ball(p, Fraction(1, p), -2)])
    for tau in range(-2, 3):
        t = PAdicNumber.from_rational(Fraction(p) ** (-tau), p=p)
        assert abs(integrate_char(shifted, t) - brute_char_integral(shifted, t)) <= 1e-12


def test_integrate_char_unit_ball():
    zp = CompactOpenSet(2, [Ball(2, 0, 0)])
    assert integrate_char(zp, PAdicNumber.from_rational(1, p=2)) == 1
    assert integrate_char(zp, PAdicNumber.from_rational(1, 2, p=2)) == 0
    assert integrate_char(zp, PAdicNumber.zero(2)) == 1


def test_integrate_char_exact_cancellation():
    # vanishes identically (not approximately) once |t| exceeds the ball scale
    for n in (-1, 0, 2):
        ball = Ball(3, 0, n)
        t = PAdicNumber.from_rational(Fraction(3) ** (n - 1), p=3)  # |t| = p**(-n+1)
        assert not integrate_char_exact(CompactOpenSet(3, [ball]), t)


def test_integrate_char_zero_t_gives_measure():
    m = annulus(0, 2, 3)
    assert integrate_char(m, PAdicNumber.zero(3)) == float(m.measure())


def test_tailset_scaling():
    # |r x| = |r| |x|, and |1/4|_2 = 4: the tail threshold moves with |r|
    t = TailSet(2, 0)
    assert t.scale(Fraction(1, 4)).radius_exp == 2
    assert t.scale(4).radius_exp == -2


def test_integrate_char_rejects_a_foreign_prime():
    # a 2-adic set integrated against a 3-adic point used to give a 3-adic
    # sum for balls with a nonzero centre instead of an error
    t = PAdicNumber.from_rational(1, p=3)
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
        Ball(2, PAdicNumber.from_rational(1, p=3), 0)
    short = PAdicNumber.from_digits(3, -2, (1, 2))
    assert _outcome(Ball, 3, short, -1) == _outcome(oracle.ball, 3, short, -1)
    assert _outcome(Ball, 3, short, -1)[0] is PrecisionError


@st.composite
def rational_points(draw, p, center):
    """Rational points for membership: ints, Fractions, floats, 0, the
    centre itself, and points a power of p away from it."""
    kind = draw(st.sampled_from(("int", "fraction", "float", "zero", "center", "near")))
    if kind == "int":
        return draw(st.integers(-(10**6), 10**6))
    if kind == "fraction":
        den = p ** draw(st.integers(0, 6)) * draw(st.sampled_from((1, 2, 3, 7)))
        return Fraction(draw(st.integers(-(10**4), 10**4)), den)
    if kind == "float":
        return draw(st.floats(-1e6, 1e6, allow_nan=False))
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0), 0.0)))
    if kind == "center":
        return center
    shift = Fraction(p) ** draw(st.integers(-8, 8)) * draw(st.integers(-3, 3))
    return center + shift


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contains_rational_matches_fraction_oracle(data):
    p, center, radius_exp = data.draw(balls())
    want_ball = _outcome(oracle.ball, p, center, radius_exp)
    if want_ball[0] != p:  # the centre raised
        return
    ball = Ball(p, center, radius_exp)
    for _ in range(4):
        x = data.draw(rational_points(p, want_ball[1]))
        want = oracle.contains_rational(want_ball, x)
        assert ball.contains_rational(x) is want
        assert ball.contains(x) is want


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
    # scaling only re-sorts: normalising the scaled balls again agrees
    again = CompactOpenSet(p, [b.scale(r) for b in s])
    assert got == again and got.balls == again.balls
    assert [_state(b) for b in got] == [_state(b) for b in again]


def test_set_order_reads_every_digit_of_deep_centres():
    # units near 3**61 that differ in their last digits: an order read on
    # anything coarser than the exact integer keys would tie them
    u = 3**60 + 1
    deep = [Ball(3, Fraction(u + k, 3), -61) for k in (3, 0, 1)]
    balls = deep + [Ball(3, 5, -2), Ball(3, 0, -70), Ball(3, u, -61)]
    s = CompactOpenSet(3, balls)
    by_center = lambda b: (b.center, b.radius_exp)
    assert s.balls == tuple(sorted(balls, key=by_center))
    for r in (Fraction(2, 7), -9, Fraction(1, 27)):
        scaled = sorted((b.scale(r) for b in balls), key=by_center)
        assert s.scale(r).balls == tuple(scaled)


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


def test_radii_must_be_integers():
    # a radius that is not an integer used to be truncated (-2.9 -> -2)
    # or parsed ("3" -> 3), and TailSet kept it as given
    for bad in (-2.9, 0.5, "3", math.nan, math.inf, Fraction(1, 2), None, True):
        with pytest.raises(ValueError, match="radius_exp=.* is not an integer"):
            Ball(2, 1, bad)
        with pytest.raises(ValueError, match="radius_exp=.* is not an integer"):
            TailSet(2, bad)
    # an integral float counts as its int, as a JSON-schema integer does
    for ball in (Ball(2, 1, -2.0), Ball(2, 1, Fraction(-2))):
        assert ball == Ball(2, 1, -2) and type(ball.radius_exp) is int
    tail = TailSet(2, 1.0)
    assert tail == TailSet(2, 1) and type(tail.radius_exp) is int
    assert str(tail) == "annulus(1,inf)"
    for bad_prime in (4, 1, "2", 2.0):
        with pytest.raises(ValueError, match="not a prime"):
            TailSet(bad_prime, 1)


def test_scaling_by_zero_has_one_text():
    for s in (Ball(2, 1, -2), CompactOpenSet(2, [Ball(2, 1, -2)]), TailSet(2, 0)):
        for zero in (0, Fraction(0), 0.0):
            with pytest.raises(ValueError, match="^cannot scale a ball by zero$"):
                s.scale(zero)


# ---------------------------------------------------------------------
# One loop over a set's balls against the per-ball loops it replaced
# ---------------------------------------------------------------------


@st.composite
def ball_families(draw, p):
    """Balls over p with nested and equal ones among them: for each base
    ball B(c, p**R), balls around c + k * p**-R (inside it) of radius R or
    less, and the base ball again."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(centers(p).filter(lambda c: not isinstance(c, PAdicNumber)))
        radius_exp = draw(st.integers(-4, 3))
        out.append(Ball(p, c, radius_exp))
        for _ in range(draw(st.integers(0, 4))):
            k = draw(st.integers(-2 * p, 2 * p))
            inner = radius_exp - draw(st.integers(0, 3))
            out.append(Ball(p, Fraction(c) + k * Fraction(p) ** -radius_exp, inner))
        if draw(st.booleans()):
            out.append(Ball(p, c, radius_exp))
    return draw(st.permutations(out))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_normalisation_matches_the_relate_reference(p, data):
    pool = data.draw(ball_families(p))
    got = CompactOpenSet(p, pool)
    want = per_ball.normalise(p, pool)
    assert [_state(b) for b in got] == [_state(b) for b in want]
    assert CompactOpenSet(p, got.balls) == got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_integrate_char_matches_the_per_ball_loop(p, data):
    # children of one base ball B(c, p**R) share the phase of t*c wherever
    # |t| <= p**-R, at radii that differ: same terms, in the same order
    s = CompactOpenSet(p, data.draw(ball_families(p)))
    low = min(b.radius_exp for b in s)
    ts = data.draw(st.lists(
        st.one_of(
            padics(p),
            st.builds(
                PAdicNumber, st.just(p), st.integers(low, low + 6),
                st.integers(1, p**6 - 1).filter(lambda u: u % p), st.just(6),
            ),
        ),
        min_size=1, max_size=4,
    ))
    for t in ts:
        assert _integral(integrate_char_exact, s, t) == _integral(
            per_ball.integrate_char_exact, s, t
        )


def test_integrate_char_merges_a_phase_over_balls_of_different_radii():
    # 2 + 9Z_3 and 5 + 27Z_3 are disjoint and t*c has the phase 2/3 on both
    s = CompactOpenSet(3, [Ball(3, 5, -3), Ball(3, 2, -2), Ball(3, 1, -1)])
    t = PAdicNumber.from_rational(1, 3, p=3)
    got = integrate_char_exact(s, t)
    assert got.terms() == {(1, 1): Fraction(1, 3), (1, 2): Fraction(4, 27)}
    assert list(got.terms()) == [(1, 1), (1, 2)]
    assert _integral(integrate_char_exact, s, t) == _integral(
        per_ball.integrate_char_exact, s, t
    )


def test_integrate_char_raises_at_the_first_ball_that_fails():
    # the prime and the window are checked ball by ball, in order, so the
    # first failing ball names the error
    short = PAdicNumber(3, -1, 2, 1)  # needs digits it lacks on B(1/3, p**-2)
    zero = PAdicNumber.zero(3, 1)
    mixed = [
        [Ball(3, 1, -1), Ball(3, Fraction(1, 3), -2), Ball(2, 1, -1)],
        [Ball(3, 1, -1), Ball(2, 1, -1), Ball(3, Fraction(1, 3), -2)],
        [Ball(3, 1, -1), Ball(2, 0, 2)],  # a foreign ball whose integral is 0
        [Ball(2, Fraction(1, 2), -2), Ball(3, 1, -1)],  # and one t is short for
        [Ball(3, 0, 2), Ball(3, 0, -3)],
        [Ball(3, 0, -3), Ball(3, Fraction(1, 3), -2)],
    ]
    seen = set()
    for balls in mixed:
        for t in (short, zero, PAdicNumber.from_rational(1, p=3), PAdicNumber.zero(3, 3)):
            got = _integral(integrate_char_exact, balls, t)
            assert got == _integral(per_ball.integrate_char_exact, balls, t)
            if isinstance(got[0], type):
                seen.add(got)
            if all(b.prime == 3 for b in balls):
                s = CompactOpenSet(3, balls)
                assert _integral(integrate_char_exact, s, t) == _integral(
                    per_ball.integrate_char_exact, s, t
                )
    assert {exc for exc, _ in seen} == {PrecisionError, PrimeMismatchError}
    # a set over another prime than t fails at its first ball
    s = CompactOpenSet(2, [Ball(2, 1, -1), Ball(2, 0, -3)])
    for t in (PAdicNumber.from_rational(1, p=3), PAdicNumber.zero(3, 0)):
        got = _integral(integrate_char_exact, s, t)
        assert got == (PrimeMismatchError, "character sums over different primes")
        assert got == _integral(per_ball.integrate_char_exact, s, t)


def test_a_bool_is_not_a_rational():
    # True used to be read as 1: as a centre, and as a scale factor of a
    # ball, a set or a tail
    with pytest.raises(ValueError, match="^a bool is not a rational: True$"):
        Ball(2, True, -1)
    for s in (Ball(2, 1, -2), CompactOpenSet(2, [Ball(2, 1, -2)]), TailSet(2, 0)):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"^a bool is not a rational: {flag}$"):
                s.scale(flag)
    with pytest.raises(ValueError, match="^a bool is not a rational: False$"):
        Ball(2, 1, -2).contains(False)
