import bisect
import functools
import math
import pickle
from collections import Counter
from fractions import Fraction

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evaluators import empirical_cf
from padicprob import charfn
from padicprob.charfn import (
    SPHERE_MASS_TOL,
    HaarUniform,
    PointMass,
    SphereMassTable,
    StableParams,
    Transform,
    ball_probability,
    sphere_masses,
    StableLaw,
)
from padicprob.errors import PrecisionError, PrimeMismatchError, ToleranceError
from padicprob.levy import JumpMeasure, make_example_measure, make_measure, measure_mass
from padicprob.padic import PAdicNumber, chi, grid_points
from padicprob.residues import tally
from padicprob.samplers import (
    CompoundPoissonSampler,
    HaarBallSampler,
    PointMassSampler,
    RadialSampler,
    poisson_draw,
    substream,
)
from padicprob.sets import Ball, integrate_char_exact, sphere
from padicprob.specs import law_from_spec

# frozen independent oracle: sum_{j<=0} 2**(j-1) exp(-2**j), j down to -60
Z2_STABLE_MASS = 0.5480427915295704

# chi-square 1% critical values by degrees of freedom
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277}
# chi-square 0.1% critical values by degrees of freedom
CHI2_999 = {3: 16.266, 6: 22.458, 8: 26.124, 18: 42.312, 24: 51.179}


def chi2(counts, probs) -> float:
    n = sum(counts)
    return sum((c - n * q) ** 2 / (n * q) for c, q in zip(counts, probs))


def radial_stable_sampler(params: StableParams, **keys) -> RadialSampler:
    """The sampler of the radial_stable law spec of ``params``."""
    spec = {"kind": "radial_stable", "a": params.a, "alpha": params.alpha, "p": params.prime}
    return law_from_spec({**spec, **keys}).sampler


def test_stable_cf_basics():
    g = StableLaw(StableParams(1.0, 1.0, 2))
    assert g(PAdicNumber.zero(2)) == 1.0
    t = PAdicNumber.from_rational(1, 2, p=2)  # |t| = 2
    assert abs(g(t) - math.exp(-2.0)) < 1e-15
    # scaling: g(p t) = g(t)**(p**-alpha)
    for num, den in ((1, 2), (3, 4), (5, 1)):
        t = PAdicNumber.from_rational(num, den, p=2)
        lhs = g(t.mul_rational(2))
        rhs = g(t) ** 0.5
        assert abs(lhs - rhs) < 1e-14


def test_stable_cf_rejects_other_prime():
    t = PAdicNumber.from_rational(1, p=3)
    with pytest.raises(PrimeMismatchError):
        StableLaw(StableParams(1.0, 1.0, 2))(t)
    with pytest.raises(PrimeMismatchError):
        PointMass(PAdicNumber.zero(2))(PAdicNumber.zero(3))


def test_sample_rejects_negative_count():
    s = HaarBallSampler(ball=Ball(2, 0, 0), resolution=-4)
    with pytest.raises(ValueError):
        s.sample(substream(0, 0), -1)


def test_ball_probability_point_mass_at_zero():
    g = PointMass(PAdicNumber.zero(5))
    res = ball_probability(g, Ball(5, 0, 0))
    assert res.value == 1.0 and res.exact == 1
    off = ball_probability(g, Ball(5, 1, -1))
    assert off.value == 0.0 and off.exact == 0


def test_ball_probability_haar_exact():
    g = HaarUniform(Ball(3, 0, 0))  # uniform on the unit ball
    assert ball_probability(g, Ball(3, 0, 0)).exact == 1
    assert ball_probability(g, Ball(3, 0, -2)).exact == Fraction(1, 9)
    assert ball_probability(g, Ball(3, 1, -1)).exact == Fraction(1, 3)
    assert ball_probability(g, Ball(3, Fraction(1, 3), -1)).exact == 0


def test_ball_probability_stable_frozen_reference():
    g = StableLaw(StableParams(1.0, 1.0, 2))
    res = ball_probability(g, Ball(2, 0, 0), tol=1e-12)
    assert abs(res.value - Z2_STABLE_MASS) <= 1e-10
    assert res.error_bound <= 1e-12


def test_ball_probability_monotone_in_radius():
    g = StableLaw(StableParams(0.7, 1.3, 3))
    vals = [ball_probability(g, Ball(3, 0, n)).value for n in range(-3, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_sphere_masses_haar():
    g = HaarUniform(Ball(2, 0, 0))
    table = sphere_masses(g, -4, 4)
    for n, mass in table.masses:
        want = float((1 - Fraction(1, 2)) * Fraction(2) ** n) if n <= 0 else 0.0
        assert mass == pytest.approx(want, abs=1e-15)
    assert table.total() == pytest.approx(1.0, abs=1e-12)


def test_sphere_masses_point_mass():
    table = sphere_masses(PointMass(PAdicNumber.zero(3)), -5, 5)
    assert all(m == 0 for _, m in table.masses)
    assert table.mass_at_zero == 1.0


def test_sphere_masses_stable_normalised():
    g = StableLaw(StableParams(1.0, 1.0, 2))
    table = sphere_masses(g, -40, 40)
    assert abs(table.total() - 1.0) <= 1e-12


class _DippedRadial(Transform):
    """Radial values 1 on every sphere but |t| = p**dip, where it is -1:
    no law has them, and the sphere mass at p**(-dip - 1) is negative."""

    is_radial = True

    def __init__(self, p: int, dip: int):
        self.prime, self.dip = p, dip

    def radial_value(self, k: int) -> float:
        return -1.0 if k == self.dip else 1.0


def per_ball_sphere_masses(g, n_lo: int, n_hi: int) -> SphereMassTable:
    """The mass table from one ball_probability call per ball B(0, p**n),
    n_lo - 1 <= n <= n_hi, each series summed on its own."""
    if n_lo > n_hi:
        raise ValueError("need n_lo <= n_hi")
    p = g.prime
    probs = {n: ball_probability(g, Ball(p, 0, n), tol=SPHERE_MASS_TOL)
             for n in range(n_lo - 1, n_hi + 1)}
    masses, clamped = [], []
    bound = 2.0 * max(pr.error_bound for pr in probs.values())
    for n in range(n_lo, n_hi + 1):
        m = probs[n].value - probs[n - 1].value
        if m < 0:
            if m < -(SPHERE_MASS_TOL + bound):
                raise ToleranceError(
                    f"sphere mass at {n} is {m}, below -tol; transform is "
                    "not a valid radial characteristic function at this tol"
                )
            m = 0.0
            clamped.append(n)
        masses.append((n, m))
    return SphereMassTable(p, n_lo, n_hi, tuple(masses), probs[n_lo - 1].value,
                           max(0.0, 1.0 - probs[n_hi].value), bound, tuple(clamped))


def _table_outcome(fn, *args):
    """repr of a result or of an exception's type and text: repr tells
    every float apart bit for bit (0.0 from -0.0 too)."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return repr((type(exc).__name__, str(exc)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.floats(0.05, 5.0),
    st.floats(0.1, 3.0),
    st.integers(-40, 10),
    st.integers(0, 50),
    st.one_of(st.none(), st.integers(-50, 40)),
)
@example(2, 1.0, 1.0, -60, 70, 3)  # masses clamped, then one raises
@example(3, 1.0, 1.0, -41, 81, None)  # the shipped config's table, at p = 3
def test_sphere_masses_match_per_ball_probabilities(p, a, alpha, n_lo, width, dip):
    # each ball of the table is ball_probability's, in value and bound,
    # so the table is the per-ball table bit for bit, and it raises at the
    # same n with the same text
    g = StableLaw(StableParams(a, alpha, p)) if dip is None else _DippedRadial(p, dip)
    n_hi = n_lo + width
    seen = []
    real = charfn._ball_probability

    def recording(g, ball, tol, series):
        seen.append((ball, real(g, ball, tol, series)))
        return seen[-1][1]

    with patch.object(charfn, "_ball_probability", recording):
        got = _table_outcome(sphere_masses, g, n_lo, n_hi)
    assert got == _table_outcome(per_ball_sphere_masses, g, n_lo, n_hi)
    assert [ball for ball, _ in seen] == [Ball(p, 0, n) for n in range(n_lo - 1, n_lo - 1 + len(seen))]
    for ball, bp in seen:
        assert repr(bp) == repr(ball_probability(g, ball, SPHERE_MASS_TOL))


def test_sphere_masses_raise_at_the_negative_mass():
    # the masses below p**-4 are negative, from -2**-2 at n = -4 down:
    # those within the tolerance are clamped, the first beyond it raises
    with pytest.raises(ToleranceError, match="sphere mass at -4 is -0.25,"):
        sphere_masses(_DippedRadial(2, 3), -4, 10)
    with pytest.raises(ToleranceError, match="sphere mass at -40 is"):
        sphere_masses(_DippedRadial(2, 3), -60, 10)
    assert sphere_masses(_DippedRadial(2, 3), -2, 10).clamped == ()


def test_point_mass_sampler():
    xi = PAdicNumber.from_rational(7, 3, p=5)
    s = PointMassSampler(xi=xi)
    rng = substream(1, 0)
    assert all(x == xi for x in s.sample(rng, 10))


def test_haar_sampler_frequency():
    s = HaarBallSampler(ball=Ball(2, 0, 0), resolution=-10)
    rng = substream(2, 0)
    n = 4000
    draws = s.sample(rng, n)
    target = Ball(2, 1, -1)  # 1 + 2 Z_2, probability 1/2
    freq = sum(1 for x in draws if target.contains(x)) / n
    assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / n)


def test_radial_sampler_matches_ball_probability():
    params = StableParams(1.0, 1.0, 2)
    s = radial_stable_sampler(params, resolution=-8, n_lo=-40, n_hi=40)
    rng = substream(3, 0)
    n = 4000
    draws = s.sample(rng, n)
    q = ball_probability(StableLaw(params), Ball(2, 0, 0)).value
    freq = sum(1 for x in draws if Ball(2, 0, 0).contains(x)) / n
    assert abs(freq - q) <= 4 * math.sqrt(q * (1 - q) / n)


@pytest.mark.parametrize("p, resolution", [(2, -8), (3, -6), (2, -50), (5, -41)])
def test_the_radial_stable_spec_samples_its_sphere_masses(p, resolution):
    # the spec's sampler is a RadialSampler on the stable law's sphere
    # masses from min(n_lo, resolution + 1) to n_hi, so a resolution below
    # n_lo extends the table down to it
    params = StableParams(1.0, 1.0, p)
    s = radial_stable_sampler(params, resolution=resolution, n_lo=-40, n_hi=40)
    table = sphere_masses(StableLaw(params), min(-40, resolution + 1), 40)
    assert s.table == table
    assert s.table.n_lo == min(-40, resolution + 1)
    direct = RadialSampler(table=table, resolution=resolution)
    assert s.sample(substream(11, p), 500) == direct.sample(substream(11, p), 500)


def test_radial_sampler_first_digit_uniform():
    params = StableParams(1.0, 1.0, 5)
    s = radial_stable_sampler(params, resolution=-6, n_lo=-40, n_hi=40)
    rng = substream(4, 0)
    counts = Counter()
    n = 3000
    for x in s.sample(rng, n):
        if not x.is_zero:
            counts[x.digits[0]] += 1
    total = sum(counts.values())
    expected = total / 4
    chi2 = sum((counts.get(d, 0) - expected) ** 2 / expected for d in (1, 2, 3, 4))
    assert chi2 <= CHI2_99[3]


@pytest.mark.parametrize("p, seed", [(2, 602), (3, 603), (5, 605)])
def test_radial_sphere_frequencies_match_the_table(p, seed):
    # the sampled law's sphere probabilities are the table's masses over
    # its total, with the mass at or below the resolution drawn as zero
    # and the tail drawn on the top sphere; bins: zero or |x| <= p**-3,
    # the spheres p**-2 .. p**2, and |x| >= p**3
    s = radial_stable_sampler(StableParams(1.0, 1.0, p), resolution=-6, n_lo=-40, n_hi=40)

    def bin_of(k):
        return 0 if k is None or k <= -3 else min(k, 3) + 3

    table = s.table
    probs = [0.0] * 7
    probs[0] += table.mass_at_zero
    for k, m in table.masses:
        probs[bin_of(k)] += m
    probs[bin_of(table.n_hi)] += table.tail_above
    probs = [q / table.total() for q in probs]
    counts = [0] * 7
    for x in s.sample(substream(seed, 0), 20000):
        counts[bin_of(None if x.is_zero else -x.valuation)] += 1
    assert chi2(counts, probs) <= CHI2_999[6]


@pytest.mark.parametrize("p, seed", [(2, 702), (3, 703), (5, 705)])
def test_haar_sub_ball_frequencies_are_exact(p, seed):
    # the p**2 sub-balls of radius p**-2 of 1/p + Z_p have probability
    # p**-2 each
    s = HaarBallSampler(ball=Ball(p, Fraction(1, p), 0), resolution=-6)
    subs = [Ball(p, Fraction(1, p) + d, -2) for d in range(p * p)]
    # the draws of s.sample, kept as residues: same RNG calls
    counts = tally(s.residue_sums(substream(seed, 0), 1, 6000), [], subs)[1]
    assert sum(counts) == 6000
    assert chi2(counts, [1 / p**2] * p**2) <= CHI2_999[p * p - 1]


def _wide_radial() -> RadialSampler:
    # p = 3, n_hi = 40, resolution -12: 52 ternary digits (about 2**82),
    # with all the mass on the spheres 3**30 .. 3**40
    masses = tuple((n, 1 / 11 if n >= 30 else 0.0) for n in range(-11, 41))
    return RadialSampler(SphereMassTable(3, -11, 40, masses, 0.0, 0.0, 0.0), -12)


@pytest.mark.parametrize(
    "make, seed",
    [(_wide_radial, 803), (lambda: HaarBallSampler(Ball(3, 0, 40), -12), 804)],
    ids=["radial", "haar"],
)
def test_wide_window_digits_are_uniform(make, seed):
    # each draw takes two 63-bit limbs; every digit from |x| = 3**29 down
    # to the resolution is uniform, and digits on either side of a limb
    # boundary are independent
    s = make()
    draws = s.sample(substream(seed, 0), 6000)

    def digit(x, i):
        return 0 if x.is_zero or i < x.valuation else x.digits[i - x.valuation]

    def tally(keys, cells):
        c = Counter(keys)
        return [c.get(cell, 0) for cell in cells]

    positions = (-29, -15, -2, -1, 0, 1, 5, 10, 11)
    stat = sum(
        chi2(tally((digit(x, i) for x in draws), range(3)), [1 / 3] * 3)
        for i in positions
    )
    assert stat <= CHI2_999[18]
    cells = [(a, b) for a in range(3) for b in range(3)]
    stat = sum(
        chi2(tally(((digit(x, i), digit(x, j)) for x in draws), cells), [1 / 9] * 9)
        for i, j in ((-2, -1), (0, 1), (10, 11))
    )
    assert stat <= CHI2_999[24]


def test_compound_poisson_zero_jump_draw_is_resolved_zero():
    m = make_example_measure(1, 1, 2)
    s = CompoundPoissonSampler(measure=m, resolution=-4)
    rng = substream(5, 0)
    draws = s.sample(rng, 50)
    for x in draws:
        assert x.known_mod_exp >= 4
    assert any(x.is_zero for x in draws)  # rate 32/3: zero draws are rare but the window marking must hold on all


class OneJumpRng:
    """A Generator whose poisson() gives every draw exactly one jump, so a
    compound-Poisson draw is its jump."""

    def __init__(self, rng):
        self.rng = rng

    def poisson(self, lam, size):
        return np.ones(size, dtype=np.int64)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize(
    "beta, edges, seed",
    [
        (Fraction(1, 2), (-3, -2, -1, 0, 1, 2, 3, 4, 5), 811),
        (Fraction(99, 100), (-3, 17, 57, 97, 157, 237, 337, 477, 677), 812),
    ],
)
def test_compound_poisson_sphere_frequencies_are_exact(beta, edges, seed):
    # p = 2, gamma0 = 4 * 3: both fundamental spheres carry mass, so
    # sphere n = r + 2k has mass F_r * beta**k for n above the resolution
    # -4; bins [edges[i], edges[i+1]) and [edges[-1], oo).  beta = 99/100
    # reaches spheres hundreds of digits up, with no table cut.
    fund = (
        ((Ball(2, 1, -2), Fraction(1, 100)), (Ball(2, 3, -2), Fraction(3, 100))),
        ((Ball(2, Fraction(1, 2), 0), Fraction(2, 100)),),
    )
    m = make_measure(2, beta, 12, fund)
    s = CompoundPoissonSampler(measure=m, resolution=-4)
    rate = m.tail_mass(-4)
    probs = [
        sum(measure_mass(m, sphere(n, 2)) for n in range(lo, hi)) / rate
        for lo, hi in zip(edges, edges[1:])
    ]
    probs.append(1 - sum(probs))
    count = 10000
    draws = s.sample(OneJumpRng(substream(seed, 0)), count)
    counts = Counter(bisect.bisect_right(edges, -x.valuation) - 1 for x in draws)
    assert -1 not in counts  # no jump at or below the resolution
    assert chi2([counts[i] for i in range(len(probs))], [float(q) for q in probs]) <= CHI2_999[8]


def test_compound_poisson_never_draws_an_empty_fundamental_sphere():
    # p = 2, j = 2 with fundamental sphere 1 empty: no jump on an odd sphere
    m = make_measure(2, Fraction(1, 2), 4, (((Ball(2, 1, -1), Fraction(1, 8)),), ()))
    s = CompoundPoissonSampler(measure=m, resolution=-4)
    draws = s.sample(OneJumpRng(substream(813, 0)), 4000)
    assert all(x.valuation % 2 == 0 for x in draws)


def test_compound_poisson_ball_fidelity_small():
    m = make_example_measure(1, 1, 2)
    s = CompoundPoissonSampler(measure=m, resolution=-4)
    rng = substream(6, 0)
    n = 3000
    draws = s.sample(rng, n)
    g = StableLaw(StableParams(1.0, 1.0, 2))
    for ball in (Ball(2, 0, 0), Ball(2, 0, 2), Ball(2, 1, -1)):
        q = ball_probability(g, ball).value
        freq = sum(1 for x in draws if ball.contains(x)) / n
        assert abs(freq - q) <= 4 * math.sqrt(q * (1 - q) / n)


def test_compound_poisson_resolution_scale_balls_on_high_spheres():
    # regression: rescaled jumps on spheres above the fundamental ones
    # must carry uniform digits all the way down to the resolution scale
    m = make_example_measure(1, 1, 2)
    s = CompoundPoissonSampler(measure=m, resolution=-1)
    rng = substream(5150, 0)
    n = 20000
    draws = s.sample(rng, n)
    g = StableLaw(StableParams(1.0, 1.0, 2))
    for center in (Fraction(1, 4), Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)):
        ball = Ball(2, center, -1)  # radius = resolution, inside |x| = 4
        q = ball_probability(g, ball).value
        freq = sum(1 for x in draws if ball.contains(x)) / n
        assert abs(freq - q) <= 4 * math.sqrt(q * (1 - q) / n)


def test_compound_poisson_empirical_cf_agreement():
    # the sampled law must reproduce the measure's transform at every t
    # the resolution supports
    m = make_example_measure(1, 1, 2)
    s = CompoundPoissonSampler(measure=m, resolution=-4)
    n = 3000
    draws = s.sample(substream(31, 0), n)
    band = 4.0 / math.sqrt(n)
    jump = JumpMeasure(m)
    for k in range(-3, 5):
        t = PAdicNumber.from_rational(Fraction(2) ** (-k), p=2)
        assert abs(empirical_cf(draws, t) - jump(t)) <= band


def test_compound_poisson_nonradial_measure_cf_agreement():
    # arbitrary (non-radial, two fundamental spheres, rotated) measure:
    # the sampled law still matches the exact transform on the grid
    from fractions import Fraction as F

    from padicprob.padic import grid_points
    from padicprob.sets import split_sphere

    p = 2
    s0 = split_sphere(0, 2, p)
    s1 = split_sphere(1, 1, p)
    m = make_measure(
        p,
        F(1, 3),
        F(12),  # gamma0 = 3 * 2**2: unit rotation exercised
        (((s0[0], F(1, 2)),), ((s1[0], F(3, 4)),)),
    )
    assert not m.is_radial()
    cp = CompoundPoissonSampler(measure=m, resolution=-3)
    n = 2500
    draws = cp.sample(substream(778, 2), n)
    band = 4.0 / math.sqrt(n)
    jump = JumpMeasure(m)
    for t in grid_points(p, -2, 3, unit_digit_sets=((1,), (1, 1)), precision=160):
        assert abs(empirical_cf(draws, t) - jump(t)) <= band


def test_empirical_cf_point_mass_exact():
    xi = PAdicNumber.from_rational(1, 3, p=3)
    samples = [xi] * 17
    t = PAdicNumber.from_rational(1, p=3)
    got = empirical_cf(samples, t)
    want = chi(3, *(t * xi).character_phase())
    assert got == want


def test_empirical_cf_zero_t():
    samples = [PAdicNumber.from_rational(k + 1, p=2) for k in range(5)]
    assert empirical_cf(samples, PAdicNumber.zero(2)) == 1.0


def test_empirical_cf_haar_local_constancy():
    s = HaarBallSampler(ball=Ball(3, 0, 0), resolution=-8)
    rng = substream(7, 0)
    samples = s.sample(rng, 200)
    t = PAdicNumber.from_rational(1, p=3)  # |t| = 1: every character value is exactly 1
    assert empirical_cf(samples, t) == 1.0


def test_empirical_cf_resolution_guard():
    s = HaarBallSampler(ball=Ball(2, 0, 0), resolution=-2)
    rng = substream(8, 0)
    samples = s.sample(rng, 5)
    t = PAdicNumber.from_rational(1, 16, p=2)  # |t| = 16 exceeds the resolution
    with pytest.raises(PrecisionError):
        empirical_cf(samples, t)


def test_empirical_cf_symmetric_imaginary_part_shrinks():
    params = StableParams(1.0, 1.0, 2)
    s = radial_stable_sampler(params, resolution=-8, n_lo=-40, n_hi=40)
    t = PAdicNumber.from_rational(1, 4, p=2)
    sizes = (200, 3200)
    ims = []
    for i, n in enumerate(sizes):
        draws = s.sample(substream(9, i), n)
        ims.append(abs(empirical_cf(draws, t).imag))
    assert ims[1] <= max(ims[0], 0.02) * 1.5  # O(1/sqrt(n)) shrinkage, loose


def test_poisson_inversion_moments():
    rng = substream(10, 0)
    mean = 3.5
    n = 20000
    draws = [poisson_draw(rng, mean) for _ in range(n)]
    avg = sum(draws) / n
    var = sum((d - avg) ** 2 for d in draws) / n
    assert abs(avg - mean) <= 4 * math.sqrt(mean / n)
    assert abs(var - mean) <= 0.2
    assert poisson_draw(rng, 0.0) == 0


def test_poisson_rejection_moments():
    rng = substream(11, 0)
    mean = 80.0
    n = 8000
    draws = [poisson_draw(rng, mean) for _ in range(n)]
    avg = sum(draws) / n
    assert abs(avg - mean) <= 4 * math.sqrt(mean / n)


def test_substream_independence_and_reproducibility():
    a1 = substream(42, 1).random(4).tolist()
    a2 = substream(42, 1).random(4).tolist()
    b = substream(42, 2).random(4).tolist()
    assert a1 == a2
    assert a1 != b


def test_radial_sampler_rejects_shallow_table():
    g = StableLaw(StableParams(1.0, 1.0, 2))
    table = sphere_masses(g, -2, 10)
    with pytest.raises(ValueError):
        RadialSampler(table=table, resolution=-8)


# ---------------------------------------------------------------------
# The Transform protocol
# ---------------------------------------------------------------------

_STABLE_3 = StableParams(2.0, 1.5, 3)
_LAW_SPECS = {
    "point_mass": {"kind": "point_mass", "xi": "1/3 @ p=3"},
    "haar_ball": {"kind": "haar_ball", "p": 3, "center": "1/3", "radius_exp": -2},
    "radial_stable": {"kind": "radial_stable", "a": 2, "alpha": 1.5, "p": 3,
                      "resolution": -4},
    "compound_poisson": {"kind": "compound_poisson", "resolution": -2,
                         "measure": {"stable": {"a": 1, "alpha": 1, "p": 3}}},
}


def _law_source(kind):
    return law_from_spec(_LAW_SPECS[kind]).transform


# every kind of transform over p = 3, and the spec laws' sources
TRANSFORMS = {
    "point_mass": lambda: PointMass(PAdicNumber.from_rational(1, 3, p=3)),
    "point_mass_zero": lambda: PointMass(PAdicNumber.zero(3)),
    "haar_ball": lambda: HaarUniform(Ball(3, Fraction(1, 3), -2)),
    "haar_ball_zero": lambda: HaarUniform(Ball(3, 0, 0)),
    "stable": lambda: StableLaw(_STABLE_3),
    "jump_measure": lambda: JumpMeasure(make_example_measure(1, 1, 3)),
    "jump_measure_closed_form": lambda: JumpMeasure(
        make_example_measure(2.0, 1.5, 3), StableLaw(_STABLE_3)
    ),
    **{f"spec_{kind}": functools.partial(_law_source, kind) for kind in _LAW_SPECS},
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transform_checks_its_prime_and_pickles(name):
    g = TRANSFORMS[name]()
    foreign = PAdicNumber.from_rational(1, 5, p=5)
    with pytest.raises(PrimeMismatchError):
        g(foreign)
    with pytest.raises(PrimeMismatchError):
        g.sphere(5, foreign.valuation, (foreign.unit,), foreign.precision, 3)
    h = pickle.loads(pickle.dumps(g))
    assert g(PAdicNumber.zero(3)) == h(PAdicNumber.zero(3)) == 1
    for t in grid_points(3, -3, 3):
        assert h(t) == g(t)
        point = (3, t.valuation, (t.unit,), t.precision, 4)
        assert h.sphere(*point) == g.sphere(*point)


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_radial_value_is_the_value_on_the_sphere(name):
    g = TRANSFORMS[name]()
    if not g.is_radial:
        with pytest.raises(ValueError):
            g.radial_value(0)
        return
    for k in range(-4, 5):
        t = PAdicNumber(3, -k, 2, 48)  # |t| = 3**k
        assert g(t).imag == 0.0
        assert abs(g.radial_value(k) - g(t).real) <= 1e-15


@pytest.mark.parametrize(
    "p, center, radius",
    [(2, 0, 0), (2, Fraction(1, 2), -2), (3, 0, 0), (3, Fraction(1, 3), -2),
     (3, 0, -1), (5, Fraction(7, 25), -3)],
)
def test_haar_transform_is_the_normalised_character_integral(p, center, radius):
    ball = Ball(p, center, radius)
    g = HaarUniform(ball)
    for t in grid_points(p, -4, 4):
        want = integrate_char_exact(ball, t).scale(1 / ball.measure).to_complex()
        assert abs(g(t) - want) <= 1e-15


def test_ball_probability_rejects_a_foreign_prime():
    for g in (StableLaw(StableParams(1.0, 1.0, 2)), HaarUniform(Ball(2, 0, 0))):
        with pytest.raises(PrimeMismatchError):
            ball_probability(g, Ball(3, 0, 0))


def test_ball_probability_closed_forms_and_the_series_domain():
    # a Haar ball away from 0 is not radial, but its ball probabilities
    # are exact; a measure that is not radial has no sphere series
    g = HaarUniform(Ball(3, Fraction(1, 3), -2))
    assert ball_probability(g, Ball(3, Fraction(1, 3), -3)).exact == Fraction(1, 3)
    assert ball_probability(g, Ball(3, 0, 1)).exact == 1
    assert ball_probability(g, Ball(3, 0, 0)).exact == 0
    xi = PAdicNumber.from_rational(1, 3, p=3)
    assert ball_probability(PointMass(xi), Ball(3, Fraction(1, 3), -2)).exact == 1
    custom = make_measure(
        3, Fraction(1, 4), 9,
        (((Ball(3, 1, -1), Fraction(2, 3)),), ((Ball(3, Fraction(1, 3), 0), Fraction(1, 5)),)),
    )
    with pytest.raises(ValueError):
        ball_probability(JumpMeasure(custom), Ball(3, 0, 0))
