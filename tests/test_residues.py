"""The residue kernel against the exact per-pair loops it replaced.

The reference functions below are the former implementations, kept here
as the oracle: radial and compound-Poisson draws in exact Fractions, sums
of PAdicNumber draws, the phase of every (sum, grid point) pair and
rational ball membership on every (ball, sum) pair.  Draws and counts
must agree exactly, and so must the exception (type and message)
wherever the exact path raises.
"""

import bisect
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicprob.charfn import (
    CompoundPoissonSampler,
    HaarBallSampler,
    PointMassSampler,
    RadialSampler,
    StableParams,
    _rational_at_resolution,
    _uniform_digits_int,
    ball_counts,
    empirical_phase_counts,
    poisson_draw,
    stable_sampler,
    substream,
)
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import make_example_measure, make_measure
from padicprob.limits import (
    LimitScheme,
    _mc_block,
    default_ball_family,
    simulate_sums,
    sum_residues,
)
from padicprob.padic import PAdicNumber, grid_points
from padicprob.residues import ResidueBatch
from padicprob.sets import Ball, split_sphere

# ---------------------------------------------------------------------
# Reference: the exact PAdicNumber loops
# ---------------------------------------------------------------------


def reference_radial_draw(sampler: RadialSampler, rng) -> PAdicNumber:
    """RadialSampler.draw as it was before residues: exact Fractions."""
    p = sampler.table.prime
    edges, labels = sampler._edges, sampler._labels
    u = rng.random() * edges[-1]
    idx = min(bisect.bisect_left(edges, u), len(labels) - 1)
    n = labels[idx]
    if n is None or n <= sampler.resolution:
        return PAdicNumber.zero(p, -sampler.resolution)
    count = n - sampler.resolution
    first = int(rng.integers(1, p))
    rest = _uniform_digits_int(rng, p, count - 1)
    value = Fraction(first + p * rest) * Fraction(p) ** (-n)
    return _rational_at_resolution(value, p, sampler.resolution)


def reference_cp_draw(sampler: CompoundPoissonSampler, rng) -> PAdicNumber:
    """CompoundPoissonSampler.draw as it was before residues: each jump
    an exact Fraction, the sum reduced at the resolution."""
    meas = sampler.measure
    p, j, res = meas.prime, meas.j, sampler.resolution
    lam, cums = sampler._lam, sampler._cums
    jumps = poisson_draw(rng, lam)
    if jumps == 0:
        return PAdicNumber.zero(p, -res)
    total = Fraction(0)
    for _ in range(jumps):
        n = res + 1 + min(bisect.bisect_left(cums, rng.random() * lam), len(cums) - 1)
        r = n % j
        k = (n - r) // j
        entries = meas.fundamental[r]
        cw, tot = [], 0.0
        for _, w in entries:
            tot += float(w)
            cw.append(tot)
        u2 = rng.random() * cw[-1]
        chosen = entries[min(bisect.bisect_left(cw, u2), len(entries) - 1)][0]
        u = _uniform_digits_int(rng, p, chosen.radius_exp + k * j - res)
        z = chosen.center + Fraction(u) * Fraction(p) ** (-chosen.radius_exp)
        total += z * Fraction(meas.gamma0) ** (-k)
    return _rational_at_resolution(total, p, res)


def reference_draw(sampler, rng) -> PAdicNumber:
    if isinstance(sampler, RadialSampler):
        return reference_radial_draw(sampler, rng)
    if isinstance(sampler, CompoundPoissonSampler):
        return reference_cp_draw(sampler, rng)
    return sampler.draw(rng)


def reference_sums(sampler, scheme, n, replicates, rng) -> list[PAdicNumber]:
    k = scheme.k(n)
    inv_b = 1 / scheme.B(n)
    out = []
    for _ in range(replicates):
        draws = [reference_draw(sampler, rng) for _ in range(k)]
        total = draws[0]
        for d in draws[1:]:
            total = total + d
        out.append(total.mul_rational(inv_b))
    return out


def reference_mc_block(args):
    (sampler, scheme, n, seed, n_idx, block, count, grid, balls) = args
    rng = substream(seed, n_idx, block)
    draws = reference_sums(sampler, scheme, n, count, rng)
    phase_counts = [Counter() for _ in grid]
    for x in draws:
        for i, t in enumerate(grid):
            phase_counts[i][(t * x).character_phase()] += 1
    ball_hits = [sum(1 for x in draws if reference_contains(b, x)) for b in balls]
    return block, phase_counts, ball_hits, len(draws)


def reference_phase_counts(samples, t) -> Counter:
    counts = Counter()
    for x in samples:
        try:
            counts[(t * x).character_phase()] += 1
        except PrecisionError as exc:
            raise PrecisionError(
                f"sample with |x| = {x.abs_value()} needs more digits of "
                f"t (|t| = {t.abs_value()}, {t.precision} known); widen "
                "the evaluation point's precision or coarsen |t|"
            ) from exc
    return counts


def reference_contains(ball: Ball, x: PAdicNumber) -> bool:
    """Ball.contains on a PAdicNumber as it was: through the rational
    value of the digit window."""
    if x.prime != ball.prime:
        raise PrimeMismatchError("point over a different prime")
    if x.known_mod_exp < -ball.radius_exp:
        raise PrecisionError(
            "point known modulo p**%s, membership needs p**%d"
            % (x.known_mod_exp, -ball.radius_exp)
        )
    return ball.contains_rational(x.as_rational())


def reference_ball_counts(samples, balls) -> list[int]:
    return [sum(1 for x in samples if reference_contains(b, x)) for b in balls]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (PrecisionError, PrimeMismatchError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def radial(p: int, resolution: int, n_hi: int) -> RadialSampler:
    return stable_sampler(
        StableParams(1.0, 1.0, p), resolution=resolution, n_lo=-20, n_hi=n_hi
    )


@lru_cache(maxsize=None)
def compound_poisson(p: int) -> CompoundPoissonSampler:
    return CompoundPoissonSampler(measure=make_example_measure(1, 1, p), resolution=-2)


def point_mass(p: int, kind: str, width: int) -> PointMassSampler:
    if kind == "exact_zero":
        return PointMassSampler(xi=PAdicNumber.zero(p))
    if kind == "certified_zero":
        return PointMassSampler(xi=PAdicNumber.zero(p, width - 2))
    # a short window: sums of p**width copies are certified zeros
    return PointMassSampler(xi=PAdicNumber.from_digits(p, -1, [1] * width))


samplers = st.one_of(
    st.builds(
        radial,
        st.just(2),
        st.integers(-6, -1),
        st.sampled_from([4, 12, 70]),  # 70 - resolution > 64 bits
    ),
    st.builds(radial, st.just(3), st.sampled_from([-12, -3]), st.sampled_from([5, 40])),
    st.builds(radial, st.just(5), st.integers(-4, -1), st.sampled_from([3, 30])),
    st.builds(
        lambda p, center, r, res: HaarBallSampler(Ball(p, center, r), res),
        st.sampled_from([2, 3, 5]),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(7, 3)]),
        st.integers(-3, 1),
        st.integers(-5, -3),
    ),
    st.builds(
        point_mass,
        st.sampled_from([2, 3, 5]),
        st.sampled_from(["exact_zero", "certified_zero", "short"]),
        st.integers(1, 3),
    ),
    st.builds(compound_poisson, st.sampled_from([2, 3, 5])),
)


@st.composite
def schemes(draw, p: int):
    """gamma0 = p**j * a/b with a, b coprime to p; or explicit B_n of
    either sign of valuation."""
    units = [u for u in (1, 2, 3, 4, 7, 11) if u % p]
    a, b = draw(st.sampled_from(units)), draw(st.sampled_from(units))
    if draw(st.booleans()):
        j = draw(st.integers(1, 2))
        beta = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]))
        return LimitScheme.geometric(p, beta, Fraction(p**j * a, b), n_max=3)
    vs = draw(st.lists(st.integers(-2, 3), min_size=4, max_size=4))
    ks = sorted(draw(st.lists(st.integers(1, 5), min_size=4, max_size=4)))
    return LimitScheme.explicit(
        p, [Fraction(a, b) * Fraction(p) ** v for v in vs], ks
    )


@st.composite
def mc_blocks(draw):
    sampler = draw(samplers)
    p = sampler.prime
    scheme = draw(schemes(p))
    k_lo = draw(st.integers(-6, 2))
    k_hi = draw(st.integers(k_lo, 10))
    precision = draw(st.sampled_from([2, 5, 48]))  # short t windows fail
    grid = grid_points(p, k_lo, k_hi, precision=precision)
    balls = default_ball_family(p, 6)
    extra = draw(st.sampled_from(
        ["none", "fine_ball", "other_prime_t", "other_prime_ball"]
    ))
    q = 3 if p == 2 else 2
    if extra == "fine_ball":
        balls.append(Ball(p, Fraction(1, p), -40))  # below every window
    elif extra == "other_prime_t":
        grid.insert(draw(st.integers(0, len(grid))), PAdicNumber.from_rational(1, p=q))
    elif extra == "other_prime_ball":
        balls.insert(1, Ball(q, 0, 0))
    n = draw(st.integers(0, 3))
    count = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 2**32))
    return (sampler, scheme, n, seed, n, draw(st.integers(0, 15)), count,
            tuple(grid), tuple(balls))


# ---------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mc_blocks())
def test_mc_block_matches_exact_loop(args):
    assert outcome(_mc_block, args) == outcome(reference_mc_block, args)


@settings(max_examples=200, deadline=None)
@given(mc_blocks())
def test_simulate_sums_matches_exact_sums(args):
    sampler, scheme, n, seed, *_ = args
    got = simulate_sums(sampler, scheme, n, 5, substream(seed, 0))
    assert got == reference_sums(sampler, scheme, n, 5, substream(seed, 0))


padic_values = st.one_of(
    st.builds(PAdicNumber.zero, st.just(3)),
    st.builds(PAdicNumber.zero, st.just(3), st.integers(-4, 6)),
    st.builds(
        PAdicNumber.from_digits,
        st.just(3),
        st.integers(-6, 4),
        st.lists(st.integers(0, 2), min_size=1, max_size=8).map(lambda d: [1] + d),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(padic_values, max_size=12),
    st.one_of(
        padic_values,
        st.just(PAdicNumber.from_rational(1, 2, p=2)),
        st.builds(
            lambda v, k: PAdicNumber.from_rational(Fraction(3) ** v, p=3, precision=k),
            st.integers(-8, 4),
            st.integers(1, 6),
        ),
    ),
    st.booleans(),
)
def test_empirical_phase_counts_matches_exact_loop(samples, t, other_prime):
    # mixed windows, exact and certified zeros, and optionally a sample
    # over another prime
    if other_prime and samples:
        samples.insert(len(samples) // 2, PAdicNumber.from_rational(1, p=2))
    assert outcome(empirical_phase_counts, samples, t) == outcome(
        reference_phase_counts, samples, t
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(padic_values, max_size=12),
    st.lists(
        st.builds(Ball, st.sampled_from([3, 3, 3, 2]),
                  st.sampled_from([0, 1, Fraction(1, 3), Fraction(5, 9), 2]),
                  st.integers(-6, 5)),
        max_size=4,
    ),
)
def test_ball_counts_matches_exact_loop(samples, balls):
    assert outcome(ball_counts, samples, balls) == outcome(
        reference_ball_counts, samples, balls
    )


# ---------------------------------------------------------------------
# The cases the properties must reach, pinned
# ---------------------------------------------------------------------


def _geometric(p):
    units = [u for u in (2, 3, 5, 7) if u % p]
    gamma0 = Fraction(p * units[0], units[1])
    return LimitScheme.geometric(p, Fraction(1, 2), gamma0, n_max=3)


@pytest.mark.parametrize(
    "sampler, width_bits",
    [(radial(3, -12, 40), 82), (radial(2, -4, 70), 74), (radial(5, -2, 30), 74)],
)
def test_wide_windows_use_python_ints(sampler, width_bits):
    scheme = _geometric(sampler.prime)
    sums = sum_residues(sampler, scheme, 2, 8, substream(5, 0))
    assert sums.values.dtype == object
    assert (sums.prime ** sums.width).bit_length() >= width_bits
    grid = tuple(grid_points(sampler.prime, -6, 4))  # |t| <= p**4: inside every window
    balls = tuple(default_ball_family(sampler.prime, 6))
    args = (sampler, scheme, 2, 5, 0, 3, 8, grid, balls)
    assert outcome(_mc_block, args) == outcome(reference_mc_block, args)
    assert outcome(_mc_block, args)[0] == "ok"


def test_narrow_windows_use_uint64():
    sampler = radial(2, -8, 40)
    sums = sum_residues(sampler, _geometric(2), 1, 4, substream(1, 0))
    assert sums.values.dtype == np.uint64


def test_certified_zero_sums():
    # 3 copies of a one-digit ternary value sum to a certified zero
    sampler = PointMassSampler(xi=PAdicNumber.from_digits(3, -1, [1]))
    scheme = LimitScheme.explicit(3, [1, Fraction(1, 3)], [3, 3])
    sums = sum_residues(sampler, scheme, 1, 4, substream(0, 0))
    assert all(x.is_zero and x.precision == 1 for x in sums.elements())
    grid = tuple(grid_points(3, -2, 2))
    for t_hi in (1, 2):  # |t| = 3 is fine, |t| = 9 needs an unknown digit
        args = (sampler, scheme, 1, 0, 0, 0, 4, grid[: 4 * (t_hi + 3)], ())
        assert outcome(_mc_block, args) == outcome(reference_mc_block, args)
    assert outcome(_mc_block, args)[0] == "PrecisionError"


@pytest.mark.parametrize("case", ["short_t", "large_t", "fine_ball", "other_prime"])
def test_failures_raise_what_the_exact_path_raises(case):
    sampler = radial(2, -6, 12)
    scheme = _geometric(2)
    grid = grid_points(2, -4, 4)
    balls = default_ball_family(2, 6)
    if case == "short_t":
        grid = grid_points(2, -4, 4, precision=3)
    elif case == "large_t":
        grid = grid_points(2, -4, 9)
    elif case == "fine_ball":
        balls.append(Ball(2, Fraction(1, 2), -12))
    else:
        grid.append(PAdicNumber.from_rational(1, p=3))
    args = (sampler, scheme, 2, 3, 0, 0, 12, tuple(grid), tuple(balls))
    got = outcome(_mc_block, args)
    assert got[0] in ("PrecisionError", "PrimeMismatchError")
    assert got == outcome(reference_mc_block, args)


def test_radial_draw_is_a_decode_of_the_same_stream():
    for sampler in (radial(2, -8, 40), radial(3, -12, 40), radial(5, -2, 30)):
        a, b = substream(11, 1), substream(11, 1)
        assert [sampler.draw(a) for _ in range(300)] == [
            reference_radial_draw(sampler, b) for _ in range(300)
        ]
        assert a.random() == b.random()  # the same RNG calls were made


@st.composite
def cp_samplers(draw):
    """Compound-Poisson samplers over self-similar measures with
    gamma0 = p**j * a/b (a, b != 1, a of either sign), some fundamental
    spheres possibly empty, at resolutions -1 to -6."""
    p = draw(st.sampled_from([2, 3, 5]))
    j = draw(st.integers(1, 2))
    a = draw(st.sampled_from([u for u in (1, -1, 2, -2, 7, -11) if u % p]))
    b = draw(st.sampled_from([u for u in (1, 3, 4, 7) if u % p]))
    fundamental = []
    for r in range(j):
        pool = split_sphere(r, draw(st.integers(1, 2)), p)
        picks = draw(st.lists(st.sampled_from(range(len(pool))), unique=True, max_size=3))
        fundamental.append(tuple(
            (pool[i], Fraction(draw(st.integers(1, 4)), 8)) for i in picks
        ))
    beta = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), 0.6]))
    measure = make_measure(p, beta, Fraction(p**j * a, b), tuple(fundamental))
    return CompoundPoissonSampler(measure=measure, resolution=draw(st.integers(-6, -1)))


@settings(max_examples=200, deadline=None)
@given(cp_samplers(), st.integers(0, 2**32), st.integers(1, 12))
def test_cp_draws_match_fraction_jumps(sampler, seed, count):
    a, b = substream(seed, 2), substream(seed, 2)
    assert sampler.sample(a, count) == [reference_cp_draw(sampler, b) for _ in range(count)]
    assert a.random() == b.random()  # the same RNG calls were made


def test_cp_draws_reach_zero_jump_and_certified_zero_draws():
    # p = 2 at resolution -1, rate about 1: draws with no jump, and draws
    # whose jumps cancel above the resolution scale
    m = make_measure(2, Fraction(1, 2), 2, (((Ball(2, 1, -1), Fraction(1, 8)),),))
    sampler = CompoundPoissonSampler(measure=m, resolution=-1)
    a, b = substream(3, 0), substream(3, 0)
    kinds = Counter()
    for _ in range(400):
        state = a.bit_generator.state
        jumps = poisson_draw(a, sampler._lam)
        a.bit_generator.state = state
        x = sampler.draw(a)
        assert x == reference_cp_draw(sampler, b)
        kinds[(jumps > 0, x.is_zero)] += 1
    assert kinds[(False, True)] and kinds[(True, True)] and kinds[(True, False)]
    assert all(x.precision == 1 for x in sampler.sample(a, 50) if x.is_zero)


class ScriptedRng:
    """Stands in for a Generator: random() replays a script, integers()
    returns ones."""

    def __init__(self, script):
        self.script = list(script)

    def random(self):
        return self.script.pop(0)

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3])
def test_cp_jump_on_the_top_sphere(p):
    # the top sphere of the table carries about 1e-14 of the jump rate,
    # so random draws never reach it; a scripted stream puts one jump there
    sampler = CompoundPoissonSampler(measure=make_example_measure(1, 1, p), resolution=-3)
    cums, lam = sampler._cums, sampler._lam
    u = (cums[-2] + cums[-1]) / 2 / lam
    assert bisect.bisect_left(cums, u * lam) == len(cums) - 1
    script = [0.5, 1e-9, u, 0.5]  # Poisson: one jump; top sphere; a ball
    got = sampler.draw(ScriptedRng(script))
    assert got == reference_cp_draw(sampler, ScriptedRng(script))
    assert -got.valuation == sampler._top


def test_cp_residue_sums_match_summed_draws():
    sampler = compound_poisson(3)
    sums = sampler.residue_sums(substream(8, 1), 5, 6)
    rng = substream(8, 1)
    expected = []
    for _ in range(6):
        total = reference_cp_draw(sampler, rng)
        for _ in range(4):
            total = total + reference_cp_draw(sampler, rng)
        expected.append(total)
    assert sums.elements() == expected



@pytest.mark.parametrize("p", (2, 3))
def test_ball_counts_on_a_residue_batch(p):
    # criterion c7 counts its compound-Poisson draws as residues: the
    # counts and, for a ball finer than the draws' window, the exception
    # must be those of the decoded draws
    sampler = compound_poisson(p)
    batch = sampler.residue_sums(substream(3, p), 1, 400)
    draws = sampler.sample(substream(3, p), 400)
    balls = list(default_ball_family(p, 12))
    assert outcome(ball_counts, batch, balls) == outcome(
        reference_ball_counts, draws, balls
    )
    fine = balls[:2] + [Ball(p, 1, sampler.resolution - 1)]
    got = outcome(ball_counts, batch, fine)
    assert got[0] == "PrecisionError"
    assert got == outcome(ball_counts, draws, fine)
    assert outcome(ball_counts, ResidueBatch(p, 0, 2, []), balls) == ("ok", [0] * 12)


ball_args = st.builds(
    Ball,
    st.just(3),
    st.sampled_from([0, 1, 2, 7, -5, 9, 18, Fraction(1, 3), Fraction(5, 9), Fraction(-4, 27)]),
    st.integers(-6, 3),
)
points = st.one_of(
    padic_values,
    st.builds(PAdicNumber.zero, st.sampled_from([2, 5])),
    st.builds(PAdicNumber.from_rational, st.sampled_from([1, Fraction(1, 4)]), p=st.just(2)),
)


@settings(max_examples=500, deadline=None)
@given(ball_args, points, st.integers(-30, 30), st.integers(-8, 2), st.integers(1, 10))
def test_ball_contains_matches_rational_membership(ball, x, shift, scale, precision):
    # besides x, a point near the center, which often lies inside
    near = PAdicNumber.from_rational(
        ball.center + shift * Fraction(3) ** scale, p=3, precision=precision
    )
    for point in (x, near):
        assert outcome(ball.contains, point) == outcome(reference_contains, ball, point)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ball_contains_pinned_cases(p):
    cases = [
        (Ball(p, 0, -2), PAdicNumber.zero(p), True),
        (Ball(p, 0, -2), PAdicNumber.zero(p, 2), True),  # certified zero
        (Ball(p, 0, -2), PAdicNumber.zero(p, 1), "PrecisionError"),
        (Ball(p, 1, -2), PAdicNumber.zero(p, 5), False),
        (Ball(p, 1 + p * p, -2), PAdicNumber.from_rational(1, p=p), True),
        (Ball(p, 1 + p * p, -3), PAdicNumber.from_rational(1 + p**4, p=p), False),
        (Ball(p, 1 + p * p, -3), PAdicNumber.from_rational(1 + p**2 + p**4, p=p), True),
        (Ball(p, p, -3), PAdicNumber.from_rational(p + p**3, p=p, precision=2), True),
        (Ball(p, p, -3), PAdicNumber.from_rational(p + p**2, p=p, precision=2), False),
        (Ball(p, p, -3), PAdicNumber.from_rational(p, p=p, precision=1), "PrecisionError"),
        (Ball(p, 1, 0), PAdicNumber.from_rational(1, p=7 if p == 5 else 5), "PrimeMismatchError"),
    ]
    for ball, x, expected in cases:
        got = outcome(ball.contains, x)
        assert got == outcome(reference_contains, ball, x)
        assert (got[1] if got[0] == "ok" else got[0]) == expected


def test_from_padics_round_trip():
    xs = [PAdicNumber.from_rational(Fraction(5, 9), p=3, precision=6),
          PAdicNumber.zero(3, 4), PAdicNumber.from_rational(7, p=3, precision=8)]
    batch = ResidueBatch.from_padics(3, xs)
    assert batch.window == 4
    # every value cut to the shortest window (p**4) and nothing else lost
    assert [x._truncated_to(4) for x in xs] == batch.elements()


@pytest.mark.parametrize(
    "sampler",
    [HaarBallSampler(Ball(3, 0, 0), -3), PointMassSampler(xi=PAdicNumber.zero(5))],
)
def test_empty_and_exact_zero_batches_count_far_balls(sampler):
    # no value can be tested against a ball finer than the uint64 range
    # of these batches; an empty or exactly-zero batch must not try
    p = sampler.prime
    scheme = LimitScheme.explicit(p, [1], [2])
    balls = (Ball(p, 0, -60), Ball(p, 1, -60), Ball(p, 0, 3))
    for count in (0, 3):
        args = (sampler, scheme, 0, 1, 0, 0, count, tuple(grid_points(p, -2, 2)), balls)
        assert outcome(_mc_block, args) == outcome(reference_mc_block, args)
