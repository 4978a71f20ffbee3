"""The residue kernel against exact per-value references.

The reference functions below keep the draws, sums, phases and ball
membership in exact Fractions and PAdicNumbers: the radial, Haar-ball and
point-mass draws by a scalar formula over the block stream (RNG stream
v2), the compound-Poisson draws jump by jump over the same stream, sums of
PAdicNumber draws, the phase of every (sum, grid point) pair and rational
ball membership on every (ball, sum) pair.  Draws and counts must agree
exactly, and so must the exception (type and message) wherever the exact
path raises.
"""

import bisect
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import per_block
from padicprob.charfn import SphereMassTable
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import make_example_measure, make_measure
from padicprob.limits import (
    LimitScheme,
    _mc_draw,
    _summands,
    default_ball_family,
    simulate_sums,
    sum_residues,
)
from padicprob.padic import (
    PAdicNumber, grid_points, int_valuation, rational_valuation, reduced_phase,
)
from padicprob.residues import ResidueBatch, _reduced_phases, tally, tally_blocks
from padicprob.samplers import (
    CP_CHUNK,
    CompoundPoissonSampler,
    HaarBallSampler,
    PointMassSampler,
    RadialSampler,
    substream,
)
from padicprob.sets import Ball, split_sphere
from padicprob.specs import law_from_spec

# ---------------------------------------------------------------------
# Reference: the exact PAdicNumber loops
# ---------------------------------------------------------------------


def rational_at_resolution(value: Fraction, p: int, resolution: int) -> PAdicNumber:
    """An exact rational draw reduced to the sampler's resolution window."""
    if value == 0:
        return PAdicNumber.zero(p, -resolution)
    v = rational_valuation(value, p)
    if v >= -resolution:
        return PAdicNumber.zero(p, -resolution)
    return PAdicNumber.from_rational(value, p=p, precision=-resolution - v)


def limb_digits(p: int) -> int:
    """The most base-p digits below 2**63."""
    a = 0
    while p ** (a + 1) < 2**63:
        a += 1
    return a


def reference_uniform(rng, p: int, digits: list[int]) -> list[int]:
    """Stream v2's digits: per entry c a uniform integer on [0, p**c),
    drawn up to limb_digits(p) digits per call, least significant limb
    first."""
    a = limb_digits(p)
    out = [0] * len(digits)
    shift = 0
    while shift == 0 or shift < max(digits, default=0):
        highs = np.array([p ** min(max(c - shift, 0), a) for c in digits], dtype=np.int64)
        limb = rng.integers(0, highs).tolist()
        out = [u + x * p**shift for u, x in zip(out, limb)]
        shift += a
    return out


def reference_radial_draws(sampler: RadialSampler, rng, count: int) -> list[PAdicNumber]:
    """A block of radial draws, one exact Fraction each: the bin by a
    right-closed lookup, then (first + p * rest) / p**n."""
    p, res = sampler.table.prime, sampler.resolution
    edges, labels = [float(e) for e in sampler._edges], sampler._labels
    us = rng.random(count).tolist()
    firsts = rng.integers(1, p, count).tolist()
    spheres = [labels[min(bisect.bisect_right(edges, u * edges[-1]), len(labels) - 1)]
               for u in us]
    live = [n is not None and n > res for n in spheres]
    rests = reference_uniform(rng, p, [n - res - 1 if ok else 0 for n, ok in zip(spheres, live)])
    return [
        rational_at_resolution(Fraction(f + p * r) * Fraction(p) ** -n, p, res)
        if ok else PAdicNumber.zero(p, -res)
        for f, r, n, ok in zip(firsts, rests, spheres, live)
    ]


def reference_haar_draws(sampler: HaarBallSampler, rng, count: int) -> list[PAdicNumber]:
    """A block of Haar draws: center + U / p**radius_exp, one exact
    Fraction each."""
    ball, res = sampler.ball, sampler.resolution
    p, n = ball.prime, ball.radius_exp
    us = reference_uniform(rng, p, [max(n - res, 0)] * count)
    return [rational_at_resolution(ball.center + Fraction(u) * Fraction(p) ** -n, p, res)
            for u in us]


def reference_cp_draws(sampler: CompoundPoissonSampler, rng, count: int) -> list[PAdicNumber]:
    """A block of compound-Poisson draws, one exact Fraction sum of jumps
    each, CP_CHUNK draws at a time: the jump counts, every jump's ball by a
    right-closed lookup on the masses w * beta**k_min(r) (k_min(r) the
    least period with r + k*j above the resolution, relative to that of
    r = 0), its period k_min(r) + offset, and its point of the ball."""
    meas = sampler.measure
    p, j, res = meas.prime, meas.j, sampler.resolution

    def k_min(r):
        k = 0
        while r + (k - 1) * j > res:
            k -= 1
        while r + k * j <= res:
            k += 1
        return k

    table = [(r, k_min(r), ball, w) for r, entries in enumerate(meas.fundamental)
             for ball, w in entries if w > 0]
    edges, acc = [], 0.0
    for r, k, _, w in table:
        acc += float(w * meas.beta_pow(k - k_min(0)))
        edges.append(acc)
    lam, q = float(meas.tail_mass(res)), float(1 - meas.beta)
    out = []
    for start in range(0, count, CP_CHUNK):
        jumps = rng.poisson(lam, min(CP_CHUNK, count - start)).tolist()
        if not sum(jumps):
            out += [PAdicNumber.zero(p, -res)] * len(jumps)
            continue
        picks = [table[min(bisect.bisect_right(edges, u * edges[-1]), len(table) - 1)]
                 for u in rng.random(sum(jumps)).tolist()]
        periods = [k + g - 1 for (_, k, _, _), g in
                   zip(picks, rng.geometric(q, len(picks)).tolist())]
        points = reference_uniform(rng, p, [
            max(ball.radius_exp + k * j - res, 0) for (_, _, ball, _), k in zip(picks, periods)
        ])
        ys = [
            (ball.center + Fraction(u) * Fraction(p) ** -ball.radius_exp) * meas.gamma0 ** -k
            for (_, _, ball, _), k, u in zip(picks, periods, points)
        ]
        for c in jumps:
            out.append(rational_at_resolution(sum(ys[:c], Fraction(0)), p, res))
            del ys[:c]
    return out


def reference_draws(sampler, rng, count: int) -> list[PAdicNumber]:
    if isinstance(sampler, RadialSampler):
        return reference_radial_draws(sampler, rng, count)
    if isinstance(sampler, HaarBallSampler):
        return reference_haar_draws(sampler, rng, count)
    if isinstance(sampler, CompoundPoissonSampler):
        return reference_cp_draws(sampler, rng, count)
    return [sampler.xi] * count


def reference_sums(sampler, scheme, n, replicates, rng) -> list[PAdicNumber]:
    k = scheme.k(n)
    inv_b = 1 / scheme.B(n)
    draws = reference_draws(sampler, rng, k * replicates)
    out = []
    for i in range(replicates):
        total = draws[i * k]
        for d in draws[i * k + 1:(i + 1) * k]:
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


def row_counts(table, n_rows: int) -> list[Counter]:
    """A phase table as one Counter {(scale, numerator): count} per row,
    equal keys added; checks the table's column types on the way."""
    assert [a.dtype for a in (table.row, table.scale, table.count)] == [np.int64] * 3
    assert table.numerator.dtype in (np.uint64, object)
    out = [Counter() for _ in range(n_rows)]
    for i, s, k, c in zip(*(a.tolist() for a in table)):
        out[i][s, k] += c
    return out


def count_blocks(sampler, scheme, n, seed, n_idx, blocks, grid, balls):
    """A report's count of one n over the (block, count) pairs: the job's
    joined row sums (_mc_draw) divided by B_n once and counted once by
    tally_blocks, after the budget check of the whole run."""
    sizes = [count for _, count in blocks]
    sums = _mc_draw(sampler, _summands(scheme, n, sum(sizes)), seed, n_idx, blocks)
    return tally_blocks(sums.scale(1 / scheme.B(n)), sizes, grid, balls)


def mc_block(args):
    """count_blocks on the one block of ``args``, with the block index and
    size read from them."""
    (sampler, scheme, n, seed, n_idx, block, count, grid, balls) = args
    table, ball_hits = count_blocks(
        sampler, scheme, n, seed, n_idx, [(block, count)], grid, balls
    )
    return block, row_counts(table, len(grid)), ball_hits, count


def phase_counts(samples, t) -> Counter:
    """tally's phase counts of one grid point."""
    table, _ = tally(t.prime, samples, [t], [])
    return row_counts(table, 1)[0]


def reference_phase_counts(samples, t) -> Counter:
    counts = Counter()
    for x in samples:
        counts[(t * x).character_phase()] += 1
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


def tally_balls(p, samples, balls) -> list[int]:
    """How many samples lie in each ball, as the Monte Carlo layer counts."""
    return tally(p, samples, [], balls)[1]


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
    return law_from_spec({"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": p,
                          "resolution": resolution, "n_lo": -20, "n_hi": n_hi}).sampler


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
# a grid point and a ball that both fail: the grid point raises first
@example((radial(2, -6, 12), LimitScheme.geometric(2, Fraction(1, 2), Fraction(6, 5), n_max=3),
          2, 3, 0, 0, 12, tuple(grid_points(2, -4, 4, precision=3)),
          (Ball(2, 0, 0), Ball(2, Fraction(1, 2), -12))))
def test_mc_block_matches_exact_loop(args):
    assert outcome(mc_block, args) == outcome(reference_mc_block, args)


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
# a failing query replays the list as given: the exact loop's exception,
# not that of the values from_padics cuts to the shortest window, nor
# from_padics' own refusal of a second prime
@example([PAdicNumber.zero(3), PAdicNumber.from_digits(3, -3, [1, 0])],
         PAdicNumber.zero(3, 0), False)
@example([PAdicNumber.zero(3, -1), PAdicNumber.from_rational(1, p=2), PAdicNumber.zero(3)],
         PAdicNumber.zero(3, 0), False)
def test_empirical_phase_counts_matches_exact_loop(samples, t, other_prime):
    # mixed windows, exact and certified zeros, and optionally a sample
    # over another prime
    if other_prime and samples:
        samples.insert(len(samples) // 2, PAdicNumber.from_rational(1, p=2))
    assert outcome(phase_counts, samples, t) == outcome(
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
@example([PAdicNumber.zero(3, 0), PAdicNumber.zero(3, -1)], [Ball(3, 0, -1)])
@example([PAdicNumber.from_rational(1, p=3), PAdicNumber.from_rational(1, p=2)],
         [Ball(3, 0, 0)])
def test_ball_counts_matches_exact_loop(samples, balls):
    assert outcome(tally_balls, 3, samples, balls) == outcome(
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
    assert outcome(mc_block, args) == outcome(reference_mc_block, args)
    assert outcome(mc_block, args)[0] == "ok"


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
        assert outcome(mc_block, args) == outcome(reference_mc_block, args)
    assert outcome(mc_block, args)[0] == "PrecisionError"


@pytest.mark.parametrize(
    "case", ["short_t", "large_t", "fine_ball", "other_prime", "short_t_and_fine_ball"]
)
def test_failures_raise_what_the_exact_path_raises(case):
    # with a failing grid point and a failing ball, the grid point raises
    # first, as in the exact loop
    sampler = radial(2, -6, 12)
    scheme = _geometric(2)
    grid = grid_points(2, -4, 4)
    balls = default_ball_family(2, 6)
    if case.startswith("short_t"):
        grid = grid_points(2, -4, 4, precision=3)
    elif case == "large_t":
        grid = grid_points(2, -4, 9)
    elif case == "other_prime":
        grid.append(PAdicNumber.from_rational(1, p=3))
    if case.endswith("fine_ball"):
        balls.append(Ball(2, Fraction(1, 2), -12))
    args = (sampler, scheme, 2, 3, 0, 0, 12, tuple(grid), tuple(balls))
    got = outcome(mc_block, args)
    assert got[0] in ("PrecisionError", "PrimeMismatchError")
    assert got == outcome(reference_mc_block, args)


def dyadic_radial(p: int) -> RadialSampler:
    """Bins with dyadic masses summing to exactly 1, two of them empty, so
    a scripted u lands exactly on every edge."""
    masses = ((-2, 0.0), (-1, 0.25), (0, 0.0), (1, 0.5), (2, 0.125))
    return RadialSampler(table=SphereMassTable(p, -2, 2, masses, 0.125, 0.0, 0.0), resolution=-3)


@lru_cache(maxsize=None)
def wide_radial(p: int, n_hi: int, resolution: int) -> RadialSampler:
    """All mass on the top eleven spheres: every draw needs more digits than
    one 63-bit call holds once n_hi - resolution is wide enough."""
    spheres = range(resolution + 1, n_hi + 1)
    masses = tuple((n, 1 / 11 if n > n_hi - 11 else 0.0) for n in spheres)
    table = SphereMassTable(p, resolution + 1, n_hi, masses, 0.0, 0.0, 0.0)
    return RadialSampler(table=table, resolution=resolution)


BLOCK_SAMPLERS = {
    "radial-p2": radial(2, -8, 40),
    "radial-p3": radial(3, -12, 40),
    "radial-p5": radial(5, -2, 30),
    "wide-radial-p3": wide_radial(3, 40, -12),  # 52 ternary digits: two limbs
    "wide-radial-p2": wide_radial(2, 70, -6),  # 76 bits: two limbs
    "wide-radial-p5": wide_radial(5, 60, -2),  # 61 quinary digits: three limbs
    "haar-p3-wide": HaarBallSampler(Ball(3, 0, 40), -12),
    "haar-p2-wide": HaarBallSampler(Ball(2, Fraction(5, 8), -1), -70),
    "haar-p5": HaarBallSampler(Ball(5, Fraction(7, 25), 1), -4),
    "haar-p3-finer-than-resolution": HaarBallSampler(Ball(3, 1, -6), -4),
    "point-mass": PointMassSampler(xi=PAdicNumber.from_rational(Fraction(7, 3), p=5)),
    "certified-zero": PointMassSampler(xi=PAdicNumber.zero(3, 4)),
    "exact-zero": PointMassSampler(xi=PAdicNumber.zero(2)),
    "cp-p2": CompoundPoissonSampler(measure=make_example_measure(1, 1, 2), resolution=-4),
    # j = 2, gamma0 = 9 * 2/5, a zero-weight ball and a ball deep enough
    # that the jumps on the lowest spheres need none of its digits
    "cp-p3-j2": CompoundPoissonSampler(measure=make_measure(
        3, Fraction(2, 3), Fraction(18, 5),
        (((Ball(3, 1, -1), Fraction(1, 4)), (Ball(3, 2, -1), Fraction(0))),
         ((Ball(3, Fraction(5, 3), -4), Fraction(1, 2)),)),
    ), resolution=-3),
    # beta = 99/100: spheres hundreds of digits above the resolution
    "cp-p2-beta-99/100": CompoundPoissonSampler(measure=make_measure(
        2, Fraction(99, 100), 2, (((Ball(2, 1, -1), Fraction(1, 100)),),)
    ), resolution=-2),
}


@pytest.mark.parametrize("sampler", BLOCK_SAMPLERS.values(), ids=BLOCK_SAMPLERS.keys())
def test_block_draws_match_the_fraction_reference(sampler):
    a, b = substream(11, 1), substream(11, 1)
    assert sampler.sample(a, 300) == reference_draws(sampler, b, 300)
    assert a.random() == b.random()  # the same RNG calls were made


SCRIPT = [0.0, 0.125, 0.375, 0.875, 0.5, 0.25, 0.999, 0.9999999999999999]


@pytest.mark.parametrize(
    "sampler",
    [dyadic_radial(2), dyadic_radial(3), dyadic_radial(5), *BLOCK_SAMPLERS.values()],
    ids=["dyadic-p2", "dyadic-p3", "dyadic-p5", *BLOCK_SAMPLERS.keys()],
)
def test_scripted_block_draws_match_the_fraction_reference(sampler):
    # u on every edge of the dyadic tables, digits at their largest
    got = sampler.sample(ScriptedRng(SCRIPT), len(SCRIPT))
    assert got == reference_draws(sampler, ScriptedRng(SCRIPT), len(SCRIPT))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scripted_edges_open_the_next_bin(p):
    # right-closed bins: u on an edge draws from the next bin with mass
    got = dyadic_radial(p).sample(ScriptedRng(SCRIPT[:5]), 5)
    assert [None if x.is_zero else -x.valuation for x in got] == [None, -1, 1, 2, 1]


@pytest.mark.parametrize(
    "sampler, k",
    [pytest.param(s, 3, id=name) for name, s in BLOCK_SAMPLERS.items()]
    # 4 * 2**62 >= 2**64: the row sums leave uint64
    + [pytest.param(wide_radial(2, 56, -6), 4, id="object-row-sums")],
)
def test_residue_sums_are_sums_of_samples(sampler, k):
    sums = sampler.residue_sums(substream(4, 2), k, 50)
    draws = sampler.sample(substream(4, 2), k * 50)
    expected = []
    for i in range(50):
        total = draws[i * k]
        for x in draws[i * k + 1:(i + 1) * k]:
            total = total + x
        expected.append(total)
    assert sums.elements() == expected
    assert sampler.draw(substream(4, 2)) == sampler.sample(substream(4, 2), 1)[0]


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
    assert sampler.sample(a, count) == reference_cp_draws(sampler, b, count)
    assert a.random() == b.random()  # the same RNG calls were made


def test_cp_draws_reach_zero_jump_and_certified_zero_draws():
    # p = 2 at resolution -1, rate 1/4: draws with no jump, and draws whose
    # jumps cancel above the resolution scale, over two chunks
    m = make_measure(2, Fraction(1, 2), 2, (((Ball(2, 1, -1), Fraction(1, 8)),),))
    sampler = CompoundPoissonSampler(measure=m, resolution=-1)
    count = CP_CHUNK + 500
    draws = sampler.sample(substream(3, 0), count)
    assert draws == reference_cp_draws(sampler, substream(3, 0), count)
    # the first chunk's jump counts are the block's first call
    jumps = substream(3, 0).poisson(sampler._lam, CP_CHUNK).tolist()
    kinds = Counter((n > 0, x.is_zero) for n, x in zip(jumps, draws))
    assert kinds[(False, True)] and kinds[(True, True)] and kinds[(True, False)]
    assert all(x.precision == 1 for x in draws if x.is_zero)


def test_cp_blocks_of_several_chunks_match_the_reference():
    # three chunks, each with its own top, lifted to the block's
    sampler = CompoundPoissonSampler(measure=make_example_measure(1, 1, 3), resolution=-1)
    count = 2 * CP_CHUNK + 5
    a, b = substream(21, 0), substream(21, 0)
    assert sampler.sample(a, count) == reference_cp_draws(sampler, b, count)
    assert a.random() == b.random()


class ScriptedRng:
    """Stands in for a Generator: random() replays a script, one value per
    call or per element of a sized call; integers() returns the largest
    value of each range; poisson() and geometric() give one value per
    element, the same int each time or the next of a list."""

    def __init__(self, script, poisson=1, geometric=1):
        self.script = list(script)
        self.counts = {"poisson": poisson, "geometric": geometric}
        for name, value in self.counts.items():
            if not isinstance(value, int):
                self.counts[name] = list(value)

    def random(self, size=None):
        if size is None:
            return self.script.pop(0)
        return np.array([self.script.pop(0) for _ in range(size)])

    def integers(self, low, high, size=None):
        high = np.broadcast_to(high, np.shape(high) if size is None else size)
        return (high - 1).astype(np.int64)

    def _replay(self, name, size):
        script = self.counts[name]
        if isinstance(script, int):
            return np.full(size, script, dtype=np.int64)
        return np.array([script.pop(0) for _ in range(size)], dtype=np.int64)

    def poisson(self, lam, size):
        return self._replay("poisson", size)

    def geometric(self, q, size):
        return self._replay("geometric", size)


@pytest.mark.parametrize("p", [2, 3])
def test_cp_blocks_with_different_tops_match_the_reference(p):
    # one sampler draws two blocks whose tops differ: the sphere factors
    # memoised for the first block must not serve the second
    sampler = CompoundPoissonSampler(measure=make_example_measure(1, 1, p), resolution=-3)
    tops = []
    for trials in ([1, 2, 1], [5, 1, 9]):
        script = dict(poisson=[1, 2, 0], geometric=trials)
        got = sampler.residue_sums(ScriptedRng(SCRIPT[:3], **script), 1, 3)
        assert got.elements() == reference_cp_draws(sampler, ScriptedRng(SCRIPT[:3], **script), 3)
        tops.append(got.top)
    assert tops[0] < tops[1]
    assert -sampler.sample(ScriptedRng([0.5], geometric=9), 1)[0].valuation == tops[1]


def test_cp_never_draws_an_empty_sphere():
    # p = 2, j = 2, fundamental sphere 1 empty: the odd spheres have no
    # mass, so every jump lands on an even sphere, also for u = 0.0 and u
    # on the last edge
    m = make_measure(2, Fraction(1, 2), 4, (((Ball(2, 1, -1), Fraction(1, 8)),), ()))
    sampler = CompoundPoissonSampler(measure=m, resolution=-4)
    trials = range(1, len(SCRIPT) + 1)
    got = sampler.sample(ScriptedRng(SCRIPT, geometric=trials), len(SCRIPT))
    assert got == reference_cp_draws(sampler, ScriptedRng(SCRIPT, geometric=trials), len(SCRIPT))
    assert [x.valuation for x in got] == [4 - 2 * t for t in trials]


def test_cp_never_draws_a_zero_weight_ball():
    m = make_measure(
        2, Fraction(1, 2), 2,
        (((Ball(2, 1, -2), Fraction(0)), (Ball(2, 3, -2), Fraction(1, 8))),),
    )
    sampler = CompoundPoissonSampler(measure=m, resolution=-3)
    # on the sphere p**2, two digits above the resolution and more
    got = sampler.sample(ScriptedRng(SCRIPT, geometric=5), len(SCRIPT))
    assert got == reference_cp_draws(sampler, ScriptedRng(SCRIPT, geometric=5), len(SCRIPT))
    assert all(x.unit % 4 == 3 for x in got)  # inside 3 + 4Z_2, scaled by a power of 2


def test_cp_scripted_edges_open_the_next_ball():
    # two balls of weight 1/8: u = 0.5 lands on the edge between them and
    # draws the second, right-closed
    m = make_measure(
        2, Fraction(1, 2), 2,
        (((Ball(2, 1, -2), Fraction(1, 8)), (Ball(2, 3, -2), Fraction(1, 8))),),
    )
    sampler = CompoundPoissonSampler(measure=m, resolution=-3)
    script = [0.0, 0.5, 0.25, 0.75, 0.9999999999999999]
    got = sampler.sample(ScriptedRng(script, geometric=5), len(script))
    assert got == reference_cp_draws(sampler, ScriptedRng(script, geometric=5), len(script))
    assert [x.unit % 4 for x in got] == [1, 3, 1, 3, 3]


def test_radial_never_draws_an_empty_bin():
    # no mass at zero and none on the sphere p**-3: u = 0.0 must land on
    # p**-2, and u on an edge opens the next bin
    masses = ((-3, 0.0), (-2, 0.5), (-1, 0.0), (0, 0.5), (1, 0.0))
    table = SphereMassTable(2, -3, 1, masses, 0.0, 0.0, 0.0)
    sampler = RadialSampler(table=table, resolution=-4)
    for u, valuation in ((0.0, 2), (0.25, 2), (0.5, 0), (0.75, 0)):
        assert sampler.draw(ScriptedRng([u])).valuation == valuation


def test_cp_residue_sums_match_summed_draws():
    sampler = compound_poisson(3)
    sums = sampler.residue_sums(substream(8, 1), 5, 6)
    draws = reference_cp_draws(sampler, substream(8, 1), 30)
    expected = []
    for i in range(6):
        total = draws[5 * i]
        for x in draws[5 * i + 1:5 * i + 5]:
            total = total + x
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
    assert outcome(tally_balls, p, batch, balls) == outcome(
        reference_ball_counts, draws, balls
    )
    fine = balls[:2] + [Ball(p, 1, sampler.resolution - 1)]
    got = outcome(tally_balls, p, batch, fine)
    assert got[0] == "PrecisionError"
    assert got == outcome(tally_balls, p, draws, fine)
    assert outcome(tally_balls, p, ResidueBatch(p, 0, 2, []), balls) == ("ok", [0] * 12)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("p, widths, dtype", [
    (2, (1, 20), np.uint64), (3, (1, 20), np.uint64), (5, (1, 13), np.uint64),
    (2, (65, 80), object), (3, (21, 45), object),
])
def test_ball_count_counts_the_decoded_values(p, widths, dtype, data):
    # balls around 0 and elsewhere, with centres of any valuation, also
    # beyond the batch's top (|centre| > p**top, so no value lies in them)
    top = data.draw(st.integers(-4, 5), label="top")
    width = data.draw(st.integers(max(widths[0], top + 1), widths[1]), label="width")
    window = width - top
    residues = data.draw(st.lists(st.builds(
        lambda u, k: u * p**k % p**width, st.integers(0, p**width - 1), st.integers(0, width)
    ), max_size=30), label="residues")
    batch = ResidueBatch(p, top, window, residues)
    assert batch.values.dtype == dtype
    values = batch.elements()
    for _ in range(4):
        radius = data.draw(st.integers(-window, top + 3), label="radius")
        centre = data.draw(st.one_of(st.just(Fraction(0)), st.builds(
            lambda a, b, v: Fraction(a, b) * Fraction(p) ** v,
            st.integers(-(p**8), p**8).filter(bool),
            st.integers(1, 30).filter(lambda b: b % p),
            st.integers(-top - 4, window + 2),
        )), label="centre")
        ball = Ball(p, centre, radius)
        assert batch.ball_ok(ball)
        assert batch.ball_count(ball) == sum(ball.contains(x) for x in values)


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


@st.composite
def balls_and_points(draw):
    """A ball over 2 or 5 (centre 0 among its centres), a digit window
    over 2 or 5, exact and certified zeros, and points near the centre
    known exactly to the radius and one digit short of it."""
    p = draw(st.sampled_from([2, 5]))
    center = draw(st.sampled_from(
        [0, 1, -1, p, p * p + 1, Fraction(1, 3), Fraction(1, p), Fraction(3, p**2), Fraction(-2, p**3)]
    ))
    ball = Ball(p, center, draw(st.integers(-6, 3)))
    q = draw(st.sampled_from([2, 5]))
    lead = draw(st.integers(1, q - 1))
    tail = draw(st.lists(st.integers(0, q - 1), max_size=8))
    drawn = PAdicNumber.from_digits(q, draw(st.integers(-6, 4)), [lead] + tail)
    need = -ball.radius_exp
    points = [drawn, PAdicNumber.zero(p), PAdicNumber.zero(p, need), PAdicNumber.zero(p, need - 1),
              PAdicNumber.zero(p, draw(st.integers(-6, 6)))]
    near = ball.center + draw(st.integers(-30, 30)) * Fraction(p) ** draw(st.integers(-8, 2))
    if near != 0:
        v = rational_valuation(near, p)
        for k in (need - v, need - v - 1, draw(st.integers(1, 10))):
            if k >= 1:
                points.append(PAdicNumber.from_rational(near, p=p, precision=k))
    return ball, points


@settings(max_examples=300, deadline=None)
@given(balls_and_points())
def test_ball_contains_matches_rational_membership_at_p_2_and_5(ball_points):
    ball, points = ball_points
    for x in points:
        assert outcome(ball.contains, x) == outcome(reference_contains, ball, x)


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


def decode(p: int, top: int, window: int | None, residue: int) -> PAdicNumber:
    """The PAdicNumber that ``residue`` stands for in a batch with this
    top and window (``window=None``: the exact zero), one value at a
    time: the reference for ResidueBatch.elements."""
    if window is None:
        return PAdicNumber.zero(p)
    if residue == 0:
        return PAdicNumber.zero(p, window)
    v = int_valuation(residue, p)
    return PAdicNumber(p, v - top, residue // p**v, top + window - v)


@pytest.mark.parametrize("p, top, window, dtype", [
    (2, 3, 61, np.uint64),  # up to the top bit of a uint64
    (2, -2, 9, np.uint64),
    (3, 4, 16, np.uint64),  # odd p with p**(2W) below 2**64
    (5, 2, 11, np.uint64),
    (3, 5, 40, object),  # p**W >= 2**64
    (2, 0, 70, object),
])
def test_elements_decode_each_residue(p, top, window, dtype):
    width = top + window
    rng = np.random.default_rng(p * width)
    values = [0, 1, p - 1, p ** (width - 1), (p - 1) * p ** (width - 1), p**width - 1, 0]
    values += [int(u) * p ** int(v) % p**width
               for u, v in zip(rng.integers(1, 2**62, 40), rng.integers(0, width, 40))]
    batch = ResidueBatch(p, top, window, values)
    assert batch.values.dtype == dtype
    assert batch.elements() == [decode(p, top, window, x) for x in values]


@pytest.mark.parametrize("p, top, window, values", [
    (5, 0, None, [0, 0, 0]),  # exact zeros
    (3, 2, 4, [0, 0]),  # zeros certified modulo 3**4
    (2, 1, 3, []),
])
def test_elements_decode_zero_and_empty_batches(p, top, window, values):
    batch = ResidueBatch(p, top, window, values)
    assert batch.elements() == [decode(p, top, window, x) for x in values]


def test_elements_build_values_through_the_checking_constructor():
    # 10 is no residue modulo 3**2: decoding it raises the constructor's error
    with pytest.raises(ValueError, match="unit out of range for stated precision"):
        decode(3, 0, 2, 10)
    with pytest.raises(ValueError, match="unit out of range for stated precision"):
        ResidueBatch(3, 0, 2, [1, 10]).elements()


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
        assert outcome(mc_block, args) == outcome(reference_mc_block, args)


@pytest.mark.parametrize("p, m", [
    (2, 64),  # trailing zeros, up to the top bit of a uint64
    (3, 40),
    (5, 27),
])
def test_reduced_phases_match_reduced_phase(p, m):
    rng = np.random.default_rng(p * m)
    keys = [0, 1, p - 1, p, p**m - 1, p ** (m - 1), (p - 1) * p ** (m - 1), 7 * p**5 % p**m]
    keys += [int(u) * p**int(v) % p**m for u, v in zip(rng.integers(1, 2**40, 40),
                                                      rng.integers(0, m, 40))]
    ms = [m] * len(keys)
    ms[-1] = m - 3  # each key has its own m
    keys[-1] %= p ** (m - 3)
    scales, numerators = _reduced_phases(p, np.array(keys, dtype=np.uint64), np.array(ms))
    assert list(zip(scales, numerators)) == [reduced_phase(p, k, e) for k, e in zip(keys, ms)]


def summed_block_tallies(p, batches, grid, balls):
    """tally on each block in order, the counts added: the reference for
    tally_blocks, whose exception is the first failing block's."""
    phases, hits = [Counter() for _ in grid], [0] * len(balls)
    for batch in batches:
        table, ball_hits = tally(p, batch, grid, balls)
        for total, part in zip(phases, row_counts(table, len(grid))):
            total.update(part)
        hits = [a + b for a, b in zip(hits, ball_hits)]
    return phases, hits


def joined_tally(p, batches, grid, balls):
    whole = ResidueBatch.concat(p, batches)
    table, hits = tally_blocks(whole, [len(b) for b in batches], grid, balls)
    return row_counts(table, len(grid)), hits


def joined_mc_blocks(sampler, scheme, n, seed, n_idx, blocks, grid, balls):
    """count_blocks' counts: the blocks' row sums joined, scaled and
    tallied once."""
    table, hits = count_blocks(sampler, scheme, n, seed, n_idx, blocks, grid, balls)
    return row_counts(table, len(grid)), hits


@pytest.mark.parametrize("p", [2, 3])
def test_joined_blocks_with_different_tops_count_as_their_sum(p):
    # compound-Poisson blocks have different tops: joined, each residue is
    # lifted to the largest, and the values and counts are the blocks'
    sampler = compound_poisson(p)
    batches = [sampler.residue_sums(substream(9, b), 2, count)
               for b, count in enumerate((40, 0, 25, 60))]
    assert len({b.top for b in batches if len(b)}) > 1
    whole = ResidueBatch.concat(p, batches)
    assert whole.top == max(b.top for b in batches)
    assert whole.elements() == [x for b in batches for x in b.elements()]
    grid, balls = grid_points(p, -4, 2), default_ball_family(p, 6)
    got = outcome(joined_tally, p, batches, grid, balls)
    assert got[0] == "ok"
    assert got == outcome(summed_block_tallies, p, batches, grid, balls)
    assert outcome(joined_tally, p, [], grid, balls) == ("ok", ([Counter()] * len(grid), [0] * 6))


@st.composite
def block_runs(draw):
    """mc_blocks' inputs with one to five blocks of their own sizes in
    place of a single block."""
    (sampler, scheme, n, seed, n_idx, _, _, grid, balls) = draw(mc_blocks())
    blocks = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 8)),
                           min_size=1, max_size=5, unique_by=lambda b: b[0]))
    return sampler, scheme, n, seed, n_idx, blocks, grid, balls


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(block_runs())
# block 0 fails only the fine ball, block 1 also the short grid point:
# block 0's ball raises, as the blocks' own tallies in order would
@example((radial(2, -6, 12), LimitScheme.geometric(2, Fraction(1, 2), Fraction(6, 5), n_max=3),
          0, 2, 0, [(0, 8), (1, 8)], (PAdicNumber.from_rational(Fraction(1, 2), p=2, precision=5),),
          (Ball(2, 0, 0), Ball(2, Fraction(1, 2), -12))))
def test_joined_blocks_match_summed_block_tallies(args):
    # counts summed over blocks, and the exception of the first block that
    # fails, whatever later blocks hold
    sampler, scheme, n, seed, n_idx, blocks, grid, balls = args
    p = sampler.prime

    def run(tally_fn):
        batches = [sum_residues(sampler, scheme, n, count, substream(seed, n_idx, block))
                   for block, count in blocks]
        return tally_fn(p, batches, grid, balls)

    assert outcome(joined_mc_blocks, *args) == outcome(run, summed_block_tallies)


def table_and_hits(fn, *args):
    """A (phase table, ball counts) result with each table column as its
    dtype and values, so that two results compare array for array."""
    table, hits = fn(*args)
    return [(column.dtype.str, column.tolist()) for column in table], hits


# each sampler class; compound-Poisson blocks of different tops, with an
# empty block among them; windows wider than 64 bits (object residues);
# a first block that fails a ball where a later one fails a grid point
_SCHEME_2 = LimitScheme.geometric(2, Fraction(1, 2), Fraction(6, 5), n_max=3)
JOINED_CASES = [
    (compound_poisson(2), _SCHEME_2, 1, 9, 1, [(0, 8), (3, 0), (5, 8), (6, 7)],
     tuple(grid_points(2, -4, 2)), tuple(default_ball_family(2, 6))),
    (compound_poisson(3), LimitScheme.explicit(3, [Fraction(1, 3), 1], [2, 3]), 1, 4, 0,
     [(2, 6), (0, 0), (1, 8)], tuple(grid_points(3, -2, 2)), tuple(default_ball_family(3, 6))),
    (radial(2, -6, 70), _SCHEME_2, 2, 3, 2, [(0, 5), (1, 0), (7, 6)],
     tuple(grid_points(2, -4, 4, precision=48)), tuple(default_ball_family(2, 6))),
    (radial(3, -12, 40), LimitScheme.explicit(3, [9, 1, 1, 1], [1, 2, 3, 4]), 0, 5, 0,
     [(4, 3), (1, 0), (2, 4)], tuple(grid_points(3, -2, 3, precision=48)),
     tuple(default_ball_family(3, 6))),
    (HaarBallSampler(Ball(5, Fraction(7, 3), -1), -4), LimitScheme.explicit(
        5, [Fraction(1, 5), 1, 1, 1], [1, 2, 3, 4]), 0, 11, 0, [(0, 4), (1, 0), (2, 3)],
     tuple(grid_points(5, -2, 2)), tuple(default_ball_family(5, 6))),
    (point_mass(3, "short", 2), LimitScheme.explicit(3, [1, 1, 1, 1], [1, 2, 3, 9]), 3, 0, 3,
     [(0, 2), (1, 0), (2, 2)], tuple(grid_points(3, -2, 2)), tuple(default_ball_family(3, 6))),
    (radial(2, -6, 12), _SCHEME_2, 0, 2, 0, [(0, 8), (1, 8)],
     (PAdicNumber.from_rational(Fraction(1, 2), p=2, precision=5),),
     (Ball(2, 0, 0), Ball(2, Fraction(1, 2), -12))),
]


def test_joined_cases_reach_each_shape():
    # the pinned cases of the property below hold what it must cover
    kinds = {type(case[0]) for case in JOINED_CASES}
    assert kinds == {CompoundPoissonSampler, RadialSampler, HaarBallSampler, PointMassSampler}
    for sampler, scheme, n, seed, n_idx, blocks, _, _ in JOINED_CASES[:-1]:
        assert any(count == 0 for _, count in blocks)
        if isinstance(sampler, CompoundPoissonSampler):
            tops = {sampler.residue_sums(substream(seed, n_idx, b), scheme.k(n), count).top
                    for b, count in blocks if count}
            assert len(tops) > 1
    wide = [ResidueBatch.concat(case[0].prime, [
        case[0].residue_sums(substream(case[3], case[4], b), case[1].k(case[2]), count)
        for b, count in case[5]]).values.dtype for case in JOINED_CASES[2:4]]
    assert wide == [np.dtype(object)] * 2
    assert outcome(per_block.mc_blocks, *JOINED_CASES[-1])[0] == "PrecisionError"


def _joined_examples(test):
    for case in JOINED_CASES:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(block_runs())
@_joined_examples
def test_mc_blocks_match_the_per_block_reference(args):
    # one k(n), B(n), scale and tally per n: the phase table, column by
    # column, the ball counts and the exception of the first failing
    # block are those of drawing, scaling and checking block by block
    assert outcome(table_and_hits, count_blocks, *args) == outcome(
        table_and_hits, per_block.mc_blocks, *args
    )
