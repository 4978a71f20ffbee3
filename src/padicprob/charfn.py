"""Transforms of laws, ball probabilities, samplers, and empirical ball
counts.

A radial characteristic function depends on t only through |t|_p and is
real-valued (these are the transforms of symmetric laws).  For such a g
the probability of a ball has an explicit sphere series:

    mu(B(0, p**N)) = p**N * sum_{k <= -N} (1 - 1/p) p**k g(p**k)

and for a ball away from the origin with |center| = p**C > p**N,

    mu(B(c, p**N)) = p**N * ( sum_{k <= -C} (1-1/p) p**k g(p**k)
                              - p**-C g(p**(1-C)) ).

Both series carry a certified geometric tail bound; a transform with a
two-valued form (a point mass, a Haar-uniform law, or a sum of either)
gives its ball probabilities as exact rationals instead.

Sampling follows a splittable counter-based RNG contract: streams are
keyed by (seed, *indices) so parallel replication is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PrimeMismatchError, ToleranceError
from .padic import (
    DEFAULT_PRECISION,
    PAdicNumber,
    _check_prime,
    chi,
    phase_known,
    phase_scale,
    split_p_part,
)
from .residues import ResidueBatch, lift, tally
from .sets import Ball


# ---------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, *key).

    Philox streams have period >= 2**128 and distinct spawn keys give
    statistically independent substreams, so replicates can be drawn in
    parallel and still reproduce bit-identically in any worker layout.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def poisson_draw(rng: np.random.Generator, mean: float) -> int:
    """Poisson sample: exact inversion for mean <= 30, PTRS rejection above."""
    if mean <= 0:
        return 0
    if mean <= 30.0:
        limit = math.exp(-mean)
        k = 0
        prod = rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k
    # transformed rejection with squeeze (Hormann's PTRS)
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= (
            -mean + k * log_mean - math.lgamma(k + 1.0)
        ):
            return k


# ---------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TwoValuedForm:
    """The exact form of a two-valued transform, one whose modulus is 0 or 1.

    kind 'delta': chi(t * xi), the point mass at xi.  kind 'haar_cutoff':
    chi(t * xi) for |t| <= p**N (N = ``cutoff_exp``) and 0 beyond, the
    uniform law on the ball of radius p**-N around xi, which fixes xi
    modulo p**N.  'not_two_valued' is what classify_two_valued gives a
    transform with no form.
    """

    kind: str
    xi: PAdicNumber | None = None
    cutoff_exp: int | None = None

    def window(self, top: int) -> Ball:
        """The points that agree with xi below p**min(N, top): all that
        the transform fixes of its law on the spheres |t| <= p**top.
        Raises PrecisionError when xi is not known to those digits."""
        cut = top if self.cutoff_exp is None else min(self.cutoff_exp, top)
        return Ball(self.xi.prime, self.xi, -cut)

    def ball_probability(self, ball: Ball) -> Fraction:
        """The exact probability of ``ball``: whether it holds xi for a
        delta; for a cutoff N, the share of the support B(xi, p**-N) that
        it covers."""
        if self.cutoff_exp is None:
            return Fraction(ball.contains(self.xi))
        support = Ball(self.xi.prime, self.xi, -self.cutoff_exp)
        rel = support.relate(ball)
        if rel == "contains":
            return ball.measure / support.measure
        return Fraction(rel != "disjoint")


class Transform:
    """The characteristic function g(t) = E chi(t X) of a law on Q_p.

    Each transform has one evaluator, ``sphere(p, v, units, precision,
    k)``: g at the points p**v * u of one sphere, for a list of units u
    (coprime to p, below p**precision) on one digit window, each value
    raised to the power k unless k is None.  It holds the one check that
    the points lie over ``prime``, and a point that needs digits the
    window lacks raises what the whole sphere raises.  ``power(t, k)``,
    g(t)**k, and ``__call__(t)``, g(t), are its one-point cases, with
    g(0) = 1.

    A radial transform (``is_radial``) depends on t only through |t| and
    is real, with ``radial_value(k)`` its value on the sphere |t| =
    p**k.  ``form`` is the exact TwoValuedForm of a transform whose law
    is a point mass or a Haar-uniform law (that of a sum of either, too),
    built once with the transform, and None for any other: it is the one
    statement of a two-valued law (|g| is 0 or 1), and ball
    probabilities, ``log_modulus`` and classification read it.
    ``measure`` is the jump measure whose exponent gives g, where there
    is one.
    """

    prime: int
    is_radial: bool = False
    form: TwoValuedForm | None = None
    measure = None

    def _check(self, p: int) -> None:
        if p != self.prime:
            raise PrimeMismatchError(
                f"transform over p={self.prime} evaluated at a point over p={p}"
            )

    def __call__(self, t: PAdicNumber) -> complex:
        return self.power(t, None)

    def power(self, t: PAdicNumber, k: int | None) -> complex:
        """g(t)**k, the transform of a sum of k independent copies (g(t)
        when k is None)."""
        if t.is_zero:
            self._check(t.prime)
            return complex(1.0, 0.0)
        return self.sphere(t.prime, t.valuation, (t.unit,), t.precision, k)[0]

    def sphere(
        self, p: int, v: int, units: Sequence[int], precision: int, k: int | None = None
    ) -> list[complex]:
        """g(p**v * u) for each u in ``units``, or its k-th power."""
        self._check(p)
        return self._powers(self._sphere(v, units, precision), k)

    def _sphere(self, v: int, units: Sequence[int], precision: int) -> list[complex]:
        raise NotImplementedError

    def _powers(self, values: list[complex], k: int | None) -> list[complex]:
        """Each value to the k-th power in floats: through exp and log
        for a positive radial value.  The 0-th power is 1, also at 0.0."""
        if k is None:
            return values
        if k == 0:
            return [complex(1.0, 0.0)] * len(values)
        if not self.is_radial:
            return [x**k for x in values]
        out = []
        for x in values:
            val = x.real
            if val == 0.0:
                out.append(complex(0.0, 0.0))
            elif val > 0.0:
                out.append(complex(math.exp(k * math.log(val)), 0.0))
            else:
                out.append(complex(val, 0.0) ** k)
        return out

    def fresh(self) -> "Transform":
        """This transform with empty memos; each report keeps its own."""
        return self

    def log_modulus(self, t: PAdicNumber) -> float:
        """log |g(t)|, and -inf exactly where g(t) is a certified zero.

        Here for a transform with a form, whose modulus is 0 or 1; any
        other reads it from its exponent, so that a tiny |g| that
        underflows is never taken for a zero."""
        if self.form is None:
            raise NotImplementedError
        return 0.0 if self(t) != 0 else -math.inf

    def radial_value(self, k: int) -> float:
        if not self.is_radial:
            raise ValueError(f"{self!r} is not radial")
        return self.sphere(self.prime, -k, (1,), DEFAULT_PRECISION)[0].real


def _point_chis(xi: PAdicNumber, v: int, units: Sequence[int], precision: int) -> list[complex]:
    """chi(t * xi) at t = p**v * u for each u in ``units`` (coprime to p,
    known modulo p**precision), with the digit window checked once (see
    phase_scale): the one point-character kernel."""
    p = xi.prime
    if xi.is_zero:
        # t * O(p**e) is O(p**(e + v)), whatever the unit of t: its phase
        # is 0 when known, and character_phase raises when it is not
        e = None if xi.precision is None else xi.precision + v
        if e is None or phase_known(e, e):
            return [complex(1.0, 0.0)] * len(units)
        return [chi(p, *PAdicNumber.zero(p, e).character_phase())] * len(units)
    # t * xi is known to the shorter of the two windows
    s = phase_scale(v + xi.valuation, min(precision, xi.precision))
    mod = p**s
    return [chi(p, s, u * xi.unit % mod) for u in units]


@dataclass(frozen=True)
class PointMass(Transform):
    """chi(t * xi), the transform of the point mass at xi (radial when xi = 0)."""

    xi: PAdicNumber

    def __post_init__(self) -> None:
        object.__setattr__(self, "prime", self.xi.prime)
        object.__setattr__(self, "is_radial", self.xi.is_zero)
        object.__setattr__(self, "form", TwoValuedForm("delta", self.xi))

    def _sphere(self, v: int, units: Sequence[int], precision: int) -> list[complex]:
        return _point_chis(self.xi, v, units, precision)


@dataclass(frozen=True)
class HaarUniform(Transform):
    """The transform of the Haar-uniform law on a ball B(c, p**R): chi(t * c)
    where |t| <= p**-R and 0 beyond (radial when the ball holds 0).  Its
    form's xi is c modulo p**-R, the digits the ball fixes, and inside
    the cutoff its spheres are the point kernel's at that xi."""

    ball: Ball

    def __post_init__(self) -> None:
        p, n, split = self.ball.prime, -self.ball.radius_exp, self.ball._center_split
        xi = PAdicNumber.zero(p, n) if split is None else PAdicNumber(p, *split, n - split[0])
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "is_radial", split is None)
        object.__setattr__(self, "form", TwoValuedForm("haar_cutoff", xi, n))

    def _sphere(self, v: int, units: Sequence[int], precision: int) -> list[complex]:
        if v < self.ball.radius_exp:
            return [complex(0.0, 0.0)] * len(units)
        return _point_chis(self.form.xi, v, units, precision)


@dataclass(frozen=True)
class StableParams:
    """Scale/exponent pair of the closed-form law exp(-a |t|^alpha)."""

    a: float
    alpha: float
    prime: int

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        if not (self.a > 0 and self.alpha > 0):
            raise ValueError("need a > 0 and alpha > 0")


@dataclass(frozen=True)
class StableLaw(Transform):
    """The closed form exp(-a |t|**alpha), as exp(-a * p**(alpha * k)) on
    the sphere |t| = p**k."""

    params: StableParams
    is_radial = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "prime", self.params.prime)

    def _sphere(self, v: int, units: Sequence[int], precision: int) -> list[complex]:
        return [complex(self.radial_value(-v), 0.0)] * len(units)

    def radial_value(self, k: int) -> float:
        return math.exp(self._log_radial(k))

    def _log_radial(self, k: int) -> float:
        return -self.params.a * float(self.prime) ** (self.params.alpha * k)

    def log_modulus(self, t: PAdicNumber) -> float:
        self._check(t.prime)
        return 0.0 if t.is_zero else self._log_radial(-t.valuation)


class RadialCharFn:
    """The name the benchmark in perfbench/ builds its stable law with."""

    stable = StableLaw


@lru_cache(maxsize=65536)
def _measure_radial_value(measure, k: int) -> float:
    from .levy import JumpMeasure  # local import; levy imports this module

    t = PAdicNumber.from_rational(
        Fraction(measure.prime) ** (-k), p=measure.prime
    )
    return JumpMeasure(measure)(t).real


# the most terms past the first a ball probability's sphere series sums
BALL_SERIES_TERMS = 2000
# the tolerance of each ball probability a sphere mass table is built from
SPHERE_MASS_TOL = 1e-12


class BallProbability(NamedTuple):
    value: float
    error_bound: float
    exact: Fraction | None


def ball_probability(
    g: Transform,
    ball: Ball,
    tol: float = 1e-12,
) -> BallProbability:
    """Probability of a ball under the law with transform g.

    Exact (bound 0) for a g with a two-valued form, read from the form;
    otherwise g must be radial, and the result is the truncated sphere
    series with its certified tail bound.
    """
    return _ball_probability(g, ball, tol, {})


def _ball_probability(g: Transform, ball: Ball, tol: float, series: dict) -> BallProbability:
    """ball_probability, with each series term (1 - 1/p) p**k g(p**k)
    read from ``series`` (keyed by k) and computed into it on a miss, so
    that the balls of one table share their terms."""
    p = g.prime
    if ball.prime != p:
        raise PrimeMismatchError("ball and transform over different primes")
    form = g.form
    if form is not None:
        exact = form.ball_probability(ball)
        return BallProbability(float(exact), 0.0, exact)
    if not g.is_radial:
        raise ValueError(f"the sphere series needs a radial transform, not {g!r}")
    n = ball.radius_exp
    if ball.contains_zero:
        start = -n
        corr_sphere = None
    else:
        c_exp = ball.sphere_exp
        start = -c_exp
        corr_sphere = 1 - c_exp

    acc = 0.0
    k = start
    terms = 0
    frac, fp = (p - 1) / p, float(p)
    while True:
        term = series.get(k)
        if term is None:
            term = series[k] = frac * fp**k * g.radial_value(k)
        acc += term
        bound = fp ** (n + k - 1)
        if bound <= tol:
            break
        k -= 1
        terms += 1
        if terms > BALL_SERIES_TERMS:
            raise ToleranceError(
                f"ball probability did not reach tol={tol} in {BALL_SERIES_TERMS} terms"
            )
    if corr_sphere is not None:
        acc -= fp**start * g.radial_value(corr_sphere)
    return BallProbability(fp**n * acc, bound, None)


@dataclass(frozen=True)
class SphereMassTable:
    """Sphere masses mu({|x| = p**N}) for N in [n_lo, n_hi].

    The mass below p**n_lo is folded into ``mass_at_zero`` (it contains
    any atom at 0 plus the unresolved small spheres) and the mass above
    p**n_hi is reported as ``tail_above``; the sampler folds that tail
    onto the top index.  ``clamped`` lists sphere indices whose tiny
    negative float mass was clamped to zero.
    """

    prime: int
    n_lo: int
    n_hi: int
    masses: tuple[tuple[int, float], ...]
    mass_at_zero: float
    tail_above: float
    error_bound: float
    clamped: tuple[int, ...] = ()

    def total(self) -> float:
        return self.mass_at_zero + sum(v for _, v in self.masses) + self.tail_above


def sphere_masses(g: Transform, n_lo: int, n_hi: int) -> SphereMassTable:
    """Sphere masses as differences of ball probabilities, each within
    SPHERE_MASS_TOL.  The balls B(0, p**n) are those of ball_probability,
    their series summed term by term in its order, and each term is
    computed once for the table."""
    if n_lo > n_hi:
        raise ValueError("need n_lo <= n_hi")
    p = g.prime
    probs: dict[int, BallProbability] = {}
    series: dict[int, float] = {}
    for n in range(n_lo - 1, n_hi + 1):
        probs[n] = _ball_probability(g, Ball(p, 0, n), SPHERE_MASS_TOL, series)
    masses = []
    clamped = []
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
    return SphereMassTable(
        prime=p,
        n_lo=n_lo,
        n_hi=n_hi,
        masses=tuple(masses),
        mass_at_zero=probs[n_lo - 1].value,
        tail_above=max(0.0, 1.0 - probs[n_hi].value),
        error_bound=bound,
        clamped=tuple(clamped),
    )


# ---------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _limb_powers(p: int) -> np.ndarray:
    """p**0, ..., p**a as int64, a the most digits one int64 draw holds
    (p**a < 2**63)."""
    powers = [1]
    while powers[-1] * p < 2**63:
        powers.append(powers[-1] * p)
    return np.array(powers, dtype=np.int64)


def _uniform_digits(rng: np.random.Generator, p: int, digits: np.ndarray, dtype):
    """One uniform integer on [0, p**c) per entry c of ``digits``, as
    ``dtype``: a uniform integer on [0, p**c) is exactly c iid uniform
    digits.  One rng.integers call draws up to a digits of every entry
    (see _limb_powers); entries wider than that add limbs,
    u = lo + p**a * hi + ..., one call per limb."""
    powers = _limb_powers(p)
    a = len(powers) - 1
    u = rng.integers(0, powers[np.minimum(digits, a)]).astype(dtype)
    for shift in range(a, int(digits.max(initial=0)), a):
        limb = rng.integers(0, powers[np.clip(digits - shift, 0, a)])
        u += limb.astype(dtype) * p**shift
    return u


class Sampler:
    """Base: immutable descriptor, RNG owned by the caller.

    A sampler draws residue batches (see :mod:`padicprob.residues`);
    ``sample`` and ``draw`` decode one, so every path reads one stream.
    """

    prime: int
    resolution: int | None

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        """``replicates`` sums of ``k`` draws each, drawn in order."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> list[PAdicNumber]:
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        return self.residue_sums(rng, 1, count).elements()

    def draw(self, rng: np.random.Generator) -> PAdicNumber:
        return self.sample(rng, 1)[0]

    def folds(self) -> dict | None:
        """What the sampler folds, clamps or bounds away from the law it
        stands for (None when it draws that law exactly)."""
        return None


def _residue_dtype(mod: int):
    """uint64 for residues below ``mod`` when it fits, else Python ints."""
    return np.uint64 if mod < 2**64 else object


class _BlockSampler(Sampler):
    """A sampler that draws a whole block of values at once (RNG stream
    v2), each value x as the residue x * p**D mod p**W, W = D -
    resolution, for a top D with |x| <= p**D (see
    :mod:`padicprob.residues`).

    The k-draw sums are row sums of the block, in uint64 when k * p**W <
    2**64 and in Python ints otherwise, so they never wrap.
    """

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        """(D, residues): ``count`` residues below p**W, typed by
        _residue_dtype(p**W)."""
        raise NotImplementedError

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        p, res = self.prime, self.resolution
        top, draws = self._draw_block(rng, k * replicates)
        mod = p ** (top - res)
        if max(k, 1) * mod >= 2**64:
            draws = draws.astype(object)
        sums = draws.reshape(replicates, k).sum(axis=1) % mod
        return ResidueBatch(p, top, -res, sums)


@dataclass(frozen=True)
class PointMassSampler(Sampler):
    xi: PAdicNumber

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.xi.prime

    @property
    def resolution(self) -> int | None:  # type: ignore[override]
        e = self.xi.known_mod_exp
        return None if e == math.inf else -int(e)

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        p = self.prime
        one = ResidueBatch.from_padics(p, [self.xi])
        total = k * one.values.tolist()[0] % p**one.width
        return ResidueBatch(p, one.top, one.window, [total] * replicates)


@dataclass(frozen=True)
class HaarBallSampler(_BlockSampler):
    """Haar-uniform draws from one ball, resolved to the stated scale.

    A draw is center + U * p**-radius_exp with U uniform on
    [0, p**(radius_exp - resolution)): one rng.integers call per block
    (and one more per limb beyond 63 bits, see _uniform_digits).
    """

    ball: Ball
    resolution: int

    def __post_init__(self) -> None:
        p, n, res = self.ball.prime, self.ball.radius_exp, self.resolution
        # the canonical center p**v * u of a ball not around 0 has |center|
        # = p**-v > p**n, so every draw has |x| <= p**top
        split = self.ball._center_split
        top = max(n, res) if split is None else max(-split[0], res)
        center = 0 if split is None else split[1] * p ** (split[0] + top)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_center", center % p ** (top - res))
        object.__setattr__(self, "_digits", max(n - res, 0))
        object.__setattr__(self, "_step", p ** (top - n))

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.ball.prime

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        top = self._top  # type: ignore[attr-defined]
        dtype = _residue_dtype(self.prime ** (top - self.resolution))
        digits = np.full(count, self._digits)  # type: ignore[attr-defined]
        u = _uniform_digits(rng, self.prime, digits, dtype)
        return top, u * self._step + self._center  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RadialSampler(_BlockSampler):
    """Sphere index by inverse CDF on a mass table, then Haar-uniform
    digits on the sphere (first digit uniform on 1..p-1).

    Sphere-first sampling is sound precisely because the law is radial:
    conditioned on |X| = p**N the law is invariant under unit rotation,
    hence Haar-uniform on the sphere.  The table tails are folded: the
    mass below n_lo draws the zero-at-resolution element, the mass above
    n_hi draws from the top sphere.

    A block of N draws makes three calls (RNG stream v2):
    ``rng.random(N)`` picks the bins, right-closed so that a bin without
    mass is never drawn; ``rng.integers(1, p, N)`` gives the leading
    digits; ``rng.integers(0, p**c)``, with c the other digits of each
    draw, gives the rest (plus one call per limb beyond 63 bits, see
    _uniform_digits).  A draw on the sphere p**N has the residue
    (first + p * rest) * p**(top - N); a draw at or below the resolution
    is 0.
    """

    table: SphereMassTable
    resolution: int

    def __post_init__(self) -> None:
        if self.table.n_lo - 1 > self.resolution:
            raise ValueError(
                "mass table must extend to the resolution scale: "
                f"n_lo={self.table.n_lo}, resolution={self.resolution}"
            )
        if not self.table.total() > 0:
            raise ValueError("empty mass table")
        p, res = self.table.prime, self.resolution
        # cumulative bins; index 0 folds to zero, the top bin to n_hi
        edges: list[float] = [self.table.mass_at_zero]
        labels: list[int | None] = [None]
        acc = self.table.mass_at_zero
        for n, m in self.table.masses:
            acc += m
            edges.append(acc)
            labels.append(n)
        edges.append(acc + self.table.tail_above)
        labels.append(self.table.n_hi)
        # residue form: every draw has |x| <= p**top
        top = max(self.table.n_hi, res)
        live = [n is not None and n > res for n in labels]
        object.__setattr__(self, "_edges", np.array(edges))
        object.__setattr__(self, "_labels", tuple(labels))
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_rest_digits", np.array(
            [n - res - 1 if ok else 0 for n, ok in zip(labels, live)], dtype=np.int64
        ))
        object.__setattr__(self, "_scales", np.array(
            [p ** (top - n) if ok else 0 for n, ok in zip(labels, live)],
            dtype=_residue_dtype(p ** (top - res)),
        ))

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.table.prime

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        p, scales = self.table.prime, self._scales  # type: ignore[attr-defined]
        edges = self._edges  # type: ignore[attr-defined]
        u = rng.random(count) * edges[-1]
        bins = np.minimum(np.searchsorted(edges, u, side="right"), len(edges) - 1)
        first = rng.integers(1, p, count).astype(scales.dtype)
        rest = _uniform_digits(rng, p, self._rest_digits[bins], scales.dtype)  # type: ignore[attr-defined]
        return self._top, (first + p * rest) * scales[bins]  # type: ignore[attr-defined]

    # its own attribute, so the class's draws can be traced by name
    draw = Sampler.draw

    def folds(self) -> dict:
        """The table's folds: ``zero_mass`` is drawn as the zero at the
        resolution (the mass below n_lo and on the spheres at or below the
        resolution), ``top_tail`` (the mass above n_hi) from the top
        sphere; ``clamped`` spheres had a small negative mass set to 0, and
        every mass is within ``error_bound`` of the law's."""
        table, res = self.table, self.resolution
        return {
            "zero_mass": table.mass_at_zero + sum(m for n, m in table.masses if n <= res),
            "top_tail": table.tail_above,
            "clamped": list(table.clamped),
            "error_bound": table.error_bound,
        }


def stable_sampler(
    params: StableParams, resolution: int, n_lo: int, n_hi: int
) -> RadialSampler:
    table = sphere_masses(StableLaw(params), min(n_lo, resolution + 1), n_hi)
    return RadialSampler(table=table, resolution=resolution)


# Draws per chunk of a compound-Poisson block (RNG stream v2): each chunk
# makes its own RNG calls, so the constant is part of the stream, and it
# bounds the memory a block's jumps take.
CP_CHUNK = 1024


@dataclass(frozen=True)
class CompoundPoissonSampler(_BlockSampler):
    """Sum of a Poisson number of jumps from a self-similar jump measure,
    truncated at the resolution scale.

    Jumps not exceeding p**resolution are dropped; by the ultrametric
    inequality their sum cannot move the draw across any ball of radius
    >= p**resolution, so the sampled law is exact in distribution on all
    such balls.  The jump rate is the (finite, exact) measure of
    {|y| > p**resolution}; note it grows like beta**(resolution/j), so
    fine resolutions are expensive by construction.

    A jump is y = gamma0**-k * z with z Haar-uniform on a fundamental ball
    of weight w on the sphere p**r, and lies on the sphere n = r + k*j.
    The measure of gamma0**-1 * M is beta times that of M, so the jumps
    above the resolution put the mass w * beta**k on each period k >=
    k_min(r), the least with n > resolution: the ball follows the masses
    w * beta**k_min(r), and the offset k - k_min(r) is geometric(1 - beta)
    on every sphere, so no sphere table is cut.

    RNG stream v2 draws a block CP_CHUNK draws at a time, a chunk of N
    draws with J jumps in four steps: ``rng.poisson(rate, N)`` the jump
    counts; ``rng.random(J)`` and a right-closed ``np.searchsorted`` the
    balls (a ball of zero weight is left out of the table);
    ``rng.geometric(1 - beta, J)`` the offsets; ``rng.integers(0,
    p**c)``, with c the digits of z below its ball that the resolution
    needs (plus one call per limb beyond 63 bits, see _uniform_digits),
    the points.

    A chunk's residues are y * p**D mod p**W, W = D - resolution, with D
    the largest sphere it drew: a jump's is (z * p**r) * p**(D - n) *
    (b/a)**k, gamma0 = p**j * a/b, in uint64 when p**(2W) < 2**64, and a
    draw sums its jumps' (np.add.reduceat).  Reduction modulo a power of p
    is a ring map on p-integral rationals and every jump has |y| <= p**D,
    so the sum of the residues is the residue of the exact sum.  A block
    lifts each chunk's residues to the largest chunk top.
    """

    measure: object
    resolution: int

    def __post_init__(self) -> None:
        meas, res = self.measure, self.resolution
        p, j = meas.prime, meas.j
        k_top = -((-res - 1) // j)  # k_min(0), the largest k_min(r)
        balls = [
            (r, -((r - res - 1) // j), ball, w)
            for r, entries in enumerate(meas.fundamental)
            for ball, w in entries
            if w > 0
        ]
        _, a, b = split_p_part(meas.gamma0, p)
        object.__setattr__(self, "_lam", float(meas.tail_mass(res)))
        object.__setattr__(self, "_edges", np.cumsum(
            [float(w * meas.beta_pow(k - k_top)) for _, k, _, w in balls]
        ))
        object.__setattr__(self, "_r", np.array([row[0] for row in balls], dtype=np.int64))
        object.__setattr__(self, "_k_min", np.array([row[1] for row in balls], dtype=np.int64))
        # z = center + u * p**-radius_exp in the ball, center = p**-r * c_u,
        # has z * p**r = c_u + u * step, and needs radius_exp - r + n -
        # resolution digits of u to resolve the jump on the sphere n
        object.__setattr__(self, "_depth", np.array(
            [x.radius_exp - r for r, _, x, _ in balls], dtype=np.int64
        ))
        object.__setattr__(self, "_centres", tuple(x._center_split[1] for _, _, x, _ in balls))
        object.__setattr__(self, "_steps", tuple(p ** (r - x.radius_exp) for r, _, x, _ in balls))
        object.__setattr__(self, "_j", j)
        object.__setattr__(self, "_q", float(1 - meas.beta))
        object.__setattr__(self, "_gamma_ab", (a, b))
        object.__setattr__(self, "_gpow", {})

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.measure.prime

    def _sphere_factors(self, top: int) -> tuple[int, ...]:
        """The residues of p**(top - n) * (b/a)**k modulo p**(top -
        resolution) for the spheres n = resolution + 1, ..., top (k = n //
        j), memoised by the top they are for."""
        factors = self._gpow.get(top)  # type: ignore[attr-defined]
        if factors is None:
            p, j, res = self.prime, self._j, self.resolution  # type: ignore[attr-defined]
            mod = p ** (top - res)
            a, b = self._gamma_ab  # type: ignore[attr-defined]
            unit = b * pow(a, -1, mod) % mod
            unit_k = pow(unit, res // j, mod)  # (b/a)**k for k = res // j
            factors = []
            for n in range(res + 1, top + 1):
                if n % j == 0:  # k = n // j steps up
                    unit_k = unit_k * unit % mod
                factors.append(p ** (top - n) * unit_k % mod)
            self._gpow[top] = factors = tuple(factors)  # type: ignore[attr-defined]
        return factors

    def _draw_chunk(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        """``count`` draws as (D, residues), D the largest sphere drawn
        (resolution + 1 when no draw has a jump)."""
        p, j, res = self.prime, self._j, self.resolution  # type: ignore[attr-defined]
        jumps = rng.poisson(self._lam, count)  # type: ignore[attr-defined]
        total = int(jumps.sum())
        if not total:
            return res + 1, np.zeros(count, dtype=np.uint64)
        edges = self._edges  # type: ignore[attr-defined]
        ball = np.searchsorted(edges, rng.random(total) * edges[-1], side="right")
        np.minimum(ball, len(edges) - 1, out=ball)
        # the sphere n = r + k*j of each jump, k = k_min(r) + offset
        n = rng.geometric(self._q, total)  # type: ignore[attr-defined]
        n += self._k_min[ball] - 1  # type: ignore[attr-defined]
        n *= j
        n += self._r[ball]  # type: ignore[attr-defined]
        top = int(n.max())
        mod = p ** (top - res)
        dtype = np.uint64 if mod * mod < 2**64 else object
        digits = self._depth[ball] + n  # type: ignore[attr-defined]
        digits -= res
        np.maximum(digits, 0, out=digits)
        y = _uniform_digits(rng, p, digits, dtype)
        del digits
        # z * p**r mod p**W, below p**W: centre < step, so it is below
        # p**(n - resolution) when u has digits, and a step of p**W or
        # more comes with none
        steps, centres = self._steps, self._centres  # type: ignore[attr-defined]
        y *= np.array([s % mod for s in steps], dtype=dtype)[ball]
        y += np.array([c % mod for c in centres], dtype=dtype)[ball]
        n -= res + 1
        y *= np.array(self._sphere_factors(top), dtype=dtype)[n]
        y %= mod
        live = jumps > 0
        sums = np.zeros(count, dtype=dtype)
        sums[live] = np.add.reduceat(y, (np.cumsum(jumps) - jumps)[live])
        sums %= mod
        return top, sums

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        p, res = self.prime, self.resolution
        chunks = [
            self._draw_chunk(rng, min(CP_CHUNK, count - i))
            for i in range(0, count, CP_CHUNK)
        ]
        top = max((t for t, _ in chunks), default=res + 1)
        return top, lift(p, chunks, top, _residue_dtype(p ** (top - res)))

    # its own attribute, so the class's draws can be traced by name
    draw = Sampler.draw


# ---------------------------------------------------------------------
# Empirical counts
# ---------------------------------------------------------------------


def ball_counts(
    samples: Sequence[PAdicNumber] | ResidueBatch, balls: Sequence[Ball]
) -> list[int]:
    """How many samples lie in each ball, counted on residues.

    ``samples`` is a list of values or a residue batch of them.  Raises
    what ``Ball.contains`` raises, ball by ball in order.
    """
    if not len(samples):
        return [0] * len(balls)
    p = samples.prime if isinstance(samples, ResidueBatch) else samples[0].prime
    return tally(p, samples, [], balls)[1]
