"""Transforms of laws, their ball probabilities and sphere mass tables.

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

This module imports no numpy.  The samplers of these laws live in
:mod:`padicprob.samplers`, which loads it on a command's first draw.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import PrimeMismatchError, ToleranceError
from .padic import (
    DEFAULT_PRECISION,
    PAdicNumber,
    _check_prime,
    chi,
    phase_known,
    phase_scale,
)
from .sets import Ball

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
    window lacks raises what the whole sphere raises.  ``__call__(t)``,
    g(t), is its one-point case, with g(0) = 1; g(t)**k, the transform of
    a sum of k independent copies, is a one-unit ``sphere`` call.

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
        if t.is_zero:
            self._check(t.prime)
            return complex(1.0, 0.0)
        return self.sphere(t.prime, t.valuation, (t.unit,), t.precision)[0]

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
        if not (0 < self.a < math.inf and 0 < self.alpha < math.inf):
            raise ValueError("need finite a > 0 and alpha > 0")


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
        """-a * p**(alpha * k), or the least float where that leaves the
        float range: a value that underflows, not a certified zero."""
        try:
            log = -self.params.a * float(self.prime) ** (self.params.alpha * k)
        except OverflowError:
            log = -math.inf
        return max(log, -sys.float_info.max)

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

    def folds(self, resolution: int) -> dict:
        """What a RadialSampler of the table at ``resolution`` folds:
        ``zero_mass`` is drawn as the zero at the resolution (the mass
        below n_lo and on the spheres at or below the resolution),
        ``top_tail`` (the mass above n_hi) from the top sphere; ``clamped``
        spheres had a small negative mass set to 0, and every mass is
        within ``error_bound`` of the law's."""
        return {
            "zero_mass": self.mass_at_zero + sum(m for n, m in self.masses if n <= resolution),
            "top_tail": self.tail_above,
            "clamped": list(self.clamped),
            "error_bound": self.error_bound,
        }


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


def __getattr__(name: str):
    """The sampler names the benchmark in perfbench/ reads from this
    module, resolved in :mod:`padicprob.samplers` on first use."""
    if name in ("CompoundPoissonSampler", "RadialSampler", "poisson_draw", "substream"):
        from . import samplers

        return getattr(samplers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
