"""Self-similar jump measures, their exact exponents and transforms,
inversion of the exponent over annuli, and two-valued classification of
characteristic functions.

A measure here is weighted Haar on finitely many balls inside each of the
fundamental spheres S_0 .. S_{j-1} (where |gamma0| = p**-j), extended to
all of Q_p minus the origin by the scaling law

    Phi(M) = beta * Phi(gamma0 * M),        0 < beta < 1.

Masses of compact-open sets are exact (rational whenever beta and the
weights are rational): sets decompose by spheres, spheres map onto the
fundamental ones by exact powers of gamma0, and the tail towards infinity
is a closed-form geometric series.  The exponent

    phi(t) = integral of (chi(t*y) - 1) dPhi(y)

is likewise a finite exact character sum: the character factor dies on
all but finitely many spheres, and the constant part is the tail mass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .charfn import StableParams, Transform, TwoValuedForm
from .errors import InfiniteMassError, PrimeMismatchError, ToleranceError
from .padic import (
    CharacterSum,
    DEFAULT_PRECISION,
    PAdicNumber,
    _check_prime,
    _integral_exp,
    _inverse,
    phase_scale,
    split_p_part,
)
from .sets import _ZERO, Ball, CompactOpenSet, TailSet, _haar, split_sphere

if TYPE_CHECKING:
    import numpy as np


@lru_cache(maxsize=1)
def _generation() -> object:
    """A new token each time the package's lru_caches are cleared; a memo
    kept on a measure is dropped once the token it was filled under is
    gone, so clearing the caches leaves no warm memo behind."""
    return object()


@dataclass(frozen=True)
class SelfSimilarLevyMeasure:
    """Weighted-Haar data on the fundamental spheres plus the scaling law.

    ``fundamental[r]`` lists (ball, weight) pairs with each ball inside
    the sphere {|x| = p**r}; ``weight`` is the total mass the measure puts
    on that ball, spread Haar-uniformly over it.
    """

    prime: int
    beta: Fraction | float
    gamma0: Fraction
    fundamental: tuple[tuple[tuple[Ball, Fraction | float], ...], ...]

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        # an exact rational, so that all sphere rotations stay exact
        object.__setattr__(self, "gamma0", Fraction(self.gamma0))
        if self.gamma0 == 0:
            raise ValueError("gamma0 must be nonzero")
        if not 0 < float(self.beta) < 1:
            raise ValueError("beta must lie in (0, 1)")
        # gamma0 = p**j * a/b with a, b coprime to p, split once
        object.__setattr__(
            self, "_gamma_split", split_p_part(self.gamma0, self.prime)
        )
        j = self.j
        if j < 1:
            raise ValueError("need 0 < |gamma0|_p <= 1/p")
        fund = tuple(
            tuple((ball, w) for ball, w in entries)
            for entries in self.fundamental
        )
        if len(fund) != j:
            raise ValueError(
                f"fundamental data must cover spheres 0..{j - 1}"
            )
        for r, entries in enumerate(fund):
            for i, (ball, w) in enumerate(entries):
                if ball.prime != self.prime:
                    raise ValueError("ball over a different prime")
                if ball.sphere_exp != r:
                    raise ValueError(
                        f"ball {ball} is not inside the sphere |x| = p**{r}"
                    )
                if ball.radius_exp > r - 1:
                    raise ValueError("fundamental ball too large for its sphere")
                if isinstance(w, bool):
                    raise ValueError(f"a bool is not a rational: {w!r}")
                if w < 0:
                    raise ValueError("weights must be nonnegative")
                if not w < math.inf:
                    raise ValueError("weights must be finite")
                for other, _ in entries[i + 1:]:
                    if ball.relate(other) != "disjoint":
                        raise ValueError("fundamental balls must be disjoint")
        object.__setattr__(self, "fundamental", fund)
        masses = []
        for entries in fund:
            total: Fraction | float = _ZERO
            for _, w in entries:
                total = total + w
            masses.append(total)
        object.__setattr__(self, "_sphere_masses", tuple(masses))
        object.__setattr__(self, "_one_minus_beta", 1 - self.beta)
        object.__setattr__(self, "_rational", isinstance(self.beta, Fraction) and all(
            isinstance(w, (int, Fraction)) for entries in fund for _, w in entries
        ))
        object.__setattr__(self, "_beta_powers", (None, {}))

    # -- structure ------------------------------------------------------

    @property
    def j(self) -> int:
        return self._gamma_split[0]

    def beta_pow(self, k: int) -> Fraction | float:
        """beta**k, memoised on the measure (see :func:`_generation`)."""
        token, powers = self._beta_powers
        if token is not _generation():
            powers = {}
            object.__setattr__(self, "_beta_powers", (_generation(), powers))
        hit = powers.get(k)
        if hit is None:
            hit = powers[k] = self.beta**k
        return hit

    def tail_mass(self, i: int) -> Fraction | float:
        """Mass of {|x| > p**i}: an exact geometric series."""
        j = self.j
        total: Fraction | float = _ZERO
        for r, fr in enumerate(self._sphere_masses):
            if not fr:
                continue
            k_min = -((r - i - 1) // j)  # smallest k with r + k*j >= i + 1
            total = total + fr * self.beta_pow(k_min) / self._one_minus_beta
        return total

    def is_radial(self) -> bool:
        """Sufficient check: each fundamental sphere carries the full
        equal-depth split with equal weights, hence unit-rotation
        invariance."""
        for r, entries in enumerate(self.fundamental):
            if not entries:
                continue
            depths = {r - b.radius_exp for b, _ in entries}
            weights = {w for _, w in entries}
            if len(depths) != 1 or len(weights) != 1:
                return False
            d = depths.pop()
            if len(entries) != (self.prime - 1) * self.prime ** (d - 1):
                return False
        return True


def make_measure(p, beta, gamma0, fundamental) -> SelfSimilarLevyMeasure:
    """Convenience constructor accepting loose types (the measure itself
    coerces gamma0 and the fundamental data)."""
    return SelfSimilarLevyMeasure(p, beta, gamma0, fundamental)


def make_example_measure(a, alpha, p: int) -> SelfSimilarLevyMeasure:
    """The weighted-Haar measure on the unit sphere whose transform is the
    closed form exp(-a |t|^alpha).

    gamma0 = p, beta = p**-alpha, and the unit sphere carries total mass
    a (p**alpha - 1) / (1 - p**(-alpha-1)) times the Haar measure of the
    sphere, spread uniformly; the coefficient stays an exact rational for
    integer alpha.
    """
    StableParams(a, alpha, p)  # the one check of p, a and alpha
    if float(alpha).is_integer():
        # p**alpha is rational, so the whole construction stays exact
        pa = Fraction(p) ** int(alpha)
        coeff = Fraction(a) * (pa - 1) / (1 - Fraction(1) / (pa * p))
        beta: Fraction | float = 1 / pa
        weight: Fraction | float = coeff / p
    else:
        pa = float(p) ** float(alpha)
        coeff = float(a) * (pa - 1.0) / (1.0 - float(p) ** (-float(alpha) - 1.0))
        beta = float(p) ** (-float(alpha))
        weight = coeff / p
    balls = split_sphere(0, 1, p)
    return SelfSimilarLevyMeasure(
        p, beta, Fraction(p), (tuple((b, weight) for b in balls),)
    )


# ---------------------------------------------------------------------
# Exact masses
# ---------------------------------------------------------------------


def measure_mass(measure: SelfSimilarLevyMeasure, m) -> Fraction | float:
    """Exact mass of a compact-open set or of a tail {|x| > p**i}.

    A ball's mass is decided on integers.  The ball B(p**-c * cu, p**R) on
    the sphere c = r + j*k keeps d = c - R digits of its unit.  Its image
    under gamma0**k lies in the fundamental sphere r and keeps d digits of
    the unit cu * (a/b)**k.  A fundamental ball there, with qd digits of
    its unit, meets the image iff the two units agree on their first
    min(d, qd) digits; it then holds the image (d >= qd), which takes
    p**(qd - d) of its weight, or lies inside it and gives all of it.

    The measure's fields are read once for the whole set.  Each ball's
    mass is beta**k times the sum of its shares.  Rational data sums them
    as integer pairs and builds one Fraction, the canonical per-ball sum;
    float data adds shares and masses in order, keeping bits and type.
    """
    if not isinstance(m, (Ball, CompactOpenSet, TailSet)):
        raise TypeError(f"no mass for {type(m).__name__}")
    if m.prime != measure.prime:
        raise PrimeMismatchError("set over a different prime")
    if isinstance(m, TailSet):
        return measure.tail_mass(m.radius_exp)
    p, (j, a, b) = measure.prime, measure._gamma_split
    fundamental, beta_pow = measure.fundamental, measure.beta_pow
    single, rational = isinstance(m, Ball), measure._rational
    total, num, den = _ZERO, 0, 1  # rational data: the total is num / den
    for ball in (m,) if single else m.balls:
        split = ball._center_split
        if split is None:
            raise InfiniteMassError(
                "the set contains a neighbourhood of 0; total jump mass there "
                "is infinite"
            )
        cv, cu = split
        r = -cv % j
        k = (-cv - r) // j
        d = -ball.radius_exp - cv
        mod = p**d
        g = a if b == 1 else a * _inverse(b, p, d)  # the unit of gamma0, mod p**d
        iu = cu * pow(g, k, mod) % mod
        shares, sn, sd = _ZERO, 0, 1  # rational data: the shares are sn / sd
        for q, w in fundamental[r]:
            qd = r - q.radius_exp
            if (iu - q._center_split[1]) % p ** min(d, qd):
                continue
            if rational:
                sn, sd = _add_ratio(sn, sd, w.numerator, w.denominator * p ** max(d - qd, 0))
            else:
                shares = shares + (w * _haar(p, qd - d) if d >= qd else w)
        if not rational:
            mass = beta_pow(k) * shares
            total = total + mass
        elif sn:
            bk = beta_pow(k)
            num, den = _add_ratio(num, den, bk.numerator * sn, bk.denominator * sd)
    if rational:
        return Fraction(num, den)
    return mass if single else total


def _add_ratio(n: int, d: int, an: int, ad: int) -> tuple[int, int]:
    """n/d + an/ad as a pair of integers, not reduced."""
    return (n + an, d) if d == ad else (n * ad + an * d, d * ad)


@dataclass(frozen=True)
class ScalingReport:
    trials: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def random_compact_open(
    rng: np.random.Generator,
    p: int,
    sphere_lo: int = -3,
    sphere_hi: int = 3,
    max_balls: int = 4,
) -> CompactOpenSet:
    """Random disjoint union of balls inside a bounded annulus.

    Each ball is drawn as an index into split_sphere(n, depth, p), whose
    (p - 1) * p**(depth - 1) balls are centred at a * p**-n for the a
    below p**depth that p does not divide, in increasing order: index i
    is a = (i // (p - 1)) * p + i % (p - 1) + 1."""
    _check_prime(p)
    balls = []
    for _ in range(int(rng.integers(1, max_balls + 1))):
        n = int(rng.integers(sphere_lo, sphere_hi + 1))
        depth = int(rng.integers(1, 3))
        i = int(rng.integers(0, (p - 1) * p ** (depth - 1)))
        a = i // (p - 1) * p + i % (p - 1) + 1
        balls.append(Ball._of(p, (-n, a, 1), n - depth))
    return CompactOpenSet(p, balls)


def validate_scaling(
    measure: SelfSimilarLevyMeasure,
    trials: int = 40,
    seed: int = 0,
) -> ScalingReport:
    """Check mass(M) == beta * mass(gamma0 * M) on random compact opens.

    With rational data both sides are exact rationals and the comparison
    is equality; float data is compared to 1e-12 relative.
    """
    from .samplers import substream

    rng = substream(seed, 97)
    failures = []
    for i in range(trials):
        m = random_compact_open(rng, measure.prime)
        lhs = measure_mass(measure, m)
        rhs = measure.beta * measure_mass(measure, m.scale(measure.gamma0))
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            ok = lhs == rhs
        else:
            scale = max(abs(float(lhs)), abs(float(rhs)), 1e-30)
            ok = abs(float(lhs) - float(rhs)) <= 1e-12 * scale
        if not ok:
            failures.append(f"trial {i}: {m}: {lhs} != beta * {rhs}")
    return ScalingReport(trials=trials, failures=tuple(failures))


# ---------------------------------------------------------------------
# Exponent and transform
# ---------------------------------------------------------------------


class LevyExponent:
    """The evaluator of phi(t) for a fixed measure, with its caches.

    gamma0 = p**j * a/b with a, b coprime to p, so on the sphere
    n = r + j*k the point t * gamma0**-k has valuation v_t - j*k and unit
    u_t * (b/a)**k, and a fundamental ball of sphere r has centre
    p**-r * c_u.  The phase of t * gamma0**-k * centre is therefore the
    integer u_t * (b/a)**k * c_u taken modulo p**(n - v_t).  Those
    integer tables of each sphere, and the tail masses, are filled in
    on first use.

    A ball of sphere r with radius p**R adds terms only at phase scales
    up to r - R, so phi(p**v * u) depends on u modulo p**D alone, D the
    deepest r - R over the balls of nonzero weight (at least 1).  One
    cache keyed by (prime, v, u mod p**D, precision) holds the exact sum
    and, once asked for, its complex value: the units of one residue
    class share one entry, bit for bit what each gives alone.  The
    precision stays in the key, so a window too short for the kernel
    misses and raises whatever the cache holds.  Reads dominate and
    correctness does not depend on hits, so instances may be shared.
    ``sphere_exact`` and ``sphere`` give phi at the points p**v * u of one
    sphere, computing the residue classes the cache lacks with one kernel
    call; ``exact`` and ``__call__`` are their one-point cases, with
    phi(0) = 0.  A point over another prime always misses, and the
    kernel refuses it.

    ``sphere_integrals`` holds each sphere integral of
    :func:`invert_exponent` keyed by the sphere m; the points they
    probe stay in the one cache above.  It lives as long as this
    evaluator (a fresh LevyExponent starts empty), refers back to
    nothing, and changes no bit of any inversion.
    """

    def __init__(self, measure: SelfSimilarLevyMeasure):
        self.measure = measure
        self._spheres: dict[int, tuple] = {}
        self._neg_tails: dict[int, Fraction | float] = {}
        # a ball B(p**-r * c, p**R) adds a term on the sphere n only when
        # n <= v + r - R, at the phase scale n - v <= r - R
        depth = max(
            (r - ball.radius_exp
             for r, entries in enumerate(measure.fundamental)
             for ball, w in entries if w),
            default=1,
        )
        self._residue_mod = measure.prime**depth
        # (p, v, u mod p**depth, precision) -> [exact sum, complex value or None]
        self._cache: dict[tuple, list] = {}
        self.sphere_integrals: dict[int, complex] = {}

    def _kernel(
        self, p: int, v: int, units: Sequence[int], precision: int
    ) -> list[CharacterSum]:
        """phi(p**v * u) as an exact character sum, for each unit u in
        ``units`` (coprime to p, below p**precision; one or more).

        Only the spheres {|y| > p**v} contribute; on each, the measure is
        an exact rescaling of the fundamental data, so the character part
        is a finite sum of ball averages chi(s * center) * [|s| <= radius
        bound] and the constant part is the closed-form tail mass.  The
        spheres and which balls meet them depend on v alone, so they are
        walked once for all the units, and each unit gets each ball's
        phase, an integer modulo p**m, with one multiply-mod.  A ball that
        needs more digits than the window holds raises
        :class:`PrecisionError`, whatever its weight.
        """
        measure = self.measure
        if p != measure.prime:
            raise PrimeMismatchError("t over a different prime")
        j, a, b = measure._gamma_split
        mod = p**precision
        ginv = b * pow(a, -1, mod) % mod  # the unit of gamma0**-1
        # the constant term -tail_mass(v); then each term as (scale m,
        # p**m, f, coefficient): the unit u has the phase u * f mod p**m
        # there, and the constant term is f = 0 mod 1
        const = self._neg_tails.get(v)
        if const is None:
            const = self._neg_tails[v] = -measure.tail_mass(v)
        gens: list[tuple] = [(0, 1, 0, const)] if const else []
        empty_streak = 0
        n = v + 1
        while empty_streak < j:
            # (k, balls) for the sphere n = r + j*k: each ball of nonzero
            # weight in fundamental sphere r as (radius_exp, c_u, w * beta**k),
            # where c_u / p**r is a canonical centre of the ball
            hit = self._spheres.get(n)
            if hit is None:
                r = n % j
                k = (n - r) // j
                beta_k = measure.beta_pow(k)
                hit = self._spheres[n] = (k, tuple(
                    (ball.radius_exp, ball._center_split[1], w * beta_k)
                    for ball, w in measure.fundamental[r]
                    if w
                ))
            k, balls = hit
            sv = v - j * k  # valuation of t * gamma0**-k
            at: dict[int, int] = {}  # f -> index in gens, on this sphere
            # the phase scale m of this sphere and p**m, found at the first
            # ball within its radius bound (a short window raises there)
            m = gk = None
            for radius_exp, cu, c in balls:
                if sv < radius_exp:
                    continue
                if m is None:
                    m = phase_scale(-(n - v), precision)
                    q = p**m
                if not c:
                    continue
                if gk is None:
                    gk = pow(ginv, k, mod)  # the unit of gamma0**-k
                f = gk * cu % q
                # balls with equal f give every unit one phase; weights and
                # beta are positive, so merged terms never cancel
                i = at.get(f)
                if i is None:
                    at[f] = len(gens)
                    gens.append((m, q, f, c))
                else:
                    gens[i] = (m, q, f, gens[i][3] + c)
            empty_streak = 0 if m is not None else empty_streak + 1
            n += 1
        # every coefficient is nonzero, and p is the measure's prime
        return [
            CharacterSum._own(p, {(m, u * f % q): c for m, q, f, c in gens})
            for u in units
        ]

    def _entries(self, p: int, v: int, units: Sequence[int], precision: int) -> list[list]:
        cache = self._cache
        mod = self._residue_mod
        keys = [(p, v, u % mod, precision) for u in units]
        missing = list(dict.fromkeys(key[2] for key in keys if key not in cache))
        if missing:
            sums = self._kernel(p, v, missing, precision)
            for u, value in zip(missing, sums):
                cache[p, v, u, precision] = [value, None]
        return [cache[key] for key in keys]

    def sphere_exact(
        self, p: int, v: int, units: Sequence[int], precision: int
    ) -> list[CharacterSum]:
        return [hit[0] for hit in self._entries(p, v, units, precision)]

    def sphere(self, p: int, v: int, units: Sequence[int], precision: int) -> list[complex]:
        out = []
        for hit in self._entries(p, v, units, precision):
            if hit[1] is None:
                hit[1] = hit[0].to_complex()
            out.append(hit[1])
        return out

    def exact(self, t: PAdicNumber) -> CharacterSum:
        if t.is_zero:
            if t.prime != self.measure.prime:
                raise PrimeMismatchError("t over a different prime")
            return CharacterSum(t.prime)
        return self.sphere_exact(t.prime, t.valuation, (t.unit,), t.precision)[0]

    def __call__(self, t: PAdicNumber) -> complex:
        if t.is_zero:
            return self.exact(t).to_complex()
        return self.sphere(t.prime, t.valuation, (t.unit,), t.precision)[0]


def levy_exponent_exact(measure: SelfSimilarLevyMeasure, t: PAdicNumber) -> CharacterSum:
    """phi(t) as an exact character sum, from a fresh :class:`LevyExponent`."""
    return LevyExponent(measure).exact(t)


@dataclass(frozen=True)
class JumpMeasure(Transform):
    """exp(phi(t)) for a self-similar jump measure, with phi from the one
    cached LevyExponent the transform holds (``fresh`` starts a new one).

    It is radial when the measure is.  On spheres it reads ``closed_form``
    when given, a radial transform equal to it (the stable law whose
    measure make_example_measure builds), and exp(phi(p**-k)) otherwise.
    """

    measure: SelfSimilarLevyMeasure
    closed_form: Transform | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prime", self.measure.prime)
        object.__setattr__(self, "is_radial", self.measure.is_radial())
        object.__setattr__(self, "exponent", LevyExponent(self.measure))

    def fresh(self) -> "JumpMeasure":
        return JumpMeasure(self.measure, self.closed_form)

    def sphere(
        self, p: int, v: int, units: Sequence[int], precision: int, k: int | None = None
    ) -> list[complex]:
        """exp(phi) on the sphere, from the exponent's cached values; the
        k-th power scales each exact sum by k, so that where beta**-1 is
        an integer the sum of k(n) summands reproduces the limit bit for
        bit.  Units of one residue class share one cached sum, whose
        power is taken once per call."""
        self._check(p)
        if k is None:
            return [cmath.exp(z) for z in self.exponent.sphere(p, v, units, precision)]
        powered: dict[int, complex] = {}
        out = []
        for value in self.exponent.sphere_exact(p, v, units, precision):
            z = powered.get(id(value))
            if z is None:
                z = powered[id(value)] = cmath.exp(value.scale(k).to_complex())
            out.append(z)
        return out

    def log_modulus(self, t: PAdicNumber) -> float:
        """Re phi(t): finite everywhere, as exp(phi) has no zero."""
        self._check(t.prime)
        return 0.0 if t.is_zero else self.exponent(t).real

    def radial_value(self, k: int) -> float:
        if self.closed_form is not None:
            return self.closed_form.radial_value(k)
        if not self.is_radial:
            raise ValueError("sphere data is not rotation-invariant; radial "
                             "evaluation would be unsound")
        return super().radial_value(k)


# ---------------------------------------------------------------------
# Inversion of the exponent over annuli
# ---------------------------------------------------------------------


def _sphere_units(depth: int, p: int):
    """0 < a < p**depth with p not dividing a, in increasing order: the
    points a * p**-m are the canonical centres of split_sphere(m, depth, p)."""
    return (a for a in range(1, p**depth) if a % p)


def _probe_sphere(g, p: int, m: int, units: list[int]) -> list[complex]:
    """g at the probe points a * p**-m, a in ``units``, in order, read in
    one call of g's sphere evaluator (a Transform, a LevyExponent, the law
    of S_n), which raises what its first point would."""
    mod = p**DEFAULT_PRECISION
    return g.sphere(p, -m, [a % mod for a in units], DEFAULT_PRECISION)


# the deepest refinement a sphere integral tries beyond its first, and the
# most inner spheres a ball integral sums past its own
REFINE_CAP = 12
MAX_SPHERES = 200
# the tolerance on a recovered mass when the caller states none
INVERT_TOL = 1e-10


def _sphere_integral(phi, spheres: dict[int, complex], m: int, p: int) -> complex:
    """Integral of phi over the sphere {|t| = p**m} by local-constancy
    quadrature: refine until two successive refinements agree exactly.

    Exact agreement is the right test here: a locally constant evaluator
    returns bit-identical values at points of the same constancy ball.
    Each depth reads only the units new at it in one sphere call, so
    phi is asked for each point once.  The result depends on (phi, m)
    alone, so it is memoised in ``spheres`` under m.
    """
    done = spheres.get(m)
    if done is not None:
        return done
    vals: dict[int, complex] = {}
    for depth in range(1, REFINE_CAP + 2):
        lo = p ** (depth - 1)
        new = [a for a in range(lo, p * lo) if a % p]
        vals.update(zip(new, _probe_sphere(phi, p, m, new)))
        # the units below lo are the previous refinement's
        if depth > 1 and all(vals[a] == vals[a % lo] for a in new):
            haar = float(p) ** (m - (depth - 1))
            done = spheres[m] = sum(
                haar * vals[a] for a in _sphere_units(depth - 1, p)
            )
            return done
    raise ToleranceError(
        f"refinement cap {REFINE_CAP} hit on sphere |t| = p**{m}: "
        "evaluator not locally constant at reachable scale"
    )


_DECAY_WINDOW = 4  # covers magnitude alternation of period up to 4


def _ball_integral(phi, spheres: dict[int, complex], i: int, p: int, tol: float) -> complex:
    """Integral of phi over the ball {|t| <= p**-i}: an inner-sphere
    series, truncated once the per-sphere integrals exhibit geometric
    decay.

    Magnitudes may alternate with the period of the scaling law, so the
    decay test compares maxima of consecutive windows rather than single
    spheres; the dropped tail is bounded by the observed window decay
    with a 1.5x safety factor on the ratio.  phi vanishes geometrically
    towards 0 for every measure in the supported class, so the loop
    terminates.
    """
    w = _DECAY_WINDOW
    total = complex(0.0, 0.0)
    mags: list[float] = []
    m = -i
    while True:
        val = _sphere_integral(phi, spheres, m, p)
        total += val
        mags.append(abs(val))
        if len(mags) >= w and all(x == 0.0 for x in mags[-w:]):
            break
        if len(mags) >= 2 * w:
            w_now = max(mags[-w:])
            w_prev = max(mags[-2 * w:-w])
            if 0.0 < w_now < w_prev:
                q = min(0.95, 1.5 * (w_now / w_prev))
                # remaining windows bounded by w * w_now * q / (1 - q)
                bound = w * w_now * q / (1.0 - q)
                if bound <= tol / 2 and w_now <= tol / 2:
                    break
        if -i - m > MAX_SPHERES:
            raise ToleranceError(
                f"inner series did not certify tol={tol} within "
                f"{MAX_SPHERES} spheres"
            )
        m -= 1
    return total


def invert_exponent(
    phi,
    i: int,
    l: int | float | None,
    p: int,
    tol: float = INVERT_TOL,
) -> float:
    """Recover the jump mass of the annulus {p**(i+1) <= |x| <= p**l}
    from the exponent evaluator alone; ``l=None`` (or inf) gives the tail
    {|x| > p**i}.  ``i`` and a finite ``l`` must be integers (an
    integral float counts as its int); any other bound raises ValueError.

    The kernel is the inverse transform of the annulus indicator, a
    difference of ball indicators whose transforms carry their Haar
    measures:

        mass = -p**i * integral_{|t| <= p**-i} phi(t) dt
               + p**l * integral_{|t| <= p**-l} phi(t) dt

    (the second term absent for the tail).  Each ball integral is an
    inner series of sphere integrals, each by exact local-constancy
    quadrature.

    When phi is a :class:`LevyExponent`, every finished sphere integral
    is kept on it (``sphere_integrals``) for as long as phi lives, and
    its exponent cache keeps every probed value once per residue class
    of the unit (see LevyExponent), so a refinement deeper than the
    measure's balls computes no new sum, and the balls of later calls on
    the same phi reuse the spheres of earlier ones (ball(i) is sphere(-i)
    together with ball(i+1)).  A sphere integral depends only
    on phi and the sphere, and the ball series sums the
    spheres in the same order, so every result is bit for bit what a
    fresh phi gives.  Any other evaluator gets a dict of sphere
    integrals for this call only.  ``tol`` must be > 0.

    phi is read through its sphere evaluator, ``sphere(p, v, units,
    precision)`` with the values phi gives at the points p**v * u (a
    LevyExponent, a Transform): each refinement of a sphere is one call.
    """
    _check_prime(p)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    spheres = phi.sphere_integrals if isinstance(phi, LevyExponent) else {}
    i = _integral_exp("i", i)
    scale_i = float(p) ** i
    if l is None or l == math.inf:
        val = _ball_integral(phi, spheres, i, p, tol / scale_i)
        return -scale_i * val.real
    l = _integral_exp("l", l)
    if l < i + 1:
        raise ValueError("empty annulus")
    scale_l = float(p) ** l
    bi = _ball_integral(phi, spheres, i, p, tol / (2 * scale_i))
    bl = _ball_integral(phi, spheres, l, p, tol / (2 * scale_l))
    return -scale_i * bi.real + scale_l * bl.real


# ---------------------------------------------------------------------
# Two-valued classification
# ---------------------------------------------------------------------


# the spheres |t| = p**k, k in [-PROBE_DEPTH, SEARCH_RADIUS_EXP], on which
# classification reads a form when the caller states none
SEARCH_RADIUS_EXP = 6
PROBE_DEPTH = 8


def classify_two_valued(
    g,
    p: int,
    search_radius_exp: int = SEARCH_RADIUS_EXP,
    probe_depth: int = PROBE_DEPTH,
) -> TwoValuedForm:
    """The two-valued form of g on the spheres |t| = p**k, k in
    [-probe_depth, search_radius_exp], read from g's exact ``form``; no
    value of g is evaluated.

    A transform with no form (a stable law, a jump measure, a
    LevyExponent) is 'not_two_valued'.  Otherwise, with cutoff N (None
    for a delta), the form on those spheres is a 'delta' when N is None
    or N >= search_radius_exp, and a 'haar_cutoff' at N below that, with
    xi modulo p**min(N, search_radius_exp) (TwoValuedForm.window).
    Raises ValueError when the range holds no sphere, when N <
    -probe_depth (no sphere of modulus one), or when xi has a digit
    below p**-probe_depth, which no sphere in the range reads; and
    PrecisionError when xi is not known to the digits the range reads.
    """
    _check_prime(p)
    if search_radius_exp < -probe_depth:
        raise ValueError(f"radius {search_radius_exp} < -{probe_depth} probes no sphere")
    form = getattr(g, "form", None)
    if form is None:
        return TwoValuedForm("not_two_valued")
    if form.xi.prime != p:
        raise PrimeMismatchError(f"form over p={form.xi.prime} classified over p={p}")
    cut = form.cutoff_exp
    if cut is not None and cut < -probe_depth:
        raise ValueError(
            "no sphere of modulus one inside the probed grid; cutoff "
            "below probe depth cannot be located"
        )
    window = form.window(search_radius_exp)
    if window.sphere_exp is not None and window.sphere_exp > probe_depth:
        raise ValueError(
            f"xi has a digit below the probe depth {probe_depth}: |xi| = "
            f"p**{window.sphere_exp}"
        )
    xi = (
        PAdicNumber.zero(p) if window.contains_zero
        else PAdicNumber.from_rational(window.center, p=p)
    )
    if window.radius_exp == -search_radius_exp:
        return TwoValuedForm("delta", xi=xi)
    return TwoValuedForm("haar_cutoff", xi=xi, cutoff_exp=cut)


# ---------------------------------------------------------------------
# Randomised measures (test and self-check fixtures)
# ---------------------------------------------------------------------


RANDOM_MAX_J = 2


def random_self_similar_measure(
    rng: np.random.Generator, p: int | None = None
) -> SelfSimilarLevyMeasure:
    """Measure with rational data: rational beta, gamma0 = unit * p**j
    with 1 <= j <= RANDOM_MAX_J, and random disjoint weighted balls in
    each fundamental sphere."""
    if p is None:
        p = (2, 3, 5)[int(rng.integers(0, 3))]
    j = int(rng.integers(1, RANDOM_MAX_J + 1))
    den = int(rng.integers(3, 10))
    num = int(rng.integers(1, den))
    beta = Fraction(num, den)
    units = [Fraction(1), Fraction(1 + p), Fraction(1, 1 + p)]
    gamma0 = Fraction(p) ** j * units[int(rng.integers(0, len(units)))]
    fundamental = []
    for r in range(j):
        depth = int(rng.integers(1, 3))
        pool = split_sphere(r, depth, p)
        count = int(rng.integers(1, min(len(pool), 3) + 1))
        picks = sorted(rng.choice(len(pool), size=count, replace=False).tolist())
        entries = tuple(
            (pool[idx], Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            for idx in picks
        )
        fundamental.append(entries)
    return SelfSimilarLevyMeasure(p, beta, gamma0, tuple(fundamental))
