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

import numpy as np

from .errors import InfiniteMassError, PrecisionError, ToleranceError
from .padic import (
    CharacterSum,
    DEFAULT_PRECISION,
    PAdicNumber,
    Phase,
    _check_prime,
    split_p_part,
)
from .sets import Ball, CompactOpenSet, TailSet, split_sphere


def _as_gamma_fraction(gamma0, p: int) -> Fraction:
    """Coerce gamma0 to an exact rational.

    A finite-precision number is read as the exact value of its stored
    digit window; the scaling map must be an exact rational so that all
    sphere rotations stay in exact arithmetic.
    """
    if isinstance(gamma0, PAdicNumber):
        if gamma0.prime != p:
            raise ValueError("gamma0 over a different prime")
        return gamma0.as_rational()
    return Fraction(gamma0)


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
        object.__setattr__(
            self, "gamma0", _as_gamma_fraction(self.gamma0, self.prime)
        )
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
                if float(w) < 0:
                    raise ValueError("weights must be nonnegative")
                for other, _ in entries[i + 1:]:
                    if ball.relate(other) != "disjoint":
                        raise ValueError("fundamental balls must be disjoint")
        object.__setattr__(self, "fundamental", fund)

    # -- structure ------------------------------------------------------

    @property
    def j(self) -> int:
        return self._gamma_split[0]

    def beta_pow(self, k: int) -> Fraction | float:
        return self.beta**k

    def fundamental_sphere_mass(self, r: int) -> Fraction | float:
        total: Fraction | float = Fraction(0)
        for _, w in self.fundamental[r]:
            total = total + w
        return total

    def sphere_mass(self, n: int) -> Fraction | float:
        """Mass of the sphere {|x| = p**n}."""
        j = self.j
        r = n % j
        k = (n - r) // j
        return self.beta_pow(k) * self.fundamental_sphere_mass(r)

    def tail_mass(self, i: int) -> Fraction | float:
        """Mass of {|x| > p**i}: an exact geometric series."""
        j = self.j
        total: Fraction | float = Fraction(0)
        one_minus = 1 - self.beta
        for r in range(j):
            fr = self.fundamental_sphere_mass(r)
            if not fr:
                continue
            k_min = -((r - i - 1) // j)  # smallest k with r + k*j >= i + 1
            total = total + fr * self.beta_pow(k_min) / one_minus
        return total

    def is_symmetric(self) -> bool:
        """Invariant under x -> -x (ball-for-ball with equal weights)."""
        for entries in self.fundamental:
            table = {(b.center, b.radius_exp): w for b, w in entries}
            for b, w in entries:
                neg = Ball(self.prime, -b.center, b.radius_exp)
                if table.get((neg.center, neg.radius_exp)) != w:
                    return False
        return True

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
    """Convenience constructor accepting loose types."""
    fund = tuple(
        tuple((ball, w) for ball, w in entries) for entries in fundamental
    )
    return SelfSimilarLevyMeasure(p, beta, _as_gamma_fraction(gamma0, p), fund)


def make_example_measure(a, alpha, p: int) -> SelfSimilarLevyMeasure:
    """The weighted-Haar measure on the unit sphere whose transform is the
    closed form exp(-a |t|^alpha).

    gamma0 = p, beta = p**-alpha, and the unit sphere carries total mass
    a (p**alpha - 1) / (1 - p**(-alpha-1)) times the Haar measure of the
    sphere, spread uniformly; the coefficient stays an exact rational for
    integer alpha.
    """
    _check_prime(p)
    if not (float(a) > 0 and float(alpha) > 0):
        raise ValueError("need a > 0 and alpha > 0")
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


def _ball_mass(measure: SelfSimilarLevyMeasure, ball: Ball) -> Fraction | float:
    if ball.contains_zero:
        raise InfiniteMassError(
            "the set contains a neighbourhood of 0; total jump mass there "
            "is infinite"
        )
    j, a, b = measure._gamma_split
    c_exp = ball.sphere_exp
    r = c_exp % j
    k = (c_exp - r) // j
    # the image under gamma0**k = p**(j*k) * (a/b)**k
    if k >= 0:
        image = ball._scaled(j * k, a**k, b**k)
    else:
        image = ball._scaled(j * k, b**-k, a**-k)
    p = measure.prime
    total: Fraction | float = Fraction(0)
    for q, w in measure.fundamental[r]:
        rel = image.relate(q)
        if rel in ("inside", "equal"):
            total = total + w * Fraction(1, p ** (q.radius_exp - image.radius_exp))
        elif rel == "contains":
            total = total + w
    return measure.beta_pow(k) * total


def measure_mass(measure: SelfSimilarLevyMeasure, m) -> Fraction | float:
    """Exact mass of a compact-open set or of a tail {|x| > p**i}."""
    if isinstance(m, TailSet):
        return measure.tail_mass(m.radius_exp)
    if isinstance(m, Ball):
        return _ball_mass(measure, m)
    if isinstance(m, CompactOpenSet):
        total: Fraction | float = Fraction(0)
        for b in m:
            total = total + _ball_mass(measure, b)
        return total
    raise TypeError(f"no mass for {type(m).__name__}")


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
    """Random disjoint union of balls inside a bounded annulus."""
    balls = []
    for _ in range(int(rng.integers(1, max_balls + 1))):
        n = int(rng.integers(sphere_lo, sphere_hi + 1))
        depth = int(rng.integers(1, 3))
        pool = split_sphere(n, depth, p)
        balls.append(pool[int(rng.integers(0, len(pool)))])
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
    from .charfn import substream

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


class _ExponentTables:
    """Integer data of one measure for :func:`levy_exponent_exact`,
    filled in on first use.

    gamma0 = p**j * a/b with a, b coprime to p, so on the sphere
    n = r + j*k the point t * gamma0**-k has valuation v_t - j*k and unit
    u_t * (b/a)**k, and a fundamental ball of sphere r has centre
    p**-r * c_u.  The phase of t * gamma0**-k * centre is therefore the
    integer u_t * (b/a)**k * c_u taken modulo p**(n - v_t).
    """

    __slots__ = ("measure", "j", "ginv", "_spheres", "_neg_tails")

    def __init__(self, measure: SelfSimilarLevyMeasure):
        self.measure = measure
        self.j, a, b = measure._gamma_split
        self.ginv = (b, a)
        self._spheres: dict[int, tuple] = {}
        self._neg_tails: dict[int, Fraction | float] = {}

    def sphere(self, n: int) -> tuple[int, tuple]:
        """(k, balls) for the sphere n = r + j*k: each ball of nonzero
        weight in fundamental sphere r as (radius_exp, c_u, w * beta**k)."""
        hit = self._spheres.get(n)
        if hit is None:
            m = self.measure
            r = n % self.j
            k = (n - r) // self.j
            beta_k = m.beta_pow(k)
            # a canonical centre of the sphere |x| = p**r is c_u / p**r
            hit = self._spheres[n] = (k, tuple(
                (ball.radius_exp, ball.center.numerator, w * beta_k)
                for ball, w in m.fundamental[r]
                if w
            ))
        return hit

    def neg_tail(self, i: int) -> Fraction | float:
        """-tail_mass(i), the constant term of phi(t) for |t| = p**-i."""
        c = self._neg_tails.get(i)
        if c is None:
            c = self._neg_tails[i] = -self.measure.tail_mass(i)
        return c


def levy_exponent_exact(
    measure: SelfSimilarLevyMeasure,
    t: PAdicNumber,
    tables: _ExponentTables | None = None,
) -> CharacterSum:
    """phi(t) as an exact character sum.

    Only the spheres {|y| > 1/|t|} contribute; on each, the measure is an
    exact rescaling of the fundamental data, so the character part is a
    finite sum of ball averages chi(s * center) * [|s| <= radius bound]
    and the constant part is the closed-form tail mass.  Phases are
    integers modulo p**m (see :class:`_ExponentTables`); a phase that
    needs more digits of t than its window holds raises
    :class:`PrecisionError`.  ``tables`` may be shared between calls on
    the same measure.
    """
    p = measure.prime
    if t.prime != p:
        raise ValueError("t over a different prime")
    if t.is_zero:
        return CharacterSum.zero(p)
    if tables is None:
        tables = _ExponentTables(measure)
    j = tables.j
    tv, tu, precision = t.valuation, t.unit, t.precision
    mod = p**precision
    b, a = tables.ginv
    ginv = b * pow(a, -1, mod) % mod  # the unit of gamma0**-1
    terms: dict[Phase, Fraction | float] = {}
    const = tables.neg_tail(tv)
    if const:
        terms[Phase.zero(p)] = const
    empty_streak = 0
    n = tv + 1
    while empty_streak < j:
        k, balls = tables.sphere(n)
        contributed = False
        sv = tv - j * k  # valuation of t * gamma0**-k
        m = n - tv  # scale of every phase on this sphere
        for radius_exp, cu, c in balls:
            if sv < radius_exp:
                continue
            if precision < m:
                raise PrecisionError(
                    "need %d digits below the unit scale, have %d"
                    % (m, precision)
                )
            contributed = True
            if not c:
                continue
            phase = Phase(p, tu * pow(ginv, k, mod) * cu % p**m, m)
            # weights and beta are positive, so merged terms never cancel
            terms[phase] = terms[phase] + c if phase in terms else c
        empty_streak = 0 if contributed else empty_streak + 1
        n += 1
    return CharacterSum(p, terms)


class LevyExponent:
    """Cached evaluator of phi(t) for a fixed measure.

    One cache keyed by the canonical digit window of t holds the exact
    sum and, once asked for, its complex value; reads dominate and
    correctness does not depend on hits, so instances may be shared.
    """

    def __init__(self, measure: SelfSimilarLevyMeasure):
        self.measure = measure
        self._tables = _ExponentTables(measure)
        # key -> [exact sum, complex value or None]
        self._cache: dict[tuple, list] = {}

    def exact(self, t: PAdicNumber) -> CharacterSum:
        key = (t.valuation, t.unit, t.precision)
        hit = self._cache.get(key)
        if hit is None:
            hit = [levy_exponent_exact(self.measure, t, self._tables), None]
            self._cache[key] = hit
        return hit[0]

    def __call__(self, t: PAdicNumber) -> complex:
        value = self.exact(t)
        hit = self._cache[(t.valuation, t.unit, t.precision)]
        if hit[1] is None:
            hit[1] = value.to_complex()
        return hit[1]


def levy_exponent(measure: SelfSimilarLevyMeasure, t: PAdicNumber) -> complex:
    return levy_exponent_exact(measure, t).to_complex()


def cf_from_levy(measure: SelfSimilarLevyMeasure, t: PAdicNumber) -> complex:
    """exp(phi(t)): a characteristic function value; never 0."""
    return cmath.exp(levy_exponent(measure, t))


class CfEvaluator:
    """Picklable t -> exp(phi(t)) callable."""

    def __init__(self, measure: SelfSimilarLevyMeasure):
        self.exponent = LevyExponent(measure)

    def __call__(self, t: PAdicNumber) -> complex:
        return cmath.exp(self.exponent(t))


# ---------------------------------------------------------------------
# Inversion of the exponent over annuli
# ---------------------------------------------------------------------


def _sphere_units(depth: int, p: int):
    """0 < a < p**depth with p not dividing a, in increasing order: the
    points a * p**-m are the canonical centres of split_sphere(m, depth, p)."""
    return (a for a in range(1, p**depth) if a % p)


def _probe_point(p: int, m: int, a: int) -> PAdicNumber:
    """a * p**-m (a coprime to p) with the default digit window."""
    return PAdicNumber(p, -m, a % p**DEFAULT_PRECISION, DEFAULT_PRECISION)


class _PointCache:
    """phi at the points a * p**-m, keyed by (m, a)."""

    def __init__(self, phi, p: int):
        self.phi = phi
        self.p = p
        self._vals: dict[tuple[int, int], complex] = {}

    def sphere(self, m: int, depth: int) -> dict[int, complex]:
        """{a: phi(a * p**-m)} over ``_sphere_units(depth, p)``."""
        out = {}
        for a in _sphere_units(depth, self.p):
            v = self._vals.get((m, a))
            if v is None:
                v = complex(self.phi(_probe_point(self.p, m, a)))
                self._vals[(m, a)] = v
            out[a] = v
        return out


def _sphere_integral(
    cache: _PointCache, m: int, p: int, refine_cap: int
) -> complex:
    """Integral of phi over the sphere {|t| = p**m} by local-constancy
    quadrature: refine until two successive refinements agree exactly.

    Exact agreement is the right test here: a locally constant evaluator
    returns bit-identical values at points of the same constancy ball.
    """
    prev: dict[int, complex] | None = None
    for depth in range(1, refine_cap + 2):
        vals = cache.sphere(m, depth)
        if prev is not None:
            parent_mod = p ** (depth - 1)
            if all(vals[a] == prev[a % parent_mod] for a in vals):
                haar = float(p) ** (m - (depth - 1))
                return sum(
                    haar * prev[a] for a in sorted(prev)
                )
        prev = vals
    raise ToleranceError(
        f"refinement cap {refine_cap} hit on sphere |t| = p**{m}: "
        "evaluator not locally constant at reachable scale"
    )


_DECAY_WINDOW = 4  # covers magnitude alternation of period up to 4


def _ball_integral(
    cache: _PointCache,
    i: int,
    p: int,
    tol: float,
    refine_cap: int,
    max_spheres: int,
) -> complex:
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
        val = _sphere_integral(cache, m, p, refine_cap)
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
        if -i - m > max_spheres:
            raise ToleranceError(
                f"inner series did not certify tol={tol} within "
                f"{max_spheres} spheres"
            )
        m -= 1
    return total


def invert_exponent(
    phi,
    i: int,
    l: int | float | None,
    p: int,
    tol: float = 1e-10,
    refine_cap: int = 12,
    max_spheres: int = 200,
) -> float:
    """Recover the jump mass of the annulus {p**(i+1) <= |x| <= p**l}
    from the exponent evaluator alone; ``l=None`` (or inf) gives the tail
    {|x| > p**i}.

    The kernel is the inverse transform of the annulus indicator, a
    difference of ball indicators whose transforms carry their Haar
    measures:

        mass = -p**i * integral_{|t| <= p**-i} phi(t) dt
               + p**l * integral_{|t| <= p**-l} phi(t) dt

    (the second term absent for the tail).  Each ball integral uses
    exact local-constancy quadrature per sphere.
    """
    _check_prime(p)
    cache = _PointCache(phi, p)
    scale_i = float(p) ** i
    if l is None or (isinstance(l, float) and math.isinf(l)):
        val = _ball_integral(cache, i, p, tol / scale_i, refine_cap, max_spheres)
        return -scale_i * val.real
    if l < i + 1:
        raise ValueError("empty annulus")
    scale_l = float(p) ** int(l)
    bi = _ball_integral(cache, i, p, tol / (2 * scale_i), refine_cap, max_spheres)
    bl = _ball_integral(
        cache, int(l), p, tol / (2 * scale_l), refine_cap, max_spheres
    )
    return -scale_i * bi.real + scale_l * bl.real


# ---------------------------------------------------------------------
# Two-valued classification
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TwoValuedForm:
    """Outcome of probing |g| for the values {0, 1}.

    kind 'delta': g agrees with a pure character chi(t * xi) on the grid
    (point mass at xi).  kind 'haar_cutoff': |g| is 1 up to |t| = p**N
    and 0 above, i.e. the uniform law on a ball around xi with transform
    chi(t xi) on its support.  Otherwise 'not_two_valued'.
    """

    kind: str
    xi: PAdicNumber | None = None
    cutoff_exp: int | None = None


def _snap_phase(value: complex, p: int, max_scale: int) -> Fraction:
    theta = math.atan2(value.imag, value.real) / (2.0 * math.pi)
    theta %= 1.0
    mod = p**max_scale
    num = round(theta * mod) % mod
    fr = Fraction(num, mod)
    err = abs(theta - float(fr))
    if min(err, 1.0 - err) > 2e-6:
        raise ValueError(
            f"phase {theta} does not snap to a p-power grid at scale {max_scale}"
        )
    return fr


def _probe_depth(p: int, requested: int, per_sphere_cap: int = 512) -> int:
    d = 1
    while (p - 1) * p**d <= per_sphere_cap:
        d += 1
    return max(1, min(requested, d))


def _reconstruct_point(g, p: int, lo: int, hi: int) -> PAdicNumber:
    """Digits of xi from the phases of g at t = p**-m, m in [lo, hi]."""
    phis: dict[int, Fraction] = {}
    for m in range(lo, hi + 1):
        t = _probe_point(p, m, 1)
        phis[m] = _snap_phase(complex(g(t)), p, max(0, m - lo + 2))
    value = Fraction(0)
    for idx in range(lo, hi):
        d = p * phis[idx + 1] - phis[idx]
        if d.denominator != 1 or not 0 <= d <= p - 1:
            raise ValueError(
                "inconsistent phases: no single point reproduces them at "
                "this probe depth"
            )
        value += int(d) * Fraction(p) ** idx
    if value == 0:
        return PAdicNumber.zero(p)
    return PAdicNumber.from_rational(value, p=p)


def classify_two_valued(
    g,
    p: int,
    search_radius_exp: int = 6,
    probe_depth: int = 8,
    tol: float = 1e-9,
) -> TwoValuedForm:
    """Probe |g| on a canonical grid of spheres |t| = p**k for
    k in [-probe_depth, search_radius_exp].

    The verdict is relative to the probed grid: a finite probe can only
    certify two-valuedness where it looked.  Phases are snapped to exact
    p-power rationals before the point xi is rebuilt digit by digit.
    """
    _check_prime(p)
    depth = _probe_depth(p, probe_depth)
    sphere_kind: dict[int, str] = {}
    for k in range(-probe_depth, search_radius_exp + 1):
        kinds = set()
        for a in _sphere_units(depth, p):
            t = _probe_point(p, k, a)
            v = abs(complex(g(t)))
            if abs(v - 1.0) <= tol:
                kinds.add("one")
            elif v <= tol:
                kinds.add("zero")
            else:
                return TwoValuedForm("not_two_valued")
        if len(kinds) != 1:
            return TwoValuedForm("not_two_valued")
        sphere_kind[k] = kinds.pop()

    ks = sorted(sphere_kind)
    ones = [k for k in ks if sphere_kind[k] == "one"]
    if len(ones) == len(ks):
        xi = _reconstruct_point(g, p, -probe_depth, search_radius_exp)
        return TwoValuedForm("delta", xi=xi)
    if not ones:
        raise ValueError(
            "no sphere of modulus one inside the probed grid; cutoff "
            "below probe depth cannot be located"
        )
    cut = max(ones)
    if ones != [k for k in ks if k <= cut]:
        return TwoValuedForm("not_two_valued")
    xi = _reconstruct_point(g, p, -probe_depth, cut)
    return TwoValuedForm("haar_cutoff", xi=xi, cutoff_exp=cut)


# ---------------------------------------------------------------------
# Randomised measures (test and self-check fixtures)
# ---------------------------------------------------------------------


def random_self_similar_measure(
    rng: np.random.Generator,
    p: int | None = None,
    max_j: int = 2,
) -> SelfSimilarLevyMeasure:
    """Measure with rational data: rational beta, gamma0 = unit * p**j,
    and random disjoint weighted balls in each fundamental sphere."""
    if p is None:
        p = (2, 3, 5)[int(rng.integers(0, 3))]
    j = int(rng.integers(1, max_j + 1))
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
