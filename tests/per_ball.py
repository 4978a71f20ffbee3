"""The per-ball paths of the set kernels, kept as test references.

``CompactOpenSet`` normalisation, ``integrate_char_exact`` and
``measure_mass`` on a set used to go through one helper call per ball:
``Ball.relate`` against every kept ball, one phase and one ``Fraction``
addition per ball, and one mass per ball with the measure's fields read
again each time.  The package now runs each kernel in one loop over the
balls' integer pairs; these are the loops they replaced, so a test can
ask for the same balls, terms, masses and exception texts.
"""

from fractions import Fraction

from padicprob.errors import InfiniteMassError, PrimeMismatchError
from padicprob.padic import CharacterSum, unit_phase
from padicprob.sets import Ball, _haar

_ZERO = Fraction(0)


def normalise(p, balls):
    """The balls CompactOpenSet(p, balls) keeps, in its order: nested ones
    dropped by relate against every kept ball, largest balls first, then
    sorted by the Fraction centres and radii."""
    pool = list(balls)
    for b in pool:
        if b.prime != p:
            raise PrimeMismatchError("mixed primes in set")
    kept = []
    for b in sorted(pool, key=lambda b: (-b.radius_exp, b.center)):
        if not any(b.relate(k) in ("inside", "equal") for k in kept):
            kept.append(b)
    return sorted(kept, key=lambda b: (b.center, b.radius_exp))


def ball_phase(ball, t):
    """The phase chi(t*c) of the integral of chi(t*y) dy over the ball
    B(c, p**N), or None where the integral vanishes (|t| > p**-N)."""
    if ball.prime != t.prime:
        raise PrimeMismatchError("character sums over different primes")
    if t.is_zero:
        if not t.abs_le_exp(-ball.radius_exp):
            return None
        if ball.contains_zero:
            return 0, 0
        return t.mul_rational(ball.center).character_phase()
    if t.valuation < ball.radius_exp:
        return None
    split = ball._center_split
    if split is None:
        return 0, 0
    v, u = split
    return unit_phase(ball.prime, t.valuation + v, t.unit * u, t.precision)


def integrate_char_exact(m, t):
    """One phase and one Fraction addition per ball."""
    balls = [m] if isinstance(m, Ball) else m
    terms = {}
    for b in balls:
        phase = ball_phase(b, t)
        if phase is not None:
            terms[phase] = terms[phase] + b.measure if phase in terms else b.measure
    return CharacterSum(t.prime, terms)


def ball_mass(measure, ball):
    """The mass of one ball, with the measure's fields read for it alone."""
    split = ball._center_split
    if split is None:
        raise InfiniteMassError(
            "the set contains a neighbourhood of 0; total jump mass there "
            "is infinite"
        )
    j, a, b = measure._gamma_split
    p = measure.prime
    cv, cu = split
    r = -cv % j
    k = (-cv - r) // j
    d = -ball.radius_exp - cv
    mod = p**d
    g = a if b == 1 else a * pow(b, -1, mod)
    iu = cu * pow(g, k, mod) % mod
    total = _ZERO
    for q, w in measure.fundamental[r]:
        qd = r - q.radius_exp
        if (iu - q._center_split[1]) % p ** min(d, qd):
            continue
        total = total + (w * _haar(p, qd - d) if d >= qd else w)
    return measure.beta_pow(k) * total


def measure_mass(measure, balls):
    """A set's mass as the sum of ball_mass over its balls, in order."""
    total = _ZERO
    for b in balls:
        total = total + ball_mass(measure, b)
    return total
