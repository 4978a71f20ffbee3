"""The Fraction paths of the ball algebra, kept as test oracles.

Balls used to be built, scaled, related and integrated over through
exact rational centres; the package now does all of it on the integer
centre split (v, u).  Here an oracle ball is the tuple

    (prime, center, radius_exp, split)

that ``Ball`` stores, computed from Fractions alone, so a test compares
``state(Ball(...))`` with an oracle ball by ``==``.
"""

from fractions import Fraction

from padicprob.errors import InfiniteMassError, PrecisionError, PrimeMismatchError
from padicprob.padic import (
    CharacterSum,
    PAdicNumber,
    _check_prime,
    rational_valuation,
    split_p_part,
)


def state(ball):
    return (ball.prime, ball.center, ball.radius_exp, ball._center_split)


def ball(p, center, radius_exp):
    """Ball(p, center, radius_exp) by reducing a Fraction center."""
    _check_prime(p)
    if isinstance(center, PAdicNumber):
        if center.prime != p:
            raise PrimeMismatchError("ball center over a different prime")
        if center.known_mod_exp < -radius_exp:
            raise PrecisionError(
                "center known modulo p**%s but the ball needs digits up to "
                "p**%d" % (center.known_mod_exp, -radius_exp)
            )
        center = center.as_rational()
    c = Fraction(center)
    split = None
    if c != 0:
        v, a, b = split_p_part(c, p)
        if v < -radius_exp:
            mod = p ** (-radius_exp - v)
            split = (v, (a * pow(b, -1, mod)) % mod)
    canonical = (
        Fraction(0) if split is None
        else Fraction(split[1]) * Fraction(p) ** split[0]
    )
    return (p, canonical, int(radius_exp), split)


def measure(b) -> Fraction:
    return Fraction(b[0]) ** b[2]


def split_sphere(n, depth, p):
    scale = Fraction(p) ** (-n)
    return [ball(p, a * scale, n - depth) for a in range(1, p**depth) if a % p]


def contains_rational(b, r) -> bool:
    p, c, radius_exp, _ = b
    d = Fraction(r) - c
    return d == 0 or rational_valuation(d, p) >= -radius_exp


def relate(x, y) -> str:
    if x[0] != y[0]:
        raise PrimeMismatchError("balls over different primes")
    if x[2] == y[2]:
        return "equal" if x[1] == y[1] else "disjoint"
    big, small = (x, y) if x[2] > y[2] else (y, x)
    if not contains_rational(big, small[1]):
        return "disjoint"
    return "inside" if small is x else "contains"


def scale(b, r):
    r = Fraction(r)
    if r == 0:
        raise ValueError("cannot scale a ball by zero")
    p, c, radius_exp, _ = b
    return ball(p, c * r, radius_exp - rational_valuation(r, p))


def char_exact(b, t: PAdicNumber) -> CharacterSum:
    """The integral of chi(t*y) dy over one ball, through mul_rational and
    character_phase."""
    p, c, radius_exp, _ = b
    if not t.abs_le_exp(-radius_exp):
        return CharacterSum(p)
    if c == 0:
        phase = (0, 0)
    else:
        phase = t.mul_rational(c).character_phase()
    return CharacterSum(p, {phase: measure(b)})


def integrate_char_exact(balls, t: PAdicNumber) -> CharacterSum:
    """One CharacterSum added per ball, for balls over the prime of t."""
    total = CharacterSum(t.prime)
    for b in balls:
        total = total + char_exact(b, t)
    return total


def ball_mass(m, b):
    """levy._ball_mass with gamma0**k built as a Fraction."""
    p, c, _, split = b
    if c == 0:
        raise InfiniteMassError(
            "the set contains a neighbourhood of 0; total jump mass there "
            "is infinite"
        )
    j = rational_valuation(m.gamma0, p)
    c_exp = -split[0]
    r = c_exp % j
    k = (c_exp - r) // j
    image = scale(b, m.gamma0**k)
    total = Fraction(0)
    for q, w in m.fundamental[r]:
        q = state(q)
        rel = relate(image, q)
        if rel in ("inside", "equal"):
            total = total + w * (measure(image) / measure(q))
        elif rel == "contains":
            total = total + w
    return m.beta_pow(k) * total


def measure_mass(m, balls):
    total = Fraction(0)
    for b in balls:
        total = total + ball_mass(m, b)
    return total
