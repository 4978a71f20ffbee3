"""Balls, spheres, compact-open sets, exact Haar measure and character
integrals.

Every set here is a finite disjoint union of balls with canonical
rational centers, so Haar measures are exact fractions and integrals of
the additive character reduce to finite exact sums: over a ball
B(c, p**N) the integral of chi(t*y) dy equals chi(t*c) * p**N when
|t| <= p**-N and vanishes otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import PrecisionError, PrimeMismatchError
from .padic import (
    CharacterSum,
    PAdicNumber,
    _check_prime,
    _integral_exp,
    int_valuation,
    rational_valuation,
    read_only,
    split_p_part,
    unit_phase,
)


_ZERO = Fraction(0)


@lru_cache(maxsize=1024)
def _haar(p: int, n: int) -> Fraction:
    """p**n as a Fraction: the Haar measure of a ball of radius p**n."""
    return Fraction(p**n) if n >= 0 else Fraction(1, p**-n)


def _split(p: int, r) -> tuple[int, int, int] | None:
    """A rational as p**v * a/b with a, b coprime to p and b > 0, or None
    for 0."""
    if isinstance(r, int):
        if r == 0:
            return None
        v = int_valuation(r, p)
        return v, r // p**v, 1
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return None if r == 0 else split_p_part(r, p)


def _reduced(p: int, split, radius_exp: int) -> tuple[int, int] | None:
    """The canonical pair (v, u) of the center p**v * a/b, split = (v,
    a, b), in a ball of radius p**radius_exp, or None when that ball
    holds 0 (split None: the center 0): the one place centers are
    reduced."""
    if split is None:
        return None
    v, a, b = split
    k = -radius_exp - v
    if k <= 0:
        return None
    mod = p**k
    return v, a % mod if b == 1 else a * pow(b, -1, mod) % mod


def _center_of(ball) -> Fraction:
    split = ball._center_split
    return _ZERO if split is None else split[1] * _haar(ball.prime, split[0])


@read_only
@dataclass(frozen=True, init=False)
class Ball:
    """The ball {x : |x - center|_p <= p**radius_exp}.

    Centers are canonicalised on construction, so equality of balls is
    structural equality and balls are hashable set-algebra atoms.  The
    canonical center is kept only as integers (v, u), meaning p**v * u
    with 0 < u < p**(-radius_exp - v) coprime to p (None for center 0);
    membership, scaling and relations are decided on them.  ``center``
    is a field that is never stored: reading it computes the fraction
    from them, so building or scaling a ball makes no Fraction.
    """

    __slots__ = ("prime", "radius_exp", "_center_split")

    prime: int
    center: Fraction = property(_center_of)
    radius_exp: int

    def __init__(self, prime: int, center, radius_exp: int):
        _check_prime(prime)
        radius_exp = _integral_exp("radius_exp", radius_exp)
        if isinstance(center, PAdicNumber):
            if center.prime != prime:
                raise PrimeMismatchError("ball center over a different prime")
            if center.known_mod_exp < -radius_exp:
                raise PrecisionError(
                    "center known modulo p**%s but the ball needs digits up "
                    "to p**%d" % (center.known_mod_exp, -radius_exp)
                )
            split = (
                None if center.is_zero else (center.valuation, center.unit, 1)
            )
        else:
            split = _split(prime, center)
        self._assign(prime, split, radius_exp)

    def _assign(self, p: int, split, radius_exp: int) -> None:
        """Set the fields for the center p**v * a/b, split = (v, a, b),
        or 0 when split is None."""
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "radius_exp", radius_exp)
        object.__setattr__(self, "_center_split", _reduced(p, split, radius_exp))

    def __reduce__(self):
        return Ball, (self.prime, self.center, self.radius_exp)

    @classmethod
    def _of(cls, p: int, split, radius_exp: int) -> "Ball":
        """The ball of radius p**radius_exp around p**v * a/b, with
        split = (v, a, b) or None for center 0; p is not checked."""
        ball = object.__new__(cls)
        ball._assign(p, split, radius_exp)
        return ball

    @property
    def measure(self) -> Fraction:
        return _haar(self.prime, self.radius_exp)

    @property
    def contains_zero(self) -> bool:
        return self._center_split is None

    @property
    def sphere_exp(self) -> int | None:
        """N with ball subset of {|x| = p**N}; None if the ball holds 0."""
        if self._center_split is None:
            return None
        return -self._center_split[0]

    def contains_rational(self, r: Fraction | int) -> bool:
        d = Fraction(r) - self.center
        if d == 0:
            return True
        return rational_valuation(d, self.prime) >= -self.radius_exp

    def contains(self, x) -> bool:
        """Whether x, a PAdicNumber or a rational, lies in the ball.

        A PAdicNumber over another prime raises PrimeMismatchError, and
        one known modulo p**e with e < -radius_exp raises PrecisionError,
        since membership needs its digits up to p**-radius_exp.  This is
        the one statement of point membership, and its fast path: the
        window is read from the valuation and precision fields (what
        ``known_mod_exp`` computes), and the point is compared with the
        centre pair with no further property or method call.
        """
        if not isinstance(x, PAdicNumber):
            return self.contains_rational(x)
        if x.prime != self.prime:
            raise PrimeMismatchError("point over a different prime")
        need = -self.radius_exp
        v = x.valuation
        # x is known modulo p**known; an exact zero (None) is known to all digits
        known = x.precision if v is None else v + x.precision
        if known is not None and known < need:
            raise PrecisionError(
                "point known modulo p**%s, membership needs p**%d" % (known, need)
            )
        split = self._center_split
        if split is None:
            return v is None or v >= need
        # |center| > p**radius_exp: the point must share the center's
        # valuation cv and its unit modulo p**(-radius_exp - cv)
        cv, cu = split
        return v == cv and (x.unit - cu) % self.prime ** (need - cv) == 0

    def relate(self, other: "Ball") -> str:
        """One of 'equal', 'inside', 'contains', 'disjoint'.

        Ultrametric dichotomy: partial overlap cannot occur.  The larger
        ball holds the smaller one exactly when the smaller one's centre,
        reduced at the larger radius, is the larger one's centre pair.
        """
        if self.prime != other.prime:
            raise PrimeMismatchError("balls over different primes")
        if self.radius_exp == other.radius_exp:
            same = self._center_split == other._center_split
            return "equal" if same else "disjoint"
        big, small = (
            (self, other) if self.radius_exp > other.radius_exp else (other, self)
        )
        c = small._center_split
        if c is not None:
            c = _reduced(self.prime, (c[0], c[1], 1), big.radius_exp)
        if c != big._center_split:
            return "disjoint"
        return "inside" if small is self else "contains"

    def scale(self, r: Fraction | int) -> "Ball":
        split = _split(self.prime, r)
        if split is None:
            raise ValueError("cannot scale a ball by zero")
        return self._scaled(*split)

    def _scaled(self, w: int, a: int, b: int) -> "Ball":
        """The image under multiplication by p**w * a/b (a, b coprime to p)."""
        c = self._center_split
        return Ball._of(
            self.prime,
            None if c is None else (c[0] + w, c[1] * a, b),
            self.radius_exp - w,
        )

    def __str__(self) -> str:
        return f"ball({self.center},{self.radius_exp})"


@read_only
@dataclass(frozen=True, slots=True)
class TailSet:
    """The unbounded annulus {x : |x|_p > p**radius_exp}."""

    prime: int
    radius_exp: int

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        object.__setattr__(
            self, "radius_exp", _integral_exp("radius_exp", self.radius_exp)
        )

    def scale(self, r: Fraction | int) -> "TailSet":
        split = _split(self.prime, r)
        if split is None:
            raise ValueError("cannot scale a ball by zero")
        return TailSet(self.prime, self.radius_exp - split[0])

    def __str__(self) -> str:
        return f"annulus({self.radius_exp},inf)"


def _center_keys(p: int, balls: Sequence[Ball]) -> list[int]:
    """One integer per ball, ordered as the balls' centres: p**v * u times
    p**shift, with one shift for all the balls that makes every exponent
    nonnegative, and 0 for the centre 0."""
    splits = [b._center_split for b in balls]
    shift = -min((s[0] for s in splits if s is not None), default=0)
    return [0 if s is None else s[1] * p ** (s[0] + shift) for s in splits]


class CompactOpenSet:
    """Canonical finite disjoint union of balls.

    Normalisation drops balls nested inside others and sorts the rest by
    (center, radius_exp), so the representation is deterministic and
    idempotent; it does not merge complete sibling families into their
    parent.  Both orders are read on the integer centre splits (see
    :func:`_center_keys`).
    """

    __slots__ = ("prime", "balls")

    def __init__(self, prime: int, balls: Iterable[Ball] = ()):
        _check_prime(prime)
        pool = list(balls)
        for b in pool:
            if b.prime != prime:
                raise PrimeMismatchError("mixed primes in set")
        keys = _center_keys(prime, pool)
        # largest balls first, so a ball is dropped only for one before it
        kept: list[int] = []
        for _, _, i in sorted(
            (-b.radius_exp, key, i) for i, (b, key) in enumerate(zip(pool, keys))
        ):
            if not any(pool[i].relate(pool[k]) in ("inside", "equal") for k in kept):
                kept.append(i)
        self._fill(prime, [pool[i] for i in kept], [keys[i] for i in kept])

    def _fill(self, prime: int, balls: list[Ball], keys: list[int]) -> None:
        """Keep ``balls`` (disjoint, none inside another, with their centre
        keys) in (center, radius_exp) order."""
        self.prime = prime
        self.balls = tuple(
            balls[i]
            for _, _, i in sorted(
                (key, b.radius_exp, i) for i, (b, key) in enumerate(zip(balls, keys))
            )
        )

    def __iter__(self) -> Iterator[Ball]:
        return iter(self.balls)

    def __len__(self) -> int:
        return len(self.balls)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CompactOpenSet)
            and self.prime == other.prime
            and self.balls == other.balls
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.balls))

    def measure(self) -> Fraction:
        return sum((b.measure for b in self.balls), Fraction(0))

    def contains(self, x) -> bool:
        return any(b.contains(x) for b in self.balls)

    def scale(self, r: Fraction | int) -> "CompactOpenSet":
        split = _split(self.prime, r)
        if split is None:
            raise ValueError("cannot scale a ball by zero")
        # multiplying by r is a bijection on balls: the images stay
        # disjoint and none falls inside another, so only the order changes
        balls = [b._scaled(*split) for b in self.balls]
        scaled = object.__new__(CompactOpenSet)
        scaled._fill(self.prime, balls, _center_keys(self.prime, balls))
        return scaled

    def __str__(self) -> str:
        return " + ".join(str(b) for b in self.balls) or "(empty)"

    def __repr__(self) -> str:
        return f"CompactOpenSet({self.prime}, [{', '.join(map(str, self.balls))}])"


def split_sphere(n: int, depth: int, p: int) -> list[Ball]:
    """Partition the sphere {|x| = p**n} into (p-1)p**(depth-1) balls of
    radius p**(n-depth)."""
    _check_prime(p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # each a * p**-n with 0 < a < p**depth, p not dividing a, is canonical
    return [
        Ball._of(p, (-n, a, 1), n - depth)
        for a in range(1, p**depth)
        if a % p != 0
    ]


def sphere(n: int, p: int) -> CompactOpenSet:
    return CompactOpenSet(p, split_sphere(n, 1, p))


def annulus(i: int, l: int, p: int) -> CompactOpenSet:
    """The set {p**(i+1) <= |x| <= p**l} as a disjoint union of balls."""
    if l < i + 1:
        raise ValueError("empty annulus: need l >= i + 1")
    balls: list[Ball] = []
    for n in range(i + 1, l + 1):
        balls.extend(split_sphere(n, 1, p))
    return CompactOpenSet(p, balls)


# ---------------------------------------------------------------------
# Character integrals
# ---------------------------------------------------------------------


def _ball_phase(ball: Ball, t: PAdicNumber) -> tuple[int, int] | None:
    """The phase chi(t*c) of the integral of chi(t*y) dy over the ball
    B(c, p**N), or None where the integral vanishes (|t| > p**-N).

    With c = p**v * u and t = p**v_t * u_t this is the phase of
    p**(v_t + v) * u_t * u."""
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


def integrate_char_exact(m, t: PAdicNumber) -> CharacterSum:
    """Integral of chi(t*y) over a Ball or CompactOpenSet, kept exact."""
    balls = [m] if isinstance(m, Ball) else m
    terms: dict[tuple[int, int], Fraction] = {}
    for b in balls:
        phase = _ball_phase(b, t)
        if phase is not None:
            # Haar masses are positive, so merged terms never cancel
            terms[phase] = terms[phase] + b.measure if phase in terms else b.measure
    return CharacterSum.from_reduced(t.prime, terms)


def integrate_char(m, t: PAdicNumber) -> complex:
    return integrate_char_exact(m, t).to_complex()
