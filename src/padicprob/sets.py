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
from typing import Iterable, Iterator

from .errors import PrecisionError, PrimeMismatchError
from .padic import (
    CharacterSum,
    PAdicNumber,
    _check_prime,
    _integral_exp,
    int_valuation,
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


def _nonzero_split(p: int, r) -> tuple[int, int, int]:
    """_split of a scale factor, which must not be 0."""
    split = _split(p, r)
    if split is None:
        raise ValueError("cannot scale a ball by zero")
    return split


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
        _set_ball(self, prime, radius_exp, _reduced(prime, split, radius_exp))

    def __reduce__(self):
        return Ball, (self.prime, self.center, self.radius_exp)

    @classmethod
    def _of(cls, p: int, split, radius_exp: int) -> "Ball":
        """The ball of radius p**radius_exp around p**v * a/b, with
        split = (v, a, b) or None for center 0; p is not checked."""
        ball = object.__new__(cls)
        _set_ball(ball, p, radius_exp, _reduced(p, split, radius_exp))
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
        """Whether the rational r, reduced at the radius, is the centre pair."""
        p = self.prime
        return _reduced(p, _split(p, r), self.radius_exp) == self._center_split

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
        return self._scaled(*_nonzero_split(self.prime, r))

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


# the slots' own descriptors, which assign past the frozen __setattr__
_set_ball_prime, _set_radius_exp, _set_center_split = (
    Ball.__dict__[name].__set__ for name in ("prime", "radius_exp", "_center_split")
)


def _set_ball(ball: Ball, p: int, radius_exp: int, pair) -> None:
    """Set the fields of ``ball`` to the canonical centre pair ``pair``
    (None for the centre 0) at radius p**radius_exp; nothing is checked."""
    _set_ball_prime(ball, p)
    _set_radius_exp(ball, radius_exp)
    _set_center_split(ball, pair)


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
        return TailSet(self.prime, self.radius_exp - _nonzero_split(self.prime, r)[0])

    def __str__(self) -> str:
        return f"annulus({self.radius_exp},inf)"


class CompactOpenSet:
    """Canonical finite disjoint union of balls.

    Normalisation drops balls nested inside others and sorts the rest by
    (center, radius_exp), so the representation is deterministic and
    idempotent; it does not merge complete sibling families into their
    parent.  Both steps read the integer centre splits: a ball lies in a
    larger or equal one when its centre, reduced at that one's radius, is
    that one's pair, and the centres sort by one integer per ball, p**v * u
    times p**shift, with one shift for the whole set that makes every
    exponent nonnegative (0 for the centre 0).
    """

    __slots__ = ("prime", "balls")

    def __init__(self, prime: int, balls: Iterable[Ball] = ()):
        _check_prime(prime)
        pool = list(balls)
        for b in pool:
            if b.prime != prime:
                raise PrimeMismatchError("mixed primes in set")
        low = min((b._center_split[0] for b in pool if b._center_split), default=0)
        kept: dict[int, set] = {}  # radius_exp -> the centre pairs kept there
        rows = []
        # largest balls first, so a ball is dropped only for one before it
        for i, ball in sorted(enumerate(pool), key=lambda item: -item[1].radius_exp):
            c, radius_exp = ball._center_split, ball.radius_exp
            split = None if c is None else (c[0], c[1], 1)
            if any(_reduced(prime, split, r) in pairs for r, pairs in kept.items()):
                continue
            kept.setdefault(radius_exp, set()).add(c)
            rows.append((0 if c is None else c[1] * prime ** (c[0] - low), radius_exp, i))
        self.prime = prime
        self.balls = tuple(pool[i] for _, _, i in sorted(rows))

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
        # multiplying by r = p**w * a/b is a bijection on balls: the images
        # stay disjoint and none falls inside another, so only the order
        # changes.  B(p**v * u, p**R) goes to radius p**(R - w) around
        # p**(v + w) * u * a/b, which keeps its -R - v digits of unit.
        p = self.prime
        w, a, b = _nonzero_split(p, r)
        low = min((x._center_split[0] for x in self.balls if x._center_split), default=0)
        rows = []
        for ball in self.balls:
            c = ball._center_split
            if c is None:
                rows.append((0, ball.radius_exp - w, None))
                continue
            v, u = c
            mod = p ** (-ball.radius_exp - v)
            u = u * a % mod if b == 1 else u * a * pow(b, -1, mod) % mod
            rows.append((u * p ** (v - low), ball.radius_exp - w, (v + w, u)))
        balls = []
        # a canonical set has one ball per (centre, radius): no pair is compared
        for _, radius_exp, pair in sorted(rows):
            ball = object.__new__(Ball)
            _set_ball(ball, p, radius_exp, pair)
            balls.append(ball)
        scaled = object.__new__(CompactOpenSet)
        scaled.prime = p
        scaled.balls = tuple(balls)
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


def integrate_char_exact(m, t: PAdicNumber) -> CharacterSum:
    """Integral of chi(t*y) over a Ball or CompactOpenSet, kept exact.

    The ball B(c, p**N) adds chi(t*c) * p**N when |t| <= p**-N and nothing
    otherwise; with c = p**v * u and t = p**v_t * u_t the phase is that of
    p**(v_t + v) * u_t * u.  Each ball's prime and window are checked in
    the set's order.  The Haar masses of one phase are added as an integer
    n in units of p**e, e the smallest radius exponent among its balls, so
    a phase of one ball takes the cached Fraction p**N and a merged phase
    makes one Fraction.
    """
    p, tv = t.prime, t.valuation
    masses: dict[tuple[int, int], tuple[int, int]] = {}  # phase -> (n, e)
    for ball in (m,) if isinstance(m, Ball) else m:
        if ball.prime != p:
            raise PrimeMismatchError("character sums over different primes")
        radius_exp, c = ball.radius_exp, ball._center_split
        if tv is None:  # a certified zero: its window decides |t| <= p**-N
            if not t.abs_le_exp(-radius_exp):
                continue
            phase = (0, 0) if c is None else t.mul_rational(ball.center).character_phase()
        elif tv < radius_exp:
            continue
        else:
            phase = (0, 0) if c is None else unit_phase(p, tv + c[0], t.unit * c[1], t.precision)
        hit = masses.get(phase)
        if hit is None:
            masses[phase] = 1, radius_exp
        else:
            n, e = hit
            masses[phase] = (
                (n + p ** (radius_exp - e), e) if radius_exp >= e
                else (n * p ** (e - radius_exp) + 1, radius_exp)
            )
    # Haar masses are positive, so merged terms never cancel, and p is the
    # prime of t, checked when t was built
    return CharacterSum._own(p, {
        phase: _haar(p, e) if n == 1 else n * _haar(p, e)
        for phase, (n, e) in masses.items()
    })


def integrate_char(m, t: PAdicNumber) -> complex:
    return integrate_char_exact(m, t).to_complex()
