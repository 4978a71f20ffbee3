"""Balls, spheres, compact-open sets, exact Haar measure and character
integrals.

Every set here is a finite disjoint union of balls with canonical
rational centers, so Haar measures are exact fractions and integrals of
the additive character reduce to finite exact sums: over a ball
B(c, p**N) the integral of chi(t*y) dy equals chi(t*c) * p**N when
|t| <= p**-N and vanishes otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import PrecisionError, PrimeMismatchError
from .padic import (
    CharacterSum,
    PAdicNumber,
    Phase,
    _check_prime,
    rational_char_phase,
    rational_valuation,
    split_p_part,
)


def _canonical_center(p: int, center, radius_exp: int) -> tuple[int, int] | None:
    """Reduce a center modulo p**(-radius_exp).

    The canonical representative keeps exactly the digits above the
    radius scale: it is the unique rational in [0, p**-radius_exp) with
    p-power denominator congruent to the given center.  It is returned
    as (v, u), meaning p**v * u with u coprime to p, or None when it is 0.
    """
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
    if c == 0:
        return None
    v, a, b = split_p_part(c, p)
    if v >= -radius_exp:
        return None
    mod = p ** (-radius_exp - v)
    return v, (a * pow(b, -1, mod)) % mod


@dataclass(frozen=True, slots=True)
class Ball:
    """The ball {x : |x - center|_p <= p**radius_exp}.

    Centers are canonicalised on construction, so equality of balls is
    structural equality and balls are hashable set-algebra atoms.
    """

    prime: int
    center: Fraction
    radius_exp: int
    # the canonical center as (v, u) = p**v * u, None for center 0
    _center_split: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(self, prime: int, center, radius_exp: int):
        _check_prime(prime)
        split = _canonical_center(prime, center, radius_exp)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "radius_exp", int(radius_exp))
        object.__setattr__(self, "_center_split", split)
        object.__setattr__(
            self,
            "center",
            Fraction(0) if split is None
            else Fraction(split[1]) * Fraction(prime) ** split[0],
        )

    @property
    def measure(self) -> Fraction:
        return Fraction(self.prime) ** self.radius_exp

    @property
    def contains_zero(self) -> bool:
        return self.center == 0

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
        if isinstance(x, PAdicNumber):
            if x.prime != self.prime:
                raise PrimeMismatchError("point over a different prime")
            # membership depends only on digits above the radius scale
            if x.known_mod_exp < -self.radius_exp:
                raise PrecisionError(
                    "point known modulo p**%s, membership needs p**%d"
                    % (x.known_mod_exp, -self.radius_exp)
                )
            if self._center_split is None:
                return x.is_zero or x.valuation >= -self.radius_exp
            # |center| > p**radius_exp: x must share the center's
            # valuation v and its unit modulo p**(-radius_exp - v)
            v, u = self._center_split
            return x.valuation == v and (
                (x.unit - u) % self.prime ** (-self.radius_exp - v) == 0
            )
        return self.contains_rational(x)

    def relate(self, other: "Ball") -> str:
        """One of 'equal', 'inside', 'contains', 'disjoint'.

        Ultrametric dichotomy: partial overlap cannot occur.
        """
        if self.prime != other.prime:
            raise PrimeMismatchError("balls over different primes")
        if self.radius_exp == other.radius_exp:
            return "equal" if self.center == other.center else "disjoint"
        big, small = (
            (self, other) if self.radius_exp > other.radius_exp else (other, self)
        )
        inside = big.contains_rational(small.center)
        if not inside:
            return "disjoint"
        return "inside" if small is self else "contains"

    def scale(self, r: Fraction | int) -> "Ball":
        r = Fraction(r)
        if r == 0:
            raise ValueError("cannot scale a ball by zero")
        v = rational_valuation(r, self.prime)
        return Ball(self.prime, self.center * r, self.radius_exp - v)

    def sort_key(self):
        return (self.center, self.radius_exp)

    def __str__(self) -> str:
        return f"ball({self.center},{self.radius_exp})"


@dataclass(frozen=True, slots=True)
class TailSet:
    """The unbounded annulus {x : |x|_p > p**radius_exp}."""

    prime: int
    radius_exp: int

    def scale(self, r: Fraction | int) -> "TailSet":
        v = rational_valuation(Fraction(r), self.prime)
        return TailSet(self.prime, self.radius_exp - v)

    def __str__(self) -> str:
        return f"annulus({self.radius_exp},inf)"


class CompactOpenSet:
    """Canonical finite disjoint union of balls.

    Normalisation drops balls nested inside others and sorts the rest,
    so the representation is deterministic and idempotent; it does not
    merge complete sibling families into their parent.
    """

    __slots__ = ("prime", "balls")

    def __init__(self, prime: int, balls: Iterable[Ball] = ()):
        _check_prime(prime)
        pool = list(balls)
        for b in pool:
            if b.prime != prime:
                raise PrimeMismatchError("mixed primes in set")
        pool.sort(key=lambda b: (-b.radius_exp,) + b.sort_key())
        kept: list[Ball] = []
        for b in pool:
            if not any(b.relate(k) in ("inside", "equal") for k in kept):
                kept.append(b)
        kept.sort(key=Ball.sort_key)
        self.prime = prime
        self.balls = tuple(kept)

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
        return CompactOpenSet(self.prime, (b.scale(r) for b in self.balls))

    def indicator(self) -> "StepFunction":
        return StepFunction(
            self.prime, tuple((b, complex(1.0, 0.0)) for b in self.balls)
        )

    def __str__(self) -> str:
        return " + ".join(str(b) for b in self.balls) or "(empty)"

    def __repr__(self) -> str:
        return f"CompactOpenSet({self.prime}, [{', '.join(map(str, self.balls))}])"


def normalize(balls: Sequence[Ball], p: int | None = None) -> CompactOpenSet:
    """Canonical disjoint representation of a union of balls."""
    if p is None:
        if not balls:
            raise ValueError("cannot infer prime from an empty ball list")
        p = balls[0].prime
    return CompactOpenSet(p, balls)


def haar_measure(m) -> Fraction:
    """Exact Haar measure (unit ball normalised to measure 1)."""
    if isinstance(m, Ball):
        return m.measure
    if isinstance(m, CompactOpenSet):
        return m.measure()
    raise TypeError(f"no Haar measure for {type(m).__name__}")


def split_sphere(n: int, depth: int, p: int) -> list[Ball]:
    """Partition the sphere {|x| = p**n} into (p-1)p**(depth-1) balls of
    radius p**(n-depth)."""
    _check_prime(p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    scale = Fraction(p) ** (-n)
    return [
        Ball(p, a * scale, n - depth)
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


def _ball_char_exact(ball: Ball, t: PAdicNumber) -> CharacterSum:
    """Exact integral of chi(t*y) dy over one ball."""
    if not t.abs_le_exp(-ball.radius_exp):
        return CharacterSum.zero(ball.prime)
    if ball.center == 0:
        phase = Phase.zero(ball.prime)
    else:
        phase = t.mul_rational(ball.center).character_phase()
    return CharacterSum.single(phase, ball.measure)


def integrate_char_exact(m, t: PAdicNumber) -> CharacterSum:
    """Integral of chi(t*y) over a Ball or CompactOpenSet, kept exact."""
    balls = [m] if isinstance(m, Ball) else list(m)
    total = CharacterSum.zero(t.prime)
    for b in balls:
        total = total + _ball_char_exact(b, t)
    return total


def integrate_char(m, t: PAdicNumber) -> complex:
    return integrate_char_exact(m, t).to_complex()


class StepFunction:
    """A locally constant, compactly supported function: finitely many
    disjoint balls with constant complex values (zero elsewhere)."""

    __slots__ = ("prime", "pieces")

    def __init__(self, prime: int, pieces: Iterable[tuple[Ball, complex]]):
        _check_prime(prime)
        ps = tuple((b, complex(v)) for b, v in pieces)
        for b, _ in ps:
            if b.prime != prime:
                raise PrimeMismatchError("mixed primes in step function")
        for i, (a, _) in enumerate(ps):
            for b, _ in ps[i + 1:]:
                if a.relate(b) != "disjoint":
                    raise ValueError("step-function balls must be disjoint")
        self.prime = prime
        self.pieces = ps

    def evaluate(self, x) -> complex:
        for b, v in self.pieces:
            if b.contains(x):
                return v
        return complex(0.0, 0.0)


def integrate_step(f: StepFunction, t: PAdicNumber) -> complex:
    """The transform  integral of f(y) chi(t*y) dy  at one point."""
    total = complex(0.0, 0.0)
    for ball, v in f.pieces:
        cs = _ball_char_exact(ball, t)
        if cs:
            total += v * cs.to_complex()
    return total


def integrate_step_inverse(f: StepFunction, x: PAdicNumber) -> complex:
    """The inverse transform  integral of chi(-x*t) f(t) dt  at one point."""
    total = complex(0.0, 0.0)
    for ball, v in f.pieces:
        if not x.abs_le_exp(-ball.radius_exp):
            continue
        if ball.center == 0:
            phase = Phase.zero(ball.prime)
        else:
            phase = x.mul_rational(ball.center).character_phase().negate()
        total += v * float(ball.measure) * phase.to_complex()
    return total


def fourier_indicator(ball: Ball, cap: int = 200_000) -> StepFunction:
    """Exact transform of a ball indicator as a step function.

    The transform is chi(t*c) * p**N on {|t| <= p**-N}; the support is
    refined into balls small enough that the phase factor is constant.
    """
    p = ball.prime
    n = ball.radius_exp
    if ball.center == 0:
        return StepFunction(
            p, [(Ball(p, 0, -n), complex(float(ball.measure), 0.0))]
        )
    c_exp = ball.sphere_exp  # |center| = p**c_exp > p**n
    count = p ** (c_exp - n)
    if count > cap:
        raise ValueError(
            f"indicator transform needs {count} pieces (cap {cap})"
        )
    mag = float(ball.measure)
    step = Fraction(p) ** n
    pieces = []
    for i in range(count):
        t0 = i * step
        val = mag * rational_char_phase(t0 * ball.center, p).to_complex()
        pieces.append((Ball(p, t0, -c_exp), val))
    return StepFunction(p, pieces)
