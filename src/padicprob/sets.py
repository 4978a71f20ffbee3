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
    int_valuation,
    rational_char_phase,
    rational_valuation,
    split_p_part,
)


_ZERO = Fraction(0)


def _split(p: int, r) -> tuple[int, int, int] | None:
    """A rational as p**v * a/b with a, b coprime to p and b > 0, or None
    for 0."""
    if isinstance(r, int):
        if r == 0:
            return None
        v = int_valuation(r, p)
        return v, r // p**v, 1
    r = Fraction(r)
    return None if r == 0 else split_p_part(r, p)


@dataclass(frozen=True, slots=True)
class Ball:
    """The ball {x : |x - center|_p <= p**radius_exp}.

    Centers are canonicalised on construction, so equality of balls is
    structural equality and balls are hashable set-algebra atoms.  The
    canonical center is kept as integers (v, u), meaning p**v * u with
    0 < u < p**(-radius_exp - v) coprime to p (None for center 0);
    membership, scaling and relations are decided on them, and the
    ``center`` fraction is derived from them.
    """

    prime: int
    center: Fraction
    radius_exp: int
    _center_split: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(self, prime: int, center, radius_exp: int):
        _check_prime(prime)
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
        self._assign(prime, split, int(radius_exp))

    def _assign(self, p: int, split, radius_exp: int) -> None:
        """Set the fields for the center p**v * a/b, split = (v, a, b),
        or 0 when split is None: the one place centers are reduced."""
        if split is not None:
            v, a, b = split
            k = -radius_exp - v
            if k > 0:
                mod = p**k
                u = a * pow(b, -1, mod) % mod
                center = Fraction(u * p**v) if v >= 0 else Fraction(u, p**-v)
                split = (v, u)
            else:
                split = None
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "radius_exp", radius_exp)
        object.__setattr__(self, "_center_split", split)
        object.__setattr__(self, "center", _ZERO if split is None else center)

    @classmethod
    def _of(cls, p: int, split, radius_exp: int) -> "Ball":
        """The ball of radius p**radius_exp around p**v * a/b, with
        split = (v, a, b) or None for center 0; p is not checked."""
        ball = object.__new__(cls)
        ball._assign(p, split, radius_exp)
        return ball

    @property
    def measure(self) -> Fraction:
        n = self.radius_exp
        return Fraction(self.prime**n) if n >= 0 else Fraction(1, self.prime**-n)

    @property
    def contains_zero(self) -> bool:
        return self._center_split is None

    @property
    def sphere_exp(self) -> int | None:
        """N with ball subset of {|x| = p**N}; None if the ball holds 0."""
        if self._center_split is None:
            return None
        return -self._center_split[0]

    def _holds(self, v: int | None, u: int) -> bool:
        """Membership of p**v * u (u coprime to p), or of 0 if v is None."""
        if self._center_split is None:
            return v is None or v >= -self.radius_exp
        # |center| > p**radius_exp: the point must share the center's
        # valuation cv and its unit modulo p**(-radius_exp - cv)
        cv, cu = self._center_split
        return v == cv and (u - cu) % self.prime ** (-self.radius_exp - cv) == 0

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
            return self._holds(x.valuation, x.unit)
        return self.contains_rational(x)

    def relate(self, other: "Ball") -> str:
        """One of 'equal', 'inside', 'contains', 'disjoint'.

        Ultrametric dichotomy: partial overlap cannot occur.
        """
        if self.prime != other.prime:
            raise PrimeMismatchError("balls over different primes")
        if self.radius_exp == other.radius_exp:
            same = self._center_split == other._center_split
            return "equal" if same else "disjoint"
        big, small = (
            (self, other) if self.radius_exp > other.radius_exp else (other, self)
        )
        if not big._holds(*(small._center_split or (None, 0))):
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
        split = _split(self.prime, r)
        if split is None:
            raise ValueError("cannot scale a ball by zero")
        return CompactOpenSet(self.prime, (b._scaled(*split) for b in self.balls))

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


def _ball_phase(ball: Ball, t: PAdicNumber) -> Phase | None:
    """The phase chi(t*c) of the integral of chi(t*y) dy over the ball
    B(c, p**N), or None where the integral vanishes (|t| > p**-N).

    With c = p**v * u and t = p**v_t * u_t the phase is the integer
    u_t * u modulo p**m, m = -(v_t + v), and zero when m <= 0."""
    if ball.prime != t.prime:
        raise PrimeMismatchError("character sums over different primes")
    if t.is_zero:
        if not t.abs_le_exp(-ball.radius_exp):
            return None
        if ball.center == 0:
            return Phase.zero(ball.prime)
        return t.mul_rational(ball.center).character_phase()
    if t.valuation < ball.radius_exp:
        return None
    split = ball._center_split
    m = 0 if split is None else -(t.valuation + split[0])
    if m <= 0:
        return Phase.zero(ball.prime)
    if t.precision < m:
        raise PrecisionError(
            "need %d digits below the unit scale, have %d" % (m, t.precision)
        )
    return Phase(ball.prime, t.unit * split[1] % ball.prime**m, m)


def _ball_char_exact(ball: Ball, t: PAdicNumber) -> CharacterSum:
    """Exact integral of chi(t*y) dy over one ball."""
    phase = _ball_phase(ball, t)
    if phase is None:
        return CharacterSum.zero(ball.prime)
    return CharacterSum.single(phase, ball.measure)


def integrate_char_exact(m, t: PAdicNumber) -> CharacterSum:
    """Integral of chi(t*y) over a Ball or CompactOpenSet, kept exact."""
    balls = [m] if isinstance(m, Ball) else m
    terms: dict[Phase, Fraction] = {}
    for b in balls:
        phase = _ball_phase(b, t)
        if phase is not None:
            # Haar masses are positive, so merged terms never cancel
            terms[phase] = terms[phase] + b.measure if phase in terms else b.measure
    return CharacterSum(t.prime, terms)


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
