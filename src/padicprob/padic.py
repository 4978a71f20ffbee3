"""Exact finite-precision arithmetic in the field of p-adic numbers.

A nonzero value is stored as ``p**valuation * unit`` where ``unit`` is a
positive integer coprime to p, known modulo ``p**precision``.  The digit
expansion (little-endian in powers of p, leading digit nonzero) is derived
from ``unit`` on demand.  All arithmetic is integer arithmetic on unit
parts; nothing is rounded.  Every operation records the precision of its
result, and operations that would need digits beyond the stored window
raise :class:`PrecisionError` instead of guessing.

The zero element carries a certified-zero exponent: ``zero(p, e)`` states
"this value is congruent to 0 modulo p**e" (``e=None`` means exactly
zero).  Cancellation in addition produces such certified zeros, so
round-trip identities like ``n*from_rational(m, n) - m`` report an honest
residual window rather than a fabricated exact zero.

The canonical additive character chi(x) = exp(2*pi*i*{x}_p) is handled as
an exact rational phase; complex numbers are materialised only at output
boundaries.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import PrecisionError, PrimeMismatchError

DEFAULT_PRECISION = 48

_TWO_PI = 2.0 * math.pi

# chi at the dyadic phases 1/2, 1/4 and 3/4, keyed by (scale, numerator):
# exact axis points rather than rounded cos/sin values
_AXIS_PHASES = {
    (1, 1): complex(-1.0, 0.0),
    (2, 1): complex(0.0, 1.0),
    (2, 3): complex(0.0, -1.0),
}


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(r: Fraction, p: int) -> int:
    """Exponent of p in a nonzero rational."""
    if r == 0:
        raise ValueError("valuation of 0 is undefined")
    return int_valuation(r.numerator, p) - int_valuation(r.denominator, p)


def split_p_part(r: Fraction, p: int) -> tuple[int, int, int]:
    """Write a nonzero rational as p**v * a/b with a, b coprime to p.

    Returns (v, a, b) with b > 0; the sign of r is carried by a.
    """
    num, den = r.numerator, r.denominator
    vn = int_valuation(num, p) if num else 0
    vd = int_valuation(den, p)
    return vn - vd, num // p**vn, den // p**vd


@dataclass(frozen=True, slots=True)
class PAdicNumber:
    """A p-adic number known to finitely many digits.

    Fields
    ------
    prime:
        The prime p.
    valuation:
        Exponent of the leading digit; ``None`` encodes +infinity (zero).
    unit:
        d0 + d1*p + ... + d_{K-1}*p**(K-1) with d0 != 0; 0 for zero.
    precision:
        K, the number of known digits.  For the zero element this field
        instead stores the certified-zero exponent e (value is congruent
        to 0 modulo p**e), with ``None`` meaning exactly zero.
    """

    prime: int
    valuation: int | None
    unit: int
    precision: int | None

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        if self.valuation is None:
            if self.unit != 0:
                raise ValueError("zero element must have unit 0")
        else:
            if self.precision is None or self.precision < 1:
                raise ValueError("nonzero value needs precision >= 1")
            if not 1 <= self.unit < self.prime**self.precision:
                raise ValueError("unit out of range for stated precision")
            if self.unit % self.prime == 0:
                raise ValueError("leading digit must be nonzero")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int, certified_exp: int | None = None) -> "PAdicNumber":
        return cls(p, None, 0, certified_exp)

    @classmethod
    def one(cls, p: int, precision: int = DEFAULT_PRECISION) -> "PAdicNumber":
        return cls(p, 0, 1, precision)

    @classmethod
    def from_rational(
        cls,
        numer: int | Fraction,
        denom: int = 1,
        *,
        p: int,
        precision: int = DEFAULT_PRECISION,
    ) -> "PAdicNumber":
        """Expand numer/denom to ``precision`` digits.

        Denominators divisible by p are allowed; the p-part is absorbed
        into the valuation.
        """
        _check_prime(p)
        if precision <= 0:
            raise ValueError("precision must be positive")
        if denom == 0:
            raise ZeroDivisionError("zero denominator")
        r = Fraction(numer, denom)
        if r == 0:
            return cls.zero(p)
        v, a, b = split_p_part(r, p)
        mod = p**precision
        unit = (a * pow(b, -1, mod)) % mod
        return cls(p, v, unit, precision)

    @classmethod
    def from_digits(
        cls, p: int, valuation: int, digits: Iterable[int]
    ) -> "PAdicNumber":
        ds = tuple(digits)
        if not ds:
            return cls.zero(p)
        if ds[0] == 0:
            raise ValueError("leading digit must be nonzero")
        if any(not 0 <= d < p for d in ds):
            raise ValueError("digit out of range")
        unit = 0
        for i, d in enumerate(ds):
            unit += d * p**i
        return cls(p, valuation, unit, len(ds))

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def digits(self) -> tuple[int, ...]:
        if self.is_zero:
            return ()
        u, out = self.unit, []
        for _ in range(self.precision):
            u, d = divmod(u, self.prime)
            out.append(d)
        return tuple(out)

    @property
    def known_mod_exp(self) -> int | float:
        """e such that the value is known modulo p**e (may be +inf)."""
        if self.is_zero:
            return math.inf if self.precision is None else self.precision
        return self.valuation + self.precision

    def abs_value(self) -> Fraction:
        """The p-adic absolute value, an exact power of p (0 for zero)."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** (-self.valuation)

    def as_rational(self) -> Fraction:
        """Exact value of the stored digit window, p**v * unit.

        This equals the represented number whenever the expansion
        terminates inside the window, and is congruent to it modulo
        p**known_mod_exp in general.
        """
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.prime) ** self.valuation

    def _check_same(self, other: "PAdicNumber") -> None:
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"mixed primes {self.prime} and {other.prime}"
            )

    # -- ring operations ----------------------------------------------

    def _truncated_to(self, e: int | float) -> "PAdicNumber":
        """Reinterpret the value as known only modulo p**e."""
        if e >= self.known_mod_exp:
            return self
        if self.is_zero or self.valuation >= e:
            return PAdicNumber.zero(self.prime, int(e))
        k = int(e) - self.valuation
        return PAdicNumber(
            self.prime, self.valuation, self.unit % self.prime**k, k
        )

    def __add__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check_same(other)
        p = self.prime
        e = min(self.known_mod_exp, other.known_mod_exp)
        if self.is_zero and other.is_zero:
            return PAdicNumber.zero(p, None if e == math.inf else int(e))
        if self.is_zero:
            return other._truncated_to(e)
        if other.is_zero:
            return self._truncated_to(e)
        v0 = min(self.valuation, other.valuation)
        width = int(e) - v0
        mod = p**width
        s = (
            self.unit * p ** (self.valuation - v0)
            + other.unit * p ** (other.valuation - v0)
        ) % mod
        if s == 0:
            return PAdicNumber.zero(p, int(e))
        v = int_valuation(s, p)
        return PAdicNumber(p, v0 + v, s // p**v, width - v)

    def __neg__(self) -> "PAdicNumber":
        if self.is_zero:
            return self
        mod = self.prime**self.precision
        return PAdicNumber(
            self.prime, self.valuation, (-self.unit) % mod, self.precision
        )

    def __sub__(self, other: "PAdicNumber") -> "PAdicNumber":
        return self + (-other)

    def __mul__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check_same(other)
        p = self.prime
        if (self.is_zero and self.precision is None) or (
            other.is_zero and other.precision is None
        ):
            return PAdicNumber.zero(p)
        if self.is_zero or other.is_zero:
            # x = O(p^e) times y known near p^v gives O(p^(e+v)).
            if self.is_zero and other.is_zero:
                return PAdicNumber.zero(p, self.precision + other.precision)
            z, y = (self, other) if self.is_zero else (other, self)
            return PAdicNumber.zero(p, z.precision + y.valuation)
        k = min(self.precision, other.precision)
        unit = (self.unit * other.unit) % p**k
        return PAdicNumber(p, self.valuation + other.valuation, unit, k)

    def invert(self) -> "PAdicNumber":
        if self.is_zero:
            raise ZeroDivisionError("p-adic inversion of zero")
        mod = self.prime**self.precision
        return PAdicNumber(
            self.prime,
            -self.valuation,
            pow(self.unit, -1, mod),
            self.precision,
        )

    def __truediv__(self, other: "PAdicNumber") -> "PAdicNumber":
        return self * other.invert()

    def mul_rational(self, r: Fraction | int) -> "PAdicNumber":
        """Exact multiplication by a rational scalar."""
        r = Fraction(r)
        p = self.prime
        if r == 0:
            return PAdicNumber.zero(p)
        v, a, b = split_p_part(r, p)
        if self.is_zero:
            if self.precision is None:
                return self
            return PAdicNumber.zero(p, self.precision + v)
        mod = p**self.precision
        unit = (self.unit * a * pow(b, -1, mod)) % mod
        return PAdicNumber(p, self.valuation + v, unit, self.precision)

    # -- fractional part and character ---------------------------------

    def frac_part(self) -> Fraction:
        """The p-adic fractional part, an exact rational in [0, 1).

        Needs every digit below p**0; raises :class:`PrecisionError` when
        the stored window does not reach that far.
        """
        if self.is_zero:
            if self.precision is None or self.precision >= 0:
                return Fraction(0)
            raise PrecisionError(
                "zero certified only modulo p**%d; fractional part unknown"
                % self.precision
            )
        if self.valuation >= 0:
            return Fraction(0)
        m = -self.valuation
        if self.precision < m:
            raise PrecisionError(
                "need %d digits below the unit scale, have %d"
                % (m, self.precision)
            )
        return Fraction(self.unit % self.prime**m, self.prime**m)

    def character_phase(self) -> "Phase":
        """Argument of chi at this point, as an exact rational phase."""
        return Phase.from_fraction(self.prime, self.frac_part())

    # -- misc -----------------------------------------------------------

    def abs_le_exp(self, e: int) -> bool:
        """Decide |x|_p <= p**e, or raise if the window cannot tell."""
        if self.is_zero:
            if self.precision is None or -self.precision <= e:
                return True
            raise PrecisionError(
                "cannot compare |x| with p**%d: x only certified O(p**%d)"
                % (e, self.precision)
            )
        return -self.valuation <= e

    def __str__(self) -> str:
        return format_padic(self)

    def __repr__(self) -> str:
        return f"PAdicNumber({format_padic(self)!r})"


# ---------------------------------------------------------------------
# Exact rational phases (arguments of the additive character)
# ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Phase:
    """A rational phase k / p**m taken modulo 1, stored reduced.

    Invariants: 0 <= k < p**m, gcd(k, p) = 1 unless k = 0 and m = 0.
    Addition is addition modulo 1 with re-reduction, so phases form an
    exact model of the character group generated by chi.
    """

    prime: int
    numerator: int
    scale: int

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        if self.scale < 0 or not 0 <= self.numerator < self.prime**self.scale or (
            self.numerator == 0 and self.scale != 0
        ):
            raise ValueError("non-canonical phase")
        if self.numerator and self.numerator % self.prime == 0:
            raise ValueError("phase numerator divisible by p")

    @classmethod
    def zero(cls, p: int) -> "Phase":
        return cls(p, 0, 0)

    @classmethod
    def from_fraction(cls, p: int, fr: Fraction) -> "Phase":
        fr = fr - math.floor(fr)
        if fr == 0:
            return cls.zero(p)
        den = fr.denominator
        m = int_valuation(den, p)
        if p**m != den:
            raise ValueError(f"denominator {den} is not a power of {p}")
        return cls(p, fr.numerator, m)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.prime**self.scale)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def __add__(self, other: "Phase") -> "Phase":
        if self.prime != other.prime:
            raise PrimeMismatchError("phase primes differ")
        return Phase.from_fraction(
            self.prime, self.as_fraction() + other.as_fraction()
        )

    def negate(self) -> "Phase":
        if self.numerator == 0:
            return self
        return Phase(
            self.prime, self.prime**self.scale - self.numerator, self.scale
        )

    def to_complex(self) -> complex:
        return _chi(self.prime, self.scale, self.numerator)


def _chi(p: int, scale: int, numerator: int) -> complex:
    """chi at the reduced phase numerator / p**scale."""
    if numerator == 0:
        return complex(1.0, 0.0)
    if p == 2 and scale <= 2:
        return _AXIS_PHASES[(scale, numerator)]
    theta = _TWO_PI * (numerator / p**scale)
    return complex(math.cos(theta), math.sin(theta))


def rational_char_phase(r: Fraction | int, p: int) -> Phase:
    """Phase of chi at an exact rational point (no digit window needed)."""
    r = Fraction(r)
    if r == 0:
        return Phase.zero(p)
    v, a, b = split_p_part(r, p)
    if v >= 0:
        return Phase.zero(p)
    m = -v
    mod = p**m
    return Phase(p, (a * pow(b, -1, mod)) % mod, m)


# ---------------------------------------------------------------------
# Exact linear combinations of character values
# ---------------------------------------------------------------------


class CharacterSum:
    """A finite sum  sum_j c_j * chi(phase_j)  with exact phases.

    Coefficients stay :class:`Fraction` as long as the inputs are
    rational, so geometric-series manipulations downstream are exact;
    the complex value is materialised only by :meth:`to_complex`, which
    pairs conjugate phases first so that symmetric sums come out exactly
    real.
    """

    __slots__ = ("prime", "_terms")

    def __init__(
        self, prime: int, terms: Mapping[Phase, Fraction | float] | None = None
    ):
        _check_prime(prime)
        self.prime = prime
        # a mapping holds each phase once: only zero coefficients go
        self._terms = {ph: c for ph, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, p: int) -> "CharacterSum":
        return cls(p)

    @classmethod
    def constant(cls, p: int, c: Fraction | float) -> "CharacterSum":
        return cls(p, {Phase.zero(p): c})

    @classmethod
    def single(cls, phase: Phase, c: Fraction | float) -> "CharacterSum":
        return cls(phase.prime, {phase: c})

    def terms(self) -> dict[Phase, Fraction | float]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CharacterSum)
            and self.prime == other.prime
            and self._terms == other._terms
        )

    def __add__(self, other: "CharacterSum") -> "CharacterSum":
        if self.prime != other.prime:
            raise PrimeMismatchError("character sums over different primes")
        merged = dict(self._terms)
        for ph, c in other._terms.items():
            merged[ph] = merged.get(ph, 0) + c
        return CharacterSum(self.prime, merged)

    def scale(self, c: Fraction | float | int) -> "CharacterSum":
        if not c:
            return CharacterSum(self.prime)
        return CharacterSum(
            self.prime, {ph: coeff * c for ph, coeff in self._terms.items()}
        )

    def rotate(self, phase: Phase) -> "CharacterSum":
        """Multiply by chi(phase): shifts every term's phase."""
        return CharacterSum(
            self.prime, {ph + phase: c for ph, c in self._terms.items()}
        )

    def to_complex(self) -> complex:
        p = self.prime
        # (scale, numerator) -> coefficient, visited in increasing order;
        # the conjugate of k / p**s is (p**s - k) / p**s (never a key when
        # s = 0), and the smaller numerator of a pair comes first
        terms = {(ph.scale, ph.numerator): c for ph, c in self._terms.items()}
        total = complex(0.0, 0.0)
        done: set[tuple[int, int]] = set()
        for key in sorted(terms):
            if key in done:
                continue
            s, k = key
            c = terms[key]
            conj = (s, p**s - k)
            if conj != key and conj in terms:
                c2 = terms[conj]
                theta = _TWO_PI * (k / p**s)
                total += complex(
                    float(c + c2) * math.cos(theta),
                    float(c - c2) * math.sin(theta),
                )
                done.add(conj)
            else:
                total += float(c) * _chi(p, s, k)
        return total

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c}*chi({ph.as_fraction()})"
            for ph, c in sorted(
                self._terms.items(), key=lambda kv: (kv[0].scale, kv[0].numerator)
            )
        )
        return f"CharacterSum({self.prime}; {parts or '0'})"


# ---------------------------------------------------------------------
# Operation-style aliases and text round-trips
# ---------------------------------------------------------------------


def from_rational(
    numer: int | Fraction,
    denom: int = 1,
    *,
    p: int,
    precision: int = DEFAULT_PRECISION,
) -> PAdicNumber:
    return PAdicNumber.from_rational(numer, denom, p=p, precision=precision)


_DIGITS_RE = re.compile(
    r"^\s*(\d+)\^(-?\d+|inf)\s*\*\s*\[([0-9,\s]*)\]\s*$"
)
_RATIONAL_RE = re.compile(
    r"^\s*(-?\d+)\s*(?:/\s*(-?\d+))?\s*@\s*p\s*=\s*(\d+)\s*$"
)


def format_padic(x: PAdicNumber) -> str:
    """Render as ``p^<v> * [d0,d1,...]`` (``p^inf * []`` for zero)."""
    if x.is_zero:
        return f"{x.prime}^inf * []"
    return f"{x.prime}^{x.valuation} * [{','.join(map(str, x.digits))}]"


def parse_padic(text: str) -> PAdicNumber:
    m = _DIGITS_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse p-adic literal: {text!r}")
    p = int(m.group(1))
    if m.group(2) == "inf":
        return PAdicNumber.zero(p)
    digits = [int(d) for d in m.group(3).split(",") if d.strip()]
    return PAdicNumber.from_digits(p, int(m.group(2)), digits)


def parse_number(text: str, precision: int = DEFAULT_PRECISION) -> PAdicNumber:
    """Parse either digit form ``p^v * [..]`` or rational ``m/n @ p=<p>``."""
    m = _RATIONAL_RE.match(text)
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        return PAdicNumber.from_rational(
            num, den, p=int(m.group(3)), precision=precision
        )
    return parse_padic(text)


def grid_points(
    p: int,
    k_lo: int = -6,
    k_hi: int = 6,
    unit_digit_sets: tuple[tuple[int, ...], ...] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> list[PAdicNumber]:
    """Deterministic evaluation grid {u * p**-k : |t| = p**k}.

    Every point is an exact rational, so repeated runs and parallel
    workers see bit-identical inputs.
    """
    if unit_digit_sets is None:
        unit_digit_sets = ((1,), (1, 1), (1, 0, 1), (p - 1, p - 1))
    pts = []
    for k in range(k_lo, k_hi + 1):
        for ds in unit_digit_sets:
            if any(d >= p for d in ds) or ds[0] == 0:
                continue
            u = 0
            for i, d in enumerate(ds):
                u += d * p**i
            pts.append(
                PAdicNumber.from_rational(
                    Fraction(u) * Fraction(p) ** (-k), p=p, precision=precision
                )
            )
    return pts
