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
an exact rational phase k / p**s, stored as the reduced integer pair
(s, k): 0 <= k < p**s with p not dividing k, and (0, 0) for phase 0.
:func:`unit_phase` computes every phase of a value known to a digit
window, with the window checked by :func:`phase_scale` (once for a whole
sphere of values); :func:`phase_known` is the one statement of when the
window reaches far enough.  Complex numbers are materialised only at output
boundaries.  The module imports no numpy: the array form of
:func:`character_value`, for Monte Carlo counts, is
:func:`padicprob.residues.character_values`.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
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


def _integral_exp(name: str, e) -> int:
    """The exponent ``e`` as an int; an integral float (or other number)
    counts as its int, as a JSON-schema integer does, and anything else
    (0.5, nan, -inf, "3", True) raises instead of truncating or parsing."""
    try:
        n = None if isinstance(e, bool) else int(e)
    except (OverflowError, TypeError, ValueError):
        n = None
    if n is None or n != e:
        raise ValueError(f"{name}={e!r} is not an integer")
    return n


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


@lru_cache(maxsize=64)
def _modulus(p: int, precision: int) -> int:
    """p**precision, for the constructor's unit range check."""
    return p**precision


def _check_int(name: str, value, none_ok: bool) -> None:
    if (value is None and none_ok) or (
        isinstance(value, int) and not isinstance(value, bool)
    ):
        return
    kind = "an int or None" if none_ok else "an int"
    raise TypeError(f"{name} must be {kind}: {value!r}")


def read_only(cls):
    """Refuse every attribute assignment and deletion on a frozen slots
    dataclass with FrozenInstanceError.  The ``__setattr__`` that
    dataclass writes calls ``super()`` on the class it was given, which
    ``slots=True`` replaces, so on Python 3.11 setting a name that is not
    a field raised TypeError instead."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@read_only
@dataclass(frozen=True, slots=True, init=False)
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

    Every construction checks its fields: the prime, that valuation,
    unit and precision are ints (bool excluded; valuation and precision
    may be None), and the value invariants above.  Plain ints take a
    fast path through each check.
    """

    prime: int
    valuation: int | None
    unit: int
    precision: int | None

    def __init__(
        self, prime: int, valuation: int | None, unit: int, precision: int | None
    ) -> None:
        if type(prime) is not int or not is_prime(prime):
            _check_prime(prime)
        if type(valuation) is not int:
            _check_int("valuation", valuation, True)
        if type(unit) is not int:
            _check_int("unit", unit, False)
        if type(precision) is not int:
            _check_int("precision", precision, True)
        if valuation is None:
            if unit != 0:
                raise ValueError("zero element must have unit 0")
        else:
            if precision is None or precision < 1:
                raise ValueError("nonzero value needs precision >= 1")
            if not 1 <= unit < _modulus(prime, precision):
                raise ValueError("unit out of range for stated precision")
            if unit % prime == 0:
                raise ValueError("leading digit must be nonzero")
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_precision(self, precision)

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, p: int, v: int, unit: int, precision: int) -> "PAdicNumber":
        """p**v * unit to ``precision`` digits, from fields a caller has checked."""
        x = object.__new__(cls)
        _set_prime(x, p)
        _set_valuation(x, v)
        _set_unit(x, unit)
        _set_precision(x, precision)
        return x

    @classmethod
    def zero(cls, p: int, certified_exp: int | None = None) -> "PAdicNumber":
        return cls(p, None, 0, certified_exp)

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
        """The p-adic fractional part, an exact rational in [0, 1)."""
        s, k = self.character_phase()
        return Fraction(k, self.prime**s)

    def character_phase(self) -> tuple[int, int]:
        """Argument of chi at this point, as a reduced phase (scale,
        numerator); raises :class:`PrecisionError` when the stored window
        does not reach p**0."""
        if self.is_zero:
            if self.precision is None or phase_known(self.precision, self.precision):
                return 0, 0
            raise PrecisionError(
                "zero certified only modulo p**%d; fractional part unknown"
                % self.precision
            )
        return unit_phase(self.prime, self.valuation, self.unit, self.precision)

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


# the slots' own descriptors, which assign past the frozen __setattr__
_set_prime, _set_valuation, _set_unit, _set_precision = (
    PAdicNumber.__dict__[name].__set__
    for name in ("prime", "valuation", "unit", "precision")
)


# ---------------------------------------------------------------------
# Exact rational phases (arguments of the additive character)
# ---------------------------------------------------------------------


def phase_known(valuation: int, known_mod_exp: int) -> bool:
    """The phase-window rule: chi at a value of this valuation, known
    modulo p**known_mod_exp, is determined exactly when the value lies in
    Z_p or its known digits reach p**0.  A zero certified modulo p**e
    passes e as both arguments.  Every exact phase and every residue
    batch's phase check (see :mod:`padicprob.residues`) applies it."""
    return valuation >= 0 or known_mod_exp >= 0


def phase_scale(v: int, precision: int) -> int:
    """The scale of chi's phase at every p**v * u, u coprime to p and
    known modulo p**precision: 0 when v >= 0, else -v.  Raises
    :class:`PrecisionError` when the digits below the unit scale are not
    all known.  It depends on the sphere alone, so a sphere of points is
    checked once."""
    if v >= 0:
        return 0
    if not phase_known(v, v + precision):
        raise PrecisionError(
            "need %d digits below the unit scale, have %d" % (-v, precision)
        )
    return -v


def unit_phase(p: int, v: int, u: int, precision: int) -> tuple[int, int]:
    """The phase of chi at p**v * u, u coprime to p and known modulo
    p**precision, as the reduced pair (scale, numerator): the phase is
    numerator / p**scale (see phase_scale)."""
    if v >= 0:
        return 0, 0
    s = phase_scale(v, precision)
    return s, u % p**s


def reduced_phase(p: int, key: int, m: int) -> tuple[int, int]:
    """The phase key / p**m in lowest terms, as (scale, numerator)."""
    if key == 0:
        return 0, 0
    v = int_valuation(key, p)
    return m - v, key // p**v


def chi(p: int, scale: int, numerator: int) -> complex:
    """chi at the reduced phase numerator / p**scale."""
    if numerator == 0:
        return complex(1.0, 0.0)
    if p == 2 and scale <= 2:
        return _AXIS_PHASES[(scale, numerator)]
    theta = _TWO_PI * (numerator / p**scale)
    return complex(math.cos(theta), math.sin(theta))


def character_value(
    p: int, terms: Mapping[tuple[int, int], Fraction | float | int], denominator: int = 1
) -> complex:
    """The value of sum_j (c_j / denominator) * chi(k_j / p**s_j) for
    terms {(s_j, k_j): c_j} with reduced phases.  Integer coefficients
    and denominator below 2**53 divide as exactly as Fraction(c_j,
    denominator) converts to float: both are correctly rounded.

    Terms are visited in increasing (s, k) order and conjugate phases
    are paired first, so that symmetric sums come out exactly real; the
    conjugate of k / p**s is (p**s - k) / p**s (never a key when s = 0),
    and the smaller numerator of a pair comes first.

    This scalar loop serves CharacterSum.to_complex, whose few terms
    carry Fraction coefficients and where a numpy call per sum would
    cost more than the loop.  Monte Carlo counts, many rows of integer
    terms at once, go through :func:`padicprob.residues.character_values`,
    which gives these same bits.
    """
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
            if type(c) is Fraction and type(c2) is Fraction:
                # float(c +- c2) is the correctly rounded quotient of the
                # exact integers, so they are divided without building the
                # Fractions
                a, b = c.numerator * c2.denominator, c2.numerator * c.denominator
                d = c.denominator * c2.denominator
                plus, minus = (a + b) / d, (a - b) / d
            else:
                plus, minus = float(c + c2), float(c - c2)
            theta = _TWO_PI * (k / p**s)
            total += complex(
                plus / denominator * math.cos(theta),
                minus / denominator * math.sin(theta),
            )
            done.add(conj)
        else:
            f = c.numerator / c.denominator if type(c) is Fraction else float(c)
            total += f / denominator * chi(p, s, k)
    return total


def rational_char_phase(r: Fraction | int, p: int) -> tuple[int, int]:
    """Phase (scale, numerator) of chi at an exact rational point (no
    digit window needed)."""
    r = Fraction(r)
    if r == 0:
        return 0, 0
    v, a, b = split_p_part(r, p)
    if v >= 0:
        return 0, 0
    mod = p**-v
    return -v, (a * pow(b, -1, mod)) % mod


# ---------------------------------------------------------------------
# Exact linear combinations of character values
# ---------------------------------------------------------------------


class CharacterSum:
    """A finite sum  sum_j c_j * chi(phase_j)  with exact phases, keyed by
    the reduced pairs (scale, numerator).  A key (s, k) given to the
    constructor stands for the phase k / p**s and is reduced (mod 1, then
    to lowest terms), so equal phases share one key and their
    coefficients add.

    Coefficients stay :class:`Fraction` as long as the inputs are
    rational, so geometric-series manipulations downstream are exact;
    the complex value is materialised only by :meth:`to_complex`, which
    pairs conjugate phases first so that symmetric sums come out exactly
    real.
    """

    __slots__ = ("prime", "_terms")

    def __init__(
        self,
        prime: int,
        terms: Mapping[tuple[int, int], Fraction | float] | None = None,
    ):
        _check_prime(prime)
        self.prime = prime
        merged: dict[tuple[int, int], Fraction | float] = {}
        for (s, k), c in (terms or {}).items():
            key = reduced_phase(prime, k % prime**s, s) if s > 0 else (0, 0)
            merged[key] = merged[key] + c if key in merged else c
        self._terms = {ph: c for ph, c in merged.items() if c}

    @classmethod
    def _own(
        cls, prime: int, terms: dict[tuple[int, int], Fraction | float]
    ) -> "CharacterSum":
        """A sum that keeps ``terms`` as they are: reduced phases and
        nonzero coefficients over a prime the caller has checked."""
        out = cls.__new__(cls)
        out.prime = prime
        out._terms = terms
        return out

    @classmethod
    def constant(cls, p: int, c: Fraction | float) -> "CharacterSum":
        return cls(p, {(0, 0): c})

    def terms(self) -> dict[tuple[int, int], Fraction | float]:
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
        return CharacterSum._own(self.prime, {ph: c for ph, c in merged.items() if c})

    def scale(self, c: Fraction | float | int) -> "CharacterSum":
        if not c:
            return CharacterSum(self.prime)
        # the prime is checked; a float product can still underflow to 0.0
        return CharacterSum._own(
            self.prime,
            {ph: x for ph, coeff in self._terms.items() if (x := coeff * c)},
        )

    def to_complex(self) -> complex:
        return character_value(self.prime, self._terms)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c}*chi({Fraction(k, self.prime**s)})"
            for (s, k), c in sorted(self._terms.items())
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


def parse_number(text: str) -> PAdicNumber:
    """Parse either digit form ``p^v * [..]`` or rational ``m/n @ p=<p>``."""
    m = _RATIONAL_RE.match(text)
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        return PAdicNumber.from_rational(num, den, p=int(m.group(3)))
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
    workers see bit-identical inputs.  A unit two digit sets give (at
    p = 2, (p - 1, p - 1) is (1, 1)) is listed once, where it first occurs.
    """
    if unit_digit_sets is None:
        unit_digit_sets = ((1,), (1, 1), (1, 0, 1), (p - 1, p - 1))
    units = dict.fromkeys(
        sum(d * p**i for i, d in enumerate(ds))
        for ds in unit_digit_sets
        if ds[0] != 0 and all(d < p for d in ds)
    )
    return [
        PAdicNumber.from_rational(Fraction(u) * Fraction(p) ** (-k), p=p, precision=precision)
        for k in range(k_lo, k_hi + 1)
        for u in units
    ]
