"""Monte Carlo batches as fixed-width integer residues.

A batch holds values x_1, ..., x_N over Q_p that share one digit window:
every value is known modulo p**E (E is the *window*) and every value has
|x|_p <= p**D (D is the *top*).  Each value is stored as the integer

    X = x * p**D  mod p**W,        W = D + E,

and every Monte Carlo question becomes integer arithmetic on X:

* a sum of draws is a modular add;
* scaling by a rational r = p**v * a/b moves the top to D - v and
  multiplies by a * b**-1 modulo p**W (the window moves to E + v);
* the character phase of t*x, with t = p**v_t * u_t, is
  (u_t * X mod p**m) / p**m where m = D - v_t;
* x lies in the ball B(c, p**R) exactly when X = c * p**D mod p**(D - R).

Residues live in a numpy array.  The dtype is uint64 when p = 2 and
W <= 64 (products wrap modulo 2**64, which leaves every residue modulo
2**W exact) or when p**(2W) fits in 64 bits (no product wraps), and
Python ints (object dtype) otherwise.  No float is ever involved.

Every Monte Carlo count goes through :func:`tally`, which answers a
query from residues only when the exact
:class:`~padicprob.padic.PAdicNumber` arithmetic would answer it.
:meth:`ResidueBatch.phase_ok` and :meth:`ResidueBatch.ball_ok` decide
that from the window, the top and whether any residue has too few digits
for the query; when they return False, ``tally`` hands the original
values to :func:`replay`, which re-runs the exact arithmetic in the
exact loop's order and so raises the exact path's own exception.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .errors import PrimeMismatchError
from .padic import PAdicNumber, int_valuation, reduced_phase, split_p_part


def _dtype(p: int, width: int):
    if (p == 2 and width <= 64) or p ** (2 * width) < 2**64:
        return np.uint64
    return object


def decode(p: int, top: int, window: int | None, residue: int) -> PAdicNumber:
    """The PAdicNumber that ``residue`` stands for in a batch with this
    top and window (``window=None``: the exact zero)."""
    if window is None:
        return PAdicNumber.zero(p)
    if residue == 0:
        return PAdicNumber.zero(p, window)
    v = int_valuation(residue, p)
    return PAdicNumber(p, v - top, residue // p**v, top + window - v)


def replay(xs: Iterable[PAdicNumber], probes: Sequence[Callable]) -> NoReturn:
    """Run each probe on each value, value-major, until one raises.

    Called only after a batch has reported that some (value, probe) pair
    cannot be decided, so the exact arithmetic inside a probe raises.
    """
    for x in xs:
        for probe in probes:
            probe(x)
    raise RuntimeError("residue batch flagged a query the exact path answers")


class ResidueBatch:
    """N values over Q_p as residues X = x * p**top mod p**(top + window).

    ``window`` is None when every value is the exact zero.
    """

    __slots__ = ("prime", "top", "window", "values")

    def __init__(self, prime: int, top: int, window: int | None, values):
        self.prime = prime
        self.top = top
        self.window = window
        self.values = np.asarray(values, dtype=_dtype(prime, self.width))

    @property
    def width(self) -> int:
        return 0 if self.window is None else self.top + self.window

    def __len__(self) -> int:
        return len(self.values)

    def _mod(self, values, e: int):
        if self.prime == 2:
            return values & (2**e - 1)
        return values % self.prime**e

    # -- construction -------------------------------------------------

    @classmethod
    def from_padics(cls, p: int, xs: Sequence[PAdicNumber]) -> "ResidueBatch":
        """Residues of values over p, cut to the shortest window among them.

        Cutting loses nothing a query can use: every query that needs a
        digit beyond the shortest window fails on the value that sets it.
        """
        windows = []
        for x in xs:
            if x.prime != p:
                raise PrimeMismatchError(f"mixed primes {p} and {x.prime}")
            if not (x.is_zero and x.precision is None):
                windows.append(x.known_mod_exp)
        if not windows:
            return cls(p, 0, None, [0] * len(xs))
        window = min(windows)
        live = [x for x in xs if not x.is_zero and x.valuation < window]
        top = max((-x.valuation for x in live), default=-window)
        mod = p ** (top + window)
        return cls(p, top, window, [
            0 if x.is_zero or x.valuation >= window
            else (x.unit * p ** (top + x.valuation)) % mod
            for x in xs
        ])

    def scale(self, r: Fraction) -> "ResidueBatch":
        """Every value times the nonzero rational r."""
        if self.window is None:
            return self
        p = self.prime
        v, a, b = split_p_part(Fraction(r), p)
        mod = p**self.width
        c = (a * pow(b, -1, mod)) % mod
        values = self._mod(self.values * c, self.width)
        return ResidueBatch(p, self.top - v, self.window + v, values)

    def elements(self) -> list[PAdicNumber]:
        return [
            decode(self.prime, self.top, self.window, x)
            for x in self.values.tolist()
        ]

    # -- character phases ---------------------------------------------

    def phase_ok(self, t: PAdicNumber) -> bool:
        """False when the exact path raises on chi(t*x) for some value x."""
        if not len(self):
            return True
        if t.prime != self.prime:
            return False
        if self.window is None:
            return True
        if t.is_zero:
            # t*x is zero known modulo p**(e + v): t known mod p**e, v the
            # valuation of x, or its window when x is a certified zero
            return t.precision is None or self._lowest() + t.precision >= 0
        # t*x needs x modulo p**(-v_t), and t's digits reach p**(K_t);
        # a value with |x| > p**K_t needs digits of t that are not known
        if self.window + t.valuation < 0:
            return False
        e = self.top - t.known_mod_exp
        return e <= 0 or not self._mod(self.values, e).any()

    def _lowest(self) -> int:
        """The least valuation among the values, a certified zero counting
        as its window.  Taking the window into the minimum is exact: the
        value that sets the window is a certified zero or lies below it."""
        g = math.gcd(*self.values.tolist())
        if g == 0:
            return self.window
        return min(self.window, int_valuation(g, self.prime) - self.top)

    def phase_keys(self, t: PAdicNumber) -> tuple[int, list[int]]:
        """The phases of chi(t*x) as (m, keys), one key per value in
        order: the phase of a value is key / p**m.  Requires phase_ok(t)."""
        if not len(self):
            return 0, []
        m = 0 if t.is_zero or self.window is None else self.top - t.valuation
        if m <= 0:
            return 0, [0] * len(self)
        keys = self._mod(self.values * (t.unit % self.prime**m), m)
        return m, keys.tolist()

    # -- ball membership ----------------------------------------------

    def ball_ok(self, ball) -> bool:
        """False when Ball.contains raises for some value."""
        if not len(self):
            return True
        if ball.prime != self.prime:
            return False
        return self.window is None or self.window >= -ball.radius_exp

    def ball_count(self, ball) -> int:
        """Number of values in ``ball``; requires ball_ok(ball)."""
        if self.window is None or not len(self):
            return len(self) if ball.center == 0 else 0
        p = self.prime
        center = ball.center * Fraction(p) ** self.top
        if center.denominator != 1:
            return 0  # |center| > p**top >= |x| for every value x
        e = max(self.top - ball.radius_exp, 0)
        hits = self._mod(self.values, e) == int(center) % p**e
        return int(np.count_nonzero(hits))


def merge_phase_keys(
    p: int, blocks: Sequence[tuple[int, list[int]]]
) -> dict[tuple[int, int], int]:
    """The phase counts of one grid point over all blocks, keyed by the
    reduced phase (scale, numerator), in first-appearance order.  Keys
    key / p**m are lifted to the largest m first, so equal phases share
    one key and each is reduced once."""
    top = max((m for m, _ in blocks), default=0)
    keys: list[int] = []
    for m, ks in blocks:
        keys += ks if m == top else [k * p ** (top - m) for k in ks]
    return {reduced_phase(p, k, top): c for k, c in Counter(keys).items()}


def tally(
    p: int,
    values: ResidueBatch | Sequence[PAdicNumber],
    grid: Sequence[PAdicNumber],
    balls: Sequence,
) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """The phase keys (m, keys) of chi(t*x) at each grid point t (see
    ResidueBatch.phase_keys) and the number of values in each ball.

    ``values`` is a residue batch or a list of values over p; a list with
    a value over another prime fails every query.  Where the exact path
    raises, the original values (the list as given, since from_padics
    cuts windows, or the decoded batch) are replayed value-major over the
    failing grid points, then ball by ball, to raise its exception.
    """
    if isinstance(values, ResidueBatch):
        batch, xs = values, None
    else:
        xs = values
        same = all(x.prime == p for x in xs)
        batch = ResidueBatch.from_padics(p, xs) if same else None
    bad_ts = [t for t in grid if batch is None or not batch.phase_ok(t)]
    if bad_ts:
        replay(
            batch.elements() if xs is None else xs,
            [lambda x, t=t: (t * x).character_phase() for t in bad_ts],
        )
    for b in balls:
        if batch is None or not batch.ball_ok(b):
            replay(batch.elements() if xs is None else xs, [b.contains])
    return [batch.phase_keys(t) for t in grid], [batch.ball_count(b) for b in balls]
