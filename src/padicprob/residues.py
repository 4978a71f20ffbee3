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
Python ints (object dtype) otherwise.  No float ever holds a value (the
p = 2 phase kernel reads the exponent of a power of two, which converts
exactly).

Every Monte Carlo count goes through :func:`tally`, which answers a
query from residues only when the exact
:class:`~padicprob.padic.PAdicNumber` arithmetic would answer it.
:meth:`ResidueBatch.phase_ok` and :meth:`ResidueBatch.ball_ok` decide
that from the window, the top and the least valuation among the values
(computed once per batch); when they return False, ``tally`` hands the
original values to :func:`replay`, which re-runs the exact arithmetic in
the exact loop's order and so raises the exact path's own exception.

A decidable batch is counted all at once: the phase keys of every grid
point come from one numpy expression over the batch, one sort counts the
distinct keys of each grid point, and only those are reduced to
(scale, numerator) phases, with vectorised valuations.  The counts stay
arrays: a :class:`PhaseTable` of (row, scale, numerator, count), row i
for the i-th grid point, which :func:`character_values` turns into the
empirical transform of every grid point at once.

:func:`tally_blocks` counts the blocks of one n of a report as a single
batch.  The report's jobs only draw: each joins its blocks' unscaled row
sums with :meth:`ResidueBatch.concat` (:func:`lift` takes each block's
residues to the largest top), and the report joins its jobs' batches the
same way and scales the result once.  The counts are the per-block counts
summed, and when the joined batch leaves a query undecidable it tallies
the blocks one by one, in order, as slices of that batch, so the first
failing block raises what a per-block tally raises.

With :mod:`padicprob.samplers` this module is the Monte Carlo layer, and
no exact module imports it: numpy loads when a command first draws or
counts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import PrimeMismatchError
from .padic import (
    _AXIS_PHASES, _TWO_PI, PAdicNumber, int_valuation, phase_known, reduced_phase,
    split_p_part,
)


def _dtype(p: int, width: int):
    if (p == 2 and width <= 64) or p ** (2 * width) < 2**64:
        return np.uint64
    return object


def lift(p: int, parts: Sequence[tuple[int, np.ndarray]], top: int, dtype) -> np.ndarray:
    """Residue arrays, each (t, values) at its own top t <= ``top`` over
    one window, as one array of ``dtype`` at ``top``, in order: the
    residue of x at t, times p**(top - t), is its residue at top, which
    leaves every value and every query's answer unchanged."""
    lifted = [
        values.astype(dtype) * p ** (top - t) if t < top else values.astype(dtype, copy=False)
        for t, values in parts
    ]
    return np.concatenate(lifted) if lifted else np.zeros(0, dtype=dtype)


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

    __slots__ = ("prime", "top", "window", "values", "_low")

    def __init__(self, prime: int, top: int, window: int | None, values):
        self.prime = prime
        self.top = top
        self.window = window
        self.values = np.asarray(values, dtype=_dtype(prime, self.width))
        self._low: int | None = None

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

    @classmethod
    def concat(cls, p: int, batches: Sequence["ResidueBatch"]) -> "ResidueBatch":
        """The values of ``batches`` over p, in order, as one batch.

        The batches share a window (a sampler's window does not depend
        on its draws); each residue is lifted to the largest top (lift).
        """
        windows = {b.window for b in batches}
        if len(windows) > 1:
            raise ValueError(f"batches with different windows {sorted(windows)}")
        window = windows.pop() if windows else None
        top = max((b.top for b in batches), default=0)
        dtype = _dtype(p, 0 if window is None else top + window)
        return cls(p, top, window, lift(p, [(b.top, b.values) for b in batches], top, dtype))

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
        """The values as PAdicNumbers, decoded in one pass.

        A residue X != 0 with valuation v stands for p**(v - top) * X/p**v,
        known to top + window - v digits; X = 0 stands for the zero
        certified modulo p**window, and every value of a batch with
        window None for the exact zero.  The batch is checked once (a
        residue outside [0, p**(top + window)) raises PAdicNumber's range
        error); within it the decode gives valid fields, so each value is
        built trusted.  At p = 2 the valuation of X is its trailing zeros.
        """
        p, top, window = self.prime, self.top, self.window
        residues = self.values.tolist()
        if window is None:
            return [PAdicNumber.zero(p)] * len(residues)
        width = top + window
        if residues and (self.values.min() < 0 or int(self.values.max()) >= p**width):
            raise ValueError("unit out of range for stated precision")
        zero = PAdicNumber.zero(p, window)
        of = PAdicNumber._of
        out = []
        for x in residues:
            if not x:
                out.append(zero)
                continue
            if p == 2:
                v = (x & -x).bit_length() - 1
                x >>= v
            else:
                v = 0
                while not x % p:
                    x //= p
                    v += 1
            out.append(of(p, v - top, x, width - v))
        return out

    # -- character phases ---------------------------------------------

    def phase_ok(self, t: PAdicNumber) -> bool:
        """False when the exact path raises on chi(t*x) for some value x.

        The product t*x has valuation v_t + v_x and is known modulo
        p**min(K_t + v_x, v_t + window) (K_t: t known modulo p**K_t);
        both grow with v_x, so the value of least valuation decides.
        """
        if not len(self):
            return True
        if t.prime != self.prime:
            return False
        if self.window is None or (t.is_zero and t.precision is None):
            return True
        low = self._lowest()
        if t.is_zero:
            # a zero certified modulo p**(e + v), e from t, v from x
            return phase_known(t.precision + low, t.precision + low)
        return phase_known(
            t.valuation + low,
            min(t.known_mod_exp + low, t.valuation + self.window),
        )

    def _lowest(self) -> int:
        """The least valuation among the values, a certified zero counting
        as its window; computed once per batch.  Taking the window into
        the minimum is exact: the value that sets the window is a
        certified zero or lies below it."""
        if self._low is None:
            values, p = self.values, self.prime
            if values.dtype == object:
                g = math.gcd(*values.tolist())
            elif p == 2:  # the least valuation is that of the bitwise OR
                g = int(np.bitwise_or.reduce(values))
            else:
                g = int(np.gcd.reduce(values))
            self._low = self.window if g == 0 else min(
                self.window, int_valuation(g, p) - self.top
            )
        return self._low

    def phase_counts(self, grid: Sequence[PAdicNumber]) -> PhaseTable:
        """The phases of chi(t*x) over the values at each grid point t, as
        a PhaseTable whose row i counts the phases at grid[i].  Requires
        phase_ok(t) for every t.

        The phase of t*x is key / p**m with key = u_t * X mod p**m and m =
        top - v_t (m <= width by phase_ok).  uint64 keys of all grid
        points form one (grid x values) array, and one sort of its rows
        counts the distinct keys, as np.unique(..., return_counts=True)
        would for each row; only the distinct keys are reduced to phases,
        and the table is the arrays of that sort.  Python-int keys, which
        sort slowly, are counted by hashing, one grid point at a time,
        into a table with Python-int numerators.
        """
        size, p = len(self), self.prime
        if not size or not grid:
            return PhaseTable.from_counts([])
        ms = [
            0 if t.is_zero or self.window is None else max(self.top - t.valuation, 0)
            for t in grid
        ]
        dtype = self.values.dtype
        if dtype == object:
            return PhaseTable.from_counts([
                {
                    reduced_phase(p, k, m): c
                    for k, c in Counter(
                        self._mod(self.values * (t.unit % p**m), m).tolist()
                    ).items()
                }
                for t, m in zip(grid, ms)
            ])
        units = np.array([t.unit % p**m for t, m in zip(grid, ms)], dtype=dtype)
        keys = self.values[None, :] * units[:, None]
        if p == 2:
            keys &= np.array([2**m - 1 for m in ms], dtype=dtype)[:, None]
        else:
            keys %= np.array([p**m for m in ms], dtype=dtype)[:, None]
        keys.sort(axis=1)
        first = np.ones(keys.shape, dtype=bool)
        first[:, 1:] = keys[:, 1:] != keys[:, :-1]
        starts = np.flatnonzero(first)
        rows = starts // size
        scales, numerators = _reduced_phases(
            p, keys.reshape(-1)[starts], np.array(ms, dtype=np.int64)[rows]
        )
        return PhaseTable(rows, scales, numerators, np.diff(starts, append=keys.size))

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
            return len(self) if ball.contains_zero else 0
        p, top, split = self.prime, self.top, ball._center_split  # center p**v * u
        if split is not None and split[0] + top < 0:
            return 0  # |center| > p**top >= |x| for every value x
        center = 0 if split is None else split[1] * p ** (split[0] + top)
        e = max(top - ball.radius_exp, 0)
        hits = self._mod(self.values, e) == center % p**e
        return int(np.count_nonzero(hits))


def _reduced_phases(p: int, keys: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reduced_phase(p, key, m) over uint64 arrays of keys and their
    (int64) m, as arrays of scales (int64) and numerators (uint64).  The
    valuation of a key is its number of trailing zero bits at p = 2 (the
    lowest set bit converts exactly to a float, whose exponent frexp
    reads) and is found by repeated division otherwise, each round only
    on the keys the last round divided."""
    live = keys != 0
    if p == 2:
        low = keys & (~keys + np.uint64(1))
        v = np.where(live, np.frexp(low.astype(np.float64))[1] - 1, 0)
        numerators = keys >> v.astype(np.uint64)
    else:
        numerators = keys.copy()
        v = np.zeros(len(keys), dtype=np.int64)
        idx = np.flatnonzero(live)
        while idx.size:
            q, r = np.divmod(numerators[idx], np.uint64(p))
            idx, q = idx[r == 0], q[r == 0]
            numerators[idx] = q
            v[idx] += 1
    return np.where(live, ms - v, 0), numerators


def tally(
    p: int,
    values: ResidueBatch | Sequence[PAdicNumber],
    grid: Sequence[PAdicNumber],
    balls: Sequence,
) -> tuple[PhaseTable, list[int]]:
    """The phase table of chi(t*x), row i for grid point grid[i] (see
    ResidueBatch.phase_counts), and the number of values in each ball.

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
    return batch.phase_counts(grid), [batch.ball_count(b) for b in balls]


def tally_blocks(
    batch: ResidueBatch,
    sizes: Sequence[int],
    grid: Sequence[PAdicNumber],
    balls: Sequence,
) -> tuple[PhaseTable, list[int]]:
    """tally over ``batch``, the blocks of one Monte Carlo step joined in
    block order (``sizes`` values each, see ResidueBatch.concat): the
    counts are those of tallying each block and adding, each key once in
    the table.  A query that one block cannot decide is one the joined
    batch cannot decide (the blocks share the window, and the least
    valuation of the batch is a block's); then the blocks are tallied one
    by one, in order, so the first failing block raises what its own
    tally raises."""
    if all(batch.phase_ok(t) for t in grid) and all(batch.ball_ok(b) for b in balls):
        return batch.phase_counts(grid), [batch.ball_count(b) for b in balls]
    p, start = batch.prime, 0
    for size in sizes:
        # a block lifted to the joined top has the block's values
        tally(p, ResidueBatch(p, batch.top, batch.window, batch.values[start:start + size]),
              grid, balls)
        start += size
    return tally(p, batch, grid, balls)


class PhaseTable(NamedTuple):
    """Phase counts of several rows (grid points) as parallel arrays:
    ``count[j]`` values have the reduced phase numerator[j] / p**scale[j]
    in row ``row[j]``.  row, scale and count are int64; numerator is
    uint64, or object (Python ints) when a phase outgrows 64 bits.  A key
    (row, scale, numerator) may appear more than once; its counts then
    add."""

    row: np.ndarray
    scale: np.ndarray
    numerator: np.ndarray
    count: np.ndarray

    @classmethod
    def from_counts(
        cls, rows: Sequence[Mapping[tuple[int, int], int]]
    ) -> "PhaseTable":
        """The table of one {(scale, numerator): count} mapping per row."""
        items = [(i, s, k, c) for i, terms in enumerate(rows) for (s, k), c in terms.items()]
        row, scale, numerator, count = zip(*items) if items else ((), (), (), ())
        return cls(
            np.array(row, dtype=np.int64),
            np.array(scale, dtype=np.int64),
            np.array(numerator, dtype=object if items else np.uint64),
            np.array(count, dtype=np.int64),
        )


def character_values(
    p: int, table: PhaseTable, n_rows: int, denominator: int = 1
) -> list[complex]:
    """character_value(p, terms_i, denominator) for each row i < n_rows of
    ``table`` (terms_i: row i's {(scale, numerator): count}, equal keys
    added), bit for bit, with array operations in place of the loop; a
    row of ``table`` outside [0, n_rows) raises ValueError.

    Keys are summed in int64, sorted by (row, s, k) in one stable argsort
    of (row * (S + 1) + s) * W + rank(k) (S: the largest scale, W: the
    distinct numerators and conjugates; n_rows * (S + 1) * W < 2**63 for
    any table that fits in memory), and each conjugate (s, p**s - k) is
    found by a search within its (row, s).  Each kept term, a conjugate
    pair led by its smaller numerator or an unpaired key, gets the loop's
    float operations in the loop's order: k / p**s is divided as floats
    only while p**s < 2**53, where that is the correctly rounded quotient
    Python gives, and as Python ints beyond; cos and sin are math's, once
    per distinct angle; an unpaired term is the complex product float(c) /
    denominator * chi, written out.  Each row is then summed strictly in
    sequence from 0.0 by np.add.accumulate (np.sum adds pairwise, which
    changes bits).
    """
    row, scale, numerator, count = table
    if not len(row):
        return [complex(0.0, 0.0)] * n_rows
    if not 0 <= row.min() <= row.max() < n_rows:
        raise ValueError(f"phase table rows {row.min()}..{row.max()} not all in [0, {n_rows = })")
    top = p ** (s_max := int(scale.max()))
    if top >= 2**63:
        k = numerator.astype(object)
        power = p ** scale.astype(object)
    else:
        k = numerator.astype(np.int64)
        power = np.int64(p) ** scale
    size = len(k)
    # ranks of numerators and conjugate numerators on one scale, so that
    # (row, scale, rank) and (group, rank) pack into one int64
    ranked, rank = np.unique(np.concatenate([k, power - k]), return_inverse=True)
    width = len(ranked)
    assert n_rows * (s_max + 1) * width < 2**63
    order = np.argsort((row * (s_max + 1) + scale) * width + rank[:size], kind="stable")
    row, scale, k, power = row[order], scale[order], k[order], power[order]
    rk, rc, count = rank[:size][order], rank[size:][order], count[order]
    new_group = np.ones(size, dtype=bool)
    new_group[1:] = (row[1:] != row[:-1]) | (scale[1:] != scale[:-1])
    new_key = new_group.copy()
    new_key[1:] |= rk[1:] != rk[:-1]
    first = np.flatnonzero(new_key)
    count = np.add.reduceat(count, first)
    row, scale, k, power, rk, rc = (a[first] for a in (row, scale, k, power, rk, rc))
    group = np.cumsum(new_group[first])
    key, conj_key = group * width + rk, group * width + rc
    at = np.minimum(np.searchsorted(key, conj_key), len(key) - 1)
    paired = key[at] == conj_key
    keep = ~(paired & (rk > rc))
    lead = (paired & (rk < rc))[keep]
    row, scale, k, power, c = row[keep], scale[keep], k[keep], power[keep], count[keep]
    c2 = count[at[keep]]

    axis = ~lead & (k != 0) & (p == 2) & (scale <= 2)
    trig = (k != 0) & ~axis
    if top >= 2**53:
        ratio = (k[trig].astype(object) / power[trig].astype(object)).astype(np.float64)
    else:
        ratio = k[trig].astype(np.float64) / power[trig].astype(np.float64)
    angles, which = np.unique(_TWO_PI * ratio, return_inverse=True)
    angles = angles.tolist()
    re, im = np.ones(len(k)), np.zeros(len(k))
    re[trig] = np.array([math.cos(a) for a in angles])[which]
    im[trig] = np.array([math.sin(a) for a in angles])[which]
    for (s, num), z in _AXIS_PHASES.items():
        hit = axis & (scale == s) & (k == num)
        re[hit], im[hit] = z.real, z.imag

    den = float(denominator)
    f = c.astype(np.float64) / den
    terms_re = f * re - 0.0 * im
    terms_im = f * im + 0.0 * re
    terms_re[lead] = (c + c2)[lead].astype(np.float64) / den * re[lead]
    terms_im[lead] = (c - c2)[lead].astype(np.float64) / den * im[lead]

    start = np.searchsorted(row, np.arange(n_rows))
    pos = np.arange(len(row)) - start[row] + 1
    out = []
    for part in (terms_re, terms_im):
        padded = np.zeros((int(pos.max()) + 1, n_rows))
        padded[pos, row] = part
        out.append(np.add.accumulate(padded, axis=0)[-1].tolist())
    return [complex(a, b) for a, b in zip(*out)]
