"""Samplers of the laws in :mod:`padicprob.charfn`, their RNG streams,
and empirical ball counts: with :mod:`padicprob.residues`, the Monte
Carlo layer, and the only modules that import numpy.  The exact layers
import neither, so a command loads them on its first draw or count.

Sampling follows a splittable counter-based RNG contract: streams are
keyed by (seed, *indices) so parallel replication is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .charfn import SphereMassTable, StableLaw, StableParams, sphere_masses
from .padic import PAdicNumber, split_p_part
from .residues import ResidueBatch, lift, tally
from .sets import Ball


# ---------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, *key).

    Philox streams have period >= 2**128 and distinct spawn keys give
    statistically independent substreams, so replicates can be drawn in
    parallel and still reproduce bit-identically in any worker layout.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def poisson_draw(rng: np.random.Generator, mean: float) -> int:
    """Poisson sample: exact inversion for mean <= 30, PTRS rejection above."""
    if mean <= 0:
        return 0
    if mean <= 30.0:
        limit = math.exp(-mean)
        k = 0
        prod = rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k
    # transformed rejection with squeeze (Hormann's PTRS)
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= (
            -mean + k * log_mean - math.lgamma(k + 1.0)
        ):
            return k


# ---------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _limb_powers(p: int) -> np.ndarray:
    """p**0, ..., p**a as int64, a the most digits one int64 draw holds
    (p**a < 2**63)."""
    powers = [1]
    while powers[-1] * p < 2**63:
        powers.append(powers[-1] * p)
    return np.array(powers, dtype=np.int64)


def _uniform_digits(rng: np.random.Generator, p: int, digits: np.ndarray, dtype):
    """One uniform integer on [0, p**c) per entry c of ``digits``, as
    ``dtype``: a uniform integer on [0, p**c) is exactly c iid uniform
    digits.  One rng.integers call draws up to a digits of every entry
    (see _limb_powers); entries wider than that add limbs,
    u = lo + p**a * hi + ..., one call per limb."""
    powers = _limb_powers(p)
    a = len(powers) - 1
    u = rng.integers(0, powers[np.minimum(digits, a)]).astype(dtype)
    for shift in range(a, int(digits.max(initial=0)), a):
        limb = rng.integers(0, powers[np.clip(digits - shift, 0, a)])
        u += limb.astype(dtype) * p**shift
    return u


class Sampler:
    """Base: immutable descriptor, RNG owned by the caller.

    A sampler draws residue batches (see :mod:`padicprob.residues`);
    ``sample`` and ``draw`` decode one, so every path reads one stream.
    """

    prime: int
    resolution: int | None

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        """``replicates`` sums of ``k`` draws each, drawn in order."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> list[PAdicNumber]:
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        return self.residue_sums(rng, 1, count).elements()

    def draw(self, rng: np.random.Generator) -> PAdicNumber:
        return self.sample(rng, 1)[0]

    def folds(self) -> dict | None:
        """What the sampler folds, clamps or bounds away from the law it
        stands for (None when it draws that law exactly)."""
        return None


def _residue_dtype(mod: int):
    """uint64 for residues below ``mod`` when it fits, else Python ints."""
    return np.uint64 if mod < 2**64 else object


class _BlockSampler(Sampler):
    """A sampler that draws a whole block of values at once (RNG stream
    v2), each value x as the residue x * p**D mod p**W, W = D -
    resolution, for a top D with |x| <= p**D (see
    :mod:`padicprob.residues`).

    The k-draw sums are row sums of the block, in uint64 when k * p**W <
    2**64 and in Python ints otherwise, so they never wrap.
    """

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        """(D, residues): ``count`` residues below p**W, typed by
        _residue_dtype(p**W)."""
        raise NotImplementedError

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        p, res = self.prime, self.resolution
        top, draws = self._draw_block(rng, k * replicates)
        mod = p ** (top - res)
        if max(k, 1) * mod >= 2**64:
            draws = draws.astype(object)
        sums = draws.reshape(replicates, k).sum(axis=1) % mod
        return ResidueBatch(p, top, -res, sums)


@dataclass(frozen=True)
class PointMassSampler(Sampler):
    xi: PAdicNumber

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.xi.prime

    @property
    def resolution(self) -> int | None:  # type: ignore[override]
        e = self.xi.known_mod_exp
        return None if e == math.inf else -int(e)

    def residue_sums(
        self, rng: np.random.Generator, k: int, replicates: int
    ) -> ResidueBatch:
        p = self.prime
        one = ResidueBatch.from_padics(p, [self.xi])
        total = k * one.values.tolist()[0] % p**one.width
        return ResidueBatch(p, one.top, one.window, [total] * replicates)


@dataclass(frozen=True)
class HaarBallSampler(_BlockSampler):
    """Haar-uniform draws from one ball, resolved to the stated scale.

    A draw is center + U * p**-radius_exp with U uniform on
    [0, p**(radius_exp - resolution)): one rng.integers call per block
    (and one more per limb beyond 63 bits, see _uniform_digits).
    """

    ball: Ball
    resolution: int

    def __post_init__(self) -> None:
        p, n, res = self.ball.prime, self.ball.radius_exp, self.resolution
        # the canonical center p**v * u of a ball not around 0 has |center|
        # = p**-v > p**n, so every draw has |x| <= p**top
        split = self.ball._center_split
        top = max(n, res) if split is None else max(-split[0], res)
        center = 0 if split is None else split[1] * p ** (split[0] + top)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_center", center % p ** (top - res))
        object.__setattr__(self, "_digits", max(n - res, 0))
        object.__setattr__(self, "_step", p ** (top - n))

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.ball.prime

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        top = self._top  # type: ignore[attr-defined]
        dtype = _residue_dtype(self.prime ** (top - self.resolution))
        digits = np.full(count, self._digits)  # type: ignore[attr-defined]
        u = _uniform_digits(rng, self.prime, digits, dtype)
        return top, u * self._step + self._center  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RadialSampler(_BlockSampler):
    """Sphere index by inverse CDF on a mass table, then Haar-uniform
    digits on the sphere (first digit uniform on 1..p-1).

    Sphere-first sampling is sound precisely because the law is radial:
    conditioned on |X| = p**N the law is invariant under unit rotation,
    hence Haar-uniform on the sphere.  The table tails are folded: the
    mass below n_lo draws the zero-at-resolution element, the mass above
    n_hi draws from the top sphere.

    A block of N draws makes three calls (RNG stream v2):
    ``rng.random(N)`` picks the bins, right-closed so that a bin without
    mass is never drawn; ``rng.integers(1, p, N)`` gives the leading
    digits; ``rng.integers(0, p**c)``, with c the other digits of each
    draw, gives the rest (plus one call per limb beyond 63 bits, see
    _uniform_digits).  A draw on the sphere p**N has the residue
    (first + p * rest) * p**(top - N); a draw at or below the resolution
    is 0.
    """

    table: SphereMassTable
    resolution: int

    def __post_init__(self) -> None:
        if self.table.n_lo - 1 > self.resolution:
            raise ValueError(
                "mass table must extend to the resolution scale: "
                f"n_lo={self.table.n_lo}, resolution={self.resolution}"
            )
        if not self.table.total() > 0:
            raise ValueError("empty mass table")
        p, res = self.table.prime, self.resolution
        # cumulative bins; index 0 folds to zero, the top bin to n_hi
        edges: list[float] = [self.table.mass_at_zero]
        labels: list[int | None] = [None]
        acc = self.table.mass_at_zero
        for n, m in self.table.masses:
            acc += m
            edges.append(acc)
            labels.append(n)
        edges.append(acc + self.table.tail_above)
        labels.append(self.table.n_hi)
        # residue form: every draw has |x| <= p**top
        top = max(self.table.n_hi, res)
        live = [n is not None and n > res for n in labels]
        object.__setattr__(self, "_edges", np.array(edges))
        object.__setattr__(self, "_labels", tuple(labels))
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_rest_digits", np.array(
            [n - res - 1 if ok else 0 for n, ok in zip(labels, live)], dtype=np.int64
        ))
        object.__setattr__(self, "_scales", np.array(
            [p ** (top - n) if ok else 0 for n, ok in zip(labels, live)],
            dtype=_residue_dtype(p ** (top - res)),
        ))

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.table.prime

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        p, scales = self.table.prime, self._scales  # type: ignore[attr-defined]
        edges = self._edges  # type: ignore[attr-defined]
        u = rng.random(count) * edges[-1]
        bins = np.minimum(np.searchsorted(edges, u, side="right"), len(edges) - 1)
        first = rng.integers(1, p, count).astype(scales.dtype)
        rest = _uniform_digits(rng, p, self._rest_digits[bins], scales.dtype)  # type: ignore[attr-defined]
        return self._top, (first + p * rest) * scales[bins]  # type: ignore[attr-defined]

    # its own attribute, so the class's draws can be traced by name
    draw = Sampler.draw

    def folds(self) -> dict:
        """The table's folds: ``zero_mass`` is drawn as the zero at the
        resolution (the mass below n_lo and on the spheres at or below the
        resolution), ``top_tail`` (the mass above n_hi) from the top
        sphere; ``clamped`` spheres had a small negative mass set to 0, and
        every mass is within ``error_bound`` of the law's."""
        table, res = self.table, self.resolution
        return {
            "zero_mass": table.mass_at_zero + sum(m for n, m in table.masses if n <= res),
            "top_tail": table.tail_above,
            "clamped": list(table.clamped),
            "error_bound": table.error_bound,
        }


def stable_sampler(
    params: StableParams, resolution: int, n_lo: int, n_hi: int
) -> RadialSampler:
    table = sphere_masses(StableLaw(params), min(n_lo, resolution + 1), n_hi)
    return RadialSampler(table=table, resolution=resolution)


# Draws per chunk of a compound-Poisson block (RNG stream v2): each chunk
# makes its own RNG calls, so the constant is part of the stream, and it
# bounds the memory a block's jumps take.
CP_CHUNK = 1024


@dataclass(frozen=True)
class CompoundPoissonSampler(_BlockSampler):
    """Sum of a Poisson number of jumps from a self-similar jump measure,
    truncated at the resolution scale.

    Jumps not exceeding p**resolution are dropped; by the ultrametric
    inequality their sum cannot move the draw across any ball of radius
    >= p**resolution, so the sampled law is exact in distribution on all
    such balls.  The jump rate is the (finite, exact) measure of
    {|y| > p**resolution}; note it grows like beta**(resolution/j), so
    fine resolutions are expensive by construction.

    A jump is y = gamma0**-k * z with z Haar-uniform on a fundamental ball
    of weight w on the sphere p**r, and lies on the sphere n = r + k*j.
    The measure of gamma0**-1 * M is beta times that of M, so the jumps
    above the resolution put the mass w * beta**k on each period k >=
    k_min(r), the least with n > resolution: the ball follows the masses
    w * beta**k_min(r), and the offset k - k_min(r) is geometric(1 - beta)
    on every sphere, so no sphere table is cut.

    RNG stream v2 draws a block CP_CHUNK draws at a time, a chunk of N
    draws with J jumps in four steps: ``rng.poisson(rate, N)`` the jump
    counts; ``rng.random(J)`` and a right-closed ``np.searchsorted`` the
    balls (a ball of zero weight is left out of the table);
    ``rng.geometric(1 - beta, J)`` the offsets; ``rng.integers(0,
    p**c)``, with c the digits of z below its ball that the resolution
    needs (plus one call per limb beyond 63 bits, see _uniform_digits),
    the points.

    A chunk's residues are y * p**D mod p**W, W = D - resolution, with D
    the largest sphere it drew: a jump's is (z * p**r) * p**(D - n) *
    (b/a)**k, gamma0 = p**j * a/b, in uint64 when p**(2W) < 2**64, and a
    draw sums its jumps' (np.add.reduceat).  Reduction modulo a power of p
    is a ring map on p-integral rationals and every jump has |y| <= p**D,
    so the sum of the residues is the residue of the exact sum.  A block
    lifts each chunk's residues to the largest chunk top.
    """

    measure: object
    resolution: int

    def __post_init__(self) -> None:
        meas, res = self.measure, self.resolution
        p, j = meas.prime, meas.j
        k_top = -((-res - 1) // j)  # k_min(0), the largest k_min(r)
        balls = [
            (r, -((r - res - 1) // j), ball, w)
            for r, entries in enumerate(meas.fundamental)
            for ball, w in entries
            if w > 0
        ]
        _, a, b = split_p_part(meas.gamma0, p)
        object.__setattr__(self, "_lam", float(meas.tail_mass(res)))
        object.__setattr__(self, "_edges", np.cumsum(
            [float(w * meas.beta_pow(k - k_top)) for _, k, _, w in balls]
        ))
        object.__setattr__(self, "_r", np.array([row[0] for row in balls], dtype=np.int64))
        object.__setattr__(self, "_k_min", np.array([row[1] for row in balls], dtype=np.int64))
        # z = center + u * p**-radius_exp in the ball, center = p**-r * c_u,
        # has z * p**r = c_u + u * step, and needs radius_exp - r + n -
        # resolution digits of u to resolve the jump on the sphere n
        object.__setattr__(self, "_depth", np.array(
            [x.radius_exp - r for r, _, x, _ in balls], dtype=np.int64
        ))
        object.__setattr__(self, "_centres", tuple(x._center_split[1] for _, _, x, _ in balls))
        object.__setattr__(self, "_steps", tuple(p ** (r - x.radius_exp) for r, _, x, _ in balls))
        object.__setattr__(self, "_j", j)
        object.__setattr__(self, "_q", float(1 - meas.beta))
        object.__setattr__(self, "_gamma_ab", (a, b))
        object.__setattr__(self, "_gpow", {})

    @property
    def prime(self) -> int:  # type: ignore[override]
        return self.measure.prime

    def _sphere_factors(self, top: int) -> tuple[int, ...]:
        """The residues of p**(top - n) * (b/a)**k modulo p**(top -
        resolution) for the spheres n = resolution + 1, ..., top (k = n //
        j), memoised by the top they are for."""
        factors = self._gpow.get(top)  # type: ignore[attr-defined]
        if factors is None:
            p, j, res = self.prime, self._j, self.resolution  # type: ignore[attr-defined]
            mod = p ** (top - res)
            a, b = self._gamma_ab  # type: ignore[attr-defined]
            unit = b * pow(a, -1, mod) % mod
            unit_k = pow(unit, res // j, mod)  # (b/a)**k for k = res // j
            factors = []
            for n in range(res + 1, top + 1):
                if n % j == 0:  # k = n // j steps up
                    unit_k = unit_k * unit % mod
                factors.append(p ** (top - n) * unit_k % mod)
            self._gpow[top] = factors = tuple(factors)  # type: ignore[attr-defined]
        return factors

    def _draw_chunk(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        """``count`` draws as (D, residues), D the largest sphere drawn
        (resolution + 1 when no draw has a jump)."""
        p, j, res = self.prime, self._j, self.resolution  # type: ignore[attr-defined]
        jumps = rng.poisson(self._lam, count)  # type: ignore[attr-defined]
        total = int(jumps.sum())
        if not total:
            return res + 1, np.zeros(count, dtype=np.uint64)
        edges = self._edges  # type: ignore[attr-defined]
        ball = np.searchsorted(edges, rng.random(total) * edges[-1], side="right")
        np.minimum(ball, len(edges) - 1, out=ball)
        # the sphere n = r + k*j of each jump, k = k_min(r) + offset
        n = rng.geometric(self._q, total)  # type: ignore[attr-defined]
        n += self._k_min[ball] - 1  # type: ignore[attr-defined]
        n *= j
        n += self._r[ball]  # type: ignore[attr-defined]
        top = int(n.max())
        mod = p ** (top - res)
        dtype = np.uint64 if mod * mod < 2**64 else object
        digits = self._depth[ball] + n  # type: ignore[attr-defined]
        digits -= res
        np.maximum(digits, 0, out=digits)
        y = _uniform_digits(rng, p, digits, dtype)
        del digits
        # z * p**r mod p**W, below p**W: centre < step, so it is below
        # p**(n - resolution) when u has digits, and a step of p**W or
        # more comes with none
        steps, centres = self._steps, self._centres  # type: ignore[attr-defined]
        y *= np.array([s % mod for s in steps], dtype=dtype)[ball]
        y += np.array([c % mod for c in centres], dtype=dtype)[ball]
        n -= res + 1
        y *= np.array(self._sphere_factors(top), dtype=dtype)[n]
        y %= mod
        live = jumps > 0
        sums = np.zeros(count, dtype=dtype)
        sums[live] = np.add.reduceat(y, (np.cumsum(jumps) - jumps)[live])
        sums %= mod
        return top, sums

    def _draw_block(self, rng: np.random.Generator, count: int) -> tuple[int, np.ndarray]:
        p, res = self.prime, self.resolution
        chunks = [
            self._draw_chunk(rng, min(CP_CHUNK, count - i))
            for i in range(0, count, CP_CHUNK)
        ]
        top = max((t for t, _ in chunks), default=res + 1)
        return top, lift(p, chunks, top, _residue_dtype(p ** (top - res)))

    # its own attribute, so the class's draws can be traced by name
    draw = Sampler.draw


# ---------------------------------------------------------------------
# Empirical counts
# ---------------------------------------------------------------------


def ball_counts(
    samples: Sequence[PAdicNumber] | ResidueBatch, balls: Sequence[Ball]
) -> list[int]:
    """How many samples lie in each ball, counted on residues.

    ``samples`` is a list of values or a residue batch of them.  Raises
    what ``Ball.contains`` raises, ball by ball in order.
    """
    if not len(samples):
        return [0] * len(balls)
    p = samples.prime if isinstance(samples, ResidueBatch) else samples[0].prime
    return tally(p, samples, [], balls)[1]
