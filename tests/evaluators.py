"""Test-side evaluators built from the package's own kernels.

``Pointwise`` reads a plain function of t as a Transform, so that the
probing algorithms, which read every value through a sphere evaluator,
can be driven by a hand-written function.  ``batch_of`` stores a list
of values as one residue batch, and ``empirical_cf`` is the empirical
characteristic function of a sample, summed from that batch by the same
``tally`` and ``character_values`` kernels as the Monte Carlo rows.
"""

from padicprob.charfn import Transform
from padicprob.errors import PrimeMismatchError
from padicprob.padic import PAdicNumber
from padicprob.residues import ResidueBatch, character_values, tally


class Pointwise(Transform):
    """The function ``fn`` of t over ``prime`` as a Transform: each point
    p**v * u of a sphere is built as PAdicNumber(p, v, u, precision) and
    passed to ``fn`` in order, one call per point."""

    def __init__(self, fn, prime: int):
        self.fn = fn
        self.prime = prime

    def _sphere(self, v, units, precision):
        return [
            complex(self.fn(PAdicNumber(self.prime, v, u, precision)))
            for u in units
        ]


def batch_of(p: int, xs) -> ResidueBatch:
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
        return ResidueBatch(p, 0, None, [0] * len(xs))
    window = min(windows)
    live = [x for x in xs if not x.is_zero and x.valuation < window]
    top = max((-x.valuation for x in live), default=-window)
    mod = p ** (top + window)
    return ResidueBatch(p, top, window, [
        0 if x.is_zero or x.valuation >= window
        else (x.unit * p ** (top + x.valuation)) % mod
        for x in xs
    ])


def empirical_cf(samples, t: PAdicNumber) -> complex:
    """(1/n) sum_i chi(t * x_i); raises PrecisionError when |t| exceeds
    what the sample resolution can support."""
    if not samples:
        raise ValueError("no samples")
    table, _ = tally(batch_of(t.prime, samples), [t], [])
    return character_values(t.prime, table, 1, len(samples))[0]
