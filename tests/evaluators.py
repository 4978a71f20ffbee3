"""Test-side evaluators built from the package's own kernels.

``Pointwise`` reads a plain function of t as a Transform, so that the
probing algorithms, which read every value through a sphere evaluator,
can be driven by a hand-written function.  ``empirical_cf`` is the
empirical characteristic function of a sample, summed by the same
``tally`` and ``character_values`` kernels as the Monte Carlo rows.
"""

from padicprob.charfn import Transform
from padicprob.padic import PAdicNumber
from padicprob.residues import character_values, tally


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


def empirical_cf(samples, t: PAdicNumber) -> complex:
    """(1/n) sum_i chi(t * x_i); raises PrecisionError when |t| exceeds
    what the sample resolution can support."""
    if not samples:
        raise ValueError("no samples")
    table, _ = tally(t.prime, samples, [t], [])
    return character_values(t.prime, table, 1, len(samples))[0]
