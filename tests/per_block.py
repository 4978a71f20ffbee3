"""The per-block Monte Carlo path, kept as a test reference.

A report's Monte Carlo step used to draw each block of an n as its own
sum_residues batch, with k(n), B(n) and the 1/B_n scale computed once per
block; the scaled blocks were joined, the joined batch was checked before
``tally`` checked it again, and on an undecidable query each block was
tallied on its own, in order.  The package now joins the blocks' row
sums and computes k(n), B(n), the scale and the one tally once per n;
this is the loop it replaced, so a test can ask for the same phase
tables, ball counts and exception texts.
"""

from padicprob.limits import sum_residues
from padicprob.residues import ResidueBatch, tally
from padicprob.samplers import substream


def mc_blocks(sampler, scheme, n, seed, n_idx, blocks, grid, balls):
    """The (phase table, ball counts) of the (block, count) pairs of one
    n: each block drawn and scaled by sum_residues from its substream
    (seed, n_idx, block), the scaled blocks joined and tallied once, and
    on an undecidable query the blocks tallied one by one, in order."""
    p = sampler.prime
    batches = [
        sum_residues(sampler, scheme, n, count, substream(seed, n_idx, block))
        for block, count in blocks
    ]
    whole = ResidueBatch.concat(p, batches)
    if not (all(whole.phase_ok(t) for t in grid) and all(whole.ball_ok(b) for b in balls)):
        for batch in batches:
            tally(p, batch, grid, balls)
    return tally(p, whole, grid, balls)
