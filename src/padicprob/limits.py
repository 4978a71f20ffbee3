"""Normalised-sum schemes, their theoretical and simulated transforms,
rescaled jump measures, convergence diagnostics, and the presets.

The scheme S_n = B_n**-1 (X_1 + ... + X_k(n)) is driven either by the
geometric construction B_n = gamma0**-n, k(n) = floor(beta**-n), or by
explicit user-supplied sequences.  Its transform f_n(t) = g(t / B_n)**k(n)
is SumTransform, the one evaluator of f_n.  Weak convergence is
surrogated at desk scale by (a) sup-distance of transforms on a fixed
exact grid, (b) Monte Carlo transforms with binomial bands, (c)
trajectories of the rescaled measures k(n) * F(B_n M) on tail sets, (d)
residuals of the modulus scaling identity |g(gamma0 t)| = |g(t)|**beta,
and (e) a positivity check of the target on the grid, on log |g| so that
float underflow is not read as a zero.  Which limit a report claims
follows its target: none without one; for a point mass or a Haar ball,
that the exact two-valued form of f_n at the final n is the target's;
for any other, positivity, and an exact sup distance where the summands'
transform or jump measure is the target's.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .charfn import Transform, TwoValuedForm, ball_probability
from .errors import PrimeMismatchError, ToleranceError
from .levy import measure_mass
from .padic import PAdicNumber, _check_prime, rational_valuation, split_p_part
from .sets import Ball, TailSet

if TYPE_CHECKING:
    from .residues import ResidueBatch
    from .samplers import Sampler
    from .specs import Law

BUDGET_CAP = 10**8
MC_BLOCKS = 16
# a report compares two-valued forms on the spheres |t| <= p**k, k =
# CLASSIFY_SEARCH_RADIUS_EXP
CLASSIFY_SEARCH_RADIUS_EXP = 4


@dataclass(frozen=True)
class LimitScheme:
    """The normalisation data (B_n, k(n)) of a sum scheme.

    Geometric mode takes B_n = gamma0**-n and k(n) = floor(beta**-n)
    (floor of the exact fraction when beta is rational, of the float
    power otherwise); explicit mode takes user-listed sequences.  n_max is
    the last n: a geometric caller gives it, explicit mode reads it off.
    """

    prime: int
    mode: str  # 'geometric' | 'explicit'
    beta: Fraction | float | None = None
    gamma0: Fraction | None = None
    n_max: int | None = None
    b_list: tuple[Fraction, ...] | None = None
    k_list: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        if self.mode == "geometric":
            if self.gamma0 is None or self.gamma0 == 0:
                raise ValueError("geometric mode needs gamma0 != 0")
            if rational_valuation(Fraction(self.gamma0), self.prime) < 1:
                raise ValueError("need |gamma0|_p <= 1/p")
            if not 0 < float(self.beta) < 1:
                raise ValueError("geometric mode needs beta in (0, 1)")
            ks = [self.k(n) for n in range(self.n_max + 1)]
            if any(b >= a for a, b in zip(ks[1:], ks)):
                raise ValueError(
                    "k(n) = floor(beta**-n) is not strictly increasing up "
                    f"to n_max={self.n_max}; use explicit mode"
                )
        elif self.mode == "explicit":
            if not self.b_list or not self.k_list:
                raise ValueError("explicit mode needs b_list and k_list")
            if len(self.b_list) != len(self.k_list):
                raise ValueError("b_list and k_list lengths differ")
            if any(b == 0 for b in self.b_list):
                raise ValueError("B_n must be nonzero")
            if any(
                b > a for a, b in zip(self.k_list[1:], self.k_list)
            ):
                raise ValueError("k(n) must be non-decreasing")
            if self.k_list[0] < 0:
                raise ValueError("k(n) must be >= 0")
            object.__setattr__(self, "n_max", len(self.b_list) - 1)
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def geometric(cls, p: int, beta, gamma0, n_max: int) -> "LimitScheme":
        b = Fraction(beta) if isinstance(beta, (int, Fraction, str)) else beta
        return cls(p, "geometric", beta=b, gamma0=Fraction(gamma0), n_max=n_max)

    @classmethod
    def explicit(cls, p: int, b_list, k_list) -> "LimitScheme":
        return cls(
            p,
            "explicit",
            b_list=tuple(Fraction(b) for b in b_list),
            k_list=tuple(int(k) for k in k_list),
        )

    def B(self, n: int) -> Fraction:
        if self.mode == "geometric":
            return Fraction(self.gamma0) ** (-n)
        return self.b_list[n]

    def k(self, n: int) -> int:
        if self.mode == "geometric":
            x = self.beta ** (-n)
            if isinstance(x, Fraction):
                return x.numerator // x.denominator
            return math.floor(x)
        return self.k_list[n]


def _check_scheme(scheme: LimitScheme, p: int) -> None:
    """Refuse a scheme over another prime than its law's."""
    if scheme.prime != p:
        raise PrimeMismatchError(f"scheme over p={scheme.prime} used with a law over p={p}")


# ---------------------------------------------------------------------
# Theoretical transform of S_n
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SumTransform(Transform):
    """f_n(t) = g(t / B_n)**k(n), the transform of S_n for the summand law
    with transform g = ``source``, as a Transform.

    B_n**-1 = p**w * a/b is split once, over the source's prime, so a
    sphere p**v * u moves to p**(v + w) * u * a/b, where ``source`` is
    evaluated and each value raised to k(n) (see Transform.sphere).  Its
    form is the closed form of S_n for a two-valued source: k = k(n)
    copies of delta_xi, divided by B_n, give delta at k * xi / B_n; k
    copies of the uniform law on B(c, p**R), divided by B_n, give the
    uniform law on B(k * c / B_n, p**R / |B_n|).  The empty sum (k = 0)
    is the point mass at 0."""

    source: Transform
    scheme: LimitScheme
    n: int

    def __post_init__(self) -> None:
        p, form = self.source.prime, self.source.form
        _check_scheme(self.scheme, p)
        k, b = self.scheme.k(self.n), self.scheme.B(self.n)
        object.__setattr__(self, "prime", p)
        object.__setattr__(self, "is_radial", self.source.is_radial)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_split", split_p_part(1 / b, p))
        if form is not None:
            if k == 0:
                form = TwoValuedForm("delta", PAdicNumber.zero(p))
            else:
                cut = form.cutoff_exp
                if cut is not None:
                    cut += self._split[0]
                form = TwoValuedForm(form.kind, form.xi.mul_rational(k / b), cut)
        object.__setattr__(self, "form", form)

    def _sphere(self, v: int, units: Sequence[int], precision: int) -> list[complex]:
        w, a, b = self._split
        mod = self.prime**precision
        unit = a * pow(b, -1, mod) % mod
        moved = [u * unit % mod for u in units]
        return self.source.sphere(self.prime, v + w, moved, precision, self._k)


def theoretical_fn(source: Transform, scheme: LimitScheme, n: int, t: PAdicNumber) -> complex:
    """f_n(t), the one-point value of SumTransform."""
    return SumTransform(source, scheme, n)(t)


def _summands(scheme: LimitScheme, n: int, replicates: int) -> int:
    """k(n), for ``replicates`` sums of k(n) draws each: refused when the
    draws number more than BUDGET_CAP, or when a sum has no summand."""
    k = scheme.k(n)
    if k * replicates > BUDGET_CAP:
        raise ValueError(
            f"budget exceeded: k(n)*m = {k * replicates} > {BUDGET_CAP}"
        )
    if k < 1 and replicates:
        raise ValueError(f"k({n}) = {k}: a sum needs at least one summand")
    return k


def sum_residues(
    sampler: Sampler,
    scheme: LimitScheme,
    n: int,
    replicates: int,
    rng,
) -> ResidueBatch:
    """Replicates of S_n = B_n**-1 (X_1 + ... + X_k(n)) as one residue
    batch: exact modular arithmetic throughout."""
    _check_scheme(scheme, sampler.prime)
    k = _summands(scheme, n, replicates)
    return sampler.residue_sums(rng, k, replicates).scale(1 / scheme.B(n))


def simulate_sums(
    sampler: Sampler,
    scheme: LimitScheme,
    n: int,
    replicates: int,
    rng,
) -> list[PAdicNumber]:
    """Replicates of S_n as PAdicNumbers (decoded from sum_residues)."""
    return sum_residues(sampler, scheme, n, replicates, rng).elements()


def phi_n_measure(
    law: Transform,
    scheme: LimitScheme,
    n: int,
    m,
    tol: float = 1e-9,
) -> float:
    """The rescaled measure k(n) * F(B_n * M) for a law F with ball
    probabilities (see ball_probability).

    M may be a Ball, CompactOpenSet, or TailSet bounded away from 0;
    raises ToleranceError when the certified ball-probability bounds,
    amplified by k(n), exceed ``tol``.  The empty sum (k(n) = 0) gives
    0.0 with no ball series run.
    """
    _check_scheme(scheme, law.prime)
    k = scheme.k(n)
    if k == 0:
        return 0.0
    scaled = m.scale(scheme.B(n))
    inner_tol = max(1e-15, tol / (4.0 * k))
    if isinstance(scaled, TailSet):
        bp = ball_probability(
            law, Ball(scaled.prime, 0, scaled.radius_exp), tol=inner_tol
        )
        prob = 1.0 - bp.value
        bound = bp.error_bound
    else:
        balls = [scaled] if isinstance(scaled, Ball) else list(scaled)
        prob = 0.0
        bound = 0.0
        for b in balls:
            bp = ball_probability(law, b, tol=inner_tol)
            prob += bp.value
            bound += bp.error_bound
    if k * bound > tol:
        raise ToleranceError(
            f"rescaled-measure bound {k * bound} exceeds tol={tol}"
        )
    return k * prob


def scaling_identity_check(
    g: Callable[[PAdicNumber], complex],
    gamma0: Fraction,
    beta: float | Fraction,
    grid: Sequence[PAdicNumber],
) -> list[tuple[PAdicNumber, float]]:
    """Residuals | |g(gamma0 t)| - |g(t)|**beta | over the grid."""
    rows = []
    b = float(beta)
    for t in grid:
        lhs = abs(complex(g(t.mul_rational(gamma0))))
        rhs = abs(complex(g(t))) ** b
        rows.append((t, abs(lhs - rhs)))
    return rows


def default_ball_family(p: int, count: int) -> list[Ball]:
    """Deterministic family of balls used for tightness diagnostics: the
    balls around 0 of radius p**-2 .. p**2, then the depth-2, 3, ...
    balls of the spheres |x| = 1, p, p**2, p**-1.  The balls are distinct
    by construction: those around 0 differ in radius, the others hold no
    0, and two of them with one sphere and depth are disjoint balls of
    one split_sphere."""
    from .sets import split_sphere

    fam: list[Ball] = [Ball(p, 0, k) for k in range(-2, 3)]
    depth = 2
    while len(fam) < count and depth <= 8:
        for e in (0, 1, 2, -1):
            fam.extend(split_sphere(e, depth, p))
        depth += 1
    return fam[:count]


# ---------------------------------------------------------------------
# Scenarios and convergence reports
# ---------------------------------------------------------------------


@dataclass
class Scenario:
    """A reproducible convergence experiment.

    ``law`` is the summands' law (see specs.Law): its transform gives the
    theory rows, its sampler the Monte Carlo rows and its spec the report's
    ``effective.law``.  ``target`` is the transform of the limit law, which
    decides the limit verdicts (see the module docstring).
    """

    name: str
    prime: int
    law: Law
    scheme: LimitScheme
    grid: tuple[PAdicNumber, ...]
    balls: tuple[Ball, ...]
    sets: tuple[object, ...]
    m: int
    seed: int
    n_list: tuple[int, ...]
    target: Transform | None = None
    tolerances: dict = field(default_factory=dict)

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))


@dataclass
class ConvergenceReport:
    scenario: str
    effective: dict
    sup_rows: list[dict]
    cf_rows: list[dict]
    phi_rows: list[dict]
    scaling_rows: list[dict]
    ball_rows: list[dict]
    min_log_abs_target: float | None
    degenerate: str | None
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def csv_rows(self) -> list[dict]:
        parts = (
            ("sup", self.sup_rows), ("cf", self.cf_rows), ("phi", self.phi_rows),
            ("scaling", self.scaling_rows), ("ball", self.ball_rows),
        )
        return [{"kind": kind, **r} for kind, rows in parts for r in rows]

    def json_summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "effective": self.effective,
            "verdicts": dict(sorted(self.verdicts.items())),
            "passed": self.passed,
            "min_log_abs_target": self.min_log_abs_target,
            "degenerate": self.degenerate,
        }


def _mc_draw(sampler: Sampler, k: int, seed: int, n_idx: int, blocks) -> ResidueBatch:
    """One Monte Carlo job: for each (block, count) pair, in order, count
    sums of k draws from the block's own substream (seed, n_idx, block),
    as the blocks' row sums joined unscaled (ResidueBatch.concat).  It
    reads nothing but its arguments, so a pool worker runs it as the
    parent would."""
    from .residues import ResidueBatch
    from .samplers import substream

    return ResidueBatch.concat(sampler.prime, [
        sampler.residue_sums(substream(seed, n_idx, block), k, count)
        for block, count in blocks
    ])


def _block_sizes(m: int) -> list[int]:
    base, extra = divmod(m, MC_BLOCKS)
    return [base + (1 if i < extra else 0) for i in range(MC_BLOCKS)]


def _theory_rows(scenario: Scenario) -> tuple[dict, list[dict]]:
    """f_n on the grid, keyed by (n, grid index), read once per sphere, and
    its sup distance to the target, evaluated once per grid point, per n."""
    source, target, scheme, grid = (
        scenario.law.transform, scenario.target, scenario.scheme, scenario.grid)
    theo: dict[tuple[int, int], complex] = {}
    sup_rows: list[dict] = []
    limit = None if target is None else [target(t) for t in grid]
    spheres: dict[tuple[int, int, int], list[int]] = {}
    for i, t in enumerate(grid):
        if not t.is_zero:
            spheres.setdefault((t.prime, t.valuation, t.precision), []).append(i)
    for n in scenario.n_list:
        f_n = SumTransform(source, scheme, n)
        fns = [f_n(t) if t.is_zero else None for t in grid]
        for (p, v, precision), idx in spheres.items():
            units = [grid[i].unit for i in idx]
            for i, fn in zip(idx, f_n.sphere(p, v, units, precision)):
                fns[i] = fn
        theo.update(((n, i), fn) for i, fn in enumerate(fns))
        if limit is not None:
            sup_err = max([0.0, *(abs(fn - g) for fn, g in zip(fns, limit))])
            sup_rows.append({"n": n, "sup_err": sup_err})
    return theo, sup_rows


def _mc_rows(scenario: Scenario, theo: dict, labels: list[str], workers: int):
    """The empirical transform of S_n on the grid (the points ``labels``)
    against f_n for each n, and the ball counts of the final n.

    Each n's drawn blocks are cut into up to ``workers`` contiguous
    ranges, one _mc_draw job each.  The jobs run here, or all at once in
    one process pool when there is more than one range, so that the
    counting of one n overlaps the drawing of the next.  Either way each
    n's parts are joined, divided by B_n once and counted once by
    tally_blocks, so the first failing block raises as it does serially
    and the report does not depend on ``workers``.  The law's sampler is
    built here, before any job, and the jobs receive it alone."""
    if scenario.m <= 0:
        return [], None
    from .residues import ResidueBatch, character_values, tally_blocks

    # the budget holds for each n's whole run, checked before any draw
    ks = [_summands(scenario.scheme, n, scenario.m) for n in scenario.n_list]
    sampler = scenario.law.sampler
    band = 4.0 / math.sqrt(scenario.m)
    cf_rows: list[dict] = []
    ball_counts = None
    blocks = [(b, count) for b, count in enumerate(_block_sizes(scenario.m)) if count]
    sizes = [count for _, count in blocks]
    parts = max(1, min(workers, len(blocks)))
    cuts = [len(blocks) * i // parts for i in range(parts + 1)]
    ranges = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    context = nullcontext()
    if parts > 1:
        # imported here, so that a serial run never loads it
        from concurrent.futures import ProcessPoolExecutor

        context = ProcessPoolExecutor(parts)
    with context as pool:
        # the jobs (sampler, k(n), seed, n_idx, range), n-major
        drawn = (map if pool is None else pool.map)(
            _mc_draw,
            repeat(sampler),
            [k for k in ks for _ in ranges],
            repeat(scenario.seed),
            [n_idx for n_idx in range(len(ks)) for _ in ranges],
            ranges * len(ks),
        )
        for n in scenario.n_list:
            sums = ResidueBatch.concat(scenario.prime, [next(drawn) for _ in ranges])
            table, ball_counts = tally_blocks(
                sums.scale(1 / scenario.scheme.B(n)), sizes, scenario.grid, scenario.balls
            )
            emps = character_values(scenario.prime, table, len(labels), scenario.m)
            for i, (label, emp) in enumerate(zip(labels, emps)):
                ref = theo[n, i]
                cf_rows.append({
                    "n": n,
                    "t": label,
                    "theoretical_re": ref.real,
                    "theoretical_im": ref.imag,
                    "empirical_re": emp.real,
                    "empirical_im": emp.imag,
                    "residual": abs(emp - ref),
                    "band": band,
                })
    return cf_rows, ball_counts


def _ball_rows(scenario: Scenario, counts: list[int] | None) -> list[dict]:
    """Final-n ball frequencies against the target's ball probabilities."""
    target = scenario.target
    if counts is None or target is None or not target.is_radial:
        return []
    rows = []
    for b, cnt in zip(scenario.balls, counts):
        q = ball_probability(target, b).value
        freq = cnt / scenario.m
        band = 4.0 * math.sqrt(max(q * (1 - q), 1e-12) / scenario.m)
        rows.append({
            "ball": str(b),
            "target_q": q,
            "freq": freq,
            "band": band,
            "within": abs(freq - q) <= band,
        })
    return rows


def _phi_rows(scenario: Scenario) -> tuple[list[dict], list[dict | None], int]:
    """k(n) F(B_n M) against the target's jump measure Phi(M), each set's
    row at the final n (None where it was dropped) and the number of (set,
    n) rows dropped because the ball series missed its tolerance.  The
    rows follow a radial law with no two-valued form: a report over a point
    mass or a Haar ball has had none, and keeps its bytes."""
    law, target = scenario.law.transform, scenario.target
    if not law.is_radial or law.form is not None or target is None or target.measure is None:
        return [], [], 0
    rows: list[dict] = []
    final: list[dict | None] = []
    dropped = 0
    for s in scenario.sets:
        target_mass = float(measure_mass(target.measure, s))
        row = None
        for n in scenario.n_list:
            try:
                val = phi_n_measure(law, scenario.scheme, n, s)
            except ToleranceError:
                row = None
                dropped += 1
                continue
            row = {
                "n": n,
                "set": str(s),
                "phi_n": val,
                "target": target_mass,
                "err": abs(val - target_mass),
            }
            rows.append(row)
        final.append(row)
    return rows, final, dropped


def _scaling_rows(scenario: Scenario, labels: list[str]) -> tuple[list[dict], float | None]:
    """Residuals of the target's modulus scaling identity (geometric
    schemes) at the grid points ``labels``, and the least log |target| on
    the grid (-inf where the target has a certified zero)."""
    target, scheme = scenario.target, scenario.scheme
    if target is None:
        return [], None
    rows = []
    if scheme.mode == "geometric":
        checks = scaling_identity_check(target, scheme.gamma0, scheme.beta, scenario.grid)
        rows = [{"t": label, "residual": res} for label, (_, res) in zip(labels, checks)]
    return rows, min(target.log_modulus(t) for t in scenario.grid)


def _classification(scenario: Scenario) -> tuple[str | None, bool | None]:
    """For a two-valued target: the kind of f_n's exact form at the final
    n, and whether it is the target's.  Each form is read as its window
    at CLASSIFY_SEARCH_RADIUS_EXP, the ball of radius p**max(-N,
    -CLASSIFY_SEARCH_RADIUS_EXP) around its xi, so a Haar ball at least
    that small reads as a delta.  A law with no form is 'not_two_valued'."""
    source, target = scenario.law.transform, scenario.target
    if target is None or target.form is None:
        return None, None
    form = SumTransform(source, scenario.scheme, scenario.n_list[-1]).form
    if form is None:
        return "not_two_valued", False
    window = form.window(CLASSIFY_SEARCH_RADIUS_EXP)
    kind = "delta" if window.radius_exp == -CLASSIFY_SEARCH_RADIUS_EXP else "haar_cutoff"
    return kind, window == target.form.window(CLASSIFY_SEARCH_RADIUS_EXP)


def convergence_report(scenario: Scenario, workers: int = 1) -> ConvergenceReport:
    """Run the full diagnostic battery for one scenario."""
    # no memo outlives a report: each starts from fresh transforms
    law, target = scenario.law.transform, scenario.target
    scenario = replace(
        scenario,
        law=scenario.law.fresh(),
        target=None if target is None else target.fresh(),
    )
    labels = [str(t.as_rational()) for t in scenario.grid]
    theo, sup_rows = _theory_rows(scenario)
    cf_rows, ball_counts = _mc_rows(scenario, theo, labels, workers)
    ball_rows = _ball_rows(scenario, ball_counts)
    phi_rows, phi_final, phi_dropped = _phi_rows(scenario)
    scaling_rows, min_log_abs_target = _scaling_rows(scenario, labels)
    degenerate, has_form = _classification(scenario)
    # a limit law with no two-valued form
    stable = target is not None and target.form is None

    verdicts: dict[str, bool] = {}
    # the summands' law is the target's: the target itself, the stable
    # closed form a shorthand target carries, or its jump measure
    if sup_rows and stable and (
        law in (target, getattr(target, "closed_form", None))
        or law.measure is not None and law.measure == target.measure
    ):
        verdicts["sup_exact"] = all(
            r["sup_err"] <= scenario.tol("sup", 1e-12) for r in sup_rows
        )
    if scaling_rows:
        verdicts["scaling_identity"] = all(
            r["residual"] <= scenario.tol("scaling", 1e-12)
            for r in scaling_rows
        )
    if cf_rows:
        within = sum(r["residual"] <= r["band"] for r in cf_rows)
        verdicts["mc_within_bands"] = within / len(cf_rows) >= scenario.tol(
            "mc_fraction", 0.95
        )
    if phi_final:
        verdicts["phi_trajectory"] = all(
            r is not None and r["err"] <= scenario.tol("phi_final", 5e-3)
            for r in phi_final
        )
    if ball_rows:
        verdicts["ball_frequencies"] = all(r["within"] for r in ball_rows)
    if stable:
        verdicts["positivity"] = min_log_abs_target > -math.inf
    if degenerate is not None:
        verdicts["degenerate_verdict"] = has_form

    effective = {
        "name": scenario.name,
        "p": scenario.prime,
        "m": scenario.m,
        "seed": scenario.seed,
        "n_list": list(scenario.n_list),
        "scheme": {
            "mode": scenario.scheme.mode,
            "beta": str(scenario.scheme.beta),
            "gamma0": str(scenario.scheme.gamma0),
        },
        "law": scenario.law.spec,
        "tolerances": dict(scenario.tolerances),
        "grid": labels,
        "balls": [str(b) for b in scenario.balls],
        "sets": [str(s) for s in scenario.sets],
        "phi_rows_dropped": phi_dropped,
    }
    if scenario.law.folds is not None:
        effective["folds"] = scenario.law.folds
    return ConvergenceReport(
        scenario=scenario.name,
        effective=effective,
        sup_rows=sup_rows,
        cf_rows=cf_rows,
        phi_rows=phi_rows,
        scaling_rows=scaling_rows,
        ball_rows=ball_rows,
        min_log_abs_target=min_log_abs_target,
        degenerate=degenerate,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------

# The paper's k(n) regimes as scenario documents, presets/<name>.json:
# the stable limit of k(n) ~ beta**-n (over p = 2, a = alpha = 1), and
# three degenerate limits with Haar summands on Z_p, at beta = 1 (a point
# mass target), at bounded normalisers (the uniform law on Z_p as target)
# and at beta -> 0 (no target, so a demonstration nothing is asserted of).
PRESET_DIR = Path(__file__).with_name("presets")


def preset_spec(name: str) -> dict:
    """A fresh copy of the scenario document of the preset ``name``."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return json.loads((PRESET_DIR / f"{name}.json").read_text())


def _build_preset(name: str, m: int) -> Scenario:
    """The preset ``name``'s scenario at ``m`` replicates."""
    from .specs import scenario_from_spec  # specs imports this module

    return scenario_from_spec({**preset_spec(name), "m": m})


# PRESETS[name](m) builds the preset ``name``
PRESETS = {
    name: partial(_build_preset, name)
    for name in ("stable_limit", "beta_one", "bounded_normalizers", "beta0_demo")
}
