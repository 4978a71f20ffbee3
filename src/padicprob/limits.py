"""Normalised-sum schemes, their theoretical and simulated transforms,
rescaled jump measures, convergence diagnostics, and degenerate-case
presets.

The scheme S_n = B_n**-1 (X_1 + ... + X_k(n)) is driven either by the
geometric construction B_n = gamma0**-n, k(n) = floor(beta**-n), or by
explicit user-supplied sequences.  Weak convergence is surrogated at desk
scale by (a) sup-distance of transforms on a fixed exact grid, (b) Monte
Carlo transforms with binomial bands, (c) trajectories of the rescaled
measures k(n) * F(B_n M) on tail sets, (d) residuals of the modulus
scaling identity |g(gamma0 t)| = |g(t)|**beta, and (e) a positivity check
of |g| on the grid.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .charfn import (
    HaarBallSampler,
    RadialCharFn,
    Sampler,
    StableParams,
    ball_probability,
    substream,
)
from .errors import ToleranceError
from .levy import (
    LevyExponent,
    SelfSimilarLevyMeasure,
    classify_two_valued,
    measure_mass,
)
from .padic import (
    CharacterSum,
    PAdicNumber,
    _check_prime,
    grid_points,
    split_p_part,
)
from .residues import ResidueBatch, replay
from .sets import Ball, TailSet

BUDGET_CAP = 10**8
MC_BLOCKS = 16


@dataclass(frozen=True)
class LimitScheme:
    """The normalisation data (B_n, k(n)) of a sum scheme.

    Geometric mode takes B_n = gamma0**-n and k(n) = floor(beta**-n)
    (floor of the exact fraction when beta is rational, of the float
    power otherwise); explicit mode takes user-listed sequences.
    """

    prime: int
    mode: str  # 'geometric' | 'explicit'
    beta: Fraction | float | None = None
    gamma0: Fraction | None = None
    n_max: int = 10
    b_list: tuple[Fraction, ...] | None = None
    k_list: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        if self.mode == "geometric":
            if self.gamma0 is None or self.gamma0 == 0:
                raise ValueError("geometric mode needs gamma0 != 0")
            from .padic import rational_valuation

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
            object.__setattr__(self, "n_max", len(self.b_list) - 1)
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        # (n, p, K) -> (w, a/b mod p**K, p**K) where B_n**-1 = p**w * a/b
        object.__setattr__(self, "_inv_b", {})

    @classmethod
    def geometric(
        cls, p: int, beta, gamma0, n_max: int = 10
    ) -> "LimitScheme":
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

    def rho(self, n: int) -> float:
        return self.k(n) / self.k(n + 1)

    def scale_t(self, n: int, t: PAdicNumber) -> PAdicNumber:
        """t / B_n, exactly as ``t.mul_rational(1 / B(n))``; the split of
        B_n**-1 is computed once per (n, prime of t, digit window)."""
        if t.is_zero:
            return t.mul_rational(1 / self.B(n))
        p, precision = t.prime, t.precision
        key = (n, p, precision)
        hit = self._inv_b.get(key)
        if hit is None:
            w, a, b = split_p_part(1 / self.B(n), p)
            mod = p**precision
            hit = self._inv_b[key] = (w, a * pow(b, -1, mod) % mod, mod)
        w, unit, mod = hit
        return PAdicNumber(p, t.valuation + w, t.unit * unit % mod, precision)


# ---------------------------------------------------------------------
# Theoretical transform of S_n
# ---------------------------------------------------------------------


def theoretical_fn(source, scheme: LimitScheme, n: int, t: PAdicNumber) -> complex:
    """f_n(t) = f(t / B_n)**k(n) for the law with transform described by
    ``source`` (a jump measure, a radial transform, or a plain callable).

    For a measure source the value is computed at exponent level,
    exp(k(n) * phi(t / B_n)), with the coefficient scaling done on the
    exact character sum, so integer beta**-1 regimes reproduce the limit
    transform bit-for-bit.
    """
    k = scheme.k(n)
    t_scaled = scheme.scale_t(n, t)
    if isinstance(source, SelfSimilarLevyMeasure):
        source = LevyExponent(source)
    if isinstance(source, LevyExponent):
        return cmath.exp(source.exact(t_scaled).scale(k).to_complex())
    if isinstance(source, RadialCharFn):
        val = source(t_scaled)
        if val == 0.0:
            return complex(0.0, 0.0)
        if val > 0.0:
            return complex(math.exp(k * math.log(val)), 0.0)
        return complex(val, 0.0) ** k
    return complex(source(t_scaled)) ** k


def sum_residues(
    sampler: Sampler,
    scheme: LimitScheme,
    n: int,
    replicates: int,
    rng,
    budget: int = BUDGET_CAP,
) -> ResidueBatch:
    """Replicates of S_n = B_n**-1 (X_1 + ... + X_k(n)) as one residue
    batch: exact modular arithmetic throughout."""
    k = scheme.k(n)
    if k * replicates > budget:
        raise ValueError(
            f"budget exceeded: k(n)*m = {k * replicates} > {budget}"
        )
    if k < 1 and replicates:
        raise ValueError(f"k({n}) = {k}: a sum needs at least one summand")
    return sampler.residue_sums(rng, k, replicates).scale(1 / scheme.B(n))


def simulate_sums(
    sampler: Sampler,
    scheme: LimitScheme,
    n: int,
    replicates: int,
    rng,
    budget: int = BUDGET_CAP,
) -> list[PAdicNumber]:
    """Replicates of S_n as PAdicNumbers (decoded from sum_residues)."""
    return sum_residues(sampler, scheme, n, replicates, rng, budget).elements()


def phi_n_measure(
    law: RadialCharFn,
    scheme: LimitScheme,
    n: int,
    m,
    tol: float = 1e-9,
) -> float:
    """The rescaled measure k(n) * F(B_n * M) for a radial law F.

    M may be a Ball, CompactOpenSet, or TailSet bounded away from 0;
    raises ToleranceError when the certified ball-probability bounds,
    amplified by k(n), exceed ``tol``.
    """
    k = scheme.k(n)
    scaled = m.scale(scheme.B(n))
    inner_tol = max(1e-15, tol / (4.0 * k))
    if isinstance(scaled, TailSet):
        bp = ball_probability(
            law, Ball(law.prime, 0, scaled.radius_exp), tol=inner_tol
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


def default_ball_family(p: int, count: int = 20) -> list[Ball]:
    """Deterministic family of balls used for tightness diagnostics."""
    from .sets import split_sphere

    fam: list[Ball] = [Ball(p, 0, k) for k in range(-2, 3)]
    depth = 2
    while len(fam) < count and depth <= 8:
        for e in (0, 1, 2, -1):
            for b in split_sphere(e, depth, p):
                if len(fam) >= count:
                    break
                if b not in fam:
                    fam.append(b)
        depth += 1
    return fam[:count]


# ---------------------------------------------------------------------
# Scenarios and convergence reports
# ---------------------------------------------------------------------


@dataclass
class Scenario:
    """A reproducible convergence experiment.

    ``law`` draws the summands; ``law_source`` (when available) gives
    their exact transform for theoretical curves; the target is either a
    jump measure, closed-form stable parameters, or a degenerate preset.
    """

    name: str
    prime: int
    law: Sampler
    scheme: LimitScheme
    grid: tuple[PAdicNumber, ...]
    balls: tuple[Ball, ...]
    sets: tuple[object, ...]
    m: int
    seed: int
    n_list: tuple[int, ...]
    law_source: object | None = None
    target_measure: SelfSimilarLevyMeasure | None = None
    target_stable: StableParams | None = None
    target_radial: RadialCharFn | None = None
    kind: str = "generic"
    tolerances: dict = field(default_factory=dict)
    law_spec: dict = field(default_factory=dict)

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))

    def target_cf(self) -> Callable[[PAdicNumber], complex] | None:
        if self.target_measure is not None:
            from .levy import CfEvaluator

            return CfEvaluator(self.target_measure)
        if self.target_stable is not None:
            g = RadialCharFn.stable(self.target_stable)
            return lambda t: complex(g(t))
        if self.target_radial is not None:
            g = self.target_radial
            return lambda t: complex(g(t))
        return None

    def target_radial_fn(self) -> RadialCharFn | None:
        if self.target_radial is not None:
            return self.target_radial
        if self.target_stable is not None:
            return RadialCharFn.stable(self.target_stable)
        if self.target_measure is not None and self.target_measure.is_radial():
            return RadialCharFn.from_measure(self.target_measure)
        return None


@dataclass
class ConvergenceReport:
    scenario: str
    effective: dict
    sup_rows: list[dict]
    cf_rows: list[dict]
    phi_rows: list[dict]
    scaling_rows: list[dict]
    ball_rows: list[dict]
    min_abs_target: float | None
    degenerate: str | None
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def csv_rows(self) -> list[dict]:
        rows: list[dict] = []
        for r in self.sup_rows:
            rows.append({"kind": "sup", **r})
        for r in self.cf_rows:
            rows.append({"kind": "cf", **r})
        for r in self.phi_rows:
            rows.append({"kind": "phi", **r})
        for r in self.scaling_rows:
            rows.append({"kind": "scaling", **r})
        for r in self.ball_rows:
            rows.append({"kind": "ball", **r})
        return rows

    def json_summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "effective": self.effective,
            "verdicts": dict(sorted(self.verdicts.items())),
            "passed": self.passed,
            "min_abs_target": self.min_abs_target,
            "degenerate": self.degenerate,
        }


def _mc_block(args) -> tuple[int, list[Counter], list[int], int]:
    """One block of Monte Carlo replicates (top level for pickling).

    Phases and ball membership are counted on residues.  Where the exact
    path would raise, it is replayed in its own order (replicate-major
    over the grid, then ball-major) to raise the same exception.
    """
    (sampler, scheme, n, seed, n_idx, block, count, grid, balls) = args
    rng = substream(seed, n_idx, block)
    sums = sum_residues(sampler, scheme, n, count, rng)
    bad_ts = [t for t in grid if not sums.phase_ok(t)]
    if bad_ts:
        replay(
            sums.elements(),
            [lambda x, t=t: (t * x).character_phase() for t in bad_ts],
        )
    for b in balls:
        if not sums.ball_ok(b):
            replay(sums.elements(), [b.contains])
    phase_counts = [sums.phase_counts(t) for t in grid]
    ball_counts = [sums.ball_count(b) for b in balls]
    return block, phase_counts, ball_counts, len(sums)


def _block_sizes(m: int, blocks: int = MC_BLOCKS) -> list[int]:
    base, extra = divmod(m, blocks)
    return [base + (1 if i < extra else 0) for i in range(blocks)]


def _run_blocks(scenario: Scenario, n: int, n_idx: int, workers: int):
    balls = scenario.balls
    jobs = [
        (
            scenario.law,
            scenario.scheme,
            n,
            scenario.seed,
            n_idx,
            block,
            count,
            scenario.grid,
            balls,
        )
        for block, count in enumerate(_block_sizes(scenario.m))
        if count > 0
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_mc_block, jobs))
    else:
        results = [_mc_block(j) for j in jobs]
    results.sort(key=lambda r: r[0])
    phase_counts: list[Counter] = [Counter() for _ in scenario.grid]
    ball_counts = [0] * len(balls)
    total = 0
    for _, pcs, bcs, cnt in results:
        for i, c in enumerate(pcs):
            phase_counts[i].update(c)
        for i, c in enumerate(bcs):
            ball_counts[i] += c
        total += cnt
    return phase_counts, ball_counts, total


def _t_label(t: PAdicNumber) -> str:
    return str(t.as_rational())


def convergence_report(scenario: Scenario, workers: int = 1) -> ConvergenceReport:
    """Run the full diagnostic battery for one scenario."""
    p = scenario.prime
    # one cached exponent serves the theory rows and the classification
    source = scenario.law_source
    if isinstance(source, SelfSimilarLevyMeasure):
        source = LevyExponent(source)
    target_g = scenario.target_cf()
    target_radial = scenario.target_radial_fn()
    law_radial = (
        scenario.law_source
        if isinstance(scenario.law_source, RadialCharFn)
        else None
    )
    if law_radial is None and isinstance(
        scenario.law_source, SelfSimilarLevyMeasure
    ) and scenario.law_source.is_radial():
        law_radial = RadialCharFn.from_measure(scenario.law_source)

    sup_rows: list[dict] = []
    cf_rows: list[dict] = []
    phi_rows: list[dict] = []
    scaling_rows: list[dict] = []
    ball_rows: list[dict] = []

    theo: dict[tuple[int, int], complex] = {}
    if source is not None:
        for n in scenario.n_list:
            sup_err = 0.0
            for i, t in enumerate(scenario.grid):
                fn = theoretical_fn(source, scenario.scheme, n, t)
                theo[(n, i)] = fn
                if target_g is not None:
                    sup_err = max(sup_err, abs(fn - complex(target_g(t))))
            if target_g is not None:
                sup_rows.append({"n": n, "sup_err": sup_err})

    last_ball_counts: list[int] | None = None
    last_total = 0
    if scenario.m > 0:
        band_all_within = 0
        band_total = 0
        for n_idx, n in enumerate(scenario.n_list):
            phase_counts, ball_counts, total = _run_blocks(
                scenario, n, n_idx, workers
            )
            band = 4.0 / math.sqrt(total)
            for i, t in enumerate(scenario.grid):
                emp = CharacterSum(
                    p,
                    {ph: Fraction(c, total) for ph, c in phase_counts[i].items()},
                ).to_complex()
                ref = theo.get((n, i))
                residual = abs(emp - ref) if ref is not None else None
                cf_rows.append(
                    {
                        "n": n,
                        "t": _t_label(t),
                        "theoretical_re": ref.real if ref is not None else "",
                        "theoretical_im": ref.imag if ref is not None else "",
                        "empirical_re": emp.real,
                        "empirical_im": emp.imag,
                        "residual": residual if residual is not None else "",
                        "band": band,
                    }
                )
                if residual is not None:
                    band_total += 1
                    if residual <= band:
                        band_all_within += 1
            last_ball_counts = ball_counts
            last_total = total

    if last_ball_counts is not None and target_radial is not None:
        for b, cnt in zip(scenario.balls, last_ball_counts):
            q = ball_probability(target_radial, b).value
            freq = cnt / last_total
            band = 4.0 * math.sqrt(max(q * (1 - q), 1e-12) / last_total)
            ball_rows.append(
                {
                    "ball": str(b),
                    "target_q": q,
                    "freq": freq,
                    "band": band,
                    "within": abs(freq - q) <= band,
                }
            )

    # per set, its row at the final n, or None when that row was dropped
    phi_final: list[dict | None] = []
    if law_radial is not None and (
        scenario.target_measure is not None
    ):
        for s in scenario.sets:
            target_mass = float(measure_mass(scenario.target_measure, s))
            row = None
            for n in scenario.n_list:
                try:
                    val = phi_n_measure(law_radial, scenario.scheme, n, s)
                except ToleranceError:
                    row = None
                    continue
                row = {
                    "n": n,
                    "set": str(s),
                    "phi_n": val,
                    "target": target_mass,
                    "err": abs(val - target_mass),
                }
                phi_rows.append(row)
            phi_final.append(row)

    min_abs_target: float | None = None
    if target_g is not None:
        gamma0 = (
            scenario.scheme.gamma0
            if scenario.scheme.mode == "geometric"
            else None
        )
        beta = scenario.scheme.beta if scenario.scheme.mode == "geometric" else None
        if gamma0 is not None and beta is not None:
            for t, res in scaling_identity_check(
                target_g, gamma0, beta, scenario.grid
            ):
                scaling_rows.append({"t": _t_label(t), "residual": res})
        min_abs_target = min(
            abs(complex(target_g(t))) for t in scenario.grid
        )

    degenerate: str | None = None
    if scenario.kind in ("beta_one", "bounded_normalizers") and source is not None:
        n_top = scenario.n_list[-1]
        ev = lambda t: theoretical_fn(  # noqa: E731
            source, scenario.scheme, n_top, t
        )
        form = classify_two_valued(ev, p, search_radius_exp=4, probe_depth=6)
        degenerate = form.kind

    verdicts: dict[str, bool] = {}
    if sup_rows and scenario.kind == "stable_limit":
        verdicts["sup_exact"] = all(
            r["sup_err"] <= scenario.tol("sup", 1e-12) for r in sup_rows
        )
    if scaling_rows:
        verdicts["scaling_identity"] = all(
            r["residual"] <= scenario.tol("scaling", 1e-12)
            for r in scaling_rows
        )
    if cf_rows and scenario.law_source is not None and scenario.m > 0:
        frac_within = (
            band_all_within / band_total if band_total else 1.0
        )
        verdicts["mc_within_bands"] = frac_within >= scenario.tol(
            "mc_fraction", 0.95
        )
    if phi_final:
        verdicts["phi_trajectory"] = all(
            r is not None and r["err"] <= scenario.tol("phi_final", 5e-3)
            for r in phi_final
        )
    if ball_rows:
        verdicts["ball_frequencies"] = all(r["within"] for r in ball_rows)
    if min_abs_target is not None and scenario.kind == "stable_limit":
        verdicts["positivity"] = min_abs_target > 0.0
    if degenerate is not None:
        expected = {"beta_one": "delta", "bounded_normalizers": "haar_cutoff"}[scenario.kind]
        verdicts["degenerate_verdict"] = degenerate == expected

    effective = {
        "name": scenario.name,
        "p": p,
        "m": scenario.m,
        "seed": scenario.seed,
        "n_list": list(scenario.n_list),
        "scheme": {
            "mode": scenario.scheme.mode,
            "beta": str(scenario.scheme.beta),
            "gamma0": str(scenario.scheme.gamma0),
        },
        "law": scenario.law_spec or scenario.law.spec(),
        "kind": scenario.kind,
        "tolerances": dict(scenario.tolerances),
        "grid": [str(t.as_rational()) for t in scenario.grid],
        "balls": [str(b) for b in scenario.balls],
        "sets": [str(s) for s in scenario.sets],
    }
    return ConvergenceReport(
        scenario=scenario.name,
        effective=effective,
        sup_rows=sup_rows,
        cf_rows=cf_rows,
        phi_rows=phi_rows,
        scaling_rows=scaling_rows,
        ball_rows=ball_rows,
        min_abs_target=min_abs_target,
        degenerate=degenerate,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------


def stable_limit_scenario(
    a=1,
    alpha=1,
    p: int = 2,
    m: int = 4000,
    seed: int = 7,
    n_list: tuple[int, ...] = (0, 2, 4, 6),
    resolution: int = -8,
) -> Scenario:
    """Self-similar construction: stable summands drawn sphere-first,
    geometric scheme, closed-form target (which the exact transform of
    the jump measure reproduces)."""
    from .charfn import stable_sampler
    from .levy import make_example_measure

    measure = make_example_measure(a, alpha, p)
    law = stable_sampler(
        StableParams(float(a), float(alpha), p), resolution=resolution
    )
    scheme = LimitScheme.geometric(
        p, measure.beta, measure.gamma0, n_max=max(n_list)
    )
    return Scenario(
        name="stable-limit-example",
        prime=p,
        law=law,
        scheme=scheme,
        grid=tuple(grid_points(p)),
        balls=tuple(default_ball_family(p, 10)),
        sets=(TailSet(p, 0), TailSet(p, 1)),
        m=m,
        seed=seed,
        n_list=tuple(n_list),
        law_source=measure,
        target_measure=measure,
        target_stable=StableParams(float(a), float(alpha), p),
        kind="stable_limit",
    )


def beta_one_scenario(
    p: int = 3, n_max: int = 8, m: int = 800, seed: int = 11
) -> Scenario:
    """beta = 1 regime: Haar summands, B_n = p**-n, k(n) = n; the limit
    is the point mass at 0."""
    b_list = [Fraction(1, p**n) for n in range(n_max + 1)]
    k_list = [max(n, 1) for n in range(n_max + 1)]
    scheme = LimitScheme.explicit(p, b_list, k_list)
    law = HaarBallSampler(ball=Ball(p, 0, 0), resolution=-12)
    return Scenario(
        name="beta-one-degenerate",
        prime=p,
        law=law,
        scheme=scheme,
        grid=tuple(grid_points(p, -4, 4)),
        balls=tuple(default_ball_family(p, 6)),
        sets=(),
        m=m,
        seed=seed,
        n_list=tuple(range(n_max + 1)),
        law_source=RadialCharFn.indicator(p, 0),
        target_radial=RadialCharFn.one(p),
        kind="beta_one",
    )


def bounded_normalizer_scenario(
    p: int = 3, n_max: int = 6, m: int = 800, seed: int = 13
) -> Scenario:
    """Bounded normalisers B_n = 1 with Haar summands: the limit is the
    uniform law on the unit ball (transform = unit-ball cutoff)."""
    b_list = [Fraction(1) for _ in range(n_max + 1)]
    k_list = [n + 1 for n in range(n_max + 1)]
    scheme = LimitScheme.explicit(p, b_list, k_list)
    law = HaarBallSampler(ball=Ball(p, 0, 0), resolution=-12)
    return Scenario(
        name="bounded-normalizers-cutoff",
        prime=p,
        law=law,
        scheme=scheme,
        grid=tuple(grid_points(p, -4, 4)),
        balls=tuple(default_ball_family(p, 6)),
        sets=(),
        m=m,
        seed=seed,
        n_list=tuple(range(n_max + 1)),
        law_source=RadialCharFn.indicator(p, 0),
        target_radial=RadialCharFn.indicator(p, 0),
        kind="bounded_normalizers",
    )


def beta0_demo_scenario(p: int = 2, m: int = 0, seed: int = 17) -> Scenario:
    """Exploratory beta -> 0 demonstration (k(n) growing super-fast with
    gamma0 != 0).  Nothing is asserted about this scenario; it exists to
    expose the corner, not to verify a claim."""
    n_max = 3
    b_list = [Fraction(1, p) ** n for n in range(n_max + 1)]
    k_list = [2 ** (2**n) for n in range(n_max + 1)]
    scheme = LimitScheme.explicit(p, b_list, k_list)
    law = HaarBallSampler(ball=Ball(p, 0, 0), resolution=-12)
    return Scenario(
        name="beta0-demo",
        prime=p,
        law=law,
        scheme=scheme,
        grid=tuple(grid_points(p, -3, 3)),
        balls=(),
        sets=(),
        m=m,
        seed=seed,
        n_list=tuple(range(n_max + 1)),
        law_source=RadialCharFn.indicator(p, 0),
        kind="demo",
    )


PRESETS = {
    "stable_limit": stable_limit_scenario,
    "beta_one": beta_one_scenario,
    "bounded_normalizers": bounded_normalizer_scenario,
    "beta0_demo": beta0_demo_scenario,
}
