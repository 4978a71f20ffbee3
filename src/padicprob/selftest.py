"""Machine-checkable acceptance battery.

Each criterion is a function returning a :class:`CriterionResult`; the
CLI ``selftest`` subcommand and the pytest acceptance module both drive
these.  Reference values marked "frozen" were computed once from
independent oracles (truncated series, exhaustive residue sums) and are
asserted verbatim; tolerances are fixed here, not tuned per run.
"""

from __future__ import annotations

import cmath
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .charfn import StableLaw, StableParams, ball_probability
from .levy import (
    JumpMeasure,
    LevyExponent,
    classify_two_valued,
    levy_exponent_exact,
    invert_exponent,
    make_example_measure,
    measure_mass,
    random_self_similar_measure,
    validate_scaling,
)
from .limits import (
    PRESETS,
    LimitScheme,
    SumTransform,
    convergence_report,
    default_ball_family,
    phi_n_measure,
    preset_spec,
    theoretical_fn,
)
from .padic import (
    PAdicNumber,
    grid_points,
    rational_char_phase,
)
from .sets import Ball, CompactOpenSet, TailSet, annulus, integrate_char, split_sphere
from .specs import scenario_from_spec

# frozen by the independent truncated-series oracle (j down to -60):
# sum_{j<=0} 2**(j-1) * exp(-2**j)
STABLE_UNIT_BALL_REFERENCE = 0.5480427915295704

DEFAULT_SEED = 20260810


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    runtime_s: float
    limit_s: float
    details: str
    metrics: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.cid} {self.name}: {self.details} "
            f"({self.runtime_s:.2f}s / limit {self.limit_s:.0f}s)"
        )


def _result(cid, name, limit_s, started, ok, details, metrics=None):
    runtime = time.perf_counter() - started
    return CriterionResult(
        cid=cid,
        name=name,
        passed=bool(ok) and runtime < limit_s,
        runtime_s=runtime,
        limit_s=limit_s,
        details=details,
        metrics=metrics or {},
    )


def _rand_padic(rng, p):
    num = int(rng.integers(-200, 201))
    den = int(rng.integers(1, 200))
    if num == 0:
        num = 1
    return PAdicNumber.from_rational(num, den, p=p)


def criterion_1(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Randomised arithmetic/character exactness: 10**4 checks."""
    from .samplers import substream

    started = time.perf_counter()
    rng = substream(seed, 1)
    failures = 0
    iters = 2000  # 5 checks each
    for _ in range(iters):
        p = (2, 3, 5)[int(rng.integers(0, 3))]
        x = _rand_padic(rng, p)
        y = _rand_padic(rng, p)
        ax, ay = x.abs_value(), y.abs_value()
        s = x + y
        # ultrametric, with equality off the diagonal
        if s.abs_value() > max(ax, ay):
            failures += 1
        if ax != ay and s.abs_value() != max(ax, ay):
            failures += 1
        # multiplicativity
        if (x * y).abs_value() != ax * ay:
            failures += 1
        # character homomorphism (exact rational phases)
        lhs = s.frac_part()
        rhs = (x.frac_part() + y.frac_part()) % 1
        if lhs != rhs:
            failures += 1
        # rational round trip: n * expand(m/n) - m vanishes to window depth
        num = int(rng.integers(-50, 51)) or 3
        den = int(rng.integers(1, 50))
        z = PAdicNumber.from_rational(num, den, p=p, precision=40)
        resid = z.mul_rational(den) + PAdicNumber.from_rational(
            -num, p=p, precision=48
        )
        if resid.abs_value() > Fraction(p) ** (-(40 - 8)):
            failures += 1
    checks = iters * 5
    return _result(
        "c1",
        "character/arithmetic exactness",
        5.0,
        started,
        failures == 0,
        f"{checks} randomized checks, {failures} failures",
        {"checks": checks, "failures": failures},
    )


def _oracle_char_integral(m: CompactOpenSet, t: PAdicNumber) -> complex:
    """Exhaustive residue-class sum, independent of the library path."""
    p = m.prime
    tau = -t.valuation if not t.is_zero else None
    total = complex(0.0, 0.0)
    tval = t.as_rational()
    for ball in m:
        n = ball.radius_exp
        depth = max(0, (tau + n) if tau is not None else 0) + 1
        cells = p**depth
        haar = float(Fraction(p) ** (n - depth))
        step = Fraction(p) ** (-n)
        for i in range(cells):
            y = ball.center + i * step
            s, k = rational_char_phase(tval * y, p)
            total += haar * cmath.exp(2j * math.pi * float(Fraction(k, p**s)))
    return total


def criterion_2(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Character-integral oracle agreement over random (set, t) pairs."""
    from .samplers import substream

    started = time.perf_counter()
    rng = substream(seed, 2)
    worst = 0.0
    pairs = 1000
    for _ in range(pairs):
        p = (2, 3)[int(rng.integers(0, 2))]
        n = int(rng.integers(-3, 4))
        depth = int(rng.integers(1, 4))
        pool = split_sphere(n + depth, depth, p)
        balls = [pool[int(rng.integers(0, len(pool)))]]
        if rng.random() < 0.3:
            balls.append(Ball(p, 0, n))
        m = CompactOpenSet(p, balls)
        tau = int(rng.integers(-3, 4))
        unit = 1 + p * int(rng.integers(0, p**4))
        t = PAdicNumber.from_rational(
            Fraction(unit) * Fraction(p) ** (-tau), p=p, precision=24
        )
        got = integrate_char(m, t)
        want = _oracle_char_integral(m, t)
        worst = max(worst, abs(got - want))
    return _result(
        "c2",
        "character-integral residue oracle",
        10.0,
        started,
        worst <= 1e-12,
        f"{pairs} pairs, max abs error {worst:.2e} (tol 1e-12)",
        {"pairs": pairs, "max_error": worst},
    )


def criterion_3(seed: int = DEFAULT_SEED, negative_control: bool = False, **_) -> CriterionResult:
    """Closed form: transform of the example measure vs exp(-a|t|^alpha)."""
    started = time.perf_counter()
    tol = 0.0 if negative_control else 1e-12
    worst = 0.0
    for p in (2, 3, 5):
        for a in (0.5, 1, 2):
            for alpha in (0.5, 1, 2):
                jump = JumpMeasure(make_example_measure(a, alpha, p))
                g = StableLaw(StableParams(float(a), float(alpha), p))
                for k in range(-6, 7):
                    t = PAdicNumber.from_rational(
                        Fraction(p) ** (-k), p=p
                    )
                    got = jump(t)
                    want = g(t)
                    worst = max(worst, abs(got - want))
    detail = f"27 parameter triples x 13 grid points, max abs error {worst:.2e}"
    if negative_control:
        detail += " [negative control: tolerance corrupted to 0]"
    return _result(
        "c3",
        "closed-form transform of the example measure",
        5.0,
        started,
        worst <= tol,
        detail + f" (tol {tol:g})",
        {"max_error": worst},
    )


def criterion_4(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Scaling law of the exponent and exact mass identities."""
    from .samplers import substream

    started = time.perf_counter()
    rng = substream(seed, 4)
    worst = 0.0
    mass_ok = True
    exact_ok = True
    for i in range(10):
        m = random_self_similar_measure(rng)
        grid = grid_points(m.prime, -3, 3, unit_digit_sets=((1,), (1, 1)))
        for t in grid:
            lhs = levy_exponent_exact(m, t.mul_rational(m.gamma0))
            rhs = levy_exponent_exact(m, t).scale(m.beta)
            exact_ok = exact_ok and (lhs == rhs)
            worst = max(worst, abs(lhs.to_complex() - rhs.to_complex()))
        rep = validate_scaling(m, trials=20, seed=seed + i)
        mass_ok = mass_ok and rep.passed
    ok = worst <= 1e-14 and mass_ok and exact_ok
    return _result(
        "c4",
        "self-similar scaling law",
        10.0,
        started,
        ok,
        f"10 random measures: max residual {worst:.2e} (tol 1e-14), "
        f"exact identities {'held' if exact_ok and mass_ok else 'FAILED'}",
        {"max_residual": worst, "mass_identities": mass_ok},
    )


def criterion_5(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Exponent inversion recovers masses on annuli."""
    from .samplers import substream

    started = time.perf_counter()
    rng = substream(seed, 5)
    worst_rel = 0.0
    count = 0
    for _ in range(5):
        m = random_self_similar_measure(rng)
        phi = LevyExponent(m)
        for (i, l) in ((0, 2), (-1, 1), (1, 3), (-2, 0)):
            exact = float(measure_mass(m, annulus(i, l, m.prime)))
            got = invert_exponent(phi, i, l, m.prime, tol=1e-12)
            rel = abs(got - exact) / max(abs(exact), 1e-30)
            worst_rel = max(worst_rel, rel)
            count += 1
    return _result(
        "c5",
        "exponent inversion round trip",
        60.0,
        started,
        worst_rel <= 1e-10,
        f"{count} annuli over 5 random measures, max relative error "
        f"{worst_rel:.2e} (tol 1e-10)",
        {"annuli": count, "max_rel_error": worst_rel},
    )


def criterion_6(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Convergence of the normalised sums' transforms."""
    started = time.perf_counter()
    # integer 1/beta regime: the construction reproduces the target exactly
    m2 = make_example_measure(1, 1, 2)
    scheme2 = LimitScheme.geometric(2, m2.beta, m2.gamma0, n_max=10)
    jump2 = JumpMeasure(m2)
    grid2 = grid_points(2)
    worst_exact = 0.0
    for n in range(11):
        for t in grid2:
            worst_exact = max(
                worst_exact,
                abs(theoretical_fn(jump2, scheme2, n, t) - jump2(t)),
            )
    # fractional regime alpha = 0.7 at p = 3: geometric decay of the gap
    p = 3
    m07 = make_example_measure(1.0, 0.7, p)
    scheme07 = LimitScheme.geometric(p, m07.beta, m07.gamma0, n_max=10)
    jump07 = JumpMeasure(m07)
    grid3 = grid_points(3)
    g07 = StableLaw(StableParams(1.0, 0.7, 3))
    sups = {}
    for n in range(4, 11):
        sups[n] = max(
            abs(theoretical_fn(jump07, scheme07, n, t) - g07(t))
            for t in grid3
        )
    beta = float(m07.beta)
    ratios = [sups[n + 1] / sups[n] for n in range(4, 10)]
    band_ok = all(beta / 2 <= r <= 2 * beta for r in ratios)
    ok = worst_exact <= 1e-14 and band_ok
    return _result(
        "c6",
        "normalised-sum convergence",
        30.0,
        started,
        ok,
        f"exact regime sup {worst_exact:.1e} (tol 1e-14); alpha=0.7 decay "
        f"ratios {['%.3f' % r for r in ratios]} within "
        f"[{beta / 2:.3f}, {2 * beta:.3f}]: {band_ok}",
        {"worst_exact": worst_exact, "ratios": ratios},
    )


def criterion_7(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Compound-Poisson sampler fidelity against ball probabilities."""
    from .samplers import CompoundPoissonSampler, ball_counts, substream

    started = time.perf_counter()
    p = 2
    resolution = -4
    m = make_example_measure(1, 1, p)
    g = StableLaw(StableParams(1.0, 1.0, p))
    # the unit-ball value must match the frozen independent oracle
    ref = ball_probability(g, Ball(p, 0, 0), tol=1e-12)
    ref_ok = abs(ref.value - STABLE_UNIT_BALL_REFERENCE) <= 1e-10
    sampler = CompoundPoissonSampler(measure=m, resolution=resolution)
    rng = substream(seed, 7)
    count = 100_000
    # the draws of sampler.sample, kept as residues: same RNG calls
    draws = sampler.residue_sums(rng, 1, count)
    balls = [b for b in default_ball_family(p, 12) if b.radius_exp >= resolution][:10]
    rows = []
    all_within = True
    for b, hits in zip(balls, ball_counts(draws, balls)):
        q = ball_probability(g, b, tol=1e-12).value
        freq = hits / count
        band = 4.0 * math.sqrt(max(q * (1.0 - q), 1e-12) / count)
        within = abs(freq - q) <= band
        all_within = all_within and within
        rows.append(
            {"ball": str(b), "q": q, "freq": freq, "band": band, "within": within}
        )
    ok = ref_ok and all_within and len(balls) == 10
    return _result(
        "c7",
        "compound-Poisson sampler fidelity",
        120.0,
        started,
        ok,
        f"unit-ball reference match: {ref_ok} "
        f"(|{ref.value:.12f} - {STABLE_UNIT_BALL_REFERENCE}| <= 1e-10); "
        f"{sum(r['within'] for r in rows)}/{len(rows)} balls within 4-sigma "
        f"bands at m={count}",
        {"balls": rows, "reference": ref.value},
    )


def criterion_8(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Rescaled-measure trajectory converges to the exact tail mass."""
    started = time.perf_counter()
    p = 2
    m = make_example_measure(1, 1, p)
    target = float(measure_mass(m, TailSet(p, 0)))
    g = StableLaw(StableParams(1.0, 1.0, p))
    scheme = LimitScheme.geometric(p, m.beta, m.gamma0, n_max=8)
    errs = []
    for n in range(1, 9):
        val = phi_n_measure(g, scheme, n, TailSet(p, 0), tol=1e-6)
        errs.append(abs(val - target))
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 5e-3
    return _result(
        "c8",
        "rescaled-measure tail trajectory",
        60.0,
        started,
        ok,
        f"errors {['%.2e' % e for e in errs]}: decreasing={decreasing}, "
        f"final {errs[-1]:.2e} (tol 5e-3), target {target:.6f}",
        {"errors": errs, "target": target},
    )


def criterion_9(seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Degenerate regimes: exact transforms and classification verdicts."""
    started = time.perf_counter()
    # beta = 1 scheme: transform of S_n is exactly 1 once n >= log_p |t|
    sc2 = PRESETS["beta_one"](m=0)
    exact2 = True
    for n in sc2.n_list:
        for t in sc2.grid:
            fn = theoretical_fn(sc2.law_source, sc2.scheme, n, t)
            tau = -t.valuation
            want = 1.0 if n >= tau else 0.0
            if fn != complex(want, 0.0):
                exact2 = False
    rep2 = convergence_report(sc2)
    # bounded normalisers: transform is exactly the unit-ball cutoff
    sc3 = PRESETS["bounded_normalizers"](m=0)
    exact3 = True
    for n in sc3.n_list:
        for t in sc3.grid:
            fn = theoretical_fn(sc3.law_source, sc3.scheme, n, t)
            want = 1.0 if t.abs_le_exp(0) else 0.0
            if fn != complex(want, 0.0):
                exact3 = False
    rep3 = convergence_report(sc3)
    form3 = classify_two_valued(
        SumTransform(sc3.law_source, sc3.scheme, max(sc3.n_list)), sc3.prime
    )
    # the beta = 1 sums against the point mass at 1, which they do not approach
    doc1 = {**preset_spec("beta_one"), "m": 0, "target": {"kind": "point_mass", "xi": "1 @ p=3"}}
    rep1 = convergence_report(scenario_from_spec(doc1))
    verdicts_ok = (
        rep2.degenerate == "delta"
        and rep3.degenerate == "haar_cutoff"
        and form3.cutoff_exp == 0
        and form3.xi is not None
        and form3.xi.is_zero
        and [r.verdicts["degenerate_verdict"] for r in (rep2, rep3, rep1)] == [True, True, False]
    )
    ok = exact2 and exact3 and verdicts_ok
    return _result(
        "c9",
        "degenerate regimes",
        10.0,
        started,
        ok,
        f"beta=1 exact pointwise: {exact2}; bounded-B exact: {exact3}; "
        f"verdicts delta/haar_cutoff(0,0), degenerate_verdict true on both "
        f"presets and false against a point mass at 1: {verdicts_ok} (zero tolerance)",
        {"beta_one": rep2.degenerate, "bounded_normalizers": rep3.degenerate},
    )


def _report_bytes(scenario, workers: int) -> bytes:
    rep = convergence_report(scenario, workers=workers)
    payload = {
        "rows": rep.csv_rows(),
        "summary": rep.json_summary(),
    }
    return json.dumps(payload, sort_keys=True, default=str).encode()


def criterion_10(seed: int = DEFAULT_SEED, workers: int = 2, **_) -> CriterionResult:
    """Byte-identical reports across repeated and parallel runs."""
    from .samplers import CompoundPoissonSampler, substream

    started = time.perf_counter()
    stable = {**preset_spec("stable_limit"), "m": 400, "n_list": [0, 2], "seed": seed}
    sc = scenario_from_spec(stable)
    b_serial_1 = _report_bytes(sc, workers=1)
    b_serial_2 = _report_bytes(sc, workers=1)
    b_parallel = _report_bytes(sc, workers=max(2, workers))
    # sample dumps reproduce too
    m = make_example_measure(1, 1, 2)
    cp = CompoundPoissonSampler(measure=m, resolution=-4)
    d1 = [str(x) for x in cp.sample(substream(seed, 99), 200)]
    d2 = [str(x) for x in cp.sample(substream(seed, 99), 200)]
    ok = (b_serial_1 == b_serial_2) and (b_serial_1 == b_parallel) and d1 == d2
    return _result(
        "c10",
        "determinism (serial, repeated, parallel)",
        120.0,
        started,
        ok,
        f"repeat identical: {b_serial_1 == b_serial_2}; parallel identical: "
        f"{b_serial_1 == b_parallel}; sample dump identical: {d1 == d2}",
        {"report_bytes": len(b_serial_1)},
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]

TAGS = {
    "c1": "padic arithmetic character",
    "c2": "fourier sets haar oracle",
    "c3": "levy closed-form transform",
    "c4": "levy scaling",
    "c5": "levy inversion",
    "c6": "limits convergence",
    "c7": "sampler compound-poisson charfn",
    "c8": "limits trajectory charfn",
    "c9": "limits degenerate classify",
    "c10": "determinism cli",
}


def run_selftest(
    filter_substr: str | None = None,
    seed: int = DEFAULT_SEED,
    negative_control: bool = False,
    workers: int = 1,
) -> tuple[list[CriterionResult], dict]:
    results: list[CriterionResult] = []
    for fn in CRITERIA:
        cid = fn.__name__.replace("criterion_", "c")
        if filter_substr and (
            filter_substr not in cid and filter_substr not in TAGS.get(cid, "")
        ):
            continue
        try:
            res = fn(
                seed=seed, negative_control=negative_control, workers=workers
            )
        except Exception:
            res = CriterionResult(
                cid=cid,
                name=fn.__doc__.splitlines()[0] if fn.__doc__ else cid,
                passed=False,
                runtime_s=0.0,
                limit_s=0.0,
                details="exception: " + traceback.format_exc(limit=3),
            )
        results.append(res)
    report = {
        "version": __version__,
        "seed": seed,
        "negative_control": negative_control,
        "filter": filter_substr,
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "runtime_s": r.runtime_s,
                "limit_s": r.limit_s,
                "metrics": r.metrics,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return results, report
