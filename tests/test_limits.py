import json
import math
from fractions import Fraction

import pytest

from padicprob.charfn import (
    HaarBallSampler,
    PointMassSampler,
    RadialCharFn,
    StableParams,
    empirical_cf,
    stable_cf,
    stable_sampler,
    substream,
)
from padicprob.levy import (
    LevyExponent,
    make_example_measure,
    make_measure,
    measure_mass,
)
from padicprob.limits import (
    LimitScheme,
    convergence_report,
    default_ball_family,
    phi_n_measure,
    beta_one_scenario,
    bounded_normalizer_scenario,
    beta0_demo_scenario,
    scaling_identity_check,
    simulate_sums,
    theoretical_fn,
    stable_limit_scenario,
)
from padicprob.padic import from_rational, grid_points
from padicprob.sets import Ball, TailSet, annulus


def test_geometric_scheme_basic():
    s = LimitScheme.geometric(2, Fraction(1, 2), 2, n_max=10)
    assert s.k(0) == 1
    assert [s.k(n) for n in range(5)] == [1, 2, 4, 8, 16]
    assert s.B(3) == Fraction(1, 8)
    assert s.rho(4) == 0.5


def test_geometric_scheme_rejects_non_increasing_k():
    with pytest.raises(ValueError):
        LimitScheme.geometric(2, 0.9, 2, n_max=5)


def test_explicit_scheme_validation():
    s = LimitScheme.explicit(3, [1, Fraction(1, 3)], [1, 2])
    assert s.n_max == 1
    with pytest.raises(ValueError):
        LimitScheme.explicit(3, [1, 0], [1, 2])
    with pytest.raises(ValueError):
        LimitScheme.explicit(3, [1, 1], [2, 1])


def test_theoretical_fn_exact_in_integer_regime():
    m = make_example_measure(1, 1, 2)
    scheme = LimitScheme.geometric(2, m.beta, m.gamma0, n_max=10)
    le = LevyExponent(m)
    from padicprob.levy import cf_from_levy

    for n in (0, 1, 5, 10):
        for t in grid_points(2, -4, 4):
            assert theoretical_fn(le, scheme, n, t) == cf_from_levy(m, t)


def test_theoretical_fn_n0_is_f():
    g = RadialCharFn.stable(StableParams(1.0, 1.0, 2))
    scheme = LimitScheme.geometric(2, Fraction(1, 2), 2, n_max=4)
    t = from_rational(1, 2, p=2)
    assert theoretical_fn(g, scheme, 0, t) == complex(g(t), 0.0)


def test_simulate_sums_point_mass():
    p = 2
    xi = from_rational(3, p=p)
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=4)
    rng = substream(0, 0)
    out = simulate_sums(PointMassSampler(xi=xi), scheme, 2, 3, rng)
    want = xi.mul_rational(scheme.k(2) * (1 / scheme.B(2)))
    # deterministic value k(n) * xi / B_n (windows may differ in width)
    for x in out:
        assert x.valuation == want.valuation
        assert (x + (-want)).is_zero


def test_simulate_sums_haar_stationary():
    p = 3
    law = HaarBallSampler(ball=Ball(p, 0, 0), resolution=-10)
    scheme = LimitScheme.explicit(p, [1, 1, 1], [1, 2, 3])
    rng = substream(1, 0)
    sums = simulate_sums(law, scheme, 2, 150, rng)
    t = from_rational(1, p=p)
    assert empirical_cf(sums, t) == 1.0  # |t| <= 1: group stationarity


def test_simulate_sums_budget():
    p = 2
    law = PointMassSampler(xi=from_rational(1, p=p))
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=30)
    with pytest.raises(ValueError):
        simulate_sums(law, scheme, 25, 10**5, substream(0, 0))


def test_simulate_sums_mc_matches_theory():
    p = 2
    params = StableParams(1.0, 1.0, p)
    law = stable_sampler(params, resolution=-8)
    m = make_example_measure(1, 1, p)
    scheme = LimitScheme.geometric(p, m.beta, m.gamma0, n_max=4)
    rng = substream(3, 0)
    reps = 800
    sums = simulate_sums(law, scheme, 3, reps, rng)
    band = 4.0 / math.sqrt(reps)
    hits = 0
    grid = grid_points(p, -3, 3)
    for t in grid:
        emp = empirical_cf(sums, t)
        theo = stable_cf(params, t)  # exact regime: f_n == g
        hits += abs(emp - theo) <= band
    assert hits >= 0.95 * len(grid)


def test_phi_n_measure_values():
    p = 2
    g = RadialCharFn.stable(StableParams(1.0, 1.0, p))
    m = make_example_measure(1, 1, p)
    scheme = LimitScheme.geometric(p, m.beta, m.gamma0, n_max=8)
    target = float(measure_mass(m, TailSet(p, 0)))
    errs = [
        abs(phi_n_measure(g, scheme, n, TailSet(p, 0)) - target)
        for n in range(1, 9)
    ]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-3


def test_phi_n_scaled_set_trajectory():
    # k(n) F(B_n gamma0^-1 M) approaches beta * Phi(M), monotonically
    p = 2
    g = RadialCharFn.stable(StableParams(1.0, 1.0, p))
    m = make_example_measure(1, 1, p)
    scheme = LimitScheme.geometric(p, m.beta, m.gamma0, n_max=8)
    tail = TailSet(p, 0)
    scaled = tail.scale(1 / m.gamma0)
    target = float(m.beta * measure_mass(m, tail))
    assert target == float(measure_mass(m, scaled))  # the scaling law itself
    errs = [
        abs(phi_n_measure(g, scheme, n, scaled) - target) for n in range(1, 9)
    ]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 5e-3


def test_phi_n_measure_point_mass_zero():
    p = 2
    g = RadialCharFn.one(p)  # point mass at 0
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=4)
    assert phi_n_measure(g, scheme, 3, TailSet(p, 0)) == 0.0
    assert phi_n_measure(g, scheme, 3, annulus(0, 2, p)) == 0.0


def test_phi_n_measure_additive():
    p = 2
    g = RadialCharFn.stable(StableParams(1.0, 1.0, p))
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=4)
    a = phi_n_measure(g, scheme, 2, annulus(0, 1, p))
    b = phi_n_measure(g, scheme, 2, annulus(1, 2, p))
    both = phi_n_measure(g, scheme, 2, annulus(0, 2, p))
    assert abs((a + b) - both) <= 1e-9


def test_scaling_identity_check_and_negative_control():
    p = 2
    params = StableParams(1.0, 1.0, p)
    g = lambda t: complex(stable_cf(params, t))  # noqa: E731
    grid = grid_points(p, -4, 4)
    rows = scaling_identity_check(g, Fraction(2), Fraction(1, 2), grid)
    assert max(r for _, r in rows) <= 1e-14
    bad = scaling_identity_check(g, Fraction(2), Fraction(1, 4), grid)
    assert max(r for _, r in bad) > 1e-3


def test_default_ball_family_deterministic():
    fam1 = default_ball_family(2, 20)
    fam2 = default_ball_family(2, 20)
    assert fam1 == fam2
    assert len(fam1) == 20
    assert len(set(fam1)) == 20


def test_beta_one_scenario_degenerate():
    sc = beta_one_scenario(m=0)
    rep = convergence_report(sc)
    assert rep.degenerate == "delta"
    assert rep.verdicts["degenerate_verdict"]
    # transform is exactly 1 once n >= log_p |t|
    for t in sc.grid:
        tau = -t.valuation
        for n in sc.n_list:
            fn = theoretical_fn(sc.law_source, sc.scheme, n, t)
            assert fn == complex(1.0 if n >= tau else 0.0, 0.0)


def test_bounded_normalizer_scenario_haar_cutoff():
    sc = bounded_normalizer_scenario(m=0)
    rep = convergence_report(sc)
    assert rep.degenerate == "haar_cutoff"
    assert rep.verdicts["degenerate_verdict"]


def test_beta0_demo_runs_without_assertions():
    sc = beta0_demo_scenario()
    rep = convergence_report(sc)
    assert rep.verdicts == {} or all(rep.verdicts.values())


def test_stable_limit_report_small_and_parallel_determinism():
    sc = stable_limit_scenario(m=300, n_list=(0, 2), seed=5)
    sc.tolerances["phi_final"] = 0.1  # shallow n_list: trajectory not converged yet
    rep1 = convergence_report(sc, workers=1)
    rep2 = convergence_report(sc, workers=2)
    assert rep1.passed
    assert json.dumps(rep1.csv_rows(), sort_keys=True, default=str) == json.dumps(
        rep2.csv_rows(), sort_keys=True, default=str
    )


def test_simulate_sums_needs_a_summand():
    p = 2
    law = PointMassSampler(xi=from_rational(1, p=p))
    scheme = LimitScheme.explicit(p, [1, 1], [0, 1])
    with pytest.raises(ValueError):
        simulate_sums(law, scheme, 0, 3, substream(0, 0))
    assert simulate_sums(law, scheme, 0, 0, substream(0, 0)) == []


def test_phi_trajectory_needs_a_row_at_the_final_n(monkeypatch):
    import padicprob.limits as limits
    from padicprob.errors import ToleranceError

    sc = stable_limit_scenario(m=0, n_list=(0, 2))
    sc.tolerances["phi_final"] = 1e9  # every row that is present passes
    assert convergence_report(sc).verdicts["phi_trajectory"]
    real = limits.phi_n_measure
    final = sc.n_list[-1]

    def drop_final(law, scheme, n, m, *args, **kwargs):
        if n == final and m == sc.sets[0]:
            raise ToleranceError("dropped")
        return real(law, scheme, n, m, *args, **kwargs)

    monkeypatch.setattr(limits, "phi_n_measure", drop_final)
    rep = convergence_report(sc)
    # the earlier row of the first set stays in the report, but the
    # verdict may not fall back to it
    assert [r["n"] for r in rep.phi_rows] == [0, 0, 2]
    assert rep.verdicts["phi_trajectory"] is False


def test_phi_trajectory_fails_when_every_row_is_dropped(monkeypatch):
    import padicprob.limits as limits
    from padicprob.errors import ToleranceError

    def always(*args, **kwargs):
        raise ToleranceError("dropped")

    monkeypatch.setattr(limits, "phi_n_measure", always)
    rep = convergence_report(stable_limit_scenario(m=0, n_list=(0, 2)))
    assert rep.phi_rows == []
    assert rep.verdicts["phi_trajectory"] is False
    assert not rep.passed


def test_measure_source_evaluates_each_point_once(monkeypatch):
    # a beta_one-style report whose law is given by a jump measure: the
    # theory rows and the classification share one cached exponent.  The
    # weights are so small that |f_n| is 1 to within the classification
    # tolerance, so classification probes every sphere and then re-reads
    # the points p**-m to rebuild xi.
    import padicprob.levy as levy
    from padicprob.limits import Scenario
    from padicprob.sets import split_sphere

    p = 3
    m = make_measure(
        p, Fraction(1, 3), p,
        ((tuple((b, Fraction(1, 10**15)) for b in split_sphere(0, 1, p))),),
    )
    sc = Scenario(
        name="measure-beta-one",
        prime=p,
        law=HaarBallSampler(ball=Ball(p, 0, 0), resolution=-12),
        scheme=LimitScheme.geometric(p, m.beta, m.gamma0, n_max=2),
        grid=tuple(grid_points(p, -2, 2)),
        balls=(),
        sets=(),
        m=0,
        seed=0,
        n_list=(0, 1, 2),
        law_source=m,
        kind="beta_one",
    )
    seen: dict = {}
    real = levy.levy_exponent_exact

    def counting(measure, t, *args):
        key = (t.valuation, t.unit, t.precision)
        seen[key] = seen.get(key, 0) + 1
        return real(measure, t, *args)

    monkeypatch.setattr(levy, "levy_exponent_exact", counting)
    rep = convergence_report(sc)
    assert rep.degenerate == "delta"
    assert seen and max(seen.values()) == 1
