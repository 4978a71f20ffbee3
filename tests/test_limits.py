import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balls as oracle
from evaluators import empirical_cf
from padicprob import charfn, limits
from padicprob.charfn import HaarUniform, PointMass, StableLaw, StableParams
from padicprob.levy import (
    JumpMeasure,
    classify_two_valued,
    make_example_measure,
    make_measure,
    measure_mass,
    random_self_similar_measure,
)
from padicprob.limits import (
    PRESETS,
    LimitScheme,
    Scenario,
    SumTransform,
    _block_sizes,
    convergence_report,
    default_ball_family,
    phi_n_measure,
    preset_spec,
    scaling_identity_check,
    simulate_sums,
    sum_residues,
    theoretical_fn,
)
from padicprob.specs import law_from_spec, scenario_from_spec
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.residues import tally
from padicprob.padic import PAdicNumber, from_rational, grid_points, rational_valuation
from padicprob.samplers import HaarBallSampler, PointMassSampler, substream
from padicprob.sets import Ball, TailSet, annulus


def test_geometric_scheme_basic():
    s = LimitScheme.geometric(2, Fraction(1, 2), 2, n_max=10)
    assert s.k(0) == 1
    assert [s.k(n) for n in range(5)] == [1, 2, 4, 8, 16]
    assert s.B(3) == Fraction(1, 8)


def test_geometric_scheme_rejects_non_increasing_k():
    with pytest.raises(ValueError):
        LimitScheme.geometric(2, 0.9, 2, n_max=5)


def test_explicit_scheme_validation():
    s = LimitScheme.explicit(3, [1, Fraction(1, 3)], [1, 2])
    assert s.n_max == 1
    with pytest.raises(ValueError):
        LimitScheme.explicit(3, [1, 0], [1, 2])
    # a sum has no negative number of summands; the empty sum is legal
    with pytest.raises(ValueError, match="k\\(n\\) must be >= 0"):
        LimitScheme.explicit(2, [1], [-1])
    with pytest.raises(ValueError, match="k\\(n\\) must be >= 0"):
        LimitScheme.explicit(2, [1, 1], [-2, 3])
    assert LimitScheme.explicit(2, [1], [0]).k(0) == 0
    with pytest.raises(ValueError):
        LimitScheme.explicit(3, [1, 1], [2, 1])


def test_theoretical_fn_exact_in_integer_regime():
    m = make_example_measure(1, 1, 2)
    scheme = LimitScheme.geometric(2, m.beta, m.gamma0, n_max=10)
    le = JumpMeasure(m)
    for n in (0, 1, 5, 10):
        for t in grid_points(2, -4, 4):
            assert theoretical_fn(le, scheme, n, t) == JumpMeasure(m)(t)


def test_theoretical_fn_n0_is_f():
    g = StableLaw(StableParams(1.0, 1.0, 2))
    scheme = LimitScheme.geometric(2, Fraction(1, 2), 2, n_max=4)
    t = from_rational(1, 2, p=2)
    assert theoretical_fn(g, scheme, 0, t) == g(t)


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


def _point_mass_budget_scenario(m: int) -> Scenario:
    """k(20) = 2**20 summands of a point mass per replicate: k(n) * m
    exceeds BUDGET_CAP from m = 96, and k(n) times the largest of the 16
    blocks from m = 1526."""
    p = 2
    return Scenario(
        name="budget", prime=p, law=law_from_spec({"kind": "point_mass", "xi": "1 @ p=2"}),
        scheme=LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=20),
        grid=(from_rational(1, p=p),), balls=(Ball(p, 0, 0),), sets=(), m=m,
        seed=0, n_list=(0, 20),
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("m", [1520, 1600])
def test_report_budget_is_k_times_m_per_run(m, workers, monkeypatch):
    # the cap holds for k(n) * m, the whole run of an n, not for each
    # block of m / 16, and it is checked before any block is drawn
    drawn = []
    monkeypatch.setattr(PointMassSampler, "residue_sums",
                        lambda self, *args: drawn.append(args))
    sc = _point_mass_budget_scenario(m)
    with pytest.raises(ValueError) as err:
        convergence_report(sc, workers=workers)
    assert str(err.value) == f"budget exceeded: k(n)*m = {2**20 * m} > {limits.BUDGET_CAP}"
    assert drawn == []


def test_report_within_budget_runs():
    # k(20) * 95 is under the cap
    report = convergence_report(_point_mass_budget_scenario(95))
    assert [r["n"] for r in report.cf_rows] == [0, 20]


def test_simulate_sums_mc_matches_theory():
    p = 2
    params = StableParams(1.0, 1.0, p)
    law = law_from_spec({"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": p,
                         "resolution": -8, "n_lo": -40, "n_hi": 40}).sampler
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
        theo = StableLaw(params)(t)  # exact regime: f_n == g
        hits += abs(emp - theo) <= band
    assert hits >= 0.95 * len(grid)


def test_phi_n_measure_values():
    p = 2
    g = StableLaw(StableParams(1.0, 1.0, p))
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
    g = StableLaw(StableParams(1.0, 1.0, p))
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
    g = PointMass(PAdicNumber.zero(p))
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=4)
    assert phi_n_measure(g, scheme, 3, TailSet(p, 0)) == 0.0
    assert phi_n_measure(g, scheme, 3, annulus(0, 2, p)) == 0.0


def test_phi_n_measure_of_the_empty_sum_is_0(monkeypatch):
    # k(n) = 0: the rescaled measure is 0 * F(B_n M), with no ball
    # series run; it divided the tolerance by k
    def refuse(*args, **kwargs):
        raise AssertionError("the empty sum ran a ball series")

    monkeypatch.setattr(limits, "ball_probability", refuse)
    scheme = LimitScheme.explicit(2, [1], [0])
    for g in (StableLaw(StableParams(1.0, 1.0, 2)), HaarUniform(Ball(2, 0, 0))):
        for m in (TailSet(2, 0), annulus(0, 2, 2), Ball(2, 1, -1)):
            val = phi_n_measure(g, scheme, 0, m)
            assert val == 0.0 and type(val) is float


def test_phi_n_measure_additive():
    p = 2
    g = StableLaw(StableParams(1.0, 1.0, p))
    scheme = LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=4)
    a = phi_n_measure(g, scheme, 2, annulus(0, 1, p))
    b = phi_n_measure(g, scheme, 2, annulus(1, 2, p))
    both = phi_n_measure(g, scheme, 2, annulus(0, 2, p))
    assert abs((a + b) - both) <= 1e-9


def test_scaling_identity_check_and_negative_control():
    p = 2
    params = StableParams(1.0, 1.0, p)
    g = StableLaw(params)
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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_default_ball_family_has_count_distinct_balls(p):
    # the family is built without a repeat test: its balls are distinct
    # by construction
    for count in range(41):
        fam = default_ball_family(p, count)
        assert len(fam) == count
        assert len(set(fam)) == count


def _stable_preset(**changes) -> Scenario:
    """The stable_limit preset's document, with ``changes``."""
    return scenario_from_spec({**preset_spec("stable_limit"), **changes})


def test_beta_one_scenario_degenerate():
    sc = PRESETS["beta_one"](m=0)
    rep = convergence_report(sc)
    assert rep.degenerate == "delta"
    assert rep.verdicts["degenerate_verdict"]
    # transform is exactly 1 once n >= log_p |t|
    for t in sc.grid:
        tau = -t.valuation
        for n in sc.n_list:
            fn = theoretical_fn(sc.law.transform, sc.scheme, n, t)
            assert fn == complex(1.0 if n >= tau else 0.0, 0.0)


def test_bounded_normalizer_scenario_haar_cutoff():
    sc = PRESETS["bounded_normalizers"](m=0)
    rep = convergence_report(sc)
    assert rep.degenerate == "haar_cutoff"
    assert rep.verdicts["degenerate_verdict"]


def test_beta0_demo_runs_without_assertions():
    sc = PRESETS["beta0_demo"](m=0)
    rep = convergence_report(sc)
    assert rep.verdicts == {} or all(rep.verdicts.values())


_STABLE_VERDICTS = ("phi_trajectory", "positivity", "scaling_identity", "sup_exact")
_MC_VERDICTS = ("ball_frequencies", "mc_within_bands")
# Each shipped document's degenerate form, the verdicts it gives at m = 0
# and those its Monte Carlo rows add at m = 40, every one true, as 0.4.0
# gave them when a `kind` label chose them: the verdicts read from the
# target must be the same.
SHIPPED_VERDICTS = {
    "beta0_demo": (None, (), ("mc_within_bands",)),
    "beta_one": ("delta", ("degenerate_verdict",), _MC_VERDICTS),
    "bounded_normalizers": ("haar_cutoff", ("degenerate_verdict",), _MC_VERDICTS),
    "stable_limit": (None, _STABLE_VERDICTS, _MC_VERDICTS),
    "configs/stable_limit.json": (None, _STABLE_VERDICTS, _MC_VERDICTS),
}


@pytest.mark.parametrize("m", [0, 40])
@pytest.mark.parametrize("name", sorted(SHIPPED_VERDICTS))
def test_shipped_documents_keep_their_verdicts(name, m):
    if name in PRESETS:
        doc = preset_spec(name)
    else:
        doc = json.loads((Path(__file__).resolve().parent.parent / name).read_text())
    degenerate, exact, mc = SHIPPED_VERDICTS[name]
    rep = convergence_report(scenario_from_spec({**doc, "m": m}))
    assert rep.verdicts == dict.fromkeys(exact + (mc if m else ()), True)
    assert rep.degenerate == degenerate


def test_a_compound_poisson_law_of_the_stable_target_measure_is_exact():
    # the law's transform is JumpMeasure(M) and the shorthand target's
    # JumpMeasure(M, closed_form): unequal transforms of one measure, so
    # no sup_exact was given although every sup_err is 0.0
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs/stable_limit.json").read_text())
    law = {"kind": "compound_poisson", "measure": doc["target"]}
    rep = convergence_report(scenario_from_spec({**doc, "law": law, "m": 0}))
    assert [r["sup_err"] for r in rep.sup_rows] == [0.0] * len(doc["n_list"])
    assert rep.verdicts["sup_exact"] is True


def test_stable_limit_report_small_and_parallel_determinism():
    sc = _stable_preset(m=300, n_list=[0, 2], seed=5)
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

    sc = _stable_preset(m=0, n_list=[0, 2])
    sc.tolerances["phi_final"] = 1e9  # every row that is present passes
    rep = convergence_report(sc)
    assert rep.verdicts["phi_trajectory"]
    assert rep.effective["phi_rows_dropped"] == 0
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
    assert rep.effective["phi_rows_dropped"] == 1


def test_phi_trajectory_fails_when_every_row_is_dropped(monkeypatch):
    import padicprob.limits as limits
    from padicprob.errors import ToleranceError

    def always(*args, **kwargs):
        raise ToleranceError("dropped")

    monkeypatch.setattr(limits, "phi_n_measure", always)
    rep = convergence_report(_stable_preset(m=0, n_list=[0, 2]))
    assert rep.phi_rows == []
    assert rep.verdicts["phi_trajectory"] is False
    assert not rep.passed
    assert rep.effective["phi_rows_dropped"] == 4  # two sets, two n


@pytest.mark.parametrize("name", ["beta_one", "bounded_normalizers"])
def test_preset_classification_reads_no_transform_value(name, monkeypatch):
    # the float probe read 5346 points of f_n here; the exact form reads none
    import padicprob.limits as limits

    def refuse(*args, **kwargs):
        raise AssertionError("classification read a transform value")

    sc = limits.PRESETS[name](m=0)
    monkeypatch.setattr(limits.SumTransform, "_sphere", refuse)
    monkeypatch.setattr(charfn.Transform, "sphere", refuse)
    kind = {"beta_one": "delta"}.get(name, "haar_cutoff")
    assert limits._classification(sc) == (kind, True)
    form = classify_two_valued(
        limits.SumTransform(sc.law.transform, sc.scheme, sc.n_list[-1]),
        sc.prime,
        search_radius_exp=limits.CLASSIFY_SEARCH_RADIUS_EXP,
    )
    expected = {"beta_one": ("delta", None)}.get(name, ("haar_cutoff", 0))
    assert (form.kind, form.cutoff_exp) == expected
    assert form.xi.is_zero


def test_the_empty_sum_has_the_form_of_the_point_mass_at_0():
    # k = 0 summands: S_n = 0, whatever the summand law
    import padicprob.limits as limits

    scheme = LimitScheme.explicit(2, [Fraction(1, 4)], [0])
    for law in (HaarUniform(Ball(2, 0, 0)), PointMass(from_rational(1, p=2))):
        form = limits.SumTransform(law, scheme, 0).form
        assert form == charfn.TwoValuedForm("delta", PAdicNumber.zero(2))


def test_the_empty_sum_has_transform_1_where_the_law_vanishes():
    # k = 0 gives 1 at every t, also where g(t / B_n) is 0.0: the radial
    # branch took a zero radial value to 0j for every k
    scheme = LimitScheme.explicit(2, [1], [0])
    laws = (
        HaarUniform(Ball(2, 0, 0)),  # radial
        HaarUniform(Ball(2, 1, -1)),  # not radial
        JumpMeasure(make_example_measure(1, 1, 2)),
    )
    for law in laws:
        for t in (from_rational(1, 4, p=2), from_rational(3, p=2), PAdicNumber.zero(2)):
            assert theoretical_fn(law, scheme, 0, t) == complex(1.0, 0.0)
        assert law.sphere(2, -2, (1, 3), 8, 0) == [complex(1.0, 0.0)] * 2


def _closed_form_probability(p, point, radius_exp, ball):
    """P(ball) under the point mass at the rational ``point`` (radius_exp
    None) or the uniform law on B(point, p**radius_exp), from Fractions
    alone."""
    b = oracle.ball(p, ball.center, ball.radius_exp)
    if radius_exp is None or ball.radius_exp >= radius_exp:
        return Fraction(oracle.contains_rational(b, point))
    if not oracle.contains_rational(oracle.ball(p, point, radius_exp), ball.center):
        return Fraction(0)
    return Fraction(p) ** (ball.radius_exp - radius_exp)


def _law_of(form):
    """The point mass or Haar-uniform law a two-valued form states."""
    if form.cutoff_exp is None:
        return PointMass(form.xi)
    return HaarUniform(Ball(form.xi.prime, form.xi, -form.cutoff_exp))


@st.composite
def two_valued_sums(draw):
    """A sum of k(0) copies of a point mass or a Haar ball, divided by
    B_0, with the point and radius of its closed-form law (radius None for
    a point mass), and balls around that point."""
    p = draw(st.sampled_from((2, 3, 5)))
    den = p ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 2, 7)))
    x = Fraction(draw(st.integers(-50, 50)), den)
    unit = draw(st.sampled_from((1, -1, 2, 3, Fraction(1, 7))))
    b = Fraction(p) ** draw(st.integers(-3, 3)) * unit
    k = draw(st.integers(0, 12))
    if draw(st.booleans()):
        source, radius = PointMass(from_rational(x, p=p)), None
    else:
        r = draw(st.integers(-3, 2))
        source, radius = HaarUniform(Ball(p, x, r)), r + rational_valuation(b, p)
    point = k * x / b
    if k == 0:
        point, radius = Fraction(0), None
    sum_ = limits.SumTransform(source, LimitScheme.explicit(p, [b], [k]), 0)
    near = radius if radius is not None else draw(st.integers(-4, 2))
    balls = []
    for _ in range(4):
        shift = Fraction(p) ** draw(st.integers(-4, 4)) * draw(st.integers(-3, 3))
        balls.append(Ball(p, point + shift, near + draw(st.integers(-3, 3))))
    return sum_, point, radius, balls


@settings(max_examples=150, deadline=None)
@given(two_valued_sums())
def test_a_two_valued_sum_has_exact_ball_probabilities(case):
    g, point, radius, balls = case
    law = _law_of(g.form)
    for ball in balls:
        want = _closed_form_probability(g.prime, point, radius, ball)
        got = charfn.ball_probability(g, ball)
        assert got == (float(want), 0.0, want)
        assert charfn.ball_probability(law, ball).exact == want


@settings(max_examples=60, deadline=None)
@given(two_valued_sums())
def test_a_two_valued_sum_has_the_log_modulus_of_its_form(case):
    g, _, radius, _ = case
    law = _law_of(g.form)
    for t in [PAdicNumber.zero(g.prime)] + grid_points(g.prime, -6, 6):
        # |f_n(t)| is 1 on the ball |t| <= p**-radius and 0 beyond
        inside = radius is None or t.is_zero or t.valuation >= radius
        want = 0.0 if inside else -math.inf
        assert g.log_modulus(t) == law.log_modulus(t) == want


def test_two_valued_sums_are_exact_on_the_quoted_balls():
    # the uniform law on Z_3, two copies divided by 1/9: uniform on
    # B(0, 3**-2); read through the float sphere series this gave
    # 0.9999999999996064 and -3.9e-13
    scheme = LimitScheme.explicit(3, [Fraction(1, 9)], [2])
    g = limits.SumTransform(HaarUniform(Ball(3, 0, 0)), scheme, 0)
    assert charfn.ball_probability(g, Ball(3, 0, -2)) == (1.0, 0.0, 1)
    assert charfn.ball_probability(g, Ball(3, 2, -3)) == (0.0, 0.0, 0)
    # a non-radial source, which had no sphere series at all
    g = limits.SumTransform(HaarUniform(Ball(3, 1, -1)), LimitScheme.explicit(3, [3], [2]), 0)
    assert not g.is_radial
    assert charfn.ball_probability(g, Ball(3, Fraction(2, 3), -1)).exact == Fraction(1, 3)
    assert charfn.ball_probability(g, Ball(3, Fraction(1, 3), 0)).exact == 0
    # the empty sum is the point mass at 0
    scheme = LimitScheme.explicit(2, [Fraction(1, 4)], [0])
    for law in (HaarUniform(Ball(2, 1, -1)), PointMass(from_rational(3, p=2))):
        g = limits.SumTransform(law, scheme, 0)
        assert charfn.ball_probability(g, Ball(2, 0, -9)) == (1.0, 0.0, 1)
        assert charfn.ball_probability(g, Ball(2, Fraction(1, 2), 0)) == (0.0, 0.0, 0)


def test_measure_source_evaluates_each_point_once(monkeypatch):
    # a beta_one-style report whose law is given by a jump measure, with
    # weights so small that |f_n| is 1 to within 1e-9: the float probe
    # read it as the point mass at 0, and the verdict held.  A jump
    # measure's transform has no two-valued form, so the report says so,
    # and reads the exponent for its theory rows alone, each point once.
    import padicprob.levy as levy
    from padicprob.limits import Scenario
    from padicprob.sets import split_sphere

    p = 3
    m = make_measure(
        p, Fraction(1, 3), p,
        ((tuple((b, Fraction(1, 10**15)) for b in split_sphere(0, 1, p))),),
    )
    fundamental = [{"sphere": 0, "balls": [
        {"center": str(b.center), "radius_exp": b.radius_exp, "weight": str(w)}
        for b, w in m.fundamental[0]
    ]}]
    law = law_from_spec({"kind": "compound_poisson", "measure": {
        "p": p, "beta": str(m.beta), "gamma0": str(m.gamma0), "fundamental": fundamental,
    }})
    assert law.transform == JumpMeasure(m)
    sc = Scenario(
        name="measure-beta-one",
        prime=p,
        law=law,
        scheme=LimitScheme.geometric(p, m.beta, m.gamma0, n_max=2),
        grid=tuple(grid_points(p, -2, 2)),
        balls=(),
        sets=(),
        m=0,
        seed=0,
        n_list=(0, 1, 2),
        target=PointMass(PAdicNumber.zero(p)),
    )
    seen: dict = {}
    real = levy.LevyExponent._kernel

    def counting(self, p, v, units, precision):
        for u in units:
            key = (v, u, precision)
            seen[key] = seen.get(key, 0) + 1
        return real(self, p, v, units, precision)

    monkeypatch.setattr(levy.LevyExponent, "_kernel", counting)
    rep = convergence_report(sc)
    assert rep.degenerate == "not_two_valued"
    assert rep.verdicts["degenerate_verdict"] is False
    assert seen and max(seen.values()) == 1



# ---------------------------------------------------------------------
# t / B_n from one split per f_n, against mul_rational(1 / B(n))
# ---------------------------------------------------------------------


def oracle_theoretical_fn(source, scheme, n, t):
    """theoretical_fn with t scaled by mul_rational on a new Fraction."""
    k = scheme.k(n)
    t_scaled = t.mul_rational(1 / scheme.B(n))
    if source.measure is not None:
        return cmath.exp(source.exponent.exact(t_scaled).scale(k).to_complex())
    if source.is_radial:
        val = source(t_scaled).real
        if val == 0.0:
            return complex(0.0, 0.0)
        if val > 0.0:
            return complex(math.exp(k * math.log(val)), 0.0)
        return complex(val, 0.0) ** k
    return source(t_scaled) ** k


@st.composite
def schemes(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        unit = draw(st.sampled_from(
            (Fraction(1), Fraction(1 + p), Fraction(1, 1 + p), Fraction(-1),
             Fraction(-3, 7) if p != 3 else Fraction(-2, 7))
        ))
        j = draw(st.integers(1, 2))
        beta = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), 0.3, 0.45)))
        return LimitScheme.geometric(p, beta, Fraction(p) ** j * unit, n_max=6)
    b_list = draw(st.lists(
        st.builds(
            lambda a, b, e: Fraction(a, b) * Fraction(p) ** e,
            st.integers(-50, 50).filter(bool),
            st.integers(1, 50),
            st.integers(-6, 6),
        ),
        min_size=2, max_size=7,
    ))
    return LimitScheme.explicit(p, b_list, list(range(1, len(b_list) + 1)))


@st.composite
def points(draw, p):
    """Nonzero t over p: SumTransform moves the points of a sphere."""
    precision = draw(st.sampled_from((1, 2, 3, 48)))
    unit = draw(st.integers(1, p**precision - 1).filter(lambda u: u % p))
    return PAdicNumber(p, draw(st.integers(-6, 6)), unit, precision)


class RecordingTransform(charfn.Transform):
    """A source that records each sphere it is asked for, and its power."""

    def __init__(self, p):
        self.prime, self.calls = p, []

    def sphere(self, p, v, units, precision, k=None):
        self.calls.append((p, v, list(units), precision, k))
        return super().sphere(p, v, units, precision, k)

    def _sphere(self, v, units, precision):
        return [complex(1.0, 0.0)] * len(units)


@settings(max_examples=120, deadline=None)
@given(schemes(), st.data())
def test_sum_transform_moves_a_sphere_by_mul_rational(scheme, data):
    p = scheme.prime
    other = 7 if p != 7 else 11
    source = RecordingTransform(p)
    for t in data.draw(st.lists(st.one_of(points(p), points(other)), max_size=6)):
        for n in range(scheme.n_max + 1):
            f_n = limits.SumTransform(source, scheme, n)
            if t.prime != p:
                with pytest.raises(PrimeMismatchError) as err:
                    f_n(t)
                assert str(err.value) == (
                    f"transform over p={p} evaluated at a point over p={other}"
                )
                continue
            want = t.mul_rational(1 / scheme.B(n))
            # twice: the split of B_n**-1 is made once, with f_n
            for _ in range(2):
                source.calls.clear()
                f_n(t)
                [(q, v, (u,), precision, k)] = source.calls
                assert (q, k) == (p, scheme.k(n))
                assert PAdicNumber(q, v, u, precision) == want


@pytest.mark.parametrize("seed", range(4))
def test_theoretical_fn_matches_oracle(seed):
    rng = substream(seed, 12)
    m = random_self_similar_measure(rng)
    p = m.prime
    scheme = LimitScheme.geometric(p, Fraction(1, 3), m.gamma0, n_max=3)
    explicit = LimitScheme.explicit(
        p, [Fraction(1), Fraction(p + 1, p**2), Fraction(-p, 7)], [1, 2, 4]
    )
    sources = (
        JumpMeasure(m),
        StableLaw(StableParams(1.0, 0.7, p)),
        HaarUniform(Ball(p, 0, 0)),
        HaarUniform(Ball(p, Fraction(1, p), -2)),
        PointMass(from_rational(1, 3, p=p) if p != 3 else from_rational(1, 2, p=p)),
    )
    ts = grid_points(p, -3, 3) + [PAdicNumber.zero(p)]
    for sch in (scheme, explicit):
        for n in range(sch.n_max + 1):
            for t in ts:
                for src in sources:
                    assert theoretical_fn(src, sch, n, t) == (
                        oracle_theoretical_fn(src, sch, n, t)
                    )


def test_each_report_evaluates_through_its_own_exponent():
    # a memo must not outlive its report: the scenario's transforms (a
    # compound-Poisson law's and a stable target's, each a JumpMeasure)
    # keep empty exponent caches however often it is reported, and the
    # module-level sphere-value memo is never filled
    charfn._measure_radial_value.cache_clear()
    law = {"kind": "compound_poisson", "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}},
           "resolution": -4}
    sc = _stable_preset(law=law, m=0, n_list=[0, 2])
    first = convergence_report(sc)
    second = convergence_report(sc)
    assert first.sup_rows == second.sup_rows and first.sup_rows
    assert not sc.law.transform.exponent._cache
    assert not sc.target.exponent._cache
    assert charfn._measure_radial_value.cache_info().currsize == 0


def test_reports_of_one_scenario_share_its_table_and_sampler(monkeypatch):
    # each report starts from fresh transforms, but not from a fresh law:
    # its sphere mass table is built once, with the scenario, and its
    # sampler once, on the first draw
    from padicprob import samplers, specs

    tables, samplers_built = [], []
    real_masses, real_init = specs.sphere_masses, samplers.RadialSampler.__post_init__
    monkeypatch.setattr(specs, "sphere_masses", lambda *a: tables.append(a) or real_masses(*a))
    monkeypatch.setattr(samplers.RadialSampler, "__post_init__",
                        lambda self: samplers_built.append(self) or real_init(self))
    sc = _stable_preset(m=0, n_list=[0, 2])
    convergence_report(sc)
    assert (len(tables), samplers_built) == (1, [])
    sc.m = 16
    first, second = convergence_report(sc), convergence_report(sc)
    assert first.cf_rows == second.cf_rows
    assert (len(tables), samplers_built) == (1, [sc.law.sampler])


def test_theory_rows_evaluate_the_target_once_per_grid_point(monkeypatch):
    # the target does not depend on n: a report evaluates it once per grid
    # point for the sup rows and twice for the scaling identity, however
    # many n it lists (it was once per (n, grid point) for the sup rows)
    calls = []
    real = charfn.Transform.__call__

    def counting(self, t):
        calls.append(type(self).__name__)
        return real(self, t)

    monkeypatch.setattr(charfn.Transform, "__call__", counting)
    for n_list in ([6], [0, 2, 4, 6]):
        calls.clear()
        sc = _stable_preset(m=0, n_list=n_list)
        rep = convergence_report(sc)
        assert len(rep.sup_rows) == len(n_list)
        assert calls == ["JumpMeasure"] * (3 * len(sc.grid))


def test_theory_rows_evaluate_f_n_once_per_sphere(monkeypatch):
    # the grid's 39 points lie on 13 spheres: f_n is evaluated once per
    # (n, sphere), 52 times for four n (once per point, it was 156)
    calls = []
    real = limits.SumTransform._sphere

    def counting(self, v, units, precision):
        calls.append((self.n, v, precision))
        return real(self, v, units, precision)

    monkeypatch.setattr(limits.SumTransform, "_sphere", counting)
    sc = _stable_preset(m=0, n_list=[0, 2, 4, 6])
    convergence_report(sc)
    spheres = {(t.valuation, t.precision) for t in sc.grid}
    assert len(calls) == len(set(calls)) == 4 * len(spheres) == 52


def _non_radial_measure(p):
    return make_measure(p, Fraction(1, p), p, (((Ball(p, 1, -2), Fraction(1, 2)),),))


@settings(max_examples=12, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5)),
    law=st.sampled_from(("point", "haar", "stable", "non_radial")),
    explicit=st.booleans(),
)
def test_theory_rows_are_the_point_values(p, law, explicit):
    # f_n read a sphere at a time gives each point's theoretical_fn, bit
    # for bit, also at the exact and the certified zero
    from types import SimpleNamespace

    source = {
        "point": lambda: PointMass(PAdicNumber(p, -2, p + 1, 40)),
        "haar": lambda: HaarUniform(Ball(p, Fraction(1, p), -2)),
        "stable": lambda: StableLaw(StableParams(1.5, 0.7, p)),
        "non_radial": lambda: JumpMeasure(_non_radial_measure(p)),
    }[law]()
    assert source.is_radial == (law == "stable")
    scheme = (
        LimitScheme.explicit(p, [Fraction(p**n, 1 + p) for n in range(4)], [1, 1, 4, 7])
        if explicit else LimitScheme.geometric(p, Fraction(1, p), p, n_max=3)
    )
    grid = (
        PAdicNumber.zero(p), *grid_points(p, -3, 3), PAdicNumber.zero(p, 3),
        *grid_points(p, -2, 2, precision=20),
    )
    sc = SimpleNamespace(law=SimpleNamespace(transform=source), target=None, scheme=scheme,
                         grid=grid, n_list=(0, 1, 3))
    theo, _ = limits._theory_rows(sc)
    want = {(n, i): theoretical_fn(source, scheme, n, t)
            for n in sc.n_list for i, t in enumerate(grid)}
    assert list(theo) == list(want)
    assert [repr(z) for z in theo.values()] == [repr(z) for z in want.values()]


def test_one_process_pool_per_report(monkeypatch):
    import concurrent.futures

    opened = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)

    # _mc_rows imports the pool class when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    sc = _stable_preset(m=64, n_list=[0, 2, 4])
    parallel = convergence_report(sc, workers=2)
    assert len(opened) == 1
    assert parallel.csv_rows() == convergence_report(sc).csv_rows()


# Seeds at which the blocks of n = 0 (m = 64: 16 blocks of 4) disagree on
# a grid point t = 1/2 known to a few binary digits: the product t*x needs
# digits of t that are not known once |x| is large, which few blocks draw.
def _failing_block_scenario(case: str) -> Scenario:
    p = 2
    law_spec = {"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": p, "resolution": -8}
    balls = default_ball_family(p, 4)
    if case == "late_block_fails_a_grid_point":  # blocks 0-11 pass
        seed, precision = 0, 5
    elif case == "ball_in_block_0_grid_point_in_block_1":
        seed, precision = 2, 7
        balls.append(Ball(p, Fraction(1, 2), -12))  # finer than every window
    else:  # compound-Poisson blocks, tops 3, 0, 2, 5, ...; blocks 0-11 pass
        law_spec = {"kind": "compound_poisson", "resolution": -3,
                    "measure": {"stable": {"a": 1, "alpha": 1, "p": p}}}
        seed, precision = 5, 6
    grid = (from_rational(1, 4, p=p), from_rational(1, 2, p=p, precision=precision))
    return Scenario(
        name=case, prime=p, law=law_from_spec(law_spec),
        scheme=LimitScheme.geometric(p, Fraction(1, 2), 2, n_max=1),
        grid=grid, balls=tuple(balls), sets=(), m=64, seed=seed, n_list=(0, 1),
    )


def _first_block_error(sc: Scenario):
    """Each block of each n tallied on its own, in order: the first
    block that raises, and its exception."""
    for n_idx, n in enumerate(sc.n_list):
        for block, count in enumerate(_block_sizes(sc.m)):
            sums = sum_residues(
                sc.law.sampler, sc.scheme, n, count, substream(sc.seed, n_idx, block)
            )
            try:
                tally(sc.prime, sums, sc.grid, sc.balls)
            except (PrecisionError, PrimeMismatchError) as exc:
                return (n_idx, block), (type(exc).__name__, str(exc))
    return None, None


def _report_error(sc: Scenario, workers: int):
    try:
        convergence_report(sc, workers=workers)
    except (PrecisionError, PrimeMismatchError) as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case, first_block, message", [
    ("late_block_fails_a_grid_point", (0, 12), "digits below the unit scale"),
    ("ball_in_block_0_grid_point_in_block_1", (0, 0), "membership needs"),
    ("cp_blocks_with_different_tops", (0, 12), "digits below the unit scale"),
])
def test_report_raises_what_the_first_failing_block_raises(case, first_block, message, workers):
    # the report counts each n's blocks as one batch, serially and in a
    # pool; where a block cannot decide a query, it must still raise the
    # exception of the first block that fails when tallied on its own
    sc = _failing_block_scenario(case)
    block, expected = _first_block_error(sc)
    assert block == first_block and message in expected[1]
    assert _report_error(sc, workers) == expected


def _stable_p3_scenario(m: int = 0):
    """A stable target at a = 2, alpha = 1.5, p = 3 on the grid up to |t| =
    3**4, where exp(-2 * 3**6) underflows to 0.0."""
    from padicprob.specs import scenario_from_spec

    return scenario_from_spec({
        "name": "stable-p3",
        "law": {"kind": "radial_stable", "a": 2, "alpha": 1.5, "p": 3, "resolution": -8},
        "scheme": {"mode": "geometric", "p": 3, "beta": 3**-1.5, "gamma0": "3", "n_max": 2},
        "target": {"stable": {"a": 2, "alpha": 1.5, "p": 3}},
        "grid": {"k_lo": -4, "k_hi": 4},
        "m": m,
        "seed": 5,
        "n_list": [0, 1],
    })


def test_positivity_is_decided_on_the_log_modulus():
    # |g| underflows to 0.0 on the largest spheres of the grid, but the
    # transform exp(phi) has no zero: only a certified zero may fail
    scenario = _stable_p3_scenario()
    assert min(abs(scenario.target(t)) for t in scenario.grid) == 0.0
    rep = convergence_report(scenario)
    assert rep.verdicts["positivity"] is True
    exponent = scenario.target.exponent
    least = min(exponent(t).real for t in scenario.grid)
    assert rep.min_log_abs_target == least
    assert least < -1000
    assert rep.json_summary()["min_log_abs_target"] == least


@pytest.mark.parametrize("a", [1.0, 1e300])
def test_a_stable_value_beyond_the_float_range_underflows_to_zero(a):
    # p**(alpha * k) past the float range raised OverflowError, and a
    # product with a past it gave log |g| = -inf; the value is a tiny
    # positive number that underflows, so log |g| stays finite: -inf is a
    # certified zero
    stable = StableLaw(StableParams(a, 30.0, 2))
    t = from_rational(Fraction(1, 2**40), p=2)
    assert stable.radial_value(40) == 0.0
    assert stable(t) == 0.0
    assert stable.sphere(2, -40, (1, 3), 8, 5) == [0j, 0j]
    for k in (1, 30, 40):
        assert -math.inf < stable.log_modulus(from_rational(Fraction(1, 2**k), p=2)) < 0
    assert stable.log_modulus(t) < -1e300


def test_log_modulus_of_each_transform():
    t_big = from_rational(Fraction(1, 3**4), p=3)
    stable = StableLaw(StableParams(2.0, 1.5, 3))
    assert stable.log_modulus(t_big) == -2.0 * 3.0 ** 6.0
    assert stable(t_big) == 0.0  # the value itself underflows
    t = from_rational(Fraction(1, 3), p=3)
    assert math.exp(stable.log_modulus(t)) == stable(t).real
    assert stable.log_modulus(PAdicNumber.zero(3)) == 0.0
    jump = JumpMeasure(make_example_measure(2, 1.5, 3))
    assert jump.log_modulus(t_big) == jump.exponent(t_big).real
    haar = HaarUniform(Ball(3, Fraction(1, 3), -2))
    assert haar.log_modulus(t) == 0.0
    assert haar.log_modulus(t_big) == -math.inf  # a certified zero
    assert PointMass(from_rational(Fraction(1, 3), p=3)).log_modulus(t_big) == 0.0
    with pytest.raises(PrimeMismatchError):
        stable.log_modulus(from_rational(1, p=2))
    with pytest.raises(PrimeMismatchError):
        jump.log_modulus(from_rational(1, p=2))


def test_a_scheme_over_another_prime_is_refused():
    # a 3-adic scheme normalises nothing of a 2-adic law: f_n, the
    # rescaled measure and the simulated sums each refuse the pair, where
    # they would read the law's values at the scheme's scales
    law = StableLaw(StableParams(1.0, 1.0, 2))
    scheme = LimitScheme.geometric(3, "1/3", 3, 5)
    message = "^scheme over p=3 used with a law over p=2$"
    with pytest.raises(PrimeMismatchError, match=message):
        theoretical_fn(law, scheme, 3, from_rational(1, p=2))
    with pytest.raises(PrimeMismatchError, match=message):
        SumTransform(law, scheme, 3)
    with pytest.raises(PrimeMismatchError, match=message):
        phi_n_measure(law, scheme, 3, TailSet(2, 0))
    # so does a tail set over another prime than the law's, as a ball does
    two = LimitScheme.geometric(2, "1/2", 2, 5)
    for m in (TailSet(3, 0), Ball(3, 0, 0), annulus(0, 2, 3)):
        with pytest.raises(PrimeMismatchError, match="^ball and transform over different primes$"):
            phi_n_measure(law, two, 3, m)
    sampler = HaarBallSampler(Ball(2, 0, 0), -8)
    for simulate in (simulate_sums, sum_residues):
        with pytest.raises(PrimeMismatchError, match=message):
            simulate(sampler, scheme, 2, 3, substream(1, 0))
