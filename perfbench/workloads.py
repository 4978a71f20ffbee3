"""The benchmark's three workloads, driven through padicprob's public API.

Each workload has three steps:

* ``setup(root, seed, workdir)`` builds the inputs every pass reuses
  (spec files, measures, grids, sets, samplers);
* ``run(state)`` is one timed pass;
* ``evaluate(state, result, corrupt)`` turns a pass result into the bytes
  that must repeat exactly and a dict of named checks.  ``corrupt``
  damages one output first (the negative control), so a check that can
  never fail shows up as a benchmark that still reports success.

Inputs come only from the seed.  Sizes are fixed here so that every seed
costs about the same; a pass must fit about ten times into one run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from padicprob import charfn, cli, levy, limits, padic, selftest, sets, specs

# Replicates per n in limit_mc (the shipped config has 4000, about 18 s a
# pass on 2 vCPUs; 256 keeps a pass near 1.1 s).
LIMIT_M = 256
LIMIT_VERDICTS = (
    "ball_frequencies",
    "mc_within_bands",
    "phi_trajectory",
    "positivity",
    "scaling_identity",
    "sup_exact",
)

# Compound-Poisson draws per pass (criterion c7 uses 100 000).
CP_DRAWS = 4000
CP_BALLS = 10

# exact_theory sizes.  Inversion cost depends strongly on a measure's
# beta and ball depth (0.01 s to 1.6 s per random measure), so inversion
# runs on the custom measure and on seed-drawn measures of its shape,
# while the cheap stages run on random_self_similar_measure draws.
THEORY_SHAPED = 4
THEORY_RANDOM = 8
THEORY_SETS = 6
INVERT_REGIONS = ((0, 2), (-1, 1), (1, 3), (-2, 0), (0, None))
INVERT_TOL = 1e-12
INVERT_CHECK = 1e-10


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=str).encode()


class LimitVerify:
    """``padicprob limit-verify`` on configs/stable_limit.json, serial, as
    a user runs it, with the seed written into the config and passed as
    --seed."""

    name = "limit_mc"
    checks = ("exit_code_0",) + tuple("verdict." + v for v in LIMIT_VERDICTS)

    def setup(self, root: Path, seed: int, workdir: Path) -> dict:
        config = json.loads((root / "configs" / "stable_limit.json").read_text())
        config["seed"] = seed
        config["m"] = LIMIT_M
        path = workdir / "stable_limit.json"
        path.write_text(json.dumps(config, indent=2))
        return {
            "seed": seed,
            "config": path,
            "out": workdir / "out",
            "base": config["name"].replace(" ", "_"),
        }

    def run(self, state: dict) -> int:
        argv = [
            "limit-verify",
            "--config", str(state["config"]),
            "--seed", str(state["seed"]),
            "--out", str(state["out"]),
            "--workers", "1",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def evaluate(self, state: dict, rc: int, corrupt: bool):
        if rc != 0:
            return None, dict.fromkeys(self.checks, False)
        out, base = state["out"], state["base"]
        csv_bytes = (out / f"{base}.csv").read_bytes()
        json_bytes = (out / f"{base}.json").read_bytes()
        verdicts = json.loads(json_bytes)["verdicts"]
        if corrupt:
            verdicts["ball_frequencies"] = False
        checks = {"exit_code_0": True}
        for v in LIMIT_VERDICTS:
            checks["verdict." + v] = verdicts.get(v) is True
        return csv_bytes + json_bytes, checks


class CpFidelity:
    """Criterion c7's shape: compound-Poisson draws binned into balls and
    compared with exact ball probabilities of the stable limit law."""

    name = "cp_fidelity"
    checks = ("unit_ball_reference",) + tuple(
        f"ball.{i}" for i in range(CP_BALLS)
    )

    def setup(self, root: Path, seed: int, workdir: Path) -> dict:
        p, resolution = 2, -4
        measure = levy.make_example_measure(1, 1, p)
        balls = [
            b for b in limits.default_ball_family(p, 12)
            if b.radius_exp >= resolution
        ][:CP_BALLS]
        return {
            "seed": seed,
            "sampler": charfn.CompoundPoissonSampler(measure, resolution=resolution),
            "law": charfn.RadialCharFn.stable(charfn.StableParams(1.0, 1.0, p)),
            "balls": balls,
            "unit_ball": sets.Ball(p, 0, 0),
        }

    def run(self, state: dict) -> dict:
        sampler = state["sampler"]
        # the sampler memoises powers of gamma0; a pass starts cold
        sampler._gpow.clear()
        draws = sampler.sample(charfn.substream(state["seed"], 7), CP_DRAWS)
        law = state["law"]
        return {
            "counts": [
                sum(1 for x in draws if b.contains(x)) for b in state["balls"]
            ],
            "q": [
                charfn.ball_probability(law, b, tol=1e-12).value
                for b in state["balls"]
            ],
            "reference": charfn.ball_probability(
                law, state["unit_ball"], tol=1e-12
            ).value,
        }

    def evaluate(self, state: dict, result: dict, corrupt: bool):
        checks = {
            "unit_ball_reference": abs(
                result["reference"] - selftest.STABLE_UNIT_BALL_REFERENCE
            ) <= 1e-10
        }
        for i, (cnt, q) in enumerate(zip(result["counts"], result["q"])):
            band = 4.0 * math.sqrt(max(q * (1.0 - q), 1e-12) / CP_DRAWS)
            if corrupt and i == 0:
                band = 0.0
            checks[f"ball.{i}"] = abs(cnt / CP_DRAWS - q) <= band
        return _json_bytes({k: repr(v) for k, v in result.items()}), checks


def _shaped_measure(rng, like: levy.SelfSimilarLevyMeasure):
    """A measure with ``like``'s prime, beta and gamma0 and two seed-drawn
    weighted balls of depth 2 in each fundamental sphere.  The ball count
    is fixed because inversion cost grows with it."""
    p = like.prime
    fundamental = []
    for r in range(like.j):
        pool = sets.split_sphere(r, 2, p)
        picks = sorted(rng.choice(len(pool), size=2, replace=False).tolist())
        fundamental.append(tuple(
            (pool[i], Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            for i in picks
        ))
    return levy.make_measure(p, like.beta, like.gamma0, tuple(fundamental))


class ExactTheory:
    """Exact exponent, inversion, scaling and classification work with no
    Monte Carlo, on configs/custom_measure.json and seed-drawn measures."""

    name = "exact_theory"

    def __init__(self):
        n_invert = 1 + THEORY_SHAPED
        n_all = n_invert + THEORY_RANDOM
        self.checks = (
            tuple(f"c4.{i}" for i in range(n_all))
            + tuple(f"scaling.{i}" for i in range(n_all))
            + tuple(f"integrate.{i}" for i in range(n_all))
            + tuple(f"c5.{i}" for i in range(n_invert))
            + ("c9.delta", "c9.haar_cutoff", "stable_theory.verdicts")
        )

    def setup(self, root: Path, seed: int, workdir: Path) -> dict:
        custom = specs.measure_from_spec(
            json.loads((root / "configs" / "custom_measure.json").read_text())
        )
        rng = charfn.substream(seed, 1)
        invert = [custom] + [_shaped_measure(rng, custom) for _ in range(THEORY_SHAPED)]
        measures = invert + [
            levy.random_self_similar_measure(rng) for _ in range(THEORY_RANDOM)
        ]
        config = json.loads((root / "configs" / "stable_limit.json").read_text())
        config["seed"] = seed
        config["m"] = 0
        return {
            "seed": seed,
            "measures": measures,
            "n_invert": len(invert),
            "grids": {
                p: padic.grid_points(p, -3, 3, unit_digit_sets=((1,), (1, 1)))
                for p in {m.prime for m in measures}
            },
            "sets": [
                [levy.random_compact_open(rng, m.prime) for _ in range(THEORY_SETS)]
                for m in measures
            ],
            "degenerate": [
                limits.PRESETS[name](m=0)
                for name in ("beta_one", "bounded_normalizers")
            ],
            "stable": specs.scenario_from_spec(config),
        }

    def run(self, state: dict) -> dict:
        seed = state["seed"]
        identity, scaling, integrate, inversion = [], [], [], []
        for idx, m in enumerate(state["measures"]):
            phi = levy.LevyExponent(m)
            grid = state["grids"][m.prime]
            identity.append([
                (phi.exact(t.mul_rational(m.gamma0)), phi.exact(t).scale(m.beta))
                for t in grid
            ])
            scaling.append(levy.validate_scaling(m, trials=20, seed=seed + idx))
            abs_gamma = Fraction(m.prime) ** -padic.rational_valuation(
                m.gamma0, m.prime
            )
            integrate.append([
                (
                    sets.integrate_char_exact(s.scale(m.gamma0), t),
                    sets.integrate_char_exact(
                        s, t.mul_rational(m.gamma0)
                    ).scale(abs_gamma),
                )
                for s in state["sets"][idx]
                for t in grid
            ])
            if idx < state["n_invert"]:
                rows = []
                for i, l in INVERT_REGIONS:
                    region = (
                        sets.TailSet(m.prime, i) if l is None
                        else sets.annulus(i, l, m.prime)
                    )
                    exact = float(levy.measure_mass(m, region))
                    got = levy.invert_exponent(phi, i, l, m.prime, tol=INVERT_TOL)
                    rows.append((got, exact))
                inversion.append(rows)
        degenerate = [
            limits.convergence_report(sc).degenerate for sc in state["degenerate"]
        ]
        stable = limits.convergence_report(state["stable"])
        return {
            "identity": identity,
            "scaling": scaling,
            "integrate": integrate,
            "inversion": inversion,
            "degenerate": degenerate,
            "stable": stable,
        }

    def evaluate(self, state: dict, result: dict, corrupt: bool):
        identity = result["identity"]
        if corrupt:
            lhs, rhs = identity[0][0]
            identity[0][0] = (lhs, rhs + padic.CharacterSum.constant(
                rhs.prime, Fraction(1, 2**60)
            ))
        checks = {}
        for i, pairs in enumerate(identity):
            checks[f"c4.{i}"] = all(a == b for a, b in pairs)
        for i, rep in enumerate(result["scaling"]):
            checks[f"scaling.{i}"] = rep.passed
        for i, pairs in enumerate(result["integrate"]):
            checks[f"integrate.{i}"] = all(a == b for a, b in pairs)
        for i, rows in enumerate(result["inversion"]):
            checks[f"c5.{i}"] = all(
                abs(got - exact) / max(abs(exact), 1e-30) <= INVERT_CHECK
                for got, exact in rows
            )
        beta_one, bounded = result["degenerate"]
        checks["c9.delta"] = beta_one == "delta"
        checks["c9.haar_cutoff"] = bounded == "haar_cutoff"
        stable = result["stable"]
        checks["stable_theory.verdicts"] = bool(stable.verdicts) and stable.passed
        out = {
            "identity": [[repr(a) for a, _ in pairs] for pairs in identity],
            "scaling": [list(rep.failures) for rep in result["scaling"]],
            "integrate": [[repr(a) for a, _ in pairs] for pairs in result["integrate"]],
            "inversion": [[repr(got) for got, _ in rows] for rows in result["inversion"]],
            "degenerate": result["degenerate"],
            "stable": {"rows": stable.csv_rows(), "summary": stable.json_summary()},
        }
        return _json_bytes(out), checks


WORKLOADS = {wl.name: wl for wl in (LimitVerify(), CpFidelity(), ExactTheory())}
