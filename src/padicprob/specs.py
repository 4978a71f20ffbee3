"""JSON configuration schemas and parsers for measures, samplers,
schemes, and scenarios, plus the textual set literals used on the
command line.

All configs are schema-validated before execution and unknown keys are
rejected; rationals may be written as strings ("2/3") to stay exact
through JSON.
"""

from __future__ import annotations

import re
from fractions import Fraction

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .charfn import (
    CompoundPoissonSampler,
    HaarBallSampler,
    PointMassSampler,
    RadialCharFn,
    Sampler,
    StableParams,
    stable_sampler,
)
from .levy import SelfSimilarLevyMeasure, make_example_measure
from .limits import LimitScheme, Scenario, default_ball_family
from .padic import PAdicNumber, grid_points, parse_number, rational_valuation
from .sets import Ball, TailSet, annulus, sphere


class SpecValidationError(ValueError):
    """A configuration document failed schema or semantic validation."""


def parse_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecValidationError(f"bad rational literal {value!r}") from exc
    raise SpecValidationError(f"cannot read a rational from {value!r}")


_BALL_RE = re.compile(r"^\s*ball\(\s*([^,]+?)\s*,\s*(-?\d+)\s*\)\s*$")
_SPHERE_RE = re.compile(r"^\s*sphere\(\s*(-?\d+)\s*\)\s*$")
_ANNULUS_RE = re.compile(
    r"^\s*annulus\(\s*(-?\d+)\s*,\s*(-?\d+|inf)\s*\)\s*$"
)


def parse_set_literal(text: str, p: int):
    """ball(<center>,<radius_exp>), sphere(<N>), annulus(<i>,<l|inf>)."""
    m = _BALL_RE.match(text)
    if m:
        return Ball(p, parse_rational(m.group(1)), int(m.group(2)))
    m = _SPHERE_RE.match(text)
    if m:
        return sphere(int(m.group(1)), p)
    m = _ANNULUS_RE.match(text)
    if m:
        i = int(m.group(1))
        if m.group(2) == "inf":
            return TailSet(p, i)
        return annulus(i, int(m.group(2)), p)
    raise SpecValidationError(f"cannot parse set literal {text!r}")


# ---------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------

_RAT = {"type": ["number", "string"]}

STABLE_SHORTHAND_SCHEMA = {
    "type": "object",
    "properties": {
        "stable": {
            "type": "object",
            "properties": {
                "a": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0},
                "p": {"type": "integer", "minimum": 2},
            },
            "required": ["a", "alpha", "p"],
            "additionalProperties": False,
        }
    },
    "required": ["stable"],
    "additionalProperties": False,
}

MEASURE_SCHEMA = {
    "oneOf": [
        STABLE_SHORTHAND_SCHEMA,
        {
            "type": "object",
            "properties": {
                "p": {"type": "integer", "minimum": 2},
                "beta": _RAT,
                "gamma0": {"type": "string"},
                "fundamental": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "sphere": {"type": "integer", "minimum": 0},
                            "balls": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "properties": {
                                        "center": _RAT,
                                        "radius_exp": {"type": "integer"},
                                        "weight": _RAT,
                                    },
                                    "required": [
                                        "center",
                                        "radius_exp",
                                        "weight",
                                    ],
                                    "additionalProperties": False,
                                },
                            },
                        },
                        "required": ["sphere", "balls"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["p", "beta", "gamma0", "fundamental"],
            "additionalProperties": False,
        },
    ]
}

SAMPLER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {
            "enum": [
                "point_mass",
                "haar_ball",
                "radial_stable",
                "compound_poisson",
            ]
        },
        "p": {"type": "integer", "minimum": 2},
        "xi": {"type": "string"},
        "center": _RAT,
        "radius_exp": {"type": "integer"},
        "a": {"type": "number"},
        "alpha": {"type": "number"},
        "measure": MEASURE_SCHEMA,
        "resolution": {"type": "integer"},
        "n_lo": {"type": "integer"},
        "n_hi": {"type": "integer"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SCHEME_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["geometric", "explicit"]},
        "p": {"type": "integer", "minimum": 2},
        "beta": _RAT,
        "gamma0": {"type": "string"},
        "n_max": {"type": "integer", "minimum": 0},
        "b_list": {"type": "array", "items": _RAT},
        "k_list": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["mode", "p"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "kind": {"enum": ["generic", "stable_limit", "beta_one", "bounded_normalizers", "demo"]},
        "law": SAMPLER_SCHEMA,
        "scheme": SCHEME_SCHEMA,
        "target": {"oneOf": [MEASURE_SCHEMA, {"type": "null"}]},
        "grid": {
            "type": "object",
            "properties": {
                "k_lo": {"type": "integer"},
                "k_hi": {"type": "integer"},
            },
            "required": ["k_lo", "k_hi"],
            "additionalProperties": False,
        },
        "balls": {"type": "array", "items": {"type": "string"}},
        "sets": {"type": "array", "items": {"type": "string"}},
        "m": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "n_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
    "required": ["name", "law", "scheme", "m", "seed", "n_list"],
    "additionalProperties": False,
}


# one validator per schema, built once and without checking the schema
# itself on every call, as jsonschema.validate does (tests/test_specs.py
# checks the schemas)
MEASURE_VALIDATOR = validator_for(MEASURE_SCHEMA)(MEASURE_SCHEMA)
SAMPLER_VALIDATOR = validator_for(SAMPLER_SCHEMA)(SAMPLER_SCHEMA)
SCHEME_VALIDATOR = validator_for(SCHEME_SCHEMA)(SCHEME_SCHEMA)
SCENARIO_VALIDATOR = validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def validate(obj, validator, what: str = "config") -> None:
    """Raise SpecValidationError with the message jsonschema.validate
    would report: that of the best-matching error."""
    error = best_match(validator.iter_errors(obj))
    if error is not None:
        raise SpecValidationError(f"invalid {what}: {error.message}")


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


def measure_from_spec(obj) -> SelfSimilarLevyMeasure:
    validate(obj, MEASURE_VALIDATOR, "measure spec")
    if "stable" in obj:
        s = obj["stable"]
        return make_example_measure(s["a"], s["alpha"], s["p"])
    p = obj["p"]
    gamma0 = parse_rational(obj["gamma0"])
    j = rational_valuation(gamma0, p)
    fundamental_map: dict[int, list] = {}
    for entry in obj["fundamental"]:
        r = entry["sphere"]
        if 1 <= j <= r:  # j < 1 is the measure's own error
            raise SpecValidationError(
                f"fundamental sphere {r} does not exist: gamma0 = {gamma0} "
                f"has |gamma0| = p**-{j}, so the spheres are 0..{j - 1}"
            )
        balls = [
            (
                Ball(p, parse_rational(b["center"]), b["radius_exp"]),
                parse_rational(b["weight"]),
            )
            for b in entry["balls"]
        ]
        fundamental_map.setdefault(r, []).extend(balls)
    fundamental = tuple(
        tuple(fundamental_map.get(r, ())) for r in range(j)
    )
    beta = parse_rational(obj["beta"]) if isinstance(obj["beta"], str) else obj["beta"]
    return SelfSimilarLevyMeasure(p, beta, gamma0, fundamental)


def measure_to_spec(m: SelfSimilarLevyMeasure) -> dict:
    return {
        "p": m.prime,
        "beta": str(m.beta) if isinstance(m.beta, Fraction) else m.beta,
        "gamma0": str(m.gamma0),
        "fundamental": [
            {
                "sphere": r,
                "balls": [
                    {
                        "center": str(b.center),
                        "radius_exp": b.radius_exp,
                        "weight": str(w) if isinstance(w, Fraction) else w,
                    }
                    for b, w in entries
                ],
            }
            for r, entries in enumerate(m.fundamental)
        ],
    }


def sampler_from_spec(obj) -> Sampler:
    validate(obj, SAMPLER_VALIDATOR, "sampler spec")
    kind = obj["kind"]
    if kind == "point_mass":
        if "xi" not in obj:
            raise SpecValidationError("point_mass needs xi")
        return PointMassSampler(xi=parse_number(obj["xi"]))
    if kind == "haar_ball":
        for key in ("p", "center", "radius_exp"):
            if key not in obj:
                raise SpecValidationError(f"haar_ball needs {key}")
        return HaarBallSampler(
            ball=Ball(obj["p"], parse_rational(obj["center"]), obj["radius_exp"]),
            resolution=obj.get("resolution", -12),
        )
    if kind == "radial_stable":
        for key in ("p", "a", "alpha"):
            if key not in obj:
                raise SpecValidationError(f"radial_stable needs {key}")
        return stable_sampler(
            StableParams(obj["a"], obj["alpha"], obj["p"]),
            resolution=obj.get("resolution", -12),
            n_lo=obj.get("n_lo", -40),
            n_hi=obj.get("n_hi", 40),
        )
    if kind == "compound_poisson":
        if "measure" not in obj:
            raise SpecValidationError("compound_poisson needs measure")
        return CompoundPoissonSampler(
            measure=measure_from_spec(obj["measure"]),
            resolution=obj.get("resolution", -6),
        )
    raise SpecValidationError(f"unknown sampler kind {kind!r}")


def law_source_from_spec(obj, sampler: Sampler):
    """Exact transform of the sampler's law, for theoretical curves."""
    kind = obj["kind"]
    if kind == "point_mass":
        xi = sampler.xi  # type: ignore[attr-defined]
        return lambda t: (t * xi).character_phase().to_complex()
    if kind == "haar_ball":
        ball = sampler.ball  # type: ignore[attr-defined]

        def ball_cf(t: PAdicNumber) -> complex:
            if not t.abs_le_exp(-ball.radius_exp):
                return complex(0.0, 0.0)
            if ball.center == 0:
                return complex(1.0, 0.0)
            return t.mul_rational(ball.center).character_phase().to_complex()

        return ball_cf
    if kind == "radial_stable":
        return RadialCharFn.stable(StableParams(obj["a"], obj["alpha"], obj["p"]))
    if kind == "compound_poisson":
        return sampler.measure  # type: ignore[attr-defined]
    return None


def scheme_from_spec(obj) -> LimitScheme:
    validate(obj, SCHEME_VALIDATOR, "scheme spec")
    if obj["mode"] == "geometric":
        for key in ("beta", "gamma0"):
            if key not in obj:
                raise SpecValidationError(f"geometric scheme needs {key}")
        beta = obj["beta"]
        beta_val = parse_rational(beta) if isinstance(beta, str) else beta
        return LimitScheme.geometric(
            obj["p"],
            beta_val,
            parse_rational(obj["gamma0"]),
            n_max=obj.get("n_max", 10),
        )
    for key in ("b_list", "k_list"):
        if key not in obj:
            raise SpecValidationError(f"explicit scheme needs {key}")
    return LimitScheme.explicit(
        obj["p"],
        [parse_rational(b) for b in obj["b_list"]],
        obj["k_list"],
    )


def scenario_from_spec(obj) -> Scenario:
    validate(obj, SCENARIO_VALIDATOR, "scenario spec")
    law = sampler_from_spec(obj["law"])
    scheme = scheme_from_spec(obj["scheme"])
    p = scheme.prime
    if law.prime != p:
        raise SpecValidationError("law and scheme primes differ")
    grid_cfg = obj.get("grid", {"k_lo": -6, "k_hi": 6})
    grid = tuple(grid_points(p, grid_cfg["k_lo"], grid_cfg["k_hi"]))
    if "balls" in obj:
        balls = []
        for lit in obj["balls"]:
            b = parse_set_literal(lit, p)
            if not isinstance(b, Ball):
                raise SpecValidationError("ball family entries must be balls")
            balls.append(b)
        balls = tuple(balls)
    else:
        balls = tuple(default_ball_family(p, 10))
    sets = tuple(
        parse_set_literal(lit, p) for lit in obj.get("sets", ["annulus(0,inf)"])
    )
    target_measure = None
    target_stable = None
    if obj.get("target") is not None:
        target_measure = measure_from_spec(obj["target"])
        if "stable" in obj["target"]:
            s = obj["target"]["stable"]
            target_stable = StableParams(s["a"], s["alpha"], s["p"])
    max_n = max(obj["n_list"])
    if scheme.mode == "explicit" and max_n > scheme.n_max:
        raise SpecValidationError("n_list exceeds explicit scheme length")
    return Scenario(
        name=obj["name"],
        prime=p,
        law=law,
        scheme=scheme,
        grid=grid,
        balls=balls,
        sets=sets,
        m=obj["m"],
        seed=obj["seed"],
        n_list=tuple(sorted(obj["n_list"])),
        law_source=law_source_from_spec(obj["law"], law),
        target_measure=target_measure,
        target_stable=target_stable,
        kind=obj.get("kind", "generic"),
        tolerances=dict(obj.get("tolerances", {})),
        law_spec=dict(obj["law"]),
    )
