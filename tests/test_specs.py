import json
from fractions import Fraction
from pathlib import Path

import jsonschema

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.cli import main
from padicprob.sets import split_sphere
from padicprob import specs
from padicprob.specs import SpecValidationError, measure_from_spec, measure_to_spec

STABLE_CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "stable_limit.json").read_text()
)


def _spec_with_sphere(r: int) -> dict:
    # p = 3, gamma0 = 9: j = 2, so only spheres 0 and 1 exist
    return {
        "p": 3,
        "beta": "1/4",
        "gamma0": "9",
        "fundamental": [
            {"sphere": 0, "balls": [{"center": "1", "radius_exp": -1, "weight": "2/3"}]},
            {"sphere": r, "balls": [{"center": "1/3", "radius_exp": 0, "weight": "1/5"}]},
        ],
    }


@pytest.mark.parametrize("r", [2, 5])
def test_measure_spec_rejects_sphere_beyond_j(r):
    with pytest.raises(SpecValidationError, match=f"sphere {r}"):
        measure_from_spec(_spec_with_sphere(r))


def test_measure_spec_sphere_beyond_j_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_spec_with_sphere(5)))
    code = main(["cf-eval", "--measure", str(path), "--t", "1/1 @ p=3"])
    assert code == 2
    assert "sphere 5" in capsys.readouterr().err


@st.composite
def measure_specs(draw):
    """Canonical measure specs: every sphere 0..j-1 listed once, in order,
    with disjoint canonical balls and rational weights written as strings."""
    p = draw(st.sampled_from([2, 3, 5]))
    j = draw(st.integers(1, 3))
    unit = draw(st.sampled_from([u for u in (1, -1, 2, 7, -11) if u % p]))
    den = draw(st.sampled_from([d for d in (1, 3, 4, 5) if d % p]))
    fundamental = []
    for r in range(j):
        pool = split_sphere(r, draw(st.integers(1, 2)), p)
        picks = draw(st.lists(st.sampled_from(range(len(pool))), unique=True, max_size=3))
        fundamental.append({
            "sphere": r,
            "balls": [
                {
                    "center": str(pool[i].center),
                    "radius_exp": pool[i].radius_exp,
                    "weight": str(Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 9)))),
                }
                for i in picks
            ],
        })
    beta = draw(st.one_of(
        st.fractions(Fraction(1, 100), Fraction(99, 100)).map(str),
        st.floats(0.01, 0.99),
    ))
    return {
        "p": p,
        "beta": beta,
        "gamma0": str(Fraction(p**j * unit, den)),
        "fundamental": fundamental,
    }


@settings(max_examples=200, deadline=None)
@given(measure_specs())
def test_measure_spec_round_trip(spec):
    assert measure_to_spec(measure_from_spec(spec)) == spec


@pytest.mark.parametrize(
    "schema",
    [
        specs.MEASURE_SCHEMA,
        specs.SAMPLER_SCHEMA,
        specs.SCHEME_SCHEMA,
        specs.SCENARIO_SCHEMA,
    ],
)
def test_schemas_are_valid(schema):
    jsonschema.validators.validator_for(schema).check_schema(schema)


INVALID_SPECS = [
    (
        measure_from_spec,
        {"stable": {"a": 1, "alpha": 1, "p": 2}, "extra": 1},
        "invalid measure spec: {'stable': {'a': 1, 'alpha': 1, 'p': 2}, "
        "'extra': 1} is not valid under any of the given schemas",
    ),
    (
        measure_from_spec,
        {"p": 3, "beta": "1/4", "gamma0": 9, "fundamental": []},
        "invalid measure spec: 9 is not of type 'string'",
    ),
    (
        specs.sampler_from_spec,
        {"kind": "nope"},
        "invalid sampler spec: 'nope' is not one of ['point_mass', "
        "'haar_ball', 'radial_stable', 'compound_poisson']",
    ),
    (
        specs.sampler_from_spec,
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": "x"},
        "invalid sampler spec: 'x' is not of type 'integer'",
    ),
    (
        specs.scheme_from_spec,
        {"mode": "geometric"},
        "invalid scheme spec: 'p' is a required property",
    ),
    (
        specs.scenario_from_spec,
        {"name": "x"},
        "invalid scenario spec: 'law' is a required property",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, m=-1),
        "invalid scenario spec: -1 is less than the minimum of 0",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, extra=True),
        "invalid scenario spec: Additional properties are not allowed "
        "('extra' was unexpected)",
    ),
]


@pytest.mark.parametrize("build, obj, text", INVALID_SPECS)
def test_spec_validation_error_text(build, obj, text):
    with pytest.raises(SpecValidationError) as info:
        build(obj)
    assert str(info.value) == text
