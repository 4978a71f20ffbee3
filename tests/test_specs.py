import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.cli import main
from padicprob.sets import split_sphere
from padicprob.specs import SpecValidationError, measure_from_spec, measure_to_spec


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
