import copy
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import jsonschema

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.charfn import HaarUniform, PointMass
from padicprob.cli import main
from padicprob.padic import parse_number
from padicprob.sets import Ball, split_sphere
from padicprob import limits, specs
from padicprob.specs import SpecValidationError, measure_from_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STABLE_CONFIG = json.loads((CONFIGS / "stable_limit.json").read_text())
CUSTOM_MEASURE = json.loads((CONFIGS / "custom_measure.json").read_text())


def test_the_stable_limit_config_is_the_preset_document():
    # the benchmark reads the config and --preset stable_limit the preset:
    # two copies of one document, which must not drift apart
    shipped = json.loads((CONFIGS / "stable_limit.json").read_text())
    assert shipped == limits.preset_spec("stable_limit")


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


def sampler_from_spec(obj):
    """The sampler of a law spec, as ``padicprob sample`` builds it."""
    return specs.law_from_spec(obj).sampler


def scheme_from_spec(obj):
    """The scheme of the stable-limit scenario run with scheme ``obj``."""
    return specs.scenario_from_spec(dict(STABLE_CONFIG, scheme=obj)).scheme


SCHEMAS = [specs.MEASURE_SCHEMA, specs.SAMPLER_SCHEMA, specs.SCHEME_SCHEMA, specs.SCENARIO_SCHEMA]


@pytest.mark.parametrize("schema", SCHEMAS)
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
        sampler_from_spec,
        {"kind": "nope"},
        "invalid sampler spec: 'nope' is not one of ['point_mass', "
        "'haar_ball', 'radial_stable', 'compound_poisson']",
    ),
    (
        sampler_from_spec,
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": "x"},
        "invalid sampler spec: 'x' is not of type 'integer'",
    ),
    (
        scheme_from_spec,
        {"mode": "geometric"},
        "invalid scenario spec: 'p' is a required property",
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
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, n_list=[]),
        "invalid scenario spec: [] should be non-empty",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"stable": {"a": 0, "alpha": 1, "p": 2}}),
        "invalid scenario spec: 0 is less than or equal to the minimum of 0",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"p": 3, "beta": "1/4", "gamma0": "9", "fundamental": [
            {"sphere": 0, "balls": [{"center": 1, "radius_exp": 0}]},
        ]}),
        "invalid scenario spec: 'weight' is a required property",
    ),
    (
        # numpy's seed streams take no negative seed; at m > 0 one used to
        # fail only after the theory rows, and at m = 0 not at all
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, seed=-3),
        "invalid scenario spec: -3 is less than the minimum of 0",
    ),
]


@pytest.mark.parametrize("build, obj, text", INVALID_SPECS)
def test_spec_validation_error_text(build, obj, text):
    with pytest.raises(SpecValidationError) as info:
        build(obj)
    assert str(info.value) == text


# Keys a kind never reads, tolerance names no verdict reads, and scenario
# fields that only fail (or silently misbehave) at run time are all
# rejected when the spec is read.
REJECTED_SPECS = [
    (
        sampler_from_spec,
        {"kind": "point_mass", "xi": "1/3 @ p=3", "resolution": -4, "a": 2},
        "point_mass does not read a, resolution",
    ),
    (
        sampler_from_spec,
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": 0,
         "n_lo": -3, "alpha": 1},
        "haar_ball does not read alpha, n_lo",
    ),
    (
        sampler_from_spec,
        {"kind": "radial_stable", "p": 2, "a": 1, "alpha": 1, "center": "1/2"},
        "radial_stable does not read center",
    ),
    (
        sampler_from_spec,
        {"kind": "compound_poisson", "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}},
         "p": 2},
        "compound_poisson does not read p",
    ),
    (
        scheme_from_spec,
        {"mode": "geometric", "p": 2, "beta": "1/2", "gamma0": "2",
         "b_list": [1, "1/2"], "k_list": [1, 2]},
        "geometric scheme does not read b_list, k_list",
    ),
    (
        scheme_from_spec,
        {"mode": "explicit", "p": 2, "b_list": [1, "1/2"], "k_list": [1, 2],
         "beta": "1/2", "n_max": 9},
        "explicit scheme does not read beta, n_max",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, tolerances={"phi_finall": 1e9}),
        "invalid scenario spec: Additional properties are not allowed "
        "('phi_finall' was unexpected)",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, grid={"k_lo": 3, "k_hi": -3}),
        "grid is empty: k_lo exceeds k_hi",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, n_list=[0, 0, 2]),
        "n_list repeats n = 0",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"stable": {"a": 1, "alpha": 1, "p": 3}}),
        "target and scheme primes differ",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"kind": "point_mass", "xi": "0 @ p=3"}),
        "target and scheme primes differ",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"kind": "point_mass", "xi": "0 @ p=2", "p": 2}),
        "point_mass target does not read p",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"kind": "haar_ball", "center": "0", "radius_exp": 0}),
        "haar_ball target needs p",
    ),
    # a target is a transform, drawn from by no run: no resolution, and
    # no kind whose law is not two-valued
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"kind": "haar_ball", "p": 2, "center": "0",
                                    "radius_exp": 0, "resolution": -12}),
        "invalid scenario spec: {'kind': 'haar_ball', 'p': 2, 'center': '0', "
        "'radius_exp': 0, 'resolution': -12} is not valid under any of the given schemas",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, target={"kind": "radial_stable", "a": 1, "alpha": 1, "p": 2}),
        "invalid scenario spec: 'radial_stable' is not one of ['point_mass', 'haar_ball']",
    ),
    # an n beyond the scheme's last would run unchecked: a geometric
    # scheme checks k(n) = floor(beta**-n) only up to its n_max
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, m=16, n_list=[0, 3, 6], scheme={
            "mode": "geometric", "p": 2, "beta": 0.9, "gamma0": "2", "n_max": 0}),
        "n_list exceeds geometric scheme length",
    ),
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, n_list=[0, 2], scheme={
            "mode": "explicit", "p": 2, "b_list": [1, "1/2"], "k_list": [1, 2]}),
        "n_list exceeds explicit scheme length",
    ),
    # a scenario's verdicts follow its target: the label that once chose
    # them is refused, so a document written for it fails loudly
    (
        specs.scenario_from_spec,
        dict(STABLE_CONFIG, kind="stable_limit"),
        "invalid scenario spec: Additional properties are not allowed "
        "('kind' was unexpected)",
    ),
]


@pytest.mark.parametrize("build, obj, text", REJECTED_SPECS)
def test_spec_rejects_what_no_run_reads(build, obj, text):
    with pytest.raises(SpecValidationError) as info:
        build(obj)
    assert str(info.value) == text


@pytest.mark.parametrize("field, value, text", [
    ("law", dict(STABLE_CONFIG["law"], center=0), "radial_stable does not read center"),
    ("scheme", dict(STABLE_CONFIG["scheme"], k_list=[1]), "geometric scheme does not read k_list"),
    ("n_list", [2, 2], "n_list repeats n = 2"),
    ("kind", "stable_limit", "Additional properties are not allowed ('kind' was unexpected)"),
])
def test_limit_verify_rejects_unread_input_with_exit_2(tmp_path, capsys, field, value, text):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(STABLE_CONFIG, m=0, **{field: value})))
    assert main(["limit-verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert text in capsys.readouterr().err


# JSON Schema's "integer" admits 8.0, and every reader of these fields
# takes an int: the float crashed the run (or, for the seed, was echoed
# into the report as 7.0)
@pytest.mark.parametrize("field, value, text", [
    ("m", 8.0, "8.0 is not of type 'integer'"),
    ("n_list", [0, 2.0], "2.0 is not of type 'integer'"),
    ("grid", {"k_lo": -2.0, "k_hi": 6}, "-2.0 is not of type 'integer'"),
    ("law", dict(STABLE_CONFIG["law"], resolution=-8.0), "-8.0 is not of type 'integer'"),
    ("scheme", dict(STABLE_CONFIG["scheme"], n_max=4.0), "4.0 is not of type 'integer'"),
    ("seed", 7.0, "7.0 is not of type 'integer'"),
])
def test_limit_verify_refuses_integral_floats_with_exit_2(tmp_path, capsys, field, value, text):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(STABLE_CONFIG, **{field: value})))
    assert main(["limit-verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: invalid scenario spec: {text}\n"


# JSON has no inf or nan, but Python's json reads 1e400, Infinity and
# NaN as them: a spec holding one exits 2, not with an OverflowError from
# a builder (exit 1) or a run of a law that is not a law (exit 0)
NON_FINITE_SPECS = [
    ("sample", '{"kind": "haar_ball", "p": 2, "center": 1e400, "radius_exp": 0}',
     "inf is not of type 'number', 'string'"),
    ("sample", '{"kind": "radial_stable", "a": 1e400, "alpha": 1, "p": 2}',
     "inf is not of type 'number'"),
    ("sample", '{"kind": "radial_stable", "a": 1, "alpha": NaN, "p": 2}',
     "nan is not of type 'number'"),
    ("sample", '{"kind": "radial_stable", "a": -Infinity, "alpha": 1, "p": 2}',
     "-inf is not of type 'number'"),
    ("measure", '{"stable": {"a": Infinity, "alpha": 1, "p": 2}}',
     "inf is not of type 'number'"),
    ("measure", json.dumps(CUSTOM_MEASURE).replace('"weight": "2/3"', '"weight": 1e400', 1),
     "inf is not of type 'number', 'string'"),
]


@pytest.mark.parametrize("command, text, message", NON_FINITE_SPECS)
def test_a_non_finite_number_in_a_spec_exits_2(tmp_path, capsys, command, text, message):
    if command == "sample":
        argv = ["sample", "--sampler", text, "--count", "3"]
    else:
        path = tmp_path / "m.json"
        path.write_text(text)
        argv = ["levy-exponent", "--measure", str(path), "--grid=0:1"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cf-eval", "--stable", "a=inf,alpha=1,p=2", "--t", "1 @ p=2"],
    ["cf-eval", "--stable", "a=1,alpha=nan,p=2", "--t", "1 @ p=2"],
    ["classify", "--cf", "stable:a=1,alpha=inf,p=2"],
    ["classify", "--cf", "stable:a=1e400,alpha=1,p=2"],
])
def test_a_non_finite_stable_grammar_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "need finite a > 0 and alpha > 0" in capsys.readouterr().err


@pytest.mark.parametrize("target, transform", [
    ({"kind": "point_mass", "xi": "1/2 @ p=2"}, PointMass(parse_number("1/2 @ p=2"))),
    ({"kind": "haar_ball", "p": 2, "center": "1/2", "radius_exp": 1},
     HaarUniform(Ball(2, Fraction(1, 2), 1))),
])
def test_a_two_valued_target_is_its_law_transform(target, transform):
    assert specs.scenario_from_spec(dict(STABLE_CONFIG, target=target)).target == transform


@pytest.mark.parametrize("config", [
    STABLE_CONFIG,
    dict(
        STABLE_CONFIG,
        law={"kind": "compound_poisson", "measure": CUSTOM_MEASURE, "resolution": -2},
        scheme={"mode": "geometric", "p": 3, "beta": "1/3", "gamma0": "3"},
        target=CUSTOM_MEASURE,
    ),
])
def test_a_scenario_spec_is_validated_once(config, monkeypatch):
    # its law, scheme and target are parts of the one document validated
    calls = []
    real = specs.validate

    def counting(obj, schema, what="config"):
        calls.append(what)
        return real(obj, schema, what)

    monkeypatch.setattr(specs, "validate", counting)
    specs.scenario_from_spec(config)
    assert calls == ["scenario spec"]
    # a part built on its own is validated on its own
    specs.law_from_spec(config["law"])
    specs.measure_from_spec(config["target"])
    assert calls == ["scenario spec", "sampler spec", "measure spec"]


PRESET_DOCS = {name: limits.preset_spec(name) for name in limits.PRESETS}


@pytest.mark.parametrize("name", sorted(PRESET_DOCS))
def test_every_preset_document_is_a_scenario_spec(name):
    specs.validate(PRESET_DOCS[name], specs.SCENARIO_SCHEMA)
    INT_ONLY(specs.SCENARIO_SCHEMA).validate(PRESET_DOCS[name])


def test_the_stable_preset_is_the_shipped_config():
    assert PRESET_DOCS["stable_limit"] == STABLE_CONFIG


def test_every_tolerance_name_is_read():
    # the four names Scenario.tol is asked for, and nothing else
    import inspect

    from padicprob import limits

    read = set(re.findall(r'\.tol\(\s*"(\w+)"', inspect.getsource(limits)))
    assert read == set(limits.TOLERANCES)
    # the schema lists the table's names, in its order
    names = list(specs.SCENARIO_SCHEMA["properties"]["tolerances"]["properties"])
    assert names == list(limits.TOLERANCES) == ["sup", "scaling", "mc_fraction", "phi_final"]
    sc = specs.scenario_from_spec(dict(STABLE_CONFIG, tolerances={k: 0.5 for k in read}))
    assert all(sc.tol(k) == 0.5 for k in read)
    # an unset tolerance reads its default from the table
    sc = specs.scenario_from_spec(STABLE_CONFIG)
    assert {k: sc.tol(k) for k in read} == {
        "sup": 1e-12, "scaling": 1e-12, "mc_fraction": 0.95, "phi_final": 5e-3}


# ---------------------------------------------------------------------
# The kind table: what a spec that leaves a key out runs
# ---------------------------------------------------------------------

# a law spec of each kind over p = 2, without the keys it may leave out
BARE_LAWS = {
    "point_mass": {"kind": "point_mass", "xi": "1/2 @ p=2"},
    "haar_ball": {"kind": "haar_ball", "p": 2, "center": "1/2", "radius_exp": 0},
    "radial_stable": {"kind": "radial_stable", "a": 1, "alpha": 1, "p": 2},
    "compound_poisson": {"kind": "compound_poisson",
                         "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}}},
}


def test_the_table_holds_the_documented_defaults():
    assert sorted(BARE_LAWS) == sorted(specs._LAWS)
    assert {kind: entry.defaults for kind, entry in specs._LAWS.items()} == {
        "point_mass": {},
        "haar_ball": {"resolution": -12},
        "radial_stable": {"resolution": -12, "n_lo": -40, "n_hi": 40},
        "compound_poisson": {"resolution": -6},
    }
    assert {kind: entry.defaults for kind, entry in specs._TARGETS.items()} == {
        "point_mass": {}, "haar_ball": {},
    }
    assert {mode: entry.defaults for mode, entry in specs._SCHEMES.items()} == {
        "geometric": {"n_max": 10}, "explicit": {},
    }
    geometric = {key: STABLE_CONFIG["scheme"][key] for key in ("mode", "p", "beta", "gamma0")}
    assert scheme_from_spec(geometric).n_max == 10


# the flat schemas as they were written out by hand before they were
# built from the kind tables
_RAT = {"type": ["number", "string"]}
LITERAL_SAMPLER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["point_mass", "haar_ball", "radial_stable", "compound_poisson"]},
        "p": {"type": "integer", "minimum": 2},
        "xi": {"type": "string"},
        "center": _RAT,
        "radius_exp": {"type": "integer"},
        "a": {"type": "number"},
        "alpha": {"type": "number"},
        "measure": specs.MEASURE_SCHEMA,
        "resolution": {"type": "integer"},
        "n_lo": {"type": "integer"},
        "n_hi": {"type": "integer"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}
LITERAL_SCHEME_SCHEMA = {
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
LITERAL_TWO_VALUED_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["point_mass", "haar_ball"]},
        **{key: LITERAL_SAMPLER_SCHEMA["properties"][key]
           for key in ("p", "xi", "center", "radius_exp")},
    },
    "required": ["kind"],
    "additionalProperties": False,
}


@pytest.mark.parametrize("built, literal", [
    (specs.SAMPLER_SCHEMA, LITERAL_SAMPLER_SCHEMA),
    (specs.SCHEME_SCHEMA, LITERAL_SCHEME_SCHEMA),
    (specs.TWO_VALUED_SCHEMA, LITERAL_TWO_VALUED_SCHEMA),
])
def test_a_flat_schema_built_from_its_table_is_the_literal(built, literal):
    # ties between errors at one place follow the order of the keywords
    # and of the enum and required lists, which == compares; errors under
    # two properties never tie, as their paths differ, so the order of the
    # properties is free
    assert built == literal
    assert list(built) == list(literal)


@pytest.mark.parametrize("table", [specs._LAWS, specs._TARGETS, specs._SCHEMES])
def test_a_key_two_kinds_share_has_one_schema(table):
    seen = {}
    for entry in table.values():
        assert set(entry.defaults) <= set(entry.keys)
        for key, sub in entry.keys.items():
            assert seen.setdefault(key, sub) == sub, key


def test_a_target_reads_the_keys_its_law_needs():
    for kind, target in specs._TARGETS.items():
        law = specs._LAWS[kind]
        assert list(target.keys) == list(law.needs) == list(target.needs)
        assert target.keys == {key: law.keys[key] for key in law.needs}
    assert specs._LAWS["radial_stable"].needs == ("p", "a", "alpha")
    assert specs._SCHEMES["geometric"].needs == ("p", "beta", "gamma0")


def _report_without_law(out_dir: Path) -> bytes:
    """The bytes limit-verify wrote to ``out_dir``, with the law spec the
    CSV header and the JSON summary echo taken out: the rows verbatim,
    the rest as the CLI's own json.dumps writes it."""
    out = b""
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            header, rows = text.split("\n", 1)
            meta = json.loads(header[2:])
            del meta["config"]["law"], meta["effective"]["law"]
            text = json.dumps(meta, sort_keys=True) + "\n" + rows
        else:
            payload = json.loads(text)
            del payload["effective"]["law"]
            text = json.dumps(payload, sort_keys=True, indent=2)
        out += path.name.encode() + b"\n" + text.encode()
    return out


@pytest.mark.parametrize("kind", sorted(BARE_LAWS))
def test_a_law_spec_runs_its_kinds_defaults(kind, tmp_path):
    bare = BARE_LAWS[kind]
    defaults = specs._LAWS[kind].defaults
    full = {**bare, **defaults}
    law, full_law = specs.law_from_spec(bare), specs.law_from_spec(full)
    sampler = law.sampler
    assert (sampler, law.transform, law.folds) == (
        full_law.sampler, full_law.transform, full_law.folds
    )
    if "resolution" in defaults:
        assert sampler.resolution == defaults["resolution"]
    if "n_lo" in defaults:
        # the table reaches below the resolution, to n_lo
        assert (sampler.table.n_lo, sampler.table.n_hi) == (defaults["n_lo"], defaults["n_hi"])
    reports = []
    for name, spec in (("bare", bare), ("full", full)):
        config = dict(STABLE_CONFIG, law=spec, m=24, n_list=[0, 2])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / name
        main(["limit-verify", "--config", str(path), "--out", str(out_dir)])
        reports.append(_report_without_law(out_dir))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------
# The schema interpreter against jsonschema
# ---------------------------------------------------------------------

def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_schemas_use_only_what_the_validator_interprets(schema):
    # a schema edit that reaches past the interpreter fails here, not
    # silently at run time
    for sub in _subschemas(schema):
        assert set(sub) <= set(specs.SCHEMA_KEYWORDS), sub
        names = sub.get("type", [])
        assert set([names] if isinstance(names, str) else names) <= set(specs.SCHEMA_TYPES), sub
        assert sub.get("additionalProperties", False) is False, sub
        assert all(isinstance(value, str) for value in sub.get("enum", ())), sub


# the two intended differences: "integer" is int and not bool, where
# JSON Schema also admits integral floats such as 8.0, and "number" is
# finite, where JSON Schema admits the inf and nan Python's json reads
INT_ONLY = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda checker, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda checker, x: (
            jsonschema.Draft202012Validator.TYPE_CHECKER.is_type(x, "number")
            and abs(x) < math.inf
        ),
    }),
)


def _oracle(cls, doc, schema):
    error = jsonschema.exceptions.best_match(cls(schema).iter_errors(doc))
    return None if error is None else error.message


def _verdict(doc, schema):
    try:
        specs.validate(doc, schema, "spec")
    except SpecValidationError as exc:
        return str(exc).removeprefix("invalid spec: ")
    return None


# Two oneOf rules no spec schema reaches today, on small schemas: of two
# branch errors at one place, best_match descends into the one whose
# schema's type the instance has, and an instance valid under two
# branches fails.
BRANCHES = {"oneOf": [
    {"type": "object", "required": ["a"], "additionalProperties": False},
    {"type": "array", "minItems": 1},
]}
OVERLAP = {"oneOf": [{"type": "number"}, {"type": "integer"}, {"type": "string"}]}


@pytest.mark.parametrize("schema, doc", [
    *((BRANCHES, doc) for doc in ({}, [], {"a": 1}, "x", None)),
    *((OVERLAP, doc) for doc in (1, 0.5, "x", None)),
])
def test_validator_matches_jsonschema_on_small_oneof_schemas(schema, doc):
    assert _verdict(doc, schema) == _oracle(INT_ONLY, doc, schema)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308, -0.0, 10**400])
@pytest.mark.parametrize("schema", [
    {"type": "number"}, {"type": "integer"}, {"type": ["number", "string"]},
    {"type": "number", "exclusiveMinimum": 0}, {"type": "integer", "minimum": 2},
])
def test_validator_matches_jsonschema_on_non_finite_numbers(schema, value):
    assert _verdict(value, schema) == _oracle(INT_ONLY, value, schema)
    if isinstance(value, float) and not math.isfinite(value):
        assert _verdict(value, schema) is not None


def _has_integral_float(doc):
    if isinstance(doc, float):
        return doc.is_integer()
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return any(map(_has_integral_float, children))


def _slots(doc):
    """(container, key) for every value below doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


SEED_SPECS = [
    (specs.SCENARIO_SCHEMA, STABLE_CONFIG),
    (specs.SCENARIO_SCHEMA, dict(
        STABLE_CONFIG,
        law={"kind": "compound_poisson", "measure": CUSTOM_MEASURE, "resolution": -4},
        scheme={"mode": "explicit", "p": 3, "b_list": [1, "1/3"], "k_list": [1, 2]},
        target=CUSTOM_MEASURE,
        tolerances={"sup": 1e-9, "phi_final": 0.5},
        balls=["ball(0,1)"],
    )),
    (specs.SCENARIO_SCHEMA, dict(STABLE_CONFIG, target=None)),
    (specs.SCENARIO_SCHEMA, PRESET_DOCS["beta_one"]),
    (specs.SCENARIO_SCHEMA, PRESET_DOCS["bounded_normalizers"]),
    (specs.SAMPLER_SCHEMA, STABLE_CONFIG["law"]),
    (specs.SCHEME_SCHEMA, STABLE_CONFIG["scheme"]),
    (specs.MEASURE_SCHEMA, CUSTOM_MEASURE),
    (specs.MEASURE_SCHEMA, STABLE_CONFIG["target"]),
]
OTHER_VALUES = [True, False, None, "x", "1/3", [], [2, "a"], {}, {"a": 1},
                0.5, -2.5, 3.0, -8.0, -1, -7, 0, 5]
NEW_KEYS = ["extra", "zz", "p", "kind", "stable", "resolution", "balls"]


@st.composite
def mutated_specs(draw):
    """A valid spec with one to three mutations: a key or item deleted, an
    unknown key added, or a value swapped for one of another type."""
    schema, doc = draw(st.one_of(
        st.sampled_from(SEED_SPECS),
        measure_specs().map(lambda spec: (specs.MEASURE_SCHEMA, spec)),
    ))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        dicts = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        op = draw(st.sampled_from(["delete", "add", "swap", "swap"]))
        value = copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))
        if op == "add":
            draw(st.sampled_from(dicts))[draw(st.sampled_from(NEW_KEYS))] = value
        elif slots:
            container, key = draw(st.sampled_from(slots))
            if op == "delete":
                del container[key]
            else:
                container[key] = value
    return schema, doc


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_validator_matches_jsonschema_best_match(case):
    schema, doc = case
    ours = _verdict(doc, schema)
    assert ours == _oracle(INT_ONLY, doc, schema)
    if ours != _oracle(jsonschema.Draft202012Validator, doc, schema):
        assert _has_integral_float(doc)
