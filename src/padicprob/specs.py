"""JSON configuration schemas and parsers for measures, samplers,
schemes, and scenarios, plus the textual set literals used on the
command line.

All configs are schema-validated before execution and unknown keys are
rejected; rationals may be written as strings ("2/3") to stay exact
through JSON.  A law, target or scheme spec names a kind: a ``_Kind``
record holding every key the kind reads with its schema, the defaults
and the builders.  The flat schemas of these parts are built from the
kinds' tables.

The schemas are JSON Schema dicts, the one description of a spec, and
``validate`` interprets them itself.  It implements only the keywords
they use: ``type`` (a name or a list of names, ``null`` included),
``properties``, ``required``, ``additionalProperties: false``, ``enum``
(of strings), ``minimum``, ``exclusiveMinimum``, ``items``, ``minItems``
and ``oneOf``.  Each fails with jsonschema's message, and of several
errors ``validate`` reports the one jsonschema's ``best_match`` picks.
Two differences in verdict: an ``integer`` is an int that is not a
bool, so 8.0 is refused, and a ``number`` is finite, so the inf and nan
Python's json reads from 1e400, Infinity and NaN are refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from numbers import Real
from typing import TYPE_CHECKING, Callable, NamedTuple

from .charfn import HaarUniform, PointMass, StableLaw, StableParams, Transform, sphere_masses
from .levy import JumpMeasure, SelfSimilarLevyMeasure, make_example_measure
from .limits import LimitScheme, Scenario, default_ball_family
from .padic import grid_points, parse_number, rational_valuation
from .sets import Ball, TailSet, annulus, sphere

if TYPE_CHECKING:
    from .samplers import Sampler


class SpecValidationError(ValueError):
    """A configuration document failed schema or semantic validation."""


def parse_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
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


class _Kind(NamedTuple):
    """A sampler kind, target kind or scheme mode: every key a spec of it
    reads beyond the one naming it, each with its JSON Schema; the value
    each key it may leave out takes; and its builder, given the spec with
    those values filled in.  A spec with any other key is refused, as the
    kind would silently ignore it."""

    keys: dict
    defaults: dict
    build: Callable  # a law's exact transform, or a scheme
    # a law's sampler, from the samplers module, its transform, spec and table
    sampler: Callable | None = None
    table: Callable | None = None  # a law's sphere mass table, if it draws from one

    @property
    def needs(self) -> tuple[str, ...]:
        return tuple(key for key in self.keys if key not in self.defaults)


def _rational_or_float(value):
    return parse_rational(value) if isinstance(value, str) else value


_P = {"type": "integer", "minimum": 2}
_INT = {"type": "integer"}
_LAWS = {
    "point_mass": _Kind(
        {"xi": {"type": "string"}}, {},
        lambda s: PointMass(parse_number(s["xi"])),
        lambda sm, g, s, table: sm.PointMassSampler(g.xi),
    ),
    "haar_ball": _Kind(
        {"p": _P, "center": _RAT, "radius_exp": _INT, "resolution": _INT}, {"resolution": -12},
        lambda s: HaarUniform(Ball(s["p"], parse_rational(s["center"]), s["radius_exp"])),
        lambda sm, g, s, table: sm.HaarBallSampler(g.ball, s["resolution"]),
    ),
    "radial_stable": _Kind(
        {"p": _P, "a": {"type": "number"}, "alpha": {"type": "number"},
         "resolution": _INT, "n_lo": _INT, "n_hi": _INT},
        {"resolution": -12, "n_lo": -40, "n_hi": 40},
        lambda s: StableLaw(StableParams(s["a"], s["alpha"], s["p"])),
        # a radial sampler on the sphere masses down to the resolution
        lambda sm, g, s, table: sm.RadialSampler(table, s["resolution"]),
        lambda g, s: sphere_masses(g, min(s["n_lo"], s["resolution"] + 1), s["n_hi"]),
    ),
    "compound_poisson": _Kind(
        {"measure": MEASURE_SCHEMA, "resolution": _INT}, {"resolution": -6},
        lambda s: JumpMeasure(_measure(s["measure"])),
        lambda sm, g, s, table: sm.CompoundPoissonSampler(g.measure, s["resolution"]),
    ),
}
# a two-valued law as a target (a delta or Haar-cutoff limit law): it is
# drawn from by no run, so it reads only the keys its law needs
_TARGETS = {
    kind: law._replace(keys={key: law.keys[key] for key in law.needs}, defaults={})
    for kind, law in _LAWS.items() if kind in ("point_mass", "haar_ball")
}
_SCHEMES = {
    "geometric": _Kind(
        {"p": _P, "beta": _RAT, "gamma0": {"type": "string"},
         "n_max": {"type": "integer", "minimum": 0}},
        {"n_max": 10},
        lambda s: LimitScheme.geometric(
            s["p"], _rational_or_float(s["beta"]), parse_rational(s["gamma0"]), s["n_max"]
        ),
    ),
    "explicit": _Kind(
        {"p": _P, "b_list": {"type": "array", "items": _RAT},
         "k_list": {"type": "array", "items": {"type": "integer", "minimum": 1}}},
        {},
        lambda s: LimitScheme.explicit(
            s["p"], [parse_rational(b) for b in s["b_list"]], s["k_list"]
        ),
    ),
}


def _schema(tag: str, table: dict) -> dict:
    """The schema of a spec part whose ``tag`` names a kind of ``table``:
    any kind's keys, and the tag and each key every kind needs required.
    ``_read`` then holds the part to its own kind's keys."""
    keys = {key: sub for kind in table.values() for key, sub in kind.keys.items()}
    needed = [key for key in keys if all(key in kind.needs for kind in table.values())]
    return {
        "type": "object",
        "properties": {tag: {"enum": list(table)}, **keys},
        "required": [tag, *needed],
        "additionalProperties": False,
    }


SAMPLER_SCHEMA = _schema("kind", _LAWS)
SCHEME_SCHEMA = _schema("mode", _SCHEMES)
TWO_VALUED_SCHEMA = _schema("kind", _TARGETS)

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "law": SAMPLER_SCHEMA,
        "scheme": SCHEME_SCHEMA,
        "target": {"oneOf": [MEASURE_SCHEMA, {"type": "null"}, TWO_VALUED_SCHEMA]},
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
        "seed": {"type": "integer", "minimum": 0},
        "n_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "tolerances": {
            "type": "object",
            # the names Scenario.tol is asked for
            "properties": {
                key: {"type": "number"}
                for key in ("sup", "scaling", "mc_fraction", "phi_final")
            },
            "additionalProperties": False,
        },
    },
    "required": ["name", "law", "scheme", "m", "seed", "n_list"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------
# Validation: a JSON Schema interpreter for the keywords above
# ---------------------------------------------------------------------

SCHEMA_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # not the inf or nan Python's json reads from 1e400, Infinity or NaN
    "number": lambda x: isinstance(x, Real) and not isinstance(x, bool) and abs(x) < math.inf,
    # JSON Schema's integer also admits 8.0, which every reader of an
    # integer field here would crash on or echo into a report as a float
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "null": lambda x: x is None,
}


class _Error(NamedTuple):
    """One failed keyword, with what jsonschema's ``best_match`` reads of
    a ValidationError: ``path`` leads from the instance the enclosing
    validation began at (the document, or a oneOf's instance) to
    ``instance``, the value whose ``schema`` holds ``keyword``."""

    message: str
    keyword: str
    schema: dict
    instance: object
    path: tuple
    context: list | tuple = ()

    def relevance(self) -> tuple:
        """jsonschema.exceptions.relevance, oneOf being the weak keyword."""
        typed = "type" in self.schema and not any(
            _type(self.instance, self.schema["type"], self.schema, self.path)
        )
        return (-len(self.path), self.path, self.keyword != "oneOf", not typed)


def _errors(instance, schema: dict, path: tuple = ()):
    """The errors of ``instance`` against ``schema`` in jsonschema's order:
    keyword by keyword as the schema lists them, depth first."""
    for keyword, value in schema.items():
        yield from SCHEMA_KEYWORDS[keyword](instance, value, schema, path)


def _type(instance, names, schema, path):
    names = [names] if isinstance(names, str) else names
    if not any(SCHEMA_TYPES[name](instance) for name in names):
        reprs = ", ".join(repr(name) for name in names)
        yield _Error(f"{instance!r} is not of type {reprs}", "type", schema, instance, path)


def _properties(instance, properties, schema, path):
    if isinstance(instance, dict):
        for key, sub in properties.items():
            if key in instance:
                yield from _errors(instance[key], sub, (*path, key))


def _required(instance, required, schema, path):
    if isinstance(instance, dict):
        for key in required:
            if key not in instance:
                yield _Error(
                    f"{key!r} is a required property", "required", schema, instance, path
                )


def _additional_properties(instance, allowed, schema, path):
    # only ``false``: no key beyond ``properties``
    if isinstance(instance, dict):
        known = schema.get("properties", {})
        extras = sorted((key for key in instance if key not in known), key=str)
        if extras:
            listed = ", ".join(repr(key) for key in extras)
            verb = "was" if len(extras) == 1 else "were"
            yield _Error(
                f"Additional properties are not allowed ({listed} {verb} unexpected)",
                "additionalProperties", schema, instance, path,
            )


def _enum(instance, values, schema, path):
    # of strings only
    if not (isinstance(instance, str) and instance in values):
        yield _Error(f"{instance!r} is not one of {values!r}", "enum", schema, instance, path)


def _minimum(instance, minimum, schema, path):
    if SCHEMA_TYPES["number"](instance) and instance < minimum:
        yield _Error(
            f"{instance!r} is less than the minimum of {minimum!r}",
            "minimum", schema, instance, path,
        )


def _exclusive_minimum(instance, minimum, schema, path):
    if SCHEMA_TYPES["number"](instance) and instance <= minimum:
        yield _Error(
            f"{instance!r} is less than or equal to the minimum of {minimum!r}",
            "exclusiveMinimum", schema, instance, path,
        )


def _items(instance, items, schema, path):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _errors(item, items, (*path, index))


def _min_items(instance, least, schema, path):
    if isinstance(instance, list) and len(instance) < least:
        message = "should be non-empty" if least == 1 else "is too short"
        yield _Error(f"{instance!r} {message}", "minItems", schema, instance, path)


def _one_of(instance, subschemas, schema, path):
    context, valid = [], []
    for sub in subschemas:
        errors = list(_errors(instance, sub))
        if not errors:
            valid.append(sub)
        context.extend(errors)
    if not valid:
        yield _Error(
            f"{instance!r} is not valid under any of the given schemas",
            "oneOf", schema, instance, path, context,
        )
    elif len(valid) > 1:
        reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
        yield _Error(
            f"{instance!r} is valid under each of {reprs}", "oneOf", schema, instance, path
        )


SCHEMA_KEYWORDS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "enum": _enum,
    "minimum": _minimum,
    "exclusiveMinimum": _exclusive_minimum,
    "items": _items,
    "minItems": _min_items,
    "oneOf": _one_of,
}


def validate(obj, schema: dict, what: str = "config") -> None:
    """Raise SpecValidationError if ``obj`` fails ``schema``, with the
    message of the error jsonschema's ``best_match`` would pick.

    The schema may use only the keywords in SCHEMA_KEYWORDS and the types
    in SCHEMA_TYPES; ``integer`` is an int that is not a bool, and
    ``number`` a finite real.  Each keyword fails with jsonschema's
    message.  Of several errors the shallowest wins, then the one at the
    later path, then one that is not a oneOf.  From a oneOf error the
    choice descends into the errors of its branches, the deepest first,
    unless the two best of them tie."""
    best = max(_errors(obj, schema), key=_Error.relevance, default=None)
    while best is not None and best.context:
        first, *rest = sorted(best.context, key=_Error.relevance)[:2]
        if rest and first.relevance() == rest[0].relevance():
            break
        best = first
    if best is not None:
        raise SpecValidationError(f"invalid {what}: {best.message}")


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


# A public builder validates its document, once; a private one builds a
# part of a document that has been validated.
def measure_from_spec(obj) -> SelfSimilarLevyMeasure:
    validate(obj, MEASURE_SCHEMA, "measure spec")
    return _measure(obj)


def _measure(obj) -> SelfSimilarLevyMeasure:
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
    return SelfSimilarLevyMeasure(p, _rational_or_float(obj["beta"]), gamma0, fundamental)


def _read(obj, field: str, table: dict, what: str) -> tuple[_Kind, dict]:
    """The table entry of a spec part's kind, and the part with the
    entry's defaults filled in."""
    kind = table[obj[field]]
    for key in kind.needs:
        if key not in obj:
            raise SpecValidationError(f"{what} needs {key}")
    unread = sorted(set(obj) - {field, *kind.keys})
    if unread:
        raise SpecValidationError(f"{what} does not read {', '.join(unread)}")
    return kind, {**kind.defaults, **obj}


@dataclass(frozen=True)
class Law:
    """A summand law: ``spec``, the law spec as written; ``transform``,
    its exact transform; ``folds``, what its sampler folds, clamps or
    bounds away from that law (None where it draws the law exactly, see
    SphereMassTable.folds); and ``sampler``, built on first access, which
    loads numpy.  ``fresh`` gives the law with a fresh transform, sharing
    the sampler."""

    spec: dict
    transform: Transform
    folds: dict | None
    _sampler: Callable[[], Sampler] = field(repr=False, compare=False)

    @property
    def sampler(self) -> Sampler:
        return self._sampler()

    def fresh(self) -> Law:
        return replace(self, transform=self.transform.fresh())


def law_from_spec(obj) -> Law:
    validate(obj, SAMPLER_SCHEMA, "sampler spec")
    return _law(obj)


def _law(obj) -> Law:
    kind, spec = _read(obj, "kind", _LAWS, obj["kind"])
    g = kind.build(spec)
    table = None if kind.table is None else kind.table(g, spec)

    @cache
    def sampler() -> Sampler:
        from . import samplers  # numpy loads with the first sampler built

        return kind.sampler(samplers, g, spec, table)

    folds = None if table is None else table.folds(spec["resolution"])
    return Law(dict(obj), g, folds, sampler)


def _scheme(obj) -> LimitScheme:
    kind, spec = _read(obj, "mode", _SCHEMES, f"{obj['mode']} scheme")
    return kind.build(spec)


def _target(obj) -> Transform:
    """The transform of a target spec: a two-valued law's is the one its
    law spec gives, and a measure's is its JumpMeasure.  A stable target
    is exact through its measure's exponent, and reads the closed form on
    spheres."""
    if "kind" in obj:
        kind, spec = _read(obj, "kind", _TARGETS, f"{obj['kind']} target")
        return kind.build(spec)
    s = obj.get("stable")
    closed_form = None if s is None else _LAWS["radial_stable"].build(s)
    return JumpMeasure(_measure(obj), closed_form)


# what a scenario spec leaving these keys out runs; without "balls", the
# first _DEFAULT_BALLS balls of limits.default_ball_family
_SCENARIO_DEFAULTS = {
    "target": None,
    "grid": {"k_lo": -6, "k_hi": 6},
    "sets": ["annulus(0,inf)"],
    "tolerances": {},
}
_DEFAULT_BALLS = 10


def scenario_from_spec(obj) -> Scenario:
    validate(obj, SCENARIO_SCHEMA, "scenario spec")
    spec = {**_SCENARIO_DEFAULTS, **obj}
    law = _law(spec["law"])
    scheme = _scheme(spec["scheme"])
    p = scheme.prime
    if law.transform.prime != p:
        raise SpecValidationError("law and scheme primes differ")
    target = None
    if spec["target"] is not None:
        target = _target(spec["target"])
        if target.prime != p:
            raise SpecValidationError("target and scheme primes differ")
    grid_cfg = spec["grid"]
    if grid_cfg["k_lo"] > grid_cfg["k_hi"]:
        raise SpecValidationError("grid is empty: k_lo exceeds k_hi")
    grid = tuple(grid_points(p, grid_cfg["k_lo"], grid_cfg["k_hi"]))
    if "balls" in spec:
        balls = tuple(parse_set_literal(lit, p) for lit in spec["balls"])
    else:
        balls = tuple(default_ball_family(p, _DEFAULT_BALLS))
    if not all(isinstance(b, Ball) for b in balls):
        raise SpecValidationError("ball family entries must be balls")
    sets = tuple(parse_set_literal(lit, p) for lit in spec["sets"])
    n_list = sorted(spec["n_list"])
    for a, b in zip(n_list, n_list[1:]):
        if a == b:
            raise SpecValidationError(f"n_list repeats n = {a}")
    # the scheme checked its k(n) up to n_max only
    if n_list[-1] > scheme.n_max:
        raise SpecValidationError(f"n_list exceeds {scheme.mode} scheme length")
    return Scenario(
        name=spec["name"],
        prime=p,
        law=law,
        scheme=scheme,
        grid=grid,
        balls=balls,
        sets=sets,
        m=spec["m"],
        seed=spec["seed"],
        n_list=tuple(n_list),
        target=target,
        tolerances=dict(spec["tolerances"]),
    )
