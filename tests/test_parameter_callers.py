"""Every defaulted parameter of a padicprob function has a caller that sets it.

A parameter that no call in ``src/`` or ``perfbench/`` passes is one more
value to document and test that no run ever changes: it is a module
constant, or its default is dead.  The walk is by name (a call ``f(...)``
or ``x.f(...)`` may reach any function or method ``f``, and a call of a
class reaches its ``__init__``), so it can only miss a parameter that has
no caller; a call with ``*args`` or ``**kwargs`` counts as passing every
parameter it may reach.  A call that only forwards a parameter of its own
function (``sphere_masses(..., tol=tol)``) sets the value when some call
sets that parameter.  What no such call passes is listed in ALLOWED with
the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "padicprob").glob("*.py"))
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

_RANDOM_SETS = "tests widen or narrow the random sets to build edge inputs"
ALLOWED = {
    "levy.random_compact_open(sphere_lo)": _RANDOM_SETS,
    "levy.random_compact_open(sphere_hi)": _RANDOM_SETS,
    "levy.random_compact_open(max_balls)": _RANDOM_SETS,
    "levy.random_self_similar_measure(p)": "tests fix the prime of a random measure",
    "padic.character_value(denominator)": "the oracle of character_values, which tests "
    "call with the table's denominator",
    "padic.CharacterSum.__init__(terms)": "src builds only the empty sum; tests build "
    "sums with unreduced keys to check the reduction",
    "padic.grid_points(precision)": "tests build grids on short digit windows",
    # run_selftest calls each criterion as fn(seed=..., negative_control=...,
    # workers=...), a call the walk by name cannot resolve
    **{
        f"selftest.criterion_{i}(seed)": "run_selftest passes it; tests run a "
        "criterion alone at the pinned seed"
        for i in range(1, 11)
    },
    "selftest.criterion_3(negative_control)": "run_selftest passes it",
    "selftest.criterion_10(workers)": "run_selftest passes it",
}


def _scan(path: Path) -> tuple[list, list]:
    """The defaulted parameters of a module, as (name as ALLOWED writes
    it, callee name, position or None when keyword-only), and its calls,
    as (callee name, call, the innermost function around it)."""
    params, calls = [], []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, func)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.Call):
                    name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                    calls.append((name, child, func))
                visit(child, cls, func)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
            )
            if cls and not static:
                positional = positional[1:]  # self or cls
            qual = ".".join(filter(None, (path.stem, cls, child.name)))
            callee = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                params.append((f"{qual}({arg.arg})", callee, index))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    params.append((f"{qual}({arg.arg})", callee, None))
            visit(child, None, qual)

    visit(ast.parse(path.read_text()), None, None)
    return params, calls


def _passes(call: ast.Call, param: str, index: int | None, func, unpassed: set) -> bool:
    """Whether ``call`` sets the parameter: a value forwarded from a
    parameter of ``func`` that has no caller of its own sets nothing."""
    name = param[param.index("(") + 1:-1]
    value = None
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            value = kw.value
    if value is None and index is not None:
        if any(isinstance(arg, ast.Starred) for arg in call.args[: index + 1]):
            return True
        if len(call.args) > index:
            value = call.args[index]
    if value is None:
        return False
    return not (isinstance(value, ast.Name) and f"{func}({value.id})" in unpassed)


def unpassed() -> list[str]:
    params = [param for path in PACKAGE for param in _scan(path)[0]]
    calls: dict[str, list] = {}
    for path in CALLERS:
        for name, call, func in _scan(path)[1]:
            calls.setdefault(name, []).append((call, func))
    found: set[str] = set()
    while True:  # until no parameter is left that only forwards unset ones
        now = {
            param
            for param, callee, index in params
            if not any(_passes(call, param, index, func, found) for call, func in calls.get(callee, ()))
        }
        if now == found:
            return sorted(found)
        found = now


def test_every_defaulted_parameter_is_passed_by_a_caller():
    assert [name for name in unpassed() if name not in ALLOWED] == []


def test_every_allowed_parameter_still_has_no_caller():
    # an entry whose parameter is gone, or now has a caller, is stale
    assert sorted(set(ALLOWED) - set(unpassed())) == []
