"""The names the benchmark in perfbench/ reads from padicprob still resolve.

A traced run (``perfbench/run.py --trace 1``) wraps every entry of
``perfbench/tracing.TARGETS``, the workloads clear or read a few memos by
name, ``limit_mc`` drives the CLI with a fixed argv, and ``exact_theory``
compares CharacterSums; perfbench's own tests are not in this suite, so a
rename here would otherwise break the benchmark unnoticed.  Names that
nothing in ``src/`` calls are still read there, so every module-level
name perfbench reads is checked from perfbench's own source, and so is
every call it makes of such a name: a parameter dropped from a padicprob
callable that perfbench still passes fails here, not in the benchmark
run.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from padicprob import charfn, cli, limits
from padicprob.levy import levy_exponent_exact, make_example_measure, random_compact_open
from padicprob.padic import CharacterSum, grid_points
from padicprob.sets import integrate_char_exact
from padicprob.specs import measure_from_spec

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_trace_target_resolves(target):
    _, modname, clsname, attr = target
    module = importlib.import_module("padicprob." + modname)
    if clsname is None:
        assert callable(getattr(module, attr))
    else:
        # the tracer replaces the attribute in the class's own __dict__
        cls = getattr(module, clsname)
        assert attr in cls.__dict__
        assert callable(getattr(cls, attr))


def test_workload_memos_resolve():
    sampler = charfn.CompoundPoissonSampler(make_example_measure(1, 1, 2), resolution=-4)
    sampler._gpow.clear()  # cp_fidelity starts every pass cold
    assert charfn.RadialCharFn.stable is charfn.StableLaw
    charfn._measure_radial_value.cache_info()


def test_limit_mc_argv_parses():
    # the argv of LimitVerify.run in perfbench/workloads.py (workload
    # limit_mc); dropping or renaming one of these flags would fail only
    # the benchmark run
    argv = [
        "limit-verify",
        "--config", "C",
        "--seed", "7",
        "--out", "D",
        "--workers", "1",
    ]
    args = cli.build_parser().parse_args(argv)
    assert args.fn is cli.cmd_limit_verify
    assert (args.config, args.seed, args.out, args.workers) == ("C", 7, "D", 1)


def test_exact_theory_character_sum_api():
    # the checks of ExactTheory in perfbench/workloads.py (workload
    # exact_theory): the scaling identities compare CharacterSums with ==
    # after .scale, and the negative control adds a 2**-60 constant that
    # must merge into the phase-0 term and break the equality
    spec = json.loads((ROOT / "configs" / "custom_measure.json").read_text())
    m = measure_from_spec(spec)
    p = m.prime
    abs_gamma = Fraction(p) ** -2  # |gamma0|_3 for gamma0 = 9
    bump = CharacterSum.constant(p, Fraction(1, 2**60))
    sets = [random_compact_open(charfn.substream(11, k), p) for k in range(3)]
    for t in grid_points(p, -3, 3, unit_digit_sets=((1,), (1, 1))):
        lhs = levy_exponent_exact(m, t.mul_rational(m.gamma0))
        rhs = levy_exponent_exact(m, t).scale(m.beta)
        assert lhs == rhs
        bumped = rhs + bump
        assert bumped.prime == p and bumped != lhs
        # the exponent's tail-mass constant sits under the same key
        assert (0, 0) in rhs.terms() and bumped.terms().keys() == rhs.terms().keys()
        for s in sets:
            lhs = integrate_char_exact(s.scale(m.gamma0), t)
            rhs = integrate_char_exact(s, t.mul_rational(m.gamma0)).scale(abs_gamma)
            assert lhs == rhs and rhs + bump != lhs


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a name inside a module that is no package
        return False


def _import(module: str, name: str):
    """``from module import name``: a submodule, or else an attribute."""
    if _is_module(f"{module}.{name}"):
        return importlib.import_module(f"{module}.{name}")
    return getattr(importlib.import_module(module), name)


def _padicprob_imports(tree: ast.AST) -> list[tuple[str, str, str]]:
    """(local name, module, name) for every ``from padicprob... import
    name`` in a perfbench file."""
    return [
        (alias.asname or alias.name, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "padicprob"
        for alias in node.names
    ]


def _perfbench_reads() -> list[tuple[str, str, tuple[str, ...]]]:
    """(file, module, attribute chain) for every name perfbench imports
    from padicprob and every attribute chain it reads off a padicprob
    module it imported by name (``levy.make_measure``,
    ``charfn.RadialCharFn.stable``)."""
    reads = set()
    for path in PERFBENCH:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the padicprob module it is bound to
        for local, module, name in _padicprob_imports(tree):
            reads.add((path.name, module, (name,)))
            if _is_module(f"{module}.{name}"):
                modules[local] = f"{module}.{name}"
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                reads.add((path.name, modules[node.id], tuple(reversed(chain))))
    return sorted(reads)


@pytest.mark.parametrize(
    "read", _perfbench_reads(), ids=lambda r: f"{r[0]}:{r[1]}.{'.'.join(r[2])}"
)
def test_perfbench_module_reads_resolve(read):
    _, module, chain = read
    obj = _import(module, chain[0])
    for attr in chain[1:]:
        obj = getattr(obj, attr)


def _perfbench_calls() -> list[tuple]:
    """(file, line, module, attribute chain, subscripted, positional
    count, keywords) for every call in perfbench, with arguments, of a
    name it imports from padicprob or reads off a padicprob module it
    imported by name.  ``subscripted`` marks a call of an item of that
    name (``limits.PRESETS[name](m=0)``); the positional count is None
    where a starred argument hides it."""
    calls = []
    for path in PERFBENCH:
        tree = ast.parse(path.read_text())
        modules, names = {}, {}  # local name -> padicprob module / (module, name)
        for local, module, name in _padicprob_imports(tree):
            if _is_module(f"{module}.{name}"):
                modules[local] = f"{module}.{name}"
            else:
                names[local] = (module, name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not (node.args or node.keywords):
                continue
            func, subscripted = node.func, isinstance(node.func, ast.Subscript)
            if subscripted:
                func = func.value
            chain = []
            while isinstance(func, ast.Attribute):
                chain.append(func.attr)
                func = func.value
            if not isinstance(func, ast.Name):
                continue
            if func.id in modules:
                module = modules[func.id]
            elif func.id in names:
                module, name = names[func.id]
                chain.append(name)
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((
                path.name, node.lineno, module, tuple(reversed(chain)), subscripted,
                None if starred else len(node.args),
                tuple(kw.arg for kw in node.keywords if kw.arg is not None),
            ))
    return sorted(calls)


@pytest.mark.parametrize(
    "call", _perfbench_calls(), ids=lambda c: f"{c[0]}:{c[1]}:{c[2]}.{'.'.join(c[3])}"
)
def test_perfbench_call_arguments_bind(call):
    _, _, module, chain, subscripted, positional, keywords = call
    obj = _import(module, chain[0])
    for attr in chain[1:]:
        obj = getattr(obj, attr)
    # a call of an item of a mapping may reach any of its values
    callees = list(obj.values()) if subscripted else [obj]
    for callee in callees:
        args = [None] * (positional or 0)
        inspect.signature(callee).bind_partial(*args, **dict.fromkeys(keywords))


@pytest.mark.parametrize("name", sorted(limits.PRESETS))
def test_every_preset_accepts_m_0(name):
    # exact_theory builds its degenerate scenarios as PRESETS[name](m=0)
    scenario = limits.PRESETS[name](m=0)
    assert scenario.m == 0
