"""The names the benchmark in perfbench/ reads from padicprob still resolve.

A traced run (``perfbench/run.py --trace 1``) wraps every entry of
``perfbench/tracing.TARGETS``, the workloads clear or read a few memos by
name, and ``limit_mc`` drives the CLI with a fixed argv; perfbench's own
tests are not in this suite, so a rename here would otherwise break the
benchmark unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from padicprob import charfn, cli
from padicprob.levy import make_example_measure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
