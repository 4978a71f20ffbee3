"""Outside-in tracing of padicprob's layers, used only in traced runs.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: calls, total
time and self time (the span minus the time of wrapped calls it
covers).  A module-level function is replaced in every padicprob module
that imported it by name, so internal calls are traced as well.
``uninstall()`` restores every original object.

Spans are kept only in this process: with ``--workers`` above 1, pool
workers would inherit the wrappers but their spans would not be counted.
No workload runs a pool.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, class or None, attribute)
TARGETS = (
    ("padic.mul", "padic", "PAdicNumber", "__mul__"),
    ("padic.add", "padic", "PAdicNumber", "__add__"),
    ("padic.mul_rational", "padic", "PAdicNumber", "mul_rational"),
    ("padic.phase", "padic", "PAdicNumber", "character_phase"),
    ("padic.from_rational", "padic", "PAdicNumber", "from_rational"),
    ("sets.contains", "sets", "Ball", "contains"),
    ("sets.integrate_char", "sets", None, "integrate_char_exact"),
    ("charfn.radial_draw", "charfn", "RadialSampler", "draw"),
    ("charfn.cp_draw", "charfn", "CompoundPoissonSampler", "draw"),
    ("charfn.poisson_draw", "charfn", None, "poisson_draw"),
    ("charfn.ball_probability", "charfn", None, "ball_probability"),
    ("charfn.sphere_masses", "charfn", None, "sphere_masses"),
    ("levy.exponent", "levy", "LevyExponent", "exact"),
    ("levy.exponent_exact", "levy", None, "levy_exponent_exact"),
    ("levy.invert", "levy", None, "invert_exponent"),
    ("levy.classify", "levy", None, "classify_two_valued"),
    ("levy.measure_mass", "levy", None, "measure_mass"),
    ("limits.report", "limits", None, "convergence_report"),
    ("limits.simulate_sums", "limits", None, "simulate_sums"),
    ("limits.theory", "limits", None, "theoretical_fn"),
    ("specs.scenario_from_spec", "specs", None, "scenario_from_spec"),
    ("cli", "cli", None, "main"),
)


# spans whose calls also feed a counter in Tracer._count_call
COUNTED = frozenset(
    ("charfn.poisson_draw", "limits.simulate_sums", "levy.exponent_exact")
)


class Tracer:
    def __init__(self):
        # name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _count_call(self, name: str, args, result) -> None:
        """Counters that need a call's arguments, result or parent span."""
        if name == "charfn.poisson_draw":
            self.counts["cp.jumps"] += result
        elif name == "limits.simulate_sums":
            _, scheme, n = args[:3]
            self.counts["summands"] += scheme.k(n) * len(result)
        elif name == "levy.exponent_exact":
            if self._stack and self._stack[-1][1] == "levy.exponent":
                self.counts["exponent.misses"] += 1

    def wrap(self, name: str, fn):
        from padicprob.errors import PrecisionError

        stats = self.spans[name]
        stack = self._stack
        count_call = self._count_call if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, name]  # [child ns, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except PrecisionError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.counts["precision_errors"] += 1
                raise
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if count_call is not None:
                count_call(name, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "padicprob" and not modname.startswith("padicprob."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, modname, clsname, attr in TARGETS:
            module = importlib.import_module("padicprob." + modname)
            if clsname is None:
                self._replace_everywhere(
                    getattr(module, attr), self.wrap(name, getattr(module, attr))
                )
                continue
            cls = getattr(module, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def layer_metrics(
    tracer: Tracer, passes: int, radial_cache: tuple[int, int], overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass.  ``*.calls`` are calls per pass,
    ``*.ns`` self nanoseconds per call, ``*.s``/``*.self_s`` seconds per
    pass.  ``radial_cache`` is (hits, misses) summed over the passes."""
    spans, counts = tracer.spans, tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def calls_ns(metric: str, span: str) -> None:
        calls, _, self_ns = spans[span]
        out[metric + ".calls"] = (calls / passes, "count")
        out[metric + ".ns"] = (self_ns / calls if calls else 0.0, "ns")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for metric in ("padic.mul", "padic.add", "padic.mul_rational",
                   "padic.phase", "padic.from_rational"):
        calls_ns(metric, metric)
    out["padic.precision_errors"] = (counts["precision_errors"] / passes, "count")
    calls_ns("sets.contains", "sets.contains")
    calls_ns("sets.integrate_char", "sets.integrate_char")
    calls_ns("charfn.radial_draw", "charfn.radial_draw")
    calls_ns("charfn.cp_draw", "charfn.cp_draw")
    out["charfn.cp.jumps_per_draw"] = (
        ratio(counts["cp.jumps"], spans["charfn.cp_draw"][0]), "jumps/draw"
    )
    calls_ns("charfn.ball_probability", "charfn.ball_probability")
    out["charfn.sphere_masses.s"] = (spans["charfn.sphere_masses"][1] / passes / 1e9, "s")
    hits, misses = radial_cache
    out["charfn.radial_cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    calls_ns("levy.exponent_exact", "levy.exponent_exact")
    exact_calls = spans["levy.exponent"][0]
    out["levy.exponent.hit_ratio"] = (
        ratio(exact_calls - counts["exponent.misses"], exact_calls), "ratio"
    )
    calls_ns("levy.invert", "levy.invert")
    calls_ns("levy.classify", "levy.classify")
    calls_ns("levy.measure_mass", "levy.measure_mass")
    out["limits.report.self_s"] = (spans["limits.report"][2] / passes / 1e9, "s")
    out["limits.simulate_sums.self_s"] = (
        spans["limits.simulate_sums"][2] / passes / 1e9, "s"
    )
    out["limits.summands"] = (counts["summands"] / passes, "count")
    calls_ns("limits.theory", "limits.theory")
    out["specs.scenario_from_spec.s"] = (
        spans["specs.scenario_from_spec"][1] / passes / 1e9, "s"
    )
    out["cli.self_s"] = (spans["cli"][2] / passes / 1e9, "s")
    out["trace.overhead"] = (overhead, "ratio")
    return out
