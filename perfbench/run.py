"""padicprob benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports padicprob from ``src/``
and reads ``configs/``.  With ``--trace 0`` it times passes for S seconds
with nothing wrapped and reports the end-to-end metrics: ``pass_s`` (median
pass time), ``setup_s`` (median over fresh processes of importing
padicprob and building the workload's inputs) and ``peak_rss_mb`` (this
process).  ``pass_s`` and ``setup_s`` are rescaled to a fixed host speed
with a reference kernel timed next to them (see reference_kernel); the
wall-clock figures are printed as well.  With ``--trace 1`` it times S/2 seconds untraced, then S/2
seconds with padicprob's layers wrapped (see tracing.py), and reports the
per-layer metrics and the tracing overhead.

Every pass is checked; ``attempted``/``failed`` count named checks and
the exit code is 1 when any fails.  ``--negative-control`` damages one
output per pass, so the run must fail.  The last line of standard output
is the JSON result; the lines before it give quartiles, sample counts,
``fail_frac`` and run metadata.

No memo outlives a pass: every ``functools`` cache in padicprob is
cleared before each pass, each pass builds its own ``LevyExponent``
objects (directly or through the CLI), and the compound-Poisson workload
clears its sampler's power memo (see workloads.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

WORKLOAD_NAMES = ("limit_mc", "cp_fidelity", "exact_theory")
SETUP_PROBES = 5
MIN_PASSES = 3
REQUIRED_FILES = (
    "src/padicprob/__init__.py",
    "configs/stable_limit.json",
    "configs/custom_measure.json",
)


# pass_s and setup_s are seconds on a machine where reference_kernel()
# takes REF_KERNEL_S; see reference_kernel.
REF_KERNEL_S = 0.1


def reference_kernel():
    """Fixed pure-Python work of the kind padicprob's inner loops do:
    Fraction sums, 76-bit modular products and dict updates.

    It uses nothing from padicprob, so a change to the program cannot move
    it, but a slower host moves it with the workload: timed next to the
    passes, it rescales wall times to a fixed host speed.  On 2 shared
    vCPUs the host's speed drifted by up to 1.8x within an hour, and
    wall-clock medians of ten runs spread by 0.18 to 0.29 of their median.
    """
    acc = Fraction(0)
    counts: dict[int, int] = {}
    x = 1
    for i in range(1, 40000):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        x = (x * 1000003 + i) % 3**48
        counts[x % 1024] = counts.get(x % 1024, 0) + 1
    return acc, len(counts)


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="damage one output per pass; the run must fail")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "padicprob" or name.startswith("padicprob."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def at_reference_speed(times: list[float], kernel: list[float]) -> list[float]:
    """Each time rescaled by the mean of the kernel timings taken just
    before and just after it (``kernel`` has one more entry)."""
    return [
        t * 2 * REF_KERNEL_S / (kernel[i] + kernel[i + 1])
        for i, t in enumerate(times)
    ]


def measure(wl, state, seconds: float, corrupt: bool):
    """Passes for ``seconds`` (at least MIN_PASSES), with the reference
    kernel timed before each pass and after the last.  Returns the pass
    times, the kernel times, per-pass (output bytes, checks) and the
    radial-cache (hits, misses) summed over the passes."""
    from padicprob import charfn

    times, kernel, outputs = [], [], []
    hits = misses = 0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        kernel.append(time_kernel())
        clear_caches()
        start = time.perf_counter()
        try:
            result = wl.run(state)
        except (Exception, SystemExit):
            traceback.print_exc()
            result = None
        times.append(time.perf_counter() - start)
        info = charfn._measure_radial_value.cache_info()
        hits += info.hits
        misses += info.misses
        try:
            if result is None:
                raise RuntimeError("pass raised")
            outputs.append(wl.evaluate(state, result, corrupt))
        except Exception:
            traceback.print_exc()
            outputs.append((None, dict.fromkeys(wl.checks, False)))
    kernel.append(time_kernel())
    return times, kernel, outputs, (hits, misses)


def tally(outputs):
    """Counts attempted and failed checks over all passes.  Every pass
    after the first must repeat the first pass's output bytes."""
    first = outputs[0][0]
    attempted = 0
    failed: dict[str, int] = {}
    for i, (data, checks) in enumerate(outputs):
        checks = dict(checks)
        if i:
            checks["identical_to_first_pass"] = data is not None and data == first
        attempted += len(checks)
        for name, ok in checks.items():
            if not ok:
                failed[name] = failed.get(name, 0) + 1
    return attempted, failed


def probe_setup(args, root: Path) -> tuple[list[float], list[float]]:
    """setup_s samples, each from a fresh interpreter, with the reference
    kernel timed before each probe and after the last.  Returns both lists
    of times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    samples, kernel = [], []
    for _ in range(SETUP_PROBES):
        kernel.append(time_kernel())
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    kernel.append(time_kernel())
    return samples, kernel


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _line_count(root: Path, sub: str) -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted((root / sub).rglob("*.py"))
    )


def run_metadata(root: Path) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "lines": {"src": _line_count(root, "src"),
                  "tests": _line_count(root, "tests")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [f for f in REQUIRED_FILES if not (root / f).is_file()]
    if missing:
        print(f"error: run from a padicprob checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(root / "src")]
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            start = time.perf_counter()
            import workloads

            workloads.WORKLOADS[args.workload].setup(root, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        return measure_and_report(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure_and_report(args, root: Path, workdir: Path) -> int:
    if args.trace == 0:
        setup_samples, setup_kernel = probe_setup(args, root)

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(root, args.seed, workdir)
    corrupt = args.negative_control
    if args.trace == 0:
        times, kernel, outputs, _ = measure(wl, state, args.seconds, corrupt)
    else:
        plain, _, outputs, _ = measure(wl, state, args.seconds / 2, corrupt)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times, _, traced_outputs, cache = measure(
                wl, state, args.seconds / 2, corrupt
            )
        finally:
            tracer.uninstall()
        outputs += traced_outputs
    attempted, failed = tally(outputs)
    n_failed = sum(failed.values())

    lines = []
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        stats = {
            "pass_s": summary(at_reference_speed(times, kernel)),
            "setup_s": summary(at_reference_speed(setup_samples, setup_kernel)),
            "pass_wall_s": summary(times),
            "setup_wall_s": summary(setup_samples),
            "kernel_s": summary(kernel + setup_kernel),
        }
        for name, s in stats.items():
            lines.append(f"{name:<12} median {s['median']:.4f} s  "
                         f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
        for name in ("pass_s", "setup_s"):
            metrics[name] = {"value": stats[name]["median"], "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"{'peak_rss_mb':<12} {rss:.1f} MB (this process)")
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    else:
        untraced, traced = summary(plain), summary(times)
        overhead = traced["median"] / untraced["median"] - 1.0
        for label, s in (("untraced", untraced), ("traced", traced)):
            lines.append(f"pass_s {label:<9} median {s['median']:.4f} s  "
                         f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
        for name, (value, unit) in tracing.layer_metrics(
            tracer, len(times), cache, overhead
        ).items():
            lines.append(f"{name:<34} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    lines.append(f"{'fail_frac':<12} {n_failed / attempted:.6g} "
                 f"({n_failed} of {attempted} checks failed)")
    for name, count in sorted(failed.items()):
        lines.append(f"  failed {name} x{count}")
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "negative_control": corrupt,
            **run_metadata(root)}
    print("\n".join(lines))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
