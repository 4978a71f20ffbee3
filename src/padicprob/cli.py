"""Command-line frontend: reproducible experiments with machine-readable
CSV/JSON reports.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
tolerance or verdict failure (so CI can gate on it).  Every output file
embeds the effective configuration, seed, and package version.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .charfn import HaarUniform, PointMass, StableLaw, StableParams, Transform
from .errors import PrecisionError, ToleranceError
from .levy import (
    INVERT_TOL,
    PROBE_DEPTH,
    SEARCH_RADIUS_EXP,
    JumpMeasure,
    LevyExponent,
    classify_two_valued,
    invert_exponent,
    measure_mass,
)
from .limits import convergence_report, preset_spec
from .padic import PAdicNumber, format_padic, grid_points, parse_number
from .sets import Ball
from .specs import (
    _ANNULUS_RE,
    SpecValidationError,
    law_from_spec,
    measure_from_spec,
    parse_rational,
    parse_set_literal,
    scenario_from_spec,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3


def _seed(text: str) -> int:
    """argparse type of --seed, and the check of PADICPROB_SEED: an
    integer of at least 0, as numpy's seed streams take."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"need a seed of at least 0, got {n}")
    return n


def _default_seed(args_seed: int | None, default: int) -> int:
    """--seed when given, else PADICPROB_SEED when set, else ``default``."""
    if args_seed is not None:
        return args_seed
    env = os.environ.get("PADICPROB_SEED")
    if not env:
        return default
    try:
        return _seed(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"PADICPROB_SEED={env!r}: {exc}") from None


def _worker_count(text: str) -> int:
    """argparse type of --workers: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {n}")
    return n


def _meta(seed: int | None, config: dict) -> dict:
    out = {"version": __version__, "config": config}
    if seed is not None:
        out["seed"] = seed
    return out


def _write_csv(path: Path, meta: dict, rows: list[dict]) -> None:
    fields: list[str] = []
    for r in rows:
        for k in r:
            if k not in fields:
                fields.append(k)
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True, default=str) + "\n")
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in r.items()})


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fmt_value(v: complex) -> str:
    if abs(v.imag) < 1e-14:
        return f"{v.real:.15g}"
    return f"{v.real:.15g}{v.imag:+.15g}j"


def _stable_from_kv(text: str) -> StableLaw:
    """The stable law of a=..,alpha=..,p=..: each key once, and no other."""
    kv = {}
    for part in text.split(","):
        key, sep, val = (s.strip() for s in part.partition("="))
        if not sep:
            raise SpecValidationError(f"expected key=value, got {part!r}")
        if key in kv:
            raise SpecValidationError(f"stable law repeats {key}")
        kv[key] = val
    for key in ("a", "alpha", "p"):
        if key not in kv:
            raise SpecValidationError(f"stable law needs {key}")
    if unread := sorted(set(kv) - {"a", "alpha", "p"}):
        raise SpecValidationError(f"stable law does not read {', '.join(unread)}")
    return StableLaw(StableParams(float(kv["a"]), float(kv["alpha"]), int(kv["p"])))


def _cf_from_args(args) -> Transform:
    """The transform named by the --stable or --measure flag."""
    if args.stable:
        return _stable_from_kv(args.stable)
    if args.measure:
        return JumpMeasure(measure_from_spec(_load_json(args.measure)))
    raise SpecValidationError("need --stable or --measure")


def _evaluate(args, fn, p: int, config: dict) -> int:
    """Evaluate fn at the --t points and on the --grid of p, print each
    value and write them all to the --out CSV."""
    ts: list[PAdicNumber] = [parse_number(s) for s in args.t or []]
    if args.grid:
        lo, _, hi = args.grid.partition(":")
        ts.extend(grid_points(p, int(lo), int(hi)))
    if not ts:
        raise SpecValidationError("no evaluation points: pass --t or --grid")
    rows = []
    for t in ts:
        val = complex(fn(t))
        rows.append(
            {"t": str(t.as_rational()), "abs_t": str(t.abs_value()),
             "re": val.real, "im": val.imag}
        )
        print(_fmt_value(val))
    if args.out:
        _write_csv(Path(args.out), _meta(None, config), rows)
    return EXIT_OK


def cmd_cf_eval(args) -> int:
    g = _cf_from_args(args)
    config = {"command": "cf-eval", "stable": args.stable, "measure": args.measure}
    return _evaluate(args, g, g.prime, config)


def cmd_sample(args) -> int:
    from .samplers import substream

    spec = _load_json(args.sampler) if os.path.exists(args.sampler) else json.loads(args.sampler)
    sampler = law_from_spec(spec).sampler
    seed = _default_seed(args.seed, 0)
    rng = substream(seed, 0)
    draws = sampler.sample(rng, args.count)
    header = json.dumps(
        {
            "p": sampler.prime,
            "resolution": sampler.resolution,
            "seed": seed,
            "count": args.count,
            "sampler": spec,
            "version": __version__,
        },
        sort_keys=True,
    )
    lines = [format_padic(x) for x in draws]
    text = "# " + header + "\n" + "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_levy_exponent(args) -> int:
    measure = measure_from_spec(_load_json(args.measure))
    config = {"command": "levy-exponent", "measure": args.measure}
    return _evaluate(args, LevyExponent(measure), measure.prime, config)


def cmd_levy_invert(args) -> int:
    measure = measure_from_spec(_load_json(args.measure))
    p = measure.prime
    m = _ANNULUS_RE.match(args.set)
    if not m:
        raise SpecValidationError(
            "inversion runs on annuli: use annulus(<i>,<l>) or annulus(<i>,inf)"
        )
    i = int(m.group(1))
    l = None if m.group(2) == "inf" else int(m.group(2))
    phi = LevyExponent(measure)
    recovered = invert_exponent(phi, i, l, p, tol=args.tol)
    region = parse_set_literal(args.set, p)
    exact = float(measure_mass(measure, region))
    resid = abs(recovered - exact) / max(abs(exact), 1e-30)
    print(f"recovered {recovered:.12g}")
    print(f"exact     {exact:.12g}")
    print(f"relative residual {resid:.3e}")
    if args.check is not None and resid > args.check:
        print(f"FAIL: residual exceeds {args.check:g}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = args.cf.strip()
    p = args.p
    if spec == "omega0":
        spec = "omega:0"
    kind, sep, arg = spec.partition(":")
    if not sep or kind not in ("omega", "delta", "stable", "measure"):
        raise SpecValidationError(f"unknown cf spec {spec!r}")
    if kind in ("omega", "delta") and p is None:
        raise SpecValidationError(f"{kind} classification needs --p")
    if kind == "omega":
        g = HaarUniform(Ball(p, 0, -int(arg)))
    elif kind == "delta":
        xi = parse_rational(arg)
        g = PointMass(PAdicNumber.from_rational(xi, p=p) if xi else PAdicNumber.zero(p))
    elif kind == "stable":
        g = _stable_from_kv(arg)
    else:
        g = JumpMeasure(measure_from_spec(_load_json(arg)))
    form = classify_two_valued(
        g, g.prime, search_radius_exp=args.radius, probe_depth=args.depth
    )
    if form.kind == "delta":
        print(f"delta xi={form.xi.as_rational()}")
    elif form.kind == "haar_cutoff":
        print(f"haar_cutoff xi={form.xi.as_rational()} N={form.cutoff_exp}")
    else:
        print("not_two_valued")
    return EXIT_OK


def cmd_limit_verify(args) -> int:
    # a preset is its scenario document, run as a --config of it
    if args.preset:
        config = preset_spec(args.preset)
    elif args.config:
        config = _load_json(args.config)
    else:
        raise SpecValidationError("pass --config FILE or --preset NAME")
    scenario = scenario_from_spec(config)
    scenario.seed = _default_seed(args.seed, scenario.seed)
    report = convergence_report(scenario, workers=args.workers)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    base = scenario.name.replace(" ", "_")
    meta = _meta(scenario.seed, config)
    meta["effective"] = report.effective
    _write_csv(out_dir / f"{base}.csv", meta, report.csv_rows())
    _write_json(
        out_dir / f"{base}.json",
        {**report.json_summary(), "version": __version__},
    )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} {scenario.name}: verdicts={report.verdicts}")
    print(f"wrote {out_dir / (base + '.csv')} and {out_dir / (base + '.json')}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_selftest(args) -> int:
    from .selftest import DEFAULT_SEED, run_selftest

    seed = _default_seed(args.seed, DEFAULT_SEED)
    results, report = run_selftest(
        filter_substr=args.filter,
        seed=seed,
        negative_control=args.negative_control,
        workers=args.workers,
    )
    for r in results:
        print(r.line())
    if args.out:
        _write_json(Path(args.out), report)
        print(f"wrote {args.out}")
    return EXIT_OK if report["all_passed"] else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicprob",
        description="exact p-adic probability experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    cf = sub.add_parser("cf-eval", help="evaluate a characteristic function")
    cf.add_argument("--stable", help="a=..,alpha=..,p=..")
    cf.add_argument("--measure", help="measure spec JSON file")
    cf.add_argument("--t", action="append", help="point literal (repeatable)")
    cf.add_argument("--grid", help="k_lo:k_hi sphere-exponent range")
    cf.add_argument("--out", help="CSV output path")
    cf.set_defaults(fn=cmd_cf_eval)

    sp = sub.add_parser("sample", help="draw from a sampler spec")
    sp.add_argument("--sampler", required=True, help="JSON file or inline JSON")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=_seed)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sample)

    le = sub.add_parser("levy-exponent", help="evaluate the jump exponent")
    le.add_argument("--measure", required=True)
    le.add_argument("--t", action="append")
    le.add_argument("--grid")
    le.add_argument("--out")
    le.set_defaults(fn=cmd_levy_exponent)

    li = sub.add_parser("levy-invert", help="recover a mass from the exponent")
    li.add_argument("--measure", required=True)
    li.add_argument("--set", required=True, help="annulus(<i>,<l>) or annulus(<i>,inf)")
    li.add_argument("--tol", type=float, default=INVERT_TOL)
    li.add_argument("--check", type=float, default=None,
                    help="exit 3 if the relative residual exceeds this")
    li.set_defaults(fn=cmd_levy_invert)

    cl = sub.add_parser("classify", help="two-valued classification of a transform")
    cl.add_argument("--cf", required=True,
                    help="omega0 | omega:<N> | delta:<rational> | "
                         "stable:a=..,alpha=..,p=.. | measure:<file>")
    cl.add_argument("--p", type=int)
    cl.add_argument("--radius", type=int, default=SEARCH_RADIUS_EXP)
    cl.add_argument("--depth", type=int, default=PROBE_DEPTH)
    cl.set_defaults(fn=cmd_classify)

    lv = sub.add_parser("limit-verify", help="run a convergence scenario")
    lv.add_argument("--config", help="scenario JSON file")
    lv.add_argument("--preset", help="named preset scenario")
    lv.add_argument("--out", help="output directory")
    lv.add_argument("--seed", type=_seed)
    lv.add_argument("--workers", type=_worker_count, default=1)
    lv.set_defaults(fn=cmd_limit_verify)

    st = sub.add_parser("selftest", help="run the acceptance battery")
    st.add_argument("--filter", help="substring filter on criterion id or tags")
    st.add_argument("--seed", type=_seed)
    st.add_argument("--negative-control", action="store_true",
                    help="corrupt one tolerance to prove failures are detected")
    st.add_argument("--workers", type=_worker_count, default=1)
    st.add_argument("--out", help="JSON report path")
    st.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecValidationError, ValueError, KeyError, OSError,
            json.JSONDecodeError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
