import inspect
import json
import math
from pathlib import Path

import pytest

from padicprob import limits
from padicprob.cli import build_parser, main
from padicprob.levy import classify_two_valued, invert_exponent

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cf_eval_stable(capsys):
    code, out, _ = run(
        ["cf-eval", "--stable", "a=1,alpha=1,p=2", "--t", "1/1 @ p=2"], capsys
    )
    assert code == 0
    assert out.strip() == f"{math.exp(-1):.15g}"


def test_cf_eval_measure_file(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"stable": {"a": 1, "alpha": 1, "p": 2}}))
    code, out, _ = run(
        ["cf-eval", "--measure", str(mfile), "--t", "1/4 @ p=2"], capsys
    )
    assert code == 0
    assert abs(float(out.strip()) - math.exp(-4.0)) < 1e-12


def test_cf_eval_needs_points(capsys):
    code, _, err = run(["cf-eval", "--stable", "a=1,alpha=1,p=2"], capsys)
    assert code == 2
    assert "error" in err


def test_unreadable_config_exits_2(capsys):
    code, _, err = run(["cf-eval", "--measure", "/nonexistent.json", "--t", "1/1 @ p=2"], capsys)
    assert code == 2


def test_invalid_measure_schema_exits_2(tmp_path, capsys):
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps({"stable": {"a": 1, "alpha": 1, "p": 2}, "extra": 1}))
    code, _, err = run(
        ["cf-eval", "--measure", str(mfile), "--t", "1/1 @ p=2"], capsys
    )
    assert code == 2


def test_classify_omega0(capsys):
    code, out, _ = run(
        ["classify", "--cf", "omega0", "--p", "2", "--radius", "6", "--depth", "8"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "haar_cutoff xi=0 N=0"


def test_classify_delta(capsys):
    code, out, _ = run(["classify", "--cf", "delta:1/2", "--p", "2"], capsys)
    assert code == 0
    assert out.strip() == "delta xi=1/2"


@pytest.mark.parametrize("args, depth", [
    (["--cf", "delta:1/512", "--p", "2"], 8),
    (["--cf", "delta:1/2", "--p", "2", "--depth", "0"], 0),
    (["--cf", f"delta:1/{2**30}", "--p", "2"], 8),
    (["--cf", f"delta:1/{2**41}", "--p", "2"], 8),
])
def test_classify_a_point_below_the_probe_depth_exits_2(args, depth, capsys):
    # xi = 2**-9 and 2**-30 at depth 8, and 1/2 at depth 0, have a digit
    # no probed sphere reads: each printed "delta xi=0" and exited 0.
    # 2**-41 still did, as the float probe did not see its digit
    code, out, err = run(["classify", *args], capsys)
    assert code == 2 and out == ""
    assert f"below the probe depth {depth}" in err


def test_classify_a_point_at_the_probe_depth(capsys):
    code, out, _ = run(["classify", "--cf", "delta:1/256", "--p", "2"], capsys)
    assert code == 0
    assert out.strip() == "delta xi=1/256"


def test_levy_invert_check(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"stable": {"a": 1, "alpha": 1, "p": 2}}))
    code, out, _ = run(
        ["levy-invert", "--measure", str(mfile), "--set", "annulus(0,2)",
         "--check", "1e-9"],
        capsys,
    )
    assert code == 0
    assert "recovered" in out
    # absurd tolerance forces the tolerance exit code
    code2, _, err = run(
        ["levy-invert", "--measure", str(mfile), "--set", "annulus(0,inf)",
         "--tol", "1e-6", "--check", "1e-18"],
        capsys,
    )
    assert code2 == 3


def test_classify_empty_probe_range_exits_2(capsys):
    code, out, err = run(
        ["classify", "--cf", "stable:a=1,alpha=1,p=2", "--radius", "-9",
         "--depth", "8"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "probes no sphere" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_levy_invert_tolerance_not_positive_exits_2(tol, capsys):
    code, out, err = run(
        ["levy-invert", "--measure", str(CONFIG_DIR / "custom_measure.json"),
         "--set", "annulus(0,2)", "--tol", tol],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be > 0")


def test_cli_defaults_are_the_library_defaults():
    # the parser states no default of its own: each is levy's constant
    parser = build_parser()
    invert = parser.parse_args(["levy-invert", "--measure", "m.json", "--set", "annulus(0,1)"])
    classify = parser.parse_args(["classify", "--cf", "omega0"])
    assert invert.tol == inspect.signature(invert_exponent).parameters["tol"].default == 1e-10
    defaults = inspect.signature(classify_two_valued).parameters
    assert (classify.radius, classify.depth) == (
        defaults["search_radius_exp"].default, defaults["probe_depth"].default
    ) == (6, 8)


def test_sample_dump_format_and_determinism(tmp_path, capsys):
    spec = json.dumps(
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": 0,
         "resolution": -6}
    )
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for f in (f1, f2):
        code, _, _ = run(
            ["sample", "--sampler", spec, "--count", "20", "--seed", "9",
             "--out", str(f)],
            capsys,
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["seed"] == 9 and header["count"] == 20 and header["p"] == 2
    assert all("* [" in ln for ln in lines[1:])


def test_levy_exponent_cli(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"stable": {"a": 1, "alpha": 1, "p": 2}}))
    code, out, _ = run(
        ["levy-exponent", "--measure", str(mfile), "--t", "1/1 @ p=2"], capsys
    )
    assert code == 0
    assert out.strip() == "-1"


def test_limit_verify_config(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    cfg["m"] = 300
    cfg["n_list"] = [0, 2]
    cfg["tolerances"] = {"phi_final": 0.1}
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out1"
    code, out, _ = run(
        ["limit-verify", "--config", str(cfile), "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert "PASS" in out
    csv_path = out_dir / "stable-limit-example.csv"
    json_path = out_dir / "stable-limit-example.json"
    assert csv_path.exists() and json_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("# ")
    meta = json.loads(header[2:])
    assert meta["seed"] == 7 and "config" in meta
    # byte-identical on repeat, including with parallel workers
    out_dir2 = tmp_path / "out2"
    code, _, _ = run(
        ["limit-verify", "--config", str(cfile), "--out", str(out_dir2),
         "--workers", "2"],
        capsys,
    )
    assert code == 0
    assert (out_dir2 / "stable-limit-example.csv").read_bytes() == csv_path.read_bytes()
    assert (out_dir2 / "stable-limit-example.json").read_bytes() == json_path.read_bytes()


def test_limit_verify_unknown_keys_rejected(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    cfg["surprise"] = True
    cfile = tmp_path / "bad.json"
    cfile.write_text(json.dumps(cfg))
    code, _, err = run(["limit-verify", "--config", str(cfile)], capsys)
    assert code == 2
    assert "invalid" in err


def test_limit_verify_preset(tmp_path, capsys):
    code, out, _ = run(
        ["limit-verify", "--preset", "bounded_normalizers", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "PASS" in out


def _limit_verify_summary(spec: dict, tmp_path, capsys) -> tuple[int, dict]:
    """limit-verify on the scenario document ``spec``: its exit code and
    the JSON summary it writes."""
    cfile = tmp_path / "scenario.json"
    cfile.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    code, _, _ = run(["limit-verify", "--config", str(cfile), "--out", str(out_dir)], capsys)
    return code, json.loads((out_dir / f"{spec['name']}.json").read_text())


# Two-valued targets the sums do not converge to: those of beta_one go to
# the point mass at 0, not at 1, and those of bounded_normalizers to the
# uniform law on Z_3, not on 9 Z_3.  A verdict that compared only the
# classified kind with one a label expected passed both.
WRONG_TARGETS = {
    "beta_one": {"kind": "point_mass", "xi": "1 @ p=3"},
    "bounded_normalizers": {"kind": "haar_ball", "p": 3, "center": "0", "radius_exp": -2},
}


@pytest.mark.parametrize("m", [0, 800])
@pytest.mark.parametrize("preset", sorted(WRONG_TARGETS))
def test_a_wrong_two_valued_target_exits_3(preset, m, tmp_path, capsys):
    spec = {**limits.preset_spec(preset), "target": WRONG_TARGETS[preset], "m": m}
    code, summary = _limit_verify_summary(spec, tmp_path, capsys)
    assert code == 3
    assert summary["verdicts"]["degenerate_verdict"] is False


@pytest.mark.parametrize("xi, code", [("1/3", 0), ("2/3", 3)])
def test_a_point_mass_target_is_compared_digit_by_digit(xi, code, tmp_path, capsys):
    # S_0 = X = 1/3 over p = 3, whose digit at 3**-1 the probe reads
    spec = {
        "name": "third",
        "law": {"kind": "point_mass", "xi": "1/3 @ p=3"},
        "scheme": {"mode": "explicit", "p": 3, "b_list": ["1"], "k_list": [1]},
        "target": {"kind": "point_mass", "xi": f"{xi} @ p=3"},
        "m": 0, "seed": 1, "n_list": [0],
    }
    got, summary = _limit_verify_summary(spec, tmp_path, capsys)
    assert got == code
    assert summary["degenerate"] == "delta"
    assert summary["verdicts"] == {"degenerate_verdict": code == 0}


# Two-valued laws whose form the float probe could not read at its depth
# 6: a point 7 places below it, and a cutoff 7 below it.  Each document
# exited 2; the report now decides the matching target and its twin.
UNREAD_FORMS = {
    "point_mass": (
        {"kind": "point_mass", "xi": "1/2187 @ p=3"},
        {"kind": "point_mass", "xi": "2/2187 @ p=3"},
    ),
    "haar_ball": (
        {"kind": "haar_ball", "p": 3, "center": "0", "radius_exp": 7},
        {"kind": "haar_ball", "p": 3, "center": "0", "radius_exp": 8},
    ),
}


@pytest.mark.parametrize("wrong", [False, True])
@pytest.mark.parametrize("kind", sorted(UNREAD_FORMS))
def test_a_form_below_the_former_probe_depth_is_decided(kind, wrong, tmp_path, capsys):
    law, twin = UNREAD_FORMS[kind]
    spec = {
        "name": kind,
        "law": law,
        "scheme": {"mode": "explicit", "p": 3, "b_list": ["1"], "k_list": [1]},
        "target": twin if wrong else law,
        "m": 0, "seed": 1, "n_list": [0],
    }
    code, summary = _limit_verify_summary(spec, tmp_path, capsys)
    assert code == (3 if wrong else 0)
    assert summary["verdicts"]["degenerate_verdict"] is not wrong


def test_custom_measure_config_roundtrip(capsys):
    mfile = CONFIG_DIR / "custom_measure.json"
    code, out, _ = run(
        ["levy-invert", "--measure", str(mfile), "--set", "annulus(0,2)",
         "--check", "1e-8"],
        capsys,
    )
    assert code == 0


def test_selftest_filter_and_negative_control(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        ["selftest", "--filter", "c3", "--out", str(report)], capsys
    )
    assert code == 0
    assert "[PASS] c3" in out
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    (c3,) = payload["criteria"]
    assert 0 < c3["runtime_s"] < c3["limit_s"]
    assert set(c3["metrics"]) == {"max_error"}
    code2, out2, _ = run(
        ["selftest", "--filter", "c3", "--negative-control"], capsys
    )
    assert code2 == 3
    assert "[FAIL] c3" in out2


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    spec = json.dumps(
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": 0,
         "resolution": -6}
    )
    monkeypatch.setenv("PADICPROB_SEED", "123")
    f = tmp_path / "dump.txt"
    code, _, _ = run(
        ["sample", "--sampler", spec, "--count", "5", "--out", str(f)], capsys
    )
    assert code == 0
    header = json.loads(f.read_text().splitlines()[0][2:])
    assert header["seed"] == 123


def test_cf_eval_prime_mismatch_exits_2(capsys):
    code, out, err = run(
        ["cf-eval", "--stable", "a=1,alpha=1,p=2", "--t", "1 @ p=3"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_cf_eval_zero_denominator_exits_2(capsys):
    code, out, err = run(
        ["cf-eval", "--stable", "a=1,alpha=1,p=2", "--t", "1/0 @ p=2"], capsys
    )
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


_HUGE_STABLE = {"kind": "radial_stable", "a": 1.0, "alpha": 30, "p": 2}


@pytest.mark.parametrize("command", ["sample", "cf-eval", "limit-verify"])
def test_a_stable_law_past_the_float_range_keeps_the_exit_contract(command, tmp_path, capsys):
    # exp(-a |t|**alpha) at alpha = 30: p**(alpha * k) left the float
    # range, and each command exited 1 with an OverflowError traceback
    if command == "sample":
        args = ["sample", "--sampler", json.dumps(_HUGE_STABLE), "--count", "3"]
    elif command == "cf-eval":
        args = ["cf-eval", "--stable", "a=1,alpha=30,p=2", "--t", f"1/{2**40} @ p=2"]
    else:
        config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
        config.update(law=_HUGE_STABLE, target=None, m=40, n_list=[0])
        config["scheme"]["beta"] = f"1/{2**30}"
        (tmp_path / "huge.json").write_text(json.dumps(config))
        args = ["limit-verify", "--config", str(tmp_path / "huge.json"), "--out", str(tmp_path)]
    code, out, err = run(args, capsys)
    assert (code, err) == (0, "")
    if command == "cf-eval":
        assert out == "0\n"


def test_sample_negative_count_exits_2(tmp_path, capsys):
    spec = json.dumps(
        {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": 0,
         "resolution": -6}
    )
    f = tmp_path / "dump.txt"
    code, _, err = run(
        ["sample", "--sampler", spec, "--count", "-5", "--out", str(f)], capsys
    )
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not f.exists()


@pytest.mark.parametrize("command", [
    ["limit-verify", "--preset", "beta_one"],
    ["selftest", "--filter", "no-such-criterion"],
])
@pytest.mark.parametrize("workers", ["0", "-2", "1.5", "two"])
def test_workers_below_one_rejected_at_parse_time(command, workers, tmp_path, capsys):
    # a worker count below 1 once ran serially and exited 0
    out = ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([*command, *out, "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


_HAAR_SPEC = json.dumps(
    {"kind": "haar_ball", "p": 2, "center": 0, "radius_exp": 0, "resolution": -6}
)


@pytest.mark.parametrize("command", [
    ["sample", "--sampler", _HAAR_SPEC, "--count", "5"],
    ["limit-verify", "--preset", "beta_one"],
    ["selftest", "--filter", "c3"],
])
@pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
def test_seed_below_zero_rejected_at_parse_time(command, seed, tmp_path, capsys):
    # a negative seed reached numpy's seed streams: sample exited 2 with
    # numpy's text, and selftest exited 3 as if a tolerance had failed
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(tmp_path / "out"), "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["sample", "--sampler", _HAAR_SPEC, "--count", "5"],
    ["limit-verify", "--preset", "beta_one"],
    ["selftest", "--filter", "c3"],
])
@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_env_seed_below_zero_exits_2(command, seed, tmp_path, capsys, monkeypatch):
    # PADICPROB_SEED passes the check of --seed
    monkeypatch.setenv("PADICPROB_SEED", seed)
    code, out, err = run([*command, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error:") and "PADICPROB_SEED" in err
    assert not (tmp_path / "out").exists()


def test_seed_zero_is_a_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADICPROB_SEED", "0")
    f = tmp_path / "dump.txt"
    assert run(["sample", "--sampler", _HAAR_SPEC, "--count", "5", "--out", str(f)],
               capsys)[0] == 0
    assert json.loads(f.read_text().splitlines()[0][2:])["seed"] == 0


@pytest.mark.parametrize("argv_seed, want", [([], 99), (["--seed", "5"], 5)])
def test_limit_verify_reads_env_seed(argv_seed, want, tmp_path, capsys, monkeypatch):
    # limit-verify once wrote the preset's seed (11) whatever PADICPROB_SEED said
    monkeypatch.setenv("PADICPROB_SEED", "99")
    out = tmp_path / "out"
    code, _, _ = run(["limit-verify", "--preset", "beta_one", "--out", str(out), *argv_seed],
                     capsys)
    assert code == 0
    report = json.loads((out / "beta-one-degenerate.json").read_text())
    header = (out / "beta-one-degenerate.csv").read_text().splitlines()[0]
    assert report["effective"]["seed"] == want
    assert json.loads(header[2:])["seed"] == want


def test_importing_the_cli_loads_no_schema_or_pool_machinery(tmp_path):
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"p": 3, "beta": "1/4", "gamma0": "9", "fundamental": [], "extra": 1}
    ))
    good_run = ["levy-exponent", "--measure", str(root / "configs" / "custom_measure.json"),
                "--grid=0:1"]
    bad_run = ["levy-exponent", "--measure", str(bad), "--grid=0:1"]
    # reading a spec, good or bad, loads no jsonschema either
    probe = (
        "import sys\n"
        "from padicprob.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'"
        " or m == 'concurrent.futures.process')\n"
        "print(loaded())\n"
        f"print([main({good_run!r}), main({bad_run!r})], loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[0, 2] []")
    assert out.stderr == (
        "error: invalid measure spec: {'p': 3, 'beta': '1/4', 'gamma0': '9', "
        "'fundamental': [], 'extra': 1} is not valid under any of the given schemas\n"
    )


_CUSTOM = str(CONFIG_DIR / "custom_measure.json")
_RUNS = {
    "classify": ["classify", "--cf", "delta:1/256", "--p", "2"],
    "cf-eval": ["cf-eval", "--stable", "a=1,alpha=1,p=2", "--t", "1/1 @ p=2"],
    "levy-exponent": ["levy-exponent", "--measure", _CUSTOM, "--grid=0:1"],
    "levy-invert": ["levy-invert", "--measure", _CUSTOM, "--set", "annulus(0,2)"],
    "sample": ["sample", "--sampler", _HAAR_SPEC, "--count", "5", "--out", "{tmp}/dump.txt"],
    "limit-verify": ["limit-verify", "--preset", "beta_one", "--out", "{tmp}"],
    # m = 0 runs, which draw nothing
    "limit-verify-m0": ["limit-verify", "--config", "{tmp}/m0.json", "--out", "{tmp}"],
    "limit-verify-beta0": ["limit-verify", "--preset", "beta0_demo", "--out", "{tmp}"],
}
_STATEMENTS = {
    "import": "import padicprob",
    # the import line of perfbench/workloads.py
    "perfbench": "from padicprob import charfn, cli, levy, limits, padic, selftest, sets, specs",
    **{name: f"from padicprob.cli import main; assert main({argv!r}) == 0"
       for name, argv in _RUNS.items()},
}


@pytest.mark.parametrize("case", sorted(_STATEMENTS))
def test_only_a_command_that_draws_loads_numpy(case, tmp_path):
    # numpy and the Monte Carlo layer load on the first draw: importing
    # the package or running an exact command loads none of them
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    (tmp_path / "m0.json").write_text(json.dumps(dict(config, m=0)))
    probe = (
        _STATEMENTS[case].replace("{tmp}", str(tmp_path)) + "\n"
        "import sys\n"
        "print(sorted(m for m in sys.modules"
        " if m in ('numpy', 'padicprob.residues', 'padicprob.samplers')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    drew = case in ("sample", "limit-verify")
    assert out.stdout.splitlines()[-1] == str(
        ["numpy", "padicprob.residues", "padicprob.samplers"] if drew else []
    )


def test_an_m0_report_states_the_folds_of_the_sampler_it_did_not_build(tmp_path, capsys):
    # the folds are the law's, read off its sphere mass table, whether or
    # not a draw builds its sampler
    config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    folds = []
    for m in (0, 40):
        path = tmp_path / f"m{m}.json"
        path.write_text(json.dumps(dict(config, m=m)))
        assert main(["limit-verify", "--config", str(path), "--out", str(tmp_path / str(m))]) == 0
        report = json.loads((tmp_path / str(m) / "stable-limit-example.json").read_text())
        folds.append(report["effective"]["folds"])
    assert folds[0] == folds[1] and folds[0]["zero_mass"] > 0


def test_src_imports_only_the_stdlib_and_the_declared_dependencies():
    # every import in the package, lazy ones included, is of the stdlib,
    # padicprob itself, or a runtime dependency pyproject.toml declares
    import ast
    import re
    import sys

    root = Path(__file__).resolve().parent.parent
    block = re.search(
        r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(), re.M | re.S
    ).group(1)
    dependencies = set(re.findall(r'"([A-Za-z0-9_]+)', block))
    assert dependencies == {"numpy"}
    allowed = set(sys.stdlib_module_names) | dependencies | {"padicprob"}
    stray = []
    for path in sorted((root / "src" / "padicprob").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert stray == []


@pytest.mark.parametrize("text, message", [
    ("a=1,alpha=1,p=2,bogus=7", "stable law does not read bogus"),
    ("a=1,alpha=1,p=2,zzz=1,bogus=7", "stable law does not read bogus, zzz"),
    ("a=1,alpha=1,p=2,a=3", "stable law repeats a"),
    ("a=1,p=2", "stable law needs alpha"),
    ("alpha=1,p=2,bogus=7", "stable law needs a"),
])
@pytest.mark.parametrize("command", ["cf-eval", "classify"])
def test_the_stable_key_value_grammar_is_checked(command, text, message, capsys):
    # an unknown, repeated or missing key is a spec error, not a silently
    # dropped or overwritten one
    if command == "cf-eval":
        argv = ["cf-eval", "--stable", text, "--t", "1 @ p=2"]
    else:
        argv = ["classify", "--cf", f"stable:{text}"]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
