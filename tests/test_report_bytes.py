"""Byte-identity guard: sha256 digests of report bytes for fixed inputs.

Reports must keep their bytes for a fixed (config, seed, version).  A
change that alters any of these bytes on purpose bumps the package
version, refreshes the digests below and says so in CHANGES.md.  To
print the current digests, run

    PYTHONPATH=src python tests/test_report_bytes.py
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import padicprob
from padicprob import levy, limits, padic, sets, specs
from padicprob.charfn import HaarUniform
from padicprob.cli import main
from padicprob.samplers import substream

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CUSTOM = str(CONFIG_DIR / "custom_measure.json")
SEEDS = (3, 17, 4242)


def _cli_stdout(args) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return f"exit {code}\n{buf.getvalue()}".encode()


def levy_exponent_grid(tmp: Path) -> bytes:
    return _cli_stdout(["levy-exponent", "--measure", CUSTOM, "--grid=-5:5"])


def levy_exponent_csv(tmp: Path) -> bytes:
    return _eval_with_csv(["levy-exponent", "--measure", CUSTOM, "--grid=-3:3"], tmp)


def cf_eval_stable(tmp: Path) -> bytes:
    return _eval_with_csv(["cf-eval", "--stable", "a=1,alpha=0.5,p=2", "--grid=-5:5"], tmp)


def cf_eval_measure(tmp: Path) -> bytes:
    return _eval_with_csv(["cf-eval", "--measure", CUSTOM, "--grid=-5:5"], tmp)


def classify_stable(tmp: Path) -> bytes:
    return _cli_stdout(["classify", "--cf", "stable:a=1,alpha=1,p=2"])


def classify_measures(tmp: Path) -> bytes:
    out = _cli_stdout(["classify", "--cf", f"measure:{CUSTOM}"])
    for spec in ("omega0", "omega:1", "delta:1/3"):
        out += _cli_stdout(["classify", "--cf", spec, "--p", "2"])
    return out


def classify_odd_primes(tmp: Path) -> bytes:
    out = b""
    for spec, p in (("omega:2", "3"), ("delta:2/9", "3"), ("delta:3/5", "5")):
        out += _cli_stdout(["classify", "--cf", spec, "--p", p])
    # a Haar ball away from 0, through the API
    form = levy.classify_two_valued(HaarUniform(sets.Ball(3, Fraction(1, 3), -1)), 3)
    return out + repr(form).encode()


def _measures(seed: int) -> list:
    rng = substream(seed, 5)
    out = [levy.random_self_similar_measure(rng) for _ in range(6)]
    out.append(levy.make_example_measure(1, 0.7, 3))
    out.append(levy.make_example_measure(2, 1, 5))
    return out


def integrate_char_reprs(tmp: Path) -> bytes:
    lines = []
    for seed in SEEDS:
        for m in _measures(seed):
            rng = substream(seed, 6)
            grid = padic.grid_points(m.prime, -3, 3, ((1,), (1, 1)))
            grid.append(padic.PAdicNumber.zero(m.prime))
            for _ in range(4):
                s = levy.random_compact_open(rng, m.prime)
                for r in (1, m.gamma0, 1 / m.gamma0, Fraction(-7, 11)):
                    scaled = s.scale(r)
                    lines.append(repr(scaled))
                    for t in grid:
                        lines.append(repr(sets.integrate_char_exact(scaled, t)))
    return "\n".join(lines).encode()


INVERT_REGIONS = ((0, 2), (-1, 1), (1, 3), (-2, 0), (0, math.inf))


def inversion_reprs(tmp: Path) -> bytes:
    """Every inversion region on the custom measure and on the seeded
    measures, one exponent per measure."""
    measures = [specs.measure_from_spec(json.loads(Path(CUSTOM).read_text()))]
    for seed in SEEDS:
        measures += _measures(seed)
    lines = []
    for m in measures:
        phi = levy.LevyExponent(m)
        for i, l in INVERT_REGIONS:
            try:
                got = repr(levy.invert_exponent(phi, i, l, m.prime, tol=1e-12))
            except Exception as exc:  # an error is pinned as its text
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{m.prime} {i} {l}: {got}")
    return "\n".join(lines).encode()


class _SkewedMeasure(levy.SelfSimilarLevyMeasure):
    """Doubles the mass of every sphere above the fundamental ones, so
    validate_scaling reports failure lines."""

    def beta_pow(self, k):
        return self.beta**k * (2 if k > 0 else 1)


def scaling_and_masses(tmp: Path) -> bytes:
    lines = []
    for seed in SEEDS:
        measures = _measures(seed)
        measures += [_SkewedMeasure(m.prime, m.beta, m.gamma0, m.fundamental)
                     for m in measures[-3:]]
        for idx, m in enumerate(measures):
            rep = levy.validate_scaling(m, trials=12, seed=seed + idx)
            lines.append(repr((rep.trials, rep.failures)))
            rng = substream(seed, 8)
            for _ in range(6):
                s = levy.random_compact_open(rng, m.prime)
                lines.append(f"{s}: {levy.measure_mass(m, s)!r}")
    return "\n".join(lines).encode()


def _limit_verify_report(args, out_dir: Path) -> bytes:
    out = _cli_stdout(["limit-verify", *args, "--out", str(out_dir)])
    out = out.replace(str(out_dir).encode(), b"OUT")
    for f in sorted(out_dir.iterdir()):
        out += f.name.encode() + b"\n" + f.read_bytes()
    return out


def _preset_report(name: str, tmp: Path, m: int | None = None) -> bytes:
    """limit-verify --preset ``name``, read from a copy of its document
    with m lowered to ``m``."""
    spec = limits.preset_spec(name)
    if m is not None:
        spec["m"] = m
    (tmp / f"{name}.json").write_text(json.dumps(spec, indent=2))
    with mock.patch.object(limits, "PRESET_DIR", tmp):
        return _limit_verify_report(["--preset", name], tmp / "out")


def _config_report(config: dict, tmp: Path, *args: str) -> bytes:
    path = tmp / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return _limit_verify_report(["--config", str(path), *args], tmp / "out")


def _eval_with_csv(args, tmp: Path) -> bytes:
    """stdout of a grid evaluation and the CSV it writes, with the
    machine's paths replaced."""
    csv_path = tmp / "values.csv"
    out = _cli_stdout([*args, "--out", str(csv_path)]) + csv_path.read_bytes()
    return out.replace(CUSTOM.encode(), b"CUSTOM")


def stable_limit_report(tmp: Path) -> bytes:
    """configs/stable_limit.json at a small m: pins the radial draws."""
    config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    config["m"] = 200
    return _config_report(config, tmp)


def stable_limit_deep_p3(tmp: Path, *args: str) -> bytes:
    """configs/stable_limit.json over p = 3 at resolution -50 with a grid
    of large |t|: phase scales reach 44 (3**44 > 2**63) and every batch
    holds Python ints."""
    config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    config["law"].update(p=3, resolution=-50)
    config["scheme"].update(p=3, beta="1/3", gamma0="3")
    config["target"]["stable"]["p"] = 3
    config.update(grid={"k_lo": 30, "k_hi": 40}, m=60, sets=[])
    return _config_report(config, tmp, *args)


_GEOMETRIC_2 = {"mode": "geometric", "p": 2, "beta": "1/2", "gamma0": "2", "n_max": 4}
_GEOMETRIC_3 = {"mode": "geometric", "p": 3, "beta": "1/3", "gamma0": "3", "n_max": 4}
# radial over p = 2, and not the stable example measure (its weight is 2/3)
_RADIAL_MEASURE_2 = {
    "p": 2, "beta": "1/2", "gamma0": "2",
    "fundamental": [
        {"sphere": 0, "balls": [{"center": "1", "radius_exp": -1, "weight": "1/2"}]}
    ],
}


def _small_config(name: str, law: dict, scheme: dict, target, **extra) -> dict:
    return {
        "name": name, "law": law, "scheme": scheme, "target": target,
        "grid": {"k_lo": -4, "k_hi": 4}, "m": 60, "seed": 5,
        "n_list": [0, 1, 2], **extra,
    }


LAW_CONFIGS = {
    "law_point_mass": _small_config(
        "point-mass", {"kind": "point_mass", "xi": "1/3 @ p=2"}, _GEOMETRIC_2,
        {"stable": {"a": 1, "alpha": 1, "p": 2}},
    ),
    # a Haar ball away from 0 (a transform that is not radial) against the
    # non-radial configs/custom_measure.json
    "law_haar_ball": _small_config(
        "haar-ball",
        {"kind": "haar_ball", "p": 3, "center": "1/3", "radius_exp": -2, "resolution": -12},
        _GEOMETRIC_3, json.loads(Path(CUSTOM).read_text()),
    ),
    # ball rows read a radial measure's own transform on spheres
    "law_compound_poisson": _small_config(
        "compound-poisson",
        {"kind": "compound_poisson", "resolution": -4,
         "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}}},
        _GEOMETRIC_2, _RADIAL_MEASURE_2,
    ),
}


def target_stable_p3(tmp: Path) -> bytes:
    """A stable target whose exponent and closed form differ in the last
    bit: the sup, scaling and positivity rows read the exponent, the ball
    rows the closed form."""
    law = {"kind": "radial_stable", "a": 2, "alpha": 1.5, "p": 3, "resolution": -8}
    scheme = {"mode": "geometric", "p": 3, "beta": 3**-1.5, "gamma0": "3", "n_max": 4}
    target = {"stable": {"a": 2, "alpha": 1.5, "p": 3}}
    config = _small_config("stable-p3", law, scheme, target)
    return _config_report(config, tmp)


# one spec of each law kind
SAMPLE_SPECS = (
    {"kind": "point_mass", "xi": "1/3 @ p=2"},
    {"kind": "haar_ball", "p": 3, "center": "1/3", "radius_exp": -2, "resolution": -8},
    {"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": 2, "resolution": -8},
    {"kind": "compound_poisson", "resolution": -4,
     "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}}},
)


def sample_dumps(tmp: Path) -> bytes:
    """padicprob sample on each of SAMPLE_SPECS: pins each kind's draws
    and dump header."""
    out = b""
    for spec in SAMPLE_SPECS:
        out += _cli_stdout(["sample", "--sampler", json.dumps(spec), "--count", "12"])
    return out


# 20000 draws reach the bins whose float edges straddle a cell of the
# samplers' bin lookup, which 12 draws of sample_dumps never do
LARGE_SAMPLE_SPECS = {
    "sample_radial_stable_p2": {"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": 2},
    "sample_radial_stable_p3": {"kind": "radial_stable", "a": 1.0, "alpha": 1.0, "p": 3},
    # three fundamental balls over two spheres
    "sample_compound_poisson_custom": {
        "kind": "compound_poisson", "measure": json.loads(Path(CUSTOM).read_text()),
    },
}


def large_sample(name: str, tmp: Path) -> bytes:
    """padicprob sample --count 20000 of LARGE_SAMPLE_SPECS[name]."""
    spec = json.dumps(LARGE_SAMPLE_SPECS[name])
    return _cli_stdout(["sample", "--sampler", spec, "--count", "20000"])


DIGESTS = {
    "cf_eval_measure": (
        "e5ece9154701a2f800a60137605a6845"
        "d4d5c2ac383f02f05f4f72e6e36d6c2a"
    ),
    "cf_eval_stable": (
        "784650ae9b91e580751a4d9ea64ee70b"
        "f2434210a5d42c1aea38bd7865967cb3"
    ),
    "classify_measures": (
        "25dfef2e3d2f020c80c2fe9925fcbf33"
        "f291b9efbdfdee26af16b4800e57de78"
    ),
    "classify_odd_primes": (
        "4449a70e5493d456f211858e81a6e652"
        "55a6ce4e6df3f434f39fd8603560dcf8"
    ),
    "classify_stable": (
        "e9462eb0a60293f08a34a1526be708e2"
        "bc59e5a2b05f477cb2c31706ff00b568"
    ),
    "integrate_char_reprs": (
        "62fc28f19b908ad726362cedf48873e1"
        "f62a17f0ea92c0a0704c8905704e42e3"
    ),
    "inversion_reprs": (
        "d26da0b59c612809d0151ab3dabcb185"
        "f20a4d40475b96a247e9674616e3ef34"
    ),
    "law_compound_poisson": (
        "0f6053f73bf46bf85f7a819eab7d1958"
        "5b773da4557d916ca88e7bf75972540a"
    ),
    "law_haar_ball": (
        "9aa2c963aee76072bf71d4ca79d63b91"
        "bed6b1715d50e0373be7a246bdb8f1b9"
    ),
    "law_point_mass": (
        "0a9b0b86a6c378ca6c0ae53a5ebaaf09"
        "386a6e493798ec61fb56e43398603afe"
    ),
    "levy_exponent_csv": (
        "0d8297d592024d24dac94359548aa225"
        "48ea94e2620209a080351a01ee2b1527"
    ),
    "levy_exponent_grid": (
        "8d93df0a92993e9a33b47dfba8b8a33c"
        "c7be0860fbec2a81e8539351182a9f4c"
    ),
    "preset_beta0_demo": (
        "6f8171e2777e6e7affa6d01c93173539"
        "c33085bd3f334765738a95373466170b"
    ),
    "preset_beta_one": (
        "fe0179a726272c46d1994068cd03c1a5"
        "a2cdbd87ae0f13bb6a1e1eefe73e3dac"
    ),
    "preset_bounded_normalizers": (
        "0fb5c47122673c7856f553ced4101979"
        "97c4ad9e1d4de49fcd209487c1281074"
    ),
    "preset_stable_limit": (
        "364c9bcc790bfe9b750b640ca246b5fb"
        "bfa16e0269395c114fcb737c9a30264e"
    ),
    "sample_compound_poisson_custom": (
        "2ee666cf8c919aa8512c9d7869a3d74d"
        "acaa049133430d22492b51b39de43f72"
    ),
    "sample_dumps": (
        "e43fc3835afd55e524dc71595b54769f"
        "ecabbde16f5ce066c5d119a881a8046c"
    ),
    "sample_radial_stable_p2": (
        "7f7845b86db4cd8ffbe5b4447b64f879"
        "8537f4807db2385899aed735c41e2101"
    ),
    "sample_radial_stable_p3": (
        "4134d4ddea03bf5f86ac28fd3021fd54"
        "0138e0eefc502675811d6841245cbdd1"
    ),
    "scaling_and_masses": (
        "326a981f685836ff85d2db4d1da5259a"
        "be337e54888eeb77628ac2fac8ed326b"
    ),
    "stable_limit_deep_p3": (
        "78ced943b6d300b35cf73d7366cf644c"
        "70c3678e4d455a75af13495fa88d5197"
    ),
    "stable_limit_report": (
        "1c94760826f4fa81cc191bb589ff201b"
        "959672d930ed25534a9eab61565aef39"
    ),
    "target_stable_p3": (
        "4c310292f7f21bb9ed727f9d95f146f5"
        "0e8697d75007a0cb6ceff3d237faa257"
    ),
}

CASES = {
    "levy_exponent_grid": levy_exponent_grid,
    "levy_exponent_csv": levy_exponent_csv,
    "cf_eval_stable": cf_eval_stable,
    "cf_eval_measure": cf_eval_measure,
    "classify_measures": classify_measures,
    "classify_stable": classify_stable,
    "classify_odd_primes": classify_odd_primes,
    "inversion_reprs": inversion_reprs,
    "integrate_char_reprs": integrate_char_reprs,
    "scaling_and_masses": scaling_and_masses,
    # the degenerate classification does not depend on m; a small m keeps
    # the Monte Carlo part of the report cheap
    "preset_beta_one": functools.partial(_preset_report, "beta_one", m=120),
    "preset_bounded_normalizers": functools.partial(
        _preset_report, "bounded_normalizers", m=120
    ),
    "preset_beta0_demo": functools.partial(_preset_report, "beta0_demo"),
    "preset_stable_limit": functools.partial(_preset_report, "stable_limit", m=400),
    "stable_limit_report": stable_limit_report,
    "stable_limit_deep_p3": stable_limit_deep_p3,
    **{name: functools.partial(_config_report, config) for name, config in LAW_CONFIGS.items()},
    "target_stable_p3": target_stable_p3,
    "sample_dumps": sample_dumps,
    **{name: functools.partial(large_sample, name) for name in LARGE_SAMPLE_SPECS},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, tmp_path):
    assert _digest(CASES[name](tmp_path)) == DIGESTS[name]


@pytest.mark.parametrize(
    "name",
    ["law_compound_poisson", "law_haar_ball", "law_point_mass", "stable_limit_deep_p3"],
)
def test_law_reports_keep_their_bytes_under_a_process_pool(name, tmp_path):
    # --workers 2 runs the Monte Carlo blocks in a process pool; every
    # sampler kind must give the serial report's bytes
    assert _digest(CASES[name](tmp_path, "--workers", "2")) == DIGESTS[name]


@pytest.mark.parametrize("m", [7, 100])
@pytest.mark.parametrize(
    "name", ["law_compound_poisson", "law_haar_ball", "law_point_mass", "stable_limit"]
)
def test_reports_do_not_depend_on_the_worker_count(name, m, tmp_path):
    # one Monte Carlo path for every worker count: three workers cut the 7
    # drawn blocks of m = 7, and the 16 of m = 100, into uneven ranges, and
    # compound-Poisson blocks have different tops
    if name == "stable_limit":  # radial stable draws
        config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    else:
        config = LAW_CONFIGS[name]
    config = dict(config, m=m)
    reports = []
    for workers in ("1", "3"):
        (tmp_path / workers).mkdir()
        reports.append(_config_report(config, tmp_path / workers, "--workers", workers))
    assert b"\ncf," in reports[0]
    assert reports[0] == reports[1]


def _scenarios() -> dict:
    """Each preset, each shipped scenario config and each law_* config,
    at m = 0."""
    out = {f"preset_{name}": functools.partial(build, m=0) for name, build in limits.PRESETS.items()}
    configs = {path.name: json.loads(path.read_text()) for path in CONFIG_DIR.glob("*.json")}
    configs.update(LAW_CONFIGS)
    for name, config in configs.items():
        if "law" in config:  # a scenario, not a measure
            out[name] = functools.partial(specs.scenario_from_spec, dict(config, m=0))
    return out


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_every_report_names_a_valid_law_spec(name):
    # a report's effective law is the spec its law was built from
    scenario = _scenarios()[name]()
    law = specs.law_from_spec(limits.convergence_report(scenario).effective["law"])
    assert (law.transform, law.sampler) == (scenario.law.transform, scenario.law.sampler)


@pytest.mark.parametrize("name", sorted(limits.PRESETS))
def test_a_preset_writes_what_a_config_of_its_document_writes(name, tmp_path):
    # --preset reads the document the --config run reads, at a lowered m
    spec = limits.preset_spec(name)
    spec["m"] = min(spec["m"], 40)
    (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    runs = []
    for args in (["--preset", name], ["--config", str(tmp_path / f"{name}.json")]):
        out = tmp_path / args[0].strip("-")
        with mock.patch.object(limits, "PRESET_DIR", tmp_path):
            code = main(["limit-verify", *args, "--out", str(out)])
        runs.append((code, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0] == runs[1] and len(runs[0][1]) == 2


def test_package_and_project_versions_agree():
    text = (CONFIG_DIR.parent / "pyproject.toml").read_text()
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert match is not None and match.group(1) == padicprob.__version__


if __name__ == "__main__":
    import tempfile

    for name, fn in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as d:
            print(f'    "{name}": "{_digest(fn(Path(d)))}",')
    sys.exit(0)
