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
from padicprob.charfn import HaarUniform, substream
from padicprob.cli import main

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


def _preset_report(name: str, tmp: Path, **kwargs) -> bytes:
    preset = functools.partial(limits.PRESETS[name], **kwargs)
    with mock.patch.dict(limits.PRESETS, {name: preset}):
        return _limit_verify_report(["--preset", name], tmp)


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


def law_point_mass(tmp: Path, *args: str) -> bytes:
    law = {"kind": "point_mass", "xi": "1/3 @ p=2"}
    target = {"stable": {"a": 1, "alpha": 1, "p": 2}}
    config = _small_config("point-mass", law, _GEOMETRIC_2, target)
    return _config_report(config, tmp, *args)


def law_haar_ball(tmp: Path, *args: str) -> bytes:
    """A Haar ball away from 0 (a transform that is not radial) against
    the non-radial configs/custom_measure.json."""
    law = {"kind": "haar_ball", "p": 3, "center": "1/3", "radius_exp": -2,
           "resolution": -12}
    target = json.loads(Path(CUSTOM).read_text())
    config = _small_config("haar-ball", law, _GEOMETRIC_3, target)
    return _config_report(config, tmp, *args)


def law_compound_poisson(tmp: Path, *args: str) -> bytes:
    """Ball rows read a radial measure's own transform on spheres."""
    law = {"kind": "compound_poisson", "resolution": -4,
           "measure": {"stable": {"a": 1, "alpha": 1, "p": 2}}}
    config = _small_config("compound-poisson", law, _GEOMETRIC_2, _RADIAL_MEASURE_2)
    return _config_report(config, tmp, *args)


def target_stable_p3(tmp: Path) -> bytes:
    """A stable target whose exponent and closed form differ in the last
    bit: the sup, scaling and positivity rows read the exponent, the ball
    rows the closed form."""
    law = {"kind": "radial_stable", "a": 2, "alpha": 1.5, "p": 3, "resolution": -8}
    scheme = {"mode": "geometric", "p": 3, "beta": 3**-1.5, "gamma0": "3", "n_max": 4}
    target = {"stable": {"a": 2, "alpha": 1.5, "p": 3}}
    config = _small_config("stable-p3", law, scheme, target, kind="stable_limit")
    return _config_report(config, tmp)


DIGESTS = {
    "cf_eval_measure": (
        "22569c1460ccd8c077d5b43330d89f35"
        "5bbc0a496bd9d085f723ec14ea330be7"
    ),
    "cf_eval_stable": (
        "8d4e6e770e6790f51a2d44fe673cbece"
        "e065d176b8fc40915db8d6e93793f44d"
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
        "2af1f4de023873ff0384b349f2c06286"
        "90d81f4875e814b751272f056a5ab56b"
    ),
    "law_haar_ball": (
        "aa457523b39ce5e15da993d736eee6df"
        "6ad3fcf96e7da7fe2f51d78e4146a39f"
    ),
    "law_point_mass": (
        "6b3f43747891902f657e609ae1f6e361"
        "dd28bf6b44f72a4dfe14f102450ac838"
    ),
    "levy_exponent_csv": (
        "ff5767c17e7eb86fcd5040bed93c509d"
        "d6fdda086374374d68895587010c4598"
    ),
    "levy_exponent_grid": (
        "8d93df0a92993e9a33b47dfba8b8a33c"
        "c7be0860fbec2a81e8539351182a9f4c"
    ),
    "preset_beta0_demo": (
        "65f822d603e8cde3ed08e10129334cce"
        "2ccf130b1565094c1235912fdfccf196"
    ),
    "preset_beta_one": (
        "75e0dd872fd7aaf9e2537d3c44d10e14"
        "1738fd03df4ad3f878c2a8788e726243"
    ),
    "preset_bounded_normalizers": (
        "ea6ac7403fbae0a7915692235d3ee3e0"
        "f2299d2310e3bf0117839588b1341a9e"
    ),
    "preset_stable_limit": (
        "b8a1f5cbe30763df458c68b6a76d8aa4"
        "b38b8c09ec2df5d20d5d54c8bf478697"
    ),
    "scaling_and_masses": (
        "326a981f685836ff85d2db4d1da5259a"
        "be337e54888eeb77628ac2fac8ed326b"
    ),
    "stable_limit_deep_p3": (
        "58007bbd4c342fc8fcdc8574fa5a9606"
        "975cc72dd2c4427b3ca40eb1b284ac2f"
    ),
    "stable_limit_report": (
        "e16a39e584ac352aa8d94714aef6d4c8"
        "7684f55a2ac2ed1b72d87a351e5794d1"
    ),
    "target_stable_p3": (
        "7b74104a8209398cfcb296240f1e80ed"
        "0afd8fc2ae609110f6fc87962e56bbfc"
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
    "law_point_mass": law_point_mass,
    "law_haar_ball": law_haar_ball,
    "law_compound_poisson": law_compound_poisson,
    "target_stable_p3": target_stable_p3,
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
