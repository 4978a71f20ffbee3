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
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicprob
from padicprob import levy, limits, padic, sets
from padicprob.charfn import substream
from padicprob.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CUSTOM = str(CONFIG_DIR / "custom_measure.json")
SEEDS = (3, 17, 4242)


def _cli_stdout(args) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return f"exit {code}\n{buf.getvalue()}".encode()


def levy_exponent_grid() -> bytes:
    return _cli_stdout(["levy-exponent", "--measure", CUSTOM, "--grid=-5:5"])


def classify_measures() -> bytes:
    out = _cli_stdout(["classify", "--cf", f"measure:{CUSTOM}"])
    for spec in ("omega0", "omega:1", "delta:1/3"):
        out += _cli_stdout(["classify", "--cf", spec, "--p", "2"])
    return out


def _measures(seed: int) -> list:
    rng = substream(seed, 5)
    out = [levy.random_self_similar_measure(rng) for _ in range(6)]
    out.append(levy.make_example_measure(1, 0.7, 3))
    out.append(levy.make_example_measure(2, 1, 5))
    return out


def integrate_char_reprs() -> bytes:
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


class _SkewedMeasure(levy.SelfSimilarLevyMeasure):
    """Doubles the mass of every sphere above the fundamental ones, so
    validate_scaling reports failure lines."""

    def beta_pow(self, k):
        return self.beta**k * (2 if k > 0 else 1)


def scaling_and_masses() -> bytes:
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


def _preset_report(name: str, tmp_path: Path, monkeypatch) -> bytes:
    # the degenerate classification does not depend on m; a small m keeps
    # the Monte Carlo part of the report cheap
    monkeypatch.setitem(
        limits.PRESETS, name, functools.partial(limits.PRESETS[name], m=120)
    )
    return _limit_verify_report(["--preset", name], tmp_path)


def stable_limit_report(tmp_path: Path) -> bytes:
    """configs/stable_limit.json at a small m: pins the radial draws."""
    config = json.loads((CONFIG_DIR / "stable_limit.json").read_text())
    config["m"] = 200
    path = tmp_path / "stable_limit.json"
    path.write_text(json.dumps(config, indent=2))
    return _limit_verify_report(["--config", str(path)], tmp_path / "out")


DIGESTS = {
    "levy_exponent_grid": (
        "8d93df0a92993e9a33b47dfba8b8a33c"
        "c7be0860fbec2a81e8539351182a9f4c"
    ),
    "classify_measures": (
        "25dfef2e3d2f020c80c2fe9925fcbf33"
        "f291b9efbdfdee26af16b4800e57de78"
    ),
    "integrate_char_reprs": (
        "62fc28f19b908ad726362cedf48873e1"
        "f62a17f0ea92c0a0704c8905704e42e3"
    ),
    "scaling_and_masses": (
        "326a981f685836ff85d2db4d1da5259a"
        "be337e54888eeb77628ac2fac8ed326b"
    ),
    "preset_beta_one": (
        "9eb24398f7b0fbe905e5e71437be0923"
        "c0aae6f9ea7bec19b1c9890ff0fecc09"
    ),
    "preset_bounded_normalizers": (
        "24fe625135f3550db34272225c610a7b"
        "897c0bdda430419b6a53b9bca3c69bd9"
    ),
    "stable_limit_report": (
        "aa04a65690bcbed5d8aa13ab52665c3a"
        "94417a35d8d2705499cc107934b0a57b"
    ),
}

CASES = {
    "levy_exponent_grid": levy_exponent_grid,
    "classify_measures": classify_measures,
    "integrate_char_reprs": integrate_char_reprs,
    "scaling_and_masses": scaling_and_masses,
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    assert _digest(CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("preset", ["beta_one", "bounded_normalizers"])
def test_degenerate_preset_bytes(preset, tmp_path, monkeypatch):
    data = _preset_report(preset, tmp_path, monkeypatch)
    assert _digest(data) == DIGESTS[f"preset_{preset}"]


def test_stable_limit_report_bytes(tmp_path):
    assert _digest(stable_limit_report(tmp_path)) == DIGESTS["stable_limit_report"]


def test_package_and_project_versions_agree():
    text = (CONFIG_DIR.parent / "pyproject.toml").read_text()
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert match is not None and match.group(1) == padicprob.__version__


if __name__ == "__main__":
    import tempfile

    for name, fn in sorted(CASES.items()):
        print(f'    "{name}": "{_digest(fn())}",')
    mp = pytest.MonkeyPatch()
    for preset in ("beta_one", "bounded_normalizers"):
        with tempfile.TemporaryDirectory() as d:
            digest = _digest(_preset_report(preset, Path(d), mp))
        print(f'    "preset_{preset}": "{digest}",')
    mp.undo()
    with tempfile.TemporaryDirectory() as d:
        print(f'    "stable_limit_report": "{_digest(stable_limit_report(Path(d)))}",')
    sys.exit(0)
