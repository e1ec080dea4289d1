"""Command-line interface: subcommands, exit codes, deterministic output."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path

import pytest

import clifford_ym
from clifford_ym.cli import (
    EXIT_CONFIG,
    EXIT_GOLDEN,
    EXIT_OK,
    EXIT_TOLERANCE,
    main,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


BASE_CONFIG = {
    "signature": {"p": 2, "q": 0},
    "frame": {"kind": "identity"},
    "gauge": {
        "kind": "exp_bivector",
        "terms": [{
            "blade": "e12",
            "poly": {"monomials": [
                {"exps": [1, 0], "coeff": [0.3, 0.0]},
                {"exps": [0, 2], "coeff": [-0.2, 0.0]},
            ]},
        }],
    },
    "samples": {"count": 6, "seed": 3, "box": [-1.0, 1.0]},
    "sigma": [1.0, 0.0],
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_tables_text_output():
    code, out, _ = run_cli(["tables", "--n", "2"])
    assert code == EXIT_OK
    assert "lambda: 2 0 -2" in out
    assert "r: 1/2 -1/16 -3/32" in out
    assert "mu: - 1/2 1/4" in out


def test_tables_json_output():
    code, out, _ = run_cli(["tables", "--n", "3", "--json"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 3
    assert data["lambdas"] == [3, -1, -1, 3]
    assert data["weights"] == [{"num": "3", "den": "16"}, {"num": "-1", "den": "16"}]


def test_tables_deterministic():
    _, out1, _ = run_cli(["tables", "--n", "4", "--json"])
    _, out2, _ = run_cli(["tables", "--n", "4", "--json"])
    assert out1 == out2


def test_tables_range_checks():
    code, _, err = run_cli(["tables", "--n", "99"])
    assert code == EXIT_CONFIG
    code, out, _ = run_cli(["tables", "--n", "1"])
    assert code == EXIT_OK


def test_golden_passes():
    code, out, _ = run_cli(["golden"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1].endswith("golden checks passed")
    assert all(line.startswith("ok ") for line in lines[:-1])


def test_golden_detects_mismatch(monkeypatch):
    import clifford_ym.cli as cli_mod
    fake = [("n=2 lambdas", False, "got (2, 0, 2), want (2, 0, -2)"),
            ("n=2 A", True, "exact match")]
    monkeypatch.setattr(cli_mod, "run_golden_checks", lambda: fake)
    code, out, _ = run_cli(["golden"])
    assert code == EXIT_GOLDEN
    assert "MISMATCH n=2 lambdas" in out
    assert "1/2 golden checks passed" in out


def test_verify_runs_and_passes(config_file):
    code, out, _ = run_cli(["verify", "--config", config_file])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"] is True
    assert report["signature"] == {"p": 2, "q": 0}
    assert report["primitive_max"] < 1e-8
    assert report["eq1_max"] < 1e-7
    assert report["eq2_max"] < 1e-7
    assert report["conservation_max"] < 1e-7
    assert report["epsilon"] == [4.0, 0.0]
    assert report["epsilon_rel_error"] < 1e-10
    assert report["gauge_check"]["pass"] is True
    assert len(report["per_point"]) == report["samples"]


def test_verify_derives_connection_once_per_point(config_file, monkeypatch):
    from clifford_ym import primitive

    calls = []
    derive = primitive.compute_C_jets

    def counted(*args, **kwargs):
        calls.append(1)
        return derive(*args, **kwargs)

    monkeypatch.setattr(primitive, "compute_C_jets", counted)
    code, out, _ = run_cli(["verify", "--config", config_file])
    assert code == EXIT_OK
    assert len(calls) == json.loads(out)["samples"]


def test_verify_deterministic_output(config_file):
    _, out1, _ = run_cli(["verify", "--config", config_file])
    _, out2, _ = run_cli(["verify", "--config", config_file])
    assert out1 == out2


def test_verify_seed_changes_report(config_file):
    _, out1, _ = run_cli(["verify", "--config", config_file, "--seed", "1"])
    _, out2, _ = run_cli(["verify", "--config", config_file, "--seed", "2"])
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["per_point"] != r2["per_point"]
    assert r1["pass"] and r2["pass"]


def test_verify_sigma_override(config_file):
    code, out, _ = run_cli(["verify", "--config", config_file, "--sigma", "0,1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["sigma"] == [0.0, 1.0]
    # 4(n-1) sigma^3 with n=2, sigma=i gives -4i.
    assert report["epsilon"] == [0.0, -4.0]
    assert report["pass"] is True


def test_verify_fd_mode(config_file):
    code, out, _ = run_cli(["verify", "--config", config_file, "--fd"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "fd"
    assert report["pass"] is True


def test_verify_missing_file():
    code, _, err = run_cli(["verify", "--config", "/nonexistent/nope.json"])
    assert code == EXIT_CONFIG
    assert err


def test_verify_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_CONFIG


def test_verify_bad_signature(tmp_path):
    cfg = dict(BASE_CONFIG, signature={"p": 40, "q": 0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_CONFIG


def test_verify_non_bivector_gauge(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["gauge"]["terms"][0]["blade"] = "e1"
    path = tmp_path / "vector_gauge.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("path,value,flags,key", [
    pytest.param(("samples", "count"), "abc", [], "samples.count", id="count-text"),
    pytest.param(("seed",), "x", [], "seed", id="seed-text"),
    pytest.param(("fd_step",), "x", [], "fd_step", id="fd_step-text"),
    pytest.param(("samples", "box"), ["a", 1], [], "samples.box", id="box-text"),
    pytest.param(("tolerances",), {"eq1": "abc"}, [], "tolerances.eq1", id="tolerance-text"),
    pytest.param(("frame",), {"kind": "constant", "matrix": "x"}, [], "matrix",
                 id="frame-matrix-text"),
    pytest.param(("sigma",), [float("nan"), 0.0], [], "sigma", id="sigma-nan"),
    pytest.param(("tolerances",), {"eq1": "nan"}, [], "tolerances.eq1", id="tolerance-nan"),
    pytest.param(("epsilon_override",), [float("nan"), 0.0], [], "epsilon_override",
                 id="epsilon_override-nan"),
    pytest.param(("samples", "box"), [0.0, float("inf")], [], "samples.box", id="box-inf"),
    pytest.param(("fd_step",), 0, ["--fd"], "fd_step", id="fd_step-zero"),
    pytest.param(("fd_step",), -1, ["--fd"], "fd_step", id="fd_step-negative"),
    pytest.param(("samples", "count"), 10 ** 400, [], "samples.count", id="count-huge"),
    pytest.param(("samples", "count"), 1e8, [], "samples.count", id="count-over-cap"),
    pytest.param(("samples", "count"), 1.5, [], "samples.count", id="count-fraction"),
    pytest.param(("samples", "count"), True, [], "samples.count", id="count-bool"),
])
def test_verify_rejects_malformed_or_non_finite_entries(tmp_path, path, value, flags, key):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    config = tmp_path / "bad_entry.json"
    config.write_text(json.dumps(cfg))  # NaN and Infinity as JSON literals
    code, out, err = run_cli(["verify", "--config", str(config), *flags])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "Traceback" not in err
    assert key in err


def test_verify_epsilon_override_breaches_tolerance(tmp_path):
    cfg = dict(BASE_CONFIG, epsilon_override=[13.0, 0.0])
    path = tmp_path / "forced_eps.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_TOLERANCE
    report = json.loads(out)
    assert report["pass"] is False
    assert report["epsilon"] == [13.0, 0.0]
    assert report["eq2_max"] > 1.0


def test_verify_output_file_matches_stdout(tmp_path, config_file):
    target = tmp_path / "report.json"
    cfg = dict(BASE_CONFIG, output=str(target))
    path = tmp_path / "with_output.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_OK
    assert json.loads(target.read_text()) == json.loads(out)


def test_demo_passes():
    code, out, _ = run_cli(["demo", "--n", "2"])
    assert code == EXIT_OK
    assert "PASS" in out
    assert "lambda" in out


def test_demo_rejects_bad_n():
    with pytest.raises(SystemExit) as exc:
        run_cli(["demo", "--n", "9"])
    assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table of ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def run_pinned(cmd):
    """Run ``cmd`` with ``PYTHONPATH`` led by the package copy under test.

    Neither a relative ``src`` entry nor a stale installed copy then decides
    which code the subprocess imports.
    """
    env = dict(os.environ)
    pinned = str(Path(clifford_ym.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pinned, env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)


def test_console_script_installed():
    proc = run_pinned(
        [sys.executable, "-m", "clifford_ym.cli", "tables", "--n", "2", "--json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2

    # Run the declared entry point the way an installer's generated script
    # does, so the check holds from a source checkout that was never installed.
    spec = declared_scripts()["clifford-ym"]
    assert spec == "clifford_ym.cli:main"
    module, attr = spec.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"

    proc = run_pinned([sys.executable, "-c", wrapper, "golden"])
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout

    # The exit status must be main()'s return value, not a default 0.
    proc = run_pinned([sys.executable, "-c", wrapper, "tables", "--n", "99"])
    assert proc.returncode == EXIT_CONFIG


@pytest.mark.skipif(shutil.which("clifford-ym") is None,
                    reason="clifford-ym is not on PATH: the package is not installed")
def test_console_script_on_path():
    installed = entry_points(group="console_scripts", name="clifford-ym")
    assert {ep.value for ep in installed} == {declared_scripts()["clifford-ym"]}

    proc = run_pinned(["clifford-ym", "golden"])
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout
