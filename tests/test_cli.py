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

import numpy as np
import pytest

import clifford_ym
from clifford_ym import primitive, runner, yang_mills
from clifford_ym.algebra import SeriesDivergence, Signature, tables
from clifford_ym.cli import (
    EXIT_CONFIG,
    EXIT_GOLDEN,
    EXIT_OK,
    EXIT_TOLERANCE,
    main,
)
from clifford_ym.fields import (
    ExpField,
    FieldVectorError,
    FrameError,
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    GaugeMembershipError,
    PolyField,
    make_gauge_element,
    max_per_point,
    sample_points,
)
from clifford_ym.primitive import TransformedConnection, TransformedFieldVector
from clifford_ym.yang_mills import YMSolution
from conftest import OffsetCovector


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
    "samples": {"count": 6, "box": [-1.0, 1.0]},
    "seed": 3,
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
    code, out, err = run_cli(["verify", "--config", config_file])
    assert (code, err) == (EXIT_OK, "")  # a pass names no breach
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


def test_readme_minimal_config_verifies(tmp_path):
    # The config shown after "A minimal config:" in README.md certifies.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    code, out, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_OK, err
    assert json.loads(out)["pass"] is True


def test_verify_derives_connection_once_per_point_set(config_file, monkeypatch):
    from clifford_ym import primitive

    calls = []
    derive = primitive.compute_C_jets

    def counted(*args, **kwargs):
        calls.append(1)
        return derive(*args, **kwargs)

    monkeypatch.setattr(primitive, "compute_C_jets", counted)
    code, out, _ = run_cli(["verify", "--config", config_file])
    assert code == EXIT_OK
    assert json.loads(out)["samples"] > 1
    assert len(calls) == 1


def test_verify_deterministic_output(config_file):
    _, out1, _ = run_cli(["verify", "--config", config_file])
    _, out2, _ = run_cli(["verify", "--config", config_file])
    assert out1 == out2


def verify_with(tmp_path, **entries):
    """run_cli on verify of BASE_CONFIG with the given root entries replaced."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, **entries)))
    return run_cli(["verify", "--config", str(path)])


def test_verify_seed_changes_report(tmp_path):
    _, out1, _ = verify_with(tmp_path, seed=1)
    _, out2, _ = verify_with(tmp_path, seed=2)
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["per_point"] != r2["per_point"]
    assert r1["pass"] and r2["pass"]


def test_verify_sigma_override(tmp_path):
    code, out, _ = verify_with(tmp_path, sigma=[0.0, 1.0])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["sigma"] == [0.0, 1.0]
    # 4(n-1) sigma^3 with n=2, sigma=i gives -4i.
    assert report["epsilon"] == [0.0, -4.0]
    assert report["pass"] is True


def test_verify_fd_mode(tmp_path):
    code, out, _ = verify_with(tmp_path, mode="fd")
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


@pytest.mark.parametrize("content", [
    pytest.param(b'{"seed": "\xff"}', id="non-utf8"),
    pytest.param(b"[" * 100_000, id="nested-100000-deep"),
    pytest.param(b'{"seed": ' + b"9" * 5000 + b"}", id="integer-5000-digits"),
])
def test_verify_unreadable_config_fails_closed(tmp_path, content):
    # UnicodeDecodeError, RecursionError and the ValueError of Python's
    # limit on integer-string conversion, each a refusal rather than a traceback.
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out, err = run_cli(["verify", "--config", str(path)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: config is not valid JSON: ")


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--sigma", "0,1"], ["--fd"]],
                         ids=lambda flag: flag[0])
def test_verify_takes_no_setter_but_its_config(config_file, flag):
    # seed, sigma and mode are set in the config alone: a flag is a usage error.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", config_file, *flag])
    assert (exc.value.code, out.getvalue()) == (EXIT_CONFIG, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err.getvalue()


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


# A rotation frame whose angle reaches 1e300 over the sample box.
ANGLE_OVERFLOW_FRAME = {"kind": "rotation", "generator": [[0.0, 1.0], [-1.0, 0.0]],
                        "poly": {"monomials": [{"exps": [1, 0], "coeff": [1e300, 0.0]}]}}


def with_entry(path, value):
    """A copy of BASE_CONFIG with the entry at path set to value."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    return cfg


MALFORMED_ENTRIES = [
    pytest.param(("samples", "count"), "abc", "samples.count", id="count-text"),
    pytest.param(("seed",), "x", "seed", id="seed-text"),
    pytest.param(("samples", "box"), ["a", 1], "samples.box", id="box-text"),
    pytest.param(("frame",), {"kind": "constant", "matrix": "x"}, "matrix",
                 id="frame-matrix-text"),
    pytest.param(("sigma",), [float("nan"), 0.0], "sigma", id="sigma-nan"),
    pytest.param(("sigma",), [1e110, 0.0], "sigma", id="sigma-epsilon-overflow"),
    pytest.param(("sigma",), [3e102, 0.0], "sigma", id="sigma-flux-overflow"),
    pytest.param(("epsilon_override",), [float("nan"), 0.0], "epsilon_override",
                 id="epsilon_override-nan"),
    pytest.param(("samples", "box"), [0.0, float("inf")], "samples.box", id="box-inf"),
    # hi - lo overflows, so every point after the origin would be [inf, inf].
    pytest.param(("samples", "box"), [-1e308, 1e308], "samples.box", id="box-width-overflow"),
    # open() would refuse it with a ValueError, after the whole run.
    pytest.param(("output",), "a\u0000b", "output must be a file path", id="output-nul"),
    # An empty path would be skipped, and the run would write no file.
    pytest.param(("output",), "", "output must be a file path", id="output-empty"),
    pytest.param(("samples", "count"), 10 ** 400, "samples.count", id="count-huge"),
    pytest.param(("samples", "count"), 1e8, "samples.count", id="count-over-cap"),
    pytest.param(("samples", "count"), 1.5, "samples.count", id="count-fraction"),
    pytest.param(("samples", "count"), True, "samples.count", id="count-bool"),
    pytest.param(("gauge", "terms", 0, "blade"), "e1\u00b2", "blade", id="blade-superscript"),
    # e2 e1 = -e12: a bitmask cannot carry the sign, so the order is refused.
    pytest.param(("gauge", "terms", 0, "blade"), "e21", "strictly increasing",
                 id="blade-decreasing"),
    pytest.param(("frame",), ANGLE_OVERFLOW_FRAME, "frame", id="frame-angle-overflow"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), [0.5, 0], "exps",
                 id="exps-fraction"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), [True, 0], "exps",
                 id="exps-bool"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), [10 ** 30, 0],
                 "exps", id="exps-past-int64"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), [2 ** 63, 0],
                 "exps", id="exps-2^63"),
    pytest.param(("gauge",), {"kind": "random", "scale": -0.3}, "gauge.scale",
                 id="gauge-scale-negative"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "coeff"), "12", "coeff",
                 id="coeff-string"),
    pytest.param(("frame",), {"kind": "rotation", "generator": [[0.0, 1.0], [-1.0, 0.0]],
                              "poly": {"monomials": [{"exps": [1.9, 0], "coeff": [0.5, 0.0]}]}},
                 "exps", id="frame-exps-fraction"),
    # Numbers given as strings are refused, not parsed.
    pytest.param(("signature", "p"), "2", "signature.p", id="p-numeric-string"),
    pytest.param(("samples", "count"), "3", "samples.count", id="count-numeric-string"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), ["1", "0"], "exps",
                 id="exps-numeric-strings"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "coeff"), ["0.3", "0"],
                 "coeff", id="coeff-numeric-strings"),
    pytest.param(("frame",), {"kind": "constant", "matrix": [["1", "0"], ["0", "1"]]},
                 "matrix", id="frame-matrix-numeric-strings"),
    pytest.param(("frame",), {"kind": "rotation", "generator": [["0", "1"], ["-1", "0"]],
                              "poly": {"monomials": [{"exps": [1, 0], "coeff": [0.5, 0.0]}]}},
                 "generator", id="frame-generator-numeric-strings"),
    pytest.param(("frame",), {"kind": "rotation", "generator": [[0.0, 1.0], [-1.0, 0.0]],
                              "base": [["1", "0"], ["0", "1"]],
                              "poly": {"monomials": [{"exps": [1, 0], "coeff": [0.5, 0.0]}]}},
                 "base", id="frame-base-numeric-strings"),
    pytest.param(("frame",), {"kind": "constant", "matrix": [[10 ** 400, 0], [0, 1]]},
                 "matrix", id="frame-matrix-huge-integer"),
    # A key that nothing reads is refused at every level, rather than leaving
    # a default in force.
    pytest.param(("sigmaa",), 5, "sigmaa", id="unknown-root-key"),
    pytest.param(("tolerance",), {"eq2": 1e-30}, "tolerance", id="unknown-root-tolerance"),
    pytest.param(("signature", "r"), 1, "signature.r", id="unknown-signature-key"),
    pytest.param(("samples", "cout"), 999, "samples.cout", id="unknown-samples-key"),
    # The sample points follow seed, and fd mode takes fields.FD_STEP.
    pytest.param(("samples", "seed"), 3, "unknown config key samples.seed",
                 id="unknown-samples-seed"),
    pytest.param(("fd_step",), 1e-5, "unknown config key fd_step", id="unknown-fd_step"),
    # The tolerances come from the mode alone: no config entry moves them.
    pytest.param(("tolerances",), {"eq2": 1e300}, "unknown config key tolerances",
                 id="unknown-tolerance"),
    pytest.param(("frame", "scale"), 99, "frame.scale", id="unknown-identity-frame-key"),
    pytest.param(("frame",), {"kind": "random", "scal": 99}, "frame.scal",
                 id="unknown-random-frame-key"),
    pytest.param(("frame",), {"kind": "constant", "matrix": [[1, 0], [0, 1]], "scale": 2},
                 "frame.scale", id="unknown-constant-frame-key"),
    pytest.param(("frame",), {"kind": "rotation", "generator": [[0.0, 1.0], [-1.0, 0.0]],
                              "poly": {"monomials": [{"exps": [1, 0], "coeff": [0.5, 0.0]}]},
                              "angle": 1}, "frame.angle", id="unknown-rotation-frame-key"),
    pytest.param(("gauge",), {"kind": "random", "sacle": 5}, "gauge.sacle",
                 id="unknown-random-gauge-key"),
    pytest.param(("gauge", "term"), [], "gauge.term", id="unknown-gauge-key"),
    pytest.param(("gauge", "terms", 0, "blades"), "e1", "gauge.terms[0].blades",
                 id="unknown-gauge-term-key"),
    pytest.param(("gauge", "terms", 0, "poly", "monomial"), [],
                 "gauge.terms[0].poly.monomial", id="unknown-polynomial-key"),
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exp"), [0, 1],
                 "gauge.terms[0].poly.monomials[0].exp", id="unknown-monomial-key"),
]


@pytest.mark.parametrize("path,value,key", MALFORMED_ENTRIES)
def test_verify_rejects_malformed_or_non_finite_entries(tmp_path, path, value, key):
    config = tmp_path / "bad_entry.json"
    config.write_text(json.dumps(with_entry(path, value)))  # NaN and Infinity as JSON literals
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "Traceback" not in err
    assert key in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_angle_overflow_is_refused_without_a_warning(tmp_path):
    cfg = dict(BASE_CONFIG, frame=ANGLE_OVERFLOW_FRAME)
    with pytest.raises(FrameError):
        runner.run_verify(runner.parse_config(cfg))
    config = tmp_path / "angle.json"
    config.write_text(json.dumps(cfg))
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert code == EXIT_CONFIG and out == ""
    assert "frame" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generator_overflow_at_the_sample_points_is_refused_without_a_warning(tmp_path):
    # -0.2 (x^2)^2 overflows on this box: PolyField.jet gives non-finite
    # rows without a warning, and ExpField refuses them, naming the point.
    config = tmp_path / "far_box.json"
    config.write_text(json.dumps(with_entry(("samples", "box"), [1e300, 1e301])))
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: exponential generator has norm ") and " at point [" in err


def test_an_overflowed_generator_is_named_inf(tmp_path):
    # On this box -0.2 (x^2)^2 overflows to inf, and inf times the zero
    # coefficients of the generator's spinor would read as a norm of NaN.
    config = tmp_path / "far_box.json"
    config.write_text(json.dumps(with_entry(("samples", "box"), [1e300, 1e301])))
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: exponential generator has norm inf at point [")
    assert "nan" not in err


# The Cl(3,2) field vector of a random frame and a gauge at scale 1.0 on the
# box [-3, 3]: y S^-1 e^a S loses anticommutation to roundoff past 1e-10.
FAR_FIELD_VECTOR_CONFIG = {"signature": {"p": 3, "q": 2}, "frame": {"kind": "random"},
                           "gauge": {"kind": "random", "scale": 1.0},
                           "samples": {"count": 4, "box": [-3.0, 3.0]}, "seed": 7}


def _config_refusal(cfg, worst):
    """A run of cfg, its sample points and the index of the point it must name."""
    points = sample_points(cfg["signature"]["p"] + cfg["signature"]["q"],
                           cfg["samples"]["count"], cfg["samples"]["box"], cfg["seed"])
    return cfg, points, worst


def _membership_refusal():
    # S = exp((x^1)^2) on the scalar blade: S^-1 dS = 2 x^1 dx^1 is central,
    # so the leak at a point is |2 x^1| and the worst point has the largest |x^1|.
    sig, points = Signature(2, 0), sample_points(2, 6, seed=3)
    bad = GaugeElement(ExpField(PolyField(sig, [[2, 0]], [[1.0, 0.0, 0.0, 0.0]])))
    return (lambda: bad.validate_membership(points)), points, int(np.argmax(abs(points[:, 0])))


def _flatness_refusal():
    # C_0 shifted by 0.01 x^1 e1: the worst point is where that shift breaks
    # the primitive equation most.
    sig, points = Signature(2, 0), sample_points(2, 6, seed=3)
    h = FrameGaugeFieldVector(FrameField(sig), make_gauge_element(
        PolyField(sig, [[1, 0]], [[0.0, 0.0, 0.0, 0.3]])))
    broken = OffsetCovector(primitive.DerivedConnection(h),
                            {0: PolyField(sig, [[1, 0]], [[0.0, 0.01, 0.0, 0.0]])})
    residual = max_per_point(primitive.primitive_residual(h, broken, points))
    return ((lambda: yang_mills.build_solution(h, broken, 1.0, points)), points,
            int(np.argmax(residual)))


# The five per-point threshold refusals, all through fields.refuse_past:
# (what is refused, a config or a call, with the sample points and the index
# of the worst one; the exception; the check's prefix; the value; the bound).
# A config is refused by the CLI too. A NaN counts as the worst value: the
# overflowed frame's residual is 1.0 at points 1 and 2 and NaN at point 3,
# which is named. The generator's norm is inf at every point but the origin,
# and the first of them is named.
REFUSALS = {
    "frame": (lambda: _config_refusal(dict(BASE_CONFIG, frame=ANGLE_OVERFLOW_FRAME), 3),
              FrameError, "frame fails orthogonality by", "nan", "1.0e-10"),
    "field-vector": (lambda: _config_refusal(FAR_FIELD_VECTOR_CONFIG, 2), FieldVectorError,
                     "field vector fails its defining identities: anticommutation",
                     "2.664e-06", "1.0e-10"),
    "membership": (_membership_refusal, GaugeMembershipError,
                   "gauge element leaves the admissible class: center leak", "1.831e+00",
                   "1.0e-09"),
    "flatness": (_flatness_refusal, yang_mills.NotASolution,
                 "pair fails the flatness check: residual", "1.562e-02", "1.0e-08"),
    "generator-norm": (lambda: _config_refusal(with_entry(("samples", "box"), [1e300, 1e301]), 1),
                       SeriesDivergence, "exponential generator has norm", "inf", "1.1e+15"),
}


@pytest.mark.parametrize("check", REFUSALS)
def test_each_refusal_names_its_worst_point_value_and_bound(tmp_path, check):
    make, error, prefix, value, bound = REFUSALS[check]
    target, points, worst = make()
    expected = f"{prefix} {value} at point {points[worst].tolist()} (bound {bound})"
    assert "np.float64" not in expected  # the point prints as plain floats
    with pytest.raises(error) as err:
        if isinstance(target, dict):
            runner.run_verify(runner.parse_config(target))
        else:
            target()
    assert str(err.value) == expected
    if isinstance(target, dict):
        config = tmp_path / "refused.json"
        config.write_text(json.dumps(target))
        assert run_cli(["verify", "--config", str(config)]) == (EXIT_CONFIG, "",
                                                                f"error: {expected}\n")


# Every frame and gauge entry of MALFORMED_ENTRIES, and a gauge term on a
# vector blade, is refused by parse_config alone, before any case is built.
# A frame angle overflows only at the sample points, so build_case refuses it.
PARSE_REFUSALS = [
    *(case for case in MALFORMED_ENTRIES
      if case.values[0][0] in ("frame", "gauge") and case.id != "frame-angle-overflow"),
    pytest.param(("gauge", "terms", 0, "blade"), "e1", "not a bivector", id="vector-blade"),
]


@pytest.mark.parametrize("path,value,key", PARSE_REFUSALS)
def test_parse_config_alone_refuses_malformed_frame_and_gauge_entries(path, value, key):
    with pytest.raises(runner.ConfigError) as refusal:
        runner.parse_config(with_entry(path, value))
    assert key in str(refusal.value)


def test_tolerance_overrides_are_refused(tmp_path):
    # An epsilon_override of 5 breaches eq2 by about 1 (exit 3). Bounds of
    # 1e300 on eq2, gauge and conservation once certified that breach; the
    # key that carried them is refused, so the bounds follow the mode alone.
    cfg = {"signature": {"p": 2, "q": 0}, "frame": {"kind": "random"},
           "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 4},
           "seed": 1, "epsilon_override": [5.0, 0.0]}
    lever = {"eq2": 1e300, "gauge": 1e300, "conservation": 1e300}
    path = tmp_path / "lever.json"
    for extra, exit_code in (({}, EXIT_TOLERANCE), ({"tolerances": lever}, EXIT_CONFIG)):
        path.write_text(json.dumps({**cfg, **extra}))
        code, out, err = run_cli(["verify", "--config", str(path)])
        assert code == exit_code
    assert out == "" and "unknown config key tolerances" in err


# A gauge whose exponential is finite (about 1e153) but whose S^-1 e^a S
# overflows in the gradient rows: 385i x^1 on e12, in Cl(2,1).
OVERFLOW_GAUGE_CONFIG = {
    "signature": {"p": 2, "q": 1}, "samples": {"count": 4}, "seed": 3,
    "sigma": [1.0, 0.5],
    "frame": {"kind": "rotation", "generator": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
              "poly": {"monomials": [{"exps": [1, 0, 1], "coeff": [0.5, 0.0]}]}},
    "gauge": {"kind": "exp_bivector", "terms": [{
        "blade": "e12", "poly": {"monomials": [{"exps": [1, 0, 0], "coeff": [0.0, 385.0]}]}}]},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_field_vector_jets_are_refused_without_a_warning(tmp_path):
    # Refused where the jets of h are formed, naming h and the point, not
    # later under the name of the flux sums of the second equation.
    with pytest.raises(FieldVectorError, match=r"h = y S\^-1 e S has non-finite jets at point \["):
        runner.build_case(runner.parse_config(OVERFLOW_GAUGE_CONFIG))
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(OVERFLOW_GAUGE_CONFIG))
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "field vector" in err and "flux" not in err and "Traceback" not in err


@pytest.mark.parametrize("path,value", [
    # The largest exponent poly_rows and PolyField accept, 2^63 - 1.
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "exps"), [2 ** 63 - 1, 0],
                 id="exps-int64-max"),
    # Scale 0 draws the identity gauge.
    pytest.param(("gauge",), {"kind": "random", "scale": 0}, id="gauge-scale-zero"),
    # A rotation angle of up to 30 radians, e12 (30 x^1 - 0.2 (x^2)^2).
    pytest.param(("gauge", "terms", 0, "poly", "monomials", 0, "coeff"), [30.0, 0.0],
                 id="gauge-angle-30"),
])
def test_verify_accepts_boundary_entries(tmp_path, path, value):
    config = tmp_path / "boundary.json"
    config.write_text(json.dumps(with_entry(path, value)))
    code, out, err = run_cli(["verify", "--config", str(config)])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["pass"] is True


def _nan_frame(original):
    def jets(self, x, order=1):
        y, dy = original(self, x, order)
        y = y.copy()
        y[:, 0, 0] = np.nan
        return y, dy
    return jets


def _nan_generator(original):
    def generator(sig, spec, rng):
        gen = original(sig, spec, rng)
        return PolyField(sig, gen.exps, np.where(gen.coeffs != 0, np.nan, 0.0))
    return generator


def _nan_jets(original):
    def jets(*args, **kwargs):
        out = original(*args, **kwargs).copy()
        out[:, 0, 0, 0] = np.nan
        return out
    return jets


# (patched object, attribute, wrapper, the refusal that names the stage)
NAN_STAGES = {
    "frame": (FrameField, "jets", _nan_frame, "frame fails orthogonality"),
    "gauge-generator": (runner, "_gauge_generator", _nan_generator,
                        "exponential generator has norm nan"),
    "h-jets": (FrameGaugeFieldVector, "_compute_jets", _nan_jets,
               "field vector fails its defining identities"),
    "c-jets": (primitive, "compute_C_jets", _nan_jets,
               "the flux sums of the second equation are not finite"),
}


@pytest.mark.parametrize("stage", NAN_STAGES)
def test_verify_fails_closed_on_nan_at_each_stage(config_file, monkeypatch, stage):
    # A NaN that enters at any stage is refused with exit 2 and a message
    # that names the stage, never a traceback, a pass or a blamed sigma.
    target, name, wrap, message = NAN_STAGES[stage]
    monkeypatch.setattr(target, name, wrap(getattr(target, name)))
    code, out, err = run_cli(["verify", "--config", config_file])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and "np.float64" not in err


# The spinor arrays of the unit (central) and of e1 in Cl(2,0), the algebra
# of BASE_CONFIG and of demo --n 2.
UNIT, E1 = tables(Signature(2, 0)).to_spinor(np.eye(4))[:2]


def _add(index, blade):
    """A wrapper that adds delta * blade to the array the original returns, at index."""
    def wrap(original, delta):
        def shifted(*args, **kwargs):
            out = np.array(original(*args, **kwargs))
            out[index] += delta * blade
            return out
        return shifted
    return wrap


def _times(original, delta):
    """A wrapper that scales what the original returns by 1 + delta."""
    return lambda *args: original(*args) * (1 + delta)


def _gauge_epsilon(original, delta):
    """A wrapper of runner._gauge_check that scales the epsilon it is handed by 1 + delta."""
    return lambda case, cfg, epsilon: original(case, cfg, epsilon * (1 + delta))


# Jet arrays are (P, n, rows, dim): [:, 0, 0] is the value of component 1 and
# [:, 0, 2] its derivative along x^2.
VALUE, GRADIENT, DIVERGENCE = (slice(None), 0, 0), (slice(None), 0, 2), (slice(None), 0, 1)

# One named defect per certified (report key, tolerance key) pair of
# the scopes of runner._CHECKS (report keys of the gauge check under
# "gauge_check."): (patched object, attribute, wrapper, delta), with delta the
# smallest that trips the pair on BASE_CONFIG (demo --n 2 for the demo's),
# found by bisection and rounded to two digits.
DEFECTS = {
    # C_1 off by delta e1.
    ("primitive_max", "primitive"): (primitive, "compute_C_jets", _add(VALUE, E1), 5e-9),
    # d_2 C_1 off by delta e1, which the curl of C reads.
    ("curvature_max", "curvature"): (primitive, "compute_C_jets", _add(GRADIENT, E1), 1e-7),
    # Every C_mu off by delta times the unit, which commutes with everything.
    ("center_leak_max", "center_leak"): (primitive, "compute_C_jets",
                                         _add((slice(None), slice(None), 0), UNIT), 1e-9),
    # G off by a factor 1 + delta.
    ("eq1_max", "eq1"): (YMSolution, "g_upper", _times, 5e-8),
    # The solution's epsilon off by a factor 1 + delta.
    ("eq2_max", "eq2"): (yang_mills, "epsilon_value", _times, 2.5e-8),
    # d_1 h^1 off by delta times the unit: the divergence of h, which the
    # current J = eps h carries.
    ("conservation_max", "conservation"): (FrameGaugeFieldVector, "_compute_jets",
                                           _add(DIVERGENCE, UNIT), 2.5e-8),
    # The solved epsilon off by a factor 1 + delta.
    ("epsilon_rel_error", "epsilon_rel"): (runner, "epsilon_from_residuals", _times, 1e-10),
    # The check gauge's S^-1 dS off by delta times the unit.
    ("gauge_check.center_leak", "center_leak"): (GaugeElement, "connection",
                                                 _add(..., UNIT), 1e-9),
    # The transformed C_1 off by delta e1.
    ("gauge_check.primitive_max", "gauge"): (TransformedConnection, "_compute_jets",
                                             _add(VALUE, E1), 5.1e-7),
    # d_2 of the transformed C_1 off by delta e1.
    ("gauge_check.eq1_max", "gauge"): (TransformedConnection, "_compute_jets",
                                       _add(GRADIENT, E1), 1e-6),
    # The epsilon of the transformed solution off by a factor 1 + delta.
    ("gauge_check.eq2_max", "gauge"): (runner, "_gauge_check", _gauge_epsilon, 2.6e-7),
    # d_1 of the transformed h^1 off by delta times the unit.
    ("gauge_check.conservation_max", "gauge"): (TransformedFieldVector, "_compute_jets",
                                                _add(DIVERGENCE, UNIT), 2.5e-7),
    # The transformed perturbed C_1 of the conjugation check off by delta e1.
    ("gauge_check.conjugation_max", "conjugation"): (runner, "transform_connection",
                                                     _add(VALUE, E1), 5.5e-10),
    # The literal formula's C_1 off by delta e1.
    ("explicit_formula_max_dev", "primitive"): (runner, "explicit_connection",
                                                _add((slice(None), 0), E1), 1e-8),
}


def _run_with_defect(pair, delta, monkeypatch):
    """(value of the pair's report key, its tolerance, exit code, the
    (report key, tolerance key) pairs runner.breaches names) with the pair's
    defect injected at delta."""
    target, name, wrap, _ = DEFECTS[pair]
    with monkeypatch.context() as patch:
        patch.setattr(target, name, wrap(getattr(target, name), delta))
        if pair[0] == "explicit_formula_max_dev":
            report, code = runner.run_demo(2)
        else:
            report, code = runner.run_verify(runner.parse_config(BASE_CONFIG))
    key = pair[0].split(".")
    value = report[key[0]] if len(key) == 1 else report[key[0]][key[1]]
    breached = {(line.split()[0], line.split()[-1].strip("()")) for line in runner.breaches(report)}
    return value, report["tolerances"][pair[1]], code, breached


def test_every_certified_pair_has_a_defect():
    assert set(DEFECTS) == {(f"{scope}.{key}" if scope == "gauge_check" else key, tol)
                            for scope, checks in runner._CHECKS.items() for key, tol in checks}


def test_a_residual_with_no_entries_is_refused(config_file, monkeypatch):
    # A residual sliced to size zero has no maximum to certify: the reducer
    # refuses it, naming its report key, rather than reading it as 0.0.
    def empty(s, x):
        return yang_mills.conservation_residual(s, x)[..., :0]

    rows = tuple((key, empty if key == "conservation_max" else residual)
                 for key, residual in runner._RUN_ROWS)
    monkeypatch.setattr(runner, "_RUN_ROWS", rows)
    code, out, err = run_cli(["verify", "--config", config_file])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and "conservation_max" in err and "Traceback" not in err


@pytest.mark.parametrize("pair", DEFECTS, ids="/".join)
def test_each_certified_pair_trips_on_its_defect(pair, monkeypatch):
    """A run with the pair's defect exits 3 with the pair's key over its
    tolerance.

    DEFECTS records the smallest delta that trips each pair, from 1e-10
    (epsilon_rel) to 1e-6 (gauge_check.eq1_max); the run at ten times it
    trips, and the run at a tenth of it leaves the key within its
    tolerance, so the record holds to a factor of ten either way. The
    failed verdict names the pair among its breaches, and the passed one
    does not.
    """
    delta = DEFECTS[pair][3]
    value, tol, code, breached = _run_with_defect(pair, 10 * delta, monkeypatch)
    assert code == EXIT_TOLERANCE and value > tol and pair in breached
    value, tol, _, breached = _run_with_defect(pair, delta / 10, monkeypatch)
    assert value <= tol and pair not in breached


# Common-mode controls: a shared kernel halved after build_case, on Cl(3,2)
# x 17 points, and the exact set of report keys the verdict then breaches.
HALVED_KERNELS = {
    "commutator_grid": {"primitive_max", "curvature_max", "eq1_max", "eq2_max",
                        "epsilon_rel_error", "gauge_check.eq1_max", "gauge_check.eq2_max",
                        "gauge_check.primitive_max", "gauge_check.conjugation_max"},
    "commutator_sum": {"eq2_max", "conservation_max", "epsilon_rel_error",
                       "gauge_check.eq2_max", "gauge_check.conservation_max"},
}


@pytest.mark.parametrize("kernel", HALVED_KERNELS)
def test_halved_commutator_kernel_breaches_the_keys_it_feeds(kernel, monkeypatch):
    cfg = runner.parse_config({"signature": {"p": 3, "q": 2}, "frame": {"kind": "random"},
                               "gauge": {"kind": "random"}, "samples": {"count": 16}, "seed": 7})
    case = runner.build_case(cfg)
    table = type(tables(case["sig"]))
    original = getattr(table, kernel)
    monkeypatch.setattr(table, kernel, lambda self, *args: 0.5 * original(self, *args))
    report, code = runner._certify(case, cfg)
    assert code == EXIT_TOLERANCE
    assert {line.split()[0] for line in runner.breaches(report)} == HALVED_KERNELS[kernel]


@pytest.mark.parametrize("sigma", ["1e4", "1e100"])
def test_verify_solves_epsilon_at_large_sigma(tmp_path, sigma):
    # eps = 4 sigma^3 is solved to roundoff; the absolute residual
    # tolerances then fail (eq2 at 1e4; at 1e100 conservation overflows to
    # NaN as well), a tolerance breach rather than a refused config.
    code, out, err = verify_with(tmp_path, sigma=[float(sigma), 0.0])
    assert code == EXIT_TOLERANCE
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["epsilon_rel_error"] <= 1e-10
    assert report["eq2_max"] > report["tolerances"]["eq2"]


def test_verify_epsilon_override_breaches_tolerance(tmp_path):
    cfg = dict(BASE_CONFIG, epsilon_override=[13.0, 0.0])
    path = tmp_path / "forced_eps.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_TOLERANCE
    report = json.loads(out)
    assert report["pass"] is False
    assert report["epsilon"] == [13.0, 0.0]
    # stderr has one line per breach, "breach: <key> <value> > <bound> (<tolerance
    # key>)", with the values of the report on stdout.
    lines = err.splitlines()
    keys = [line.split()[1] for line in lines]
    assert "eq2_max" in keys and "gauge_check.eq2_max" in keys
    assert f"breach: eq2_max {report['eq2_max']:.3e} > 1.0e-07 (eq2)" in lines
    assert lines == [f"breach: {line}" for line in runner.breaches(report)]
    assert report["eq2_max"] > 1.0
    # The override reaches the transformed solution of the gauge check,
    # while the eps solve is still held to the formula 4(n-1) sigma^3.
    gauge = report["gauge_check"]
    assert gauge["eq2_max"] > report["tolerances"]["gauge"]
    assert gauge["pass"] is False
    assert report["epsilon_formula"] == [4.0, 0.0]
    assert report["epsilon_rel_error"] <= 1e-10


def test_verify_output_file_matches_stdout(tmp_path, config_file):
    target = tmp_path / "report.json"
    cfg = dict(BASE_CONFIG, output=str(target))
    path = tmp_path / "with_output.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_OK
    assert json.loads(target.read_text()) == json.loads(out)


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_verify_unwritable_output_fails_closed(tmp_path, where):
    # A path in a missing directory, or a directory itself, is a config
    # error: exit 2 with a message and nothing on stdout, not a traceback.
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    path = tmp_path / "with_output.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, output=str(target))))
    code, out, err = run_cli(["verify", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: cannot write output: ")


def test_demo_passes():
    code, out, err = run_cli(["demo", "--n", "2"])
    assert (code, err) == (EXIT_OK, "")
    assert "PASS" in out
    assert "lambda" in out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_demo_certifies_the_case_it_compares(n, monkeypatch):
    # The h compared with the literal formula is the h that is certified:
    # one run_demo builds one case.
    built = []
    original = runner.build_case

    def counted(cfg):
        built.append(original(cfg))
        return built[-1]
    monkeypatch.setattr(runner, "build_case", counted)
    report, code = runner.run_demo(n)
    assert code == 0 and report["pass"]
    assert len(built) == 1


def test_demo_refusal_exits_2_with_empty_stdout(monkeypatch):
    # Any CliffordError is a refusal, not a traceback, in every command.
    def refuse(n):
        raise clifford_ym.CliffordError("no such field")

    monkeypatch.setattr("clifford_ym.cli.run_demo", refuse)
    code, out, err = run_cli(["demo", "--n", "2"])
    assert (code, out, err) == (EXIT_CONFIG, "", "error: no such field\n")


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



# Runs the command line with every scipy import refused, then reports which
# scipy modules ended up loaded anyway.
NO_SCIPY = """
import importlib.abc, runpy, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy import refused: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
sys.argv[0] = "clifford-ym"
try:
    runpy.run_module("clifford_ym.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("frame", [
    None,
    {"kind": "random"},
    {"kind": "rotation", "generator": [[0.0, 1.0], [-1.0, 0.0]],
     "poly": {"monomials": [{"exps": [1, 1], "coeff": [0.7, 0.0]}]}},
], ids=["golden", "verify-random-frame", "verify-rotation-frame"])
def test_cli_runs_without_scipy(tmp_path, frame):
    argv = ["golden"]
    if frame is not None:
        config = tmp_path / "case.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, frame=frame)))
        argv = ["verify", "--config", str(config)]
    proc = run_pinned([sys.executable, "-c", NO_SCIPY, *argv])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "scipy modules: []" in proc.stderr

@pytest.mark.skipif(shutil.which("clifford-ym") is None,
                    reason="clifford-ym is not on PATH: the package is not installed")
def test_console_script_on_path():
    installed = entry_points(group="console_scripts", name="clifford-ym")
    assert {ep.value for ep in installed} == {declared_scripts()["clifford-ym"]}

    proc = run_pinned(["clifford-ym", "golden"])
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout
