"""Benchmark workloads, their configs, and the correctness gate.

Each workload turns the benchmark seed into one JSON-style config, the only
input the program receives, and defines one verdict: the work from a parsed
config to a checked certificate. Every verdict passes through the gate,
which counts it as failed when the program exits non-zero, reports
``pass: false``, leaves any residual above its tolerance, raises, or returns
a report that differs from the first one for the same config and seed.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass, field

# The certificate's tolerances, frozen here so that a change which loosens
# runner.EXACT_TOLERANCES cannot make a breached verdict look certified.
TOL = {
    "primitive": 1e-8,
    "curvature": 1e-7,
    "eq1": 1e-7,
    "eq2": 1e-7,
    "conservation": 1e-7,
    "gauge": 1e-6,
    "center_leak": 1e-9,
    "conjugation": 1e-9,
    "epsilon_rel": 1e-10,
}

# sigma-sweep: real, negative, fractional, imaginary and complex couplings.
SIGMAS = (1.0, -1.0, 0.5, 1j, 0.5 - 0.5j, -0.3 + 0.8j)


def _random_case(p: int, q: int, count: int, seed: int) -> dict:
    return {
        "signature": {"p": p, "q": q},
        "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": count, "box": [-1.0, 1.0]},
        "seed": seed,
        "mode": "exact",
        "sigma": [1.0, 0.0],
    }


def self_test_config(seed: int) -> dict:
    """A Cl(2,0) case whose epsilon_override breaks the source equation (exit 3)."""
    cfg = _random_case(2, 0, 4, seed)
    cfg["epsilon_override"] = [5.0, 0.0]  # the formula gives 4(n-1) sigma^3 = 4
    return cfg


@dataclass
class Verdict:
    text: str              # canonical report, compared byte for byte across repeats
    points: int            # sample points certified by this verdict; 0 if it failed
    code: int              # exit code the CLI would return
    problems: list = field(default_factory=list)


def _over(value, tol: float) -> bool:
    """True when a residual breaches its tolerance; NaN always breaches."""
    return not (isinstance(value, (int, float)) and value <= tol)


def check_verify_report(report: dict, code: int, points: int) -> list[str]:
    """Everything a certified run_verify verdict must satisfy."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    if report.get("samples") != points:
        problems.append(f"samples {report.get('samples')} != {points}")
    for key, tol_key in (("primitive_max", "primitive"), ("curvature_max", "curvature"),
                         ("center_leak_max", "center_leak"), ("eq1_max", "eq1"),
                         ("eq2_max", "eq2"), ("conservation_max", "conservation"),
                         ("epsilon_rel_error", "epsilon_rel")):
        if _over(report.get(key), TOL[tol_key]):
            problems.append(f"{key} {report.get(key)!r} > {TOL[tol_key]}")
    gauge = report.get("gauge_check", {})
    for key, tol_key in (("center_leak", "center_leak"), ("primitive_max", "gauge"),
                         ("eq1_max", "gauge"), ("eq2_max", "gauge"),
                         ("conservation_max", "gauge"), ("conjugation_max", "conjugation")):
        if _over(gauge.get(key), TOL[tol_key]):
            problems.append(f"gauge_check.{key} {gauge.get(key)!r} > {TOL[tol_key]}")
    if gauge.get("pass") is not True:
        problems.append("gauge_check pass is not true")
    return problems


def verify_verdict(pkg, cfg) -> Verdict:
    """runner.run_verify on a parsed config, serialized as the CLI prints it."""
    report, code = pkg.runner.run_verify(cfg)
    points = cfg.count + 1
    problems = check_verify_report(report, code, points)
    text = json.dumps(report, indent=2, sort_keys=True)
    return Verdict(text, 0 if problems else points, code, problems)


def sweep_verdict(pkg, cfg) -> Verdict:
    """One build_case, then build_solution, verify_solution and
    epsilon_from_residuals for every sigma in SIGMAS."""
    ym = pkg.yang_mills
    case = pkg.runner.build_case(cfg)
    points = case["points"]
    problems, entries = [], []
    for sigma in SIGMAS:
        sol = ym.build_solution(case["h"], case["conn"], sigma, points=points,
                                tol=TOL["primitive"])
        res = ym.verify_solution(sol, points)
        eps = ym.epsilon_from_residuals(sol, points)
        eps_rel = abs(eps - sol.epsilon) / abs(sol.epsilon)
        entry = {
            "sigma": [sol.sigma.real, sol.sigma.imag],
            "eq1_max": res["eq1_max"],
            "eq2_max": res["eq2_max"],
            "conservation_max": res["conservation_max"],
            "epsilon_solved": [eps.real, eps.imag],
            "epsilon_rel_error": eps_rel,
        }
        for key, tol_key in (("eq1_max", "eq1"), ("eq2_max", "eq2"),
                             ("conservation_max", "conservation"),
                             ("epsilon_rel_error", "epsilon_rel")):
            if _over(entry[key], TOL[tol_key]):
                problems.append(f"sigma {sigma}: {key} {entry[key]!r} > {TOL[tol_key]}")
        entries.append(entry)
    if len(points) != cfg.count + 1:
        problems.append(f"{len(points)} points, expected {cfg.count + 1}")
    text = json.dumps({"samples": len(points), "sweep": entries}, indent=2, sort_keys=True)
    certified = 0 if problems else len(points) * len(SIGMAS)
    return Verdict(text, certified, 3 if problems else 0, problems)


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen: perfbench/README.md and BENCHMARK.json."""

    name: str
    config: object     # seed -> config dict
    verdict: object    # (package namespace, RunConfig) -> Verdict


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-many-points",
            lambda seed: _random_case(2, 0, 129, seed),
            verify_verdict,
        ),
        Workload(
            "verify-wide",
            lambda seed: _random_case(4, 3, 1, seed),
            verify_verdict,
        ),
        Workload(
            "sigma-sweep",
            lambda seed: _random_case(3, 2, 16, seed),
            sweep_verdict,
        ),
    )
}

SELF_TEST = Workload("self-test", self_test_config, verify_verdict)


class Gate:
    """Runs verdicts and counts them; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, str] = {}

    def attempt(self, workload: Workload, pkg, cfg, key: str) -> Verdict | None:
        self.attempted += 1
        try:
            verdict = workload.verdict(pkg, cfg)
        except Exception:  # a raising verdict is a failed verdict
            self.failed += 1
            print(f"verdict raised on {key}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        first = self._first.setdefault(key, verdict.text)
        if verdict.text != first:
            verdict.problems.append("report differs from the first report for this config and seed")
        if verdict.problems:
            verdict.points = 0
            self.failed += 1
            print(f"verdict failed on {key}: {'; '.join(verdict.problems)}", file=sys.stderr)
        return verdict


def self_test(pkg, seed: int) -> dict:
    """The gate must count an epsilon_override breach (exit 3) as a failure."""
    gate = Gate()
    cfg = pkg.runner.parse_config(SELF_TEST.config(seed))
    verdict = gate.attempt(SELF_TEST, pkg, cfg, "self-test (expected to fail)")
    code = None if verdict is None else verdict.code
    ok = code == 3 and gate.attempted == 1 and gate.failed == 1
    return {"ok": ok, "exit_code": code, "attempted": gate.attempted,
            "failed": gate.failed, "fail_ratio": gate.failed / gate.attempted}

