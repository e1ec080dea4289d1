"""Reports of fixed verify and demo runs against checked-in golden reports.

Each file under ``tests/data/golden_reports/`` holds a run (a verify config,
or a demo n) and the report it produced. The test runs it again and
compares the report field by field: every non-float field must match
exactly, and every float must satisfy |a - b| <= 1e-12 * max(1, |b|), so a
change that moves the numbers beyond their last bits fails here.

To rewrite the files from the code on the path, after a change that is
meant to move the numbers:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from clifford_ym import runner

DATA = Path(__file__).resolve().parent / "data" / "golden_reports"
REL_TOL = 1e-12


def _verify_case(p, q, count, seed, mode):
    return {
        "signature": {"p": p, "q": q},
        "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": count, "box": [-1.0, 1.0]},
        "seed": seed,
        "mode": mode,
        "sigma": [1.0, 0.0],
    }


# Cl(2,0) at 8 points and Cl(3,2) at 4 points (count plus the origin), in
# exact and finite-difference mode, and the n = 3 demo.
RUNS = {
    **{f"verify_cl20_{mode}": {"verify": _verify_case(2, 0, 7, 11, mode)}
       for mode in ("exact", "fd")},
    **{f"verify_cl32_{mode}": {"verify": _verify_case(3, 2, 3, 12, mode)}
       for mode in ("exact", "fd")},
    "demo_n3": {"demo": 3},
}


def run(spec: dict) -> tuple[dict, int]:
    if "verify" in spec:
        return runner.run_verify(runner.parse_config(spec["verify"]))
    return runner.run_demo(spec["demo"])


def mismatches(got, want, path="report") -> list[str]:
    """Every field where got differs from want beyond the float tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isnan(want):
            return [] if math.isnan(got) else [f"{path}: {got!r} != nan"]
        if abs(got - want) <= REL_TOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r} (diff {abs(got - want):.3e})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    golden = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["run"] == RUNS[name]
    report, code = run(RUNS[name])
    assert code == golden["exit_code"]
    # Through JSON, as the CLI prints it, so both sides have the same types.
    got = json.loads(json.dumps(report))
    problems = mismatches(got, golden["report"])
    assert not problems, "\n".join(problems[:20])


def test_mismatches_flags_moved_numbers_and_changed_fields():
    want = {"a": 1.0, "b": [0.5, "x"], "c": True, "d": 1e-15}
    assert mismatches({"a": 1.0 + 5e-13, "b": [0.5, "x"], "c": True, "d": 2e-15}, want) == []
    assert mismatches({"a": 1.0 + 5e-12, "b": [0.5, "x"], "c": True, "d": 1e-15}, want)
    assert mismatches({"a": 1.0, "b": [0.5, "y"], "c": True, "d": 1e-15}, want)
    assert mismatches({"a": 1.0, "b": [0.5, "x"], "c": False, "d": 1e-15}, want)
    assert mismatches({"a": 1.0, "b": [0.5], "c": True, "d": 1e-15}, want)
    assert mismatches({"a": 1.0, "b": [0.5, "x"], "c": True}, want)


def write_reports(directory: Path = DATA) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, spec in RUNS.items():
        report, code = run(spec)
        text = json.dumps({"run": spec, "exit_code": code, "report": report},
                          indent=1, sort_keys=True)
        (directory / f"{name}.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_reports(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
