"""clifford-ym benchmark: time to a certified verify verdict.

    python3 perfbench/run.py --workload verify-many-points --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and loads the package from ``src/``. One
process runs one verdict after another (a closed loop with one client) for
``--seconds``, starts no worker threads, and pins BLAS to one thread. Set-up
time is measured separately in fresh interpreters. ``--trace 1`` is a
separate run that wraps each module's entry points and reports per-layer
counts and times; see perfbench/README.md.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it, and perfbench/out/, hold the full record with
provenance and every sample.
"""

import os
import sys

# Fixed before numpy loads: one BLAS thread, so a verdict starts no worker
# threads and kernel timings do not depend on what else runs on the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Leave no bytecode caches in the checkout.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "clifford_ym"
OUT = HERE / "out"

MIN_VERDICTS = 3   # per untraced run, so verdict_s is a median even for slow verdicts
COLD_STARTS = 3    # fresh interpreters per run; setup_s is their median

EXIT_USAGE = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import clifford_ym from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import clifford_ym
    from clifford_ym import runner, yang_mills

    if Path(clifford_ym.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"clifford_ym was imported from {clifford_ym.__file__}, not {PACKAGE}")
    return types.SimpleNamespace(runner=runner, yang_mills=yang_mills)


# -- provenance ---------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version(module) -> str:
    try:
        return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError):
        return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "src_clifford_ym_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


# -- measurement --------------------------------------------------------------

def cold_start(config: dict) -> float:
    """Seconds from starting a fresh interpreter to its first built case."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_start.py"), str(SRC), json.dumps(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1]) - t0


def timed_attempt(gate, workload, pkg, cfg, key):
    t0 = time.perf_counter()
    verdict = gate.attempt(workload, pkg, cfg, key)
    return time.perf_counter() - t0, (verdict.points if verdict else 0)


def tail(values):
    """Highest percentile with at least ten samples above it (nearest rank), if any."""
    n = len(values)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def timed_run(workload, pkg, config, seconds, seed):
    setups = [cold_start(config) for _ in range(COLD_STARTS)]
    cfg = pkg.runner.parse_config(config)
    pkg.runner.build_case(cfg)  # warm this process: lazy imports and cached tables
    selftest = wl.self_test(pkg, seed)

    gate = wl.Gate()
    times, certified = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_VERDICTS or time.perf_counter() < deadline:
        dt, points = timed_attempt(gate, workload, pkg, cfg, workload.name)
        times.append(dt)
        certified.append(points)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "verdict_s": (statistics.median(times), "s"),
        # Throughput over the whole loop: every verdict counts, failed ones with 0 points.
        "certified_per_s": (sum(certified) / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_ratio": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
    }
    detail = {
        "verdict_s_samples": times,
        "verdict_s_count": len(times),
        "verdict_s_quartiles": statistics.quantiles(times, n=4, method="inclusive"),
        "verdict_s_tail": tail(times),
        "certified_points_samples": certified,
        "setup_s_samples": setups,
        "fail_ratio": gate.failed / gate.attempted,
        "gate_self_test": selftest,
    }
    correct = gate.failed == 0 and selftest["ok"]
    return gate, metrics, detail, correct


def _hit_ratio(requests: int, computes: int) -> float:
    return 1.0 - computes / requests if requests else 0.0


def layer_metrics(t: dict, points: int) -> dict:
    """Per-layer metrics of one traced verdict from its span table."""
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "under": {}}

    def g(name):
        return t.get(name, empty)

    bp = g("algebra.batch_product")
    gauge_computes = (g("fields.exp_jet")["under"].get("fields.gauge_jet", 0)
                      + g("fields.invert_value_jet")["under"].get("fields.gauge_jet", 0))
    conn_computes = g("primitive.compute_C_jets")["under"].get("primitive.conn_jets", 0)
    return {
        "algebra.batch_product.calls": (bp["calls"], "count"),
        "algebra.batch_product.pairs": (bp["work"], "count"),
        "algebra.batch_product.busy_s": (bp["busy_s"], "s"),
        "algebra.product.calls": (g("algebra.product")["calls"], "count"),
        "algebra.product.busy_s": (g("algebra.product")["busy_s"], "s"),
        "algebra.us_per_pair": (1e6 * bp["busy_s"] / bp["work"] if bp["work"] else 0.0, "us"),
        "fields.jet_mul.calls": (g("fields.jet_mul")["calls"], "count"),
        "fields.jet_mul.self_s": (g("fields.jet_mul")["self_s"], "s"),
        "fields.exp_jet.calls": (g("fields.exp_jet")["calls"], "count"),
        "fields.exp_jet.busy_s": (g("fields.exp_jet")["busy_s"], "s"),
        "fields.h_compute.calls": (g("fields.h_compute")["calls"], "count"),
        "fields.h_compute.per_point": (g("fields.h_compute")["calls"] / points, "calls/point"),
        "fields.h_jets.hit_ratio": (_hit_ratio(g("fields.h_jets")["calls"],
                                               g("fields.h_compute")["calls"]), "ratio"),
        "fields.gauge_jet.hit_ratio": (_hit_ratio(g("fields.gauge_jet")["calls"],
                                                  gauge_computes), "ratio"),
        "primitive.compute_C_jets.calls": (g("primitive.compute_C_jets")["calls"], "count"),
        "primitive.compute_C_jets.busy_s": (g("primitive.compute_C_jets")["busy_s"], "s"),
        "primitive.compute_C_jets.per_point": (
            g("primitive.compute_C_jets")["calls"] / points, "calls/point"),
        "primitive.conn_jets.hit_ratio": (_hit_ratio(g("primitive.conn_jets")["calls"],
                                                     conn_computes), "ratio"),
        "primitive.campaign.self_s": (g("primitive.campaign")["self_s"], "s"),
        "yang_mills.build_solution.busy_s": (g("yang_mills.build_solution")["busy_s"], "s"),
        "yang_mills.verify_solution.busy_s": (g("yang_mills.verify_solution")["busy_s"], "s"),
        "yang_mills.epsilon.busy_s": (g("yang_mills.epsilon")["busy_s"], "s"),
        "runner.build_case.self_s": (g("runner.build_case")["self_s"], "s"),
        "runner.gauge_check.self_s": (g("runner.gauge_check")["self_s"], "s"),
    }


def traced_run(workload, pkg, config, seconds, seed, spans_path):
    tracer = Tracer()
    # Set-up is traced in this process while it is still cold: the first
    # build_case pays the scipy.stats import in sample_points and the
    # build_table cache fill.
    setup_run = tracer.begin_run("setup")
    tracer.install()
    cfg = pkg.runner.parse_config(config)
    pkg.runner.build_case(cfg)
    tracer.uninstall()
    selftest = wl.self_test(pkg, seed)

    gate = wl.Gate()
    untraced, traced, runs = [], [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        untraced.append(timed_attempt(gate, workload, pkg, cfg, workload.name)[0])
        runs.append(tracer.begin_run(f"verdict-{len(runs)}"))
        tracer.install()
        try:
            traced.append(timed_attempt(gate, workload, pkg, cfg, workload.name)[0])
        finally:
            tracer.uninstall()

    tables = tracer.layer_tables([setup_run] + runs)
    points = cfg.count + 1
    per_run = [layer_metrics(tables[r], points) for r in runs]
    metrics = {name: (statistics.median(m[name][0] for m in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    setup = tables[setup_run]
    metrics["fields.sample_points.busy_s"] = (
        setup.get("fields.sample_points", {}).get("busy_s", 0.0), "s")
    metrics["contraction.build_table.busy_s"] = (
        setup.get("contraction.build_table", {}).get("busy_s", 0.0), "s")
    metrics["trace.verdict_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_verdict_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (metrics["trace.verdict_s"][0]
                                   - metrics["trace.untraced_verdict_s"][0], "s")

    counts = [{k: v[0] for k, v in m.items() if v[1] == "count"} for m in per_run]
    spans = tracer.write(spans_path)
    detail = {
        "traced_verdict_s_samples": traced,
        "untraced_verdict_s_samples": untraced,
        "counts_repeat_across_verdicts": all(c == counts[0] for c in counts),
        "points_per_verdict": points,
        "prediction": {PREDICTIONS[workload.name][0]: PREDICTIONS[workload.name][1](
            {k: v for k, (v, _) in metrics.items()}, points)},
        "bindings": tracer.bindings,
        "spans_written": spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_tables": {tracer.runs[r]: tables[r] for r in [setup_run] + runs},
        "fail_ratio": gate.failed / gate.attempted,
        "gate_self_test": selftest,
    }
    correct = gate.failed == 0 and selftest["ok"]
    return gate, metrics, detail, correct


# The layer split each workload was built to show, checked on every traced run.
PREDICTIONS = {
    "verify-wide": ("batch_product busy_s >= half of the traced verdict_s",
                    lambda v, points: v["algebra.batch_product.busy_s"] >= 0.5 * v["trace.verdict_s"]),
    "verify-many-points": ("h jets computed more than once per point",
                           lambda v, points: v["fields.h_compute.per_point"] > 1),
    "sigma-sweep": ("compute_C_jets runs once per point",
                    lambda v, points: v["primitive.compute_C_jets.calls"] == points),
}


def os_threads() -> int | None:
    """Threads of this process, to show that a run starts no workers."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source {PACKAGE} not found; run from a full checkout",
              file=sys.stderr)
        return EXIT_USAGE
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    workload = wl.WORKLOADS[args.workload]
    config = workload.config(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        gate, metrics, detail, correct = traced_run(
            workload, pkg, config, args.seconds, args.seed, OUT / f"{stem}-spans.csv.gz")
    else:
        gate, metrics, detail, correct = timed_run(
            workload, pkg, config, args.seconds, args.seed)

    result = {
        "correct": bool(correct),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
        "provenance": provenance(args.seed),
        **result,
        "detail": {**detail, "os_threads_at_end": os_threads()},
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
