"""Command-line front end.

Subcommands:
  tables --n N [--json]   projection tables for dimension N, exact rationals
  verify --config FILE    residual verification campaign from a JSON config
  golden                  compare computed tables against the frozen values
  demo --n {2|3|4}        end-to-end small-n showcase

Exit codes: 0 success, 2 config error, 3 tolerance breach, 4 golden mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import CliffordError, n_max
from .contraction import build_table, table_to_json
from .golden import run_golden_checks
from .runner import breaches, parse_config, run_demo, run_verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_GOLDEN = 4


def _fmt_fraction(f) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _print_tables_text(table) -> None:
    print(f"n = {table.n}")
    print("lambda:", " ".join(str(v) for v in table.lambdas))
    power, inverse, weights = table.names
    for name, rows in ((power, table.power), (inverse, table.inverse)):
        print(f"{name}:")
        for row in rows:
            print("  " + "  ".join(_fmt_fraction(v) for v in row))
    mus = ["-" if m is None else _fmt_fraction(m) for m in table.mus]
    print("mu:", " ".join(mus))
    print(f"{weights}:", " ".join(_fmt_fraction(w) for w in table.weights))


def cmd_tables(args) -> int:
    n = args.n
    if not 1 <= n <= n_max():
        print(f"error: n must be in 1..{n_max()}, got {n}", file=sys.stderr)
        return EXIT_CONFIG
    table = build_table(n)
    if args.json:
        print(json.dumps(table_to_json(table), indent=2, sort_keys=True))
    else:
        _print_tables_text(table)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting, huge integers
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = parse_config(data)
    report, code = run_verify(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.output:
        # Written first, so that a refused path leaves stdout empty.
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    print(text)
    sys.stderr.writelines(f"breach: {b}\n" for b in breaches(report))
    return code


def cmd_golden(args) -> int:
    results = run_golden_checks()
    bad = 0
    for name, ok, detail in results:
        if ok:
            print(f"ok       {name}")
        else:
            bad += 1
            print(f"MISMATCH {name}: {detail}")
    print(f"{len(results) - bad}/{len(results)} golden checks passed")
    return EXIT_OK if bad == 0 else EXIT_GOLDEN


def cmd_demo(args) -> int:
    report, code = run_demo(args.n)
    n = args.n
    print(f"Cl({n},0) demo, seed {report['seed']}")
    print("  lambda:", report["lambdas"])
    weights = ", ".join(f"{w['num']}/{w['den']}" for w in report["explicit_weights"])
    print("  contraction weights:", weights)
    print(f"  explicit-formula deviation: {report['explicit_formula_max_dev']:.3e}")
    print(f"  primitive residual max:     {report['primitive_max']:.3e}")
    print(f"  curvature residual max:     {report['curvature_max']:.3e}")
    print(f"  eq1/eq2/conservation max:   {report['eq1_max']:.3e} "
          f"{report['eq2_max']:.3e} {report['conservation_max']:.3e}")
    eps = report["epsilon_formula"]
    print(f"  epsilon: {eps[0]:g}{eps[1]:+g}i, solved rel err "
          f"{report['epsilon_rel_error']:.3e}")
    gc = report["gauge_check"]
    print(f"  gauge check: eq2 {gc['eq2_max']:.3e}, conjugation "
          f"{gc['conjugation_max']:.3e}, leak {gc['center_leak']:.3e}")
    print("PASS" if report["pass"] else "FAIL")
    sys.stderr.writelines(f"breach: {b}\n" for b in breaches(report))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifford-ym",
        description="Clifford-algebra Yang-Mills solution verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print projection tables")
    p_tables.add_argument("--n", type=int, required=True, help="dimension")
    p_tables.add_argument("--json", action="store_true", help="emit JSON")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--config", required=True, help="JSON config path")
    p_verify.set_defaults(func=cmd_verify)

    p_golden = sub.add_parser("golden", help="check tables against frozen values")
    p_golden.set_defaults(func=cmd_golden)

    p_demo = sub.add_parser("demo", help="small-n end-to-end showcase")
    p_demo.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliffordError as exc:  # ConfigError among them
        # Bad frame matrices, non-bivector gauge terms, and the like are
        # configuration mistakes, not tolerance breaches. Every command
        # prints only after its work is done, so a refusal leaves stdout empty.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
