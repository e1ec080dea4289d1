"""End-to-end acceptance checks, one per governing requirement.

Each test prints a single pass/fail line so a log scan shows the whole
verdict at a glance. Tolerances and runtime budgets are asserted.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from clifford_ym import golden
from clifford_ym.algebra import (
    Multivector,
    Signature,
    commutator,
    grade_project,
    random_multivector,
    reversion,
    tables,
    trace,
)
from clifford_ym.contraction import build_table, contract, lambdas
from clifford_ym.fields import PolyField, sample_points
from clifford_ym.primitive import (
    DerivedConnection,
    TransformedConnection,
    TransformedFieldVector,
    primitive_residual,
    solve,
)
from clifford_ym.yang_mills import (
    YMSolution,
    build_solution,
    epsilon_from_residuals,
    epsilon_value,
    eq2_residual,
    gauge_transform_solution,
    verify_solution,
)
from conftest import OffsetCovector, build_field_vector, conjugate, poly_partial

SIGNATURES = [(2, 0), (1, 1), (3, 0), (2, 1), (1, 3), (4, 0), (2, 2), (3, 2)]
SEEDS = [0, 1, 2, 3, 4]


def report(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


def test_criterion_1_golden_tables():
    t0 = time.perf_counter()
    t2, t3, t4 = build_table(2), build_table(3), build_table(4)
    ok = (
        t2.b == golden.B_N2
        and t4.b == golden.B_N4
        and t3.d == golden.D_N3
        and t3.g == golden.G_N3
        and all(passed for _, passed, _ in golden.run_golden_checks())
    )
    elapsed = time.perf_counter() - t0
    report(1, "golden tables", ok and elapsed < 1.0,
           f"B2/B4/D3/G3 exact rational equality, {elapsed:.3f}s")


def test_criterion_2_explicit_coefficients():
    t0 = time.perf_counter()
    want2 = (Fraction(1, 2), Fraction(-1, 16), Fraction(-3, 32))
    want3 = (Fraction(3, 16), Fraction(-1, 16))
    want4 = (Fraction(1, 4), Fraction(67, 576), Fraction(73, 2304),
             Fraction(-19, 2304), Fraction(-25, 9216))
    ok = (
        build_table(2).weights == want2
        and build_table(3).weights == want3
        and build_table(4).weights == want4
    )
    elapsed = time.perf_counter() - t0
    report(2, "explicit coefficients", ok and elapsed < 1.0,
           f"n=2,3,4 contraction weights exact, {elapsed:.3f}s")


def test_criterion_3_primitive_solver():
    t0 = time.perf_counter()
    worst_primitive = 0.0
    worst_curvature = 0.0
    n_points = None
    for (p, q) in SIGNATURES:
        for seed in SEEDS:
            sig, h, points = build_field_vector(p, q, seed=seed, count=16)
            n_points = len(points)
            camp = solve(h).campaign(points)
            worst_primitive = max(worst_primitive, camp["primitive_max"])
            worst_curvature = max(worst_curvature, camp["curvature_max"])
    elapsed = time.perf_counter() - t0
    ok = worst_primitive < 1e-8 and worst_curvature < 1e-7 and elapsed < 30.0
    report(3, "primitive solver", ok,
           f"8 signatures x 5 seeds at {n_points} points: "
           f"primitive {worst_primitive:.2e}, curvature {worst_curvature:.2e}, {elapsed:.1f}s")


def test_criterion_4_yang_mills_certificate():
    t0 = time.perf_counter()
    worst = {"eq1_max": 0.0, "eq2_max": 0.0, "conservation_max": 0.0}
    worst_eps = 0.0
    for (p, q) in SIGNATURES:
        for seed in SEEDS:
            sig, h, points = build_field_vector(p, q, seed=seed)
            c = DerivedConnection(h)
            for sigma in (1.0, -1.0, 0.5):
                sol = build_solution(h, c, sigma, points=points[:0])
                for res in verify_solution(sol, points[:4])["per_point"]:
                    for key in worst:
                        worst[key] = max(worst[key], res[key])
                eps = epsilon_from_residuals(sol, points[:4])
                want = epsilon_value(sig.n, sigma)
                worst_eps = max(worst_eps, abs(eps - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = (all(v < 1e-7 for v in worst.values()) and worst_eps < 1e-10
          and elapsed < 60.0)
    report(4, "Yang-Mills certificate", ok,
           f"sigma in (1,-1,0.5): eq1 {worst['eq1_max']:.2e}, eq2 {worst['eq2_max']:.2e}, "
           f"conservation {worst['conservation_max']:.2e}, "
           f"epsilon rel {worst_eps:.2e}, {elapsed:.1f}s")


def test_criterion_5_gauge_invariance():
    from clifford_ym.fields import make_gauge_element, random_bivector_poly_field

    t0 = time.perf_counter()
    worst_res = 0.0
    worst_conj = 0.0
    for idx, (p, q) in enumerate([(2, 0), (2, 1), (3, 0)]):
        sig, h, points = build_field_vector(p, q, seed=107 + idx)
        c = DerivedConnection(h)
        sol = build_solution(h, c, 1.0, points=points[:3])
        rng = np.random.default_rng(1000 + idx)
        gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
        moved = gauge_transform_solution(sol, gauge, points=points[:3])
        rep = verify_solution(moved, points[:4])
        worst_res = max(worst_res, rep["eq1_max"], rep["eq2_max"],
                        rep["conservation_max"])

        # Conjugation of a non-vanishing residual: running the source
        # equation with a deliberately wrong epsilon leaves a residual
        # proportional to h, which must transform as S^-1 R S.
        # Residuals come in blade coordinates, conjugate acts on spinor arrays.
        t = tables(sig)
        wrong = sol.epsilon + 1.0
        base = t.to_spinor(eq2_residual(YMSolution(sol.h, sol.c, sol.sigma, wrong), points[:3]))
        after = eq2_residual(YMSolution(moved.h, moved.c, moved.sigma, wrong), points[:3])
        conjugated = t.to_blades(conjugate(gauge, base.swapaxes(0, 1), points[:3]).swapaxes(0, 1))
        worst_conj = max(worst_conj, np.abs(after - conjugated).max())

        # Same law for the first-order equation on a perturbed pair.
        bump = random_multivector(sig, rng, grades=(1, 2), real=True)
        broken = OffsetCovector(c, {0: PolyField.constant(sig, bump * 0.01)})
        h2 = TransformedFieldVector(h, gauge)
        c2 = TransformedConnection(broken, gauge)
        base = t.to_spinor(primitive_residual(h, broken, points[:3]))
        after = primitive_residual(h2, c2, points[:3])
        rows = base.reshape(3, -1, sig.dim).swapaxes(0, 1)
        conjugated = t.to_blades(conjugate(gauge, rows, points[:3]).swapaxes(0, 1).reshape(base.shape))
        worst_conj = max(worst_conj, np.abs(after - conjugated).max())
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_conj < 1e-9
    report(5, "gauge invariance", ok,
           f"transformed residuals {worst_res:.2e}, "
           f"residual conjugation {worst_conj:.2e}, {elapsed:.1f}s")


def test_criterion_6_spectral_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)

    # Eigenvalue of the contraction on every grade, exact in integers.
    eig_err = 0.0
    for n in range(1, 9):
        for p in {n, n // 2}:
            sig = Signature(p, n - p)
            lam = lambdas(n)
            for k in range(n + 1):
                coeffs = np.zeros(sig.dim, dtype=np.complex128)
                for mask in range(sig.dim):
                    if bin(mask).count("1") == k:
                        coeffs[mask] = complex(int(rng.integers(-5, 6)))
                u = Multivector(sig, coeffs)
                res = contract(u) - float(lam[k]) * u
                eig_err = max(eig_err, res.max_norm())

    # Pairing identity in pure integer arithmetic.
    pair_ok = True
    for n in range(1, 11):
        lam = lambdas(n)
        for m in range(n + 1):
            partner = m + (1 if m % 2 == 1 else -1)
            if 0 <= partner <= n:
                pair_ok = pair_ok and (-2 - lam[m] == lam[partner])

    # Double commutator sum on conjugated field vectors.
    from clifford_ym.yang_mills import double_commutator_check
    dc_err = 0.0
    for idx, (p, q) in enumerate([(2, 0), (2, 1), (4, 0)]):
        sig, h, points = build_field_vector(p, q, seed=113 + idx)
        for x in points[:3]:
            for r in double_commutator_check(h, x):
                dc_err = max(dc_err, np.abs(r).max())

    elapsed = time.perf_counter() - t0
    ok = eig_err == 0.0 and pair_ok and dc_err < 1e-10
    report(6, "spectral identities", ok,
           f"eigenvalue error {eig_err:.1e} (exact), pairing n<=10 {pair_ok}, "
           f"double commutator {dc_err:.2e}, {elapsed:.1f}s")


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    cases = 1000
    worst = {"associativity": 0.0, "anticommutation": 0.0, "trace": 0.0,
             "jacobi": 0.0, "reversion": 0.0}
    rng = np.random.default_rng(271828)
    for n in range(2, 9):
        sig = Signature(n - n // 2, n // 2)
        tab = tables(sig)
        dim = sig.dim
        scale = dim ** -0.5

        def draw():
            re = rng.standard_normal((cases, dim))
            im = rng.standard_normal((cases, dim))
            return (re + 1j * im) * scale

        a, b, c = draw(), draw(), draw()

        def mul(x, y):
            # The kernel every verdict runs: spinor blocks, read in blades.
            return tab.to_blades(tab.product(tab.to_spinor(x), tab.to_spinor(y)))

        def comm(x, y):
            return mul(x, y) - mul(y, x)

        ab, ba = mul(a, b), mul(b, a)
        bc, cb = mul(b, c), mul(c, b)
        ca, ac = mul(c, a), mul(a, c)
        worst["associativity"] = max(
            worst["associativity"], np.abs(mul(ab, c) - mul(a, bc)).max())

        # Random grade-1 vectors: v w + w v = 2 eta(v, w) e.
        metric = np.array(sig.metric(), dtype=float)
        vec_masks = [1 << i for i in range(n)]
        v = np.zeros((cases, dim), dtype=np.complex128)
        w = np.zeros((cases, dim), dtype=np.complex128)
        v[:, vec_masks] = rng.standard_normal((cases, n))
        w[:, vec_masks] = rng.standard_normal((cases, n))
        anti = mul(v, w) + mul(w, v)
        anti[:, 0] -= 2.0 * (v[:, vec_masks].real * w[:, vec_masks].real * metric).sum(axis=1)
        worst["anticommutation"] = max(worst["anticommutation"], np.abs(anti).max())

        cm = ab - ba
        tr_err = np.abs(cm[:, 0]).max()
        if n % 2 == 1:
            tr_err = max(tr_err, np.abs(cm[:, dim - 1]).max())
        worst["trace"] = max(worst["trace"], tr_err)

        jac = comm(a, bc - cb) + comm(b, ca - ac) + comm(c, ab - ba)
        worst["jacobi"] = max(worst["jacobi"], np.abs(jac).max())

        counts = np.array([bin(i).count("1") for i in range(dim)])
        rev = np.where(counts * (counts - 1) // 2 % 2 == 0, 1.0, -1.0)
        worst["reversion"] = max(
            worst["reversion"],
            np.abs(ab * rev - mul(b * rev, a * rev)).max())

    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-11 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(7, "algebra property suite",
           ok, f"{cases} cases per property, n=2..8: {detail}, {elapsed:.1f}s")


def test_criterion_8_fd_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    ratios = []
    for trial in range(20):
        n = int(rng.integers(2, 5))
        sig = Signature(n, 0)
        mu = int(rng.integers(0, n))
        # Random degree-3 field with a guaranteed cubic term along axis mu;
        # repeated monomials of a blade are summed.
        exps, coeffs = [], np.zeros((15, sig.dim))
        for k, mask in enumerate(rng.choice(sig.dim, size=3, replace=False)):
            for t in range(5 * k, 5 * k + 4):
                exps.append(rng.integers(0, 2, size=n))
                coeffs[t, mask] = rng.standard_normal()
            exps.append(3 * np.eye(n, dtype=np.int64)[mu])
            coeffs[5 * k + 4, mask] = 0.5 + rng.random()
        f = PolyField(sig, exps, coeffs)
        x = rng.uniform(-0.5, 0.5, size=n)
        exact = poly_partial(f, mu).value(x)

        def fd_error(delta):
            e = np.zeros(n)
            e[mu] = delta
            approx = (f.value(x + e) - f.value(x - e)) / (2 * delta)
            return np.abs(approx - exact).max()

        ratios.append(fd_error(1e-2) / fd_error(5e-3))
    elapsed = time.perf_counter() - t0
    lo, hi = min(ratios), max(ratios)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(8, "FD convergence order", ok,
           f"20 degree-3 fields, error ratio range [{lo:.3f}, {hi:.3f}], {elapsed:.1f}s")
