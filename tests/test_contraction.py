"""Generator contraction, eigenvalues, rational tables, grade projectors."""

from fractions import Fraction

import numpy as np
import pytest

from clifford_ym.algebra import (
    CliffordError,
    Multivector,
    Signature,
    SignatureMismatch,
    geometric_product,
    grade_project,
    random_multivector,
    tables,
)
from clifford_ym.contraction import (
    ContractionTable,
    SingularMatrixError,
    build_table,
    contract,
    invert_rational_matrix,
    lambdas,
    project,
    table_to_json,
)
from clifford_ym import golden
from conftest import build_field_vector, generator_field_vector, grade_project_paired


def test_lambda_values_small_n():
    assert lambdas(2) == (2, 0, -2)
    assert lambdas(3) == (3, -1, -1, 3)
    assert lambdas(4) == (4, -2, 0, 2, -4)
    assert lambdas(5) == (5, -3, 1, 1, -3, 5)


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (4, 0), (2, 2), (5, 1)])
def test_contraction_eigenvalues_per_grade(p, q):
    sig = Signature(p, q)
    lam = lambdas(sig.n)
    rng = np.random.default_rng(100 * p + q)
    for k in range(sig.n + 1):
        u = random_multivector(sig, rng, grades=(k,), real=True)
        res = contract(u) - float(lam[k]) * u
        assert res.max_norm() < 1e-12


def test_contract_with_explicit_generators_matches_default(rng):
    sig = Signature(2, 2)
    u = random_multivector(sig, rng)
    gens = [Multivector.generator(sig, a) for a in range(1, sig.n + 1)]
    assert (contract(u, gens) - contract(u)).max_norm() == 0.0
    with pytest.raises(CliffordError):
        contract(u, gens[:-1])


def _dense_contract(u, vectors):
    """Oracle: sum_a eta_a v^a u v^a by Multivector products on the dense blade tables."""
    acc = Multivector.zero(u.sig)
    for eta, v in zip(u.sig.metric(), vectors):
        acc = acc + eta * geometric_product(geometric_product(v, u), v)
    return acc


@pytest.mark.parametrize("p,q", [(2, 0), (2, 1), (3, 2), (4, 4)])
def test_contract_matches_the_dense_oracle(p, q):
    # contract runs the solver's spinor-jet F[h] on one point; the dense
    # products are an independent route to the same element.
    sig, h, points = build_field_vector(p, q, seed=31, count=1)
    rng = np.random.default_rng(10 * p + q)
    u = random_multivector(sig, rng)
    gens = [Multivector.generator(sig, a) for a in range(1, sig.n + 1)]
    vecs = [random_multivector(sig, rng, grades=(1,)) for _ in range(sig.n)]
    h_at_x = [Multivector(sig, r) for r in tables(sig).to_blades(h.values(points[1])[0])]
    tol = 1e-13 * max(1.0, u.max_norm())
    assert (contract(u) - _dense_contract(u, gens)).max_norm() < tol
    for vectors in (vecs, h_at_x):
        assert (contract(u, vectors) - _dense_contract(u, vectors)).max_norm() < tol


def test_contract_refuses_vectors_of_another_algebra(rng):
    # Cl(1,1) vectors have the 4 entries of Cl(2,0) ones.
    u = random_multivector(Signature(2, 0), rng)
    other = Signature(1, 1)
    with pytest.raises(SignatureMismatch):
        contract(u, [Multivector.generator(other, a) for a in (1, 2)])


def test_rational_inverse_exact():
    rows = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    inv = invert_rational_matrix(rows)
    assert inv == [[Fraction(4), Fraction(-1)], [Fraction(-7), Fraction(2)]]
    rng = np.random.default_rng(4)
    m = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
          for _ in range(4)] for _ in range(4)]
    inv = invert_rational_matrix(m)
    for i in range(4):
        for j in range(4):
            s = sum(m[i][k] * inv[k][j] for k in range(4))
            assert s == (1 if i == j else 0)
    with pytest.raises(SingularMatrixError):
        invert_rational_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_tables_match_frozen_values():
    t2 = build_table(2)
    assert t2.a == golden.A_N2
    assert t2.b == golden.B_N2
    assert t2.weights == golden.R_N2
    assert t2.lambdas == golden.LAMBDAS_N2

    t3 = build_table(3)
    assert t3.d == golden.D_N3
    assert t3.g == golden.G_N3
    assert t3.weights == golden.S_N3

    t4 = build_table(4)
    assert t4.b == golden.B_N4
    assert t4.weights == golden.R_N4


def test_table_mu_values():
    t4 = build_table(4)
    lam = lambdas(4)
    assert t4.mus[0] is None
    for k in range(1, 5):
        assert t4.mus[k] == Fraction(1, 4 - lam[k])
    t3 = build_table(3)
    assert t3.mus[0] is None and t3.mus[3] is None
    assert t3.mus[1] == Fraction(1, 4) and t3.mus[2] == Fraction(1, 4)


def test_table_n1_degenerate_case():
    t1 = build_table(1)
    assert t1.lambdas == (1, 1)
    assert not t1.even
    assert t1.weights == (Fraction(0),)


def test_power_matrix_and_inverse_fill_the_pair_of_their_parity():
    # Even n fills (a, b) with the (n + 1)-sized system, odd n fills (d, g)
    # with the (n + 1)/2-sized one; power x inverse is exactly the identity.
    for n in range(1, 13):
        t = build_table(n)
        lam = lambdas(n)
        if n % 2 == 0:
            size, (power, inverse), unused = n + 1, (t.a, t.b), (t.d, t.g)
        else:
            size, (power, inverse), unused = (n + 1) // 2, (t.d, t.g), (t.a, t.b)
        assert unused == (None, None), n
        assert power == tuple(tuple(lam[l] ** k for l in range(size)) for k in range(size)), n
        assert all(isinstance(v, Fraction) for row in inverse for v in row), n
        product = [[sum((power[i][k] * inverse[k][j] for k in range(size)), Fraction(0))
                    for j in range(size)] for i in range(size)]
        assert product == [[Fraction(int(i == j)) for j in range(size)] for i in range(size)], n


def test_even_projectors_reproduce_grade_projection(rng):
    for (p, q) in [(2, 0), (1, 1), (4, 0), (2, 2)]:
        sig = Signature(p, q)
        u = random_multivector(sig, rng)
        vals = tables(sig).to_blades(generator_field_vector(sig).values(np.zeros(sig.n))[0])
        gens = [Multivector(sig, r) for r in vals]
        total = Multivector.zero(sig)
        for k in range(sig.n + 1):
            pk = project(u, k)
            ref = grade_project(u, k)
            assert (pk - ref).max_norm() < 1e-12
            assert (project(u, k, gens) - ref).max_norm() < 1e-12
            total = total + pk
        assert (total - u).max_norm() < 1e-12


def test_odd_projectors_reproduce_paired_projection(rng):
    for (p, q) in [(3, 0), (2, 1), (1, 2), (5, 0), (3, 2)]:
        sig = Signature(p, q)
        u = random_multivector(sig, rng)
        vals = tables(sig).to_blades(generator_field_vector(sig).values(np.zeros(sig.n))[0])
        gens = [Multivector(sig, r) for r in vals]
        total = Multivector.zero(sig)
        for k in range((sig.n + 1) // 2):
            pk = project(u, k)
            ref = grade_project_paired(u, k)
            assert (pk - ref).max_norm() < 1e-12
            assert (project(u, k, gens) - ref).max_norm() < 1e-12
            total = total + pk
        assert (total - u).max_norm() < 1e-12


def test_projector_row_bounds():
    t4 = build_table(4)
    with pytest.raises(Exception):
        t4.projector_row(5)
    t3 = build_table(3)
    assert len(t3.projector_row(0)) == 2
    with pytest.raises(Exception):
        t3.projector_row(2)


def test_paired_eigenvalue_identity_small():
    # -2 - lambda_m equals lambda at the partner index m -+ 1.
    for n in range(2, 7):
        lam = lambdas(n)
        for m in range(len(lam)):
            partner = m + (1 if m % 2 == 1 else -1)
            if 0 <= partner <= n:
                assert -2 - lam[m] == lam[partner]


def test_table_json_shape():
    data = table_to_json(build_table(3))
    assert data["n"] == 3
    assert "index_convention" in data
    assert data["lambdas"] == [3, -1, -1, 3]
    assert data["parity"] == "odd"
    assert data["weights_kind"] == "s"
    assert data["weights"][0] == {"num": "3", "den": "16"}
    d2 = table_to_json(build_table(2))
    assert d2["A"][1][2] == {"num": "-2", "den": "1"}
    assert [w["num"] for w in d2["weights"]] == ["1", "-1", "-3"]


def test_golden_checks_pass_and_detect_mutations():
    results = golden.run_golden_checks()
    assert len(results) == 11
    assert all(ok for _, ok, _ in results)

    # A mutated lambda tuple must trip at least one comparison.
    t2 = build_table(2)
    mutated = ContractionTable(
        n=2, lambdas=(2, 0, 2), a=t2.a, b=t2.b, d=t2.d, g=t2.g,
        mus=t2.mus, weights=t2.weights)
    results = golden.run_golden_checks(tables=[mutated])
    bad = [name for name, ok, _ in results if not ok]
    assert any("lambda" in name for name in bad)

    # A single perturbed matrix entry must trip too.
    rows = [list(r) for r in t2.b]
    rows[0][0] = rows[0][0] + Fraction(1, 1000)
    mutated_b = ContractionTable(
        n=2, lambdas=t2.lambdas, a=t2.a, b=tuple(tuple(r) for r in rows),
        d=t2.d, g=t2.g, mus=t2.mus, weights=t2.weights)
    results = golden.run_golden_checks(tables=[mutated_b])
    assert any(not ok for _, ok, _ in results)
