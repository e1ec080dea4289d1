"""Core multivector arithmetic: products, grades, involutions."""

import math

import numpy as np
import pytest

from clifford_ym import exponential
from clifford_ym.algebra import (
    CliffordError,
    DimensionLimitError,
    Multivector,
    NotInvertible,
    SeriesDivergence,
    Signature,
    SignatureMismatch,
    anticommutator,
    center_leak,
    center_project,
    circ_project,
    commutator,
    geometric_product,
    grade_project,
    grades_present,
    inverse,
    inverse_rows,
    n_max,
    random_multivector,
    reversion,
    tables,
    trace,
)
from conftest import on_blades


def test_signature_basics():
    sig = Signature(2, 1)
    assert sig.n == 3 and sig.dim == 8
    assert list(sig.metric()) == [1.0, 1.0, -1.0]
    assert Signature(2, 1) == Signature(2, 1)
    assert Signature(2, 1) != Signature(1, 2)


def test_signature_rejects_bad_dimensions():
    with pytest.raises(DimensionLimitError):
        Signature(8, 8)
    with pytest.raises(CliffordError):
        Signature(-1, 2)


def test_nmax_env_override(monkeypatch):
    monkeypatch.setenv("CLIFFORD_YM_NMAX", "12")
    assert n_max() == 12
    Signature(6, 5)
    monkeypatch.setenv("CLIFFORD_YM_NMAX", "4")
    with pytest.raises(DimensionLimitError):
        Signature(3, 2)
    monkeypatch.setenv("CLIFFORD_YM_NMAX", "zero")
    with pytest.raises(DimensionLimitError):
        n_max()


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (0, 2), (3, 0), (2, 2)])
def test_generator_relations(p, q):
    sig = Signature(p, q)
    unit = Multivector.unit(sig)
    metric = sig.metric()
    for a in range(1, sig.n + 1):
        for b in range(1, sig.n + 1):
            ea = Multivector.generator(sig, a)
            eb = Multivector.generator(sig, b)
            res = anticommutator(ea, eb)
            want = 2.0 * metric[a - 1] * unit if a == b else Multivector.zero(sig)
            assert (res - want).max_norm() == 0.0


def test_small_products_by_hand():
    sig = Signature(2, 0)
    e1 = Multivector.generator(sig, 1)
    e2 = Multivector.generator(sig, 2)
    e12 = Multivector.blade(sig, (1, 2))
    assert (geometric_product(e1, e2) - e12).max_norm() == 0.0
    assert (geometric_product(e2, e1) + e12).max_norm() == 0.0
    # e12 * e12 = e1 e2 e1 e2 = -e1 e1 e2 e2 = -1
    sq = geometric_product(e12, e12)
    assert (sq + Multivector.unit(sig)).max_norm() == 0.0

    anti = Signature(0, 1)
    f1 = Multivector.generator(anti, 1)
    assert (geometric_product(f1, f1) + Multivector.unit(anti)).max_norm() == 0.0


def test_blade_factory_requires_increasing_labels():
    sig = Signature(3, 0)
    e123 = Multivector.blade(sig, (1, 2, 3))
    prod = geometric_product(
        Multivector.generator(sig, 1),
        geometric_product(Multivector.generator(sig, 2), Multivector.generator(sig, 3)))
    assert (e123 - prod).max_norm() == 0.0
    with pytest.raises(CliffordError):
        Multivector.blade(sig, (2, 1))
    with pytest.raises(CliffordError):
        Multivector.blade(sig, (1, 1))
    with pytest.raises(CliffordError):
        Multivector.blade(sig, (4,))


def test_product_linearity_and_unit(rng):
    sig = Signature(2, 2)
    u = random_multivector(sig, rng)
    v = random_multivector(sig, rng)
    w = random_multivector(sig, rng)
    unit = Multivector.unit(sig)
    assert (geometric_product(unit, u) - u).max_norm() == 0.0
    assert (geometric_product(u, unit) - u).max_norm() == 0.0
    lhs = geometric_product(u, v + 2.5 * w)
    rhs = geometric_product(u, v) + 2.5 * geometric_product(u, w)
    assert (lhs - rhs).max_norm() < 1e-13


def test_left_mult_matrix_matches_product(rng):
    sig = Signature(2, 1)
    T = tables(sig)
    u = random_multivector(sig, rng)
    v = random_multivector(sig, rng)
    got = T.left_mult_matrix(u.coeffs) @ v.coeffs
    want = geometric_product(u, v).coeffs
    assert np.max(np.abs(got - want)) < 1e-13


def test_batch_product_matches_single(rng):
    for (p, q) in [(2, 0), (2, 1), (3, 2)]:
        sig = Signature(p, q)
        T = tables(sig)
        a = np.vstack([random_multivector(sig, rng).coeffs for _ in range(5)])
        b = np.vstack([random_multivector(sig, rng).coeffs for _ in range(11)])
        out = T.batch_product(a, b)
        for i in (0, 3, 4):
            for j in (0, 7, 10):
                ref = T.product(a[i], b[j])
                assert np.max(np.abs(out[i, j] - ref)) < 1e-13


@pytest.mark.parametrize("n", range(2, 8))
def test_commutators_match_commutator(n, rng):
    # The commutator grid and sum kernels against one Multivector
    # commutator per pair: b stacked per row of a, one b stack broadcast to
    # every row, one b row per row of a, a with itself, and the sums over
    # the rows of a with and without a leading axis.
    sig = Signature((n + 1) // 2, n // 2)
    t = tables(sig)
    a = np.vstack([random_multivector(sig, rng).coeffs for _ in range(3)])
    b = np.stack([[random_multivector(sig, rng).coeffs for _ in range(4)] for _ in range(3)])

    def comm(u, v):
        return commutator(Multivector(sig, u), Multivector(sig, v)).coeffs

    def oracle(i, rows):
        return [comm(a[i], r) for r in rows]

    def grid(u, v=None):
        return on_blades(t, t.commutator_grid, u) if v is None else on_blades(t, t.commutator_grid, u, v)

    def csum(u, v):
        return on_blades(t, t.commutator_sum, u, v)

    cases = [
        (grid(a[:, None], b), [[oracle(i, b[i])] for i in range(3)]),
        (grid(a[:, None], b[:1]), [[oracle(i, b[0])] for i in range(3)]),
        (grid(a[:, None], b[:, :1]), [[oracle(i, b[i, :1])] for i in range(3)]),
        (grid(a, b[0]), [oracle(i, b[0]) for i in range(3)]),
        (grid(a), [oracle(i, a) for i in range(3)]),
        (csum(a, b), np.sum([oracle(i, b[i]) for i in range(3)], axis=0)),
        (csum(a[None, :2], b[None, :2, :1]), [[comm(a[0], b[0, 0]) + comm(a[1], b[1, 0])]]),
        (csum(b[:, :2], a[None, :2, None]),
         [[comm(b[j, 0], a[0]) + comm(b[j, 1], a[1])] for j in range(3)]),
    ]
    for got, want in cases:
        want = np.array(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _dense_product(table, u, v):
    """Gather-sum oracle: result[k] = sum_i u[i] * sign[i, i ^ k] * v[i ^ k]."""
    i = np.arange(table.sig.dim)[:, None]
    return ((u[:, None] * table._blade_signs()[i, table.xor]) * v[table.xor]).sum(axis=0)


def _blade_product_by_definition(sig, i, j):
    """(sign, mask) of blade_i * blade_j from the generator rules alone.

    Concatenate the generator lists of both blades, sort them by adjacent
    swaps (each swap of distinct generators flips the sign), then cancel
    each adjacent repeated pair e^a e^a against its metric factor.
    """
    gens = [a for a in range(sig.n) if i >> a & 1] + [a for a in range(sig.n) if j >> a & 1]
    sign = 1
    for end in range(len(gens) - 1, 0, -1):
        for k in range(end):
            if gens[k] > gens[k + 1]:
                gens[k], gens[k + 1] = gens[k + 1], gens[k]
                sign = -sign
    metric = sig.metric()
    kept = []
    for a in gens:
        if kept and kept[-1] == a:
            kept.pop()
            sign *= metric[a]
        else:
            kept.append(a)
    return sign, sum(1 << a for a in kept)


def _random_rows(sig, rng, rows):
    return rng.standard_normal((rows, sig.dim)) + 1j * rng.standard_normal((rows, sig.dim))


# n = 2, 3, 4, 5 and 7: even and odd n, with and without negative generators.
ORACLE_SIGNATURES = [(2, 0), (2, 1), (3, 1), (3, 2), (4, 3)]


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(1, 5) for p in range(n + 1)])
def test_blade_products_match_definition(p, q):
    sig = Signature(p, q)
    T = tables(sig)
    want = np.zeros((sig.dim, sig.dim, sig.dim))
    for i in range(sig.dim):
        for j in range(sig.dim):
            sign, mask = _blade_product_by_definition(sig, i, j)
            want[i, j, mask] = sign
    eye = np.eye(sig.dim, dtype=np.complex128)
    assert np.array_equal(on_blades(T, T.batch_product, eye, eye), want)
    for i in range(sig.dim):
        for j in range(sig.dim):
            assert np.array_equal(on_blades(T, T.product, eye[i], eye[j]), want[i, j])
            assert np.array_equal(_dense_product(T, eye[i], eye[j]), want[i, j])


@pytest.mark.parametrize("p,q", ORACLE_SIGNATURES)
def test_product_and_mult_matrices_match_dense_oracle(p, q, rng):
    sig = Signature(p, q)
    T = tables(sig)
    a = _random_rows(sig, rng, 3)
    v = _random_rows(sig, rng, 1)[0]
    left = T.left_mult_matrix(a)
    assert left.shape == (3, sig.dim, sig.dim)
    for r in range(3):
        assert np.array_equal(left[r], T.left_mult_matrix(a[r]))
        want = _dense_product(T, a[r], v)
        assert np.max(np.abs(on_blades(T, T.product, a[r], v) - want)) < 1e-12
        assert np.max(np.abs(left[r] @ v - want)) < 1e-12


@pytest.mark.parametrize("p,q", ORACLE_SIGNATURES)
@pytest.mark.parametrize("ma,mb", [(2, 5), (5, 2), (3, 3), (1, 1)])
def test_batch_product_matches_dense_oracle(p, q, ma, mb, rng):
    sig = Signature(p, q)
    T = tables(sig)
    a = _random_rows(sig, rng, ma)
    b = _random_rows(sig, rng, mb)
    out = on_blades(T, T.batch_product, a, b)
    assert out.shape == (ma, mb, sig.dim)
    for r in range(ma):
        for s in range(mb):
            assert np.max(np.abs(out[r, s] - _dense_product(T, a[r], b[s]))) < 1e-12


@pytest.mark.parametrize("p,q", [(2, 0), (3, 2)])
def test_batched_kernels_match_per_index_calls(p, q, rng):
    # Leading axes of batch_product, product, block_matmul and the
    # commutator kernels against the same kernels called one leading index
    # at a time.
    sig = Signature(p, q)
    T = tables(sig)
    a = _random_rows(sig, rng, 2 * 3 * 4).reshape(2, 3, 4, sig.dim)
    b = _random_rows(sig, rng, 2 * 5).reshape(2, 1, 5, sig.dim)
    got = T.batch_product(a, b)
    assert got.shape == (2, 3, 4, 5, sig.dim)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], T.batch_product(a[i, j], b[i, 0]))
    u, v = a[:, :, 0], b[:, 0, :3]
    prod = T.product(u, v)
    comm = T.commutator_grid(u[..., None, :], b[:, :, :3])
    sums = T.commutator_sum(a, a[:, :1, :, None])
    mat = T.block_matmul(a[:, :, None], a[:, :1, :, None])
    assert comm.shape == (2, 3, 1, 3, sig.dim)
    assert sums.shape == mat[:, :, 0].shape == (2, 3, 1, sig.dim)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(prod[i, j], T.product(u[i, j], v[i, j]))
            want = [T.product(u[i, j], w) - T.product(w, u[i, j]) for w in b[i, 0, :3]]
            assert np.max(np.abs(comm[i, j, 0] - np.array(want))) < 1e-12
            assert np.array_equal(sums[i, j], T.commutator_sum(a[i, j], a[i, 0, :, None]))
            assert np.array_equal(mat[i, j], T.block_matmul(a[i, j, None], a[i, 0, :, None]))


def test_grade_projection_partitions(rng):
    sig = Signature(3, 1)
    u = random_multivector(sig, rng)
    acc = Multivector.zero(sig)
    for k in range(sig.n + 1):
        pk = grade_project(u, k)
        acc = acc + pk
        assert grades_present(pk) in ((), (k,))
    assert (acc - u).max_norm() == 0.0
    with pytest.raises(CliffordError):
        grade_project(u, 5)


def test_trace_is_scalar_part(rng):
    sig = Signature(2, 1)
    u = random_multivector(sig, rng)
    assert trace(u) == u.coeffs[0]
    v = random_multivector(sig, rng)
    assert abs(trace(commutator(u, v))) < 1e-13


def test_commutator_kills_center_components(rng):
    # For odd n the center picks up the top blade as well: commutators must
    # lose both the scalar and the pseudoscalar part.
    sig = Signature(3, 0)
    u = random_multivector(sig, rng)
    v = random_multivector(sig, rng)
    c = commutator(u, v)
    assert abs(c.coeffs[0]) < 1e-13
    assert abs(c.coeffs[-1]) < 1e-13


def test_reversion_properties(rng):
    sig = Signature(2, 2)
    u = random_multivector(sig, rng)
    v = random_multivector(sig, rng)
    assert (reversion(reversion(u)) - u).max_norm() == 0.0
    lhs = reversion(geometric_product(u, v))
    rhs = geometric_product(reversion(v), reversion(u))
    assert (lhs - rhs).max_norm() < 1e-13
    e12 = Multivector.blade(sig, (1, 2))
    assert (reversion(e12) + e12).max_norm() == 0.0


def test_center_projection_even_and_odd(rng):
    even = Signature(2, 0)
    u = random_multivector(even, rng)
    cp = center_project(u)
    assert grades_present(cp) in ((), (0,))
    assert (cp + circ_project(u) - u).max_norm() == 0.0

    odd = Signature(2, 1)
    v = random_multivector(odd, rng)
    cp = center_project(v)
    assert set(grades_present(cp)) <= {0, 3}
    assert (cp + circ_project(v) - v).max_norm() == 0.0
    # center elements commute with everything
    w = random_multivector(odd, rng)
    assert commutator(cp, w).max_norm() < 1e-13
    assert center_leak(cp) > 0 or cp.max_norm() == 0.0
    assert center_leak(circ_project(v)) < 1e-15


def test_exponential_bivector_series_oracle():
    # e12 squares to -1 in Cl(2,0): exp(t e12) = cos t + sin t e12.
    sig = Signature(2, 0)
    e12 = Multivector.blade(sig, (1, 2))
    for t in (0.0, 0.3, -1.2, 2.0):
        got = exponential(t * e12)
        want = math.cos(t) * Multivector.unit(sig) + math.sin(t) * e12
        assert (got - want).max_norm() < 1e-14
    # e12 squares to +1 in Cl(1,1): exp(t e12) = cosh t + sinh t e12.
    sig = Signature(1, 1)
    e12 = Multivector.blade(sig, (1, 2))
    for t in (0.5, -0.8):
        got = exponential(t * e12)
        want = math.cosh(t) * Multivector.unit(sig) + math.sinh(t) * e12
        assert (got - want).max_norm() < 1e-14


def test_exponential_inverse_pairing(rng):
    sig = Signature(2, 1)
    a = random_multivector(sig, rng, grades=(2,), scale=0.4)
    s = exponential(a)
    sinv = exponential(-1.0 * a)
    assert (geometric_product(s, sinv) - Multivector.unit(sig)).max_norm() < 1e-13


def test_exponential_divergence_guard():
    sig = Signature(2, 0)
    with pytest.raises(SeriesDivergence) as err:
        exponential(Multivector.scalar(sig, 500.0))
    assert err.value.last_term_norm > 0


def _dense_exponential(u):
    """exp(u) by the power series on the dense product, stopped at the first
    term whose blade max-norm is below 1e-14: the oracle of exponential."""
    acc = term = Multivector.unit(u.sig)
    for k in range(1, 65):
        term = geometric_product(term, u) / k
        acc = acc + term
        if term.max_norm() < 1e-14:
            return acc
    raise AssertionError(f"dense exponential series of {u} did not converge")


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 3), (4, 4)])
def test_exponential_matches_dense_series(p, q, rng):
    sig = Signature(p, q)
    bivector = random_multivector(sig, rng, grades=(2,))
    for u in (bivector, random_multivector(sig, rng, grades=(1,)),
              random_multivector(sig, rng, scale=0.5), Multivector.scalar(sig, 0.7) + bivector):
        want = _dense_exponential(u)
        assert (exponential(u) - want).max_norm() <= 1e-13 * max(1.0, want.max_norm())


def test_inverse_roundtrip_and_failures(rng):
    sig = Signature(2, 1)
    u = Multivector.unit(sig) + random_multivector(sig, rng, scale=0.3)
    w = inverse(u)
    assert (geometric_product(u, w) - Multivector.unit(sig)).max_norm() < 1e-12
    assert (geometric_product(w, u) - Multivector.unit(sig)).max_norm() < 1e-12

    # (1 + e1)/2 is idempotent when e1^2 = 1, hence singular.
    proj = 0.5 * (Multivector.unit(sig) + Multivector.generator(sig, 1))
    with pytest.raises(NotInvertible):
        inverse(proj)
    # Null vector e1 + e3 in Cl(2,1) squares to zero.
    null = Multivector.generator(sig, 1) + Multivector.generator(sig, 3)
    with pytest.raises(NotInvertible):
        inverse(null)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_inverse_refuses_non_finite_elements(bad):
    # A NaN or infinite coefficient is a refused inverse, never a bare
    # ValueError that the command line cannot map to its exit code.
    sig = Signature(2, 0)
    for blade in (0, 3):
        coeffs = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        coeffs[blade] = bad
        with pytest.raises(NotInvertible):
            inverse(Multivector(sig, coeffs))


def test_inverse_refuses_ill_conditioned_and_overflowing_elements():
    sig = Signature(2, 0)
    e1 = Multivector.generator(sig, 1)
    # (1 + a e1)^-1 = (1 - a e1) / (1 - a^2): the 1-norm condition number
    # of L is (1 + a) / (1 - a) for 0 < a < 1, about 2e13 here.
    nearly = Multivector.unit(sig) + (1.0 - 1e-13) * e1
    inverse(nearly, max_condition=1e14)
    with pytest.raises(NotInvertible, match="condition"):
        inverse(nearly)
    # Well conditioned, but the inverse of a subnormal element overflows.
    with pytest.raises(NotInvertible):
        inverse(1e-310 * (Multivector.unit(sig) + 0.5 * e1))


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(1, 9) for p in range(n + 1)])
def test_block_inverse_matches_the_dense_operator(p, q):
    # The oracle: u^-1 is the first column of L(u)^-1, and the condition
    # bound is the 1-norm ||L(u)||_1 ||L(u)^-1||_1 of the dense operator.
    sig = Signature(p, q)
    rng = np.random.default_rng(100 * p + q)
    u = 0.4 * (rng.standard_normal((3, sig.dim))
               + 1j * rng.standard_normal((3, sig.dim))) / np.sqrt(sig.dim)
    u[:, 0] += 1.0
    mat = tables(sig).left_mult_matrix(u)
    inv = np.linalg.inv(mat)
    want = inv[..., :, 0]
    got = inverse_rows(sig, u)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    cond = np.linalg.norm(mat, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    worst = float(cond.max())
    inverse_rows(sig, u, max_condition=worst * (1 + 1e-12))
    with pytest.raises(NotInvertible, match="condition"):
        inverse_rows(sig, u, max_condition=worst * (1 - 1e-12))


def test_signature_mismatch_raises(rng):
    u = random_multivector(Signature(2, 0), rng)
    v = random_multivector(Signature(1, 1), rng)
    with pytest.raises(SignatureMismatch):
        geometric_product(u, v)
    with pytest.raises(SignatureMismatch):
        _ = u + v


def test_random_multivector_is_seed_deterministic():
    sig = Signature(2, 2)
    a = random_multivector(sig, np.random.default_rng(5))
    b = random_multivector(sig, np.random.default_rng(5))
    assert (a - b).max_norm() == 0.0
    g2 = random_multivector(sig, np.random.default_rng(5), grades=(2,))
    assert grades_present(g2) == (2,)


def test_component_and_norm_helpers(rng):
    sig = Signature(2, 0)
    u = Multivector.blade(sig, (1, 2), 3.0 - 4.0j)
    assert u.component((1, 2)) == 3.0 - 4.0j
    assert u.max_norm() == 5.0
    assert (-u).component((1, 2)) == -3.0 + 4.0j
    assert (u - u).max_norm() == 0.0
