"""The block-spinor representation against the dense blade tables.

Spinor arrays are the images of multivectors in Cl(p,q) (x) C = M_d(C)
(even n) or M_d(C) + M_d(C) (odd n), d = 2^floor(n/2). The dense blade
product (the left-multiplication matrix L(u) of the sign tables) is the
independent oracle: the conversion must round-trip, every spinor kernel must
agree with it, basis blades must multiply exactly, and the blade-coordinate
operations (grade scaling, center masking, reversion) must match what they
mean in the matrix algebra.
"""

import numpy as np
import pytest

from clifford_ym import algebra, runner
from clifford_ym.algebra import Signature, tables
from clifford_ym.contraction import lambdas
from clifford_ym.fields import ExpField, PolyField, _jet_mul, sample_points
from conftest import on_blades

# Every signature with 1 <= n <= 8 (both parities, q = 0 and p = 0), and a
# sample at n = 9 and n = 10.
SIGNATURES = ([(p, n - p) for n in range(1, 9) for p in range(n + 1)]
              + [(5, 4), (0, 9), (5, 5)])


# The signatures whose blocks are at most 2 x 2 (n <= 3), where the kernels
# sum broadcast multiply-adds instead of calling np.matmul.
SMALL_SIGNATURES = [(p, n - p) for n in range(1, 4) for p in range(n + 1)]


@pytest.fixture(params=SIGNATURES, ids=lambda pq: f"{pq[0]}-{pq[1]}")
def table(request):
    return tables(Signature(*request.param))


@pytest.fixture(params=SMALL_SIGNATURES, ids=lambda pq: f"{pq[0]}-{pq[1]}")
def small_table(request):
    return tables(Signature(*request.param))


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense(t, u, v):
    """Row-by-row blade products u * v = L(u) @ v of broadcasting blade arrays."""
    shape = np.broadcast_shapes(u.shape, v.shape)
    rows = zip(np.broadcast_to(u, shape).reshape(-1, shape[-1]),
               np.broadcast_to(v, shape).reshape(-1, shape[-1]))
    return np.array([t.left_mult_matrix(a) @ b for a, b in rows]).reshape(shape)


def _assert_close(got, want, rel, scale=None):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want if scale is None else scale).max()


def test_round_trip(table):
    rng = np.random.default_rng(table.sig.dim)
    u = _random(rng, (2, 3, table.sig.dim))
    s = table.to_spinor(u)
    assert s.shape == u.shape
    _assert_close(table.to_blades(s), u, 1e-15)


def test_kernels_match_dense_product(table):
    rng = np.random.default_rng(table.sig.dim + 1)
    dim = table.sig.dim
    u, v = _random(rng, (2, 2, dim)), _random(rng, (1, 2, dim))
    _assert_close(on_blades(table, table.product, u, v), _dense(table, u, v), 1e-13)

    a, b = _random(rng, (2, 1, 2, dim)), _random(rng, (3, 2, dim))
    got = on_blades(table, table.batch_product, a, b)
    want = _dense(table, a[..., :, None, :], b[..., None, :, :])
    _assert_close(got, want, 1e-13)

    # K = 1 and K > 1: the sum over k runs inside the block matrix product.
    for k in (1, 4):
        a, b = _random(rng, (2, 3, k, dim)), _random(rng, (1, k, 2, dim))
        got = on_blades(table, table.block_matmul, a, b)
        want = _dense(table, a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)
        _assert_close(got, want, 1e-13)

    # Commutators are relative to the products: for n = 1 they all vanish.
    c, w = _random(rng, (2, 3, dim)), _random(rng, (1, 3, 2, dim))
    cw = _dense(table, c[..., None, :], w)
    got = on_blades(table, table.commutator_sum, c, w)
    _assert_close(got, (cw - _dense(table, w, c[..., None, :])).sum(axis=-3), 1e-13, scale=cw)

    cw = _dense(table, c[..., :, None, :], w[..., 0, None, :, :])
    got = on_blades(table, table.commutator_grid, c, w[..., 0, :, :])
    _assert_close(got, cw - _dense(table, w[..., 0, None, :, :], c[..., :, None, :]), 1e-13, scale=cw)
    cc = _dense(table, c[..., :, None, :], c[..., None, :, :])
    got = on_blades(table, table.commutator_grid, c)
    _assert_close(got, cc - cc.swapaxes(-3, -2), 1e-13, scale=cc)


def test_basis_blade_products_are_exact(table):
    t = table
    dim = t.sig.dim
    if dim <= 64:
        i, j = np.divmod(np.arange(dim * dim), dim)
    else:
        i, j = np.random.default_rng(dim).integers(0, dim, size=(2, 64))
    eye = np.eye(dim, dtype=np.complex128)
    want = np.array([t.left_mult_matrix(eye[a])[:, b] for a, b in zip(i, j)])
    assert np.array_equal(on_blades(t, t.product, eye[i], eye[j]), want)
    assert np.array_equal(t.to_spinor(eye[:1])[0], t.unit)


def _kernel_calls(t, rng, points):
    """(name, kernel, a, b, whether b has the point axis) for every spinor
    kernel on point-batched rows; one b is shared by all points."""
    dim = t.sig.dim
    u, v = _random(rng, (points, 3, dim)), _random(rng, (points, 3, dim))
    w = _random(rng, (points, 3, 2, dim))
    return [
        ("product", t.product, u, v, True),
        ("batch_product", t.batch_product, u[:, :1], v, True),
        ("batch_product shared", t.batch_product, u, t.generators, False),
        ("block_matmul K = 1", t.block_matmul, u[:, :, None], v[:, None], True),
        ("block_matmul K = 3", t.block_matmul, u[:, None], w, True),
        ("commutator_grid", t.commutator_grid, u, v, True),
        ("commutator_grid of a with itself", lambda a, _: t.commutator_grid(a), u, v, True),
        ("commutator_sum", t.commutator_sum, u, w, True),
    ]


def test_small_blocks_are_batch_independent(small_table):
    # A point's result does not depend on the batch it is computed in.
    t = small_table
    assert t.block_shape[1] <= algebra.BROADCAST_MAX_D
    for name, kernel, a, b, batched in _kernel_calls(t, np.random.default_rng(t.sig.dim + 4), 130):
        whole = kernel(a, b)
        for p in (0, 57, 129):
            alone = kernel(a[p:p + 1], b[p:p + 1] if batched else b)
            assert np.array_equal(alone, whole[p:p + 1]), (name, p)


def test_small_block_exp_jets_are_batch_independent(small_table):
    # ExpField stops each point's series at its own first small term, which
    # needs the jet products of a point to be the same in every batch.
    sig = small_table.sig
    n = sig.n
    exps = np.vstack([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
    rng = np.random.default_rng(sig.dim + 5)
    draws = rng.uniform(-0.4, 0.4, size=(sig.dim, len(exps)))
    gen = PolyField(sig, exps, draws.T)
    points = sample_points(n, 129, seed=3)
    whole = ExpField(gen).jet(points, 1)
    assert whole.shape[0] == 130
    assert np.array_equal(ExpField(gen).jet(points[:3], 1), whole[:3])


def test_small_blocks_contain_nan_to_its_point(small_table):
    t = small_table
    for name, kernel, a, b, _ in _kernel_calls(t, np.random.default_rng(t.sig.dim + 6), 130):
        clean = kernel(a, b)
        for p in (0, 57, 129):
            bad = a.copy()
            bad[p].flat[0] = np.nan
            got = kernel(bad, b)
            assert np.isnan(got[p]).any(), (name, p)
            others = np.arange(len(got)) != p
            assert np.array_equal(got[others], clean[others]), (name, p)


def test_small_block_unit_products_are_exact(small_table):
    t = small_table
    u = _random(np.random.default_rng(t.sig.dim + 7), (130, t.sig.dim))
    assert np.array_equal(t.product(t.unit, u), u)
    assert np.array_equal(t.product(u, t.unit), u)


def test_blade_images_are_products_of_generators(table):
    # The blade e^a1 ... e^ak maps to gamma_a1 ... gamma_ak, and its
    # reversion to gamma_ak ... gamma_a1; both products are exact.
    t = table
    n, dim = t.sig.n, t.sig.dim
    blades = np.arange(dim)
    gammas = t.generators
    forward = np.broadcast_to(t.unit, (dim, dim)).copy()
    backward = forward.copy()
    for a in range(n):
        has = ((blades >> a) & 1 == 1)[:, None]
        forward = np.where(has, t.product(forward, gammas[a]), forward)
        backward = np.where(has, t.product(gammas[a], backward), backward)
    eye = np.eye(dim, dtype=np.complex128)
    assert np.array_equal(t.to_spinor(eye), forward)
    assert np.array_equal(t.to_spinor(eye * t.reversion_signs), backward)
    assert np.array_equal(t.to_spinor(eye[1 << np.arange(n)]), gammas)


def test_blade_images_are_orthogonal_and_bound_coefficients(table):
    t = table
    blocks, d, _ = t.block_shape
    assert blocks * d * d == t.sig.dim
    assert blocks == 1 + t.sig.n % 2
    images = t.to_spinor(np.eye(t.sig.dim, dtype=np.complex128)[:64])
    assert np.array_equal(images.conj() @ images.T, blocks * d * np.eye(len(images)))
    rng = np.random.default_rng(t.sig.dim + 2)
    s = _random(rng, (5, t.sig.dim))
    assert np.all(np.abs(t.to_blades(s)).max(axis=1) <= np.abs(s).max(axis=1))


def test_blade_operations_commute_with_the_conversion(table):
    t = table
    sig = t.sig
    _, d, _ = t.block_shape
    rng = np.random.default_rng(sig.dim + 3)
    s = _random(rng, (3, sig.dim))
    eta = np.array(sig.metric(), dtype=float)[:, None, None]

    def in_blades(u, weights):
        return t.to_spinor(t.to_blades(u) * weights)

    # Grade scaling by the contraction eigenvalues lambda_k is the
    # contraction sum_a eta_a gamma_a U gamma_a in the matrix algebra.
    contracted = (eta * t.product(t.product(t.generators[:, None], s), t.generators[:, None])).sum(0)
    _assert_close(in_blades(s, np.array(lambdas(sig.n))[t.grades]), contracted, 1e-13)

    # The center part is the scalar matrix tr(S_b) / d of each block.
    mats = s.reshape((3,) + t.block_shape)
    scalars = np.trace(mats, axis1=-2, axis2=-1) / d
    want = (scalars[..., None, None] * np.eye(d)).reshape(s.shape)
    _assert_close(in_blades(s, t.center), want, 1e-13)

    # Reversion fixes the generators and reverses products.
    rev = t.reversion_signs
    assert np.array_equal(in_blades(t.generators, rev), t.generators)
    _assert_close(in_blades(t.product(s[0], s[1]), rev),
                  t.product(in_blades(s[1], rev), in_blades(s[0], rev)), 1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_spinor_reversion_is_the_blade_round_trip(n):
    # reverse is a signed gather of spinor entries; the conversion to
    # blades, the per-grade signs and the conversion back are its oracle.
    for p in range(n + 1):
        t = algebra._Tables(Signature(p, n - p))  # uncached: the cache keeps 64 signatures
        dim = t.sig.dim
        s = _random(np.random.default_rng(dim + p), (3, dim))
        got = t.reverse(s)
        want = t.to_spinor(t.to_blades(s) * t.reversion_signs)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(s).max(), (p, n - p)
        assert np.array_equal(t.reverse(got), s), (p, n - p)
        images = t.to_spinor(np.eye(dim, dtype=np.complex128))
        assert np.array_equal(t.reverse(images), t.reversion_signs[:, None] * images), (p, n - p)


@pytest.mark.parametrize("p,q", [(2, 0), (3, 2), (4, 3)])
def test_kernels_never_convert(p, q, monkeypatch):
    t = tables(Signature(p, q))
    rng = np.random.default_rng(5)
    dim, n = t.sig.dim, t.sig.n
    jets = _random(rng, (2, 3, 1 + n + n * (n + 1) // 2, dim))

    def refuse(self, u):
        raise AssertionError("a kernel converted between bases")

    monkeypatch.setattr(algebra._Tables, "to_spinor", refuse)
    monkeypatch.setattr(algebra._Tables, "to_blades", refuse)
    t.product(jets[:, :, 0], jets[:, :, 1])
    t.batch_product(jets[:, 0], jets[:, 1])
    t.block_matmul(jets[:, :, 1:].swapaxes(1, 2), jets)
    t.commutator_grid(jets[:, :, 0], jets[:, :, 1])
    t.commutator_grid(jets[:, :, 0])
    t.commutator_sum(jets[:, :, 0], jets)
    for rows in (1, 1 + n, jets.shape[-2]):
        _jet_mul(jets[:, :, :rows], jets[:, :1, :rows], t.sig)


def test_run_verify_certifies_at_n10():
    cfg = runner.parse_config({
        "signature": {"p": 5, "q": 5}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": 1}, "seed": 3,
    })
    report, code = runner.run_verify(cfg)
    assert code == 0
    assert report["pass"] is True
    assert report["samples"] == 2
