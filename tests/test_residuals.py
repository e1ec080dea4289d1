"""The array residuals against per-pair oracles built from Multivector commutators.

Every residual is computed in the package from stacked jet rows through one
commutator kernel. The oracles below are the per-(mu, nu) formulas: one
``commutator`` per pair, and the field-strength jets G^munu formed by jet
products. They run on a perturbed connection and a wrong epsilon, so the
residuals compared are O(0.01-1), not roundoff. Jets and values are spinor
arrays; the oracles read them in blade coordinates, as the residuals are
returned.
"""

import numpy as np
import pytest

from clifford_ym import algebra, runner
from clifford_ym.algebra import (
    Multivector,
    Signature,
    commutator,
    geometric_product,
    random_multivector,
    tables,
)
from clifford_ym.fields import (
    ExpField,
    GaugeElement,
    PolyField,
    _jet_mul,
    sample_points,
)
from clifford_ym.primitive import (
    DerivedConnection,
    TransformedConnection,
    curvature_residual,
    gauge_transform,
    primitive_residual,
)
from clifford_ym.yang_mills import (
    YMSolution,
    conservation_residual,
    double_commutator_check,
    eq1_residual,
    eq2_residual,
)
from conftest import build_field_vector, ExplicitFieldVector, OffsetCovector, poly_field
from test_golden_reports import RUNS
from test_golden_reports import run as golden_run

SIGNATURES = [(2, 0), (2, 1), (3, 2), (4, 3)]


def _blades(sig, arr):
    return tables(sig).to_blades(arr)


def _rows(sig, rows):
    return [Multivector(sig, r) for r in _blades(sig, rows)]


def oracle_primitive(h, c, x):
    sig, metric = h.sig, h.sig.metric()
    cvals = _rows(sig, c.values(x)[0])
    hjets = _blades(sig, h.jets(x, 1)[0])
    return np.array([[(metric[rho] * Multivector(sig, hjets[rho, 1 + mu])
                       - commutator(cvals[mu], metric[rho] * Multivector(sig, hjets[rho, 0]))).coeffs
                      for rho in range(h.n)] for mu in range(h.n)])


def oracle_curvature(c, x):
    sig = c.sig
    cjets = _blades(sig, c.jets(x, 1)[0])
    vals = [Multivector(sig, r) for r in cjets[:, 0]]
    return np.array([[cjets[nu, 1 + mu] - cjets[mu, 1 + nu]
                      - commutator(vals[mu], vals[nu]).coeffs
                      for nu in range(c.n)] for mu in range(c.n)])


def oracle_g_upper_jets(sol, x):
    """Jets of G^munu = -sigma^2 (h^mu h^nu - h^nu h^mu) by jet products, in
    blade coordinates, (n, n, rows, dim)."""
    hj = sol.h.jets(x, 1)[0]
    fac = -sol.sigma ** 2
    return _blades(sol.sig, np.array([[(_jet_mul(hj[mu], hj[nu], sol.sig)
                                        - _jet_mul(hj[nu], hj[mu], sol.sig)) * fac
                                       for nu in range(sol.n)] for mu in range(sol.n)]))


def oracle_eq1(sol, x):
    eta = sol.sig.metric()
    gj = oracle_g_upper_jets(sol, x)
    fs = oracle_curvature(sol, x)
    return np.array([[fs[mu, nu] - eta[mu] * eta[nu] * gj[mu, nu, 0]
                      for nu in range(sol.n)] for mu in range(sol.n)])


def oracle_eq2(sol, x, eps):
    sig = sol.sig
    gj = oracle_g_upper_jets(sol, x)
    bv = _rows(sig, sol.values(x)[0])
    hv = _rows(sig, sol.h.values(x)[0])
    out = []
    for nu in range(sol.n):
        acc = -eps * hv[nu]
        for mu in range(sol.n):
            acc = (acc + Multivector(sig, gj[mu, nu, 1 + mu])
                   - commutator(bv[mu], Multivector(sig, gj[mu, nu, 0])))
        out.append(acc.coeffs)
    return np.array(out)


def oracle_conservation(sol, x, eps):
    sig = sol.sig
    hj = _blades(sig, sol.h.jets(x, 1)[0])
    bv = _rows(sig, sol.values(x)[0])
    acc = Multivector.zero(sig)
    for nu in range(sol.n):
        acc = (acc + eps * Multivector(sig, hj[nu, 1 + nu])
               - commutator(bv[nu], eps * Multivector(sig, hj[nu, 0])))
    return acc.coeffs


def oracle_double_commutator(h, x):
    hv = _rows(h.sig, h.values(x)[0])
    eta = h.sig.metric()
    out = []
    for nu in range(h.n):
        acc = -(4.0 * (h.n - 1)) * hv[nu]
        for mu in range(h.n):
            acc = acc + eta[mu] * commutator(hv[mu], commutator(hv[mu], hv[nu]))
        out.append(acc.coeffs)
    return np.array(out)


def assert_matches(got, want):
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert scale > 1e-3  # a residual, not roundoff
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.fixture(params=SIGNATURES, ids=lambda pq: f"{pq[0]}-{pq[1]}")
def perturbed(request):
    p, q = request.param
    sig, h, points = build_field_vector(p, q, seed=131, count=2)
    rng = np.random.default_rng(137)
    bump = random_multivector(sig, rng, grades=(1, 2), real=True)
    broken = OffsetCovector(DerivedConnection(h), {0: PolyField.constant(sig, 0.05 * bump)})
    sol = YMSolution(h, broken, 0.8 - 0.3j)
    return sig, h, broken, sol, points


def test_primitive_and_curvature_match_oracle(perturbed):
    sig, h, broken, sol, points = perturbed
    assert_matches(primitive_residual(h, broken, points),
                   np.array([oracle_primitive(h, broken, x) for x in points]))
    assert_matches(curvature_residual(broken, points),
                   np.array([oracle_curvature(broken, x) for x in points]))


def test_field_strength_and_eq1_match_oracle(perturbed):
    sig, h, broken, sol, points = perturbed
    assert_matches(_blades(sig, sol.g_upper(points)),
                   np.array([oracle_g_upper_jets(sol, x)[:, :, 0] for x in points]))
    assert_matches(eq1_residual(sol, points), np.array([oracle_eq1(sol, x) for x in points]))


def test_eq2_and_conservation_match_oracle(perturbed):
    sig, h, broken, sol, points = perturbed
    wrong = YMSolution(sol.h, sol.c, sol.sigma, sol.epsilon + 1.0)
    assert_matches(eq2_residual(wrong, points),
                   np.array([oracle_eq2(sol, x, wrong.epsilon) for x in points]))
    assert_matches(conservation_residual(wrong, points),
                   np.array([oracle_conservation(sol, x, wrong.epsilon) for x in points]))


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_double_commutator_matches_oracle(p, q):
    # Random vectors that fail the anticommutation identity, so the check
    # returns an O(1) residual.
    sig = Signature(p, q)
    points = sample_points(sig.n, count=2, seed=139)
    rng = np.random.default_rng(149)
    h = ExplicitFieldVector([
        PolyField.constant(sig, random_multivector(sig, rng, grades=(1,), real=True))
        for _ in range(sig.n)])
    assert_matches(double_commutator_check(h, points),
                   np.array([oracle_double_commutator(h, x) for x in points]))


def _curl_from_jets(c, x):
    """d_mu X_nu - d_nu X_mu from the first-order jet rows, (P, n, n, dim)."""
    grad = c.jets(x, 1)[:, :, 1:].swapaxes(1, 2)  # grad[p, mu, nu] = d_mu X_nu
    return grad - grad.swapaxes(1, 2)


def _curl_from_values(c, x, delta):
    """[X_nu(x + delta e_mu) - X_nu(x - delta e_mu) - (mu <-> nu)] / 2 delta."""
    grad = np.stack([(c.values(x + delta * e) - c.values(x - delta * e)) / (2 * delta)
                     for e in np.eye(c.n)], axis=1)
    return grad - grad.swapaxes(1, 2)


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("p,q", SIGNATURES)
def test_first_order_curl_matches_central_differences_of_values(p, q, mode):
    # Covector jets hold d_nu X_mu only up to a part symmetric in (mu, nu);
    # their curl must still be the curl of the values, to the O(delta^2)
    # error of the central differences. In fd mode the derivative rows of
    # h are themselves central differences of step fd_step, and the values
    # of C are built from them, so the check runs at delta = fd_step = 1e-4:
    # there the nested mixed differences of h it forms are symmetric in
    # (mu, nu), and at a different step they differ from the jets by
    # O(fd_step^2); a smaller fd_step would also leave roundoff of
    # eps / (fd_step delta) in the differences.
    fine = 1e-4
    cfg = runner.parse_config({
        "signature": {"p": p, "q": q}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 2},
        "seed": 31, "mode": mode, "fd_step": fine,
    })
    case = runner.build_case(cfg)
    h, conn, x = case["h"], case["conn"], case["points"]
    perturbed = OffsetCovector(conn, {0: case["perturbation"]})
    covectors = {
        "derived": conn,
        "potential": YMSolution(h, conn, 0.7),
        "transformed": TransformedConnection(perturbed, case["check_gauge"]),
    }
    for name, cov in covectors.items():
        curl = _curl_from_jets(cov, x)
        bound = 1e-8 * max(1.0, np.abs(curl).max())
        err = {delta: np.abs(_curl_from_values(cov, x, delta) - curl).max()
               for delta in (1e-3, fine)}
        assert err[fine] <= bound, (name, err)
        # A wrong antisymmetric part would leave a floor under the error:
        # it must fall about 100-fold from delta = 1e-3 to 1e-4 wherever it
        # is above roundoff (the curl of a Cl(2,0) connection vanishes).
        if err[1e-3] > 0.1 * bound:
            assert err[1e-3] / err[fine] > 50, (name, err)


@pytest.mark.parametrize("name", ["verify_cl20_exact", "verify_cl32_exact", "verify_cl43_exact"])
def test_spinor_conjugation_matches_dense_oracle(name):
    # The gauge check forms S^-1 R S of the perturbed residual R in the
    # spinor basis; the oracle is two dense Multivector products per entry.
    case = runner.build_case(runner.parse_config(RUNS[name]["verify"]))
    sig, points, gauge = case["sig"], case["points"], case["check_gauge"]
    t = tables(sig)
    pert = OffsetCovector(case["conn"], {0: case["perturbation"]})
    ref = primitive_residual(case["h"], pert, points)[:3]
    s_inv = gauge.inv_jets(points, 0)[:3, 0]
    s_val = gauge.values(points)[:3]
    got = t.to_blades(t.product(t.product(s_inv[:, None, None], t.to_spinor(ref)),
                                s_val[:, None, None]))
    want = np.empty_like(got)
    for k, (wk, sk) in enumerate(zip(_rows(sig, s_inv), _rows(sig, s_val))):
        for idx in np.ndindex(ref.shape[1:3]):
            r = Multivector(sig, ref[(k,) + idx])
            want[(k,) + idx] = geometric_product(geometric_product(wk, r), sk).coeffs
    assert np.abs(want).max() > 1e-3  # a non-flat pair, not roundoff
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _whole_set_conjugation_max(cfg):
    """conjugation_max as the check formed it on field objects: an
    OffsetCovector and a transformed connection over it, both evaluated on
    the whole point set, sliced to the first 3 points."""
    case = runner.build_case(cfg)
    points, h, gauge = case["points"], case["h"], case["check_gauge"]
    t = tables(case["sig"])
    pert = OffsetCovector(case["conn"], {0: case["perturbation"]})
    ht, ct = gauge_transform(h, pert, gauge)
    ref = primitive_residual(h, pert, points)[:3]
    got = primitive_residual(ht, ct, points)[:3]
    want = t.to_blades(t.product(t.product(gauge.inv_jets(points, 0)[:3, None, None, 0],
                                           t.to_spinor(ref)),
                                 gauge.values(points)[:3, None, None]))
    return float(np.abs(got - want).max())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_sliced_conjugation_check_equals_the_whole_set_oracle(name):
    # The report's check runs the array kernels on 3-point slices; the
    # oracle runs the field objects on every point. The bits must agree.
    spec = RUNS[name]
    if "verify" in spec:
        cfg = runner.parse_config(spec["verify"])
    else:  # the run inside runner.run_demo
        cfg = runner.RunConfig(p=spec["demo"], q=0, sigma=1.0, seed=12345, sample_seed=12345,
                               count=8, frame_spec={"kind": "random"},
                               gauge_spec={"kind": "random", "scale": 0.3})
    report, _ = golden_run(spec)
    assert report["gauge_check"]["conjugation_max"] == _whole_set_conjugation_max(cfg)


def test_verify_and_demo_build_no_dense_tables():
    # The dense 2^n x 2^n blade tables serve Multivector arithmetic only; a
    # verify or demo run reads spinor arrays alone.
    dense = ("xor", "_left_index")
    algebra._tables_cached.cache_clear()
    for spec in RUNS.values():
        report, code = golden_run(spec)
        assert code == 0
        p, q = (report["signature"][k] for k in ("p", "q"))
        assert not set(dense) & set(vars(tables(Signature(p, q))))
    # The guard sees a built table: the first Multivector product builds two.
    geometric_product(Multivector.unit(Signature(2, 0)), Multivector.unit(Signature(2, 0)))
    assert {"xor", "_left_index"} <= set(vars(tables(Signature(2, 0))))


def _near_unit_rows(sig, rows, rng):
    u = 0.3 * (rng.standard_normal((rows, sig.dim))
               + 1j * rng.standard_normal((rows, sig.dim))) / np.sqrt(sig.dim)
    u[:, 0] += 1.0
    return u


def test_inverses_build_no_dense_tables(monkeypatch):
    # inverse_rows inverts the spinor blocks, and a gauge element that is not
    # exp(bivector) inverts through it: neither builds a 2^n x 2^n table.
    dense = ("xor", "_left_index")
    algebra._tables_cached.cache_clear()
    rng = np.random.default_rng(11)
    sig = Signature(5, 5)
    u = _near_unit_rows(sig, 4, rng)
    w = algebra.inverse_rows(sig, u)
    t = tables(sig)
    assert np.abs(t.product(t.to_spinor(u), t.to_spinor(w)) - t.unit).max() < 1e-12
    sig = Signature(3, 2)
    gauge = GaugeElement(ExpField(poly_field(sig, (1, (1, 0, 0, 0, 0), 0.4),
                                             (4, (0, 0, 0, 0, 0), 0.3))))
    assert not gauge.bivector_exp
    x = sample_points(sig.n, count=3, seed=2)
    wj = gauge.inv_jets(x, 1)
    t = tables(sig)
    assert np.abs(t.product(wj[:, 0], gauge.values(x)) - t.unit).max() < 1e-12
    # The element keeps the jets of S alone; S^-1 is formed on request.
    points, sjet, derived = gauge._entry
    assert np.array_equal(points, x) and np.array_equal(sjet, gauge.jets(x, 1))
    assert derived is None
    # Past the default cap: two Cl(6,6) rows, where L(u) would be 4096 x 4096.
    monkeypatch.setenv("CLIFFORD_YM_NMAX", "12")
    sig = Signature(6, 6)
    u = _near_unit_rows(sig, 2, rng)
    w = algebra.inverse_rows(sig, u)
    t = tables(sig)
    assert np.abs(t.product(t.to_spinor(u), t.to_spinor(w)) - t.unit).max() < 1e-12
    for p, q in ((5, 5), (3, 2), (6, 6)):
        assert not set(dense) & set(vars(algebra._tables_cached(p, q)))


def test_verify_certifies_past_the_default_dimension_cap(monkeypatch):
    # n = 11, past the default cap of 10, at 2 points.
    monkeypatch.setenv("CLIFFORD_YM_NMAX", "11")
    spec = {"signature": {"p": 6, "q": 5}, "frame": {"kind": "random"},
            "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 1},
            "seed": 7, "sigma": [1.0, 0.0]}
    report, code = runner.run_verify(runner.parse_config(spec))
    assert code == 0 and report["pass"] and report["samples"] == 2
