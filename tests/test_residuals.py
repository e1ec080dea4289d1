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

from clifford_ym import runner
from clifford_ym.algebra import Multivector, Signature, commutator, random_multivector, tables
from clifford_ym.fields import ExplicitFieldVector, PolyField, _jet_mul, sample_points
from clifford_ym.primitive import (
    DerivedConnection,
    OffsetCovector,
    TransformedConnection,
    curvature_residual,
    primitive_residual,
)
from clifford_ym.yang_mills import (
    GaugePotential,
    YMSolution,
    conservation_residual,
    double_commutator_check,
    eq1_residual,
    eq2_residual,
)
from conftest import build_field_vector

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
    fs = oracle_curvature(sol.b, x)
    return np.array([[fs[mu, nu] - eta[mu] * eta[nu] * gj[mu, nu, 0]
                      for nu in range(sol.n)] for mu in range(sol.n)])


def oracle_eq2(sol, x, eps):
    sig = sol.sig
    gj = oracle_g_upper_jets(sol, x)
    bv = _rows(sig, sol.b.values(x)[0])
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
    bv = _rows(sig, sol.b.values(x)[0])
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
    wrong = sol.epsilon + 1.0
    assert_matches(eq2_residual(sol, points, wrong),
                   np.array([oracle_eq2(sol, x, wrong) for x in points]))
    assert_matches(conservation_residual(sol, points, wrong),
                   np.array([oracle_conservation(sol, x, wrong) for x in points]))


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
        "potential": GaugePotential(h, conn, 0.7),
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
