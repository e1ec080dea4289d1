"""The array residuals against per-pair oracles built from Multivector commutators.

Every residual is computed in the package from stacked jet rows through one
commutator kernel. The oracles below are the per-(mu, nu) formulas: one
``commutator`` per pair, and the field-strength jets G^munu formed by jet
products. They run on a perturbed connection and a wrong epsilon, so the
residuals compared are O(0.01-1), not roundoff.
"""

import numpy as np
import pytest

from clifford_ym.algebra import Multivector, Signature, commutator, random_multivector
from clifford_ym.fields import ExplicitFieldVector, PolyField, _jet_mul, sample_points
from clifford_ym.primitive import (
    DerivedConnection,
    OffsetCovector,
    curvature_residual,
    primitive_residual,
)
from clifford_ym.yang_mills import (
    YMSolution,
    conservation_residual,
    double_commutator_check,
    eq1_residual,
    eq2_residual,
)
from conftest import build_field_vector

SIGNATURES = [(2, 0), (2, 1), (3, 2), (4, 3)]


def oracle_primitive(h, c, x):
    metric = h.sig.metric()
    cvals = c.values(x)
    hjets = h.jets(x, 1)
    return np.array([[(metric[rho] * hjets[rho].grad(mu)
                       - commutator(cvals[mu], metric[rho] * hjets[rho].value)).coeffs
                      for rho in range(h.n)] for mu in range(h.n)])


def oracle_curvature(c, x):
    cjets = c.jets(x, 1)
    vals = [j.value for j in cjets]
    return np.array([[(cjets[nu].grad(mu) - cjets[mu].grad(nu)
                       - commutator(vals[mu], vals[nu])).coeffs
                      for nu in range(c.n)] for mu in range(c.n)])


def oracle_g_upper_jets(sol, x):
    """Jets of G^munu = -sigma^2 (h^mu h^nu - h^nu h^mu) by jet products."""
    hj = sol.h.jets(x, 1)
    fac = -sol.sigma ** 2
    return [[(_jet_mul(hj[mu], hj[nu]) - _jet_mul(hj[nu], hj[mu])).scale(fac)
             for nu in range(sol.n)] for mu in range(sol.n)]


def oracle_eq1(sol, x):
    eta = sol.sig.metric()
    gj = oracle_g_upper_jets(sol, x)
    fs = oracle_curvature(sol.b, x)
    return np.array([[fs[mu, nu] - eta[mu] * eta[nu] * gj[mu][nu].comps[0]
                      for nu in range(sol.n)] for mu in range(sol.n)])


def oracle_eq2(sol, x, eps):
    gj = oracle_g_upper_jets(sol, x)
    bv = sol.b.values(x)
    hv = sol.h.values(x)
    out = []
    for nu in range(sol.n):
        acc = -eps * hv[nu]
        for mu in range(sol.n):
            acc = acc + gj[mu][nu].grad(mu) - commutator(bv[mu], gj[mu][nu].value)
        out.append(acc.coeffs)
    return np.array(out)


def oracle_conservation(sol, x, eps):
    hj = sol.h.jets(x, 1)
    bv = sol.b.values(x)
    acc = Multivector.zero(sol.sig)
    for nu in range(sol.n):
        acc = acc + eps * hj[nu].grad(nu) - commutator(bv[nu], eps * hj[nu].value)
    return acc.coeffs


def oracle_double_commutator(h, x):
    hv = h.values(x)
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
    for x in points:
        assert_matches(primitive_residual(h, broken, x), oracle_primitive(h, broken, x))
        assert_matches(curvature_residual(broken, x), oracle_curvature(broken, x))


def test_field_strength_and_eq1_match_oracle(perturbed):
    sig, h, broken, sol, points = perturbed
    for x in points:
        gj = oracle_g_upper_jets(sol, x)
        want = np.array([[g.comps[0] for g in row] for row in gj])
        assert_matches(sol.g_upper(x), want)
        assert_matches(eq1_residual(sol, x), oracle_eq1(sol, x))


def test_eq2_and_conservation_match_oracle(perturbed):
    sig, h, broken, sol, points = perturbed
    wrong = sol.epsilon + 1.0
    for x in points:
        assert_matches(eq2_residual(sol, x, wrong), oracle_eq2(sol, x, wrong))
        assert_matches(conservation_residual(sol, x, wrong),
                       oracle_conservation(sol, x, wrong))


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
    for x in points:
        assert_matches(double_commutator_check(h, x), oracle_double_commutator(h, x))
