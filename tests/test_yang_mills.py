"""Gauge potential, field strength, source equations, invariance checks."""

import re

import numpy as np
import pytest

from clifford_ym.algebra import (
    CliffordError,
    Multivector,
    Signature,
    commutator,
    geometric_product,
    random_multivector,
    tables,
)
from clifford_ym.fields import (
    FrameField,
    FrameGaugeFieldVector,
    GaugeMembershipError,
    GaugeElement,
    PolyField,
    make_gauge_element,
    random_bivector_poly_field,
    sample_points,
)
from clifford_ym.primitive import (
    DerivedConnection,
    curvature_residual,
)
from clifford_ym.yang_mills import (
    NotASolution,
    YMSolution,
    build_solution,
    conservation_residual,
    double_commutator_check,
    epsilon_from_residuals,
    epsilon_value,
    eq1_residual,
    eq2_residual,
    gauge_transform_solution,
    verify_solution,
)
from conftest import (
    ExplicitFieldVector,
    OffsetCovector,
    ZeroCovector,
    build_field_vector,
    conjugate,
    generator_field_vector,
    poly_zero,
)


def test_epsilon_formula():
    assert epsilon_value(4, 1.0) == 12.0
    assert epsilon_value(2, 0.5) == pytest.approx(0.5)
    assert epsilon_value(3, -1.0) == -8.0
    assert epsilon_value(5, 2.0j) == pytest.approx(-128.0j)
    assert epsilon_value(2, 0.0) == 0.0


def certified(p, q, sigma, seed=79):
    sig, h, points = build_field_vector(p, q, seed=seed)
    c = DerivedConnection(h)
    sol = build_solution(h, c, sigma, points=points[:3])
    return sig, sol, points


@pytest.mark.parametrize("p,q,sigma", [
    (2, 0, 1.0), (1, 1, -1.0), (3, 0, 0.5), (2, 1, 1.0),
    (4, 0, -1.0), (2, 2, 0.5), (5, 0, 1.0),
])
def test_equations_hold_on_constructed_solutions(p, q, sigma):
    sig, sol, points = certified(p, q, sigma)
    for res in verify_solution(sol, points[:3])["per_point"]:
        assert res["eq1_max"] < 1e-7
        assert res["eq2_max"] < 1e-7
        assert res["conservation_max"] < 1e-7


def test_complex_coupling_works():
    sig, sol, points = certified(2, 1, 2.0j)
    assert sol.epsilon == pytest.approx(epsilon_value(3, 2.0j))
    for res in verify_solution(sol, points[:2])["per_point"]:
        assert res["eq2_max"] < 1e-7


def test_zero_coupling_gives_flat_sourceless_potential():
    sig, sol, points = certified(2, 0, 0.0)
    x = points[1]
    assert sol.epsilon == 0.0
    assert np.abs(eq1_residual(sol, x)).max() < 1e-9
    assert np.abs(sol.g_upper(x)).max() < 1e-12
    assert np.abs(eq2_residual(sol, x)).max() < 1e-12


def test_field_strength_antisymmetric_and_center_free():
    sig, sol, points = certified(2, 1, 1.0)
    from clifford_ym.algebra import center_leak
    x = points[2]
    g = tables(sig).to_blades(sol.g_lower(x)[0])
    for mu in range(sig.n):
        assert np.abs(g[mu][mu]).max() < 1e-12
        for nu in range(sig.n):
            assert np.abs(g[mu][nu] + g[nu][mu]).max() < 1e-12
            assert center_leak(Multivector(sig, g[mu][nu])) < 1e-12


def test_field_strength_matches_jet_formula():
    sig, sol, points = certified(2, 0, 1.0)
    x = points[1]
    direct = curvature_residual(sol, x)[0]
    expected = tables(sig).to_blades(sol.g_lower(x)[0])
    for mu in range(sig.n):
        for nu in range(sig.n):
            assert np.abs(direct[mu][nu] - expected[mu][nu]).max() < 1e-8


def test_field_strength_of_flat_connection_vanishes(rng):
    sig, h, points = build_field_vector(2, 0, seed=83)
    c = DerivedConnection(h)
    sol = YMSolution(h, c, 0.0)
    assert np.abs(curvature_residual(sol, points[:3])).max() < 1e-9


def test_current_equals_scaled_field_vector():
    # The source term of the second equation is J^nu = eps h^nu: it is
    # what eq2_residual subtracts from the flux.
    sig, sol, points = certified(3, 0, 0.5)
    x = points[1]
    j = eq2_residual(YMSolution(sol.h, sol.c, sol.sigma, 0.0), x)[0] - eq2_residual(sol, x)[0]
    want = tables(sig).to_blades(sol.epsilon * sol.h.values(x)[0])
    assert np.abs(j - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_build_solution_rejects_non_solutions(rng):
    sig, h, points = build_field_vector(2, 0, seed=89)
    c = DerivedConnection(h)
    bump = random_multivector(sig, rng, grades=(1,), real=True)
    broken = OffsetCovector(c, {0: PolyField.constant(sig, bump)})
    with pytest.raises(NotASolution):
        build_solution(h, broken, 1.0, points=points[:3])
    # An empty point list skips certification entirely.
    build_solution(h, broken, 1.0, points=points[:0])


def test_build_solution_refuses_a_nan_primitive_residual(rng):
    # A NaN residual is no pass: the flatness check must refuse it and
    # name the first point where it fails.
    sig = Signature(2, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    points = sample_points(2, count=4, seed=3)
    h = FrameGaugeFieldVector(FrameField(sig), gauge)
    h.validate(points)
    offset = Multivector.scalar(sig, float("nan")) + Multivector.generator(sig, 1)
    broken = OffsetCovector(DerivedConnection(h), {0: PolyField.constant(sig, offset)})
    with pytest.raises(NotASolution, match=re.escape(f"at point {points[0].tolist()}")) as err:
        build_solution(h, broken, 1.0, points=points)
    assert "np.float64" not in str(err.value)


def test_wrong_epsilon_scales_linearly():
    sig, sol, points = certified(2, 0, 1.0)
    x = points[1]
    hv = tables(sig).to_blades(sol.h.values(x)[0])
    base = np.abs(eq2_residual(sol, x)).max()
    assert base < 1e-9
    for delta in (0.5, 1.0, 2.0):
        res = eq2_residual(YMSolution(sol.h, sol.c, sol.sigma, sol.epsilon + delta), x)[0]
        # residual is exactly -delta * h^nu once the true part cancels
        metric = sig.metric()
        for nu in range(sig.n):
            want = hv[nu] * (-delta * metric[nu])
            assert np.abs(res[nu] - want).max() < 1e-8


def test_conservation_residual_zero_and_epsilon_independent():
    sig, sol, points = certified(2, 1, 1.0)
    for x in points[:3]:
        r = conservation_residual(sol, x)
        assert np.abs(r).max() < 1e-8
    # Scaling epsilon scales the whole residual, still zero here.
    r2 = conservation_residual(YMSolution(sol.h, sol.c, sol.sigma, 123.0), points[1])
    assert np.abs(r2).max() < 1e-5


def test_epsilon_recovery_from_flux():
    for (p, q, sigma) in [(2, 0, 1.0), (2, 1, 0.5), (3, 0, -1.0)]:
        sig, sol, points = certified(p, q, sigma)
        eps = epsilon_from_residuals(sol, points[:5])
        want = epsilon_value(sig.n, sigma)
        assert abs(eps - want) <= 1e-10 * max(1.0, abs(want))


def test_epsilon_recovery_at_large_sigma():
    # eps is the projected flux over the summed |h|^2, both formed directly.
    # Forming the summed |h|^2 as the difference of two sums of size
    # |eps| |h|^2 cancelled: at sigma = 1e4 (eps = 4e12) it refused to solve.
    for sigma in (1e4, -1e4, 1e4j):
        sig, sol, points = certified(2, 0, sigma)
        eps = epsilon_from_residuals(sol, points)
        assert abs(eps - sol.epsilon) <= 1e-10 * abs(sol.epsilon)


def test_epsilon_recovery_refuses_only_a_zero_field_vector():
    sig = Signature(2, 0)
    points = sample_points(2, count=3)

    def scaled(c):
        return ExplicitFieldVector([PolyField.constant(sig, c * Multivector.generator(sig, a))
                                    for a in (1, 2)])

    with pytest.raises(CliffordError, match="degenerate"):
        epsilon_from_residuals(YMSolution(scaled(0.0), ZeroCovector(sig), 1.0), points)
    # h = 1e-6 e^a: eps = 4 sigma^3 |h|^2, to roundoff even when the flux is
    # 1e12 times |h|^2 (sigma = 1e8).
    for sigma in (1.0, 1e8):
        eps = epsilon_from_residuals(YMSolution(scaled(1e-6), ZeroCovector(sig), sigma), points)
        assert abs(eps - 4e-12 * sigma ** 3) <= 1e-14 * 4e-12 * sigma ** 3


def test_ym_residuals_and_verify_schema():
    sig, sol, points = certified(2, 0, 1.0)
    entries = verify_solution(sol, points[1])["per_point"]
    assert len(entries) == 1
    assert set(entries[0]) == {"point", "eq1_max", "eq2_max", "conservation_max"}
    rep = verify_solution(sol, points[:4])
    assert rep["samples"] == 4
    assert len(rep["per_point"]) == 4
    for key in ("eq1_max", "eq2_max", "conservation_max"):
        assert rep[key] < 1e-7
        assert rep[key] == max(entry[key] for entry in rep["per_point"])


def test_gauge_transformed_solution_still_solves(rng):
    sig, sol, points = certified(2, 1, 1.0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
    moved = gauge_transform_solution(sol, gauge, points=points[:3])
    assert isinstance(moved, YMSolution)
    assert moved.sigma == sol.sigma
    for res in verify_solution(moved, points[:3])["per_point"]:
        assert res["eq1_max"] < 1e-7
        assert res["eq2_max"] < 1e-7
        assert res["conservation_max"] < 1e-7

    # Pointwise conjugation of the potential.
    x = points[1]
    bv = sol.values(x)[0]
    mv = moved.values(x)[0]
    want = conjugate(gauge, bv, x) - gauge.connection(x)[0]
    assert np.abs(mv - want).max() < 1e-10


def test_gauge_transform_keeps_the_epsilon_of_a_non_solution():
    # eps = 13 is not the formula's 4(n-1) sigma^3 = 8, so the second
    # equation fails, and it must fail after the transformation too.
    sig, h, points = build_field_vector(2, 1, seed=79)
    sol = YMSolution(h, DerivedConnection(h), 1.0, 13.0)
    assert verify_solution(sol, points[:3])["eq2_max"] > 1.0
    gen = random_bivector_poly_field(sig, np.random.default_rng(3), scale=0.25)
    moved = gauge_transform_solution(sol, make_gauge_element(gen), points=points[:3])
    assert moved.epsilon == 13.0
    assert verify_solution(moved, points[:3])["eq2_max"] > 1.0


def test_double_gauge_transform_recovers_potential(rng):
    sig, sol, points = certified(2, 0, 1.0)
    gen = random_bivector_poly_field(sig, rng, scale=0.25)
    moved = gauge_transform_solution(sol, make_gauge_element(gen), points=points[:3])
    inverse = make_gauge_element(PolyField(sig, gen.exps, -gen.coeffs))
    back = gauge_transform_solution(moved, inverse, points=points[:3])
    x = points[2]
    assert np.abs(back.values(x) - sol.values(x)).max() < 1e-9


def test_gauge_transform_solution_checks_membership(rng):
    sig, sol, points = certified(2, 0, 1.0)
    from clifford_ym.fields import ExpField
    bad = GaugeElement(ExpField(PolyField(sig, [[1, 0]], [[1.0, 0.0, 0.0, 0.0]])))
    with pytest.raises(GaugeMembershipError):
        gauge_transform_solution(sol, bad, points=points[:3])


def test_identity_gauge_is_no_op():
    sig, sol, points = certified(2, 0, 1.0)
    moved = gauge_transform_solution(sol, make_gauge_element(poly_zero(sig)), points=points[:2])
    x = points[1]
    assert np.abs(moved.values(x) - sol.values(x)).max() < 1e-12


def test_double_commutator_identity_constant_and_transported(rng):
    # For the plain generators the contraction of h with [h, h^nu]
    # collapses to 4(n-1) h^nu; conjugation preserves it.
    for (p, q) in [(2, 0), (3, 0), (2, 2)]:
        sig = Signature(p, q)
        h = generator_field_vector(sig)
        x = np.zeros(sig.n)
        for r in double_commutator_check(h, x):
            assert np.abs(r).max() < 1e-12

    sig, h, points = build_field_vector(2, 1, seed=97)
    for x in points[:3]:
        for r in double_commutator_check(h, x):
            assert np.abs(r).max() < 1e-10


def test_gauge_potential_with_zero_h_is_pure_connection():
    sig, h, points = build_field_vector(2, 0, seed=101)
    c = DerivedConnection(h)
    sol = YMSolution(h, c, 0.0)
    x = points[1]
    assert np.abs(sol.values(x) - c.values(x)).max() < 1e-13


def test_intermediate_product_identity():
    # d_mu(h^mu h^nu) - [C_mu, h^mu h^nu] = 0 summed over mu: the product
    # of two transported fields is transported, so the same first-order
    # equation holds for it.
    sig, sol, points = certified(2, 1, 1.0)
    h, c = sol.h, sol.c
    x = points[2]
    metric = sig.metric()
    t = tables(sig)
    jets = t.to_blades(h.jets(x, 1)[0])

    class _Jet:  # value and gradients of one component, as Multivectors
        def __init__(self, rows):
            self.value = Multivector(sig, rows[0])
            self.grad = lambda mu: Multivector(sig, rows[1 + mu])

    hj = [_Jet(rows) for rows in jets]
    cv = [Multivector(sig, row) for row in t.to_blades(c.values(x)[0])]
    for nu in range(sig.n):
        total = Multivector.zero(sig)
        for mu in range(sig.n):
            prod_d = (geometric_product(hj[mu].grad(mu), hj[nu].value)
                      + geometric_product(hj[mu].value, hj[nu].grad(mu)))
            comm = commutator(cv[mu], geometric_product(hj[mu].value, hj[nu].value))
            total = total + (prod_d - comm) * metric[mu]
        # Each term's derivative couples to the same connection.
        pieces = Multivector.zero(sig)
        for mu in range(sig.n):
            dh_mu = hj[mu].grad(mu) - commutator(cv[mu], hj[mu].value)
            pieces = pieces + geometric_product(dh_mu, hj[nu].value) * metric[mu]
            dh_nu = hj[nu].grad(mu) - commutator(cv[mu], hj[nu].value)
            pieces = pieces + geometric_product(hj[mu].value, dh_nu) * metric[mu]
        assert (total - pieces).max_norm() < 1e-11
        assert total.max_norm() < 1e-10


def test_contraction_pair_identity():
    # h_mu (h^mu h^nu - h^nu h^mu) = 2(n-1) h^nu and the mirrored order
    # gives the opposite sign; their difference drives the source term.
    sig, sol, points = certified(3, 0, 1.0)
    hv = [Multivector(sig, row) for row in tables(sig).to_blades(sol.h.values(points[1])[0])]
    metric = sig.metric()
    n = sig.n
    for nu in range(n):
        left = Multivector.zero(sig)
        right = Multivector.zero(sig)
        for mu in range(n):
            comm = commutator(hv[mu], hv[nu])
            left = left + geometric_product(hv[mu], comm) * metric[mu]
            right = right + geometric_product(comm, hv[mu]) * metric[mu]
        assert (left - hv[nu] * (2.0 * (n - 1))).max_norm() < 1e-10
        assert (right + hv[nu] * (2.0 * (n - 1))).max_norm() < 1e-10
