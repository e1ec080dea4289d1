"""Connection construction, flatness, gauge covariance of the linear system."""

from fractions import Fraction

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
from clifford_ym.contraction import build_table, contract_jets
from clifford_ym.fields import (
    CliffordFieldVector,
    ExpField,
    FiniteDifferenceVector,
    FieldVectorError,
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    GaugeMembershipError,
    PolyField,
    make_gauge_element,
    expm,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from clifford_ym.primitive import (
    DerivedConnection,
    PrimitiveSolution,
    TransformedConnection,
    TransformedFieldVector,
    _w_jets,
    compute_C_jets,
    connection_center_leak,
    curvature_residual,
    gauge_transform,
    primitive_residual,
    solve,
)
from clifford_ym.yang_mills import YMSolution
from conftest import (
    ExplicitFieldVector,
    OffsetCovector,
    ZeroCovector,
    build_field_vector,
    conjugate,
    generator_field_vector,
)


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (2, 2)])
def test_primitive_equation_solved(p, q):
    sig, h, points = build_field_vector(p, q, seed=23)
    c = DerivedConnection(h)
    assert np.abs(primitive_residual(h, c, points[:4])).max() < 1e-10
    assert np.abs(curvature_residual(c, points[:4])).max() < 1e-9


def _projection_form_C_jets(hjets, sig, table):
    """Oracle: C_mu = sum_k mu_k pi[h]_k(W_mu), each h-grade projection rebuilt
    from its projector row over the same contraction chain F[h]^l(W_mu)."""
    chain = [_w_jets(hjets, sig)]
    for _ in range(len(table.weights) - 1):
        chain.append(contract_jets(chain[-1], hjets, sig))
    c = np.zeros_like(chain[0])
    for k in range(1, table.max_k + 1):
        for l, b in enumerate(table.projector_row(k)):
            c = c + chain[l] * float(table.mus[k] * b)
    return c


def test_both_forms_agree():
    # The collapsed weights w_l = sum_k mu_k b_kl against the mu_k-weighted
    # projection sum they collapse, on the value and gradient rows.
    for (p, q) in [(2, 0), (2, 1), (2, 2), (3, 2)]:
        sig, h, points = build_field_vector(p, q, seed=29)
        table = build_table(sig.n)
        hjets = h.jets(points[:3], 1)
        got = compute_C_jets(hjets, sig, table)
        want = _projection_form_C_jets(hjets, sig, table)
        assert got.shape == want.shape == (3, sig.n, 1 + sig.n, sig.dim)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
def test_w_jets_match_jet_products(p, q):
    # The batched W_mu against its definition, one blade product per
    # (mu, rho, row): the value row sum_rho eta_rho (d_mu h^rho) h^rho and
    # the gradient row nu sum_rho eta_rho (d_mu h^rho)(d_nu h^rho).
    sig, h, points = build_field_vector(p, q, seed=89, count=1)
    metric = sig.metric()
    n = sig.n
    t = tables(sig)
    hjets = h.jets(points, 1)
    got = t.to_blades(_w_jets(hjets, sig))
    assert got.shape == (len(points), n, 1 + n, sig.dim)
    hb = t.to_blades(hjets)
    for pt in range(len(points)):
        for mu in range(n):
            want = np.zeros((1 + n, sig.dim), dtype=complex)
            for rho in range(n):
                d_mu = Multivector(sig, hb[pt, rho, 1 + mu])
                for row in range(1 + n):
                    other = Multivector(sig, hb[pt, rho, row])
                    want[row] += metric[rho] * geometric_product(d_mu, other).coeffs
            assert np.abs(got[pt, mu] - want).max() < 1e-12


def test_grade_weights_are_exact():
    # On grade k the contraction F is lambda_k, so the collapsed series
    # sum_l w_l F^l scales grade k by sum_l w_l lambda_k^l, which must be
    # mu_k exactly, and 0 on the grades where mu_k is undefined.
    for n in range(2, 11):
        table = build_table(n)
        for k, lam in enumerate(table.lambdas):
            got = sum((w * Fraction(lam) ** l for l, w in enumerate(table.weights)), Fraction(0))
            assert got == (table.mus[k] or 0), (n, k)
        excluded = [k for k, mu in enumerate(table.mus) if mu is None]
        assert excluded == ([0] if n % 2 == 0 else [0, n])


@pytest.mark.parametrize("p,q", [(2, 0), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_grade_scale_matches_contraction_chain(p, q):
    # The runner's field vectors take the per-blade scale m * W; the
    # contraction chain it replaces is the oracle, on value and gradient rows.
    sig, h, points = build_field_vector(p, q, seed=73, count=1)
    assert h.grade_preserving
    table = build_table(sig.n)
    hjets = h.jets(points[1], 1)
    fast = compute_C_jets(hjets, sig, table, grade_preserving=True)
    chain = compute_C_jets(hjets, sig, table)
    assert fast.shape == chain.shape == (1, sig.n, 1 + sig.n, sig.dim)
    assert np.abs(fast - chain).max() < 1e-12


def _vector_gauge(sig, rng):
    """S = exp(v) for a polynomial vector field v: conjugation mixes grades."""
    exps = np.vstack([np.zeros((1, sig.n), dtype=np.int64), np.eye(sig.n, dtype=np.int64)])
    coeffs = np.zeros((sig.n + 1, sig.dim))
    for a in range(sig.n):
        coeffs[:, 1 << a] = 0.3 * rng.standard_normal(sig.n + 1)
    return GaugeElement(ExpField(PolyField(sig, exps, coeffs)))


# Not n = 3: its one paired projection keeps all but the center, which any
# conjugation fixes, so there the chain and the scale agree for every h.
@pytest.mark.parametrize("p,q", [(2, 0), (2, 2), (3, 2)])
def test_vector_gauge_takes_the_contraction_chain(p, q, rng):
    sig = Signature(p, q)
    gauge = _vector_gauge(sig, rng)
    assert not gauge.bivector_exp
    points = sample_points(sig.n, count=3, seed=79)
    h = FrameGaugeFieldVector(random_frame(sig, rng), gauge)
    h.validate(points)
    assert not h.grade_preserving
    table = build_table(sig.n)
    hjets = h.jets(points[1], 1)
    chain = compute_C_jets(hjets, sig, table)
    scaled = compute_C_jets(hjets, sig, table, grade_preserving=True)
    assert np.abs(chain - scaled).max() > 1e-3
    # The derived connection must still solve the primitive equation.
    c = DerivedConnection(h)
    assert np.abs(primitive_residual(h, c, points[:3])).max() < 1e-9
    assert np.abs(curvature_residual(c, points[:3])).max() < 1e-8


class CoordinateChange(CliffordFieldVector):
    """h'^mu(x) = L^mu_nu h^nu(L^-1 x) for a matrix L; the gradient rows take
    the chain rule d_kappa -> (L^-1)^lambda_kappa d_lambda. Not grade-preserving."""

    def __init__(self, base, lam):
        super().__init__(base.sig)
        self.base, self.lam, self.inv = base, lam, np.linalg.inv(lam)

    def _compute_jets(self, x, order):
        j = np.einsum("mn,pnrk->pmrk", self.lam, self.base.jets(x @ self.inv.T, order))
        j[:, :, 1:] = np.einsum("lk,pmlz->pmkz", self.inv, j[:, :, 1:])
        return j


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (4, 4)])
def test_connection_is_covariant_under_pseudo_orthogonal_coordinates(p, q, mode):
    # The paper's O(p,q) invariance: for L in O(p,q), h' = L h(L^-1 x) is a
    # field vector with F[h'] = F[h], so C'_kappa(x) = (L^-1)^lambda_kappa
    # C_lambda(L^-1 x). h' takes the contraction chain, so in exact mode this
    # also holds the chain to the grade-preserving scale that h takes. The
    # scale stays 0.25: at 0.5, L^-1 x reached 4.3 times the box half-width
    # and Cl(4,4) deviated by 2.9e-11.
    for seed in (1, 7, 11):
        sig, h, points = build_field_vector(p, q, seed, count=4)
        if mode == "fd":
            h = FiniteDifferenceVector(h)
        t = tables(sig)
        s = np.random.default_rng(seed).standard_normal((sig.n, sig.n))
        eta = np.diag(t.eta)
        lam = expm(0.25 * (s - s.T) @ eta)
        assert np.abs(lam.T @ eta @ lam - eta).max() < 1e-12
        moved = CoordinateChange(h, lam)
        assert not moved.grade_preserving
        got = t.to_blades(DerivedConnection(moved).values(points))
        c = DerivedConnection(h).values(points @ moved.inv.T)
        want = t.to_blades(np.einsum("lk,plz->pkz", moved.inv, c))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_grade_preserving_is_structural(rng):
    sig, h, points = build_field_vector(2, 1, seed=83)
    bivector = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.2))
    vector = _vector_gauge(sig, rng)
    assert h.grade_preserving and bivector.bivector_exp
    assert TransformedFieldVector(h, bivector).grade_preserving
    assert not TransformedFieldVector(h, vector).grade_preserving
    assert not FiniteDifferenceVector(h).grade_preserving
    assert not generator_field_vector(sig).grade_preserving


def test_constant_field_vector_yields_zero_connection():
    sig = Signature(3, 0)
    h = generator_field_vector(sig)
    x = np.zeros(3)
    h.validate(x)
    assert np.abs(DerivedConnection(h).values(x)).max() < 1e-13


def test_identity_frame_connection_is_gauge_connection(rng):
    # With the identity frame, h is a conjugated constant and the solution
    # must match -S^-1 d_mu S up to center terms; here the gauge generator
    # is a pure bivector so there is no center ambiguity to remove.
    sig = Signature(2, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    h = FrameGaugeFieldVector(FrameField(sig), gauge)
    x = np.array([0.3, -0.2])
    h.validate(x)
    c = DerivedConnection(h).values(x)
    conn = gauge.connection(x)
    assert c.shape == conn.shape == (1, sig.n, sig.dim)
    assert np.abs(c + conn).max() < 1e-10


def test_gradient_identity_for_field_vectors(rng):
    # Lowering with the metric gives (d_mu h^rho) h_rho = -h^rho (d_mu h_rho),
    # the antisymmetry that drives the construction.
    sig, h, points = build_field_vector(2, 1, seed=31)
    metric = sig.metric()
    x = points[2]
    jets = h.jets(x, 1)[0]
    for mu in range(sig.n):
        left = Multivector.zero(sig)
        right = Multivector.zero(sig)
        for rho in range(sig.n):
            dh = Multivector(sig, jets[rho, 1 + mu])
            v = Multivector(sig, jets[rho, 0])
            left = left + geometric_product(dh, v) * metric[rho]
            right = right + geometric_product(v, dh) * metric[rho]
        assert (left + right).max_norm() < 1e-10


def test_center_offset_preserves_primitive_equation(rng):
    # The equation only sees the connection through commutators, so shifting
    # any component by a central element changes nothing.
    sig, h, points = build_field_vector(3, 0, seed=37)
    c = DerivedConnection(h)
    pseudo = Multivector.blade(sig, (1, 2, 3))
    shifted = OffsetCovector(c, {1: PolyField.constant(sig, pseudo * 0.7)})
    assert np.abs(primitive_residual(h, shifted, points[:3])).max() < 1e-10


def test_perturbed_connection_breaks_equation(rng):
    sig, h, points = build_field_vector(2, 0, seed=41)
    c = DerivedConnection(h)
    bump = random_multivector(sig, rng, grades=(1,), real=True)
    broken = OffsetCovector(c, {0: PolyField.constant(sig, bump * 1e-3)})
    x = points[1]
    res = np.abs(primitive_residual(h, broken, x)).max()
    assert res > 1e-5
    assert res < 1e-1


def test_zero_covector_for_constant_vectors():
    sig = Signature(2, 1)
    h = generator_field_vector(sig)
    z = ZeroCovector(sig)
    x = np.zeros(3)
    assert np.abs(primitive_residual(h, z, x)).max() < 1e-14
    assert np.abs(curvature_residual(z, x)).max() == 0.0


def test_connection_center_leak_small(rng):
    sig, h, points = build_field_vector(2, 1, seed=47)
    c = DerivedConnection(h)
    leaks = connection_center_leak(c, points[:3])
    assert leaks.shape == (3,)
    assert leaks.max() < 1e-10


def test_pure_gauge_connection_is_flat(rng):
    sig = Signature(2, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.4))
    conn = TransformedConnection(ZeroCovector(sig), gauge)
    assert np.abs(curvature_residual(conn, sample_points(2, count=4, seed=5))).max() < 1e-9


def test_gauge_transform_conjugation_law(rng):
    sig, h, points = build_field_vector(2, 1, seed=53)
    c = DerivedConnection(h)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
    h2, c2 = gauge_transform(h, c, gauge, points=points)

    x = points[2]
    vals, tvals = h.values(x)[0], h2.values(x)[0]
    assert np.abs(tvals - conjugate(gauge, vals, x)).max() < 1e-11

    # The transformed connection is S^-1 C S - S^-1 dS componentwise.
    cv, tv = c.values(x)[0], c2.values(x)[0]
    want = conjugate(gauge, cv, x) - gauge.connection(x)[0]
    assert np.abs(tv - want).max() < 1e-11

    # And the transformed pair still solves the equation, flatly.
    assert np.abs(primitive_residual(h2, c2, x)).max() < 1e-9
    assert np.abs(curvature_residual(c2, x)).max() < 1e-8


def test_gauge_transform_membership_enforced(rng):
    sig, h, points = build_field_vector(2, 0, seed=59)
    c = DerivedConnection(h)
    # A scalar generator makes S^-1 dS land in the center, which the
    # admissible class excludes.
    bad_gen = PolyField(sig, [[1, 0]], [[1.0, 0.0, 0.0, 0.0]])  # x^1 on the scalar blade
    bad = GaugeElement(ExpField(bad_gen))
    with pytest.raises(GaugeMembershipError) as err:
        gauge_transform(h, c, bad, points=points)
    # The point prints as plain floats.
    assert f"at point {err.value.point.tolist()}" in str(err.value)
    assert "np.float64" not in str(err.value)
    # Without points there is nothing to check against, so it goes through.
    gauge_transform(h, c, bad)


def test_transformed_connection_rejects_high_order(rng):
    # Every covector refuses jets beyond first order with a CliffordError,
    # and so does compute_C_jets on anything but first-order h-jets.
    sig, h, points = build_field_vector(2, 0, seed=61)
    c = DerivedConnection(h)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.2))
    t = TransformedConnection(c, gauge)
    x = points[0]
    t.jets(x, 1)
    offset = OffsetCovector(c, {0: PolyField.constant(sig, Multivector.generator(sig, 1))})
    for cov in (t, c, ZeroCovector(sig), offset, YMSolution(h, c, 0.7)):
        for order in (2, 3, -1):
            with pytest.raises(CliffordError, match="jet order must be 0 or 1"):
                cov.jets(x, order)
    for order in (0, 1):
        assert t.jets(x, order).shape == (1, sig.n, 1 + order * sig.n, sig.dim)
    with pytest.raises(CliffordError, match="first derivatives"):
        compute_C_jets(h.jets(x, 0), sig, build_table(sig.n))


def test_solution_reports(rng):
    sig, h, points = build_field_vector(2, 0, seed=67)
    sol = solve(h)
    assert isinstance(sol, PrimitiveSolution)
    rep = sol.campaign(points[1])["per_point"][0]
    assert set(rep) == {"point", "primitive_max", "curvature_max", "center_leak"}
    assert rep["primitive_max"] < 1e-10
    assert rep["curvature_max"] < 1e-9
    assert rep["center_leak"] < 1e-10

    camp = sol.campaign(points[:5])
    assert camp["samples"] == len(camp["per_point"]) == 5
    for key in ("primitive_max", "curvature_max", "center_leak"):
        assert camp[key] == max(entry[key] for entry in camp["per_point"])
    assert camp["primitive_max"] < 1e-10


def test_solution_reports_on_a_given_connection():
    sig, h, points = build_field_vector(2, 0, seed=67)
    conn = DerivedConnection(h)
    sol = PrimitiveSolution(conn)
    assert sol.c is conn and sol.h is h and sol.table is conn.table
    assert sol.campaign(points[:3]) == solve(h).campaign(points[:3])


def test_validate_refuses_a_field_vector_before_its_connection(rng):
    # The closed form is meaningless on an invalid field vector, so a run
    # validates h before it derives C: h^1 = h^2 = e1 breaks anticommutation.
    sig = Signature(2, 0)
    e1 = PolyField.constant(sig, Multivector.generator(sig, 1))
    bad = ExplicitFieldVector([e1, e1])
    with pytest.raises(FieldVectorError, match="anticommutation"):
        bad.validate(np.zeros(2))


def test_derived_connection_jets_memo_safe(rng):
    sig, h, points = build_field_vector(2, 0, seed=71)
    c = DerivedConnection(h)
    first = c.jets(points, 1)
    snap = first.copy()
    with pytest.raises(ValueError):
        first[0, 0, 0, 0] = 3.0
    assert np.array_equal(c.jets(points, 1), snap)


