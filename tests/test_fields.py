"""Polynomial fields, jets, frames, gauge elements, field vectors."""

import numpy as np
import pytest

from clifford_ym.algebra import (
    Multivector,
    Signature,
    exponential,
    geometric_product,
    grade_project,
    inverse,
    random_multivector,
)
from clifford_ym.contraction import build_table, grade_project_paired, project
from clifford_ym.fields import (
    CallableField,
    ExpField,
    ExplicitFieldVector,
    FieldVectorError,
    FiniteDifferenceVector,
    FrameError,
    FrameField,
    GaugeElement,
    GaugeMembershipError,
    MvJet,
    PolyField,
    Polynomial,
    ScalarJet,
    _hidx,
    _jet_mul,
    _nrows,
    _right_matrices,
    fd_jet,
    generator_field_vector,
    invert_value_jet,
    lower_index,
    make_clifford_field_vector,
    make_frame_field,
    make_gauge_element,
    raise_index,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from conftest import build_field_vector


def test_polynomial_eval_diff_arith():
    x0 = Polynomial.coordinate(2, 0)
    x1 = Polynomial.coordinate(2, 1)
    p = x0 * x0 + x0 * x1 + Polynomial.constant(2, 3.0)
    pt = np.array([2.0, -1.0])
    assert p(pt) == pytest.approx(4.0 - 2.0 + 3.0)
    assert p.diff(0)(pt) == pytest.approx(2 * 2.0 - 1.0)
    assert p.diff(1)(pt) == pytest.approx(2.0)
    assert p.diff(1).diff(1)(pt) == 0
    assert (-x0)(pt) == pytest.approx(-2.0)
    assert p.degree() == 2


def test_polynomial_json_round_trip():
    p = Polynomial(3, {(1, 0, 2): 2.5 - 1.0j, (0, 0, 0): 4.0})
    q = Polynomial.from_json(3, p.to_json())
    assert q.terms == p.terms
    pt = np.array([0.3, 0.7, -0.4])
    assert q(pt) == pytest.approx(p(pt))


def test_mvjet_product_rule_matches_finite_differences(rng):
    sig = Signature(2, 1)
    a = random_bivector_poly_field(sig, rng, scale=0.5, degree=2)
    mv = random_multivector(sig, rng)
    b = PolyField.constant(sig, mv)
    x = np.array([0.2, -0.4, 0.6])
    ja = a.jet(x, 2)
    jb = b.jet(x, 2)
    prod = ja * jb if hasattr(ja, "__mul__") else None
    ref = fd_jet(lambda y: geometric_product(a.value(y), b.value(y)),
                 sig, x, 2, step=1e-4)
    got = prod if prod is not None else None
    assert got is not None
    assert (got.value - ref.value).max_norm() < 1e-8
    for mu in range(3):
        assert (got.grad(mu) - ref.grad(mu)).max_norm() < 1e-6
        for nu in range(mu, 3):
            assert (got.hess(mu, nu) - ref.hess(mu, nu)).max_norm() < 1e-4


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_mvjet_product_rule_matches_pointwise_products(p, q, order, rng):
    sig = Signature(p, q)
    n = sig.n
    rows = {0: 1, 1: 1 + n, 2: 1 + n + n * (n + 1) // 2}[order]

    def draw():
        return MvJet(sig, order, rng.standard_normal((rows, sig.dim))
                     + 1j * rng.standard_normal((rows, sig.dim)))

    a, b = draw(), draw()
    got = a * b
    gp = geometric_product
    assert got.order == order
    # Right matrices of b gathered once, as ExpField.jet does for its generator.
    assert np.abs(_jet_mul(a, b, _right_matrices(b)).comps - got.comps).max() < 1e-12
    assert (got.value - gp(a.value, b.value)).max_norm() < 1e-12
    for mu in range(n if order >= 1 else 0):
        want = gp(a.grad(mu), b.value) + gp(a.value, b.grad(mu))
        assert (got.grad(mu) - want).max_norm() < 1e-12
        for nu in range(mu, n if order == 2 else mu):
            want = (gp(a.hess(mu, nu), b.value) + gp(a.grad(mu), b.grad(nu))
                    + gp(a.grad(nu), b.grad(mu)) + gp(a.value, b.hess(mu, nu)))
            assert (got.hess(mu, nu) - want).max_norm() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_polyfield_jets_match_polynomial_oracle(n, rng):
    # Exponent-matrix evaluation against per-polynomial evaluation and
    # differentiation (Polynomial.__call__ and diff through ScalarJet).
    sig = Signature(n, 0)
    blade_polys = {}
    for mask in rng.choice(sig.dim, size=4, replace=False):
        terms = {}
        for _ in range(6):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=n))
            terms[exps] = complex(*rng.standard_normal(2))
        blade_polys[int(mask)] = Polynomial(n, terms)
    field = PolyField(sig, blade_polys)
    x = rng.uniform(-1.2, 1.2, size=n)
    for order in (0, 1, 2):
        want = np.zeros((_nrows(order, n), sig.dim), dtype=complex)
        for mask, poly in blade_polys.items():
            sj = ScalarJet.of_polynomial(poly, x, order)
            want[0, mask] = sj.value
            if order >= 1:
                want[1:1 + n, mask] = sj.grad
            if order == 2:
                for i in range(n):
                    for j in range(i, n):
                        want[_hidx(n, i, j), mask] = sj.hess[i, j]
        got = field.jet(x, order).comps
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(field.value(x).coeffs - want[0]).max() <= 1e-13 * np.abs(want[0]).max()
    assert PolyField.zero(sig).jet(x, 2).max_norm() == 0.0


def test_polyfield_partial_is_exact_derivative(rng):
    sig = Signature(3, 0)
    f = random_bivector_poly_field(sig, rng, scale=1.0, degree=3)
    x = np.array([0.1, 0.5, -0.2])
    for mu in range(3):
        step = 1e-5
        e = np.zeros(3)
        e[mu] = step
        exact = f.partial(mu).value(x)
        approx = (f.value(x + e) - f.value(x - e)) / (2 * step)
        assert (exact - approx).max_norm() < 1e-8
        assert (exact - f.jet(x, 1).grad(mu)).max_norm() < 1e-8


def test_expfield_jets_match_finite_differences(rng):
    sig = Signature(3, 0)
    gen = random_bivector_poly_field(sig, rng, scale=0.4, degree=2)
    s = ExpField(gen)
    x = np.array([0.3, -0.1, 0.2])
    jet = s.jet(x, 2)
    ref = fd_jet(lambda y: s.value(y), sig, x, 2, step=1e-4)
    assert (jet.value - ref.value).max_norm() < 1e-10
    for mu in range(3):
        assert (jet.grad(mu) - ref.grad(mu)).max_norm() < 1e-7
        for nu in range(mu, 3):
            assert (jet.hess(mu, nu) - ref.hess(mu, nu)).max_norm() < 1e-5


def test_expfield_scalar_series_oracle():
    # exp(t*e12) in Cl(2,0): e12 squares to -1, so the series gives
    # cos(t) + sin(t) e12 and derivatives follow by the chain rule.
    sig = Signature(2, 0)
    t = Polynomial.coordinate(2, 0)
    s = ExpField(PolyField(sig, {3: t}))
    x = np.array([0.7, 0.0])
    jet = s.jet(x, 2)
    assert jet.value.component(()) == pytest.approx(np.cos(0.7), abs=1e-13)
    assert jet.value.component((1, 2)) == pytest.approx(np.sin(0.7), abs=1e-13)
    assert jet.grad(0).component(()) == pytest.approx(-np.sin(0.7), abs=1e-12)
    assert jet.grad(0).component((1, 2)) == pytest.approx(np.cos(0.7), abs=1e-12)
    assert jet.hess(0, 0).component(()) == pytest.approx(-np.cos(0.7), abs=1e-11)
    assert jet.grad(1).max_norm() < 1e-14


def test_invert_value_jet_matches_fd_of_inverse(rng):
    sig = Signature(2, 0)
    gen = random_bivector_poly_field(sig, rng, scale=0.5, degree=2)
    s = ExpField(gen)
    x = np.array([0.25, -0.6])
    inv_jet = invert_value_jet(s.jet(x, 2))
    from clifford_ym.algebra import inverse
    ref = fd_jet(lambda y: inverse(s.value(y)), sig, x, 2, step=1e-4)
    assert (inv_jet.value - ref.value).max_norm() < 1e-10
    for mu in range(2):
        assert (inv_jet.grad(mu) - ref.grad(mu)).max_norm() < 1e-7
        for nu in range(mu, 2):
            assert (inv_jet.hess(mu, nu) - ref.hess(mu, nu)).max_norm() < 1e-4


def test_frame_identity_and_constant(rng):
    sig = Signature(2, 1)
    ident = FrameField.identity(sig)
    x = np.array([0.1, 0.2, 0.3])
    m = ident.matrix(x)
    assert np.allclose(m, np.eye(3))
    ident.validate(x)

    # A rotation in the 1-2 plane and a boost in the 1-3 plane both
    # preserve the metric diag(1, 1, -1).
    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    const = FrameField.constant(sig, rot)
    assert np.allclose(const.matrix(x), rot)
    const.validate(x)
    ch, sh = np.cosh(0.3), np.sinh(0.3)
    boost = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    FrameField.constant(sig, boost).validate(x)

    # Matrices that break y eta y^T = eta (or have the wrong shape) are refused.
    with pytest.raises(FrameError):
        FrameField.constant(sig, np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
    with pytest.raises(FrameError):
        FrameField.constant(sig, np.zeros((3, 3)))
    with pytest.raises(FrameError):
        FrameField.constant(sig, np.eye(2))
    # The constructor itself checks, so no frame skips the orthogonality test.
    with pytest.raises(FrameError):
        FrameField(sig, "constant", np.eye(3) * 1.1)
    with pytest.raises(FrameError):
        FrameField(sig, "moebius", np.eye(3))
    with pytest.raises(FrameError):
        FrameField(sig, "constant", rot, generator=np.zeros((3, 3)))
    with pytest.raises(FrameError):
        FrameField(sig, "rotation", rot, generator=np.eye(3), poly=Polynomial.coordinate(3, 0))
    spin = np.zeros((3, 3))
    spin[0, 1], spin[1, 0] = 1.0, -1.0
    with pytest.raises(FrameError):
        FrameField(sig, "rotation", rot, generator=spin,
                   poly=Polynomial.coordinate(3, 0) * 1j)


def test_frame_rotation_jets_match_fd(rng):
    sig = Signature(3, 0)
    theta = Polynomial.coordinate(3, 0) * Polynomial.constant(3, 0.5)
    gen = np.zeros((3, 3))
    gen[0, 1], gen[1, 0] = 1.0, -1.0
    frame = FrameField.rotation(sig, theta, gen)
    x = np.array([0.4, -0.2, 0.1])
    frame.validate(x)
    jets = frame.jets(x, 2)
    step = 1e-4
    for mu in range(3):
        e = np.zeros(3)
        e[mu] = step
        fd = (frame.matrix(x + e) - frame.matrix(x - e)) / (2 * step)
        assert np.abs(jets[1][mu] - fd).max() < 1e-7


def test_make_frame_field_specs(rng):
    sig = Signature(2, 0)
    ident = make_frame_field(sig, {"kind": "identity"})
    assert np.allclose(ident.matrix(np.zeros(2)), np.eye(2))
    c, s = np.cos(0.3), np.sin(0.3)
    mat = [[c, -s], [s, c]]
    const = make_frame_field(sig, {"kind": "constant", "matrix": mat})
    assert np.allclose(const.matrix(np.zeros(2)), np.asarray(mat))
    with pytest.raises(Exception):
        make_frame_field(sig, {"kind": "moebius"})


def test_gauge_identity_and_conjugation(rng):
    sig = Signature(2, 1)
    ident = GaugeElement.identity(sig)
    x = np.array([0.1, -0.3, 0.2])
    assert (ident.value(x) - Multivector.unit(sig)).max_norm() == 0.0
    u = random_multivector(sig, rng)
    assert (ident.conjugate(u, x) - u).max_norm() < 1e-14
    for w in ident.connection(x):
        assert w.max_norm() < 1e-14

    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    s = gauge.value(x)
    sinv = gauge.inv_value(x)
    assert (geometric_product(s, sinv) - Multivector.unit(sig)).max_norm() < 1e-12
    got = gauge.conjugate(u, x)
    ref = geometric_product(geometric_product(sinv, u), s)
    assert (got - ref).max_norm() < 1e-12


def test_gauge_connection_matches_fd(rng):
    # connection(x)[mu] is S^-1 d_mu S.
    sig = Signature(2, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.4))
    x = np.array([0.3, 0.6])
    conn = gauge.connection(x)
    step = 1e-5
    from clifford_ym.algebra import inverse
    for mu in range(2):
        e = np.zeros(2)
        e[mu] = step
        ds = (gauge.value(x + e) - gauge.value(x - e)) / (2 * step)
        ref = geometric_product(inverse(gauge.value(x)), ds)
        assert (conn[mu] - ref).max_norm() < 1e-9


def test_gauge_inverse_round_trip(rng):
    sig = Signature(3, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    inv = gauge.inverse()
    x = np.array([0.2, 0.4, -0.1])
    u = random_multivector(sig, rng)
    back = inv.conjugate(gauge.conjugate(u, x), x)
    assert (back - u).max_norm() < 1e-11


@pytest.mark.parametrize("p,q", [(2, 0), (2, 1), (3, 2), (4, 3)])
def test_reversed_gauge_jet_is_the_inverse_jet(p, q, rng):
    # For S = exp(B), B a bivector, S^-1 is the reversion of S: its jet must
    # match the exp(-B) series and the inverse-jet formula.
    sig = Signature(p, q)
    gen = random_bivector_poly_field(sig, rng, scale=0.3)
    gauge = make_gauge_element(gen)
    assert gauge.bivector_exp and gauge.inverse().bivector_exp
    x = rng.uniform(-1.0, 1.0, size=sig.n)
    got = gauge.inv_jet(x, 2)
    for want in (ExpField(gen.scale(-1.0)).jet(x, 2), invert_value_jet(gauge.jet(x, 2))):
        assert np.abs(got.comps - want.comps).max() < 1e-12
    assert (gauge.inv_value(x) - inverse(gauge.value(x))).max_norm() < 1e-12
    assert np.array_equal(gauge.inv_jet(x, 1).comps, got.comps[:1 + sig.n])


def test_non_bivector_gauge_inverts_by_formula(rng):
    # exp(vector) and exp(scalar) are not exp(bivector): no reversion shortcut.
    sig = Signature(2, 1)
    x = np.array([0.3, -0.2, 0.5])
    gens = [PolyField(sig, {1: Polynomial.coordinate(3, 0) * 0.4, 2: Polynomial.constant(3, 0.3)}),
            PolyField(sig, {0: Polynomial.coordinate(3, 1)}),
            PolyField(sig, {3: Polynomial.coordinate(3, 2), 5: Polynomial.constant(3, 0.2)})]
    for gen, qualifies in zip(gens, (False, False, True)):
        gauge = GaugeElement(ExpField(gen))
        assert gauge.bivector_exp is qualifies
        assert (gauge.inv_value(x) - inverse(gauge.value(x))).max_norm() < 1e-12
        want = invert_value_jet(gauge.jet(x, 2))
        assert np.abs(gauge.inv_jet(x, 2).comps - want.comps).max() < 1e-12
    assert not GaugeElement(CallableField(sig, lambda y: Multivector.unit(sig))).bivector_exp
    assert GaugeElement.identity(sig).bivector_exp


def test_gauge_membership_enforced(rng):
    sig = Signature(2, 1)
    # A generator with a grade-1 part is outside the bivector family.
    bad = PolyField(sig, {1: Polynomial.constant(3, 0.5)})
    with pytest.raises(GaugeMembershipError):
        make_gauge_element(bad)

    # Non-polynomial generators need sample points to check membership.
    fn = CallableField(sig, lambda x: Multivector.blade(sig, (1, 2)) * x[0])
    with pytest.raises(GaugeMembershipError):
        make_gauge_element(fn)
    pts = sample_points(3, count=5)
    elem = make_gauge_element(fn, sample_points_=pts)
    assert elem.validate_membership(pts) < 1e-9


def test_field_vector_values_match_direct_conjugation(rng):
    sig, h, points = build_field_vector(2, 1, seed=7)
    x = points[1]
    vals = h.values(x)
    # Re-derive by conjugating the frame vectors explicitly.
    mats = h.frame.matrix(x)
    gens = [Multivector.generator(sig, a) for a in range(1, sig.n + 1)]
    for rho in range(sig.n):
        vec = Multivector.zero(sig)
        for a in range(sig.n):
            vec = vec + gens[a] * mats[rho, a]
        ref = h.gauge.conjugate(vec, x)
        assert (vals[rho] - ref).max_norm() < 1e-12


def test_field_vector_jets_match_fd(rng):
    sig, h, points = build_field_vector(2, 0, seed=3)
    x = points[2]
    jets = h.jets(x, 1)
    step = 1e-5
    for rho in range(sig.n):
        for mu in range(sig.n):
            e = np.zeros(sig.n)
            e[mu] = step
            fd = (h.values(x + e)[rho] - h.values(x - e)[rho]) / (2 * step)
            assert (jets[rho].grad(mu) - fd).max_norm() < 1e-8


def test_identity_everything_gives_generators():
    sig = Signature(2, 2)
    h = make_clifford_field_vector(FrameField.identity(sig), GaugeElement.identity(sig))
    x = np.zeros(4)
    vals = h.values(x)
    for a in range(sig.n):
        assert (vals[a] - Multivector.generator(sig, a + 1)).max_norm() == 0.0


def test_validate_reports_and_raises(rng):
    sig, h, points = build_field_vector(3, 0, seed=11)
    report = h.validate(points)
    assert report["anticommutation"] < 1e-10
    assert report["trace_product"] < 1e-10
    assert report["circ_leak"] < 1e-10

    # Swapping in raw blades that do not anticommute must fail validation.
    e1 = PolyField.constant(sig, Multivector.generator(sig, 1))
    bad = ExplicitFieldVector([e1, e1, e1])
    with pytest.raises(FieldVectorError):
        bad.validate(points)


def test_finite_difference_vector_tracks_exact(rng):
    sig, h, points = build_field_vector(2, 0, seed=5)
    fd = FiniteDifferenceVector(h, step=1e-5)
    x = points[0]
    exact = h.jets(x, 2)
    approx = fd.jets(x, 2)
    for rho in range(sig.n):
        assert (exact[rho].value - approx[rho].value).max_norm() < 1e-12
        for mu in range(sig.n):
            assert (exact[rho].grad(mu) - approx[rho].grad(mu)).max_norm() < 1e-8
            for nu in range(mu, sig.n):
                assert (exact[rho].hess(mu, nu) - approx[rho].hess(mu, nu)).max_norm() < 1e-4


def test_sample_points_shape_and_determinism():
    pts = sample_points(3, count=10, box=(-2.0, 2.0), seed=9)
    again = sample_points(3, count=10, box=(-2.0, 2.0), seed=9)
    assert pts.shape == (11, 3)
    assert np.array_equal(pts, again)
    assert np.array_equal(pts[0], np.zeros(3))
    assert np.all(pts >= -2.0) and np.all(pts <= 2.0)
    other = sample_points(3, count=10, box=(-2.0, 2.0), seed=10)
    assert not np.array_equal(pts[1:], other[1:])
    no_origin = sample_points(3, count=4, include_origin=False, seed=9)
    assert no_origin.shape == (4, 3)
    assert not np.array_equal(no_origin[0], np.zeros(3))


def test_lower_raise_index_round_trip(rng):
    sig, h, points = build_field_vector(2, 1, seed=13)
    x = points[3]
    lowered = lower_index(h)
    metric = sig.metric()
    vals = h.values(x)
    for mu in range(sig.n):
        assert (lowered[mu].value(x) - vals[mu] * metric[mu]).max_norm() < 1e-14
    raised = raise_index(lowered, sig)
    for mu in range(sig.n):
        assert (raised[mu].value(x) - vals[mu]).max_norm() < 1e-14


def _h_blades(vals):
    """Products of field-vector values, one per blade mask, with its h-grade."""
    sig = vals[0].sig
    blades = []
    for mask in range(sig.dim):
        blade = Multivector.unit(sig)
        for a in range(sig.n):
            if mask & (1 << a):
                blade = geometric_product(blade, vals[a])
        blades.append((bin(mask).count("1"), blade.coeffs))
    return blades


def test_hform_projection_matches_contraction_projection(rng):
    # With the generator field vector, projection through the field copies
    # the plain grade projection. With h^a = S^-1 e^a S for S = exp(vector),
    # whose conjugation mixes grades (a bivector exponent would keep them,
    # and with them the plain projection), it keeps exactly the h-grade-k
    # part of the element's expansion in the h-blade basis.
    for (p, q) in [(2, 0), (2, 1), (2, 2), (3, 2)]:
        sig = Signature(p, q)
        n = sig.n
        table = build_table(n)
        u = random_multivector(sig, rng)
        gens = generator_field_vector(sig).values(np.zeros(n))
        s = exponential(0.3 * random_multivector(sig, rng, grades=(1,), real=True))
        h_at_x = [inverse(s) * e * s for e in gens]
        blades = _h_blades(h_at_x)
        coeffs = np.linalg.solve(np.stack([b for _, b in blades], axis=1), u.coeffs)
        for k in range(table.max_k + 1):
            ref = grade_project(u, k) if sig.n % 2 == 0 else grade_project_paired(u, k)
            assert (project(u, k, gens, table) - ref).max_norm() < 1e-12
            grades = {k, n - k} if n % 2 else {k}
            want = sum(c * b for c, (g, b) in zip(coeffs, blades) if g in grades)
            assert np.abs(project(u, k, h_at_x, table).coeffs - want).max() < 1e-10


def test_hblade_completeness_linear_solve(rng):
    # Products of field-vector values span the algebra: solve for the
    # coefficients of a random element in the h-blade basis and check the
    # reconstruction.
    sig, h, points = build_field_vector(2, 1, seed=17)
    x = points[1]
    vals = h.values(x)
    dim = sig.dim
    cols = []
    for mask in range(dim):
        blade = Multivector.unit(sig)
        for a in range(sig.n):
            if mask & (1 << a):
                blade = geometric_product(blade, vals[a])
        cols.append(blade.coeffs)
    basis = np.stack(cols, axis=1)
    u = random_multivector(sig, rng)
    coeffs = np.linalg.solve(basis, u.coeffs)
    recon = basis @ coeffs
    assert np.abs(recon - u.coeffs).max() < 1e-10


def test_jets_memo_is_mutation_safe(rng):
    sig, h, points = build_field_vector(2, 0, seed=19)
    x = points[0]
    first = h.jets(x, 1)
    snapshot = [j.value.coeffs.copy() for j in first]
    first[0] = first[0].scale(5.0)
    first.append(None)
    second = h.jets(x, 1)
    assert len(second) == sig.n
    for rho in range(sig.n):
        assert np.array_equal(second[rho].value.coeffs, snapshot[rho])


def test_random_frame_validates(rng):
    sig = Signature(3, 1)
    frame = random_frame(sig, rng, scale=0.4)
    for x in sample_points(4, count=4, seed=2):
        frame.validate(x)
