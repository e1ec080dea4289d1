"""Polynomial fields, jets, frames, gauge elements, field vectors."""

import json
import warnings

import numpy as np
import pytest

from clifford_ym import exponential
from clifford_ym.algebra import (
    CliffordError,
    Multivector,
    Signature,
    geometric_product,
    grade_project,
    inverse,
    inverse_rows,
    random_multivector,
    tables,
)
from clifford_ym.contraction import build_table, project
from clifford_ym.fields import (
    ExpField,
    FieldVectorError,
    FiniteDifferenceVector,
    FrameError,
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    GaugeMembershipError,
    PolyField,
    _jet_mul,
    _nrows,
    _scrambled_halton,
    expm,
    fd_jet,
    invert_value_jet,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from clifford_ym.runner import make_frame_field, poly_rows
from conftest import (
    ExplicitFieldVector,
    build_field_vector,
    conjugate,
    generator_field_vector,
    grade_project_paired,
    poly_field,
    poly_partial,
    poly_zero,
)


def test_polynomial_json_round_trip():
    # The config parser reads back the rows of a field written as JSON.
    sig = Signature(3, 0)
    field = poly_field(sig, (0, (1, 0, 2), 2.5 - 1.0j), (0, (0, 0, 0), 4.0))
    text = json.dumps({"monomials": [{"exps": e.tolist(), "coeff": [c.real, c.imag]}
                                     for e, c in zip(field.exps, field.coeffs[:, 0])]})
    exps, coeffs = poly_rows(sig, json.loads(text), "poly")
    assert np.array_equal(exps, field.exps) and np.array_equal(coeffs, field.coeffs)
    on_e12 = PolyField(sig, *poly_rows(sig, json.loads(text), "poly", mask=3))
    assert np.array_equal(on_e12.coeffs[:, 3], field.coeffs[:, 0])
    assert on_e12.grades_present() == (2,)


def test_mvjet_product_rule_matches_finite_differences(rng):
    sig = Signature(2, 1)
    a = random_bivector_poly_field(sig, rng, scale=0.5)
    mv = random_multivector(sig, rng)
    b = PolyField.constant(sig, mv)
    x = np.array([0.2, -0.4, 0.6])
    got = _jet_mul(a.jet(x, 1), b.jet(x, 1), sig)[0]
    ref = fd_jet(lambda y: tables(sig).product(a.value(y), b.value(y)),
                 sig, x, 1, step=1e-4)[0]
    assert np.abs(got[0] - ref[0]).max() < 1e-8
    for mu in range(3):
        assert np.abs(got[1 + mu] - ref[1 + mu]).max() < 1e-6


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2)])
@pytest.mark.parametrize("order", [0, 1])
def test_mvjet_product_rule_matches_pointwise_products(p, q, order, rng):
    sig = Signature(p, q)
    n = sig.n
    rows = _nrows(order, n)

    def draw():
        shape = (3, rows, sig.dim)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = draw(), draw()
    t = tables(sig)
    got = t.to_blades(_jet_mul(t.to_spinor(a), t.to_spinor(b), sig))
    assert got.shape == a.shape

    def gp(u, v):
        return geometric_product(Multivector(sig, u), Multivector(sig, v)).coeffs

    for pt in range(3):
        ja, jb, jg = a[pt], b[pt], got[pt]
        assert np.abs(jg[0] - gp(ja[0], jb[0])).max() < 1e-12
        for mu in range(n if order >= 1 else 0):
            want = gp(ja[1 + mu], jb[0]) + gp(ja[0], jb[1 + mu])
            assert np.abs(jg[1 + mu] - want).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_polyfield_jets_match_polynomial_oracle(n, rng):
    # Exponent-matrix evaluation against a plain loop over the monomials,
    # with repeated exponent rows and an all-zero coefficient row.
    sig = Signature(n, 0)
    terms = [(int(mask), tuple(rng.integers(0, 4, size=n)), complex(*rng.standard_normal(2)))
             for mask in rng.choice(sig.dim, size=4, replace=False) for _ in range(6)]
    terms += [terms[0], (terms[1][0], terms[1][1], -terms[1][2]), (sig.dim - 1, (4,) * n, 0.0)]
    field = poly_field(sig, *terms)
    # Canonical rows: strictly increasing, none all zero.
    assert all(tuple(a) < tuple(b) for a, b in zip(field.exps, field.exps[1:]))
    assert field.coeffs.any(axis=1).all()
    x = rng.uniform(-1.2, 1.2, size=n)
    for order in (0, 1):
        want = np.zeros((_nrows(order, n), sig.dim), dtype=complex)
        for mask, exps, coeff in terms:
            want[0, mask] += coeff * np.prod(x ** np.array(exps))
            for i in range(n if order >= 1 else 0):
                if exps[i]:
                    lowered = np.array(exps) - np.eye(n, dtype=int)[i]
                    want[1 + i, mask] += coeff * exps[i] * np.prod(x ** lowered)
        got = tables(sig).to_blades(field.jet(x, order)[0])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    got = tables(sig).to_blades(field.value(x)[0])
    assert np.abs(got - want[0]).max() <= 1e-13 * np.abs(want[0]).max()
    assert np.abs(poly_zero(sig).jet(x, 1)).max() == 0.0


def test_polyfield_partial_is_exact_derivative(rng):
    sig = Signature(3, 0)
    # A random quadratic generator plus a cube along every axis, as criterion
    # 8 gives each of its fields a cubic term: a central difference is exact
    # on a quadratic.
    quadratic = random_bivector_poly_field(sig, rng, scale=1.0)
    cubic = poly_field(sig, (3, (3, 0, 0), 0.7), (5, (0, 3, 0), -1.1), (6, (0, 0, 3), -1.3))
    f = PolyField(sig, np.concatenate([quadratic.exps, cubic.exps]),
                  np.concatenate([quadratic.coeffs, cubic.coeffs]))
    x = np.array([0.1, 0.5, -0.2])
    for mu in range(3):
        step = 1e-5
        e = np.zeros(3)
        e[mu] = step
        exact = poly_partial(f, mu).value(x)[0]
        approx = (f.value(x + e)[0] - f.value(x - e)[0]) / (2 * step)
        assert np.abs(exact - approx).max() < 1e-8
        assert np.abs(exact - f.jet(x, 1)[0, 1 + mu]).max() < 1e-8


@pytest.mark.parametrize("exps", [[[0.5, 1.9]], [[True, False]], [["1", "0"]],
                                  [[2.0 ** 63, 0.0]], [[2 ** 63, 0]], [[np.nan, 0.0]]])
def test_polyfield_refuses_non_integer_exponents(exps):
    # As poly_rows does for configs: refused, not truncated, cast or parsed.
    sig = Signature(2, 0)
    with pytest.raises(CliffordError, match="exponents must be integers"):
        PolyField(sig, exps, [[1, 0, 0, 0]])
    assert PolyField(sig, [[1.0, 2.0]], [[1, 0, 0, 0]]).exps.tolist() == [[1, 2]]


def test_polyfield_accepts_exponents_up_to_the_int64_maximum():
    # The bound poly_rows documents, 2^63 - 1, which rounds to 2^63 as a float:
    # integer exponents are checked as integers.
    sig = Signature(2, 0)
    top = np.iinfo(np.int64).max
    for exps in ([[top, 0]], np.array([[top, 0]], dtype=np.uint64)):
        assert PolyField(sig, exps, [[1, 0, 0, 0]]).exps.tolist() == [[top, 0]]


def test_expfield_jets_match_finite_differences(rng):
    sig = Signature(3, 0)
    gen = random_bivector_poly_field(sig, rng, scale=0.4)
    s = ExpField(gen)
    x = np.array([0.3, -0.1, 0.2])
    jet = s.jet(x, 1)[0]
    ref = fd_jet(s.value, sig, x, 1, step=1e-4)[0]
    assert np.abs(jet[0] - ref[0]).max() < 1e-10
    for mu in range(3):
        assert np.abs(jet[1 + mu] - ref[1 + mu]).max() < 1e-7


def test_expfield_scalar_series_oracle():
    # exp(t*e12) in Cl(2,0): e12 squares to -1, so the series gives
    # cos(t) + sin(t) e12 and derivatives follow by the chain rule.
    sig = Signature(2, 0)
    s = ExpField(poly_field(sig, (3, (1, 0), 1.0)))
    x = np.array([0.7, 0.0])
    jet = tables(sig).to_blades(s.jet(x, 1)[0])
    assert jet[0, 0] == pytest.approx(np.cos(0.7), abs=1e-13)
    assert jet[0, 3] == pytest.approx(np.sin(0.7), abs=1e-13)
    assert jet[1, 0] == pytest.approx(-np.sin(0.7), abs=1e-12)
    assert jet[1, 3] == pytest.approx(np.cos(0.7), abs=1e-12)
    assert np.abs(jet[2]).max() < 1e-14


def test_invert_value_jet_matches_fd_of_inverse(rng):
    sig = Signature(2, 0)
    gen = random_bivector_poly_field(sig, rng, scale=0.5)
    s = ExpField(gen)
    x = np.array([0.25, -0.6])
    t = tables(sig)
    inv_jet = t.to_blades(invert_value_jet(s.jet(x, 1), sig)[0])
    ref = fd_jet(lambda y: inverse_rows(sig, t.to_blades(s.value(y))), sig, x, 1, step=1e-4)[0]
    assert np.abs(inv_jet[0] - ref[0]).max() < 1e-10
    for mu in range(2):
        assert np.abs(inv_jet[1 + mu] - ref[1 + mu]).max() < 1e-7


def test_frame_identity_and_constant(rng):
    sig = Signature(2, 1)
    ident = FrameField(sig)
    x = np.array([0.1, 0.2, 0.3])
    m = ident.matrix(x)
    assert np.allclose(m, np.eye(3))
    ident.validate(x)

    # A rotation in the 1-2 plane and a boost in the 1-3 plane both
    # preserve the metric diag(1, 1, -1).
    c, s = np.cos(0.4), np.sin(0.4)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    const = FrameField(sig, rot)
    assert np.allclose(const.matrix(x), rot)
    assert const.jets(x, 1)[1] is None  # a constant frame has no derivative jets
    const.validate(x)
    ch, sh = np.cosh(0.3), np.sinh(0.3)
    boost = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    FrameField(sig, boost).validate(x)

    # Matrices that break y eta y^T = eta (or have the wrong shape) are refused.
    with pytest.raises(FrameError):
        FrameField(sig, np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
    with pytest.raises(FrameError):
        FrameField(sig, np.zeros((3, 3)))
    with pytest.raises(FrameError):
        FrameField(sig, np.eye(2))
    # The constructor itself checks, so no frame skips the orthogonality test.
    with pytest.raises(FrameError):
        FrameField(sig, np.eye(3) * 1.1)
    # A constant frame takes no parameter, and a rotation needs one.
    with pytest.raises(FrameError, match="takes no rotation parameter"):
        FrameField(sig, rot, poly=poly_field(sig, (0, (1, 0, 0), 1)))
    with pytest.raises(FrameError):
        FrameField(sig, rot, generator=np.zeros((3, 3)))
    with pytest.raises(FrameError):
        FrameField(sig, rot, generator=np.eye(3), poly=poly_field(sig, (0, (1, 0, 0), 1)))
    spin = np.zeros((3, 3))
    spin[0, 1], spin[1, 0] = 1.0, -1.0
    # The parameter must be a real scalar field over the frame's algebra.
    for poly in (poly_field(sig, (0, (1, 0, 0), 1j)), poly_field(sig, (1, (1, 0, 0), 1)),
                 poly_field(Signature(3, 0), (0, (1, 0, 0), 1)), None):
        with pytest.raises(FrameError):
            FrameField(sig, rot, generator=spin, poly=poly)


def test_frame_rotation_jets_match_fd(rng):
    sig = Signature(3, 0)
    theta = poly_field(sig, (0, (1, 0, 0), 0.5))
    gen = np.zeros((3, 3))
    gen[0, 1], gen[1, 0] = 1.0, -1.0
    frame = FrameField(sig, generator=gen, poly=theta)
    x = np.array([0.4, -0.2, 0.1])
    frame.validate(x)
    jets = frame.jets(x, 1)
    step = 1e-4
    for mu in range(3):
        e = np.zeros(3)
        e[mu] = step
        fd = (frame.matrix(x + e)[0] - frame.matrix(x - e)[0]) / (2 * step)
        assert np.abs(jets[1][0, mu] - fd).max() < 1e-7


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
    t = tables(sig)
    ident = make_gauge_element(poly_zero(sig))
    x = np.array([0.1, -0.3, 0.2])
    assert np.abs(t.to_blades(ident.values(x)[0]) - Multivector.unit(sig).coeffs).max() == 0.0
    u = random_multivector(sig, rng)
    su = t.to_spinor(u.coeffs)
    assert np.abs(t.to_blades(conjugate(ident, su, x)[0]) - u.coeffs).max() < 1e-14
    assert np.abs(ident.connection(x)).max() < 1e-14

    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    s = Multivector(sig, t.to_blades(gauge.values(x)[0]))
    sinv = Multivector(sig, t.to_blades(gauge.inv_jets(x, 0)[0, 0]))
    assert (geometric_product(s, sinv) - Multivector.unit(sig)).max_norm() < 1e-12
    got = t.to_blades(conjugate(gauge, su, x)[0])
    ref = geometric_product(geometric_product(sinv, u), s)
    assert np.abs(got - ref.coeffs).max() < 1e-12


def test_gauge_connection_matches_fd(rng):
    # connection(x)[p, mu] is S^-1 d_mu S.
    sig = Signature(2, 0)
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.4))
    x = np.array([0.3, 0.6])
    t = tables(sig)
    conn = t.to_blades(gauge.connection(x)[0])
    step = 1e-5
    for mu in range(2):
        e = np.zeros(2)
        e[mu] = step
        ds = t.to_blades(gauge.values(x + e)[0] - gauge.values(x - e)[0]) / (2 * step)
        s = Multivector(sig, t.to_blades(gauge.values(x)[0]))
        ref = geometric_product(inverse(s), Multivector(sig, ds))
        assert np.abs(conn[mu] - ref.coeffs).max() < 1e-9


def test_gauge_inverse_round_trip(rng):
    # exp(-A) undoes the conjugation by exp(A).
    sig = Signature(3, 0)
    gen = random_bivector_poly_field(sig, rng, scale=0.3)
    gauge = make_gauge_element(gen)
    inv = make_gauge_element(PolyField(sig, gen.exps, -gen.coeffs))
    x = np.array([0.2, 0.4, -0.1])
    u = random_multivector(sig, rng)
    back = conjugate(inv, conjugate(gauge, u.coeffs, x), x)[0]
    assert np.abs(back - u.coeffs).max() < 1e-11


@pytest.mark.parametrize("p,q", [(2, 0), (2, 1), (3, 2), (4, 3)])
def test_reversed_gauge_jet_is_the_inverse_jet(p, q, rng):
    # For S = exp(B), B a bivector, S^-1 is the reversion of S: its jet must
    # match the exp(-B) series and the inverse-jet formula.
    sig = Signature(p, q)
    gen = random_bivector_poly_field(sig, rng, scale=0.3)
    gauge = make_gauge_element(gen)
    assert gauge.bivector_exp
    x = rng.uniform(-1.0, 1.0, size=sig.n)
    t = tables(sig)
    got = gauge.inv_jets(x, 1)
    minus = PolyField(sig, gen.exps, -gen.coeffs)
    for want in (ExpField(minus).jet(x, 1), invert_value_jet(gauge.jets(x, 1), sig)):
        assert np.abs(t.to_blades(got - want)).max() < 1e-12
    want = inverse_rows(sig, t.to_blades(gauge.values(x)))
    assert np.abs(t.to_blades(gauge.inv_jets(x, 0)[:, 0]) - want).max() < 1e-12
    assert np.array_equal(gauge.inv_jets(x, 0), got[:, :1])


def test_non_bivector_gauge_inverts_by_formula(rng):
    # exp(vector) and exp(scalar) are not exp(bivector): no reversion shortcut.
    sig = Signature(2, 1)
    x = np.array([0.3, -0.2, 0.5])
    gens = [poly_field(sig, (1, (1, 0, 0), 0.4), (2, (0, 0, 0), 0.3)),
            poly_field(sig, (0, (0, 1, 0), 1.0)),
            poly_field(sig, (3, (0, 0, 1), 1.0), (5, (0, 0, 0), 0.2))]
    t = tables(sig)
    for gen, qualifies in zip(gens, (False, False, True)):
        gauge = GaugeElement(ExpField(gen))
        assert gauge.bivector_exp is qualifies
        want = inverse_rows(sig, t.to_blades(gauge.values(x)))
        assert np.abs(t.to_blades(gauge.inv_jets(x, 0)[:, 0]) - want).max() < 1e-12
        want = invert_value_jet(gauge.jets(x, 1), sig)
        assert np.abs(t.to_blades(gauge.inv_jets(x, 1) - want)).max() < 1e-12
    # A field that is not an exponential takes the formula too.
    assert not GaugeElement(PolyField.constant(sig, Multivector.unit(sig))).bivector_exp
    assert make_gauge_element(poly_zero(sig)).bivector_exp


def test_gauge_membership_enforced(rng):
    sig = Signature(2, 1)
    # A generator with a grade-1 part is outside the bivector family.
    bad = poly_field(sig, (1, (0, 0, 0), 0.5))
    with pytest.raises(GaugeMembershipError):
        make_gauge_element(bad)

    # A generator that is not a PolyField is refused, whatever its grades.
    good = poly_field(sig, (3, (1, 0, 0), 1.0))
    with pytest.raises(CliffordError, match="PolyField"):
        make_gauge_element(ExpField(good))
    pts = sample_points(3, count=5)
    assert make_gauge_element(good).validate_membership(pts) < 1e-9


def test_field_vector_values_match_direct_conjugation(rng):
    sig, h, points = build_field_vector(2, 1, seed=7)
    x = points[1]
    t = tables(sig)
    vals = t.to_blades(h.values(x)[0])
    # Re-derive by conjugating the frame vectors explicitly.
    mats = h.frame.matrix(x)[0]
    gens = [Multivector.generator(sig, a) for a in range(1, sig.n + 1)]
    for rho in range(sig.n):
        vec = Multivector.zero(sig)
        for a in range(sig.n):
            vec = vec + gens[a] * mats[rho, a]
        ref = t.to_blades(conjugate(h.gauge, t.to_spinor(vec.coeffs), x)[0])
        assert np.abs(vals[rho] - ref).max() < 1e-12


def test_field_vector_jets_match_fd(rng):
    sig, h, points = build_field_vector(2, 0, seed=3)
    x = points[2]
    jets = h.jets(x, 1)[0]
    step = 1e-5
    for rho in range(sig.n):
        for mu in range(sig.n):
            e = np.zeros(sig.n)
            e[mu] = step
            fd = (h.values(x + e)[0, rho] - h.values(x - e)[0, rho]) / (2 * step)
            assert np.abs(jets[rho, 1 + mu] - fd).max() < 1e-8


def test_identity_everything_gives_generators():
    sig = Signature(2, 2)
    h = FrameGaugeFieldVector(FrameField(sig), make_gauge_element(poly_zero(sig)))
    x = np.zeros(4)
    vals = tables(sig).to_blades(h.values(x)[0])
    for a in range(sig.n):
        assert np.abs(vals[a] - Multivector.generator(sig, a + 1).coeffs).max() == 0.0


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

    # No point is no certificate: each validator refuses an empty point set.
    for validate in (h.frame.validate, h.validate, h.gauge.validate_membership):
        with pytest.raises(CliffordError, match="no point to check"):
            validate(points[:0])


def test_finite_difference_vector_tracks_exact(rng):
    sig, h, points = build_field_vector(2, 0, seed=5)
    fd = FiniteDifferenceVector(h)
    x = points[0]
    exact = h.jets(x, 1)[0]
    approx = fd.jets(x, 1)[0]
    n = sig.n
    for rho in range(n):
        assert np.abs(exact[rho, 0] - approx[rho, 0]).max() < 1e-12
        for mu in range(n):
            assert np.abs(exact[rho, 1 + mu] - approx[rho, 1 + mu]).max() < 1e-8


def _bivector_rows_term_by_term(sig, rng, scale=0.25):
    """random_bivector_poly_field's rows, its terms drawn one rng.uniform call
    at a time and its rows sorted here."""
    n = sig.n
    masks = [m for m in range(sig.dim) if int(tables(sig).grades[m]) == 2]
    amp = scale / max(1.0, np.sqrt(len(masks)))
    terms = {}
    for mask in masks:
        terms[(0,) * n, mask] = rng.uniform(-amp, amp)
        for mu in range(n):
            exps = [0] * n
            exps[mu] = 1
            terms[tuple(exps), mask] = rng.uniform(-amp, amp)
        for i in range(n):
            for j in range(i, n):
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps), mask] = rng.uniform(-amp, amp) * 0.5
    monos = sorted({exps for exps, _ in terms})
    coeffs = np.zeros((len(monos), sig.dim), dtype=complex)
    for (exps, mask), value in terms.items():
        coeffs[monos.index(exps), mask] = value
    return np.array(monos), coeffs


@pytest.mark.parametrize("p,q", [(2, 0), (3, 2), (4, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bivector_field_matches_term_by_term_draws(p, q, seed):
    # One uniform draw for every term consumes the stream in the same order.
    sig = Signature(p, q)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    field = random_bivector_poly_field(sig, ours)
    exps, coeffs = _bivector_rows_term_by_term(sig, theirs)
    assert np.array_equal(field.exps, exps) and np.array_equal(field.coeffs, coeffs)
    assert ours.uniform() == theirs.uniform()


def test_sample_points_shape_and_determinism():
    pts = sample_points(3, count=10, box=(-2.0, 2.0), seed=9)
    again = sample_points(3, count=10, box=(-2.0, 2.0), seed=9)
    assert pts.shape == (11, 3)
    assert np.array_equal(pts, again)
    assert np.array_equal(pts[0], np.zeros(3))
    assert np.all(pts >= -2.0) and np.all(pts <= 2.0)
    other = sample_points(3, count=10, box=(-2.0, 2.0), seed=10)
    assert not np.array_equal(pts[1:], other[1:])
    no_origin = sample_points(3, count=4, seed=9)[1:]
    assert no_origin.shape == (4, 3)
    assert not np.array_equal(no_origin[0], np.zeros(3))


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
        vals = tables(sig).to_blades(generator_field_vector(sig).values(np.zeros(n))[0])
        gens = [Multivector(sig, r) for r in vals]
        s = exponential(0.3 * random_multivector(sig, rng, grades=(1,), real=True))
        h_at_x = [inverse(s) * e * s for e in gens]
        blades = _h_blades(h_at_x)
        coeffs = np.linalg.solve(np.stack([b for _, b in blades], axis=1), u.coeffs)
        for k in range(table.max_k + 1):
            ref = grade_project(u, k) if sig.n % 2 == 0 else grade_project_paired(u, k)
            assert (project(u, k, gens) - ref).max_norm() < 1e-12
            grades = {k, n - k} if n % 2 else {k}
            want = sum(c * b for c, (g, b) in zip(coeffs, blades) if g in grades)
            assert np.abs(project(u, k, h_at_x).coeffs - want).max() < 1e-10


def test_hblade_completeness_linear_solve(rng):
    # Products of field-vector values span the algebra: solve for the
    # coefficients of a random element in the h-blade basis and check the
    # reconstruction.
    sig, h, points = build_field_vector(2, 1, seed=17)
    x = points[1]
    vals = [Multivector(sig, r) for r in tables(sig).to_blades(h.values(x)[0])]
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
    # The cached jet stack is read-only: a caller cannot change it through
    # the array it was handed.
    sig, h, points = build_field_vector(2, 0, seed=19)
    first = h.jets(points, 1)
    snapshot = first.copy()
    with pytest.raises(ValueError):
        first[0, 0, 0, 0] = 5.0
    second = h.jets(points, 1)
    assert second.shape == (len(points), sig.n, 1 + sig.n, sig.dim)
    assert np.array_equal(second, snapshot)


@pytest.mark.parametrize("order", [2, 3, -1])
def test_jets_beyond_first_order_fail_closed(order, rng):
    # First order is the highest jet order: every field, gauge element,
    # field vector and frame refuses any other with a CliffordError, never
    # an IndexError or KeyError, and before it caches anything.
    sig, h, points = build_field_vector(2, 1, seed=23)
    x = points[:2]
    gen = random_bivector_poly_field(sig, rng, scale=0.3)
    gauge = make_gauge_element(gen)
    theta = poly_field(sig, (0, (1, 0, 0), 0.5))
    spin = np.zeros((3, 3))
    spin[0, 1], spin[1, 0] = 1.0, -1.0
    field_jets = [gen.jet, ExpField(gen).jet, gauge.jets, gauge.inv_jets,
                  lambda y, k: fd_jet(gen.value, sig, y, k, 1e-5)]
    vector_jets = [h.jets, FiniteDifferenceVector(h).jets,
                   ExplicitFieldVector([PolyField.constant(sig, Multivector.generator(sig, a))
                                        for a in (1, 2, 3)]).jets]
    frame_jets = [FrameField(sig).jets, random_frame(sig, rng).jets,
                  FrameField(sig, generator=spin, poly=theta).jets]
    for jet in field_jets + vector_jets + frame_jets:
        with pytest.raises(CliffordError, match="jet order must be 0 or 1"):
            jet(x, order)
    # The refusals left no entry behind: first-order jets still come out.
    assert h.jets(x, 1).shape == (2, sig.n, 1 + sig.n, sig.dim)
    assert gauge.jets(x, 1).shape == (2, 1 + sig.n, sig.dim)


GOLDEN_POINTS = {
    (3, 9, (-2.0, 2.0)): [
        ["-0x1.7080355694d00p-4", "0x1.be16c6c966ea0p-2", "-0x1.675efe2c03666p-1"],
        ["0x1.e8f7fcaa96b30p+0", "-0x1.cb9f4745f7368p-1", "-0x1.807c4be2ce7ffp+0"],
        ["-0x1.17080355694d0p+0", "0x1.c4db0707af0fcp+0", "0x1.b2b6e75064b34p+0"],
        ["0x1.d1eff9552d660p-1", "-0x1.d0221cc4d1fb4p-2", "0x1.91d4db6cb19a0p-4"],
    ],
    (7, 23, (-1.0, 1.0)): [
        ["0x1.db965aa47a318p-3", "-0x1.99ec405491b88p-1", "-0x1.a1d955df3e2a8p-3",
         "-0x1.712dc61cd9216p-1", "0x1.9add128e81abep-1", "0x1.ea0cc55b73e00p-7",
         "0x1.e94a91edb5b68p-3"],
        ["-0x1.891a6956e173ap-1", "-0x1.125babfcf18d4p-3", "0x1.31234421ca0eep-1",
         "0x1.16b69e6809310p-3", "-0x1.275d20b471064p-2", "-0x1.1c72e4e55c72cp-3",
         "-0x1.65b511637f7fcp-2"],
        ["0x1.76e596a91e8c6p-1", "0x1.10be6a5618f24p-1", "-0x1.354322449c579p-1",
         "-0x1.326df3e11b618p-3", "-0x1.4ddd1bfd213d4p-1", "-0x1.c94d23adc1eaap-2",
         "0x1.e3bc0de4d6d70p-1"],
    ],
}


@pytest.mark.parametrize("n,seed,box", list(GOLDEN_POINTS), ids=lambda v: str(v))
def test_sample_points_golden_bits(n, seed, box):
    rows = GOLDEN_POINTS[(n, seed, box)]
    expected = np.array([[float.fromhex(v) for v in row] for row in rows])
    got = sample_points(n, count=len(rows), box=box, seed=seed)
    assert np.array_equal(got[0], np.zeros(n))
    assert np.array_equal(got[1:], expected)
    # A longer draw extends the sequence without touching its first points.
    longer = sample_points(n, count=len(rows) + 5, box=box, seed=seed)[1:]
    assert np.array_equal(longer[:len(rows)], expected)


# First and last rows of _scrambled_halton(d, count, seed), written by the
# digit-by-digit loop that the per-base vectorized digits replaced: base 2
# (53 digit positions) up to base 29 (11), the tenth prime.
GOLDEN_HALTON = {
    (2, 5, 0): [["0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5"],
                ["0x1.cb005c1765ca4p-3", "0x1.a9d379362755bp-1"]],
    (5, 4, 3): [["0x1.159b239d68260p-1", "0x1.1ae6f51e1eaa5p-3", "0x1.97ba17429ccdep-1",
                 "0x1.b0f977e54ba28p-1", "0x1.189429ec1be55p-4"],
                ["0x1.2b36473ad04c0p-2", "0x1.fe752e01ace33p-3", "0x1.3153b0dc36677p-1",
                 "0x1.1eb05353027dfp-1", "0x1.0053961defb36p-2"]],
    (10, 3, 401): [["0x1.e41cdcacc1976p-1", "0x1.29b628152f7d7p-1", "0x1.653a766f8d0bdp-2",
                    "0x1.e3652aab367a6p-2", "0x1.85f2457377b01p-3", "0x1.1a67d959f96aap-2",
                    "0x1.476cbcbebc617p-5", "0x1.c923a11133666p-1", "0x1.17742780cdabfp-3",
                    "0x1.63de40a4c67d7p-1"],
                   ["0x1.641cdcacc1976p-1", "0x1.d460d2bfda281p-1", "0x1.1903a19e2cec7p-1",
                    "0x1.7da5c30d4862ap-3", "0x1.78c262d13b035p-1", "0x1.efaa140f72dccp-1",
                    "0x1.ce933d3d7d31cp-2", "0x1.ab4b25f3f605bp-3", "0x1.50fe6e0cb8fbbp-1",
                    "0x1.98d56cc815f03p-1"]],
}


@pytest.mark.parametrize("d,count,seed", list(GOLDEN_HALTON), ids=lambda v: str(v))
def test_scrambled_halton_golden_bits(d, count, seed):
    got = _scrambled_halton(d, count, seed)
    assert got.shape == (count, d)
    first, last = ([float.fromhex(v) for v in row] for row in GOLDEN_HALTON[(d, count, seed)])
    assert np.array_equal(got[0], first)
    assert np.array_equal(got[-1], last)
    assert _scrambled_halton(d, 0, seed).shape == (0, d)


def test_expm_closed_forms_across_scalings():
    # exp of a plane rotation generator is (cos, sin), of a boost (cosh, sinh);
    # the angles take from none to four squarings.
    for t in (1e-3, 0.1, 0.5, 1.5, 4.0, 12.0):
        c, s, ch, sh = np.cos(t), np.sin(t), np.cosh(t), np.sinh(t)
        for gen, ref in (([[0.0, -t], [t, 0.0]], [[c, -s], [s, c]]),
                         ([[0.0, t], [t, 0.0]], [[ch, sh], [sh, ch]])):
            ref = np.array(ref)
            assert np.max(np.abs(expm(gen) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_expm_identities(rng):
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))
    # A nilpotent matrix has a terminating series.
    assert np.array_equal(expm([[0.0, 2.0], [0.0, 0.0]]), [[1.0, 2.0], [0.0, 1.0]])
    for n in range(2, 8):
        a = rng.standard_normal((n, n)) * 0.8
        assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(n))) < 1e-13
        d = rng.standard_normal(n)
        assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)
    assert np.isnan(expm([[np.inf, 0.0], [0.0, 0.0]])).all()
    # A huge angle neither raises nor warns, and its matrix is no frame.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = expm([[0.0, 1e300], [-1e300, 0.0]])
    with pytest.raises(FrameError):
        FrameField(Signature(2, 0), huge)


def test_expm_of_a_stack_is_the_expm_of_each_member(rng):
    # Each member takes its own scaling, so mixing norms from 0 to 50
    # changes no bit of any member.
    stack = [np.zeros((3, 3))] + [rng.standard_normal((3, 3)) * scale
                                  for scale in (1e-3, 0.1, 0.6, 2.0, 9.0, 50.0)]
    got = expm(np.array(stack))
    for k, a in enumerate(stack):
        assert np.array_equal(got[k], expm(a)), k
    # ExpField's jets take the same per-point scaling: at gauge scale 3 the
    # points need from 4 to 7 squarings, and each gets its one-point jets.
    sig = Signature(3, 2)
    gen = random_bivector_poly_field(sig, np.random.default_rng(5), scale=3.0)
    x = sample_points(sig.n, count=8, box=(-2.0, 2.0), seed=1)
    blocks = np.abs(gen.jet(x, 0)[:, 0].reshape((len(x),) + tables(sig).block_shape))
    assert len(set(np.ceil(np.log2(4 * blocks.sum(axis=-1).max(axis=(1, 2)))))) >= 3
    got = ExpField(gen).jet(x, 1)
    for k in range(len(x)):
        assert np.array_equal(got[k], ExpField(gen).jet(x[k], 1)[0]), k


def test_random_frame_validates(rng):
    sig = Signature(3, 1)
    frame = random_frame(sig, rng, scale=0.4)
    for x in sample_points(4, count=4, seed=2):
        frame.validate(x)
