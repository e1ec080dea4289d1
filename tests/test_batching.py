"""Batched jets and residuals against one-point batches, and jets computed
once per point set.

Every jet and residual carries a leading point axis. Row p of a batch must
be what the one-point batch [x_p] gives, for every field-vector and
covector kind, on a set of more than 128 points and on a Cl(4,3) set, the
widest jet stack per point of the two.
"""

import numpy as np
import pytest

from clifford_ym import algebra, fields, primitive, runner, yang_mills
from clifford_ym.algebra import Signature, random_multivector
from clifford_ym.fields import (
    ExpField,
    FiniteDifferenceVector,
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    PolyField,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from clifford_ym.primitive import (
    DerivedConnection,
    TransformedConnection,
    TransformedFieldVector,
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
from conftest import ExplicitFieldVector, OffsetCovector, ZeroCovector

REL = 1e-14


def _field_vectors(sig, rng):
    n = sig.n
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    check = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
    spin = np.zeros((n, n))
    spin[0, 1], spin[1, 0] = 1.0, -1.0
    exps = np.zeros((2, n), dtype=np.int64)
    exps[0, 0], exps[1, 1] = 1, 2
    coeffs = np.zeros((2, sig.dim))
    coeffs[:, 0] = 0.5, 0.3
    theta = PolyField(sig, exps, coeffs)  # 0.5 x^1 + 0.3 (x^2)^2
    frames = {"identity": FrameField(sig), "constant": random_frame(sig, rng),
              "rotation": FrameField(sig, generator=spin, poly=theta)}
    vectors = {f"frame-{kind}": FrameGaugeFieldVector(f, gauge) for kind, f in frames.items()}
    base = vectors["frame-constant"]
    vectors["transformed"] = TransformedFieldVector(base, check)
    vectors["explicit"] = ExplicitFieldVector(
        [random_bivector_poly_field(sig, rng, scale=0.5) for _ in range(n)])
    vectors["finite-difference"] = FiniteDifferenceVector(base)
    return vectors, base, check


def _covectors(sig, h, check, rng):
    derived = DerivedConnection(h)
    bump = PolyField.constant(sig, 0.05 * random_multivector(sig, rng, grades=(1, 2), real=True))
    return {
        "derived": derived,
        "offset": OffsetCovector(derived, {0: bump}),
        "transformed": TransformedConnection(derived, check),
        "zero": ZeroCovector(sig),
        "potential": YMSolution(h, derived, 0.7 - 0.2j),
    }


def _evaluate(sig, vectors, h, covectors, points):
    """Every jet and residual on one point set, always in the same order.

    The objects keep jets for one point set, so the one-point batches go
    through the same sequence of requests as the whole set did.
    """
    sol = YMSolution(h, covectors["offset"], 0.8 - 0.3j)
    wrong = YMSolution(sol.h, sol.c, sol.sigma, sol.epsilon + 1.0)
    out = {}
    for name, vec in vectors.items():
        out[f"{name} jets"] = np.array(vec.jets(points, 1))
    for name, cov in covectors.items():
        out[f"{name} covector jets"] = np.array(cov.jets(points, 0 if name == "zero" else 1))
        out[f"{name} primitive"] = primitive_residual(h, cov, points)
        out[f"{name} curvature"] = curvature_residual(cov, points)
    out["eq1"] = eq1_residual(sol, points)
    out["eq2"] = eq2_residual(wrong, points)
    out["conservation"] = conservation_residual(wrong, points)
    out["G"] = sol.g_upper(points)
    out["double commutator"] = double_commutator_check(h, points)
    return out


def _check_point_axis(sig, points, rows):
    rng = np.random.default_rng(20261018)
    vectors, h, check = _field_vectors(sig, rng)
    covectors = _covectors(sig, h, check, rng)
    batched = _evaluate(sig, vectors, h, covectors, points)
    for p in rows:
        single = _evaluate(sig, vectors, h, covectors, points[p:p + 1])
        for what, full in batched.items():
            assert len(full) == len(points), what
            scale = max(np.abs(single[what]).max(), 1.0)
            dev = np.abs(full[p] - single[what][0]).max()
            assert dev <= REL * scale, f"{what}, point {p}: {dev:.3e}"


def test_point_axis_rows_match_one_point_batches_past_128_points():
    points = sample_points(2, count=129, seed=5)
    assert len(points) == 130
    _check_point_axis(Signature(2, 0), points, rows=(0, 1, 2, 64, 127, 128, 129))


def test_point_axis_rows_match_one_point_batches_at_n7():
    # One point's field-vector jets hold 7 x 8 x 128 entries here, the
    # widest per-point stack this module checks.
    sig = Signature(4, 3)
    points = sample_points(7, count=2, seed=6)
    _check_point_axis(sig, points, rows=range(len(points)))


@pytest.mark.parametrize("p,q,mode", [(2, 0, "exact"), (3, 2, "exact"), (4, 3, "exact"),
                                     (3, 2, "fd")])
def test_a_report_on_fewer_points_is_a_prefix_of_one_on_more(p, q, mode):
    # A point's entries do not depend on the batch it is computed in, and
    # the conjugation check reads the first three points of any batch.
    reports = []
    for count in (6, 16):
        report, code = runner.run_verify(runner.parse_config({
            "signature": {"p": p, "q": q}, "frame": {"kind": "random"},
            "gauge": {"kind": "random", "scale": 0.3},
            "samples": {"count": count}, "seed": 7, "mode": mode,
        }))
        assert code == 0 and report["pass"]
        reports.append(report)
    small, large = reports
    assert small["per_point"] == large["per_point"][:7]
    assert small["gauge_check"]["conjugation_max"] == large["gauge_check"]["conjugation_max"]


def _count_computes(monkeypatch):
    """Record every jet computation during a run, by the object that made it."""
    calls = []

    def recorder(cls, attr, label):
        original = getattr(cls, attr)

        def counted(self, x, order, *args):
            calls.append((label, id(self), np.asarray(x).shape, order))
            return original(self, x, order, *args)
        monkeypatch.setattr(cls, attr, counted)

    recorder(fields.ExpField, "jet", "exp")
    recorder(fields.FrameGaugeFieldVector, "_compute_jets", "h")
    recorder(primitive.TransformedFieldVector, "_compute_jets", "transformed h")
    derive = primitive.compute_C_jets

    def counted_c(hjets, *args, **kwargs):
        calls.append(("C", None, hjets.shape[:1], None))
        return derive(hjets, *args, **kwargs)
    monkeypatch.setattr(primitive, "compute_C_jets", counted_c)
    return calls


@pytest.mark.parametrize("count", [16, 129])
def test_jets_computed_once_per_point_set(count, monkeypatch):
    cfg = runner.parse_config({
        "signature": {"p": 2, "q": 0}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": count}, "seed": 9,
    })
    calls = _count_computes(monkeypatch)
    report, code = runner.run_verify(cfg)
    assert code == 0 and report["pass"]
    by_label = {}
    for label, obj, shape, order in calls:
        assert shape[0] == count + 1, (label, shape)
        by_label.setdefault(label, []).append((obj, order))

    def derivative_computes(label):
        return [obj for obj, order in by_label[label] if order != 0]

    # Jets with derivatives: once each for h, the gauge check's transformed
    # h and the derived connection. h.validate reads the value rows of the
    # first-order jets at set-up, so h is evaluated once, at first order.
    assert len(derivative_computes("h")) == 1
    assert [order for _, order in by_label["h"]] == [1]
    assert len(derivative_computes("transformed h")) == 1
    assert len(by_label["C"]) == 1
    # The run's gauge and the check gauge: one first-order jet series each,
    # whatever the number of points, and no series of values alone.
    exp_objects = {obj for obj, _ in by_label["exp"]}
    assert len(exp_objects) == 2
    assert len(derivative_computes("exp")) == 2
    assert len(set(derivative_computes("exp"))) == 2
    assert len(by_label["exp"]) == 2


def _verify_config(count):
    return runner.parse_config({
        "signature": {"p": 2, "q": 0}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": count}, "seed": 9,
    })


def test_basis_conversions_do_not_grow_with_the_points(monkeypatch):
    # Fields convert blade coefficients once per evaluation and residuals
    # once per array, so a run converts as often at 130 points as at 17.
    algebra.tables(algebra.Signature(2, 0))
    calls = []
    for name in ("to_spinor", "to_blades"):
        def counted(self, u, original=getattr(algebra._Tables, name), name=name):
            calls.append(name)
            return original(self, u)
        monkeypatch.setattr(algebra._Tables, name, counted)
    counts = []
    for count in (16, 129):
        calls.clear()
        report, code = runner.run_verify(_verify_config(count))
        assert code == 0 and report["pass"]
        counts.append((calls.count("to_spinor"), calls.count("to_blades")))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0


def test_field_grids_built_once_per_solution_and_point_set(monkeypatch):
    calls = []
    original = yang_mills._field_grids

    def counted(sol, x):
        calls.append(id(sol))
        return original(sol, x)
    monkeypatch.setattr(yang_mills, "_field_grids", counted)
    report, code = runner.run_verify(_verify_config(16))
    assert code == 0 and report["pass"]
    # The run's solution (eq1, eq2 and the eps solve) and the gauge check's
    # transformed one: G and the flux once each.
    assert len(calls) == 2 and len(set(calls)) == 2


def test_field_grids_do_not_depend_on_call_order():
    case = runner.build_case(_verify_config(4))
    points = case["points"]
    first = YMSolution(case["h"], case["conn"], 0.7 - 0.2j)
    second = YMSolution(case["h"], case["conn"], 0.7 - 0.2j)
    g = first.g_upper(points)
    eq2 = eq2_residual(first, points)
    assert np.array_equal(eq2_residual(second, points), eq2)
    assert np.array_equal(second.g_upper(points), g)
    assert not g.flags.writeable


def _objects(sig, seed):
    """Every field and covector type a config reaches, all built afresh."""
    rng = np.random.default_rng(seed)
    n = sig.n
    gen = random_bivector_poly_field(sig, rng, scale=0.3)
    gauge = make_gauge_element(gen)
    check = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
    linear = np.zeros((n, sig.dim))
    linear[np.arange(n), 1 << np.arange(n)] = rng.uniform(-0.2, 0.2, n)
    h = FrameGaugeFieldVector(random_frame(sig, rng), gauge)
    derived = DerivedConnection(h)
    bump = PolyField.constant(sig, 0.05 * random_multivector(sig, rng, grades=(1, 2), real=True))
    return {
        "PolyField": gen,
        "ExpField": ExpField(gen),
        "GaugeElement, exp(bivector)": gauge,
        "GaugeElement, exp(vector)": GaugeElement(
            ExpField(PolyField(sig, np.eye(n, dtype=np.int64), linear))),
        "FrameGaugeFieldVector": h,
        "FiniteDifferenceVector": FiniteDifferenceVector(h),
        "TransformedFieldVector": TransformedFieldVector(h, check),
        "DerivedConnection": derived,
        "YMSolution": YMSolution(h, derived, 0.7 - 0.2j),
        "TransformedConnection": TransformedConnection(derived, check),
        "OffsetCovector": OffsetCovector(derived, {0: bump}),
    }


def _values(obj, x, order):
    """The values of obj at x, read from a request of the given order."""
    if isinstance(obj, GaugeElement):
        return obj.jets(x, order)[:, 0], obj.inv_jets(x, order)[:, 0]
    if hasattr(obj, "jets"):
        return (obj.jets(x, order)[:, :, 0],)
    return (obj.jet(x, order)[:, 0],)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("p,q", [(2, 0), (3, 2), (4, 3)])
def test_values_do_not_depend_on_the_order_asked_first(p, q, seed):
    # A cold request for values and the value rows of a cold first-order
    # request, each on its own fresh objects, agree bit for bit. So does the
    # derived slot of each class that declares one, whether values,
    # first-order jets or the slot itself was asked for first.
    sig = Signature(p, q)
    x = sample_points(sig.n, count=4, seed=seed)
    derived = set()
    for name, obj in _objects(sig, seed).items():
        alone = _values(_objects(sig, seed)[name], x, 0)
        with_gradient = _values(_objects(sig, seed)[name], x, 1)
        for a, b in zip(alone, with_gradient):
            assert np.array_equal(a, b), f"{name}: {np.abs(a - b).max():.3e}"
        if not hasattr(obj, "_derive"):
            continue
        derived.add(name)
        slots = []
        for first in (lambda o: o.values(x), lambda o: o.jets(x, 1), lambda o: o.derived(x)):
            fresh = _objects(sig, seed)[name]
            first(fresh)
            slot = fresh.derived(x)
            slots.append(slot if isinstance(slot, tuple) else (slot,))
        for slot in slots[1:]:
            for a, b in zip(slots[0], slot):
                assert np.array_equal(a, b), f"{name} derived: {np.abs(a - b).max():.3e}"
    assert {"FrameGaugeFieldVector", "DerivedConnection", "YMSolution"} <= derived
