"""Batched jets and residuals against one-point batches, and jets computed
once per point set.

Every jet and residual carries a leading point axis. Row p of a batch must
be what the one-point batch [x_p] gives, for every field-vector and
covector kind, on a set of more than 128 points and on a Cl(4,3) set whose
points fall into different chunks of the gather budget.
"""

import numpy as np
import pytest

from clifford_ym import fields, primitive, runner
from clifford_ym.algebra import Multivector, Signature, random_multivector
from clifford_ym.fields import (
    CallableField,
    ExplicitFieldVector,
    FiniteDifferenceVector,
    FrameField,
    FrameGaugeFieldVector,
    PolyField,
    Polynomial,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from clifford_ym.primitive import (
    DerivedConnection,
    OffsetCovector,
    TransformedConnection,
    TransformedFieldVector,
    ZeroCovector,
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

REL = 1e-14


def _callable_vector(sig):
    """A field vector whose components are closures, one point at a time."""
    n = sig.n
    e12 = Multivector.blade(sig, (1, 2))

    def component(a):
        gen = Multivector.generator(sig, a + 1)
        return CallableField(sig, lambda x: gen * np.cos(x[a]) + e12 * (x[0] * x[a % n]))

    return ExplicitFieldVector([component(a) for a in range(n)])


def _field_vectors(sig, rng):
    n = sig.n
    gauge = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.3))
    check = make_gauge_element(random_bivector_poly_field(sig, rng, scale=0.25))
    spin = np.zeros((n, n))
    spin[0, 1], spin[1, 0] = 1.0, -1.0
    theta = Polynomial(n, {(1,) + (0,) * (n - 1): 0.5, (0, 2) + (0,) * (n - 2): 0.3})
    frames = {"identity": FrameField.identity(sig), "constant": random_frame(sig, rng),
              "rotation": FrameField.rotation(sig, theta, spin)}
    vectors = {f"frame-{kind}": FrameGaugeFieldVector(f, gauge) for kind, f in frames.items()}
    base = vectors["frame-constant"]
    vectors["transformed"] = TransformedFieldVector(base, check)
    vectors["explicit"] = ExplicitFieldVector(
        [random_bivector_poly_field(sig, rng, scale=0.5) for _ in range(n)])
    vectors["finite-difference"] = FiniteDifferenceVector(base)
    vectors["callable"] = _callable_vector(sig)
    return vectors, base, check


def _covectors(sig, h, check, rng):
    derived = DerivedConnection(h)
    bump = PolyField.constant(sig, 0.05 * random_multivector(sig, rng, grades=(1, 2), real=True))
    return {
        "derived": derived,
        "offset": OffsetCovector(derived, {0: bump}),
        "transformed": TransformedConnection(derived, check),
        "zero": ZeroCovector(sig),
        "potential": GaugePotential(h, derived, 0.7 - 0.2j),
    }


def _evaluate(sig, vectors, h, covectors, points):
    """Every jet and residual on one point set, always in the same order.

    The objects keep jets for one point set, so the one-point batches go
    through the same sequence of requests as the whole set did.
    """
    sol = YMSolution(h, covectors["offset"], 0.8 - 0.3j)
    wrong = sol.epsilon + 1.0
    out = {}
    for name, vec in vectors.items():
        out[f"{name} jets"] = np.array(vec.jets(points, 2))
    for name, cov in covectors.items():
        out[f"{name} covector jets"] = np.array(cov.jets(points, 0 if name == "zero" else 1))
        out[f"{name} primitive"] = primitive_residual(h, cov, points)
        out[f"{name} curvature"] = curvature_residual(cov, points)
    out["eq1"] = eq1_residual(sol, points)
    out["eq2"] = eq2_residual(sol, points, wrong)
    out["conservation"] = conservation_residual(sol, points, wrong)
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


def test_point_axis_rows_match_one_point_batches_across_chunks():
    # At n = 7 one point's gathered matrices fill a chunk, so these three
    # points are multiplied in different chunks.
    sig = Signature(4, 3)
    points = sample_points(7, count=2, seed=6)
    _check_point_axis(sig, points, rows=range(len(points)))


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
    # h and the derived connection; the values h.validate checks at set-up
    # are the only other evaluation of h.
    assert len(derivative_computes("h")) == 1
    assert [order for _, order in by_label["h"]] == [0, 2]
    assert len(derivative_computes("transformed h")) == 1
    assert len(by_label["C"]) == 1
    # The run's gauge (values for the set-up check, then its jets) and the
    # check gauge: one jet series each, whatever the number of points.
    exp_objects = {obj for obj, _ in by_label["exp"]}
    assert len(exp_objects) == 2
    assert len(derivative_computes("exp")) == 2
    assert len(set(derivative_computes("exp"))) == 2
    assert len(by_label["exp"]) == 3
