"""A sigma family over one pair (h, C) reuses its sigma-free half.

The flatness maxima of (h, C) are kept by the DerivedConnection of h, and
the brackets K^munu = [h^mu, h^nu] and D^nu by h itself, once per point
set. These tests hold that work to once per point set, hold every reused
array to a cold computation on fresh objects, and check that the reuse
never certifies a pair it was not computed for.
"""

import json

import numpy as np
import pytest

from clifford_ym import fields, primitive, runner
from clifford_ym.algebra import random_multivector, tables
from clifford_ym.fields import PolyField
from clifford_ym.primitive import (
    TransformedConnection,
    TransformedFieldVector,
    max_per_point,
    primitive_residual,
)
from clifford_ym.yang_mills import (
    NotASolution,
    build_solution,
    epsilon_from_residuals,
    eq1_residual,
    eq2_residual,
    verify_solution,
)
from conftest import OffsetCovector

SIGMAS = (1.0, -1.0, 0.5, 1j, 0.5 - 0.5j, -0.3 + 0.8j)


def _case(p=3, q=2, count=8, seed=7):
    return runner.build_case(runner.parse_config({
        "signature": {"p": p, "q": q}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3},
        "samples": {"count": count}, "seed": seed,
    }))


def _count(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _sweep(case, points, sigmas=SIGMAS):
    """build_solution, verify_solution and the eps solve for every sigma."""
    out = {}
    for sigma in sigmas:
        sol = build_solution(case["h"], case["conn"], sigma, points=points)
        out[sigma] = (verify_solution(sol, points), epsilon_from_residuals(sol, points),
                      eq1_residual(sol, points), eq2_residual(sol, points), sol.g_upper(points))
    return out


def test_sigma_sweep_computes_the_sigma_free_half_once_per_point_set(monkeypatch):
    case = _case()
    calls = []
    _count(monkeypatch, primitive, "primitive_residual", calls)
    _count(monkeypatch, fields, "_bracket_grids", calls)
    _sweep(case, case["points"])
    assert sorted(calls) == ["_bracket_grids", "primitive_residual"]
    # A second point set replaces the entries: each is computed once more.
    calls.clear()
    _sweep(case, case["points"][:5])
    assert sorted(calls) == ["_bracket_grids", "primitive_residual"]
    calls.clear()
    _sweep(case, case["points"][:5], SIGMAS[:2])
    assert calls == []


def test_build_solution_refuses_a_broken_pair_after_a_passing_one(rng):
    case = _case(2, 0)
    sig, h, conn, points = case["sig"], case["h"], case["conn"], case["points"]
    build_solution(h, conn, 0.7, points=points)
    bump = PolyField.constant(sig, random_multivector(sig, rng, grades=(1,), real=True))
    broken = OffsetCovector(conn, {0: bump})
    with pytest.raises(NotASolution):
        build_solution(h, broken, 0.7, points=points)
    # The kept maxima are compared with each call's own tol.
    worst = float(conn.flatness(h, points).max())
    assert worst > 0
    build_solution(h, conn, 0.7, points=points, tol=worst)
    with pytest.raises(NotASolution):
        build_solution(h, conn, 0.7, points=points, tol=0.5 * worst)


def test_a_connection_never_serves_its_maxima_to_another_field_vector():
    case = _case(2, 1)
    h, conn, points = case["h"], case["conn"], case["points"]
    other = TransformedFieldVector(h, case["check_gauge"])
    own = conn.flatness(h, points)
    foreign = conn.flatness(other, points)
    assert np.array_equal(foreign, max_per_point(primitive_residual(other, conn, points)))
    assert foreign.max() > 1e-3 > 1e-8 > own.max()
    with pytest.raises(NotASolution):
        build_solution(other, conn, 1.0, points=points)
    # Asking for the foreign pair first leaves the connection's own entry
    # to its own h.
    fresh = _case(2, 1)
    assert fresh["conn"].flatness(other, points).max() > 1e-3
    assert np.array_equal(fresh["conn"].flatness(fresh["h"], points), own)
    build_solution(h, conn, 1.0, points=points)
    # The transformed pair is flat; any covector can check a pair afresh.
    ct = TransformedConnection(conn, case["check_gauge"])
    assert ct.flatness(other, points).max() < 1e-8


def test_kept_arrays_equal_a_cold_computation_and_do_not_depend_on_sigma_order():
    case = _case()
    points = case["points"]
    forward = _sweep(case, points)
    h, conn = case["h"], case["conn"]
    kept = (conn.flatness(h, points),) + h.bracket_grids(points)
    for arr in kept:
        assert not arr.flags.writeable

    cold_case = _case()
    cold_h = cold_case["h"]
    cold_flatness = max_per_point(primitive_residual(cold_h, cold_case["conn"], points))
    hs = cold_h.jets(points, 1)
    t = tables(cold_h.sig)
    hv = hs[:, :, 0]
    dh = hs[:, :, 1:].swapaxes(1, 2)
    cold_k = t.commutator_grid(hv)
    cold_d = (t.commutator_grid(np.trace(dh, axis1=1, axis2=2)[:, None], hv)[:, 0]
              + t.commutator_sum(hv, dh))
    for got, want in zip(kept, (cold_flatness, cold_k, cold_d)):
        assert np.array_equal(got, want)

    backward = _sweep(_case(), points, SIGMAS[::-1])
    for sigma in SIGMAS:
        (rep_f, eps_f, *arrays_f), (rep_b, eps_b, *arrays_b) = forward[sigma], backward[sigma]
        assert rep_f == rep_b and eps_f == eps_b
        for a, b in zip(arrays_f, arrays_b):
            assert np.array_equal(a, b)
        # One solution alone, on objects that never saw another sigma.
        single = _sweep(_case(), points, (sigma,))[sigma]
        assert single[0] == rep_f and single[1] == eps_f
        for a, b in zip(single[2:], arrays_f):
            assert np.array_equal(a, b)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_covectors_compute_each_order_once_per_point_set(monkeypatch):
    calls, seen = [], []
    for cls in _subclasses(fields.JetStack):
        if "_compute_jets" in vars(cls):
            def counted(self, x, order, original=vars(cls)["_compute_jets"], name=cls.__name__):
                calls.append((name, self, order))  # held, so that no two objects share an id
                seen.append(np.array(x))
                return original(self, x, order)
            monkeypatch.setattr(cls, "_compute_jets", counted)
    memo = fields.GaugeElement._memo_jet

    def memo_counted(self, x, *args):
        seen.append(np.array(x))
        return memo(self, x, *args)
    monkeypatch.setattr(fields.GaugeElement, "_memo_jet", memo_counted)
    cfg = runner.parse_config({
        "signature": {"p": 2, "q": 1}, "frame": {"kind": "random"},
        "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 6}, "seed": 3,
    })
    report, code = runner.run_verify(cfg)
    assert code == 0 and report["pass"]
    # Every jet the run computes, and every request to a gauge element, is
    # at the run's own point set: the conjugation check slices, it never
    # evaluates at 3 points.
    points = fields.sample_points(cfg.n, count=cfg.count, box=cfg.box, seed=cfg.seed)
    assert seen and all(np.array_equal(x, points) for x in seen)
    by_object = {}
    for name, obj, order in calls:
        by_object.setdefault(id(obj), (name, []))[1].append(order)
    # The derived connection and the potentials of the run's and the
    # transformed solution compute first order once. The transformed
    # connection computes its jets once, for the field strength, and the
    # primitive residual reads their value rows. No perturbed covector is
    # built.
    covectors = {"DerivedConnection", "TransformedConnection", "OffsetCovector", "YMSolution"}
    assert sorted((name, orders) for name, orders in by_object.values() if name in covectors) == [
        ("DerivedConnection", [1]), ("TransformedConnection", [1]),
        ("YMSolution", [1]), ("YMSolution", [1])]


def test_covector_entry_serves_values_from_the_jets_once_computed():
    case = _case(2, 0)
    points = case["points"]
    tc = TransformedConnection(case["conn"], case["check_gauge"])
    values = tc.values(points)
    assert tc.jets(points, 0).shape[2] == 1
    jets = tc.jets(points, 1)
    assert np.array_equal(tc.values(points), jets[:, :, 0])
    assert np.abs(values - jets[:, :, 0]).max() <= 1e-14
    assert np.shares_memory(tc.jets(points, 1), jets)  # read from the entry
    assert not values.flags.writeable and not jets.flags.writeable


def _sweep_text(cfg):
    """The sigma sweep over one build_case of cfg, as JSON text."""
    case = runner.build_case(cfg)
    points = case["points"]
    entries = []
    for sigma in SIGMAS:
        sol = build_solution(case["h"], case["conn"], sigma, points=points)
        eps = epsilon_from_residuals(sol, points)
        entries.append([verify_solution(sol, points), [eps.real, eps.imag]])
    return json.dumps(entries, sort_keys=True)


def test_one_run_config_serves_repeated_runs_bit_for_bit():
    # A RunConfig holds the frame and gauge generator it resolved; every
    # object with a memo is built per case, so no state passes from one run
    # or sweep to the next, and each repeats a fresh config's bits.
    spec = {"signature": {"p": 3, "q": 1}, "frame": {"kind": "random"},
            "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 4}, "seed": 11}
    cfg = runner.parse_config(spec)
    runs, sweeps = [], []
    for _ in range(2):
        runs.append(json.dumps(runner.run_verify(cfg), sort_keys=True))
        sweeps.append(_sweep_text(cfg))
    fresh = runner.parse_config(spec)
    assert runs == [json.dumps(runner.run_verify(fresh), sort_keys=True)] * 2
    assert sweeps == [_sweep_text(fresh)] * 2
    assert json.loads(runs[0])[1] == 0
