"""Shared helpers for the test suite."""

import numpy as np
import pytest

from clifford_ym.algebra import Multivector, Signature, grade_project
from clifford_ym.fields import (
    CliffordFieldVector,
    FrameGaugeFieldVector,
    PolyField,
    conjugate_jets,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from clifford_ym.primitive import CovectorField


class ExplicitFieldVector(CliffordFieldVector):
    """Field vector given directly by its n component fields."""

    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__(self.fields[0].sig)

    def _compute_jets(self, x, order):
        return np.stack([f.jet(x, order) for f in self.fields], axis=1)


class ZeroCovector(CovectorField):
    def _compute_jets(self, x, order):
        return np.zeros((len(x), self.n, 1 + self.n * order, self.sig.dim), dtype=complex)


class OffsetCovector(CovectorField):
    """A base covector plus offset fields {mu: field} on its components."""

    def __init__(self, base, offsets):
        super().__init__(base.sig)
        self.base = base
        self.offsets = offsets

    def _compute_jets(self, x, order):
        out = np.array(self.base.jets(x, order))
        for mu, field in self.offsets.items():
            out[:, mu] += field.jet(x, order)
        return out


def poly_zero(sig):
    """The PolyField with no terms."""
    return PolyField(sig, np.zeros((0, sig.n), dtype=np.int64), np.zeros((0, sig.dim)))


def poly_partial(f, mu):
    """The exact derivative of the PolyField f along axis mu (0-based)."""
    e = f.exps[:, mu]
    live = e > 0
    return PolyField(f.sig, f.exps[live] - np.eye(f.sig.n, dtype=np.int64)[mu],
                     f.coeffs[live] * e[live, None])


def conjugate(gauge, u, x):
    """S^-1 u S of a gauge element S at the points x, for spinor rows u
    (..., dim) that broadcast with (P, dim)."""
    return conjugate_jets(gauge.inv_jets(x, 0), np.asarray(u)[..., None, :],
                          gauge.jets(x, 0), gauge.sig)[..., 0, :]


def grade_project_paired(u, k):
    """The paired projection pi_k + pi_{n-k} by the grade filter."""
    out = grade_project(u, k)
    return out if 2 * k == u.sig.n else out + grade_project(u, u.sig.n - k)


def build_field_vector(p, q, seed, frame_scale=0.4, gauge_scale=0.3, count=8):
    """Seeded random frame + bivector-gauge field vector with its points."""
    sig = Signature(p, q)
    s_frame, s_gauge = np.random.SeedSequence(seed).spawn(2)
    frame = random_frame(sig, np.random.default_rng(s_frame), scale=frame_scale)
    generator = random_bivector_poly_field(
        sig, np.random.default_rng(s_gauge), scale=gauge_scale)
    gauge = make_gauge_element(generator)
    points = sample_points(sig.n, count=count, seed=seed)
    h = FrameGaugeFieldVector(frame, gauge)
    h.validate(points)
    return sig, h, points


def generator_field_vector(sig):
    """The constant field vector h^mu = e^mu."""
    return ExplicitFieldVector([
        PolyField.constant(sig, Multivector.generator(sig, a)) for a in range(1, sig.n + 1)
    ])


def poly_field(sig, *terms):
    """The PolyField sum of coeff x^exps e_mask over (mask, exps, coeff) terms."""
    coeffs = np.zeros((len(terms), sig.dim), dtype=complex)
    for row, (mask, _, coeff) in zip(coeffs, terms):
        row[mask] = coeff
    return PolyField(sig, np.array([exps for _, exps, _ in terms], dtype=np.int64)
                     .reshape(len(terms), sig.n), coeffs)


def on_blades(table, kernel, *args):
    """A spinor-array kernel of table applied to blade arrays, its result in blades."""
    return table.to_blades(kernel(*(table.to_spinor(a) for a in args)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
