"""Shared helpers for the test suite."""

import numpy as np
import pytest

from clifford_ym.algebra import Multivector, Signature
from clifford_ym.fields import (
    ExplicitFieldVector,
    PolyField,
    make_clifford_field_vector,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)


def build_field_vector(p, q, seed, frame_scale=0.4, gauge_scale=0.3, count=8):
    """Seeded random frame + bivector-gauge field vector with its points."""
    sig = Signature(p, q)
    s_frame, s_gauge = np.random.SeedSequence(seed).spawn(2)
    frame = random_frame(sig, np.random.default_rng(s_frame), scale=frame_scale)
    generator = random_bivector_poly_field(
        sig, np.random.default_rng(s_gauge), scale=gauge_scale)
    gauge = make_gauge_element(generator)
    points = sample_points(sig.n, count=count, seed=seed)
    h = make_clifford_field_vector(frame, gauge, points=points)
    return sig, h, points


def generator_field_vector(sig):
    """The constant field vector h^mu = e^mu."""
    return ExplicitFieldVector([
        PolyField.constant(sig, Multivector.generator(sig, a)) for a in range(1, sig.n + 1)
    ])


def on_blades(table, kernel, *args):
    """A spinor-array kernel of table applied to blade arrays, its result in blades."""
    return table.to_blades(kernel(*(table.to_spinor(a) for a in args)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
