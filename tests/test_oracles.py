"""The package's numpy kernels against scipy's: Halton points, expm, inverse.

scipy is not a dependency of the package; these oracle tests run only where
it is installed (the ``test`` extra pulls it in).
"""

import itertools
import warnings

import numpy as np
import pytest

from clifford_ym.algebra import (
    Multivector,
    NotInvertible,
    Signature,
    inverse,
    random_multivector,
    tables,
)
from clifford_ym.fields import FrameField, expm, random_frame, sample_points
from conftest import poly_field

pytest.importorskip("scipy")
from scipy import linalg  # noqa: E402
from scipy.stats import qmc  # noqa: E402


def test_halton_points_match_scipy_bit_for_bit():
    for n, seed, count in itertools.product(range(2, 11), (0, 3, 7, 23, 401), (1, 16, 129)):
        ref = qmc.Halton(d=n, scramble=True, seed=seed).random(count)
        got = sample_points(n, count=count, box=(0.0, 1.0), seed=seed)[1:]
        assert np.array_equal(got, ref), (n, seed, count)
    # The boxed points are the same affine map of the same bits.
    ref = -2.0 + 4.0 * qmc.Halton(d=4, scramble=True, seed=9).random(1000)
    assert np.array_equal(sample_points(4, count=1000, box=(-2.0, 2.0), seed=9)[1:], ref)


def _relative_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# scipy's expm is itself off by up to 1.4e-14 (frame generators, n = 10) and
# 2.2e-13 (the boost below, |t| <= 3.6) against a 40-digit reference, where
# the package's stays within 5.3e-15 (frame generators up to n = 12) and
# 1.2e-15 (the boost); agreement is asked to that margin, and the package's
# own accuracy to 1e-14 against closed forms.
@pytest.mark.parametrize("n", range(2, 11))
def test_expm_matches_scipy_on_frame_generators(n):
    for p in sorted({0, n // 2, n}):
        sig = Signature(p, n - p)
        eta = np.diag(np.array(sig.metric(), dtype=float))
        for seed in range(4):
            # The generator random_frame exponentiates, drawn the same way.
            s = np.random.default_rng(seed).standard_normal((n, n)) * 0.4
            gen = (s - s.T) @ eta
            assert _relative_error(expm(gen), linalg.expm(gen)) < 1e-13
            frame = random_frame(sig, np.random.default_rng(seed))
            assert np.array_equal(frame.base, expm(gen))


def test_expm_matches_scipy_on_a_rotation_frame():
    sig = Signature(2, 1)
    gen = np.zeros((3, 3))
    gen[0, 2] = gen[2, 0] = 1.0  # a boost in the 1-3 plane
    theta = poly_field(sig, (0, (1, 0, 0), 1.7), (0, (0, 0, 0), 0.2))
    frame = FrameField(sig, generator=gen, poly=theta)
    for x in sample_points(3, count=8, box=(-2.0, 2.0), seed=4):
        t = 1.7 * x[0] + 0.2
        exact = np.eye(3) + np.sinh(t) * gen + (np.cosh(t) - 1.0) * (gen @ gen)
        assert _relative_error(frame.matrix(x), exact) < 1e-14
        assert _relative_error(frame.matrix(x), linalg.expm(t * gen)) < 1e-12


def _scipy_inverse(u: Multivector, max_condition: float = 1e12):
    """The LU solve with LAPACK's 1-norm condition estimate, or None if refused."""
    mat = tables(u.sig).left_mult_matrix(u.coeffs)
    anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)  # exact zero pivots
        lu, piv = linalg.lu_factor(mat, check_finite=False)
    gecon = linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm, norm="1")
    if not rcond > 0 or 1.0 / rcond > max_condition:
        return None
    rhs = np.zeros(u.sig.dim, dtype=complex)
    rhs[0] = 1.0
    return linalg.lu_solve((lu, piv), rhs)


def test_inverse_matches_scipy_lu_solve():
    rng = np.random.default_rng(5)
    for p, q in ((2, 0), (1, 1), (2, 1), (3, 1), (2, 3), (4, 3)):
        sig = Signature(p, q)
        for _ in range(3):
            u = Multivector.unit(sig) + random_multivector(sig, rng, scale=0.3)
            ref = _scipy_inverse(u)
            assert ref is not None
            assert np.max(np.abs(inverse(u).coeffs - ref)) < 1e-12 * np.max(np.abs(ref))


def test_inverse_refuses_what_scipy_refuses():
    sig = Signature(2, 1)
    unit, e1, e3 = (Multivector.unit(sig), Multivector.generator(sig, 1),
                    Multivector.generator(sig, 3))
    refused = [
        0.5 * (unit + e1),           # idempotent, hence singular
        e1 + e3,                     # null vector, squares to zero
        unit + (1.0 - 1e-13) * e1,   # condition number about 2e13
        Multivector.zero(sig),
    ]
    for u in refused:
        assert _scipy_inverse(u) is None
        with pytest.raises(NotInvertible):
            inverse(u)
    # Just inside the bound both accept (condition number about 2e11), and
    # agree to what that conditioning leaves of double precision.
    u = unit + (1.0 - 1e-11) * e1
    ref = _scipy_inverse(u)
    assert ref is not None
    assert np.max(np.abs(inverse(u).coeffs - ref)) < 1e-4 * np.max(np.abs(ref))
