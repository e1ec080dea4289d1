"""Yang-Mills solution family built on the primitive-equation solver.

Given a Clifford field vector h and its flat connection C, the covector
B_mu = sigma h_mu + C_mu solves the Yang-Mills system

    d_mu B_nu - d_nu B_mu - [B_mu, B_nu] = G_munu
    d_mu G^munu - [B_mu, G^munu]         = eps h^nu

with G_munu = -sigma^2 [h_mu, h_nu] and eps = 4(n-1) sigma^3, and the
current J^nu = eps h^nu obeys the non-Abelian conservation law
d_nu J^nu - [B_nu, J^nu] = 0. This module constructs such solutions,
refuses to build from pairs that fail the flatness check, and evaluates
every residual in max-norm. G, B and the flux are spinor arrays
(algebra._Tables); every residual is returned in blade coordinates.

For one pair (h, C) only B, G and the flux depend on sigma. A family of
solutions over the pair (a sigma sweep) reuses the sigma-free rest, which
the derived slots of the pair's memos keep once per point set:

  - the DerivedConnection of h keeps the per-point flatness maxima of the
    pair, which build_solution compares with its own tol on every call;
  - h keeps K^munu = [h^mu, h^nu] and
    D^nu = [sum_mu d_mu h^mu, h^nu] + sum_mu [h^mu, d_mu h^nu]
    (CliffordFieldVector.bracket_grids), from which each solution forms
    G^munu = -sigma^2 K^munu and its flux -sigma^2 D^nu - sum_mu [B_mu, G^munu].

Each reused array comes from the same operations as a cold computation, so
no report depends on which sigma came first.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra import (
    CliffordError,
    tables,
)
from .fields import (
    CliffordFieldVector,
    GaugeElement,
    _as_points,
    _frozen,
    sample_points,
)
from .primitive import (
    CovectorField,
    field_strength,
    gauge_transform,
    max_per_point,
    point_report,
)

__all__ = [
    "NotASolution",
    "YMSolution",
    "epsilon_value",
    "build_solution",
    "eq1_residual",
    "eq2_residual",
    "conservation_residual",
    "verify_solution",
    "epsilon_from_residuals",
    "gauge_transform_solution",
    "double_commutator_check",
]


class NotASolution(CliffordError):
    """Candidate pair fails the flatness check required of a solution."""


def epsilon_value(n: int, sigma: complex) -> complex:
    """Source strength 4(n-1) sigma^3 for the constructed family."""
    return 4 * (n - 1) * complex(sigma) ** 3


class YMSolution(CovectorField):
    """A solution as its potential B_mu = sigma h_mu + C_mu, a covector
    with the index lowered by eta, whose jets are the jets of B.

    Carries the defining fields (h, C, sigma) and the source strength eps
    of the current J^nu = eps h^nu: 4(n-1) sigma^3 unless epsilon is
    given. Evaluates the antisymmetric G^munu = -sigma^2 [h^mu, h^nu] (and
    its lowered form) at arrays of points.

    The flux of the second equation lives in the derived slot of B's
    memo, so the residuals and the eps solve share it, and G^munu is
    formed on request from the sigma-free K^munu that h keeps
    (bracket_grids), so a family of solutions over one h holds K once
    rather than a G per sigma.
    """

    def __init__(self, h: CliffordFieldVector, c: CovectorField, sigma: complex,
                 epsilon: complex | None = None):
        if h.sig != c.sig:
            raise CliffordError("field vector and connection signature mismatch")
        super().__init__(h.sig)
        self.h = h
        self.c = c
        self.sigma = complex(sigma)
        self.epsilon = (epsilon_value(self.n, self.sigma) if epsilon is None
                        else complex(epsilon))
        self._scale = (self.sigma * tables(h.sig).eta)[:, None, None]

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        return self.c.jets(x, order) + self.h.jets(x, order) * self._scale

    def _derive(self, x: np.ndarray) -> np.ndarray:
        return _field_grids(self, x)

    def g_upper(self, x) -> np.ndarray:
        """G^munu = -sigma^2 [h^mu, h^nu], shape (P, n, n, dim), read-only."""
        return _frozen(-self.sigma ** 2 * self.h.bracket_grids(x)[0])

    def g_lower(self, x) -> np.ndarray:
        eta = tables(self.sig).eta
        return np.multiply.outer(eta, eta)[:, :, None] * self.g_upper(x)


def build_solution(h: CliffordFieldVector, c: CovectorField, sigma: complex,
                   points=None, tol: float = 1e-8) -> YMSolution:
    """Assemble a YMSolution, refusing pairs that fail the flatness check.

    The pair (h, C) must satisfy d_mu h_rho - [C_mu, h_rho] = 0 at the
    given sample points (default: the standard low-discrepancy set) to
    within tol in max-norm; a NaN residual fails. Pass an empty point list
    to skip the check. The per-point maxima come from c.flatness, which a
    DerivedConnection of h keeps, so a sigma family checks the pair once
    per point set and compares with tol on every call.
    """
    if points is None:
        points = sample_points(h.sig.n)
    pts = np.asarray(points, dtype=float)
    if pts.size:
        pts = _as_points(pts, h.sig.n)
        per_point = c.flatness(h, pts)
        bad = np.flatnonzero(~(per_point <= tol))
        if bad.size:
            p = bad[0]
            raise NotASolution(
                f"pair fails the flatness check: residual {per_point[p]:.3e} > {tol:.1e} "
                f"at point {pts[p].tolist()}")
    return YMSolution(h, c, sigma)


def eq1_residual(sol: YMSolution, x) -> np.ndarray:
    """Field strength (curvature) of B minus the claimed G_munu, in blade
    coordinates, shape (P, n, n, dim)."""
    return tables(sol.sig).to_blades(field_strength(sol, x) - sol.g_lower(x))


def _field_grids(sol: YMSolution, x) -> np.ndarray:
    """The flux sum_mu d_mu G^munu - [B_mu, G^munu] of the second equation
    before the source term, shape (P, n, dim), which the derived slot of B
    keeps.

    By the product rule sum_mu d_mu G^munu = -sigma^2 D^nu, with D^nu and
    K^munu from h.bracket_grids.
    """
    k, dg = sol.h.bracket_grids(x)
    g = -sol.sigma ** 2 * k
    return -sol.sigma ** 2 * dg - tables(sol.sig).commutator_sum(sol.values(x), g)


def eq2_residual(sol: YMSolution, x) -> np.ndarray:
    """sum_mu (d_mu G^munu - [B_mu, G^munu]) - eps h^nu, in blade coordinates,
    shape (P, n, dim)."""
    flux = sol.derived(x)
    return tables(sol.sig).to_blades(flux - sol.epsilon * sol.h.jets(x, 1)[:, :, 0])


def conservation_residual(sol: YMSolution, x) -> np.ndarray:
    """d_nu J^nu - [B_nu, J^nu] with J^nu = eps h^nu, summed over nu, in blade
    coordinates, shape (P, dim)."""
    t = tables(sol.sig)
    hs = sol.epsilon * sol.h.jets(x, 1)
    div = np.trace(hs[:, :, 1:], axis1=1, axis2=2)
    return t.to_blades(div - t.commutator_sum(sol.values(x), hs[:, :, None, 0])[:, 0])


def verify_solution(sol: YMSolution, points) -> dict:
    """Residual campaign over points: the max-norm of each residual, overall
    and per point (point_report)."""
    pts = _as_points(points, sol.n)
    maxima = {
        "eq1_max": max_per_point(eq1_residual(sol, pts)),
        "eq2_max": max_per_point(eq2_residual(sol, pts)),
        "conservation_max": max_per_point(conservation_residual(sol, pts)),
    }
    return point_report(pts, maxima)


def epsilon_from_residuals(sol: YMSolution, points) -> complex:
    """Recover eps by an affine root solve on the second equation.

    The residual flux K^nu - eps h^nu is affine in eps; projecting onto
    h^nu and aggregating over points and indices gives a scalar affine
    function, whose root is the projected flux over the summed |h^nu|^2.
    Both sums are formed directly, so no difference of two sums of size
    |eps| times the summed |h|^2 cancels at large sigma. The blade
    images are orthogonal, each with squared Frobenius norm blocks * d, so
    the Frobenius products of the spinor arrays over that are the blade
    inner products.
    """
    pts = _as_points(points, sol.n)
    flux = sol.derived(pts).reshape(len(pts), -1)
    hv = sol.h.jets(pts, 1)[:, :, 0].reshape(len(pts), -1)
    blocks, d, _ = tables(sol.sig).block_shape
    proj = np.einsum("pk,pk->p", hv.conj(), flux) / (blocks * d)
    norms = np.einsum("pk,pk->p", hv.conj(), hv) / (blocks * d)
    a = complex(proj.sum())
    total = float(norms.sum().real)
    if not (cmath.isfinite(a) and np.isfinite(total)):
        raise CliffordError(
            f"the flux sums of the second equation are not finite (sigma = {sol.sigma}): "
            "cannot solve for eps")
    if not total > 0:
        raise CliffordError(
            f"degenerate field vector: the summed |h|^2 is {total:.3e} at sigma = {sol.sigma}: "
            "cannot solve for eps")
    return a / total


def gauge_transform_solution(sol: YMSolution, gauge: GaugeElement, points=None) -> YMSolution:
    """Transformed solution with h -> S^-1 h S and C -> S^-1 C S - S^-1 dS,
    keeping the eps of sol.

    The potential, strength, and current of the result are exactly the
    conjugated/shifted transforms of the originals, so the rebuilt object
    is the transformed solution, and a sol that breaches the second
    equation breaches it after the transformation too. Membership of S and flatness of the
    transformed pair are validated at the sample points.
    """
    if points is None:
        points = sample_points(sol.n)
    ht, ct = gauge_transform(sol.h, sol.c, gauge, points=points)
    moved = build_solution(ht, ct, sol.sigma, points=points)
    return YMSolution(moved.h, moved.c, moved.sigma, sol.epsilon)


def double_commutator_check(h: CliffordFieldVector, x) -> np.ndarray:
    """[h_mu, [h^mu, h^nu]] - 4(n-1) h^nu for each nu, in blade coordinates,
    shape (P, n, dim); zero for valid h."""
    t = tables(h.sig)
    hv = h.values(x)
    eta = t.eta[:, None, None]
    # eta_mu [h^mu, X] = [h^mu, eta_mu X]: the sign goes on the grid's mu axis.
    return t.to_blades(t.commutator_sum(hv, eta * t.commutator_grid(hv))
                       - (4.0 * (h.sig.n - 1)) * hv)
