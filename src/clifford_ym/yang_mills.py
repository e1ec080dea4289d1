"""Yang-Mills solution family built on the primitive-equation solver.

Given a Clifford field vector h and its flat connection C, the covector
B_mu = sigma h_mu + C_mu solves the Yang-Mills system

    d_mu B_nu - d_nu B_mu - [B_mu, B_nu] = G_munu
    d_mu G^munu - [B_mu, G^munu]         = eps h^nu

with G_munu = -sigma^2 [h_mu, h_nu] and eps = 4(n-1) sigma^3, and the
current J^nu = eps h^nu obeys the non-Abelian conservation law
d_nu J^nu - [B_nu, J^nu] = 0. This module constructs such solutions,
refuses to build from pairs that fail the flatness check, and evaluates
every residual in max-norm.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    commutator,
)
from .fields import (
    CliffordFieldVector,
    GaugeElement,
    MvJet,
    _as_point,
    _jet_mul,
    sample_points,
)
from .primitive import (
    CovectorField,
    curvature_residual,
    gauge_transform,
    max_norm_grid,
    primitive_residual,
)

__all__ = [
    "NotASolution",
    "GaugePotential",
    "YMSolution",
    "epsilon_value",
    "build_solution",
    "eq1_residual",
    "eq2_residual",
    "conservation_residual",
    "ym_residuals",
    "verify_solution",
    "epsilon_from_residuals",
    "gauge_transform_solution",
    "double_commutator_check",
]


# epsilon_from_residuals refuses to solve when the summed |h|^2 is at most
# this fraction of the projected flux: the roundoff of the sums is then too
# large a share of it to leave a meaningful eps.
_DEGENERATE_REL = 1e-12


class NotASolution(CliffordError):
    """Candidate pair fails the flatness check required of a solution."""


def epsilon_value(n: int, sigma: complex) -> complex:
    """Source strength 4(n-1) sigma^3 for the constructed family."""
    return 4 * (n - 1) * complex(sigma) ** 3


class GaugePotential(CovectorField):
    """Covector B_mu = sigma h_mu + C_mu with the index lowered by eta."""

    def __init__(self, h: CliffordFieldVector, c: CovectorField, sigma: complex):
        if h.sig != c.sig:
            raise CliffordError("field vector and connection signature mismatch")
        super().__init__(h.sig)
        self.h = h
        self.c = c
        self.sigma = complex(sigma)
        self._metric = h.sig.metric()

    def jets(self, x, order: int = 1) -> list[MvJet]:
        # Connection first: it pulls the deepest h jets into the memo, so
        # the direct h request after it is a cache hit.
        cj = self.c.jets(x, order)
        hj = self.h.jets(x, order)
        return [cj[mu] + hj[mu].scale(self.sigma * self._metric[mu])
                for mu in range(self.n)]


class YMSolution:
    """Assembled solution data: potential B, strength G, current J.

    Carries the defining fields (h, C, sigma) and evaluates B_mu, the
    antisymmetric G^munu = -sigma^2 [h^mu, h^nu] (and its lowered form),
    and J^nu = eps h^nu at points. eps is pinned to 4(n-1) sigma^3.
    """

    def __init__(self, h: CliffordFieldVector, c: CovectorField, sigma: complex):
        if h.sig != c.sig:
            raise CliffordError("field vector and connection signature mismatch")
        self.sig = h.sig
        self.h = h
        self.c = c
        self.sigma = complex(sigma)
        self.epsilon = epsilon_value(self.sig.n, self.sigma)
        self.b = GaugePotential(h, c, sigma)

    @property
    def n(self) -> int:
        return self.sig.n

    def b_values(self, x) -> list[Multivector]:
        return self.b.values(x)

    def g_upper_jets(self, x, order: int = 1) -> list[list[MvJet]]:
        hj = self.h.jets(x, order)
        fac = -self.sigma ** 2
        grid = []
        for mu in range(self.n):
            row = []
            for nu in range(self.n):
                row.append((_jet_mul(hj[mu], hj[nu]) - _jet_mul(hj[nu], hj[mu])).scale(fac))
            grid.append(row)
        return grid

    def g_upper(self, x) -> list[list[Multivector]]:
        hv = self.h.values(x)
        fac = -self.sigma ** 2
        return [[fac * commutator(hv[mu], hv[nu]) for nu in range(self.n)]
                for mu in range(self.n)]

    def g_lower(self, x) -> list[list[Multivector]]:
        eta = self.sig.metric()
        up = self.g_upper(x)
        return [[(eta[mu] * eta[nu]) * up[mu][nu] for nu in range(self.n)]
                for mu in range(self.n)]

    def j_values(self, x) -> list[Multivector]:
        return [self.epsilon * v for v in self.h.values(x)]


def build_solution(h: CliffordFieldVector, c: CovectorField, sigma: complex,
                   points=None, tol: float = 1e-8) -> YMSolution:
    """Assemble a YMSolution, refusing pairs that fail the flatness check.

    The pair (h, C) must satisfy d_mu h_rho - [C_mu, h_rho] = 0 at the
    given sample points (default: the standard low-discrepancy set) to
    within tol in max-norm. Pass an empty point list to skip the check.
    """
    if points is None:
        points = sample_points(h.sig.n)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    where = None
    if pts.size:
        for x in pts:
            m = max_norm_grid(primitive_residual(h, c, x))
            if m > worst:
                worst = m
                where = x
    if worst > tol:
        raise NotASolution(
            f"pair fails the flatness check: residual {worst:.3e} > {tol:.1e} "
            f"at point {list(where)}")
    return YMSolution(h, c, sigma)


def eq1_residual(sol: YMSolution, x) -> list[list[Multivector]]:
    """Field strength (curvature) of B minus the claimed G_munu, an n x n grid."""
    fs = curvature_residual(sol.b, x)
    gl = sol.g_lower(x)
    n = sol.n
    return [[fs[mu][nu] - gl[mu][nu] for nu in range(n)] for mu in range(n)]


def _eq2_flux(sol: YMSolution, x) -> list[Multivector]:
    """K^nu = sum_mu d_mu G^munu - [B_mu, G^munu], before the source term."""
    gj = sol.g_upper_jets(x, 1)
    bv = sol.b.values(x)
    out = []
    for nu in range(sol.n):
        acc = Multivector.zero(sol.sig)
        for mu in range(sol.n):
            acc = acc + gj[mu][nu].grad(mu) - commutator(bv[mu], gj[mu][nu].value)
        out.append(acc)
    return out


def eq2_residual(sol: YMSolution, x, epsilon: complex | None = None) -> list[Multivector]:
    """sum_mu (d_mu G^munu - [B_mu, G^munu]) - eps h^nu for each nu."""
    eps = sol.epsilon if epsilon is None else complex(epsilon)
    flux = _eq2_flux(sol, x)
    hv = sol.h.values(x)
    return [flux[nu] - eps * hv[nu] for nu in range(sol.n)]


def conservation_residual(sol: YMSolution, x, epsilon: complex | None = None) -> Multivector:
    """d_nu J^nu - [B_nu, J^nu] with J^nu = eps h^nu, summed over nu."""
    eps = sol.epsilon if epsilon is None else complex(epsilon)
    hj = sol.h.jets(x, 1)
    bv = sol.b.values(x)
    acc = Multivector.zero(sol.sig)
    for nu in range(sol.n):
        acc = acc + eps * hj[nu].grad(nu) - commutator(bv[nu], eps * hj[nu].value)
    return acc


def ym_residuals(sol: YMSolution, x, epsilon: complex | None = None) -> dict:
    """Max-norm residual entry {point, eq1_max, eq2_max, conservation_max}."""
    x = _as_point(x, sol.n)
    eq1 = max_norm_grid(eq1_residual(sol, x))
    eq2 = max(r.max_norm() for r in eq2_residual(sol, x, epsilon))
    cons = conservation_residual(sol, x, epsilon).max_norm()
    return {
        "point": [float(c) for c in x],
        "eq1_max": eq1,
        "eq2_max": eq2,
        "conservation_max": cons,
    }


def verify_solution(sol: YMSolution, points, epsilon: complex | None = None) -> dict:
    """Residual campaign over points; maxima plus the per-point breakdown."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    per_point = [ym_residuals(sol, x, epsilon) for x in pts]
    report = {
        "samples": len(per_point),
        "eq1_max": max(p["eq1_max"] for p in per_point),
        "eq2_max": max(p["eq2_max"] for p in per_point),
        "conservation_max": max(p["conservation_max"] for p in per_point),
        "per_point": per_point,
    }
    return report


def epsilon_from_residuals(sol: YMSolution, points) -> complex:
    """Recover eps by an affine root solve on the second equation.

    The residual flux K^nu - eps h^nu is affine in eps; projecting onto
    h^nu and aggregating over points and indices gives a scalar affine
    function whose values at trial eps 0 and 1 determine the root.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = 0.0 + 0.0j
    b = 0.0 + 0.0j
    for x in pts:
        flux = _eq2_flux(sol, x)
        hv = sol.h.values(x)
        for nu in range(sol.n):
            proj = np.vdot(hv[nu].coeffs, flux[nu].coeffs)
            norm = np.vdot(hv[nu].coeffs, hv[nu].coeffs)
            a += proj
            b += proj - norm
    # a - b is the summed |h^nu|^2, the denominator of eps = a / (a - b).
    if abs(a - b) <= _DEGENERATE_REL * max(abs(a), abs(b)):
        raise CliffordError("degenerate field vector: cannot solve for eps")
    return complex(a / (a - b))


def gauge_transform_solution(sol: YMSolution, gauge: GaugeElement, points=None,
                             membership_tol: float = 1e-9, tol: float = 1e-8) -> YMSolution:
    """Transformed solution with h -> S^-1 h S and C -> S^-1 C S - S^-1 dS.

    The potential, strength, and current of the result are exactly the
    conjugated/shifted transforms of the originals, so the rebuilt object
    is the transformed solution. Membership of S and flatness of the
    transformed pair are validated at the sample points.
    """
    if points is None:
        points = sample_points(sol.n)
    ht, ct = gauge_transform(sol.h, sol.c, gauge, points=points,
                             membership_tol=membership_tol)
    return build_solution(ht, ct, sol.sigma, points=points, tol=tol)


def double_commutator_check(h: CliffordFieldVector, x) -> list[Multivector]:
    """[h_mu, [h^mu, h^nu]] - 4(n-1) h^nu for each nu; zero for valid h."""
    hv = h.values(x)
    eta = h.sig.metric()
    n = h.sig.n
    out = []
    for nu in range(n):
        acc = Multivector.zero(h.sig)
        for mu in range(n):
            acc = acc + eta[mu] * commutator(hv[mu], commutator(hv[mu], hv[nu]))
        out.append(acc - (4.0 * (n - 1)) * hv[nu])
    return out
