"""The primitive field equation and its closed-form solution.

For a Clifford field vector h the equation

    d_mu h_rho - [C_mu, h_rho] = 0

is solved in closed form by weighting the h-grade components of
W_mu = (d_mu h^rho) h_rho:

    C_mu = sum_k mu_k pi[h]_k(W_mu),   mu_k = 1/(n - lambda_k),

summed over k = 1..n for even n and over the paired projections
k = 1..(n-1)/2 for odd n. Expanding the projections through contraction
powers collapses the same sum to C_mu = sum_l w_l F[h]^l(W_mu) with the
table weights w (r for even n, s for odd n). The tests keep the
mu_k-weighted projection sum as the oracle of this collapsed form.

For the paper's family h^mu = y^mu_a S^-1 e^a S, with y pseudo-orthogonal
and S = exp(B) for a bivector field B (and its gauge transforms by such S),
F[h](U) = S^-1 F(S U S^-1) S = F(U): conjugation by exp(B) keeps grades,
since ad_B does. Then pi[h]_k = pi_k and C_mu is mu_k times the grade-k
part of W_mu, one scale per blade. Field vectors carry this as the
structural flag grade_preserving, set from their types, never from a
numerical probe; every other h (S = exp(vector), explicit or
finite-difference field vectors) takes the contraction chain. The residuals
are computed from C by the same code either way, so a wrong flag would
breach a tolerance rather than pass.

The connection never touches the center (the k = 0 and paired (0, n)
projections are excluded), and a solving C has zero curvature:
d_mu C_nu - d_nu C_mu - [C_mu, C_nu] = 0.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    Signature,
    center_leak,
    geometric_product,
    tables,
)
from .contraction import ContractionTable, build_table, contraction_series
from .fields import (
    CliffordFieldVector,
    GaugeElement,
    MvJet,
    _as_point,
    _jet_mul,
    _partial_rows,
    sample_points,
)


class CovectorField:
    """n multivector fields with a lower index, evaluable with jets."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n = sig.n

    def values(self, x) -> list[Multivector]:
        return [j.value for j in self.jets(x, 0)]

    def jets(self, x, order: int = 1) -> list[MvJet]:
        raise NotImplementedError


class ZeroCovector(CovectorField):
    def jets(self, x, order: int = 1) -> list[MvJet]:
        zero = Multivector.zero(self.sig)
        return [MvJet.constant(zero, order) for _ in range(self.n)]


class OffsetCovector(CovectorField):
    """Base covector plus per-component offset fields (for perturbation tests)."""

    def __init__(self, base: CovectorField, offsets: dict):
        super().__init__(base.sig)
        self.base = base
        self.offsets = {int(mu): field for mu, field in offsets.items()}
        for mu, field in self.offsets.items():
            if not 0 <= mu < self.n:
                raise CliffordError(f"offset index {mu} out of range")
            if field.sig != base.sig:
                raise CliffordError("offset field signature mismatch")

    def jets(self, x, order: int = 1) -> list[MvJet]:
        out = self.base.jets(x, order)
        for mu, field in self.offsets.items():
            out[mu] = out[mu] + field.jet(x, order)
        return out


def _contract_jet(vjet: MvJet, hjets: list[MvJet], metric) -> MvJet:
    """F[h](V) = sum_rho eta_rho h^rho V h^rho on jets."""
    acc = None
    for eta, hj in zip(metric, hjets):
        term = _jet_mul(_jet_mul(hj, vjet), hj).scale(eta)
        acc = term if acc is None else acc + term
    return acc


def _w_jets(hjets: list[MvJet], metric, order: int) -> list[MvJet]:
    """W_mu = (d_mu h^rho) h_rho as jets of order 0 or 1, for every mu at once.

    By the product rule, each row of the jet of d_mu h^rho times the value
    of h^rho (one gathered matrix R(h^rho) per rho), plus at order 1 the
    products (d_mu h^rho)(d_nu h^rho) in the gradient row nu.
    """
    sig = hjets[0].sig
    n = sig.n
    t = tables(sig)
    rows = _partial_rows(n, order)
    acc = 0
    for eta, hj in zip(metric, hjets):
        c = hj.comps
        w = c[rows] @ t.right_mult_matrix(c[0])
        if order == 1:
            w[:, 1:] += t.batch_product(c[1:1 + n], c[1:1 + n])
        acc = acc + eta * w
    return [MvJet(sig, order, acc[mu]) for mu in range(n)]


def compute_C_jets(hjets: list[MvJet], table: ContractionTable,
                   grade_preserving: bool = False) -> list[MvJet]:
    """Connection jets from field-vector jets (one order lower than the input).

    C_mu = sum_l w_l F[h]^l(W_mu) with the collapsed table weights w. Pass
    the field vector's grade_preserving flag: where it holds, F[h] = F, so
    this is mu_k times the grade-k part of W_mu, one scale per blade.
    """
    sig = hjets[0].sig
    metric = sig.metric()
    order = hjets[0].order - 1
    if order < 0:
        raise CliffordError("field-vector jets must carry at least first derivatives")
    wjets = _w_jets(hjets, metric, order)
    if grade_preserving:
        mus = np.array([0.0 if m is None else float(m) for m in table.mus])
        scale = mus[tables(sig).grades]
        return [MvJet(sig, order, w.comps * scale) for w in wjets]
    htrunc = [hj.truncate(order) for hj in hjets]
    out = []
    for wjet in wjets:
        c = contraction_series(wjet, table.weights,
                               lambda v: _contract_jet(v, htrunc, metric))
        out.append(MvJet.constant(Multivector.zero(sig), order) if c is None else c)
    return out


def compute_C(h: CliffordFieldVector, table: ContractionTable | None = None, x=None,
              validate: bool = True, validate_tol: float = 1e-8) -> list[Multivector]:
    """Connection values C_mu(x) solving the primitive equation for h.

    Validates the anticommutation identity of h at x by default, since the
    closed form is meaningless on an invalid field vector.
    """
    if x is None:
        raise CliffordError("compute_C needs an evaluation point")
    if table is None:
        table = build_table(h.sig.n)
    if table.n != h.sig.n:
        raise CliffordError(f"table is for n={table.n}, field vector has n={h.sig.n}")
    x = _as_point(x, h.sig.n)
    if validate:
        h.validate(x[None, :], tol=validate_tol)
    hjets = h.jets(x, 1)
    return [j.value for j in compute_C_jets(hjets, table, h.grade_preserving)]


class DerivedConnection(CovectorField):
    """The closed-form connection of a field vector, as a lazy covector field."""

    def __init__(self, h: CliffordFieldVector, table: ContractionTable | None = None):
        super().__init__(h.sig)
        self.h = h
        self.table = table if table is not None else build_table(h.sig.n)
        self._memo: dict[bytes, tuple[int, list[MvJet]]] = {}

    def jets(self, x, order: int = 1) -> list[MvJet]:
        x = _as_point(x, self.sig.n)
        key = x.tobytes()
        hit = self._memo.get(key)
        if hit is not None and hit[0] >= order:
            return [j.truncate(order) for j in hit[1]]
        # Always derive to first order: curvature checks need it anyway, and
        # one pass at order 1 is cheaper than passes at 0 and then 1.
        eff = max(order, 1)
        hjets = self.h.jets(x, eff + 1)
        cjets = compute_C_jets(hjets, self.table, self.h.grade_preserving)
        self._memo[key] = (eff, cjets)
        if len(self._memo) > 128:
            self._memo.pop(next(iter(self._memo)))
        return [j.truncate(order) for j in cjets]


def _stack(jets: list[MvJet]) -> np.ndarray:
    """Jet rows of n components, shape (n, rows, dim)."""
    return np.stack([j.comps for j in jets])


def primitive_residual(h: CliffordFieldVector, c: CovectorField, x) -> np.ndarray:
    """R_{mu rho}(x) = d_mu h_rho - [C_mu, h_rho], shape (n, n, dim)."""
    x = _as_point(x, h.sig.n)
    eta = np.array(h.sig.metric(), dtype=float)[:, None, None]
    # Connection first: derived connections pull deeper h jets, so this
    # order fills the jet memos top-down with no repeated work.
    cv = _stack(c.jets(x, 0))[:, 0]
    hs = _stack(h.jets(x, 1))
    lowered = eta * hs
    return (lowered[:, 1:].swapaxes(0, 1)
            - tables(h.sig).commutators(cv, lowered[None, :, 0]))


def curvature_residual(c: CovectorField, x) -> np.ndarray:
    """d_mu C_nu - d_nu C_mu - [C_mu, C_nu], antisymmetric, shape (n, n, dim).

    For any covector, such as the Yang-Mills potential B, this is its field
    strength; a flat connection gives zero.
    """
    x = _as_point(x, c.sig.n)
    cs = _stack(c.jets(x, 1))
    grad = cs[:, 1:].swapaxes(0, 1)  # grad[mu, nu] = d_mu C_nu
    return grad - grad.swapaxes(0, 1) - tables(c.sig).commutators(cs[:, 0], cs[None, :, 0])


def connection_center_leak(c: CovectorField, x) -> float:
    return max(center_leak(v) for v in c.values(x))


class TransformedFieldVector(CliffordFieldVector):
    """Conjugated field vector S^-1 h^mu S.

    Grade-preserving when h is and conjugation by S keeps grades.
    """

    def __init__(self, base: CliffordFieldVector, gauge: GaugeElement):
        if base.sig != gauge.sig:
            raise CliffordError("field vector and gauge element signature mismatch")
        super().__init__(base.sig)
        self.base = base
        self.gauge = gauge
        self.grade_preserving = base.grade_preserving and gauge.bivector_exp

    def values(self, x) -> list[Multivector]:
        s = self.gauge.value(x)
        w = self.gauge.inv_value(x)
        return [geometric_product(geometric_product(w, v), s) for v in self.base.values(x)]

    def _compute_jets(self, x: np.ndarray, order: int) -> list[MvJet]:
        sj = self.gauge.jet(x, order)
        wj = self.gauge.inv_jet(x, order)
        return [_jet_mul(_jet_mul(wj, hj), sj) for hj in self.base.jets(x, order)]


class TransformedConnection(CovectorField):
    """Gauge-transformed connection S^-1 C_mu S - S^-1 d_mu S."""

    def __init__(self, base: CovectorField, gauge: GaugeElement):
        if base.sig != gauge.sig:
            raise CliffordError("covector and gauge element signature mismatch")
        super().__init__(base.sig)
        self.base = base
        self.gauge = gauge

    def jets(self, x, order: int = 1) -> list[MvJet]:
        if order > 1:
            raise CliffordError("transformed connections carry at most first-order jets")
        sfull = self.gauge.jet(x, order + 1)
        sj = sfull.truncate(order)
        wj = self.gauge.inv_jet(x, order)
        cjets = self.base.jets(x, order)
        out = []
        for mu in range(self.n):
            conj = _jet_mul(_jet_mul(wj, cjets[mu]), sj)
            out.append(conj - _jet_mul(wj, sfull.partial(mu)))
        return out


def gauge_transform(h: CliffordFieldVector, c: CovectorField, gauge: GaugeElement,
                    x=None, points=None, membership_tol: float = 1e-9):
    """Transformed pair (S^-1 h S, S^-1 C S - S^-1 dS).

    With x given, returns the two value lists at that point; otherwise
    returns the transformed field objects. Membership of the gauge element
    is validated when points are supplied.
    """
    if points is not None:
        gauge.validate_membership(points, tol=membership_tol)
    ht = TransformedFieldVector(h, gauge)
    ct = TransformedConnection(c, gauge)
    if x is not None:
        return ht.values(x), ct.values(x)
    return ht, ct


class PrimitiveSolution:
    """A field vector with its derived connection and residual reporting."""

    def __init__(self, h: CliffordFieldVector, table: ContractionTable | None = None,
                 conn: DerivedConnection | None = None):
        """Derive the connection of h, or report on conn, an existing derivation from h."""
        if conn is None:
            conn = DerivedConnection(h, table)
        elif conn.h is not h:
            raise CliffordError("conn was derived from a different field vector")
        self.h = h
        self.table = conn.table
        self.c = conn

    def point_report(self, x) -> dict:
        x = _as_point(x, self.h.sig.n)
        # Curvature first: it needs the deepest jets, and computing it
        # before the others warms every memo along the way.
        curvature = float(np.abs(curvature_residual(self.c, x)).max())
        return {
            "point": [float(v) for v in x],
            "primitive_max": float(np.abs(primitive_residual(self.h, self.c, x)).max()),
            "curvature_max": curvature,
            "center_leak": connection_center_leak(self.c, x),
        }

    def campaign(self, points=None) -> dict:
        if points is None:
            points = sample_points(self.h.sig.n)
        entries = [self.point_report(x) for x in np.atleast_2d(points)]
        summary = {}
        for key in ("primitive_max", "curvature_max", "center_leak"):
            vals = [entry[key] for entry in entries]
            summary[key] = {"max": max(vals), "mean": float(np.mean(vals))}
        return {"per_point": entries, "summary": summary}


def solve(h: CliffordFieldVector, table: ContractionTable | None = None) -> PrimitiveSolution:
    return PrimitiveSolution(h, table)
