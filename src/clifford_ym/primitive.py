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
numerical probe; a finite-difference vector carries its base's. The
contraction chain serves only the vectors not flagged (S = exp(vector), any
other subclass). The residuals are computed from C by the same code either
way, so a wrong flag would breach a tolerance rather than pass.

The connection never touches the center (the k = 0 and paired (0, n)
projections are excluded), and a solving C has zero curvature:
d_mu C_nu - d_nu C_mu - [C_mu, C_nu] = 0.

Jets and values are spinor arrays (algebra._Tables); the residual arrays
are returned in blade coordinates, so that their max-norms, and the
tolerances they are held to, are blade max-norms.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    CliffordError,
    Signature,
    tables,
)
from .contraction import build_table, contract_jets, contraction_series
from .fields import (
    CliffordFieldVector,
    GaugeElement,
    JetStack,
    _as_points,
    _nrows,
    conjugate_jets,
    max_per_point,
)


class CovectorField(JetStack):
    """n multivector fields with a lower index, with jets in a JetStack memo.

    The value rows are exact; the derivative rows hold d_nu X_mu only up to
    a part symmetric in (mu, nu), which the curl d_mu X_nu - d_nu X_mu
    cancels. field_strength takes that curl and is the one reader of the
    derivative rows, so it is exact. The symmetric parts left out are the
    second derivatives of h and S, so no jet needs more than first order.
    """

    def flatness(self, h: CliffordFieldVector, x) -> np.ndarray:
        """Max-norm of the primitive residual of the pair (h, self) at each
        of the points x, shape (P,)."""
        return max_per_point(primitive_residual(h, self, x))


def _w_jets(hjets: np.ndarray, sig: Signature) -> np.ndarray:
    """W_mu = (d_mu h^rho) h_rho as first-order jets, shape (P, n, 1 + n, dim),
    from the first-order jets of h.

    The value row is sum_rho eta_rho (d_mu h^rho) h^rho and the gradient
    row nu is sum_rho eta_rho (d_mu h^rho)(d_nu h^rho): the term
    (d_nu d_mu h^rho) h^rho of d_nu W_mu is symmetric in (mu, nu) and left
    out (see CovectorField).
    """
    eta = tables(sig).eta[:, None]
    # eta_rho d_mu h^rho times row r of the jet of h^rho, summed over rho.
    return tables(sig).block_matmul(eta * hjets[:, :, 1:].swapaxes(1, 2), hjets)


def compute_C_jets(hjets: np.ndarray, sig: Signature, *,
                   grade_preserving: bool = False) -> np.ndarray:
    """First-order connection jets (P, n, 1 + n, dim) from the first-order
    field-vector jets (P, n, 1 + n, dim).

    C_mu = sum_l w_l F[h]^l(W_mu) with the collapsed weights w of
    build_table(sig.n). Pass the field vector's grade_preserving flag: where
    it holds, F[h] = F, so this is mu_k times the grade-k part of W_mu, one
    scale per blade, taken in blade coordinates. The gradient rows are exact
    up to a part symmetric in (mu, nu) (see CovectorField): the one of W_mu,
    carried through the linear map F[h]^l.
    """
    if hjets.shape[2] != _nrows(1, sig.n):
        raise CliffordError("field-vector jets must carry first derivatives")
    wjets = _w_jets(hjets, sig)
    table = build_table(sig.n)
    if grade_preserving:
        mus = np.array([0.0 if m is None else float(m) for m in table.mus])
        t = tables(sig)
        return t.to_spinor(t.to_blades(wjets) * mus[t.grades])
    c = contraction_series(wjets, table.weights, lambda v: contract_jets(v, hjets, sig))
    return np.zeros_like(wjets) if c is None else c


class DerivedConnection(CovectorField):
    """The closed-form connection of a field vector, as a lazy covector field.

    Its entry holds the first-order jets of C at the last point set, from
    the first-order jets of h there, and its derived slot, once asked for,
    the flatness maxima of the pair (h, C) there. Those do not depend on
    sigma, so a family of solutions over (h, C) checks them once per point
    set.
    """

    def __init__(self, h: CliffordFieldVector):
        super().__init__(h.sig)
        self.h = h

    def jets(self, x, order: int = 1) -> np.ndarray:
        # The inherited memo, overridden so that a profiler can count the
        # connection's requests apart from every other covector's.
        return super().jets(x, order)

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        # First order on any request: C is built from the derivatives of h.
        return compute_C_jets(self.h.jets(x, 1), self.sig,
                              grade_preserving=self.h.grade_preserving)

    def flatness(self, h: CliffordFieldVector, x) -> np.ndarray:
        """As CovectorField.flatness, kept in the derived slot for the h of
        this connection; any other h is checked afresh."""
        if h is not self.h:
            return super().flatness(h, x)
        return self.derived(x)

    def _derive(self, x: np.ndarray) -> np.ndarray:
        return super().flatness(self.h, x)


def flatness_residual(hjets: np.ndarray, cvalues: np.ndarray, sig: Signature) -> np.ndarray:
    """R_{mu rho} = d_mu h_rho - [C_mu, h_rho] in blade coordinates, shape
    (P, n, n, dim), from the first-order jets (P, n, 1 + n, dim) of h and the
    values (P, n, dim) of C.

    h_rho = eta_rho h^rho is applied after the subtraction, on the rho axis;
    eta_rho = +-1, so that is exact and reads the jets without a lowered copy.
    """
    t = tables(sig)
    eta = t.eta[:, None]
    r = hjets[:, :, 1:].swapaxes(1, 2) - t.commutator_grid(cvalues, hjets[:, :, 0])
    r *= eta
    return t.to_blades(r)


def primitive_residual(h: CliffordFieldVector, c: CovectorField, x) -> np.ndarray:
    """R_{mu rho} = d_mu h_rho - [C_mu, h_rho] at the points x, in blade
    coordinates, shape (P, n, n, dim) (see flatness_residual)."""
    return flatness_residual(h.jets(x, 1), c.values(x), h.sig)


def field_strength(c: CovectorField, x) -> np.ndarray:
    """d_mu C_nu - d_nu C_mu - [C_mu, C_nu] at the points x as spinor arrays,
    antisymmetric, shape (P, n, n, dim)."""
    cs = c.jets(x, 1)
    grad = cs[:, :, 1:].swapaxes(1, 2)  # grad[p, mu, nu] = d_mu C_nu
    return grad - grad.swapaxes(1, 2) - tables(c.sig).commutator_grid(cs[:, :, 0])


def curvature_residual(c: CovectorField, x) -> np.ndarray:
    """The field strength of c at the points x in blade coordinates, shape (P, n, n, dim).

    For any covector, such as the Yang-Mills potential B, this is its field
    strength; a flat connection gives zero.
    """
    return tables(c.sig).to_blades(field_strength(c, x))


class TransformedFieldVector(CliffordFieldVector):
    """Conjugated field vector S^-1 h^mu S, grade-preserving when h is and
    conjugation by S keeps grades."""

    def __init__(self, base: CliffordFieldVector, gauge: GaugeElement):
        if base.sig != gauge.sig:
            raise CliffordError("field vector and gauge element signature mismatch")
        super().__init__(base.sig)
        self.base = base
        self.gauge = gauge
        self.grade_preserving = base.grade_preserving and gauge.bivector_exp

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        base = self.base.jets(x, order)
        sj = self.gauge.jets(x, order)
        return conjugate_jets(self.gauge.inv_jets(x, order)[:, None], base, sj[:, None], self.sig)


def transform_connection(cjets: np.ndarray, sjets: np.ndarray, wjets: np.ndarray,
                         sig: Signature) -> np.ndarray:
    """Jets of S^-1 C_mu S - S^-1 d_mu S, shape (P, n, rows, dim), from the
    jets cjets (P, n, rows, dim) of C, the first-order jets sjets of S and
    the jets wjets of S^-1 with the rows of cjets.
    """
    conj = conjugate_jets(wjets[:, None], cjets, sjets[:, None, :cjets.shape[2]], sig)
    # wds[p, r, mu] = (row r of the jet of S^-1) d_mu S: row 0 is S^-1 d_mu S
    # and row 1 + nu its gradient without S^-1 d_nu d_mu S, which is
    # symmetric in (mu, nu) (see CovectorField).
    wds = tables(sig).batch_product(wjets, sjets[:, 1:])
    return conj - wds.swapaxes(1, 2)


class TransformedConnection(CovectorField):
    """Gauge-transformed connection S^-1 C_mu S - S^-1 d_mu S (transform_connection)."""

    def __init__(self, base: CovectorField, gauge: GaugeElement):
        if base.sig != gauge.sig:
            raise CliffordError("covector and gauge element signature mismatch")
        super().__init__(base.sig)
        self.base = base
        self.gauge = gauge

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        sjets = self.gauge.jets(x, 1)
        return transform_connection(self.base.jets(x, order), sjets,
                                    self.gauge.inv_jets(x, order), self.sig)


def gauge_transform(h: CliffordFieldVector, c: CovectorField, gauge: GaugeElement):
    """Transformed field objects (S^-1 h S, S^-1 C S - S^-1 dS)."""
    return TransformedFieldVector(h, gauge), TransformedConnection(c, gauge)


def point_report(s, points, rows) -> dict:
    """The one reducer: each row (key, residual) gives the blade array
    residual(s, points), reduced at once by max_per_point, into {"samples": P,
    key: largest value, ..., "per_point": [{"point": [...], key: value, ...}]}.
    A non-finite maximum is reported and fails its check; an empty residual raises."""
    pts = _as_points(points, s.h.sig.n)
    report = {"samples": len(pts)}
    entries = [{"point": x} for x in pts.tolist()]
    for key, residual in rows:
        with np.errstate(over="ignore", invalid="ignore"):
            r = residual(s, pts)
            if not r.size:
                raise CliffordError(f"the {key} residual has no entries to certify")
            vals = max_per_point(r)
        report[key] = float(np.max(vals))  # np.max keeps a NaN
        for entry, v in zip(entries, vals.tolist()):
            entry[key] = v
    report["per_point"] = entries
    return report


# The certified residuals of a pair (h, C), free of sigma, as point_report
# rows for any s with .h and .c; center_leak reads the central part of C.
PAIR_ROWS = (("primitive_max", lambda s, x: primitive_residual(s.h, s.c, x)),
             ("curvature_max", lambda s, x: curvature_residual(s.c, x)),
             ("center_leak", lambda s, x: (t := tables(s.c.sig)).to_blades(s.c.values(x))[..., t.center]))


class PrimitiveSolution:
    """A derived connection with residual reporting on its field vector."""

    def __init__(self, conn: DerivedConnection):
        self.h = conn.h
        self.c = conn

    def campaign(self, points) -> dict:
        """The point_report of PAIR_ROWS."""
        return point_report(self, points, PAIR_ROWS)


def solve(h: CliffordFieldVector) -> PrimitiveSolution:
    return PrimitiveSolution(DerivedConnection(h))
