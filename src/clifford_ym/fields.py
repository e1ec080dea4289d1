"""Multivector-valued fields over R^{p,q} and their differentiation.

Coordinates are Cartesian, x = (x^1, ..., x^n), and generators are constant:
all derivatives act on blade coefficients only. Two field flavors exist:

  - polynomial: rows of monomial exponents and their blade coefficients,
    differentiated exactly;
  - analytic: built compositions (exponentials, conjugations, frame
    combinations) whose derivatives propagate exactly through jets.

Everything is evaluated at an array of P sample points at once, and a
single point is a batch of one. A jet carries the value and the
first-order partial derivatives of a field, the highest order there is, as
an array of shape (P, rows, 2^n) with rows = 1 + n (1 for values alone);
field vectors and covectors stack their n components into (P, n, rows,
2^n). Jets and values are spinor arrays (see algebra._Tables):
fields convert their blade coefficients once, at the edges, and jets
multiply as block matrices by the product rule, so exact derivatives of
deeply composed fields like y^mu_a(x) S(x)^-1 e^a S(x) come out to machine
precision, which the residual tolerances need.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    SeriesDivergence,
    Signature,
    invert_spinor_rows,
    tables,
)


class ConfigError(CliffordError):
    """Malformed or out-of-range run configuration."""


def _integer(value, key: str) -> int:
    """An integer config entry; booleans, fractional numbers and strings are refused,
    not truncated or parsed."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _real(value, key: str, positive: bool = False) -> float:
    """A finite number (and > 0 when positive) from a config entry; booleans and
    strings are refused, not converted or parsed."""
    try:
        out = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out) or (positive and out <= 0):
        kind = "finite positive" if positive else "finite"
        raise ConfigError(f"{key} must be a {kind} number, got {value!r}")
    return out


class DimensionMismatch(CliffordError):
    """Point length does not match the field's coordinate dimension."""


class FrameError(CliffordError):
    """Frame matrix or rotation generator fails the orthogonality condition."""


class GaugeMembershipError(CliffordError):
    """Gauge element leaves the admissible class at some sample point."""

    def __init__(self, message: str, point=None, leak: float | None = None):
        super().__init__(message)
        self.point = point
        self.leak = leak


class FieldVectorError(CliffordError):
    """Clifford field vector fails a defining identity at some sample point."""


def _as_points(x, n: int) -> np.ndarray:
    """Sample points as a (P, n) float array; one point of length n is a batch of one."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DimensionMismatch(f"expected points of length {n}, got shape {np.shape(x)}")
    return arr


def _same_points(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, so a cached jet stack cannot be changed through a caller's view."""
    arr.flags.writeable = False
    return arr


# Jet component layout: row 0 is the value, rows 1..n the gradient.
def _nrows(order: int, n: int) -> int:
    if order not in (0, 1):
        raise CliffordError(f"jet order must be 0 or 1, got {order}")
    return 1 + n * order


@lru_cache(maxsize=None)
def _derivative_rows(n: int, order: int) -> np.ndarray:
    """Multi-index of the derivative each jet row holds, shape (rows, n)."""
    rows = np.vstack([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
    return rows[:_nrows(order, n)]


def _unit_jets(sig: Signature, count: int, order: int) -> np.ndarray:
    """Jets of the constant field e at count points."""
    out = np.zeros((count, _nrows(order, sig.n), sig.dim), dtype=np.complex128)
    out[:, 0] = tables(sig).unit
    return out


def _jet_mul(a: np.ndarray, b: np.ndarray, sig: Signature) -> np.ndarray:
    """Product jets a * b of spinor jets, shape (..., rows, dim), by the product rule.

    a and b have shape (..., rows, dim) with broadcasting leading axes;
    mixed orders truncate to the lower one. Two blocks of pairwise products
    are needed, each one matrix product per leading index and block: the
    value times every row, and every row times the value.
    """
    rows = min(a.shape[-2], b.shape[-2])
    a = a[..., :rows, :]
    b = b[..., :rows, :]
    t = tables(sig)
    if rows == 1:
        return t.product(a, b)
    out = t.batch_product(a[..., :1, :], b)[..., 0, :, :]
    value = out[..., 0, :].copy()
    out += t.batch_product(a, b[..., :1, :])[..., 0, :]
    out[..., 0, :] = value
    return out


def conjugate_jets(wj: np.ndarray, xj: np.ndarray, sj: np.ndarray, sig: Signature) -> np.ndarray:
    """W X S of spinor jets (..., rows, dim) with broadcasting leading axes, W =
    S^-1, by the product rule: the one conjugation kernel."""
    return _jet_mul(_jet_mul(wj, xj, sig), sj, sig)


class MultivectorField:
    """Base interface: a map from R^n to Cl(p,q) with a differentiation policy."""

    def __init__(self, sig: Signature):
        self.sig = sig

    def value(self, x) -> np.ndarray:
        """Values at the points x, shape (P, dim)."""
        return self.jet(x, 0)[:, 0]

    def jet(self, x, order: int = 1) -> np.ndarray:
        """Jets at the points x, shape (P, rows, dim)."""
        raise NotImplementedError


class PolyField(MultivectorField):
    """Field with polynomial blade coefficients; derivatives are exact.

    exps is a (T, n) array of integer monomial exponent rows E (booleans,
    fractions and values past int64 are refused) and coeffs a (T, dim)
    array of blade coefficient rows, so the field is
    sum_t x^(E_t) sum_m coeffs[t, m] e_m. The constructor puts them in
    canonical form: rows in increasing lexicographic order, repeated rows
    summed in input order, all-zero rows dropped.

    Jet row r holds the derivative D^d (d = _derivative_rows(n, 1)[r], zero
    or a unit vector), and D^d x^E = c x^(E - d) with c = E_i for d = e_i
    and c = 1 for d = 0, which is 0 exactly when some E_i < d_i. The
    constructor keeps those factors (1 + n, T) and exponents (1 + n, T, n)
    and the coefficient rows as spinor arrays; a jet of order 0 reads their
    first row.
    """

    def __init__(self, sig: Signature, exps, coeffs):
        super().__init__(sig)
        n = sig.n
        exps = np.asarray(exps)
        if exps.dtype.kind == "f":
            exact = np.all((exps == np.floor(exps)) & (abs(exps) < 2.0 ** 63))
        else:  # integers are compared as integers: 2^63 - 1 has no float
            exact = exps.dtype.kind in "iu" and np.all(exps <= np.iinfo(np.int64).max)
        if not exact:
            raise CliffordError("monomial exponents must be integers below 2^63, not "
                                f"booleans or fractions, got {exps.tolist()!r}")
        exps = exps.astype(np.int64)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if exps.ndim != 2 or exps.shape[1] != n or coeffs.shape != (len(exps), sig.dim):
            raise CliffordError(f"need (T, {n}) exponent rows and (T, {sig.dim}) coefficient "
                                f"rows, got {exps.shape} and {coeffs.shape}")
        if (exps < 0).any():
            raise CliffordError("monomial exponents must be nonnegative")
        order = np.lexsort(exps.T[::-1])  # stable: repeated rows keep input order
        exps, coeffs = exps[order], coeffs[order]
        first = np.ones(len(exps), dtype=bool)
        first[1:] = (exps[1:] != exps[:-1]).any(axis=1)
        coeffs = np.add.reduceat(coeffs, np.flatnonzero(first), axis=0)
        keep = coeffs.any(axis=1)
        self.exps = exps[first][keep]
        self.coeffs = coeffs[keep]
        d = _derivative_rows(n, 1)[:, None, :]
        self._factors = np.where(d > 0, self.exps, 1).prod(axis=-1).astype(float)
        # Clipped so that a vanishing term never evaluates 0 ** -1.
        self._powers = np.maximum(self.exps - d, 0)
        self._spinor = tables(sig).to_spinor(self.coeffs)

    @classmethod
    def constant(cls, sig: Signature, mv) -> "PolyField":
        return cls(sig, np.zeros((1, sig.n), dtype=np.int64), mv.coeffs[None])

    def jet(self, x, order: int = 1) -> np.ndarray:
        x = _as_points(x, self.sig.n)
        rows = _nrows(order, self.sig.n)
        # Monomial values per point, row and monomial: (P, R, T) @ (T, dim). The
        # value row is a product of its own, so its bits do not depend on the order.
        mono = self._factors[:rows] * np.prod(x[:, None, None, :] ** self._powers[:rows], axis=-1)
        return np.concatenate([mono[:, :1] @ self._spinor, mono[:, 1:] @ self._spinor], axis=1)

    def grades_present(self) -> tuple[int, ...]:
        g = tables(self.sig).grades
        return tuple(sorted(set(g[self.coeffs.any(axis=0)].tolist())))


def poly_rows(sig: Signature, data, key: str, mask: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (T, n) and coefficient rows (T, dim), on blade mask, of
    a JSON polynomial {"monomials": [{"exps": [n integers], "coeff": [re, im]}, ...]}.

    Exponents follow the integer rule of config entries and lie in
    0..2^63 - 1; a coefficient is a list of two finite numbers. Anything
    else raises ConfigError naming key.
    """
    monos = data.get("monomials") if isinstance(data, dict) else None
    if not isinstance(monos, list):
        raise ConfigError(f"{key} must be an object with a 'monomials' list")
    exps = np.zeros((len(monos), sig.n), dtype=np.int64)
    coeffs = np.zeros((len(monos), sig.dim), dtype=np.complex128)
    for t, mono in enumerate(monos):
        where = f"{key}.monomials[{t}]"
        e, c = (mono.get("exps"), mono.get("coeff")) if isinstance(mono, dict) else (None, None)
        if not isinstance(e, list) or len(e) != sig.n:
            raise ConfigError(f"{where}.exps must be a list of {sig.n} integers, got {e!r}")
        if not isinstance(c, list) or len(c) != 2:
            raise ConfigError(f"{where}.coeff must be a [re, im] pair, got {c!r}")
        row = [_integer(v, f"{where}.exps") for v in e]
        if not all(0 <= v <= np.iinfo(np.int64).max for v in row):
            raise ConfigError(f"{where}.exps must lie in 0..2^63 - 1, got {e!r}")
        exps[t] = row
        coeffs[t, mask] = complex(_real(c[0], f"{where}.coeff"), _real(c[1], f"{where}.coeff"))
    return exps, coeffs


def fd_jet(valuefn, sig: Signature, x, order: int, step: float) -> np.ndarray:
    """First-order finite-difference jets of a batched evaluator, shape (P, ..., rows, dim).

    valuefn maps an (M, n) point array to values of shape (M, ..., dim);
    every stencil point of every sample point goes to it in one batch.
    Gradient rows use second-order central differences with the given step.
    """
    n = sig.n
    x = _as_points(x, n)
    stencil = [x]
    for e in step * np.eye(n)[:_nrows(order, n) - 1]:
        stencil += [x + e, x - e]
    flat = valuefn(np.concatenate(stencil))
    vals = flat.reshape((len(stencil), len(x)) + flat.shape[1:])
    rows = [vals[0]] + [(vals[k] - vals[k + 1]) / (2 * step) for k in range(1, len(stencil), 2)]
    return np.stack(rows, axis=-2)


# ExpField's series stops at terms below _EXP_TOL and fails past _EXP_MAX_TERMS.
_EXP_TOL = 1e-14
_EXP_MAX_TERMS = 64


class ExpField(MultivectorField):
    """Pointwise exponential of a generator field, with exact series jets.

    The jet of exp(A(x)) is the jet-series sum of A(x)-jet powers over k!,
    which at order 0 is the value series, term by term. The series runs
    until every point's term is below _EXP_TOL, and each point stops
    accumulating at its own first such term, so a point's jet does not
    depend on the batch it is evaluated in. The value row stops on its own
    term, so it is the value series at either order; the gradient rows stop
    on the whole jet's. The stop reads the largest entry of the spinor
    array, which bounds its largest blade coefficient from above: it can
    cost an extra term, never stop early. A term that is not finite ends
    the series at once.
    """

    def __init__(self, generator: MultivectorField):
        super().__init__(generator.sig)
        self.generator = generator

    def jet(self, x, order: int = 1) -> np.ndarray:
        a = self.generator.jet(_as_points(x, self.sig.n), order)
        acc = _unit_jets(self.sig, len(a), order)
        term = acc
        live = np.ones(acc.shape[:2] + (1,), dtype=bool)  # per point and row
        for k in range(1, _EXP_MAX_TERMS + 1):
            term = _jet_mul(term, a, self.sig) / k
            np.add(acc, term, out=acc, where=live)
            mag = np.abs(term)
            norms = mag.max(axis=(1, 2), initial=0.0)
            if not np.isfinite(norms).all():
                raise SeriesDivergence(f"exponential jet series term {k} is not finite", float(norms.max()))
            live[:, 1:] &= ~(norms < _EXP_TOL)[:, None, None]
            live[:, 0, 0] &= ~(mag[:, 0].max(axis=1, initial=0.0) < _EXP_TOL)
            if not live.any():
                return acc
        raise SeriesDivergence(
            f"exponential jet series did not reach tol={_EXP_TOL} within {_EXP_MAX_TERMS} terms",
            float(norms[live.any(axis=(1, 2))].max()),
        )


def exponential(u: Multivector) -> Multivector:
    """exp(u) by ExpField's series at one point, that of the constant field u;
    raises SeriesDivergence where the series does."""
    s = ExpField(PolyField.constant(u.sig, u)).jet(np.zeros((1, u.sig.n)), 0)[0, 0]
    return Multivector(u.sig, tables(u.sig).to_blades(s), copy=False)


def invert_value_jet(sjet: np.ndarray, sig: Signature) -> np.ndarray:
    """Jets of the pointwise inverse field from the jets (P, rows, dim) of the field.

    The jets are of first order at most; the gradient rows follow from
    d(W) = -W dS W for W = S^-1. The value is inverted block by block
    (invert_spinor_rows), whose bound reads the blade rows of S and S^-1.
    """
    t = tables(sig)
    w = invert_spinor_rows(sig, sjet[:, 0], t.to_blades(sjet[:, 0]))[0][:, None]
    out = np.empty_like(sjet)
    out[:, :1] = w
    if sjet.shape[1] > 1:
        out[:, 1:] = -1.0 * t.product(t.product(w, sjet[:, 1:]), w)
    return out


# Numerator coefficients b_0..b_m of the [m/m] Pade approximant to exp, and
# theta_m, the largest eta for which that approximant meets unit roundoff in
# double precision (Al-Mohy & Higham 2009, Table 3.1).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """[m/m] Pade approximant (V - U)^-1 (V + U), U and V the odd and even parts,
    of a matrix or a stack of matrices.

    Even powers up to A^6 are formed; degree 13 nests A^6 to reach A^12
    (Higham 2005, eq. 2.4).
    """
    b = _PADE[m]
    top = 3 if m == 13 else m // 2
    powers = [np.eye(a.shape[-1]), a @ a]
    while len(powers) <= top:
        powers.append(powers[-1] @ powers[1])
    u = v = 0.0
    if m == 13:
        a6 = powers[3]
        u = a6 @ (b[13] * a6 + b[11] * powers[2] + b[9] * powers[1])
        v = a6 @ (b[12] * a6 + b[10] * powers[2] + b[8] * powers[1])
    for k in range(top + 1):
        u = u + b[2 * k + 1] * powers[k]
        v = v + b[2 * k] * powers[k]
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """Matrix exponential of a small real square matrix, or of a stack of them,
    by scaling and squaring.

    Degree and scaling follow Al-Mohy & Higham (2009), Algorithm 5.1: the
    bounds eta use d_k = ||A^k||_1^(1/k), here from exact powers since frame
    generators are at most n x n, and the overscaling correction ell(A, m)
    is left out. A stack takes one degree and scaling, those its largest
    d_k asks for. A matrix whose 1-norm is not finite gives a stack of NaN,
    and one whose squarings overflow gives inf or NaN entries; the frame
    checks refuse both.
    """
    a = np.asarray(a, dtype=float)
    norm = np.max(np.linalg.norm(a, 1, axis=(-2, -1)), initial=0.0)
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    if norm == 0.0:
        return np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy()
    # Powers of A / ||A|| cannot overflow, whatever the norm.
    d = {k: norm * np.max(np.linalg.norm(np.linalg.matrix_power(a / norm, k), 1,
                                         axis=(-2, -1)), initial=0.0) ** (1.0 / k)
         for k in (4, 6, 8, 10)}
    for m, eta in ((3, max(d[4], d[6])), (5, max(d[4], d[6])),
                   (7, max(d[6], d[8])), (9, max(d[6], d[8]))):
        if eta <= _THETA[m]:
            return _pade(a, m)
    eta = min(max(d[6], d[8]), max(d[8], d[10]))
    s = max(0, math.ceil(math.log2(eta / _THETA[13])))
    r = _pade(a / 2.0 ** s, 13)
    for _ in range(s):
        r = r @ r
    return r


class FrameField:
    """n x n real frame y^mu_a(x) with y eta y^T = eta pointwise.

    A frame is constant, the pseudo-orthogonal matrix base (the identity
    when base is None), unless it has a pseudo-rotation generator M and a
    real scalar PolyField t: then it is the rotation exp(t(x) M) base, whose
    derivatives are closed form: d_nu Y = (d_nu t) M Y.

    The constructor checks the base matrix, and for rotations the generator
    and the parameter, so every frame is pseudo-orthogonal at every point by
    construction; field vectors rely on this for their contraction shortcut.
    """

    def __init__(self, sig: Signature, base=None, generator=None,
                 poly: PolyField | None = None, tol: float = 1e-10):
        n = sig.n
        self.base = np.eye(n) if base is None else np.asarray(base, dtype=float)
        if self.base.shape != (n, n):
            raise FrameError(f"frame matrix must be {n}x{n}, got {self.base.shape}")
        res = float(_orthogonality_residual(sig, self.base))
        if not res <= tol:  # NaN entries fail too
            raise FrameError(f"matrix fails y eta y^T = eta by {res:.3e} (tol {tol:.1e})")
        if generator is not None:
            generator = np.asarray(generator, dtype=float)
            if generator.shape != (n, n):
                raise FrameError(f"rotation generator must be {n}x{n}")
            eta = np.diag(tables(sig).eta)
            # exp(tM) stays pseudo-orthogonal iff M eta + eta M^T = 0
            if not np.max(np.abs(generator @ eta + eta @ generator.T)) <= 1e-12:
                raise FrameError("rotation generator is not in the pseudo-orthogonal Lie algebra")
            if not (isinstance(poly, PolyField) and poly.sig == sig
                    and poly.grades_present() in ((), (0,))):
                raise FrameError(f"rotation parameter must be a scalar PolyField over {sig}")
            # A real parameter keeps exp(tM) real, and its derivatives with it.
            if poly.coeffs.imag.any():
                raise FrameError("rotation parameter must have real coefficients")
        elif poly is not None:
            raise FrameError("a constant frame takes no rotation parameter")
        self.sig = sig
        self.generator = generator
        self.poly = poly

    def matrix(self, x) -> np.ndarray:
        """Frame matrices at the points x, shape (P, n, n)."""
        return self.jets(x, 0)[0]

    def jets(self, x, order: int = 1):
        """Returns the first-order jets (Y, dY) at the points x: Y (P, n, n)
        and dY[p, nu, mu, a] = d_nu y^mu_a, None at order 0 and for a
        constant frame."""
        x = _as_points(x, self.sig.n)
        first = _nrows(order, self.sig.n) > 1
        if self.generator is None:
            return np.broadcast_to(self.base, (len(x),) + self.base.shape).copy(), None
        # The first spinor entry of a field with a scalar part only is that part.
        tj = self.poly.jet(x, order)[:, :, 0].real
        y = expm(tj[:, 0, None, None] * self.generator) @ self.base
        dy = np.einsum("pn,pma->pnma", tj[:, 1:], self.generator @ y) if first else None
        return y, dy

    def validate(self, points, tol: float = 1e-10) -> float:
        """Max orthogonality residual over the points; raises on breach."""
        pts = _as_points(points, self.sig.n)
        res = _orthogonality_residual(self.sig, self.matrix(pts))
        bad = np.flatnonzero(~(res <= tol))  # NaN entries fail too
        if bad.size:
            p = bad[0]
            raise FrameError(f"frame fails orthogonality at {pts[p].tolist()}: residual {res[p]:.3e}")
        return float(res.max(initial=0.0))


def _orthogonality_residual(sig: Signature, y: np.ndarray) -> np.ndarray:
    """max |y eta y^T - eta| over each n x n matrix of y, shape y.shape[:-2]."""
    eta = np.diag(tables(sig).eta)
    return np.abs(y @ eta @ y.swapaxes(-1, -2) - eta).max(axis=(-2, -1), initial=0.0)


def make_frame_field(sig: Signature, spec: dict) -> FrameField:
    """Build a frame from a JSON-style spec: identity, constant, or rotation."""
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return FrameField(sig)
    if kind not in ("constant", "rotation"):
        raise FrameError(f"unknown frame kind {kind!r}")

    def numbers(v):
        arr = np.asarray(v)
        if arr.dtype.kind not in "iuf":  # a float cast would parse strings
            raise ValueError(f"entries must be numbers, got {v!r}")
        return arr.astype(float)

    def entry(key, parse=numbers):
        if key not in spec:
            raise FrameError(f"{kind} frame spec needs a {key!r} entry")
        try:
            return parse(spec[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(f"frame {key} is malformed: {exc}") from None

    if kind == "constant":
        return FrameField(sig, entry("matrix"))
    poly = entry("poly", lambda v: PolyField(sig, *poly_rows(sig, v, "frame.poly")))
    base = entry("base") if spec.get("base") is not None else None
    return FrameField(sig, base, entry("generator"), poly)


def random_frame(sig: Signature, rng: np.random.Generator, scale: float = 0.4) -> FrameField:
    """Random constant pseudo-orthogonal frame exp(S eta), S antisymmetric."""
    n = sig.n
    s = rng.standard_normal((n, n)) * scale
    s = s - s.T
    return FrameField(sig, expm(s @ np.diag(tables(sig).eta)), tol=1e-9)


class JetStack:
    """One-entry memo of jets, with the jet-row axis second from the end:
    the jets (P, rows, dim) of a gauge element, or the n stacked jets
    (P, n, rows, dim) of a field vector or covector. Subclasses implement
    _compute_jets(x, order), and those with a derived slot _derive(x).

    The entry holds the read-only jets at the last point set asked about.
    A request for values alone computes values alone; any derivative brings
    the jets to first order, the highest there is. The entry's one derived
    slot (derived) is built from the first-order jets, so it never depends
    on which order was asked for first.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n = sig.n
        self._entry: list | None = None  # [points, jets, derived slot or None]

    def values(self, x) -> np.ndarray:
        """The values at the points x, the jets without their row axis."""
        return self.jets(x, 0)[..., 0, :]

    def jets(self, x, order: int = 1) -> np.ndarray:
        """The jets at the points x, shape (P, rows, dim) or (P, n, rows, dim)."""
        x = _as_points(x, self.n)
        rows = _nrows(order, self.n)
        entry = self._entry
        if entry is None or not _same_points(entry[0], x) or entry[1].shape[-2] < rows:
            entry = self._entry = [x.copy(), _frozen(self._compute_jets(x, order)), None]
        return entry[1][..., :rows, :]

    def derived(self, x):
        """_derive at the points x, kept in the entry, read-only. It runs once
        per point set, after the entry holds the first-order jets, so
        whatever it reads through this memo comes from them."""
        self.jets(x, 1)
        entry = self._entry
        if entry[2] is None:
            out = self._derive(entry[0])
            entry[2] = tuple(map(_frozen, out)) if isinstance(out, tuple) else _frozen(out)
        return entry[2]


class GaugeElement(JetStack):
    """Invertible field S(x) whose logarithmic derivatives avoid the center.

    bivector_exp is set, from the type of the field alone, when S = exp(B)
    for a PolyField B with no grade but 2. Reversion is an anti-automorphism
    that negates bivectors, so reversion(exp B) = exp(-B) = S^-1: the
    inverse jets are the reversions of those of S, a signed gather of their
    spinor entries (_Tables.reverse), and conjugation by S keeps every
    grade. Any other invertible field falls back to the per-block inverse
    and the inverse-jet formula (invert_value_jet).

    The JetStack entry holds the jets of S, read through jets and values;
    inv_jets forms the jets of S^-1 from them on every request, in either
    branch.
    """

    def __init__(self, s_field: MultivectorField):
        super().__init__(s_field.sig)
        self.s_field = s_field
        gen = s_field.generator if isinstance(s_field, ExpField) else None
        self.bivector_exp = isinstance(gen, PolyField) and set(gen.grades_present()) <= {2}

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        return self.s_field.jet(x, order)

    def _memo_jet(self, x, order: int, inverse_side: bool) -> np.ndarray:
        # Every request for S or S^-1 passes here, so that a profiler can
        # count them, and the computes under them, in one place.
        sjet = super().jets(x, order)
        if not inverse_side:
            return sjet
        if self.bivector_exp:
            return _frozen(tables(self.sig).reverse(sjet))
        return _frozen(invert_value_jet(sjet, self.sig))

    def jets(self, x, order: int = 1) -> np.ndarray:
        """Jets of S at the points x, shape (P, rows, dim)."""
        return self._memo_jet(x, order, False)

    def inv_jets(self, x, order: int = 1) -> np.ndarray:
        """Jets of S^-1 at the points x, shape (P, rows, dim)."""
        return self._memo_jet(x, order, True)

    def connection(self, x) -> np.ndarray:
        """S^-1 d_mu S at the points x, shape (P, n, dim)."""
        sj = self.jets(x, 1)
        return tables(self.sig).product(self.inv_jets(x, 0), sj[:, 1:])

    def membership_report(self, points) -> tuple[float, np.ndarray | None]:
        """Worst center leak of S^-1 dS over the points, with its argmax."""
        pts = _as_points(points, self.sig.n)
        if not len(pts):
            return 0.0, None
        t = tables(self.sig)
        leaks = np.abs(t.to_blades(self.connection(pts))[..., t.center]).max(axis=(1, 2))
        p = int(np.argmax(leaks))
        return float(leaks[p]), (pts[p] if leaks[p] != 0 else None)

    def validate_membership(self, points, tol: float = 1e-9) -> float:
        leak, where = self.membership_report(points)
        if not leak <= tol:
            raise GaugeMembershipError(
                f"gauge element leaves the admissible class: center leak {leak:.3e} "
                f"at point {None if where is None else where.tolist()}",
                point=where, leak=leak,
            )
        return leak


def make_gauge_element(a_field: PolyField) -> GaugeElement:
    """Gauge element S = exp(A) from a generator field A.

    A must be a pure-bivector PolyField, which keeps S^-1 dS inside the
    grade-2 subalgebra and hence away from the center structurally.
    """
    if not isinstance(a_field, PolyField):
        raise CliffordError(f"a gauge generator must be a PolyField, got {type(a_field).__name__}")
    grades = a_field.grades_present()
    if any(g != 2 for g in grades):
        raise GaugeMembershipError(f"generator field has grades {grades}; pure bivector required")
    return GaugeElement(ExpField(a_field))


def random_bivector_poly_field(sig: Signature, rng: np.random.Generator,
                               scale: float = 0.25, degree: int = 2) -> PolyField:
    """Random bivector-valued polynomial generator with bounded coefficients.

    Per bivector blade, in blade order: a constant, the n linear terms and,
    for degree >= 2, the quadratic terms x^i x^j (i <= j, row-major) at half
    the amplitude, all drawn from one uniform draw.
    """
    n = sig.n
    masks = np.flatnonzero(tables(sig).grades == 2)
    amp = scale / max(1.0, np.sqrt(len(masks)))
    eye = np.eye(n, dtype=np.int64)
    i, j = np.triu_indices(n) if degree >= 2 else ([], [])
    exps = np.concatenate([np.zeros((1, n), dtype=np.int64), eye, eye[i] + eye[j]])
    draws = rng.uniform(-amp, amp, size=(len(masks), len(exps)))
    draws[:, 1 + n:] *= 0.5
    coeffs = np.zeros((len(exps), sig.dim), dtype=np.complex128)
    coeffs[:, masks] = draws.T
    return PolyField(sig, exps, coeffs)


class CliffordFieldVector(JetStack):
    """n multivector fields h^mu forming a moving copy of the generator set.

    validate reads the value rows of its first-order jets, which a run reads
    next anyway, and its derived slot keeps the bracket grids of h.

    grade_preserving is True only where the construction guarantees that
    the h-contraction F[h](U) = sum_rho eta_rho h^rho U h^rho is the plain
    generator contraction F at every point, so h-grades are blade grades;
    the connection solver then skips the contraction chain. It is set from
    types, never from a numerical probe, and defaults to False.
    """

    grade_preserving = False

    def jets(self, x, order: int = 1) -> np.ndarray:
        # Defined here so that a profiler can count the field vector's requests.
        return super().jets(x, order)

    def bracket_grids(self, x) -> tuple[np.ndarray, np.ndarray]:
        """K^munu = [h^mu, h^nu], shape (P, n, n, dim), and
        D^nu = [sum_mu d_mu h^mu, h^nu] + sum_mu [h^mu, d_mu h^nu], shape
        (P, n, dim), at the points x, from the first-order jets.

        The sigma-free parts of a Yang-Mills solution on h: G^munu =
        -sigma^2 K^munu and sum_mu d_mu G^munu = -sigma^2 D^nu, kept in the
        derived slot, so a family of solutions over h forms them once.
        """
        return self.derived(x)

    def _derive(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _bracket_grids(self.jets(x, 1), self.sig)

    def validate(self, points, tol: float = 1e-10) -> dict:
        """Check the defining identities at the points; raise on breach.

        Returns {"anticommutation": max residual, "trace_product": max |Tr|,
        "circ_leak": max center leak}.
        """
        t = tables(self.sig)
        vals = self.jets(points, 1)[:, :, 0]
        prods = t.batch_product(vals, vals)  # prods[p, mu, nu] = h^mu h^nu
        anti = t.to_blades(prods + prods.swapaxes(1, 2))
        anti[:, range(self.n), range(self.n), 0] -= 2.0 * t.eta
        worst_trace = 0.0
        if self.n % 2 == 1:
            prod = vals[:, 0]
            for mu in range(1, self.n):
                prod = t.product(prod, vals[:, mu])
            worst_trace = float(np.abs(t.to_blades(prod)[:, 0]).max(initial=0.0))
        report = {
            "anticommutation": float(np.abs(anti).max(initial=0.0)),
            "trace_product": worst_trace,
            "circ_leak": float(np.abs(t.to_blades(vals)[..., t.center]).max(initial=0.0)),
        }
        if not all(v <= tol for v in report.values()):  # NaN fails too
            raise FieldVectorError(
                "field vector fails its defining identities: "
                + ", ".join(f"{k}={v:.3e}" for k, v in report.items())
            )
        return report


def _bracket_grids(hjets: np.ndarray, sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """K^munu and D^nu (see CliffordFieldVector.bracket_grids) from the
    first-order jets (P, n, 1 + n, dim) of a field vector."""
    t = tables(sig)
    hv = hjets[:, :, 0]
    dh = hjets[:, :, 1:].swapaxes(1, 2)  # dh[p, mu, nu] = d_mu h^nu
    div = np.trace(dh, axis1=1, axis2=2)
    return (t.commutator_grid(hv),
            t.commutator_grid(div[:, None], hv)[:, 0] + t.commutator_sum(hv, dh))


class FrameGaugeFieldVector(CliffordFieldVector):
    """h^mu(x) = y^mu_a(x) S(x)^-1 e^a S(x).

    Every FrameField is pseudo-orthogonal, y^T eta y = eta, so F[h](U) =
    S^-1 F(S U S^-1) S; when S = exp(bivector) conjugation keeps grades and
    this is F(U), which makes the vector grade-preserving.
    """

    def __init__(self, frame: FrameField, gauge: GaugeElement):
        if frame.sig != gauge.sig:
            raise CliffordError("frame and gauge element live in different algebras")
        super().__init__(frame.sig)
        self.frame = frame
        self.gauge = gauge
        self.grade_preserving = gauge.bivector_exp

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        sj = self.gauge.jets(x, order)
        wj = self.gauge.inv_jets(x, order)
        y, dy = self.frame.jets(x, order)
        sig = self.sig
        n = self.n
        # k[p, a] = S^-1 e^a S; the spinor gamma_a has one unit-modulus
        # entry per row and column, so right-multiplying by it is exact.
        t = tables(sig)
        k = _jet_mul(t.batch_product(wj, t.generators).swapaxes(1, 2), sj[:, None], sig)
        # h^mu = sum_a y^mu_a k_a, summed in order of a.
        h = y[:, :, 0, None, None] * k[:, None, 0]
        for a in range(1, n):
            h += y[:, :, a, None, None] * k[:, None, a]
        if dy is not None:
            h[:, :, 1:] += np.einsum("pvua,pak->puvk", dy, k[:, :, 0])
        return h


class FiniteDifferenceVector(CliffordFieldVector):
    """Wraps a field vector so its jets come from finite differences only.

    All components share one stencil, so the base vector's values are
    evaluated once for every stencil point of every sample point.
    """

    def __init__(self, base: CliffordFieldVector, step: float = 1e-5):
        super().__init__(base.sig)
        self.base = base
        self.step = float(step)

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        return fd_jet(self.base.values, self.sig, x, order, self.step)


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _scrambled_halton(d: int, count: int, seed: int) -> np.ndarray:
    """First count points of Owen's randomized Halton sequence in [0, 1)^d.

    Coordinate k is the van der Corput radical inverse in the k-th prime
    base b with every digit position j scrambled by its own random
    permutation of 0..b-1 (A. B. Owen, "A randomized Halton algorithm in R",
    arXiv:1706.02808). Digits run while b^-(j+1) > 2^-54, so the leading
    zero digits of every index are scrambled too. One generator seeded with
    seed shuffles the permutation rows of all bases in turn, and the digits
    are summed in ascending order; tests/test_oracles.py checks that this
    matches the reference implementation of the algorithm bit for bit.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(count, dtype=np.int64)
    out = np.empty((count, d))
    for col, base in enumerate(_first_primes(d)):
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.repeat(np.arange(base)[None], digits, axis=0), axis=1)
        # Digit j of every index, and its weight b^-(j+1) by repeated division.
        pos = np.arange(digits)
        digit = index[:, None] // base ** pos % base
        weights = np.divide.accumulate(np.r_[1.0 / base, np.full(digits - 1, float(base))])
        terms = perms[pos, digit] * weights
        out[:, col] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def sample_points(n: int, count: int = 16, box=(-1.0, 1.0), seed: int = 0) -> np.ndarray:
    """Deterministic quasi-random sample points in a box, origin first.

    Uses a scrambled Halton sequence; returns count + 1 rows of length n,
    the origin and then the sequence.
    """
    lo, hi = float(box[0]), float(box[1])
    return np.vstack([np.zeros((1, n)), lo + (hi - lo) * _scrambled_halton(n, count, seed)])
