"""Multivector-valued fields over R^{p,q} and their differentiation.

Coordinates are Cartesian, x = (x^1, ..., x^n), and generators are constant:
all derivatives act on blade coefficients only. Three field flavors exist:

  - polynomial: per-blade multivariate polynomials, differentiated exactly;
  - analytic: built compositions (exponentials, conjugations, frame
    combinations) whose derivatives propagate exactly through jets;
  - closure: arbitrary callables, differentiated by central differences.

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

import cmath
import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    SeriesDivergence,
    Signature,
    inverse_rows,
    tables,
)


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


class Polynomial:
    """Multivariate polynomial with complex coefficients.

    terms maps exponent tuples (one entry per variable) to coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(map(int, exps))
            if len(key) != nvars or (key and min(key) < 0):
                raise CliffordError(f"bad exponent tuple {exps} for {nvars} variables")
            c = complex(coeff)
            if c != 0:
                clean[key] = clean.get(key, 0) + c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def coordinate(cls, nvars: int, axis: int) -> "Polynomial":
        """The monomial x^(axis+1), axis 0-based."""
        exps = [0] * nvars
        exps[axis] = 1
        return cls(nvars, {tuple(exps): 1.0})

    def __call__(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        total = 0j
        for exps, coeff in self.terms.items():
            term = coeff
            for xi, ei in zip(x, exps):
                if ei:
                    term *= xi ** ei
            total += term
        return total

    def diff(self, axis: int) -> "Polynomial":
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[axis]
            if e:
                key = exps[:axis] + (e - 1,) + exps[axis + 1:]
                out[key] = out.get(key, 0) + coeff * e
        return Polynomial(self.nvars, out)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Polynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    out[key] = out.get(key, 0) + ca * cb
            return Polynomial(self.nvars, out)
        return Polynomial(self.nvars, {e: c * complex(other) for e, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1.0

    def to_json(self) -> dict:
        return {
            "monomials": [
                {"exps": list(exps), "coeff": [coeff.real, coeff.imag]}
                for exps, coeff in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, nvars: int, data: dict) -> "Polynomial":
        terms = {}
        for mono in data["monomials"]:
            exps = tuple(int(e) for e in mono["exps"])
            re, im = mono["coeff"]
            coeff = complex(float(re), float(im))
            if not cmath.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {mono['coeff']!r}")
            terms[exps] = terms.get(exps, 0) + coeff
        return cls(nvars, terms)


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


# Jet stacks are built in chunks of points of at most this many complex
# entries (512 KiB, or one point where a point holds more), which bounds
# the temporaries of the products at any number of points.
_CHUNK_ENTRIES = 1 << 15


def _map_chunks(fn, per_point: int, *arrays) -> np.ndarray:
    """fn over chunks of the leading point axis of the arrays (None passes
    through), each chunk within _CHUNK_ENTRIES at per_point entries a
    point, written into one output array."""
    count = len(arrays[0])
    step = max(1, _CHUNK_ENTRIES // per_point)
    out = None
    for lo in range(0, max(count, 1), step):  # an empty set still gives its shape
        part = fn(*(None if a is None else a[lo:lo + step] for a in arrays))
        if out is None:
            out = np.empty((count,) + part.shape[1:], dtype=part.dtype)
        out[lo:lo + step] = part
        del part  # not held while the next chunk is computed
    return out


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

    def scale(self, c: complex) -> "MultivectorField":
        return ScaledField(self, c)


class PolyField(MultivectorField):
    """Field with polynomial blade coefficients; derivatives are exact."""

    def __init__(self, sig: Signature, blade_polys: dict):
        super().__init__(sig)
        polys = {}
        for mask, poly in blade_polys.items():
            mask = int(mask)
            if not 0 <= mask < sig.dim:
                raise CliffordError(f"blade mask {mask} out of range for {sig}")
            if poly.nvars != sig.n:
                raise CliffordError(f"polynomial has {poly.nvars} variables, field needs {sig.n}")
            if poly.terms:
                polys[mask] = poly
        self.blade_polys = polys
        self._diff_cache: dict[int, "PolyField"] = {}
        self._evaluators: dict[int, tuple] = {}

    def _evaluator(self, order: int) -> tuple:
        """Stacked monomial tables for the jet rows up to order, built once per order.

        Jet row r holds the derivative D^d (d = _derivative_rows(n, order)[r],
        zero or a unit vector), and D^d x^E = c x^(E - d) with c = E_i for
        d = e_i and c = 1 for d = 0, which is 0 exactly when some E_i < d_i.
        Returns (coeffs (T, dim), exponents (R, T, n), factors (R, T)) over
        the T distinct monomials; row t of coeffs is the spinor array of the
        blade coefficients of monomial t, converted here once.
        """
        ev = self._evaluators.get(order)
        if ev is None:
            n = self.sig.n
            monos = sorted({e for p in self.blade_polys.values() for e in p.terms})
            index = {e: t for t, e in enumerate(monos)}
            coeffs = np.zeros((len(monos), self.sig.dim), dtype=np.complex128)
            for mask, poly in self.blade_polys.items():
                for e, c in poly.terms.items():
                    coeffs[index[e], mask] = c
            exps = np.array(monos, dtype=np.int64).reshape(len(monos), n)
            d = _derivative_rows(n, order)[:, None, :]
            factors = np.where(d > 0, exps, 1).prod(axis=-1).astype(float)
            # Clipped so that a vanishing term never evaluates 0 ** -1.
            ev = (tables(self.sig).to_spinor(coeffs), np.maximum(exps - d, 0), factors)
            self._evaluators[order] = ev
        return ev

    @classmethod
    def constant(cls, sig: Signature, mv) -> "PolyField":
        return cls(sig, {
            mask: Polynomial.constant(sig.n, c)
            for mask, c in enumerate(mv.coeffs) if c != 0
        })

    @classmethod
    def zero(cls, sig: Signature) -> "PolyField":
        return cls(sig, {})

    def partial(self, mu: int) -> "PolyField":
        """Exact derivative field along axis mu (0-based)."""
        if mu not in self._diff_cache:
            self._diff_cache[mu] = PolyField(
                self.sig, {m: p.diff(mu) for m, p in self.blade_polys.items()}
            )
        return self._diff_cache[mu]

    def jet(self, x, order: int = 1) -> np.ndarray:
        x = _as_points(x, self.sig.n)
        coeffs, exps, factors = self._evaluator(order)
        # Monomial values per point, row and monomial: (P, R, T) @ (T, dim).
        return (factors * np.prod(x[:, None, None, :] ** exps, axis=-1)) @ coeffs

    def scale(self, c: complex) -> "PolyField":
        return PolyField(self.sig, {m: p * c for m, p in self.blade_polys.items()})

    def grades_present(self) -> tuple[int, ...]:
        g = tables(self.sig).grades
        return tuple(sorted({int(g[m]) for m in self.blade_polys}))


class CallableField(MultivectorField):
    """Field defined by an arbitrary callable; derivatives via central differences.

    The callable takes one point and returns a Multivector, so this is the
    one field evaluated point by point; its blade coefficients are
    converted once per batch of points.
    """

    def __init__(self, sig: Signature, fn, fd_step: float = 1e-5):
        super().__init__(sig)
        self.fn = fn
        self.fd_step = float(fd_step)

    def _values(self, points: np.ndarray) -> np.ndarray:
        out = np.empty((len(points), self.sig.dim), dtype=np.complex128)
        for row, x in zip(out, points):
            v = self.fn(x)
            if not isinstance(v, Multivector) or v.sig != self.sig:
                raise CliffordError("closure returned a value outside the field's algebra")
            row[:] = v.coeffs
        return tables(self.sig).to_spinor(out)

    def jet(self, x, order: int = 1) -> np.ndarray:
        return fd_jet(self._values, self.sig, x, order, self.fd_step)


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


class ScaledField(MultivectorField):
    """A field multiplied by a constant scalar; keeps the base differentiation."""

    def __init__(self, base: MultivectorField, factor: complex):
        super().__init__(base.sig)
        self.base = base
        self.factor = complex(factor)

    def jet(self, x, order: int = 1) -> np.ndarray:
        return self.base.jet(x, order) * self.factor


class ExpField(MultivectorField):
    """Pointwise exponential of a generator field, with exact series jets.

    The jet of exp(A(x)) is the jet-series sum of A(x)-jet powers over k!,
    which at order 0 is the value series, term by term. The series runs
    until every point's term is below tol, and each point stops
    accumulating at its own first such term, so a point's jet does not
    depend on the batch it is evaluated in. The stop reads the largest
    entry of the term's spinor array, which bounds its largest blade
    coefficient from above: it can cost an extra term, never stop early.
    """

    def __init__(self, generator: MultivectorField, tol: float = 1e-14, max_terms: int = 64):
        super().__init__(generator.sig)
        self.generator = generator
        self.tol = float(tol)
        self.max_terms = int(max_terms)

    def jet(self, x, order: int = 1) -> np.ndarray:
        x = _as_points(x, self.sig.n)
        return _map_chunks(lambda pts: self._series(self.generator.jet(pts, order), order),
                           _nrows(order, self.sig.n) * self.sig.dim, x)

    def _series(self, a: np.ndarray, order: int) -> np.ndarray:
        acc = _unit_jets(self.sig, len(a), order)
        term = acc
        live = np.ones(len(a), dtype=bool)
        norms = np.full(len(a), np.inf)
        for k in range(1, self.max_terms + 1):
            term = _jet_mul(term, a, self.sig) / k
            if live.all():
                acc += term
            else:
                acc[live] += term[live]
            norms = np.abs(term).max(axis=(1, 2), initial=0.0)
            live &= ~(norms < self.tol)
            if not live.any():
                return acc
        raise SeriesDivergence(
            f"exponential jet series did not reach tol={self.tol} within {self.max_terms} terms",
            float(norms[live].max()),
        )


def invert_value_jet(sjet: np.ndarray, sig: Signature) -> np.ndarray:
    """Jets of the pointwise inverse field from the jets (P, rows, dim) of the field.

    The jets are of first order at most; the gradient rows follow from
    d(W) = -W dS W for W = S^-1. The value is inverted on the dense blade
    tables (inverse_rows, with its condition test), converted once each way.
    """
    t = tables(sig)
    w = t.to_spinor(inverse_rows(sig, t.to_blades(sjet[:, 0])))[:, None]
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

    Kinds: identity, constant (a fixed pseudo-orthogonal matrix), and
    rotation (exp(t(x) M) P for a pseudo-rotation generator M and a
    polynomial parameter t). Rotation derivatives are closed form:
    d_nu Y = (d_nu t) M Y.

    The constructor checks the base matrix, and for rotations the generator
    and the parameter, so every frame is pseudo-orthogonal at every point by
    construction; field vectors rely on this for their contraction shortcut.
    """

    def __init__(self, sig: Signature, kind: str, base: np.ndarray,
                 generator: np.ndarray | None = None, poly: Polynomial | None = None,
                 tol: float = 1e-10):
        n = sig.n
        if kind not in ("identity", "constant", "rotation"):
            raise FrameError(f"unknown frame kind {kind!r}")
        self.base = np.asarray(base, dtype=float)
        _check_pseudo_orthogonal(sig, self.base, tol)
        if kind == "rotation":
            generator = np.asarray(generator, dtype=float)
            if generator.shape != (n, n):
                raise FrameError(f"rotation generator must be {n}x{n}")
            eta = np.diag(np.array(sig.metric(), dtype=float))
            # exp(tM) stays pseudo-orthogonal iff M eta + eta M^T = 0
            if not np.max(np.abs(generator @ eta + eta @ generator.T)) <= 1e-12:
                raise FrameError("rotation generator is not in the pseudo-orthogonal Lie algebra")
            if not isinstance(poly, Polynomial) or poly.nvars != n:
                raise FrameError(f"rotation parameter must be a polynomial in {n} variables")
            # A real parameter keeps exp(tM) real, and its derivatives with it.
            if any(c.imag != 0 for c in poly.terms.values()):
                raise FrameError("rotation parameter must have real coefficients")
        elif generator is not None or poly is not None:
            raise FrameError(f"a {kind} frame takes no generator or parameter")
        self.sig = sig
        self.kind = kind
        self.generator = generator
        self.poly = poly
        # The parameter t as the scalar part of a field, for its jets.
        self._param = PolyField(sig, {0: poly}) if kind == "rotation" else None

    @classmethod
    def identity(cls, sig: Signature) -> "FrameField":
        return cls(sig, "identity", np.eye(sig.n))

    @classmethod
    def constant(cls, sig: Signature, matrix, tol: float = 1e-10) -> "FrameField":
        return cls(sig, "constant", matrix, tol=tol)

    @classmethod
    def rotation(cls, sig: Signature, poly: Polynomial, generator, base=None,
                 tol: float = 1e-10) -> "FrameField":
        return cls(sig, "rotation", np.eye(sig.n) if base is None else base,
                   generator, poly, tol=tol)

    def matrix(self, x) -> np.ndarray:
        """Frame matrices at the points x, shape (P, n, n)."""
        return self.jets(x, 0)[0]

    def jets(self, x, order: int = 1):
        """Returns the first-order jets (Y, dY) at the points x: Y (P, n, n)
        and dY[p, nu, mu, a] = d_nu y^mu_a, None at order 0."""
        x = _as_points(x, self.sig.n)
        n = self.sig.n
        count = len(x)
        first = _nrows(order, n) > 1
        if self.kind in ("identity", "constant"):
            y = np.broadcast_to(self.base, (count, n, n)).copy()
            return y, (np.zeros((count, n, n, n)) if first else None)
        # The first spinor entry of a field with a scalar part only is that part.
        tj = self._param.jet(x, order)[:, :, 0].real
        y = expm(tj[:, 0, None, None] * self.generator) @ self.base
        dy = np.einsum("pn,pma->pnma", tj[:, 1:], self.generator @ y) if first else None
        return y, dy

    def validate(self, points, tol: float = 1e-10) -> float:
        """Max orthogonality residual over the points; raises on breach."""
        pts = _as_points(points, self.sig.n)
        eta = np.diag(np.array(self.sig.metric(), dtype=float))
        y = self.matrix(pts)
        res = np.abs(y @ eta @ y.swapaxes(-1, -2) - eta).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(~(res <= tol))  # NaN entries fail too
        if bad.size:
            p = bad[0]
            raise FrameError(f"frame fails orthogonality at {list(pts[p])}: residual {res[p]:.3e}")
        return float(res.max(initial=0.0))


def _check_pseudo_orthogonal(sig: Signature, mat: np.ndarray, tol: float):
    n = sig.n
    if mat.shape != (n, n):
        raise FrameError(f"frame matrix must be {n}x{n}, got {mat.shape}")
    eta = np.diag(np.array(sig.metric(), dtype=float))
    res = float(np.max(np.abs(mat @ eta @ mat.T - eta)))
    if not res <= tol:  # NaN entries fail too
        raise FrameError(f"matrix fails y eta y^T = eta by {res:.3e} (tol {tol:.1e})")


def make_frame_field(sig: Signature, spec: dict) -> FrameField:
    """Build a frame from a JSON-style spec: identity, constant, or rotation."""
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return FrameField.identity(sig)
    if kind not in ("constant", "rotation"):
        raise FrameError(f"unknown frame kind {kind!r}")

    def entry(key, parse=lambda v: np.asarray(v, dtype=float)):
        if key not in spec:
            raise FrameError(f"{kind} frame spec needs a {key!r} entry")
        try:
            return parse(spec[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(f"frame {key} is malformed: {exc}") from None

    if kind == "constant":
        return FrameField.constant(sig, entry("matrix"))
    poly = entry("poly", lambda v: Polynomial.from_json(sig.n, v))
    base = entry("base") if spec.get("base") is not None else None
    return FrameField.rotation(sig, poly, entry("generator"), base)


def random_frame(sig: Signature, rng: np.random.Generator, scale: float = 0.4) -> FrameField:
    """Random constant pseudo-orthogonal frame exp(S eta), S antisymmetric."""
    n = sig.n
    s = rng.standard_normal((n, n)) * scale
    s = s - s.T
    eta = np.diag(np.array(sig.metric(), dtype=float))
    return FrameField.constant(sig, expm(s @ eta), tol=1e-9)


class GaugeElement:
    """Invertible field S(x) whose logarithmic derivatives avoid the center.

    bivector_exp is set, from the type of the field alone, when S = exp(B)
    for a PolyField B with no grade but 2. Reversion is an anti-automorphism
    that negates bivectors, so reversion(exp B) = exp(-B) = S^-1: the
    inverse value and jet are those of S with the per-grade reversion signs,
    and conjugation by S keeps every grade. Any other invertible field
    falls back to the linear solve and the inverse-jet formula.

    The element keeps one entry: the jets of S, and of S^-1 once asked
    for, at the last point set it was asked about. A request for values
    alone (finite-difference stencils, the residual conjugation check)
    computes values alone; any derivative brings the jets to first order,
    the highest there is and all a verify run needs.
    """

    def __init__(self, s_field: MultivectorField):
        self.sig = s_field.sig
        self.s_field = s_field
        gen = s_field.generator if isinstance(s_field, ExpField) else None
        self.bivector_exp = isinstance(gen, PolyField) and set(gen.grades_present()) <= {2}
        self._entry: list | None = None

    @classmethod
    def identity(cls, sig: Signature) -> "GaugeElement":
        return cls(ExpField(PolyField.zero(sig)))

    def value(self, x) -> np.ndarray:
        """S at the points x, shape (P, dim)."""
        return self.jet(x, 0)[:, 0]

    def inv_value(self, x) -> np.ndarray:
        """S^-1 at the points x, shape (P, dim)."""
        return self.inv_jet(x, 0)[:, 0]

    def _inverted(self, sjet: np.ndarray) -> np.ndarray:
        if self.bivector_exp:
            t = tables(self.sig)
            return t.to_spinor(t.to_blades(sjet) * t.reversion_signs)
        return invert_value_jet(sjet, self.sig)

    def _memo_jet(self, x, order: int, inverse_side: bool) -> np.ndarray:
        x = _as_points(x, self.sig.n)
        rows = _nrows(order, self.sig.n)
        entry = self._entry
        if entry is None or not _same_points(entry[0], x) or entry[1].shape[1] < rows:
            sjet = self.s_field.jet(x, order)
            entry = self._entry = [x.copy(), _frozen(sjet), None]
        if not inverse_side:
            return entry[1][:, :rows]
        # An exp(bivector) reverses the jets of S on request; only the
        # fallback inverse is kept in the entry.
        if self.bivector_exp:
            return _frozen(self._inverted(entry[1][:, :rows]))
        if entry[2] is None:
            entry[2] = _frozen(self._inverted(entry[1]))
        return entry[2][:, :rows]

    def jet(self, x, order: int = 1) -> np.ndarray:
        """Jets of S at the points x, shape (P, rows, dim)."""
        return self._memo_jet(x, order, False)

    def inv_jet(self, x, order: int = 1) -> np.ndarray:
        """Jets of S^-1 at the points x, shape (P, rows, dim)."""
        return self._memo_jet(x, order, True)

    def inverse(self) -> "GaugeElement":
        """The gauge element S^-1 = exp(-A) of an S = exp(A)."""
        if not isinstance(self.s_field, ExpField):
            raise CliffordError("only a gauge element exp(A) has an explicit inverse field")
        s = self.s_field
        return GaugeElement(ExpField(s.generator.scale(-1.0), tol=s.tol, max_terms=s.max_terms))

    def connection(self, x) -> np.ndarray:
        """S^-1 d_mu S at the points x, shape (P, n, dim)."""
        sj = self.jet(x, 1)
        return tables(self.sig).product(self.inv_jet(x, 0), sj[:, 1:])

    def conjugate(self, u: np.ndarray, x) -> np.ndarray:
        """S^-1 u S at the points x, for rows u of shape (dim,) or (P, dim)."""
        t = tables(self.sig)
        return t.product(t.product(self.inv_value(x), u), self.value(x))

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
                f"at point {None if where is None else list(where)}",
                point=where, leak=leak,
            )
        return leak


def make_gauge_element(a_field: MultivectorField, tol: float = 1e-9,
                       require_bivector: bool = True, exp_tol: float = 1e-14,
                       max_terms: int = 64, sample_points_: np.ndarray | None = None) -> GaugeElement:
    """Gauge element S = exp(A) from a generator field A.

    By default A must be pure bivector, which keeps S^-1 dS inside the
    grade-2 subalgebra and hence away from the center structurally. When
    sample points are supplied, membership is also checked numerically.
    """
    if require_bivector:
        if isinstance(a_field, PolyField):
            grades = a_field.grades_present()
            if any(g != 2 for g in grades):
                raise GaugeMembershipError(
                    f"generator field has grades {grades}; pure bivector required")
        elif sample_points_ is None:
            raise GaugeMembershipError(
                "cannot certify a non-polynomial generator without sample points")
        else:
            pts = _as_points(sample_points_, a_field.sig.n)
            t = tables(a_field.sig)
            off = np.where(t.grades == 2, 0, t.to_blades(a_field.value(pts)))
            bad = np.abs(off).max(axis=1, initial=0.0)
            over = np.flatnonzero(bad > tol)
            if over.size:
                p = over[0]
                raise GaugeMembershipError(
                    f"generator leaves grade 2 by {bad[p]:.3e} at {list(pts[p])}", point=pts[p])
    gauge = GaugeElement(ExpField(a_field, tol=exp_tol, max_terms=max_terms))
    if sample_points_ is not None:
        gauge.validate_membership(sample_points_, tol=tol)
    return gauge


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
    exps = [np.zeros(n, dtype=np.int64)] + list(eye)
    if degree >= 2:
        exps += [eye[i] + eye[j] for i, j in combinations_with_replacement(range(n), 2)]
    exps = [tuple(e) for e in np.array(exps).tolist()]
    draws = rng.uniform(-amp, amp, size=(len(masks), len(exps)))
    draws[:, 1 + n:] *= 0.5
    return PolyField(sig, {int(mask): Polynomial(n, dict(zip(exps, row)))
                           for mask, row in zip(masks, draws.tolist())})


class CliffordFieldVector:
    """n multivector fields h^mu forming a moving copy of the generator set.

    Jets come stacked as (P, n, rows, dim). The vector keeps one entry, the
    jets at the last point set it was asked about, which every downstream
    consumer (the connection, the curvature, the gauge sector) reads. A
    request for values alone computes values alone; any derivative brings
    the jets to first order, the highest there is. validate reads the value
    rows of the first-order jets, which a run reads next anyway. The entry
    also keeps the bracket grids of the first-order jets once asked for
    (bracket_grids). Cached arrays are read-only.

    grade_preserving is True only where the construction guarantees that
    the h-contraction F[h](U) = sum_rho eta_rho h^rho U h^rho is the plain
    generator contraction F at every point, so h-grades are blade grades;
    the connection solver then skips the contraction chain. It is set from
    types, never from a numerical probe, and defaults to False.
    """

    grade_preserving = False

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n = sig.n
        # [points, jets, bracket grids or None]
        self._entry: list | None = None

    def values(self, x) -> np.ndarray:
        """h^mu at the points x, shape (P, n, dim)."""
        return self.jets(x, 0)[:, :, 0]

    def jets(self, x, order: int = 1) -> np.ndarray:
        """Jets of every h^mu at the points x, shape (P, n, rows, dim)."""
        x = _as_points(x, self.n)
        rows = _nrows(order, self.n)
        entry = self._entry
        if entry is None or not _same_points(entry[0], x) or entry[1].shape[2] < rows:
            entry = self._entry = [x.copy(), _frozen(self._compute_jets(x, order)), None]
        return entry[1][:, :, :rows]

    def bracket_grids(self, x) -> tuple[np.ndarray, np.ndarray]:
        """K^munu = [h^mu, h^nu], shape (P, n, n, dim), and
        D^nu = [sum_mu d_mu h^mu, h^nu] + sum_mu [h^mu, d_mu h^nu], shape
        (P, n, dim), at the points x, from the first-order jets.

        The sigma-free parts of a Yang-Mills solution on h: G^munu =
        -sigma^2 K^munu and sum_mu d_mu G^munu = -sigma^2 D^nu. Kept in the
        entry, so a family of solutions over h forms them once per point set.
        """
        hs = self.jets(x, 1)
        entry = self._entry
        if entry[2] is None:
            entry[2] = tuple(_frozen(a) for a in _bracket_grids(hs, self.sig))
        return entry[2]

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def component(self, mu: int) -> MultivectorField:
        """The field h^mu, mu 1-based."""
        if not 1 <= mu <= self.n:
            raise CliffordError(f"index {mu} out of range 1..{self.n}")
        return _FieldVectorComponent(self, mu - 1)

    def validate(self, points, tol: float = 1e-10) -> dict:
        """Check the defining identities at the points; raise on breach.

        Returns {"anticommutation": max residual, "trace_product": max |Tr|,
        "circ_leak": max center leak}.
        """
        t = tables(self.sig)
        vals = self.jets(points, 1)[:, :, 0]
        prods = t.batch_product(vals, vals)  # prods[p, mu, nu] = h^mu h^nu
        anti = t.to_blades(prods + prods.swapaxes(1, 2))
        anti[:, range(self.n), range(self.n), 0] -= 2.0 * np.array(self.sig.metric())
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
    ad = tables(sig).commutators
    hv = hjets[:, :, 0]
    dh = hjets[:, :, 1:].swapaxes(1, 2)  # dh[p, mu, nu] = d_mu h^nu
    div = np.trace(dh, axis1=1, axis2=2)
    return ad(hv, hv[:, None]), ad(div, hv) + ad(hv, dh).sum(axis=1)


class _FieldVectorComponent(MultivectorField):
    """View of one component of a field vector as a standalone field."""

    def __init__(self, vec: CliffordFieldVector, index0: int):
        super().__init__(vec.sig)
        self.vec = vec
        self.index0 = index0

    def jet(self, x, order: int = 1) -> np.ndarray:
        return self.vec.jets(x, order)[:, self.index0]


class ExplicitFieldVector(CliffordFieldVector):
    """Field vector given directly by n component fields."""

    def __init__(self, fields):
        fields = list(fields)
        if not fields:
            raise CliffordError("field vector needs at least one component")
        sig = fields[0].sig
        if len(fields) != sig.n or any(f.sig != sig for f in fields):
            raise CliffordError(f"need exactly {sig.n} components over {sig}")
        super().__init__(sig)
        self.fields = fields

    def _compute_jets(self, x: np.ndarray, order: int) -> np.ndarray:
        return np.stack([f.jet(x, order) for f in self.fields], axis=1)


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
        sj = self.gauge.jet(x, order)
        return _map_chunks(self._combine, self.n * math.prod(sj.shape[1:]), sj, self.gauge.inv_jet(x, order),
                           *self.frame.jets(x, order))

    def _combine(self, sj, wj, y, dy) -> np.ndarray:
        """h^mu = y^mu_a S^-1 e^a S on one chunk of points, by the product rule."""
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
        if self.frame.kind == "rotation" and dy is not None:
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


def make_clifford_field_vector(frame: FrameField, gauge: GaugeElement,
                               points=None, tol: float = 1e-10) -> FrameGaugeFieldVector:
    """Construct h^mu = y^mu_a S^-1 e^a S and validate its identities."""
    vec = FrameGaugeFieldVector(frame, gauge)
    if points is None:
        points = sample_points(frame.sig.n)
    frame.validate(points, tol=tol)
    vec.validate(points, tol=tol)
    return vec


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
        perms = np.repeat(np.arange(base)[None], digits, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        # Digit j of every index, and its weight b^-(j+1) by repeated division.
        pos = np.arange(digits)
        digit = index[:, None] // base ** pos % base
        weights = np.divide.accumulate(np.r_[1.0 / base, np.full(digits - 1, float(base))])
        terms = perms[pos, digit] * weights
        out[:, col] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def sample_points(n: int, count: int = 16, box=(-1.0, 1.0), seed: int = 0,
                  include_origin: bool = True) -> np.ndarray:
    """Deterministic quasi-random sample points in a box, origin first.

    Uses a scrambled Halton sequence; returns count (+1 with the origin)
    rows of length n.
    """
    lo, hi = float(box[0]), float(box[1])
    pts = lo + (hi - lo) * _scrambled_halton(n, count, seed)
    if include_origin:
        pts = np.vstack([np.zeros((1, n)), pts])
    return pts
