"""Multivector-valued fields over R^{p,q} and their differentiation.

Coordinates are Cartesian, x = (x^1, ..., x^n), and generators are constant:
all derivatives act on blade coefficients only. Three field flavors exist:

  - polynomial: per-blade multivariate polynomials, differentiated exactly;
  - analytic: built compositions (exponentials, conjugations, frame
    combinations) whose derivatives propagate exactly through jets;
  - closure: arbitrary callables, differentiated by central differences.

A jet carries the value and the partial derivatives of a field at one point
(up to second order here). Jets multiply by the product rule, so exact
derivatives of deeply composed fields like y^mu_a(x) S(x)^-1 e^a S(x) come
out to machine precision, which the residual tolerances need.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    Signature,
    center_leak,
    exponential,
    geometric_product,
    inverse,
    reversion,
    tables,
    trace,
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


def _as_point(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"expected a point of length {n}, got shape {arr.shape}")
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
            key = tuple(int(e) for e in exps)
            if len(key) != nvars or any(e < 0 for e in key):
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


# Jet component layout: row 0 is the value, rows 1..n the gradient, then the
# upper triangle of the Hessian in row-major pair order (0,0),(0,1),...,(1,1),...
@lru_cache(maxsize=None)
def _hess_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(i, n))


@lru_cache(maxsize=None)
def _hess_axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of _hess_pairs(n), in Hessian row order."""
    pairs = np.array(_hess_pairs(n), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _nrows(order: int, n: int) -> int:
    if order == 0:
        return 1
    if order == 1:
        return 1 + n
    return 1 + n + n * (n + 1) // 2


def _hidx(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return 1 + n + i * n - i * (i - 1) // 2 + (j - i)


@lru_cache(maxsize=None)
def _partial_rows(n: int, order: int) -> np.ndarray:
    """Index array (n, rows): row r of the order-`order` jet of d_mu f is
    row [mu, r] of the jet of f, one order higher."""
    return np.array([[1 + mu] + [_hidx(n, mu, nu) for nu in range(n) if order == 1]
                     for mu in range(n)], dtype=np.intp)


@lru_cache(maxsize=None)
def _derivative_rows(n: int, order: int) -> np.ndarray:
    """Multi-index of the derivative each jet row holds, shape (rows, n)."""
    eye = np.eye(n, dtype=np.int64)
    i, j = _hess_axes(n)
    blocks = (np.zeros((1, n), dtype=np.int64), eye, eye[i] + eye[j])
    return np.vstack(blocks[:order + 1])


class ScalarJet:
    """Value, gradient, and optional Hessian of a scalar function at a point."""

    __slots__ = ("order", "value", "grad", "hess")

    def __init__(self, order: int, value: complex, grad=None, hess=None):
        self.order = order
        self.value = complex(value)
        self.grad = None if grad is None else np.asarray(grad, dtype=complex)
        self.hess = None if hess is None else np.asarray(hess, dtype=complex)

    @classmethod
    def of_polynomial(cls, poly: Polynomial, x, order: int) -> "ScalarJet":
        n = poly.nvars
        value = poly(x)
        if order == 0:
            return cls(0, value)
        diffs = [poly.diff(i) for i in range(n)]
        grad = np.array([d(x) for d in diffs])
        if order == 1:
            return cls(1, value, grad)
        hess = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                hess[i, j] = hess[j, i] = diffs[i].diff(j)(x)
        return cls(2, value, grad, hess)


class MvJet:
    """Multivector value plus partial derivatives at a point, order 0, 1, or 2.

    Stored as a stacked (rows, 2^n) complex array; see the layout note above.
    Multiplication follows the product rule; mixed orders truncate to the
    lower order.
    """

    __slots__ = ("sig", "order", "comps")

    def __init__(self, sig: Signature, order: int, comps: np.ndarray):
        if order not in (0, 1, 2):
            raise CliffordError(f"jet order must be 0, 1, or 2, got {order}")
        self.sig = sig
        self.order = order
        self.comps = comps

    @classmethod
    def constant(cls, mv: Multivector, order: int) -> "MvJet":
        comps = np.zeros((_nrows(order, mv.sig.n), mv.sig.dim), dtype=np.complex128)
        comps[0] = mv.coeffs
        return cls(mv.sig, order, comps)

    @property
    def value(self) -> Multivector:
        return Multivector(self.sig, self.comps[0])

    def grad(self, mu: int) -> Multivector:
        """Partial derivative value along axis mu (0-based)."""
        if self.order < 1:
            raise CliffordError("order-0 jet carries no gradient")
        return Multivector(self.sig, self.comps[1 + mu])

    def hess(self, mu: int, nu: int) -> Multivector:
        if self.order < 2:
            raise CliffordError("jet carries no Hessian")
        return Multivector(self.sig, self.comps[_hidx(self.sig.n, mu, nu)])

    def partial(self, mu: int) -> "MvJet":
        """The jet of the derivative field along axis mu, one order lower."""
        if self.order < 1:
            raise CliffordError("cannot differentiate an order-0 jet")
        order = self.order - 1
        return MvJet(self.sig, order, self.comps[_partial_rows(self.sig.n, order)[mu]])

    def truncate(self, order: int) -> "MvJet":
        if order >= self.order:
            return self
        return MvJet(self.sig, order, self.comps[:_nrows(order, self.sig.n)])

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.comps)))

    def __add__(self, other: "MvJet") -> "MvJet":
        order = min(self.order, other.order)
        rows = _nrows(order, self.sig.n)
        return MvJet(self.sig, order, self.comps[:rows] + other.comps[:rows])

    def __sub__(self, other: "MvJet") -> "MvJet":
        order = min(self.order, other.order)
        rows = _nrows(order, self.sig.n)
        return MvJet(self.sig, order, self.comps[:rows] - other.comps[:rows])

    def __neg__(self) -> "MvJet":
        return MvJet(self.sig, self.order, -self.comps)

    def scale(self, c: complex) -> "MvJet":
        return MvJet(self.sig, self.order, self.comps * complex(c))

    def __mul__(self, other):
        if isinstance(other, MvJet):
            return _jet_mul(self, other)
        if isinstance(other, Multivector):
            return self.mul_const(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return self.const_mul(other)
        return self.scale(other)

    def mul_const(self, c: Multivector) -> "MvJet":
        """Right-multiply every component by a constant multivector."""
        t = tables(self.sig)
        return MvJet(self.sig, self.order, t.batch_product(self.comps, c.coeffs[None])[:, 0])

    def const_mul(self, c: Multivector) -> "MvJet":
        t = tables(self.sig)
        return MvJet(self.sig, self.order, t.batch_product(c.coeffs[None], self.comps)[0])


def _right_matrices(b: MvJet) -> tuple:
    """R(b value) and, at order 2, R of each gradient row of b: the matrices
    _jet_mul(a, b) gathers for b, for callers that multiply many jets by one b."""
    t = tables(b.sig)
    n = b.sig.n
    return (t.right_mult_matrix(b.comps[0]),
            t.right_mult_matrix(b.comps[1:1 + n]) if b.order == 2 else None)


def _jet_mul(a: MvJet, b: MvJet, b_right: tuple | None = None) -> MvJet:
    """Product jet a * b; b_right, if given, is _right_matrices(b)."""
    if a.sig != b.sig:
        raise CliffordError("jet signature mismatch")
    sig = a.sig
    n = sig.n
    order = min(a.order, b.order)
    rows = _nrows(order, n)
    ca = a.comps[:rows]
    cb = b.comps[:rows]
    t = tables(sig)
    if order == 0:
        return MvJet(sig, 0, t.product(ca[0], cb[0])[None])
    # Only three blocks of pairwise products are needed:
    # value x everything, everything x value, gradient x gradient.
    p_row = t.batch_product(ca[0:1], cb)[0]
    if b_right is None:
        p_col = t.batch_product(ca, cb[0:1])[:, 0]
        gg = t.batch_product(ca[1:1 + n], cb[1:1 + n]) if order == 2 else None
    else:
        p_col = ca @ b_right[0]
        # gg[r, s] = a_r * b_s = a_r @ R(b_s); the matmul stacks over s.
        gg = (ca[1:1 + n] @ b_right[1]).swapaxes(0, 1) if order == 2 else None
    out = p_row + p_col
    out[0] = p_row[0]
    if order == 2:
        # Hessian rows follow _hess_pairs order, right after the gradient rows.
        i, j = _hess_axes(n)
        out[1 + n:] += gg[i, j]
        out[1 + n:] += gg[j, i]
    return MvJet(sig, order, out)


class MultivectorField:
    """Base interface: a map from R^n to Cl(p,q) with a differentiation policy."""

    def __init__(self, sig: Signature):
        self.sig = sig

    def value(self, x) -> Multivector:
        raise NotImplementedError

    def jet(self, x, order: int = 1) -> MvJet:
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

        Jet row r holds the derivative D^d (d = _derivative_rows(n, order)[r]),
        and D^d x^E = c x^(E - d) with c the product over axes of the falling
        factorials E_i (E_i - 1) ... (E_i - d_i + 1), which is 0 exactly when
        some E_i < d_i. Returns (masks, coeffs (T, B), exponents (R, T, n),
        factors (R, T)) over the T distinct monomials and B blades.
        """
        ev = self._evaluators.get(order)
        if ev is None:
            n = self.sig.n
            masks = np.array(sorted(self.blade_polys), dtype=np.intp)
            monos = sorted({e for p in self.blade_polys.values() for e in p.terms})
            index = {e: t for t, e in enumerate(monos)}
            coeffs = np.zeros((len(monos), len(masks)), dtype=np.complex128)
            for b, mask in enumerate(masks):
                for e, c in self.blade_polys[mask].terms.items():
                    coeffs[index[e], b] = c
            exps = np.array(monos, dtype=np.int64).reshape(len(monos), n)
            d = _derivative_rows(n, order)[:, None, :]
            falling = np.ones((d.shape[0], len(monos), n))
            for j in range(order):
                falling *= np.where(d > j, exps - j, 1)
            # Clipped so that a vanishing term never evaluates 0 ** -1.
            ev = (masks, coeffs, np.maximum(exps - d, 0), falling.prod(axis=-1))
            self._evaluators[order] = ev
        return ev

    def _rows(self, x: np.ndarray, order: int) -> np.ndarray:
        masks, coeffs, exps, factors = self._evaluator(order)
        comps = np.zeros((_nrows(order, self.sig.n), self.sig.dim), dtype=np.complex128)
        comps[:, masks] = (factors * np.prod(x ** exps, axis=-1)) @ coeffs
        return comps

    @classmethod
    def constant(cls, sig: Signature, mv: Multivector) -> "PolyField":
        return cls(sig, {
            mask: Polynomial.constant(sig.n, c)
            for mask, c in enumerate(mv.coeffs) if c != 0
        })

    @classmethod
    def zero(cls, sig: Signature) -> "PolyField":
        return cls(sig, {})

    def value(self, x) -> Multivector:
        return Multivector(self.sig, self._rows(_as_point(x, self.sig.n), 0)[0], copy=False)

    def partial(self, mu: int) -> "PolyField":
        """Exact derivative field along axis mu (0-based)."""
        if mu not in self._diff_cache:
            self._diff_cache[mu] = PolyField(
                self.sig, {m: p.diff(mu) for m, p in self.blade_polys.items()}
            )
        return self._diff_cache[mu]

    def jet(self, x, order: int = 1) -> MvJet:
        if order not in (0, 1, 2):
            raise CliffordError(f"jet order must be 0, 1, or 2, got {order}")
        return MvJet(self.sig, order, self._rows(_as_point(x, self.sig.n), order))

    def scale(self, c: complex) -> "PolyField":
        return PolyField(self.sig, {m: p * c for m, p in self.blade_polys.items()})

    def grades_present(self) -> tuple[int, ...]:
        g = tables(self.sig).grades
        return tuple(sorted({int(g[m]) for m in self.blade_polys}))


class CallableField(MultivectorField):
    """Field defined by an arbitrary callable; derivatives via central differences."""

    def __init__(self, sig: Signature, fn, fd_step: float = 1e-5, fd_hess_step: float | None = None):
        super().__init__(sig)
        self.fn = fn
        self.fd_step = float(fd_step)
        self.fd_hess_step = None if fd_hess_step is None else float(fd_hess_step)

    def value(self, x) -> Multivector:
        x = _as_point(x, self.sig.n)
        out = self.fn(x)
        if not isinstance(out, Multivector) or out.sig != self.sig:
            raise CliffordError("closure returned a value outside the field's algebra")
        return out

    def jet(self, x, order: int = 1) -> MvJet:
        x = _as_point(x, self.sig.n)
        return fd_jet(self.value, self.sig, x, order, self.fd_step, self.fd_hess_step)


def fd_jet(valuefn, sig: Signature, x: np.ndarray, order: int,
           step: float, hess_step: float | None = None) -> MvJet:
    """Finite-difference jet of a pointwise evaluator.

    Gradient rows use second-order central differences with the given step;
    Hessian rows use a larger step, max(step, sqrt(step)) unless hess_step
    is given, because their roundoff grows like eps / step^2.
    """
    n = sig.n
    comps = np.zeros((_nrows(order, n), sig.dim), dtype=np.complex128)
    f0 = valuefn(x)
    comps[0] = f0.coeffs
    if order == 0:
        return MvJet(sig, 0, comps)
    for mu in range(n):
        dx = np.zeros(n)
        dx[mu] = step
        comps[1 + mu] = (valuefn(x + dx).coeffs - valuefn(x - dx).coeffs) / (2 * step)
    if order == 2:
        h = hess_step if hess_step is not None else max(step, float(np.sqrt(step)))
        for i, j in _hess_pairs(n):
            r = _hidx(n, i, j)
            if i == j:
                dx = np.zeros(n)
                dx[i] = h
                comps[r] = (valuefn(x + dx).coeffs - 2 * f0.coeffs + valuefn(x - dx).coeffs) / h ** 2
            else:
                da = np.zeros(n)
                db = np.zeros(n)
                da[i] = h
                db[j] = h
                comps[r] = (
                    valuefn(x + da + db).coeffs - valuefn(x + da - db).coeffs
                    - valuefn(x - da + db).coeffs + valuefn(x - da - db).coeffs
                ) / (4 * h * h)
    return MvJet(sig, order, comps)


class ScaledField(MultivectorField):
    """A field multiplied by a constant scalar; keeps the base differentiation."""

    def __init__(self, base: MultivectorField, factor: complex):
        super().__init__(base.sig)
        self.base = base
        self.factor = complex(factor)

    def value(self, x) -> Multivector:
        return self.factor * self.base.value(x)

    def jet(self, x, order: int = 1) -> MvJet:
        return self.base.jet(x, order).scale(self.factor)


class ExpField(MultivectorField):
    """Pointwise exponential of a generator field, with exact series jets.

    The jet of exp(A(x)) is the jet-series sum of A(x)-jet powers over k!,
    which is the same truncation as the value series, term by term. Every
    term is multiplied on the right by the same jet of A, so its
    multiplication matrices are gathered once per jet.
    """

    def __init__(self, generator: MultivectorField, tol: float = 1e-14, max_terms: int = 64):
        super().__init__(generator.sig)
        self.generator = generator
        self.tol = float(tol)
        self.max_terms = int(max_terms)

    def value(self, x) -> Multivector:
        return exponential(self.generator.value(x), tol=self.tol, max_terms=self.max_terms)

    def jet(self, x, order: int = 1) -> MvJet:
        from .algebra import SeriesDivergence

        a = self.generator.jet(x, order)
        a_right = _right_matrices(a) if order else None
        acc = MvJet.constant(Multivector.unit(self.sig), order)
        term = acc
        norm = np.inf
        for k in range(1, self.max_terms + 1):
            term = _jet_mul(term, a, a_right).scale(1.0 / k)
            acc = acc + term
            norm = term.max_norm()
            if norm < self.tol:
                return acc
        raise SeriesDivergence(
            f"exponential jet series did not reach tol={self.tol} within {self.max_terms} terms",
            norm,
        )


def invert_value_jet(sjet: MvJet) -> MvJet:
    """Jet of the pointwise inverse field, from the jet of the field itself.

    Uses d(W) = -W dS W for W = S^-1, applied once more for second order.
    """
    sig = sjet.sig
    n = sig.n
    w = inverse(sjet.value)
    comps = np.zeros((_nrows(sjet.order, n), sig.dim), dtype=np.complex128)
    comps[0] = w.coeffs
    if sjet.order >= 1:
        dw = []
        for mu in range(n):
            val = -1.0 * geometric_product(geometric_product(w, sjet.grad(mu)), w)
            dw.append(val)
            comps[1 + mu] = val.coeffs
        if sjet.order == 2:
            for i, j in _hess_pairs(n):
                term = geometric_product(geometric_product(dw[j], sjet.grad(i)), w)
                term = term + geometric_product(geometric_product(w, sjet.hess(i, j)), w)
                term = term + geometric_product(geometric_product(w, sjet.grad(i)), dw[j])
                comps[_hidx(n, i, j)] = -term.coeffs
    return MvJet(sig, sjet.order, comps)


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
    """[m/m] Pade approximant (V - U)^-1 (V + U), U and V the odd and even parts.

    Even powers up to A^6 are formed; degree 13 nests A^6 to reach A^12
    (Higham 2005, eq. 2.4).
    """
    b = _PADE[m]
    top = 3 if m == 13 else m // 2
    powers = [np.eye(a.shape[0]), a @ a]
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
    """Matrix exponential of a small real square matrix, by scaling and squaring.

    Degree and scaling follow Al-Mohy & Higham (2009), Algorithm 5.1: the
    bounds eta use d_k = ||A^k||_1^(1/k), here from exact powers since frame
    generators are at most n x n, and the overscaling correction ell(A, m)
    is left out. A matrix whose 1-norm is not finite gives a matrix of NaN,
    and one whose squarings overflow gives inf or NaN entries; the frame
    checks refuse both.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan)
    if norm == 0.0:
        return np.eye(a.shape[0])
    # Powers of A / ||A|| cannot overflow, whatever the norm.
    d = {k: norm * np.linalg.norm(np.linalg.matrix_power(a / norm, k), 1) ** (1.0 / k)
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
        x = _as_point(x, self.sig.n)
        if self.kind in ("identity", "constant"):
            return self.base.copy()
        return expm(self.poly(x).real * self.generator) @ self.base

    def coframe(self, x) -> np.ndarray:
        """Metric dual: coframe[a, nu] = eta^{ab} eta_{mu nu} y^mu_b."""
        eta = np.diag(np.array(self.sig.metric(), dtype=float))
        y = self.matrix(x)
        return eta @ y.T @ eta

    def jets(self, x, order: int = 2):
        """Returns (Y, dY, d2Y): value, dY[nu, mu, a] = d_nu y^mu_a, and
        d2Y[nu, rho, mu, a]; derivative arrays are None beyond the order."""
        x = _as_point(x, self.sig.n)
        n = self.sig.n
        y = self.matrix(x)
        if self.kind in ("identity", "constant"):
            dy = np.zeros((n, n, n)) if order >= 1 else None
            d2y = np.zeros((n, n, n, n)) if order >= 2 else None
            return y, dy, d2y
        sj = ScalarJet.of_polynomial(self.poly, x, order)
        my = self.generator @ y
        dy = None
        d2y = None
        if order >= 1:
            dy = np.einsum("n,ma->nma", sj.grad.real, my)
        if order >= 2:
            mmy = self.generator @ my
            d2y = (np.einsum("nr,ma->nrma", sj.hess.real, my)
                   + np.einsum("n,r,ma->nrma", sj.grad.real, sj.grad.real, mmy))
        return y, dy, d2y

    def validate(self, points, tol: float = 1e-10) -> float:
        """Max orthogonality residual over the points; raises on breach."""
        eta = np.diag(np.array(self.sig.metric(), dtype=float))
        worst = 0.0
        for x in np.atleast_2d(points):
            y = self.matrix(x)
            res = float(np.max(np.abs(y @ eta @ y.T - eta)))
            worst = max(worst, res)
            if not res <= tol:  # NaN entries fail too
                raise FrameError(f"frame fails orthogonality at {list(x)}: residual {res:.3e}")
        return worst


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
    """

    _MEMO_CAP = 128

    def __init__(self, s_field: MultivectorField):
        self.sig = s_field.sig
        self.s_field = s_field
        gen = s_field.generator if isinstance(s_field, ExpField) else None
        self.bivector_exp = isinstance(gen, PolyField) and set(gen.grades_present()) <= {2}
        self._jet_memo: dict[tuple[bytes, bool], tuple[int, MvJet]] = {}

    @classmethod
    def identity(cls, sig: Signature) -> "GaugeElement":
        return cls(ExpField(PolyField.zero(sig)))

    def value(self, x) -> Multivector:
        return self.s_field.value(x)

    def inv_value(self, x) -> Multivector:
        if self.bivector_exp:
            return reversion(self.s_field.value(x))
        return inverse(self.s_field.value(x))

    def _memo_jet(self, x, order: int, inverse_side: bool) -> MvJet:
        x = _as_point(x, self.sig.n)
        # An exp(bivector) reverses the jet of S itself, so only the fallback
        # inverse keeps memo entries of its own.
        reverse = inverse_side and self.bivector_exp
        key = (x.tobytes(), inverse_side and not reverse)
        hit = self._jet_memo.get(key)
        if hit is not None and hit[0] >= order:
            jet = hit[1].truncate(order)
        else:
            # Jets of S are always eventually needed to second order
            # (transformed connections and curvature both reach it), so
            # compute the full jet once instead of one series per order.
            eff = max(order, 2)
            jet = self.s_field.jet(x, eff)
            if key[1]:
                jet = invert_value_jet(jet)
            self._jet_memo[key] = (eff, jet)
            if len(self._jet_memo) > self._MEMO_CAP:
                self._jet_memo.pop(next(iter(self._jet_memo)))
            jet = jet.truncate(order)
        if reverse:
            return MvJet(self.sig, jet.order, jet.comps * tables(self.sig).reversion_signs)
        return jet

    def jet(self, x, order: int = 1) -> MvJet:
        return self._memo_jet(x, order, False)

    def inv_jet(self, x, order: int = 1) -> MvJet:
        return self._memo_jet(x, order, True)

    def inverse(self) -> "GaugeElement":
        """The gauge element S^-1 = exp(-A) of an S = exp(A)."""
        if not isinstance(self.s_field, ExpField):
            raise CliffordError("only a gauge element exp(A) has an explicit inverse field")
        s = self.s_field
        return GaugeElement(ExpField(s.generator.scale(-1.0), tol=s.tol, max_terms=s.max_terms))

    def connection(self, x) -> list[Multivector]:
        """S^-1 d_mu S for each mu, 0-based list."""
        sj = self.jet(x, 1)
        w = self.inv_value(x)
        return [geometric_product(w, sj.grad(mu)) for mu in range(self.sig.n)]

    def conjugate(self, u: Multivector, x) -> Multivector:
        """S^-1 U S at the point x."""
        return geometric_product(geometric_product(self.inv_value(x), u), self.value(x))

    def membership_report(self, points) -> tuple[float, np.ndarray | None]:
        """Worst center leak of S^-1 dS over the points, with its argmax."""
        worst = 0.0
        where = None
        for x in np.atleast_2d(points):
            for omega in self.connection(x):
                leak = center_leak(omega)
                if leak > worst:
                    worst = leak
                    where = np.asarray(x, dtype=float)
        return worst, where

    def validate_membership(self, points, tol: float = 1e-9) -> float:
        leak, where = self.membership_report(points)
        if leak > tol:
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
            g = tables(a_field.sig).grades
            for x in np.atleast_2d(sample_points_):
                coeffs = a_field.value(x).coeffs
                bad = np.max(np.abs(np.where(g == 2, 0, coeffs)))
                if bad > tol:
                    raise GaugeMembershipError(
                        f"generator leaves grade 2 by {bad:.3e} at {list(x)}", point=x)
    gauge = GaugeElement(ExpField(a_field, tol=exp_tol, max_terms=max_terms))
    if sample_points_ is not None:
        gauge.validate_membership(sample_points_, tol=tol)
    return gauge


def random_bivector_poly_field(sig: Signature, rng: np.random.Generator,
                               scale: float = 0.25, degree: int = 2) -> PolyField:
    """Random bivector-valued polynomial generator with bounded coefficients."""
    n = sig.n
    masks = [m for m in range(sig.dim) if int(tables(sig).grades[m]) == 2]
    amp = scale / max(1.0, np.sqrt(len(masks)))
    blade_polys = {}
    for mask in masks:
        terms = {(0,) * n: complex(rng.uniform(-amp, amp))}
        for mu in range(n):
            exps = [0] * n
            exps[mu] = 1
            terms[tuple(exps)] = complex(rng.uniform(-amp, amp))
        if degree >= 2:
            for i in range(n):
                for j in range(i, n):
                    exps = [0] * n
                    exps[i] += 1
                    exps[j] += 1
                    terms[tuple(exps)] = complex(rng.uniform(-amp, amp) * 0.5)
        blade_polys[mask] = Polynomial(n, terms)
    return PolyField(sig, blade_polys)


class CliffordFieldVector:
    """n multivector fields h^mu forming a moving copy of the generator set.

    Jets are memoized per point (all downstream consumers - the connection,
    the curvature, the gauge sector - hit the same points repeatedly).

    grade_preserving is True only where the construction guarantees that
    the h-contraction F[h](U) = sum_rho eta_rho h^rho U h^rho is the plain
    generator contraction F at every point, so h-grades are blade grades;
    the connection solver then skips the contraction chain. It is set from
    types, never from a numerical probe, and defaults to False.
    """

    _MEMO_CAP = 128
    grade_preserving = False

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n = sig.n
        self._jet_memo: dict[bytes, tuple[int, list["MvJet"]]] = {}

    def values(self, x) -> list[Multivector]:
        return [j.value for j in self.jets(x, 0)]

    def jets(self, x, order: int = 1) -> list[MvJet]:
        x = _as_point(x, self.sig.n)
        key = x.tobytes()
        hit = self._jet_memo.get(key)
        if hit is not None and hit[0] >= order:
            return [j.truncate(order) for j in hit[1]]
        js = self._compute_jets(x, order)
        self._jet_memo[key] = (order, js)
        if len(self._jet_memo) > self._MEMO_CAP:
            self._jet_memo.pop(next(iter(self._jet_memo)))
        return list(js)

    def _compute_jets(self, x: np.ndarray, order: int) -> list[MvJet]:
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
        unit = Multivector.unit(self.sig)
        metric = self.sig.metric()
        worst_anti = 0.0
        worst_trace = 0.0
        worst_leak = 0.0
        for x in np.atleast_2d(points):
            vals = self.values(x)
            for mu in range(self.n):
                worst_leak = max(worst_leak, center_leak(vals[mu]))
                for nu in range(mu, self.n):
                    res = (geometric_product(vals[mu], vals[nu])
                           + geometric_product(vals[nu], vals[mu]))
                    if mu == nu:
                        res = res - 2.0 * metric[mu] * unit
                    worst_anti = max(worst_anti, res.max_norm())
            if self.n % 2 == 1:
                prod = vals[0]
                for mu in range(1, self.n):
                    prod = geometric_product(prod, vals[mu])
                worst_trace = max(worst_trace, abs(trace(prod)))
        report = {
            "anticommutation": worst_anti,
            "trace_product": worst_trace,
            "circ_leak": worst_leak,
        }
        if worst_anti > tol or worst_trace > tol or worst_leak > tol:
            raise FieldVectorError(
                "field vector fails its defining identities: "
                + ", ".join(f"{k}={v:.3e}" for k, v in report.items())
            )
        return report


class _FieldVectorComponent(MultivectorField):
    """View of one component of a field vector as a standalone field."""

    def __init__(self, vec: CliffordFieldVector, index0: int):
        super().__init__(vec.sig)
        self.vec = vec
        self.index0 = index0

    def value(self, x) -> Multivector:
        return self.vec.values(x)[self.index0]

    def jet(self, x, order: int = 1) -> MvJet:
        return self.vec.jets(x, order)[self.index0]


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

    def values(self, x) -> list[Multivector]:
        return [f.value(x) for f in self.fields]

    def _compute_jets(self, x: np.ndarray, order: int) -> list[MvJet]:
        return [f.jet(x, order) for f in self.fields]


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

    def values(self, x) -> list[Multivector]:
        sig = self.sig
        s = self.gauge.value(x)
        w = self.gauge.inv_value(x)
        conj = [
            geometric_product(geometric_product(w, Multivector.generator(sig, a + 1)), s)
            for a in range(self.n)
        ]
        y = self.frame.matrix(x)
        out = []
        for mu in range(self.n):
            coeffs = sum(y[mu, a] * conj[a].coeffs for a in range(self.n))
            out.append(Multivector(sig, coeffs, copy=False))
        return out

    def _compute_jets(self, x: np.ndarray, order: int) -> list[MvJet]:
        sig = self.sig
        n = self.n
        sj = self.gauge.jet(x, order)
        wj = self.gauge.inv_jet(x, order)
        conj = []
        for a in range(n):
            ka = _jet_mul(wj.mul_const(Multivector.generator(sig, a + 1)), sj)
            conj.append(ka.comps)
        kstack = np.stack(conj)  # (a, rows, dim)
        y, dy, d2y = self.frame.jets(x, order)
        if self.frame.kind in ("identity", "constant"):
            hcomps = np.einsum("ua,ark->urk", y, kstack)
            return [MvJet(sig, order, hcomps[mu]) for mu in range(n)]
        rows = kstack.shape[1]
        out = []
        for mu in range(n):
            comps = np.zeros((rows, sig.dim), dtype=np.complex128)
            comps[0] = np.einsum("a,ak->k", y[mu], kstack[:, 0])
            if order >= 1:
                for nu in range(n):
                    comps[1 + nu] = (np.einsum("a,ak->k", y[mu], kstack[:, 1 + nu])
                                     + np.einsum("a,ak->k", dy[nu, mu], kstack[:, 0]))
            if order == 2:
                for i, j in _hess_pairs(n):
                    r = _hidx(n, i, j)
                    comps[r] = (np.einsum("a,ak->k", y[mu], kstack[:, r])
                                + np.einsum("a,ak->k", dy[i, mu], kstack[:, 1 + j])
                                + np.einsum("a,ak->k", dy[j, mu], kstack[:, 1 + i])
                                + np.einsum("a,ak->k", d2y[i, j, mu], kstack[:, 0]))
            out.append(MvJet(sig, order, comps))
        return out


class FiniteDifferenceVector(CliffordFieldVector):
    """Wraps a field vector so its jets come from finite differences only."""

    def __init__(self, base: CliffordFieldVector, step: float = 1e-5,
                 hess_step: float | None = None):
        super().__init__(base.sig)
        self.base = base
        self.step = float(step)
        self.hess_step = None if hess_step is None else float(hess_step)

    def values(self, x) -> list[Multivector]:
        return self.base.values(x)

    def _compute_jets(self, x: np.ndarray, order: int) -> list[MvJet]:
        # All components share one stencil, so evaluate the base vector once
        # per stencil point.
        stencil: dict[bytes, list[Multivector]] = {}

        def vals(pt):
            key = np.asarray(pt).tobytes()
            if key not in stencil:
                stencil[key] = self.base.values(pt)
            return stencil[key]

        out = []
        for mu in range(self.n):
            fn = lambda pt, mu=mu: vals(pt)[mu]
            out.append(fd_jet(fn, self.sig, x, order, self.step, self.hess_step))
        return out


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
    out = np.zeros((count, d))
    for col, base in enumerate(_first_primes(d)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = index.copy()
        weight = 1.0 / base
        for perm in perms:
            out[:, col] += perm[q % base] * weight
            weight /= base
            q //= base
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
