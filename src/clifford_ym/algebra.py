"""Dense real/complex Clifford algebra Cl(p,q) arithmetic.

Basis blades are indexed by bitmask: bit a-1 of the index corresponds to
the generator e^a, so blade 0 is the unit e, blade 0b101 is e^1 e^3, and
coefficients live in a dense complex vector of length 2^n with n = p + q.
Generators obey e^a e^b + e^b e^a = 2 eta^{ab} e with eta diagonal,
+1 for a <= p and -1 for a > p.

The product sign between blades is the parity of the number of
transpositions needed to interleave the two generator lists, times the
metric factors contributed by repeated generators. Sign tables are built
once per signature and cached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_N_MAX = 10

# Batched products gather the multiplication matrices of the operand with
# fewer rows; that operand is chunked so one gathered (rows, 2^n, 2^n) block
# holds at most this many complex entries (15 rows at n = 9, 3 at n = 10).
_BATCH_BUDGET = 4_000_000


class CliffordError(Exception):
    """Base class for algebra errors."""


class SignatureMismatch(CliffordError):
    """Operands belong to different algebras."""


class DimensionLimitError(CliffordError):
    """Requested algebra dimension exceeds the configured maximum."""


class NotInvertible(CliffordError):
    """Element has no inverse, or its left-multiplication operator is too ill-conditioned."""


class SeriesDivergence(CliffordError):
    """Exponential series failed to converge within the term cap."""

    def __init__(self, message: str, last_term_norm: float):
        super().__init__(message)
        self.last_term_norm = last_term_norm


def n_max() -> int:
    """Maximum supported number of generators, overridable via CLIFFORD_YM_NMAX."""
    raw = os.environ.get("CLIFFORD_YM_NMAX")
    if raw is None:
        return DEFAULT_N_MAX
    try:
        value = int(raw)
    except ValueError as exc:
        raise DimensionLimitError(f"CLIFFORD_YM_NMAX is not an integer: {raw!r}") from exc
    if value < 1:
        raise DimensionLimitError(f"CLIFFORD_YM_NMAX must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators squaring to +e, q squaring to -e."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DimensionLimitError(f"signature counts must be nonnegative, got ({self.p}, {self.q})")
        n = self.p + self.q
        if n < 1:
            raise DimensionLimitError("algebra needs at least one generator")
        limit = n_max()
        if n > limit:
            raise DimensionLimitError(f"n = {n} exceeds the configured maximum {limit}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.n

    def metric(self) -> tuple[int, ...]:
        """Diagonal of eta^{ab}: metric()[a-1] is the square of e^a."""
        return (1,) * self.p + (-1,) * self.q

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a)


class _Tables:
    """Cached per-signature sign tables and product kernels."""

    def __init__(self, sig: Signature):
        n, dim = sig.n, sig.dim
        self.sig = sig
        idx = np.arange(dim, dtype=np.int64)
        i = idx[:, None]
        j = idx[None, :]
        # Reordering swaps: generators of j must pass the higher generators of i.
        swaps = np.zeros((dim, dim), dtype=np.int64)
        for s in range(1, n):
            swaps += _popcount((i >> s) & j)
        neg_mask = 0
        for a in range(sig.p, n):
            neg_mask |= 1 << a
        negs = _popcount(i & j & neg_mask)
        # sign_ij[i, j] is the scalar in  blade_i * blade_j = sign * blade_{i^j}
        sign_ij = np.where((swaps + negs) % 2 == 0, 1.0, -1.0)
        self.xor = i ^ j
        # Gather form: result[k] = sum_i u[i] * sign_k[i, k] * v[i ^ k]
        self.sign_k = sign_ij[i, self.xor]
        sign_l = sign_ij[self.xor, j]
        # Multiplication matrices are gathered from the concatenation (u, -u),
        # so an index past dim picks up the sign without a separate multiply.
        self._left_index = self.xor + dim * (sign_l < 0)
        self._right_index = self.xor + dim * (self.sign_k < 0)
        self.grades = _popcount(idx)
        self.reversion_signs = np.where((self.grades * (self.grades - 1) // 2) % 2 == 0, 1.0, -1.0)

    @staticmethod
    def _signed_take(u: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.concatenate((u, -u), axis=-1).take(index, axis=-1)

    def left_mult_matrix(self, u: np.ndarray) -> np.ndarray:
        """Matrix L with L @ v = u * v, for u of shape (dim,) or (rows, dim).

        L[..., k, j] = u[..., k ^ j] times the sign of blade_{k^j} * blade_j.
        """
        return self._signed_take(u, self._left_index)

    def right_mult_matrix(self, v: np.ndarray) -> np.ndarray:
        """Matrix R with u @ R = u * v, for v of shape (dim,) or (rows, dim).

        R[..., i, k] = v[..., i ^ k] * sign_k[i, k], the sign of blade_i * blade_{i^k}.
        """
        return self._signed_take(v, self._right_index)

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.left_mult_matrix(u) @ v

    def batch_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise products of the rows of a and b, shape (ma, mb, dim).

        Gathers the multiplication matrices of whichever operand has fewer
        rows, chunked so a gathered (rows, dim, dim) block stays within
        _BATCH_BUDGET entries, and contracts each chunk with one matmul.
        """
        rows = max(1, _BATCH_BUDGET // self._left_index.size)
        if a.shape[0] <= b.shape[0]:
            # out[r, s] = L(a[r]) @ b[s], i.e. b @ L(a[r]).T for every r.
            parts = [b @ self.left_mult_matrix(a[lo:lo + rows]).swapaxes(-1, -2)
                     for lo in range(0, max(a.shape[0], 1), rows)]
            axis = 0
        else:
            # out[r, s] = a[r] @ R(b[s]); the matmul stacks over s.
            parts = [(a @ self.right_mult_matrix(b[lo:lo + rows])).swapaxes(0, 1)
                     for lo in range(0, b.shape[0], rows)]
            axis = 1
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


@lru_cache(maxsize=64)
def _tables_cached(p: int, q: int) -> _Tables:
    return _Tables(Signature(p, q))


def tables(sig: Signature) -> _Tables:
    return _tables_cached(sig.p, sig.q)


class Multivector:
    """Element of Cl(p,q) as a dense complex coefficient vector over blades."""

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs, copy: bool = True):
        arr = np.array(coeffs, dtype=np.complex128, copy=copy)
        if arr.shape != (sig.dim,):
            raise CliffordError(f"expected {sig.dim} coefficients for {sig}, got shape {arr.shape}")
        self.sig = sig
        self.coeffs = arr

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(sig.dim, dtype=np.complex128), copy=False)

    @classmethod
    def unit(cls, sig: Signature) -> "Multivector":
        c = np.zeros(sig.dim, dtype=np.complex128)
        c[0] = 1.0
        return cls(sig, c, copy=False)

    @classmethod
    def scalar(cls, sig: Signature, value: complex) -> "Multivector":
        c = np.zeros(sig.dim, dtype=np.complex128)
        c[0] = value
        return cls(sig, c, copy=False)

    @classmethod
    def generator(cls, sig: Signature, a: int) -> "Multivector":
        """The generator e^a, 1-based label a in 1..n."""
        if not 1 <= a <= sig.n:
            raise CliffordError(f"generator label {a} out of range 1..{sig.n}")
        c = np.zeros(sig.dim, dtype=np.complex128)
        c[1 << (a - 1)] = 1.0
        return cls(sig, c, copy=False)

    @classmethod
    def blade(cls, sig: Signature, labels, coeff: complex = 1.0) -> "Multivector":
        """Basis blade e^{a1} e^{a2} ... for strictly increasing labels, times coeff."""
        mask = 0
        prev = 0
        for a in labels:
            if not 1 <= a <= sig.n:
                raise CliffordError(f"generator label {a} out of range 1..{sig.n}")
            if a <= prev:
                raise CliffordError(f"blade labels must be strictly increasing, got {tuple(labels)}")
            mask |= 1 << (a - 1)
            prev = a
        c = np.zeros(sig.dim, dtype=np.complex128)
        c[mask] = coeff
        return cls(sig, c, copy=False)

    def _check(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.sig, self.coeffs + other.coeffs, copy=False)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.sig, self.coeffs - other.coeffs, copy=False)

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, -self.coeffs, copy=False)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self.sig, self.coeffs * complex(other), copy=False)

    def __rmul__(self, other):
        return Multivector(self.sig, complex(other) * self.coeffs, copy=False)

    def __truediv__(self, other):
        return Multivector(self.sig, self.coeffs / complex(other), copy=False)

    def max_norm(self) -> float:
        """Largest coefficient magnitude."""
        return float(np.max(np.abs(self.coeffs)))

    def component(self, labels) -> complex:
        mask = 0
        for a in labels:
            mask |= 1 << (a - 1)
        return complex(self.coeffs[mask])

    def is_real(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.coeffs.imag)) <= tol)

    def __repr__(self) -> str:
        parts = []
        for mask in range(self.sig.dim):
            c = self.coeffs[mask]
            if c == 0:
                continue
            name = "e" if mask == 0 else "e" + "".join(str(a + 1) for a in range(self.sig.n) if mask >> a & 1)
            if c.imag == 0:
                parts.append(f"{c.real:+.6g}*{name}")
            else:
                parts.append(f"+({c:.6g})*{name}")
        body = " ".join(parts) if parts else "0"
        return f"<{self.sig} {body}>"


def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    u._check(v)
    return Multivector(u.sig, tables(u.sig).product(u.coeffs, v.coeffs), copy=False)


def grade_project(u: Multivector, k: int) -> Multivector:
    """Projection onto the grade-k subspace."""
    if not 0 <= k <= u.sig.n:
        raise CliffordError(f"grade {k} out of range 0..{u.sig.n}")
    out = np.where(tables(u.sig).grades == k, u.coeffs, 0.0 + 0.0j)
    return Multivector(u.sig, out, copy=False)


def grades_present(u: Multivector, tol: float = 0.0) -> tuple[int, ...]:
    g = tables(u.sig).grades
    return tuple(sorted({int(k) for k in g[np.abs(u.coeffs) > tol]}))


def trace(u: Multivector) -> complex:
    """Normalized trace: the coefficient of the unit blade."""
    return complex(u.coeffs[0])


def reversion(u: Multivector) -> Multivector:
    """Reverse the generator order in every blade: sign (-1)^(k(k-1)/2) on grade k."""
    return Multivector(u.sig, u.coeffs * tables(u.sig).reversion_signs, copy=False)


def commutator(u: Multivector, v: Multivector) -> Multivector:
    u._check(v)
    t = tables(u.sig)
    return Multivector(u.sig, t.product(u.coeffs, v.coeffs) - t.product(v.coeffs, u.coeffs), copy=False)


def anticommutator(u: Multivector, v: Multivector) -> Multivector:
    u._check(v)
    t = tables(u.sig)
    return Multivector(u.sig, t.product(u.coeffs, v.coeffs) + t.product(v.coeffs, u.coeffs), copy=False)


def center_project(u: Multivector) -> Multivector:
    """Projection onto the center: grade 0 for even n, grades 0 and n for odd n."""
    g = tables(u.sig).grades
    n = u.sig.n
    keep = g == 0
    if n % 2 == 1:
        keep = keep | (g == n)
    return Multivector(u.sig, np.where(keep, u.coeffs, 0.0 + 0.0j), copy=False)


def circ_project(u: Multivector) -> Multivector:
    """Projection onto the linear complement of the center."""
    return u - center_project(u)


def center_leak(u: Multivector) -> float:
    """Max-norm of the central part; zero iff u lies in the complement subspace."""
    return center_project(u).max_norm()


def exponential(u: Multivector, tol: float = 1e-14, max_terms: int = 64) -> Multivector:
    """exp(u) by the power series, truncated when a term's max-norm drops below tol."""
    t = tables(u.sig)
    acc = Multivector.unit(u.sig).coeffs
    term = acc.copy()
    for k in range(1, max_terms + 1):
        term = t.product(term, u.coeffs) / k
        acc = acc + term
        norm = float(np.max(np.abs(term)))
        if norm < tol:
            return Multivector(u.sig, acc, copy=False)
    raise SeriesDivergence(
        f"exponential series did not reach tol={tol} within {max_terms} terms", norm
    )


def inverse(u: Multivector, max_condition: float = 1e12) -> Multivector:
    """Multiplicative inverse via the 2^n x 2^n left-multiplication linear system.

    Solves L(u) w = coeffs(e) with partial pivoting; a one-sided inverse in a
    finite-dimensional unital algebra is automatically two-sided. Raises
    NotInvertible when L(u) is singular or its condition estimate exceeds
    max_condition.
    """
    import warnings

    from scipy.linalg import LinAlgError, get_lapack_funcs, lu_factor, lu_solve

    mat = tables(u.sig).left_mult_matrix(u.coeffs)
    anorm = np.linalg.norm(mat, 1)
    if anorm == 0.0:
        raise NotInvertible("zero element has no inverse")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu, piv = lu_factor(mat)
    except LinAlgError as exc:
        raise NotInvertible(f"left-multiplication operator is singular: {exc}") from exc
    if not np.all(np.isfinite(lu)):
        raise NotInvertible("left-multiplication operator is singular")
    gecon = get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond <= 0 or 1.0 / rcond > max_condition:
        est = (1.0 / rcond) if rcond > 0 else np.inf
        raise NotInvertible(f"condition estimate {est:.3e} exceeds max_condition={max_condition:.3e}")
    rhs = np.zeros(u.sig.dim, dtype=np.complex128)
    rhs[0] = 1.0
    return Multivector(u.sig, lu_solve((lu, piv), rhs), copy=False)


def random_multivector(sig: Signature, rng: np.random.Generator, grades=None,
                       scale: float = 1.0, real: bool = False) -> Multivector:
    """Random element with independent coefficients, optionally grade-restricted."""
    if real:
        c = rng.standard_normal(sig.dim).astype(np.complex128)
    else:
        c = (rng.standard_normal(sig.dim) + 1j * rng.standard_normal(sig.dim)) / np.sqrt(2)
    if grades is not None:
        g = tables(sig).grades
        keep = np.isin(g, np.asarray(list(grades)))
        c = np.where(keep, c, 0.0 + 0.0j)
    return Multivector(sig, scale * c, copy=False)


def to_dict(u: Multivector) -> dict:
    """JSON-ready form: dense [re, im] coefficient pairs ordered by blade mask."""
    return {
        "p": u.sig.p,
        "q": u.sig.q,
        "coeffs": [[float(c.real), float(c.imag)] for c in u.coeffs],
    }


def from_dict(data: dict) -> Multivector:
    sig = Signature(int(data["p"]), int(data["q"]))
    pairs = data["coeffs"]
    if len(pairs) != sig.dim:
        raise CliffordError(f"expected {sig.dim} coefficient pairs for {sig}, got {len(pairs)}")
    coeffs = np.array([complex(float(re), float(im)) for re, im in pairs])
    return Multivector(sig, coeffs, copy=False)


def fraction_to_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}
