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

Two bases share that trailing length 2^n. Blade arrays, the coefficients
above, are the interface: Multivector, polynomial inputs, grade, center and
reversion masks, residual maxima. Spinor arrays hold the same element as
block matrices (see _Tables) and carry the jets of the field layer, whose
products are matrix products; tables(sig).to_spinor and to_blades convert.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_N_MAX = 10

# Largest block dimension d whose block products are broadcast multiply-adds
# rather than np.matmul; see _Tables.
BROADCAST_MAX_D = 2


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
    """Cached per-signature tables: blade sign tables and the block-spinor kernels.

    Blade arrays hold 2^n coefficients over the basis blades. Spinor arrays
    hold the image of the same element under the faithful representation
    Cl(p,q) (x) C = M_d(C) for even n and M_d(C) + M_d(C) for odd n, with
    m = floor(n/2) and d = 2^m (P. Lounesto, Clifford Algebras and Spinors,
    2nd ed., 2001): a trailing axis of the same length 2^n that holds
    (blocks, d, d) in row-major order, one block for even n and two for odd
    n. There a product is a matrix product per block.

    The gammas are Jordan-Wigner strings on m qubits,
    gamma_2k = Z^(qubits < k) X_k and gamma_2k+1 = Z^(qubits < k) Y_k, times
    i for the generators a > p; for odd n the last one is kappa times the
    product of the others, with kappa in {1, i} fixing its square to its
    metric sign, and block 1 takes it with the opposite sign, so the two
    blocks separate the central pseudoscalar. Every blade is then a phase
    in {1, i, -1, -i} times one Pauli string X^x Z^z in each block, and the
    blade images are orthogonal in the Frobenius product, with norm sqrt(d)
    per block. An entry of a spinor array is a sum of unit-modulus multiples
    of blade coefficients and each blade coefficient an average of them, so
    the largest entry of a spinor array bounds its largest blade coefficient
    from above.

    product, batch_product and commutators multiply stacks of blocks in
    _matmul. Up to d = BROADCAST_MAX_D = 2 (n <= 3) that is d broadcast
    multiply-adds over the whole stack, one ufunc call per contracted index,
    because np.matmul makes one tiny BLAS call per point and block there.
    One batch_product of 130 points by 1 x 3 rows (Intel Xeon, one BLAS
    thread) took 46-56 us that way against 66-108 us through np.matmul at
    Cl(2,0), and 70-85 against 135-197 us at Cl(2,1); at Cl(3,2) (d = 4,
    17 points) it took 61-64 us against 40-51 us, so larger blocks keep
    np.matmul. Each term is a product of two entries, summed in order of the
    contracted index, so a point's result does not depend on its batch.
    """

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
        self._build_spinor_tables()

    def _build_spinor_tables(self):
        sig = self.sig
        n, dim = sig.n, sig.dim
        m = n // 2
        d = 1 << m
        blocks = 1 + n % 2
        self.block_shape = (blocks, d, d)
        # Generator a is i^gk[a] X^gx[a] Z^gz[a] in block 0, bit k of x and z
        # standing for qubit k.
        qubit = np.arange(m)
        gx = np.zeros(n, dtype=np.int64)
        gz = np.zeros(n, dtype=np.int64)
        gk = np.zeros(n, dtype=np.int64)
        gx[0:2 * m:2] = gx[1:2 * m:2] = 1 << qubit
        gz[0:2 * m:2] = (1 << qubit) - 1
        gz[1:2 * m:2] = (2 << qubit) - 1  # Y = i X Z
        gk[1:2 * m:2] = 1
        gk[sig.p:2 * m] += 1
        # Fold the generators over the bits of every blade, in increasing
        # order: X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).
        blade = np.arange(dim, dtype=np.int64)
        x = np.zeros(dim, dtype=np.int64)
        z = np.zeros(dim, dtype=np.int64)
        k = np.zeros(dim, dtype=np.int64)
        for a in range(n):
            if a == 2 * m:
                # Odd n: the product of the other gammas (the blade of all the
                # lower bits) squares to (-1)^(k + |z & x|); kappa = i where
                # that is not the metric sign of generator a.
                low = dim // 2 - 1
                gx[a], gz[a] = x[low], z[low]
                square = (k[low] + _popcount(x[low] & z[low])) % 2
                gk[a] = k[low] + (square != (a >= sig.p))
            has = (blade >> a) & 1 == 1
            k = np.where(has, k + gk[a] + 2 * _popcount(z & gx[a]), k)
            x = np.where(has, x ^ gx[a], x)
            z = np.where(has, z ^ gz[a], z)
        phase = np.array([1, 1j, -1, -1j])[k % 4]
        # Blade b fills slot t d^2 + x d + z of an intermediate array whose
        # part t holds the blades with top bit t (odd n; t = 0 for even n).
        top = (blade >> (n - 1)) & 1 if blocks == 2 else 0
        self._blade_slot = top * d * d + x * d + z
        self._slot_blade = np.argsort(self._blade_slot)
        self._slot_phase = phase[self._slot_blade]
        self._blade_weight = phase.conj() / (blocks * d)
        # X^x Z^z has entry (-1)^|z & j| at row j ^ x, column j: (x, z)
        # coefficients times the Hadamard matrix give rows x, and entry
        # [i, j] of the block is row i ^ j at column j.
        r, c = np.divmod(np.arange(d * d), d)
        self._hadamard = np.where(_popcount(r & c) % 2 == 0, 1.0, -1.0).reshape(d, d)
        self._shift = (d * d * np.arange(blocks)[:, None] + (r ^ c) * d + c).ravel()
        self.unit = np.tile(np.eye(d, dtype=np.complex128).ravel(), blocks)
        self.generators = self.to_spinor(np.eye(dim, dtype=np.complex128)[1 << np.arange(n)])

    def _hadamard_rows(self, u: np.ndarray) -> np.ndarray:
        d = self._hadamard.shape[0]
        return (u.reshape(-1, d) @ self._hadamard).reshape(u.shape)

    def _fold_blocks(self, u: np.ndarray) -> np.ndarray:
        """(u0 + u1, u0 - u1) of the two halves of the last axis, for odd n.

        Half 1 holds the blades that contain the top generator, whose gamma
        changes sign in block 1, so block b is u0 + (-1)^b u1; applied to
        the blocks, the same map gives the halves back times 2.
        """
        if self.block_shape[0] == 1:
            return u
        half = u.shape[-1] // 2
        u0, u1 = u[..., :half], u[..., half:]
        return np.concatenate((u0 + u1, u0 - u1), axis=-1)

    def to_spinor(self, u: np.ndarray) -> np.ndarray:
        """Spinor arrays of blade arrays u (..., dim)."""
        g = self._fold_blocks(u[..., self._slot_blade] * self._slot_phase)
        return self._hadamard_rows(g)[..., self._shift]

    def to_blades(self, s: np.ndarray) -> np.ndarray:
        """Blade arrays of spinor arrays s (..., dim)."""
        g = self._fold_blocks(self._hadamard_rows(s[..., self._shift]))
        return g[..., self._blade_slot] * self._blade_weight

    def left_mult_matrix(self, u: np.ndarray) -> np.ndarray:
        """Matrix L with L @ v = u * v on blade arrays, for u of shape (dim,) or (rows, dim).

        L[..., k, j] = u[..., k ^ j] times the sign of blade_{k^j} * blade_j.
        """
        return self._signed_take(u, self._left_index)

    def right_mult_matrix(self, v: np.ndarray) -> np.ndarray:
        """Matrix R with u @ R = u * v on blade arrays, for v of shape (dim,) or (rows, dim).

        R[..., i, k] = v[..., i ^ k] * sign_k[i, k], the sign of blade_i * blade_{i^k}.
        """
        return self._signed_take(v, self._right_index)

    @staticmethod
    def _signed_take(u: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.concatenate((u, -u), axis=-1).take(index, axis=-1)

    def _blocks(self, u: np.ndarray) -> np.ndarray:
        """Spinor rows (..., dim) as (..., blocks, d, d)."""
        return u.reshape(u.shape[:-1] + self.block_shape)

    def _tall(self, a: np.ndarray) -> np.ndarray:
        """Spinor rows (..., m, dim) stacked as (..., blocks, m d, d)."""
        blocks, d, _ = self.block_shape
        lead, m = a.shape[:-2], a.shape[-2]
        return self._blocks(a).swapaxes(-4, -3).reshape(lead + (blocks, m * d, d))

    def _wide(self, b: np.ndarray) -> np.ndarray:
        """Spinor rows (..., m, dim) side by side as (..., blocks, d, m d)."""
        blocks, d, _ = self.block_shape
        lead, m = b.shape[:-2], b.shape[-2]
        k = len(lead)
        order = tuple(range(k)) + (k + 1, k + 2, k, k + 3)
        return self._blocks(b).transpose(order).reshape(lead + (blocks, d, m * d))

    def _pairs(self, c: np.ndarray, ma: int, mb: int) -> np.ndarray:
        """Blockwise products (..., blocks, ma d, mb d) as rows (..., ma, mb, dim)."""
        blocks, d, _ = self.block_shape
        lead = c.shape[:-3]
        k = len(lead)
        order = tuple(range(k)) + (k + 1, k + 3, k, k + 2, k + 4)
        return (c.reshape(lead + (blocks, ma, d, mb, d)).transpose(order)
                .reshape(lead + (ma, mb, self.sig.dim)))

    def _matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Stacked block products x @ y, whose contracted dimension is d.

        Up to d = BROADCAST_MAX_D they are the sum over j of the column
        x[..., :, j] times the row y[..., j, :], one broadcast multiply-add
        over the whole stack per j; beyond that, np.matmul.
        """
        d = self.block_shape[1]
        if d > BROADCAST_MAX_D:
            return np.matmul(x, y)
        out = x[..., :, :1] * y[..., :1, :]
        for j in range(1, d):
            out += x[..., :, j:j + 1] * y[..., j:j + 1, :]
        return out

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row-by-row products u * v of spinor rows (..., dim) that broadcast."""
        shape = np.broadcast_shapes(u.shape, v.shape)
        return self._matmul(self._blocks(u), self._blocks(v)).reshape(shape)

    def batch_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise products of the spinor rows of a and b, per leading index.

        a has shape L + (ma, dim) and b has shape L' + (mb, dim) with L and L'
        broadcasting; the result has shape L'' + (ma, mb, dim). Per leading
        index and block this is one matrix product, the rows of a stacked
        vertically times the rows of b side by side: one np.matmul, or for
        d <= BROADCAST_MAX_D, d broadcast multiply-adds over all leading
        indices (see the class docstring).
        """
        return self._pairs(self._matmul(self._tall(a), self._wide(b)), a.shape[-2], b.shape[-2])

    def commutators(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[a[i], b[i, ...]] of spinor rows, for every leading index i of a.

        a has shape L + (dim,) and b has shape L' + K + (dim,), where L'
        broadcasts against L; the result has shape L + K + (dim,). Per
        leading index and block, a_i times all of b_i and all of b_i times
        a_i are one matrix product each, formed as in batch_product.
        """
        lead = a.shape[:-1]
        tail = b.shape[len(lead):-1]
        m = math.prod(tail)
        b = b.reshape(b.shape[:len(lead)] + (m, self.sig.dim))
        ab = self._pairs(self._matmul(self._blocks(a), self._wide(b)), 1, m)[..., 0, :, :]
        ba = self._pairs(self._matmul(self._tall(b), self._blocks(a)), m, 1)[..., 0, :]
        return (ab - ba).reshape(lead + tail + (self.sig.dim,))

    @property
    def center(self) -> np.ndarray:
        """Mask of the central blades: grade 0, and grade n for odd n."""
        n = self.sig.n
        return (self.grades == 0) | ((self.grades == n) & (n % 2 == 1))


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


def _blade_product(sig: Signature, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u * v of two blade arrays (dim,) through the dense multiplication matrix L(u),
    which is exact on basis blades and on the unit."""
    return tables(sig).left_mult_matrix(u) @ v


def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    u._check(v)
    return Multivector(u.sig, _blade_product(u.sig, u.coeffs, v.coeffs), copy=False)


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
    uv = _blade_product(u.sig, u.coeffs, v.coeffs)
    return Multivector(u.sig, uv - _blade_product(u.sig, v.coeffs, u.coeffs), copy=False)


def anticommutator(u: Multivector, v: Multivector) -> Multivector:
    u._check(v)
    uv = _blade_product(u.sig, u.coeffs, v.coeffs)
    return Multivector(u.sig, uv + _blade_product(u.sig, v.coeffs, u.coeffs), copy=False)


def center_project(u: Multivector) -> Multivector:
    """Projection onto the center: grade 0 for even n, grades 0 and n for odd n."""
    return Multivector(u.sig, np.where(tables(u.sig).center, u.coeffs, 0.0 + 0.0j), copy=False)


def circ_project(u: Multivector) -> Multivector:
    """Projection onto the linear complement of the center."""
    return u - center_project(u)


def center_leak(u: Multivector) -> float:
    """Max-norm of the central part; zero iff u lies in the complement subspace."""
    return center_project(u).max_norm()


def exponential(u: Multivector, tol: float = 1e-14, max_terms: int = 64) -> Multivector:
    """exp(u) by the power series, truncated when a term's max-norm drops below tol."""
    acc = Multivector.unit(u.sig).coeffs
    term = acc.copy()
    for k in range(1, max_terms + 1):
        term = _blade_product(u.sig, term, u.coeffs) / k
        acc = acc + term
        norm = float(np.max(np.abs(term)))
        if norm < tol:
            return Multivector(u.sig, acc, copy=False)
    raise SeriesDivergence(
        f"exponential series did not reach tol={tol} within {max_terms} terms", norm
    )


def inverse(u: Multivector, max_condition: float = 1e12) -> Multivector:
    """Multiplicative inverse via the 2^n x 2^n left-multiplication linear system."""
    return Multivector(u.sig, inverse_rows(u.sig, u.coeffs[None], max_condition)[0], copy=False)


def inverse_rows(sig: Signature, u: np.ndarray, max_condition: float = 1e12) -> np.ndarray:
    """Inverses of the stacked elements u (..., 2^n), row by row.

    The inverse of L(u) has the coefficients of u^-1 as its first column,
    since L(u) w = coeffs(e); a one-sided inverse in a finite-dimensional
    unital algebra is automatically two-sided. Raises NotInvertible when a
    row has a non-finite coefficient, when its L(u) is singular or has no
    finite inverse, or when its 1-norm condition number ||L|| ||L^-1||
    exceeds max_condition.
    """
    if not np.all(np.isfinite(u)):
        raise NotInvertible("element has a non-finite coefficient")
    mat = tables(sig).left_mult_matrix(u)
    anorm = np.linalg.norm(mat, 1, axis=(-2, -1))
    if np.any(anorm == 0.0):
        raise NotInvertible("zero element has no inverse")
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError as exc:
            raise NotInvertible(f"left-multiplication operator is singular: {exc}") from exc
        if not np.all(np.isfinite(inv)):
            raise NotInvertible("left-multiplication operator has no finite inverse")
        cond = anorm * np.linalg.norm(inv, 1, axis=(-2, -1))
    if not np.all(cond <= max_condition):
        worst = float(np.max(np.where(cond <= max_condition, 0.0, cond)))
        raise NotInvertible(f"condition number {worst:.3e} exceeds max_condition={max_condition:.3e}")
    return inv[..., :, 0].copy()


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


def fraction_to_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}
