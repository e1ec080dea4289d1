"""Dense real/complex Clifford algebra Cl(p,q) arithmetic.

Basis blades are indexed by bitmask: bit a-1 of the index corresponds to
the generator e^a, so blade 0 is the unit e, blade 0b101 is e^1 e^3, and
coefficients are held in a dense complex vector of length 2^n with n = p + q.
Generators obey e^a e^b + e^b e^a = 2 eta^{ab} e with eta diagonal,
+1 for a <= p and -1 for a > p.

The product sign between blades is the parity of the number of
transpositions needed to interleave the two generator lists, times the
metric factors contributed by repeated generators. The dense 2^n x 2^n
sign tables are built once per signature, on the first Multivector product;
the spinor kernels, the exponential and the inverses never read them.

Two bases share that trailing length 2^n. Blade arrays, the coefficients
above, are the interface: Multivector, polynomial inputs, grade, center and
reversion masks, residual maxima. Spinor arrays hold the same element as
block matrices (see _Tables) and carry the jets of the field layer, whose
products are matrix products; tables(sig).to_spinor and to_blades convert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_N_MAX = 10

# Largest block dimension d whose block products are broadcast multiply-adds
# rather than np.matmul; see _Tables.
BROADCAST_MAX_D = 2

# Largest 1-norm condition number of L(u) that the inverses accept.
MAX_CONDITION = 1e12


class CliffordError(Exception):
    """Base class for algebra errors."""


class SignatureMismatch(CliffordError):
    """Operands belong to different algebras."""


class DimensionLimitError(CliffordError):
    """Requested algebra dimension exceeds the configured maximum."""


class NotInvertible(CliffordError):
    """Element has no inverse, or its left-multiplication operator is too ill-conditioned."""


class SeriesDivergence(CliffordError):
    """Exponential with no significant bit: a generator whose norm is not
    finite or too large to scale, or a result that is not finite."""


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


class _Tables:
    """Cached per-signature tables: the metric diagonal eta, the block-spinor
    kernels and reversion, grades and reversion signs, and the dense
    2^n x 2^n blade tables, built on first use (left_mult_matrix, for
    geometric_product, commutator and anticommutator alone).

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

    block_matmul is the one kernel of stacked products. It lays a spinor
    grid (..., I, K, dim) out as block matrices (..., blocks, I d, K d), so
    that sum_k a[i, k] b[k, j] is one matrix product per leading index and
    block, with contracted length K d; batch_product (K = 1),
    commutator_grid and commutator_sum are built on it. _matmul does the
    products. Up to d = BROADCAST_MAX_D = 2 (n <= 3) they are K d broadcast
    multiply-adds over the whole stack, because np.matmul makes one tiny
    BLAS call per point and block there: one batch_product of 130 points by
    1 x 3 rows (Intel Xeon, one BLAS thread) took 46-56 against 66-108 us at
    Cl(2,0), but 61-64 against 40-51 us at Cl(3,2) (d = 4, 17 points). Each
    term is a product of two entries, summed in order of the contracted
    index, so a point's result does not depend on its batch.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.eta = np.array(sig.metric(), dtype=float)
        self.grades = np.bitwise_count(np.arange(sig.dim, dtype=np.int64))
        self.reversion_signs = np.where((self.grades * (self.grades - 1) // 2) % 2 == 0, 1.0, -1.0)
        self._build_spinor_tables()

    @cached_property
    def xor(self) -> np.ndarray:
        idx = np.arange(self.sig.dim, dtype=np.int64)
        return idx[:, None] ^ idx[None, :]

    def _blade_signs(self) -> np.ndarray:
        """sign[i, j], the scalar in blade_i * blade_j = sign * blade_{i^j}."""
        n, dim = self.sig.n, self.sig.dim
        idx = np.arange(dim, dtype=np.int64)
        i = idx[:, None]
        j = idx[None, :]
        # Reordering swaps: generators of j must pass the higher generators of i.
        swaps = np.zeros((dim, dim), dtype=np.int64)
        for s in range(1, n):
            swaps += np.bitwise_count((i >> s) & j)
        neg_mask = 0
        for a in range(self.sig.p, n):
            neg_mask |= 1 << a
        negs = np.bitwise_count(i & j & neg_mask)
        return np.where((swaps + negs) % 2 == 0, 1.0, -1.0)

    @cached_property
    def _left_index(self) -> np.ndarray:
        # Multiplication matrices are gathered from the concatenation (u, -u),
        # so an index past dim picks up the sign without a separate multiply.
        j = np.arange(self.sig.dim, dtype=np.int64)[None, :]
        return self.xor + self.sig.dim * (self._blade_signs()[self.xor, j] < 0)

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
                square = (k[low] + np.bitwise_count(x[low] & z[low])) % 2
                gk[a] = k[low] + (square != (a >= sig.p))
            has = (blade >> a) & 1 == 1
            k = np.where(has, k + gk[a] + 2 * np.bitwise_count(z & gx[a]), k)
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
        self._hadamard = np.where(np.bitwise_count(r & c) % 2 == 0, 1.0, -1.0).reshape(d, d)
        self._shift = (d * d * np.arange(blocks)[:, None] + (r ^ c) * d + c).ravel()
        self.unit = np.tile(np.eye(d, dtype=np.complex128).ravel(), blocks)
        gens = (blade == 1 << np.arange(n)[:, None]).astype(np.complex128)
        self.generators = self.to_spinor(gens)
        # Reversion is an anti-automorphism that fixes the gammas, so on a
        # block it is M -> C M^T C^-1 for a Pauli string C: it moves every
        # spinor entry to one other entry, times a phase that is real for
        # these gammas (tests/test_spinor.py checks every n <= 10). Read the
        # gather and the signs off the blade round trip of one probe whose
        # entries 1..dim are distinct.
        probe = self.to_spinor(self.to_blades(np.arange(1.0, dim + 1.0)) * self.reversion_signs)
        self._reverse_index = np.rint(np.abs(probe)).astype(np.int64) - 1
        self._reverse_sign = np.sign(probe.real)

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

    def reverse(self, s: np.ndarray) -> np.ndarray:
        """Reversions of spinor arrays s (..., dim): a gather and a sign, so exact."""
        return s[..., self._reverse_index] * self._reverse_sign

    def left_mult_matrix(self, u: np.ndarray) -> np.ndarray:
        """Matrix L with L @ v = u * v on blade arrays, for u of shape (dim,) or (rows, dim).

        L[..., k, j] = u[..., k ^ j] times the sign of blade_{k^j} * blade_j.
        """
        return np.concatenate((u, -u), axis=-1).take(self._left_index, axis=-1)

    def _block_matrix(self, u: np.ndarray) -> np.ndarray:
        """Spinor grids (..., R, C, dim) as block matrices (..., blocks, R d, C d):
        entry (r, c) of block b of u[i, k] goes to row i d + r, column k d + c."""
        blocks, d, _ = self.block_shape
        lead, (rows, cols) = u.shape[:-3], u.shape[-3:-1]
        k = len(lead)
        order = tuple(range(k)) + (k + 2, k, k + 3, k + 1, k + 4)
        return (u.reshape(lead + (rows, cols) + self.block_shape).transpose(order)
                .reshape(lead + (blocks, rows * d, cols * d)))

    def _grid(self, c: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """Block matrices (..., blocks, rows d, cols d) as spinor grids (..., rows, cols, dim)."""
        blocks, d, _ = self.block_shape
        lead = c.shape[:-3]
        k = len(lead)
        order = tuple(range(k)) + (k + 1, k + 3, k, k + 2, k + 4)
        return (c.reshape(lead + (blocks, rows, d, cols, d)).transpose(order)
                .reshape(lead + (rows, cols, self.sig.dim)))

    def _matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Stacked products x @ y of block matrices, contracted length K d: for
        d <= BROADCAST_MAX_D the sum over j of column j of x times row j of y,
        one broadcast multiply-add over the whole stack per j; else np.matmul."""
        if self.block_shape[1] > BROADCAST_MAX_D:
            return np.matmul(x, y)
        out = x[..., :, :1] * y[..., :1, :]
        for j in range(1, x.shape[-1]):
            out += x[..., :, j:j + 1] * y[..., j:j + 1, :]
        return out

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row-by-row products u * v of spinor rows (..., dim) that broadcast."""
        shape = np.broadcast_shapes(u.shape, v.shape)
        x, y = (w.reshape(w.shape[:-1] + self.block_shape) for w in (u, v))
        return self._matmul(x, y).reshape(shape)

    def block_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k a[..., i, k] b[..., k, j] of spinor grids a L + (I, K, dim) and
        b L' + (K, J, dim), with L and L' broadcasting: shape L'' + (I, J, dim),
        one matrix product per leading index and block (see the class docstring)."""
        rows, cols = a.shape[-3], b.shape[-2]
        return self._grid(self._matmul(self._block_matrix(a), self._block_matrix(b)), rows, cols)

    def batch_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise products a_i b_j of spinor rows a L + (I, dim) and
        b L' + (J, dim), per leading index: block_matmul with K = 1."""
        return self.block_matmul(a[..., :, None, :], b[..., None, :, :])

    def commutator_grid(self, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """[a_i, b_j] of spinor rows a (..., I, dim) and b (..., J, dim), per
        leading index, shape (..., I, J, dim).

        Without b it is [a_i, a_j]: one grid P_ij = a_i a_j, and P_ij - P_ji.
        """
        ab = self.batch_product(a, a if b is None else b)
        ba = ab if b is None else self.batch_product(b, a)
        return ab - ba.swapaxes(-3, -2)

    def commutator_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_i [a_i, b_ik] of spinor rows a (..., I, dim) and b (..., I, K, dim),
        per leading index, shape (..., K, dim): two block_matmul products."""
        ab = self.block_matmul(a[..., None, :, :], b)[..., 0, :, :]
        ba = self.block_matmul(b.swapaxes(-3, -2), a[..., :, None, :])[..., 0, :]
        return ab - ba

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


def grades_present(u: Multivector) -> tuple[int, ...]:
    g = tables(u.sig).grades
    return tuple(sorted({int(k) for k in g[np.abs(u.coeffs) > 0]}))


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


def inverse(u: Multivector) -> Multivector:
    """Multiplicative inverse, block by block in the spinor basis (inverse_rows)."""
    return Multivector(u.sig, inverse_rows(u.sig, u.coeffs[None])[0], copy=False)


def inverse_rows(sig: Signature, u: np.ndarray) -> np.ndarray:
    """Blade rows of the inverses of the blade rows u (invert_spinor_rows)."""
    u = np.asarray(u)
    with np.errstate(all="ignore"):  # a non-finite row is refused, not warned about
        s = tables(sig).to_spinor(u)
    return invert_spinor_rows(sig, s, u)[1]


def invert_spinor_rows(sig: Signature, s: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of the spinor rows s (..., 2^n), whose blade rows are u, as
    spinor and as blade rows.

    Each d x d block of s is inverted on its own; a one-sided inverse in a
    finite-dimensional unital algebra is automatically two-sided. The bound
    is the 1-norm condition number ||L|| ||L^-1|| of the left-multiplication
    operator L(u) on blade arrays, formed without L: every column of L(u) is
    a signed permutation of u and L(u)^-1 = L(u^-1), so it is
    ||u||_1 ||u^-1||_1 over blade coefficients. Raises NotInvertible when a
    row has a non-finite coefficient, is zero, has a singular block or no
    finite inverse, or when that condition number exceeds MAX_CONDITION.
    """
    if not np.all(np.isfinite(u)):
        raise NotInvertible("element has a non-finite coefficient")
    unorm = np.abs(u).sum(axis=-1)
    if np.any(unorm == 0.0):
        raise NotInvertible("zero element has no inverse")
    t = tables(sig)
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(s.reshape(s.shape[:-1] + t.block_shape)).reshape(s.shape)
        except np.linalg.LinAlgError as exc:
            raise NotInvertible(f"a spinor block is singular: {exc}") from exc
        if not np.all(np.isfinite(inv)):
            raise NotInvertible("element has no finite inverse")
        w = t.to_blades(inv)
        cond = unorm * np.abs(w).sum(axis=-1)
    if not np.all(cond <= MAX_CONDITION):
        worst = float(np.max(np.where(cond <= MAX_CONDITION, 0.0, cond)))
        raise NotInvertible(f"condition number {worst:.3e} exceeds {MAX_CONDITION:.3e}")
    return inv, w


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
