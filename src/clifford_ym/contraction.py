"""Generator-contraction calculus.

The contraction F(U) = e^a U e_a (sum over a, index lowered with the metric)
preserves grade and acts on grade k as the scalar lambda_k = (-1)^k (n - 2k).
Powers of F therefore give linear combinations of grade projections with a
Vandermonde coefficient matrix, which this module inverts in exact rational
arithmetic to express projections through contractions:

  even n:  pi_k(U)            = sum_l b_kl F^l(U),       B = A^-1
  odd n:   pi_k(U) + pi_{n-k}(U) = sum_l g_kl F^l(U),    G = D^-1

(odd n has the degeneracy lambda_k = lambda_{n-k}, so only the paired
projections are reachable and the full Vandermonde system is singular).

The same tables produce the connection weights used by the field-equation
solver: mu_k = 1/(n - lambda_k) where defined, and the collapsed weights
r_l = sum_k mu_k b_kl (even n) or s_l = sum_k mu_k g_kl (odd n, k up to
(n-1)/2).

Index convention: k and l are 0-based everywhere in this module, so
A[k][l] = lambda_l ** k. One-based presentations of the same tables write
a_{kl} = (lambda_{l-1})^{k-1}; entries are identical, only labels shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    CliffordError,
    Multivector,
    geometric_product,
    grade_project,
)


class SingularMatrixError(CliffordError):
    """Exact elimination hit a structurally singular matrix."""


def lambdas(n: int) -> tuple[int, ...]:
    """Contraction eigenvalues lambda_k = (-1)^k (n - 2k) for k = 0..n."""
    return tuple((-1) ** k * (n - 2 * k) for k in range(n + 1))


def contract(u: Multivector, vectors=None) -> Multivector:
    """F(U) = sum_a eta_a v^a U v^a over n vectors, the generators e^a by default.

    The metric eta comes from u.sig. With the values of a Clifford field
    vector h at a point this is the h-contraction F[h].
    """
    sig = u.sig
    if vectors is None:
        vectors = [Multivector.generator(sig, a) for a in range(1, sig.n + 1)]
    vectors = list(vectors)
    if len(vectors) != sig.n:
        raise CliffordError(f"need {sig.n} vectors to contract with, got {len(vectors)}")
    acc = Multivector.zero(sig)
    for eta, v in zip(sig.metric(), vectors):
        acc = acc + eta * geometric_product(geometric_product(v, u), v)
    return acc


def contraction_series(u, coeffs, step):
    """sum_l c_l F^l(u) with F = step, skipping zero c_l; None if every c_l is 0.

    Needs only scalar multiplication and addition, so the one loop serves
    multivectors (project) and jets (the connection) alike.
    """
    acc = None
    power = u
    for l, c in enumerate(coeffs):
        if l > 0:
            power = step(power)
        if c != 0:
            term = float(c) * power
            acc = term if acc is None else acc + term
    return acc


def invert_rational_matrix(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gaussian elimination over Fraction entries.

    Pivots on the first nonzero entry in each column; raises
    SingularMatrixError when no pivot exists.
    """
    m = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
           for i, row in enumerate(rows)]
    if any(len(row) != 2 * m for row in aug):
        raise SingularMatrixError("matrix is not square")
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_pivot = 1 / aug[col][col]
        aug[col] = [x * inv_pivot for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


@dataclass(frozen=True)
class ContractionTable:
    """Exact projection and connection coefficients for one dimension n.

    For even n, a and b are the (n+1)x(n+1) power matrix and its inverse;
    for odd n they are None and d/g hold the (n+1)/2-sized paired system.
    mus[k] = 1/(n - lambda_k) or None where n - lambda_k = 0 (k = 0 always;
    also k = n for odd n). weights holds r_l (even) or s_l (odd).
    """

    n: int
    lambdas: tuple[int, ...]
    a: tuple[tuple[int, ...], ...] | None
    b: tuple[tuple[Fraction, ...], ...] | None
    d: tuple[tuple[int, ...], ...] | None
    g: tuple[tuple[Fraction, ...], ...] | None
    mus: tuple[Fraction | None, ...]
    weights: tuple[Fraction, ...]

    @property
    def even(self) -> bool:
        return self.n % 2 == 0

    @property
    def max_k(self) -> int:
        """Largest valid projection label: n for even n, (n-1)/2 paired for odd."""
        return self.n if self.even else (self.n - 1) // 2

    def projector_row(self, k: int) -> tuple[Fraction, ...]:
        """Coefficients of F^0..F^L reproducing pi_k (even) or pi_{k,n-k} (odd)."""
        if not 0 <= k <= self.max_k:
            raise CliffordError(f"projection label {k} out of range 0..{self.max_k}")
        return self.b[k] if self.even else self.g[k]


@lru_cache(maxsize=None)
def build_table(n: int) -> ContractionTable:
    """Construct the exact tables for dimension n."""
    if n < 1:
        raise CliffordError(f"dimension must be >= 1, got {n}")
    lam = lambdas(n)
    mus = tuple(None if n - lk == 0 else Fraction(1, n - lk) for lk in lam)
    # Odd n has lambda_k = lambda_{n-k}, so its system uses the distinct
    # values lambda_0..lambda_{(n-1)/2} and solves for the paired projections.
    size = n + 1 if n % 2 == 0 else (n + 1) // 2
    power = [[lam[l] ** k for l in range(size)] for k in range(size)]
    inverse = invert_rational_matrix([[Fraction(x) for x in row] for row in power])
    weights = tuple(
        sum((mus[k] * inverse[k][l] for k in range(1, size)), Fraction(0))
        for l in range(size)
    )
    pair = (tuple(tuple(row) for row in power), tuple(tuple(row) for row in inverse))
    a, b, d, g = pair + (None, None) if n % 2 == 0 else (None, None) + pair
    return ContractionTable(n=n, lambdas=lam, a=a, b=b, d=d, g=g, mus=mus, weights=weights)


def project(u: Multivector, k: int, vectors=None,
            table: ContractionTable | None = None) -> Multivector:
    """Grade projection through contraction powers alone.

    With the generators (the default), even n gives grade_project(u, k) and
    odd n the paired grade_project_paired(u, k) for k up to (n-1)/2. With
    the values of a field vector h it gives the h-grade projection pi[h]_k
    (paired likewise for odd n).
    """
    n = u.sig.n
    if table is None:
        table = build_table(n)
    if table.n != n:
        raise CliffordError(f"table is for n={table.n}, element lives in n={n}")
    acc = contraction_series(u, table.projector_row(k), lambda v: contract(v, vectors))
    return Multivector.zero(u.sig) if acc is None else acc


def grade_project_paired(u: Multivector, k: int) -> Multivector:
    """Direct popcount-filter oracle for the paired projection pi_{k,n-k}."""
    n = u.sig.n
    out = grade_project(u, k)
    if k != n - k:
        out = out + grade_project(u, n - k)
    return out


def fraction_to_json(x: Fraction) -> dict:
    """A rational as {"num": str, "den": str}, exact at any size."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def table_to_json(table: ContractionTable) -> dict:
    """JSON form with rationals as fraction_to_json dicts to keep exactness."""
    def fmat(rows):
        return None if rows is None else [[fraction_to_json(Fraction(x)) for x in row] for row in rows]

    return {
        "n": table.n,
        "parity": "even" if table.even else "odd",
        "index_convention": "k and l are 0-based; power matrix entry [k][l] equals lambda_l ** k",
        "lambdas": list(table.lambdas),
        "A": fmat(table.a),
        "B": fmat(table.b),
        "D": fmat(table.d),
        "G": fmat(table.g),
        "mus": [None if m is None else fraction_to_json(m) for m in table.mus],
        "weights_kind": "r" if table.even else "s",
        "weights": [fraction_to_json(w) for w in table.weights],
    }
