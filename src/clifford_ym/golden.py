"""Frozen reference values for the contraction tables and connection weights.

These rationals are the published small-dimension tables; they depend only
on n, never on the split (p, q). They are kept as literal Fractions so any
drift in the eigenvalue definition, the Lagrange rows, or the weight
sums fails loudly and exactly.
"""

from __future__ import annotations

from fractions import Fraction as Fr

from .contraction import ContractionTable, build_table

F = Fr

A_N2 = (
    (1, 1, 1),
    (2, 0, -2),
    (4, 0, 4),
)

B_N2 = (
    (F(0), F(1, 4), F(1, 8)),
    (F(1), F(0), F(-1, 4)),
    (F(0), F(-1, 4), F(1, 8)),
)

D_N3 = (
    (1, 1),
    (3, -1),
)

G_N3 = (
    (F(1, 4), F(1, 4)),
    (F(3, 4), F(-1, 4)),
)

B_N4 = (
    (F(0), F(-1, 24), F(-1, 96), F(1, 96), F(1, 384)),
    (F(0), F(-1, 3), F(1, 6), F(1, 48), F(-1, 96)),
    (F(1), F(0), F(-5, 16), F(0), F(1, 64)),
    (F(0), F(1, 3), F(1, 6), F(-1, 48), F(-1, 96)),
    (F(0), F(1, 24), F(-1, 96), F(-1, 96), F(1, 384)),
)

# Collapsed connection weights: C_mu = sum_l weight_l F[h]^l((d_mu h^rho) h_rho)
R_N2 = (F(1, 2), F(-1, 16), F(-3, 32))
S_N3 = (F(3, 16), F(-1, 16))
R_N4 = (F(1, 4), F(67, 576), F(73, 2304), F(-19, 2304), F(-25, 9216))

LAMBDAS_N2 = (2, 0, -2)
LAMBDAS_N3 = (3, -1, -1, 3)
LAMBDAS_N4 = (4, -2, 0, 2, -4)


# The frozen checks of each n, as (name, value) pairs; the power, inverse and
# weights are named by the table's letters for its parity (ContractionTable.names).
GOLDEN = {
    2: (("lambdas", LAMBDAS_N2), ("A", A_N2), ("B", B_N2), ("r weights", R_N2)),
    3: (("lambdas", LAMBDAS_N3), ("D", D_N3), ("G", G_N3), ("s weights", S_N3)),
    4: (("lambdas", LAMBDAS_N4), ("B", B_N4), ("r weights", R_N4)),
}


def compare_table(table: ContractionTable) -> list[tuple[str, bool, str]]:
    """Checks for one table; returns (check name, ok, detail) triples."""
    if table.n not in GOLDEN:
        return [(f"n={table.n}", False, "no frozen reference values for this n")]
    power, inverse, weights = table.names
    got = {"lambdas": table.lambdas, power: table.power, inverse: table.inverse,
           f"{weights} weights": tuple(table.weights)}
    checks = []
    for name, want in GOLDEN[table.n]:
        ok = got[name] == want
        detail = "exact match" if ok else f"got {got[name]!r}, want {want!r}"
        checks.append((f"n={table.n} {name}", ok, detail))
    return checks


def run_golden_checks() -> list[tuple[str, bool, str]]:
    """Compare freshly built tables for n = 2, 3, 4."""
    return [check for n in (2, 3, 4) for check in compare_table(build_table(n))]
