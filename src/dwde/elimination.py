"""The one exact linear solve: fraction-free elimination over sparse integer rows.

A system is a dict of rows keyed by row id; a row is a sparse
{column: int} map with its right-hand side under the key RHS.  Every
row update is fraction-free (row <- p * row - f * pivot_row, p and f
the pivot's and the row's coefficients of the eliminated column) and is
followed by division by the gcd of the row's entries, so no Fraction is
built until the answer.  Both `exact.hit_before` and the stationary law
of `environments.markov_model` solve through here; the module sits
below both, so that neither import depends on the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import SingularSystemError

RHS = -1


def solve(
    rows: dict[int, dict[int, int]],
    keep: Sequence[int],
    order: Iterable[int] = (),
    band: int | None = None,
) -> list[Fraction]:
    """Values of the unknowns `keep` of the square system `rows`.

    First every unknown u in `order` is eliminated with its own row
    rows[u] as pivot, and that row is then dropped, so the unknowns that
    are not kept need no back-substitution.  In a nonsingular M-matrix,
    which a hitting system is whenever it has a unique solution, each
    such pivot is nonzero in any order.
    With `band`, only rows u - band .. u + band are searched for column
    u; elimination from the two ends of a banded system keeps it inside
    its band.  The kept unknowns are then solved by Gauss-Jordan
    elimination with a pivot search among the remaining rows, which also
    serves systems with a normalization row.  `rows` is consumed.
    Raises SingularSystemError when a pivot is missing.
    """

    def eliminate(u: int, pivot_id: int) -> None:
        pivot = rows[pivot_id]
        near = rows if band is None else range(u - band, u + band + 1)
        for r in near:
            row = rows.get(r)
            if row is not None and u in row and r != pivot_id:
                rows[r] = _reduce(row, pivot, u)

    for u in order:
        if not rows[u].get(u):
            raise SingularSystemError(f"zero pivot at unknown {u}")
        eliminate(u, u)
        del rows[u]

    pivots: list[int] = []
    for u in keep:
        live = (r for r, row in rows.items() if u in row and r not in pivots)
        pivot_id = min(live, default=None)
        if pivot_id is None:
            raise SingularSystemError(f"no pivot for unknown {u}")
        eliminate(u, pivot_id)
        pivots.append(pivot_id)
    values = []
    for u, r in zip(keep, pivots):
        row = rows[r]
        rhs = row.pop(RHS, 0)
        if len(row) != 1:
            raise ValueError(f"row {r} keeps columns {sorted(row)}: band too narrow")
        values.append(Fraction(rhs, row[u]))
    return values


def _reduce(row: dict[int, int], pivot: dict[int, int], u: int) -> dict[int, int]:
    """Row with column u eliminated by `pivot`, divided by its entries' gcd."""
    p, f = pivot[u], row[u]
    new = {c: x * p for c, x in row.items()}
    for c, y in pivot.items():
        new[c] = new.get(c, 0) - f * y
    g = gcd(*new.values())
    return {c: x // g for c, x in new.items() if x}
