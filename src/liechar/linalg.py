"""Exact linear algebra over the rationals.

Small dense/sparse routines used throughout the package: matrix inverse,
null spaces of sparse systems, and rational square roots.
Everything is Fraction-based; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence


Row = Dict[int, Fraction]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mat_inverse(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Invert a square matrix by Gauss-Jordan elimination.

    Raises ValueError on a singular matrix.
    """
    n = len(a)
    aug = [[frac(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class SparseNullspace:
    """Incremental row-echelon reduction of a sparse linear system.

    Rows are dicts column -> Fraction.  Feed equations with add_row; then
    nullspace() returns a canonical (RREF-based) basis of the solution
    space of ``A x = 0`` over Q.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, Row] = {}  # pivot column -> normalized row

    def _reduce(self, row: Row) -> Row:
        # eliminate against existing pivots; dict copy keeps callers' rows intact
        row = {c: v for c, v in row.items() if v != 0}
        for c in sorted(row):
            if c in row and row[c] != 0 and c in self.pivot_rows:
                f = row[c]
                for pc, pv in self.pivot_rows[c].items():
                    nv = row.get(pc, Fraction(0)) - f * pv
                    if nv == 0:
                        row.pop(pc, None)
                    else:
                        row[pc] = nv
        return row

    def add_row(self, row: Row) -> None:
        row = self._reduce(row)
        if not row:
            return
        piv = min(row)
        inv = Fraction(1) / row[piv]
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into existing rows so we keep an RREF state
        for pc, prow in self.pivot_rows.items():
            if piv in prow:
                f = prow[piv]
                for c, v in row.items():
                    nv = prow.get(c, Fraction(0)) - f * v
                    if nv == 0:
                        prow.pop(c, None)
                    else:
                        prow[c] = nv
        self.pivot_rows[piv] = row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def nullspace(self) -> List[List[Fraction]]:
        pivots = set(self.pivot_rows)
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for pc, prow in self.pivot_rows.items():
                vec[pc] = -prow.get(fc, Fraction(0))
            basis.append(vec)
        return basis


def sqrt_rational(r: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    r = frac(r)
    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def isqrt_rational_floor(r: Fraction) -> int:
    """floor(sqrt(r)) for a nonnegative rational r."""
    r = frac(r)
    if r < 0:
        raise ValueError("negative radicand")
    # floor(sqrt(n/d)) = isqrt(floor(n*d)) / d ... done exactly via isqrt(n*d)//d
    return math.isqrt(r.numerator * r.denominator) // r.denominator
