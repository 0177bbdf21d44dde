"""Exact linear algebra over the rationals.

Small routines used throughout the package: null spaces of sparse
systems (kept in reduced row echelon form, in integers) and rational
square roots.  Everything is exact; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Set


Row = Dict[int, Fraction]  # column -> coefficient, an int or a Fraction


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def int_or_frac(x):
    """The rational x as an int when integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = frac(x)
    return int(x) if x.denominator == 1 else x


class SparseNullspace:
    """Incremental row reduction of a sparse linear system over Q.

    Rows are dicts column -> int or Fraction.  The stored rows are kept in
    reduced row echelon form as they arrive: each is a primitive integer
    row, positive at its pivot (its least column), with no entry at any
    other pivot column.  ``add_row`` scales a new equation to integers
    (a row of ints as it is), clears its pivot columns in one fraction-free
    pass, and, if anything is left, eliminates the new pivot from the
    stored rows that hold its column, found through a column index.  The
    reduced row echelon form is unique for the row space, up to the scale
    of each row, so ``nullspace()`` reads the canonical basis of the
    solution space of ``A x = 0`` straight off the stored rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, Dict[int, int]] = {}  # pivot column -> primitive row
        self._holders: Dict[int, Set[int]] = {}  # free column -> pivots of the rows holding it

    def add_row(self, row: Row) -> None:
        pivots, holders = self.pivot_rows, self._holders
        row = {c: v for c, v in row.items() if v}  # a copy keeps callers' rows intact
        if any(type(v) is not int for v in row.values()):
            den = math.lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        # a stored row holds no other pivot column, so clearing one adds none
        for c in [c for c in row if c in pivots]:
            prow = pivots[c]
            if len(prow) == 1:  # a pinned unknown: x_c = 0
                del row[c]
                continue
            _subtract(row, _eliminate(row, c, prow), prow)
        if not row:
            return
        piv = min(row)
        row = _primitive(row, piv)
        for q in holders.pop(piv, ()):
            qrow = pivots[q]
            _subtract(qrow, _eliminate(qrow, piv, row), row)
            for c in row:
                if c in qrow:
                    holders.setdefault(c, set()).add(q)
                elif c != piv:  # cancelled
                    holders[c].discard(q)
            pivots[q] = _primitive(qrow, q)
        for c in row:
            if c != piv:
                holders.setdefault(c, set()).add(piv)
        pivots[piv] = row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def nullspace(self) -> List[List[Fraction]]:
        pivots = self.pivot_rows
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for pc in self._holders.get(fc, ()):
                prow = pivots[pc]
                vec[pc] = -Fraction(prow[fc], prow[pc])
            basis.append(vec)
        return basis


def _subtract(row: Dict[int, int], a: int, prow: Dict[int, int]) -> None:
    """row -= a * prow, in place, dropping the entries that cancel."""
    for pc, pv in prow.items():
        nv = row.get(pc, 0) - a * pv
        if nv:
            row[pc] = nv
        else:
            del row[pc]


def _eliminate(row: Dict[int, int], c: int, prow: Dict[int, int]) -> int:
    """Scale row so that subtracting a * prow clears column c; return a."""
    a, p = row[c], prow[c]
    g = math.gcd(a, p)
    if p != g:
        s = p // g
        for k in row:
            row[k] *= s
    return a // g


def _primitive(row: Dict[int, int], piv: int) -> Dict[int, int]:
    g = math.gcd(*row.values())
    if row[piv] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}


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
