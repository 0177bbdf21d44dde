"""Exact linear algebra over the rationals.

Small routines used throughout the package: null spaces of sparse
systems (eliminated fraction-free in integers) and rational square
roots.  Everything is exact; no floating point.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, List, Optional


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

    Rows are dicts column -> int or Fraction.  ``add_row`` scales each new
    equation to integers, reduces it against the stored pivot rows and
    keeps the system in row echelon form only: a stored row is a primitive
    integer row, positive at its pivot (its least column), and may still
    carry entries at pivot columns added after it.  Elimination is
    fraction-free.  ``nullspace()`` back-substitutes once, which turns the
    stored rows into the reduced row echelon form (unique for the row
    space, up to the scale of each row), and returns the canonical basis of
    the solution space of ``A x = 0`` read off from it.  ``rank`` needs no
    back-substitution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: Dict[int, Dict[int, int]] = {}  # pivot column -> primitive row

    def _reduce(self, row: Row) -> Dict[int, int]:
        # Eliminate against the stored pivots in increasing column order.
        # An echelon pivot row can carry later pivot columns, so elimination
        # may introduce pivot columns that the heap then visits as well.
        # The dict copy keeps callers' rows intact.
        pivots = self.pivot_rows
        den = math.lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        todo = [c for c in row if c in pivots]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            if c not in row:
                continue
            prow = pivots[c]
            if len(prow) == 1:  # a pinned unknown: x_c = 0
                del row[c]
                continue
            a = _eliminate(row, c, prow)
            for pc, pv in prow.items():
                old = row.get(pc)
                if old is None:
                    row[pc] = -a * pv
                    if pc in pivots:
                        heapq.heappush(todo, pc)
                else:
                    nv = old - a * pv
                    if nv:
                        row[pc] = nv
                    else:
                        del row[pc]
        return row

    def add_row(self, row: Row) -> None:
        row = self._reduce(row)
        if row:
            piv = min(row)
            self.pivot_rows[piv] = _primitive(row, piv)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _back_substitute(self) -> None:
        """Bring the echelon rows to reduced row echelon form, in place."""
        pivots = self.pivot_rows
        for piv in sorted(pivots, reverse=True):
            row = pivots[piv]
            # rows of larger pivots are already reduced, so each elimination
            # adds entries at free columns only
            cols = [c for c in row if c != piv and c in pivots]
            for c in cols:
                prow = pivots[c]
                a = _eliminate(row, c, prow)
                for pc, pv in prow.items():
                    nv = row.get(pc, 0) - a * pv
                    if nv:
                        row[pc] = nv
                    else:
                        del row[pc]
            if cols:
                pivots[piv] = _primitive(row, piv)

    def nullspace(self) -> List[List[Fraction]]:
        self._back_substitute()
        pivots = set(self.pivot_rows)
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for pc, prow in self.pivot_rows.items():
                vec[pc] = -Fraction(prow.get(fc, 0), prow[pc])
            basis.append(vec)
        return basis


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
