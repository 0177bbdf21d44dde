from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from liechar.linalg import SparseNullspace, int_or_frac


def dense_rref(rows, ncols):
    """Gauss-Jordan on a dense copy: (pivot columns, reduced nonzero rows)."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


def dense_nullspace(rows, ncols):
    pivots, rref = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for pc, row in zip(pivots, rref):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


@st.composite
def systems(draw):
    """Small systems with zero and duplicate rows, in shuffled order.

    Entries are mostly ints; a few are Fractions, which the solver scales away.
    """
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows.append([0] * ncols)
    order = draw(st.permutations(range(len(rows))))
    split = draw(st.integers(0, len(rows)))
    return ncols, [rows[i] for i in order], split


@settings(max_examples=200, deadline=None)
@given(systems())
def test_sparse_nullspace_matches_dense_rref(system):
    ncols, rows, split = system
    ns = SparseNullspace(ncols)
    for row in rows[:split]:
        ns.add_row(dict(enumerate(row)))  # zero entries included
    # a nullspace() between the rows must leave later reductions exact
    assert ns.nullspace() == dense_nullspace(rows[:split], ncols)
    for row in rows[split:]:
        ns.add_row({c: v for c, v in enumerate(row) if v})
    pivots, _ = dense_rref(rows, ncols)
    assert ns.rank == len(pivots)
    assert sorted(ns.pivot_rows) == pivots
    assert ns.nullspace() == dense_nullspace(rows, ncols)


def test_elimination_visits_pivot_columns_it_introduces():
    ns = SparseNullspace(3)
    ns.add_row({0: 1, 1: 1})
    ns.add_row({1: 1, 2: 1})  # the first row keeps its entry at pivot 1
    ns.add_row({0: 1})  # reduces to -x1, then to x2
    assert ns.rank == 3
    assert ns.nullspace() == []


def test_int_or_frac():
    assert int_or_frac(F(4, 2)) == 2 and type(int_or_frac(F(4, 2))) is int
    assert int_or_frac(3) == 3 and type(int_or_frac(3)) is int
    assert int_or_frac(F(1, 3)) == F(1, 3) and type(int_or_frac(F(1, 3))) is F
