"""Oracle-only helpers that the tests check the package's fast paths against.

No package code calls these, so they live with the tests instead of in
``liechar.__all__``.
"""

from fractions import Fraction
from typing import Dict

from liechar import GroupRingElt, weight
from liechar.finite_lie import BilinearFormSpace, _rep_matrices
from liechar.linalg import SparseNullspace


def dominant_representative(rs, lam):
    """The dominant weight in the W-orbit of lam, for any integral lam of rs's rank."""
    rs._require_rank(lam)
    return rs._reflect_to_dominant(weight(lam))


def orbit_alternating_sum(rs, mu):
    """A_mu = sum_w eps(w) e^{w(mu)} for regular dominant mu."""
    return GroupRingElt({nu: par for nu, par in rs.weyl_orbit_signed(mu)})


def invariant_forms_all_equations(ls):
    """Invariant symmetric bilinear forms from one row per generator and basis
    pair y <= z, B([x,y],z) + B(y,[x,z]) = 0, with no unknown pinned up front."""
    d = ls.dimension
    pairs = {(i, j): idx for idx, (i, j) in enumerate(
        (i, j) for i in range(d) for j in range(i, d))}

    def pidx(i, j):
        return pairs[(i, j)] if i <= j else pairs[(j, i)]

    ns = SparseNullspace(len(pairs))
    for x in ls.generators:
        ad_x = [ls.bracket_basis(x, y) for y in range(d)]
        for y in range(d):
            for z in range(y, d):
                row: Dict[int, Fraction] = {}
                for k, c in ad_x[y].items():
                    col = pidx(k, z)
                    row[col] = row.get(col, 0) + c
                for k, c in ad_x[z].items():
                    col = pidx(y, k)
                    row[col] = row.get(col, 0) + c
                if row:
                    ns.add_row(row)
    basis = []
    for vec in ns.nullspace():
        form = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), idx in pairs.items():
            form[i][j] = vec[idx]
            form[j][i] = vec[idx]
        basis.append(tuple(tuple(row) for row in form))
    return BilinearFormSpace(ls, tuple(basis))


def hom_dim_all_equations(rep_from, rep_to, ls):
    """dim Hom_g(V, W) from one row rho_W(x) T - T rho_V(x) = 0 per generator
    and entry of T, with no entry pinned up front."""
    mats_v, dim_v = _rep_matrices(ls, rep_from)
    mats_w, dim_w = _rep_matrices(ls, rep_to)
    ns = SparseNullspace(dim_w * dim_v)
    for mv, mw in zip(mats_v, mats_w):
        w_rows = [{} for _ in range(dim_w)]
        for k, col in enumerate(mw):
            for r, val in col.items():
                w_rows[r][k] = val
        for r, w_row in enumerate(w_rows):
            for c, v_col in enumerate(mv):
                row = {k * dim_v + c: w for k, w in w_row.items()}
                for k, v in v_col.items():
                    col = r * dim_v + k
                    row[col] = row[col] - v if col in row else -v
                if row:
                    ns.add_row(row)
    return dim_w * dim_v - ns.rank
