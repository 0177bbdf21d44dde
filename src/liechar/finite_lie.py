"""Finite-dimensional exact Lie algebra linear algebra.

Structure constants are built from the root system in a Chevalley-style
basis, as ints: one table of N(a, b) over the ordered pairs of roots, with
magnitudes from root strings and signs from the extraspecial pairs, and
the Cartan parts from the integer coroots.  Everything downstream
(Takiff doubling, invariant bilinear forms, intertwiner spaces, the
square-zero-extension classification, and the degree-two singular-vector
constraints) is plain exact linear algebra over Q or a quadratic
extension Q(sqrt d); the null spaces are reduced in integers by
``linalg.SparseNullspace``.

The Jacobi identity is verified exhaustively for every constructed
algebra in the test suite; nothing here is trusted by construction.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SparseNullspace, frac, int_or_frac, sqrt_rational
from .rootsys import RootSystem, UsageError, Weight, build_root_system
from .qseries import GroupRingElt, rat_str

Vector = Dict[int, Fraction]  # sparse coefficient vector over the basis


class LieStructure:
    """Explicit structure constants of a finite-dimensional Lie algebra.

    brackets[(i, j)] for i < j maps basis index k to the coefficient of
    x_k in [x_i, x_j] (an int when integral, else a Fraction); the i > j
    values follow by antisymmetry and are not stored.

    ``generators`` lists basis indices whose iterated brackets span the
    algebra; it defaults to the whole basis.  The x that leave a bilinear
    form invariant, or that commute with a linear map between two modules,
    form a Lie subalgebra, so imposing those equations on the generators
    alone gives the same solution space as imposing them on every x.  The
    solvers impose them only on the diagonal generators and on those that
    ``_needed_generators`` keeps; the others' equations follow.
    """

    def __init__(
        self,
        labels: Sequence[str],
        brackets: Dict[Tuple[int, int], Vector],
        name: str = "",
        generators: Optional[Sequence[int]] = None,
    ):
        self.dimension = len(labels)
        self.labels = list(labels)
        self.name = name or "lie_algebra"
        self.brackets: Dict[Tuple[int, int], Vector] = {}
        for (i, j), vec in brackets.items():
            if i == j:
                raise UsageError("diagonal bracket entries must be omitted")
            if i > j:
                raise UsageError("store brackets with i < j only")
            clean = {k: int_or_frac(c) for k, c in vec.items() if c != 0}
            if clean:
                self.brackets[(i, j)] = clean
        if generators is None:
            generators = range(self.dimension)
        self.generators: Tuple[int, ...] = tuple(generators)
        if any(not 0 <= g < self.dimension for g in self.generators):
            raise UsageError("generator index outside the basis")

    def bracket_basis(self, i: int, j: int) -> Vector:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] of sparse vectors; scalars are rationals (any exact field
        elements with +, * and == 0, such as QuadExts, work too)."""
        out: Dict[int, object] = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                f = xi * yj
                for k, c in self.bracket_basis(i, j).items():
                    nv = out.get(k, 0) + f * c
                    if nv == 0:
                        out.pop(k, None)
                    else:
                        out[k] = nv
        return out

    def __repr__(self) -> str:
        return f"LieStructure({self.name}, dim={self.dimension})"


# ---------------------------------------------------------------------------
# Chevalley-style construction from the root system


def _structure_constants(rs: RootSystem) -> Dict[Tuple[Weight, Weight], int]:
    """N(a, b), with [x_a, x_b] = N(a, b) x_{a+b}, for every ordered pair of
    roots a, b whose sum is a root.

    Magnitude is p + 1 from the root string.  The positive gamma are walked
    in ``rs.positive_roots`` order (height, then coordinates); the special
    pairs of gamma are the positive a before b with a + b = gamma.  The
    sign is + on each extraspecial (first) pair, and on the remaining
    special pairs follows from the Jacobi identity applied to quadruples
    containing the extraspecial pair.  Every other constant is a relative
    of one special pair (Carter, Simple Groups of Lie Type, 4.1-4.2).  All
    in ints: a root's length is lac (alpha, alpha), and each ratio of
    lengths times a constant is an exact integer division.
    """
    pos = rs.positive_roots
    where = {a: i for i, a in enumerate(pos)}
    # lac (alpha, alpha) = sum_i c_i lac d_i <alpha, alpha_i^vee>
    len2 = {a: sum(c * s * x for c, s, x in zip(rs.root_coords(a), rs._steps, a)) for a in pos}
    roots = set(pos) | {_neg(a) for a in pos}

    def string_down(b: Weight, a: Weight) -> int:
        p = 0
        cur = tuple(map(operator.sub, b, a))
        while cur in roots:
            p += 1
            cur = tuple(map(operator.sub, cur, a))
        return p

    table: Dict[Tuple[Weight, Weight], int] = {}

    def fill(a: Weight, b: Weight, n: int) -> None:
        """N(a, b) = n for positive a, b and its eleven relatives, c = -(a + b):
        N(b, c) = n (a, a)/(c, c), N(c, a) = n (b, b)/(c, c), N(y, x) = N(-x, -y) = -N(x, y)."""
        gamma = tuple(map(operator.add, a, b))
        c = _neg(gamma)
        for x, y, m in ((a, b, n), (b, c, _exact_div(n * len2[a], len2[gamma])),
                        (c, a, _exact_div(n * len2[b], len2[gamma]))):
            mx, my = _neg(x), _neg(y)
            table[x, y], table[y, x], table[mx, my], table[my, mx] = m, -m, -m, m

    # pos[rank:] are the roots of height >= 2, each a sum of two positive roots
    for gamma in pos[rs.rank:]:
        special = [(a, b) for i, a in enumerate(pos)
                   if where.get(b := tuple(map(operator.sub, gamma, a)), -1) > i]
        (eps, delta), rest = special[0], special[1:]
        top = string_down(delta, eps) + 1
        fill(eps, delta, top)
        for a, b in rest:
            # a missing key is a zero constant: that pair's sum is no root
            ma = _neg(a)
            acc = (table.get((delta, ma), 0) * table.get((tuple(map(operator.sub, delta, a)), eps), 0)
                   + table.get((ma, eps), 0) * table.get((tuple(map(operator.sub, eps, a)), delta), 0))
            val = _exact_div(len2[gamma] * acc, len2[b] * top)
            if abs(val) != string_down(b, a) + 1:
                raise AssertionError(
                    f"structure constant magnitude mismatch at {a}+{b}={gamma}"
                )
            fill(a, b, val)
    return table


def _neg(a: Weight) -> Weight:
    return tuple([-c for c in a])


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"structure constant {num}/{den} is not an integer")
    return q


def chevalley_structure(type_label: str) -> LieStructure:
    """Structure constants of the simple Lie algebra of the given type.

    Basis order: Cartan h_1..h_n (simple coroots), then x_alpha for the
    positive roots by height, then x_{-alpha} in the same order.  The
    generators are the h_i and the root vectors of the simple roots and
    their negatives (Serre; Humphreys, Introduction to Lie Algebras, 18.3).
    Rank is capped at 4 (the identity checks never need more).
    """
    rs = build_root_system(type_label)
    if rs.rank > 4:
        raise UsageError("chevalley_structure supports rank <= 4")
    n = rs.rank
    pos = list(rs.positive_roots)
    neg = [_neg(a) for a in pos]
    index = {w: n + i for i, w in enumerate(pos + neg)}

    labels = [f"h{i + 1}" for i in range(n)]
    labels += [f"e[{','.join(str(c) for c in rs.root_coords(a))}]" for a in pos]
    labels += [f"f[{','.join(str(c) for c in rs.root_coords(a))}]" for a in pos]

    # every bracket below is [x_i, x_j] with i < j in the basis order
    brackets: Dict[Tuple[int, int], Vector] = {}
    # [h_i, x_{+-alpha}] = +-<alpha, alpha_i^vee> x_{+-alpha}
    for i in range(n):
        for a, m in zip(pos, neg):
            c = a[i]
            if c:
                brackets[(i, index[a])] = {index[a]: c}
                brackets[(i, index[m])] = {index[m]: -c}
    # [x_alpha, x_{-alpha}] = alpha^vee expanded in simple coroots
    for a, m, coro in zip(pos, neg, rs._coroot_coords):
        brackets[(index[a], index[m])] = {i: c for i, c in enumerate(coro) if c}
    # root-root brackets; x_alpha and x_{-alpha} sum to 0, which is no root
    for (u, v), c in _structure_constants(rs).items():
        if index[u] < index[v]:
            brackets[(index[u], index[v])] = {index[tuple(map(operator.add, u, v))]: c}

    # the first n positive roots are the simple ones (height 1)
    generators = list(range(n)) + [index[w] for w in pos[:n] + neg[:n]]
    ls = LieStructure(labels, brackets, name=f"g({rs.type_label})", generators=generators)
    ls.root_system = rs  # type: ignore[attr-defined]
    return ls


def takiff(ls: LieStructure) -> LieStructure:
    """Square-zero extension g[t]/(t^2): doubled basis with [xt, yt] = 0.

    The generators of g and their copies s.t generate g[t]/(t^2): the
    brackets [x, s.t] = [x, s].t with x in g span (I).t for the ideal I
    of g generated by the s, and I = g.
    """
    d = ls.dimension
    labels = list(ls.labels) + [f"{s}.t" for s in ls.labels]
    brackets: Dict[Tuple[int, int], Vector] = {}
    for (i, j), vec in ls.brackets.items():
        brackets[(i, j)] = dict(vec)
        brackets[(i, j + d)] = {k + d: c for k, c in vec.items()}
        brackets[(j, i + d)] = {k + d: -c for k, c in vec.items()}
    generators = ls.generators + tuple(g + d for g in ls.generators)
    return LieStructure(labels, brackets, name=f"takiff({ls.name})", generators=generators)


def abelian(dim: int) -> LieStructure:
    return LieStructure([f"a{i}" for i in range(dim)], {}, name=f"abelian{dim}")


# ---------------------------------------------------------------------------
# invariant bilinear forms


@dataclass(frozen=True)
class BilinearFormSpace:
    algebra: LieStructure
    basis: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]  # symmetric matrices

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dimension": self.dimension,
            "forms": [
                [[rat_str(x) for x in row] for row in form] for form in self.basis
            ],
        }


def invariant_forms(ls: LieStructure) -> BilinearFormSpace:
    """Exact basis of the invariant symmetric bilinear forms.

    Solves B([x,y],z) + B(y,[x,z]) = 0 for x among the generators and all
    basis pairs y <= z on the d(d+1)/2 symmetric unknowns B(y,z).  A
    generator acting diagonally, x.y = lam_y y (the h_i of a Chevalley
    basis), gives the one-term equations (lam_y + lam_z) B(y,z) = 0: an
    invariant form pairs weight mu only with weight -mu.  Those unknowns
    are pinned to 0 without building a row.  Of the other generators only
    those ``_needed_generators`` keeps (the e_i of a Chevalley basis, and
    also the h_i.t of a Takiff double) get equations, built only where
    they touch a free unknown and restricted to the free unknowns; the
    sparse null-space over the free unknowns, padded with 0, is the whole
    system's.
    """
    d = ls.dimension
    diagonals = _ad_diagonals(ls)
    weight = [tuple(w[y] for w in diagonals.values()) for y in range(d)]
    by_weight: Dict[tuple, List[int]] = {}
    for y, wt in enumerate(weight):
        by_weight.setdefault(wt, []).append(y)
    free = [
        (y, z) for y in range(d) for z in by_weight.get(tuple(-c for c in weight[y]), ()) if z >= y
    ]
    index = {p: n for n, p in enumerate(free)}

    ns = SparseNullspace(len(free))
    for x in _needed_generators(ls, diagonals):
        ad_x = [ls.bracket_basis(x, y) for y in range(d)]
        pre = _preimages(ad_x)
        rows = set()
        for a, b in free:
            rows.update((y, b) if y <= b else (b, y) for y in pre[a])
            rows.update((y, a) if y <= a else (a, y) for y in pre[b])
        for y, z in sorted(rows):
            row: Dict[int, Fraction] = {}
            for k, c in ad_x[y].items():
                col = index.get((k, z) if k <= z else (z, k))
                if col is not None:
                    row[col] = row.get(col, 0) + c
            for k, c in ad_x[z].items():
                col = index.get((y, k) if y <= k else (k, y))
                if col is not None:
                    row[col] = row.get(col, 0) + c
            if row:
                ns.add_row(row)
    zero = Fraction(0)
    basis = []
    for vec in ns.nullspace():
        form = [[zero] * d for _ in range(d)]
        for (y, z), v in zip(free, vec):
            form[y][z] = form[z][y] = v
        basis.append(tuple(tuple(row) for row in form))
    return BilinearFormSpace(ls, tuple(basis))


def _diagonal(mat) -> Optional[List]:
    """The diagonal entries of a sparse matrix (its columns, in order), or
    None when the matrix is not diagonal."""
    diag = []
    for j, col in enumerate(mat):
        if len(col) > 1 or (col and j not in col):
            return None
        diag.append(col.get(j, 0))
    return diag


def _ad_diagonals(ls: LieStructure) -> Dict[int, List]:
    """Each generator acting diagonally on g, mapped to its eigenvalues."""
    out = {}
    for x in ls.generators:
        diag = _diagonal(ls.bracket_basis(x, y) for y in range(ls.dimension))
        if diag is not None:
            out[x] = diag
    return out


def _needed_generators(ls: LieStructure, diagonals: Dict[int, List]) -> List[int]:
    """The non-diagonal generators whose equations the others do not imply.

    The x whose invariance (or intertwiner) equations hold form a Lie
    subalgebra, which holds the diagonal generators: the solvers pin their
    equations.  Walking ``ls.generators`` in order after the diagonal
    ones, x is dropped when
    (a) an earlier decided e has h = [e, x] in the span of the diagonal
    generators, [h, e] = c e and [h, x] = -c x with c != 0: e, h, x span an
    sl2, and in a finite-dimensional sl2-module a vector killed by e and h
    has highest weight 0, so x kills it too (Humphreys, Introduction to Lie
    Algebras, 7.2); or (b) x is a nonzero multiple of [y, z] for earlier
    decided y, z.  A Chevalley basis keeps its e_i, a Takiff double its e_i
    and h_i.t.  Each decided generator is bracketed once with each earlier
    one, so the pass makes O(|generators|^2) bracket lookups.
    """

    def sl2(e, f):
        h = ls.bracket_basis(e, f)
        if any(k not in diagonals for k in h):
            return False
        c = sum(a * diagonals[k][e] for k, a in h.items())
        return c != 0 and sum(a * diagonals[k][f] for k, a in h.items()) == -c

    done: List[int] = []
    spanned = set()  # basis elements that are multiples of [y, z], y, z done
    kept = []
    for x in itertools.chain(diagonals, ls.generators):
        if x in done:
            continue
        if x not in diagonals and x not in spanned and not any(sl2(e, x) for e in done):
            kept.append(x)
        for y in done:
            vec = ls.bracket_basis(x, y)
            if len(vec) == 1:
                spanned.update(vec)
        done.append(x)
    return kept


def _preimages(mat) -> List[List[int]]:
    """pre[k] lists the columns j whose image under mat has a nonzero entry at k."""
    pre: List[List[int]] = [[] for _ in mat]
    for j, col in enumerate(mat):
        for k in col:
            pre[k].append(j)
    return pre


# ---------------------------------------------------------------------------
# intertwiner spaces


def _rep_matrices(ls: LieStructure, which: str, gens: Sequence[int]):
    """Sparse matrices of the basis elements ``gens`` on the chosen module.

    A matrix is a list of columns; column j maps each row index to its
    nonzero coefficient in x.v_j.  ``equivariant_hom_dim`` asks only for
    the diagonal generators and those ``_needed_generators`` keeps; the
    test oracles pass ``ls.generators``.
    """
    d = ls.dimension
    if which == "adjoint":
        return [[ls.bracket_basis(i, j) for j in range(d)] for i in gens], d
    if which == "trivial":
        return [[{}] for _ in gens], 1
    if which not in ("alt2_adjoint", "sym2_adjoint"):
        raise UsageError(f"unknown representation {which!r}")
    sym = which == "sym2_adjoint"
    basis_pairs = [(a, b) for a in range(d) for b in range(a if sym else a + 1, d)]
    index = {p: i for i, p in enumerate(basis_pairs)}
    mats = []
    for i in gens:
        ad_i = [ls.bracket_basis(i, a) for a in range(d)]
        diag = _diagonal(ad_i)
        if diag is not None:
            # x.a = lam_a a (an h_i): x.(a ^ b) = (lam_a + lam_b) a ^ b
            mats.append([{r: s} if (s := diag[a] + diag[b]) else {}
                         for r, (a, b) in enumerate(basis_pairs)])
            continue
        cols = []
        for a, b in basis_pairs:
            # x.(a ^ b) = (x.a) ^ b + a ^ (x.b).  For a square, x.(a a) =
            # sum_k c_k (k a + a k) over x.a = sum_k c_k k, and k a + a k is
            # the basis pair (k, a), or 2 (a a) at k = a: one pass over x.a
            col: Dict[int, Fraction] = {}
            for k, c in ad_i[a].items():
                _add_pair(col, index, k, b, c, sym)
            if b != a:
                for k, c in ad_i[b].items():
                    _add_pair(col, index, a, k, c, sym)
            cols.append({r: v for r, v in col.items() if v})
        mats.append(cols)
    return mats, len(basis_pairs)


def _add_pair(col, index, u, v, coeff, sym):
    if u == v:
        if not sym:
            return
        coeff = 2 * coeff
    elif u > v:
        u, v = v, u
        if not sym:
            coeff = -coeff
    r = index[(u, v)]
    col[r] = col.get(r, 0) + coeff


def equivariant_hom_dim(rep_from: str, rep_to: str, ls: LieStructure) -> int:
    """dim Hom_g(V, W) by exact null-space of the intertwiner equations.

    The unknown T has entry T[r][c] at column r * dim V + c; the equations
    rho_W(x) T = T rho_V(x) are imposed for x among the generators.  A
    generator diagonal on g (the h_i of a Chevalley basis) is diagonal on
    every module here and gives the one-term equations
    (lam_W(r) - lam_V(c)) T[r][c] = 0, so Hom_g(V, W) lies in the sum of
    the Hom(V_mu, W_mu) over the common weights mu.  The other entries are
    pinned to 0 without building a row.  Of the other generators only
    those ``_needed_generators`` keeps get equations, built from the
    nonzero matrix entries only where they touch a free entry, restricted
    to the free entries.
    """
    diagonals = _ad_diagonals(ls)
    gens = list(diagonals) + _needed_generators(ls, diagonals)
    mats_v, dim_v = _rep_matrices(ls, rep_from, gens)
    mats_w, dim_w = _rep_matrices(ls, rep_to, gens)
    n = len(diagonals)
    diagonal = [(_diagonal(mv), _diagonal(mw)) for mv, mw in zip(mats_v[:n], mats_w[:n])]
    rest = zip(mats_v[n:], mats_w[n:])
    by_weight: Dict[tuple, List[int]] = {}
    for c in range(dim_v):
        by_weight.setdefault(tuple(dv[c] for dv, _ in diagonal), []).append(c)
    free = [
        r * dim_v + c
        for r in range(dim_w)
        for c in by_weight.get(tuple(dw[r] for _, dw in diagonal), ())
    ]
    index = {t: n for n, t in enumerate(free)}

    ns = SparseNullspace(len(free))
    for mv, mw in rest:
        w_rows: List[Dict[int, Fraction]] = [{} for _ in range(dim_w)]
        for k, col in enumerate(mw):
            for r, val in col.items():
                w_rows[r][k] = val
        pre_v = _preimages(mv)
        # (rho_W(x) T - T rho_V(x))[r][c] holds T[a][b] when W[r][a] or V[b][c] is nonzero
        eqs = set()
        for t in free:
            a, b = divmod(t, dim_v)
            eqs.update(r * dim_v + b for r in mw[a])
            eqs.update(a * dim_v + c for c in pre_v[b])
        for e in sorted(eqs):
            r, c = divmod(e, dim_v)
            row: Dict[int, Fraction] = {}
            for k, w in w_rows[r].items():
                col = index.get(k * dim_v + c)
                if col is not None:
                    row[col] = w
            for k, v in mv[c].items():
                col = index.get(r * dim_v + k)
                if col is not None:
                    row[col] = row[col] - v if col in row else -v
            if row:
                ns.add_row(row)
    return len(free) - ns.rank


# ---------------------------------------------------------------------------
# scalars in a quadratic extension


class QuadExt:
    """a + b sqrt(d) with exact rational a, b and fixed nonsquare d > 0.

    Operands over different radicands raise UsageError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = frac(a)
        self.b = frac(b)
        self.d = frac(d)

    def _lift(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise UsageError("mixed quadratic extensions")
            return other
        return QuadExt(other, 0, self.d)

    def __add__(self, other):
        o = self._lift(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        a, b = self.a, self.b
        return QuadExt(a * o.a + self.d * b * o.b, a * o.b + b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        a, b = self.a, self.b
        nrm = a * a - self.d * b * b
        if nrm == 0:
            raise ZeroDivisionError("zero element of the quadratic extension")
        return QuadExt(a / nrm, -b / nrm, self.d)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            o = self._lift(other)
            return self.a == o.a and self.b == o.b
        return self.b == 0 and self.a == other

    def to_json(self) -> dict:
        return {"rational": rat_str(self.a), "radical": rat_str(self.b), "radicand": rat_str(self.d)}

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def _scalar_json(x):
    return x.to_json() if isinstance(x, QuadExt) else rat_str(x)


# ---------------------------------------------------------------------------
# classification of square-zero-type extensions


@dataclass(frozen=True)
class ExtensionClassification:
    kind: str  # "takiff_iso" | "direct_sum_iso"
    alpha: Fraction
    beta: Fraction
    discriminant: Fraction  # 4 alpha + beta^2
    witnesses: tuple  # coefficient pairs (c1, c2) defining the maps x -> c1 x_1 + c2 x_2
    eigenvalues: tuple  # () for takiff, (p+, p-) otherwise

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": rat_str(self.alpha),
            "beta": rat_str(self.beta),
            "discriminant": rat_str(self.discriminant),
            "witnesses": [[_scalar_json(c) for c in w] for w in self.witnesses],
            "eigenvalues": [_scalar_json(p) for p in self.eigenvalues],
        }


def classify_extension(
    alpha, beta, base: Optional[LieStructure] = None
) -> ExtensionClassification:
    """Classify g + ad(g) with [x2,y2] = alpha [x,y]_1 + beta [x,y]_2.

    Discriminant 0 yields a Takiff structure with abelian-image witness
    x -> -beta/2 x_1 + x_2; otherwise two commuting ideal embeddings
    phi_pm with eigenvalue coefficients p_pm = (-beta +- sqrt(disc))/2.

    The doubled algebra is g (x) A with A = Q[t]/(t^2 - beta t - alpha):
    x_1 = x (x) 1, x_2 = x (x) t and [x (x) a, y (x) b] = [x,y] (x) ab, so
    the witness x -> c1 x_1 + c2 x_2 is x -> x (x) (c1 + c2 t).  Each
    homomorphism/ideal/commuting relation on a basis pair is therefore
    [x_i,x_j] (x) (an identity in A); ``_check_witnesses`` checks each
    identity once, exactly, and raises on failure.
    """
    alpha, beta = frac(alpha), frac(beta)
    if base is None:
        base = chevalley_structure("A1")
    disc = 4 * alpha + beta * beta
    if disc == 0:
        witnesses = ((-beta / 2, Fraction(1)),)
        _check_witnesses(alpha, beta, base, witnesses, ())
        return ExtensionClassification("takiff_iso", alpha, beta, disc, witnesses, ())
    root = sqrt_rational(disc)
    if root is not None:
        p_plus = (-beta + root) / 2
        p_minus = (-beta - root) / 2
    else:
        p_plus = QuadExt(Fraction(-beta, 2), Fraction(1, 2), disc)
        p_minus = QuadExt(Fraction(-beta, 2), Fraction(-1, 2), disc)
    witnesses = []
    for p in (p_plus, p_minus):
        denom = 2 * p + beta
        if denom == 0:
            raise UsageError(f"degenerate denominator 2p + beta = 0 at p = {p}")
        witnesses.append((p / denom, 1 / denom))
    witnesses = tuple(witnesses)
    _check_witnesses(alpha, beta, base, witnesses, (p_plus, p_minus))
    return ExtensionClassification(
        "direct_sum_iso", alpha, beta, disc, witnesses, (p_plus, p_minus)
    )


def _check_witnesses(alpha, beta, base: LieStructure, witnesses, eigenvalues) -> None:
    """Raise AssertionError unless the witness maps classify g (x) A.

    A witness (c1, c2) stands for c = c1 + c2 t in A.  With eigenvalues
    () the one witness must have abelian image, c^2 = 0.  Otherwise each
    witness is a homomorphism, c^2 = c, onto an ideal, 1 c = c and
    t c = (p + beta) c; the two images commute, c_+ c_- = 0, and span.
    A relation on basis pairs holds iff its identity holds in A or every
    [x_i, x_j] is zero, i.e. ``base`` is abelian; the spanning check does
    not involve the bracket and always runs.
    """

    def mul(u, v):
        (u1, u2), (v1, v2) = u, v
        return (u1 * v1 + alpha * u2 * v2, u1 * v2 + u2 * v1 + beta * u2 * v2)

    if not eigenvalues:
        (c,) = witnesses
        if base.brackets and mul(c, c) != (0, 0):
            raise AssertionError("takiff witness image is not abelian")
        return
    if base.brackets:
        for c in witnesses:
            if mul(c, c) != c:
                raise AssertionError("witness map is not a Lie homomorphism")
        for c, p in zip(witnesses, eigenvalues):
            if mul((1, 0), c) != c:
                raise AssertionError("first-copy ideal relation fails")
            s = p + beta
            if mul((0, 1), c) != (s * c[0], s * c[1]):
                raise AssertionError("second-copy ideal relation fails")
        if mul(*witnesses) != (0, 0):
            raise AssertionError("images of the two witnesses do not commute")
    (a1, a2), (b1, b2) = witnesses
    if a1 * b2 - a2 * b1 == 0:
        raise AssertionError("witness images do not span")


# ---------------------------------------------------------------------------
# degree-two singular-vector constraints


# mode symbols: ("e"|"h"|"f", factor, mode_index)
_SL2_BRACKET = {
    ("e", "f"): (("h", 1),),
    ("f", "e"): (("h", -1),),
    ("h", "e"): (("e", 2),),
    ("e", "h"): (("e", -2),),
    ("h", "f"): (("f", -2),),
    ("f", "h"): (("f", 2),),
}


class TwoTriplesModeAlgebra:
    """Mode algebra of two commuting affine sl_2 triples at symbolic levels.

    States are sums of creation-mode monomials applied to the vacuum,
    with coefficients polynomial in the two levels: GroupRingElts
    keyed by (power of kappa_1, power of kappa_2).  Root vectors may be
    rescaled (e -> s e, f -> t f); the invariant form is fixed by
    <e, f> = 1 and <h, h> = 2 before rescaling.
    """

    def __init__(self, scale_e=(1, 1), scale_f=(1, 1)):
        self.scale_e = tuple(frac(s) for s in scale_e)
        self.scale_f = tuple(frac(t) for t in scale_f)
        for s in self.scale_e + self.scale_f:
            if s == 0:
                raise UsageError("root-vector rescaling must be nonzero")

    def _bracket(self, sym1: str, sym2: str, fac: int):
        base = _SL2_BRACKET.get((sym1, sym2), ())
        s, t = self.scale_e[fac], self.scale_f[fac]
        scale_of = {"e": s, "f": t, "h": Fraction(1)}
        out = []
        for sym, c in base:
            c = frac(c) * scale_of[sym1] * scale_of[sym2] / scale_of[sym]
            out.append((sym, c))
        return out

    def _pairing(self, sym1: str, sym2: str, fac: int) -> Fraction:
        s, t = self.scale_e[fac], self.scale_f[fac]
        if {sym1, sym2} == {"e", "f"}:
            return s * t
        if sym1 == sym2 == "h":
            return Fraction(2)
        return Fraction(0)

    def apply(self, mode, state: Dict[tuple, GroupRingElt]) -> Dict[tuple, GroupRingElt]:
        sym, fac, m = mode
        out: Dict[tuple, GroupRingElt] = {}
        for mono, coeff in state.items():
            if m < 0:
                _state_add(out, (mode,) + mono, coeff)
                continue
            for mono2, poly in self._push(mode, mono).items():
                _state_add(out, mono2, coeff * poly)
        return out

    def _push(self, mode, mono: tuple) -> Dict[tuple, GroupRingElt]:
        """Move an annihilation mode through a creation monomial onto |0>."""
        sym, fac, m = mode
        out: Dict[tuple, GroupRingElt] = {}
        for i, (sym2, fac2, n) in enumerate(mono):
            if fac2 != fac:
                continue
            prefix, suffix = mono[:i], mono[i + 1 :]
            for z, c in self._bracket(sym, sym2, fac):
                mm = m + n
                if mm < 0:
                    const = GroupRingElt.monomial((0, 0), c)
                    _state_add(out, prefix + ((z, fac, mm),) + suffix, const)
                else:
                    for mono2, poly in self._push((z, fac, mm), suffix).items():
                        _state_add(out, prefix + mono2, poly.scale(c))
            if m + n == 0 and m != 0:
                cp = self._pairing(sym, sym2, fac) * m
                if cp:
                    _state_add(out, prefix + suffix, GroupRingElt.monomial((1 - fac, fac), cp))
        # annihilation modes (m >= 0, including zero modes) kill the vacuum
        return out


def _state_add(state: Dict[tuple, GroupRingElt], mono: tuple, poly: GroupRingElt) -> None:
    cur = state.get(mono)
    nv = poly if cur is None else cur + poly
    if not nv:
        state.pop(mono, None)
    else:
        state[mono] = nv


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """Roots of a univariate polynomial of degree <= 2 given by coeff list
    [c0, c1, c2, ...]; raises if a root is irrational."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg <= 0:
        raise UsageError("constant polynomial has no root set")
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        root = sqrt_rational(disc)
        if root is None:
            raise AssertionError("constraint polynomial does not factor over Q")
        return sorted({(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)})
    raise UsageError("unexpected degree in constraint polynomial")


@dataclass(frozen=True)
class ConstraintPolynomial:
    """One f^c_1 f^d_1 annihilation constraint on the degree-two vector."""

    pair: str  # "aa" | "bb" | "ab"
    coefficient: str  # which coefficient of the candidate vector it multiplies
    polynomial: GroupRingElt
    root_set: dict

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "coefficient": self.coefficient,
            "polynomial": [
                {"k1_power": i, "k2_power": j, "coeff": rat_str(c)}
                for (i, j), c in self.polynomial.items_sorted()
            ],
            "root_set": self.root_set,
        }


def singular_constraints(scale_e=(1, 1), scale_f=(1, 1)) -> List[ConstraintPolynomial]:
    """Annihilation constraints on a weight-(2 theta) degree-two vector.

    The candidate vector is alpha e^a e^a |0> + beta e^a e^b |0> +
    gamma e^b e^b |0> in modes of degree -1; applying the lowering modes
    f^c_1 f^d_1 reduces each monomial to a multiple of |0> whose
    coefficient is an exact polynomial in the two levels.  Cross terms
    vanish identically, so each constraint is reported as the polynomial
    multiplying its matching coefficient, with solved root sets.
    """
    algebra = TwoTriplesModeAlgebra(scale_e, scale_f)
    e_a = ("e", 0, -1)
    e_b = ("e", 1, -1)
    monomials = {
        "alpha": (e_a, e_a),
        "beta": (e_a, e_b),
        "gamma": (e_b, e_b),
    }
    lowering = {"aa": (0, 0), "bb": (1, 1), "ab": (0, 1)}
    matching = {"aa": "alpha", "bb": "gamma", "ab": "beta"}
    out = []
    for pair, (fc, fd) in lowering.items():
        polys: Dict[str, GroupRingElt] = {}
        for name, mono in monomials.items():
            state = {mono: GroupRingElt.monomial((0, 0))}
            state = algebra.apply(("f", fd, 1), state)
            state = algebra.apply(("f", fc, 1), state)
            for rest, poly in state.items():
                if rest:
                    raise AssertionError("lowering did not land on the vacuum line")
                polys[name] = polys.get(name, GroupRingElt()) + poly
        for name, poly in polys.items():
            if name != matching[pair] and poly:
                raise AssertionError("cross-term constraint did not vanish")
        poly = polys.get(matching[pair], GroupRingElt())
        if not poly:
            raise AssertionError("matching constraint vanished identically")
        uses1 = any(i for i, _j in poly.terms)
        uses2 = any(j for _i, j in poly.terms)
        if uses1 and uses2:
            # must be a nonzero multiple of kappa_1 kappa_2
            if set(poly.terms) != {(1, 1)}:
                raise AssertionError("mixed constraint is not a multiple of k1*k2")
            root_set = {"product_of": ["kappa1", "kappa2"]}
        else:
            var = "kappa1" if uses1 else "kappa2"
            deg = max(i + j for (i, j) in poly.terms)
            coeffs = [Fraction(0)] * (deg + 1)
            for (i, j), c in poly.terms.items():
                coeffs[i + j] = frac(c)
            roots = _rational_roots(coeffs)
            root_set = {"variable": var, "roots": [rat_str(r) for r in roots]}
        out.append(
            ConstraintPolynomial(pair, matching[pair], poly, root_set)
        )
    return out
