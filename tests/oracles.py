"""Oracle-only helpers that the tests check the package's fast paths against.

No package code calls these, so they live with the tests instead of in
``liechar.__all__``.
"""

import math
from fractions import Fraction
from itertools import permutations
from typing import Dict

from liechar import (
    GradedCharacter,
    GroupRingContext,
    GroupRingElt,
    InvariantContext,
    TrivialContext,
    UsageError,
    alternating_sum,
    make_context,
    series_zero,
    weight,
)
from liechar.finite_lie import (
    BilinearFormSpace,
    ExtensionClassification,
    QuadExt,
    _rep_matrices,
)
from liechar.linalg import SparseNullspace, frac, sqrt_rational


def specialize(f, mode, xi=None):
    """Ring homomorphism to a single-variable series.

    mode "trivial" sends e^mu -> 1; mode "ray" sends e^mu -> z^{(mu, xi)}.
    Two group rings are accepted: make_context's W-invariant ring, whose
    series are expanded to monomials first, and the monomial
    GroupRingContext of the tests' oracles.  Specializing an
    already-specialized series is the identity (trivial on trivial) or an
    error for incompatible requests.
    """
    ctx = f.context
    if mode not in ("trivial", "ray"):
        raise UsageError(f"unknown specialization mode {mode!r}")
    if isinstance(ctx, TrivialContext) and mode == "trivial":
        return f
    if not isinstance(ctx, (GroupRingContext, InvariantContext)):
        raise UsageError(f"cannot {mode}-specialize an already specialized series")
    new_ctx = make_context(ctx.rs, mode, xi)
    expand = ctx.expand if isinstance(ctx, InvariantContext) else lambda c: c
    return GradedCharacter(new_ctx, f.order, {e: new_ctx.project(expand(c)) for e, c in f.terms.items()})


def mat_inverse(a):
    """Invert a square matrix by Gauss-Jordan elimination over Fractions.

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


def dominant_representative(rs, lam):
    """The dominant weight in the W-orbit of lam, for any integral lam of rs's
    rank: s_i nu = nu - nu_i alpha_i on the whole tuple, at the first
    negative coordinate i, until there is none."""
    rs._require_rank(lam)
    lam = weight(lam)
    while True:
        i = next((i for i, c in enumerate(lam) if c < 0), None)
        if i is None:
            return lam
        c = lam[i]
        lam = tuple(x - c * a for x, a in zip(lam, rs.simple_roots[i]))


def reflection_orbit(rs, lam):
    """The W-orbit of lam as sorted (nu, parity) pairs: the breadth-first
    closure of lam under the simple reflections s_i nu = nu - nu_i alpha_i,
    with a dict of seen elements, each new element taking the opposite
    parity of the one it was first reached from.  The parity is eps(w) for
    w(lam) = nu when lam is regular; for any lam the pairs list its orbit."""
    lam = weight(lam)
    parity, frontier = {lam: 1}, [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, alpha in enumerate(rs.simple_roots):
                nu = tuple(x - mu[i] * a for x, a in zip(mu, alpha))
                if nu not in parity:
                    parity[nu] = -parity[mu]
                    nxt.append(nu)
        frontier = nxt
    return sorted(parity.items())


def orbit_depth_histogram(rs, mu):
    """depth (mu - w(mu), rho) -> sum of eps(w) over the whole signed
    reflection orbit of a regular dominant mu, zero entries dropped: the
    untruncated Weyl-Kac numerator summed over W, not over the positive roots."""
    hist = {}
    for nu, par in reflection_orbit(rs, mu):
        depth = rs.inner(weight(m - n for m, n in zip(mu, nu)), rs.rho)
        hist[depth] = hist.get(depth, 0) + par
    return {d: c for d, c in hist.items() if c}


def orbit_alternating_sum(rs, mu):
    """A_mu = sum_w eps(w) e^{w(mu)} for regular dominant mu."""
    return GroupRingElt(dict(reflection_orbit(rs, mu)))


def isqrt_rational_floor(r: Fraction) -> int:
    """floor(sqrt(r)) for a nonnegative rational r."""
    r = frac(r)
    if r < 0:
        raise ValueError("negative radicand")
    # floor(sqrt(n/d)) = isqrt(floor(n*d)) / d ... done exactly via isqrt(n*d)//d
    return math.isqrt(r.numerator * r.denominator) // r.denominator


def dominant_weights_box_scan(rs, norm_bound):
    """All lam in Q^+ with (lam,lam)/2 <= norm_bound, sorted by (lam,lam)
    then coordinates: every point of the box c_i <= sqrt(2 bound / (omega_i,
    omega_i)), each with its own Fraction norm and lattice test."""
    bound = frac(norm_bound)
    if bound < 0:
        raise UsageError("norm bound must be nonnegative")
    n = rs.rank
    caps = [isqrt_rational_floor(2 * bound / rs.quadratic_form[i][i]) for i in range(n)]
    found = []
    coords = [0] * n

    def rec(i):
        if i == n:
            lam = tuple(coords)
            nn = rs.norm2(lam)
            if nn <= 2 * bound and rs.in_root_lattice(lam):
                found.append((nn, lam))
            return
        for c in range(caps[i] + 1):
            coords[i] = c
            rec(i + 1)
        coords[i] = 0

    rec(0)
    found.sort()
    return [lam for _, lam in found]


def cartan_isomorphic(a, b):
    """Equality of Cartan matrices up to a simultaneous node permutation."""
    n = len(a)
    if len(b) != n:
        return False
    if sorted(tuple(sorted(row)) for row in a) != sorted(tuple(sorted(row)) for row in b):
        return False
    return any(all(a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n))
               for perm in permutations(range(n)))


def euler_product_by_passes(f, char):
    """f prod_{n>=1} prod_mu (1 - e^mu q^n)^{-c_mu}, one pass over the series
    per Euler factor: dividing by 1 - u q^n is g_e += u g_{e-n} for ascending
    e, multiplying by it is g_e -= u g_{e-n} for descending e, with u = e^mu
    in f's ring.  Needs a ring in which e^mu is a coefficient, so not the
    W-invariant one."""
    ctx = f.context
    factors = [(ctx.project(GroupRingElt.monomial(mu)), c) for mu, c in char.items_sorted()]
    classes: Dict[Fraction, Fraction] = {}  # exponent class mod 1 -> lowest exponent
    for e in f.terms:
        r = e - math.floor(e)
        if r not in classes or e < classes[r]:
            classes[r] = e
    out = {}
    for low in classes.values():
        g = [f.terms.get(low + k, ctx.czero()) for k in range(math.floor(f.order - low) + 1)]
        for u, c in factors:
            for n in range(1, len(g)):
                steps = range(n, len(g)) if c > 0 else range(len(g) - 1, n - 1, -1)
                for _ in range(abs(c)):
                    for i in steps:
                        src = g[i - n]
                        if src:
                            src = ctx.mul(u, src)
                            g[i] += src if c > 0 else -src
        out.update((low + k, v) for k, v in enumerate(g))
    return GradedCharacter(ctx, f.order, out)


def lambda_sum_by_series(ctx, order, summands):
    """``levels._lambda_sum`` one series per lambda: q^lead ch[L_lam] times the
    alternating numerator of mu, built as a series, scaled by ch L_lam with
    ``times`` and added to the running total with ``add``, for each
    (lam, mu, lead) in summands with lead <= order."""
    total = series_zero(ctx, order)
    for lam, mu, lead in summands:
        if lead <= order:
            alt = alternating_sum(ctx.rs, tuple(c + 1 for c in mu), order - lead)
            series = GradedCharacter(ctx, order, {lead + d: c * ctx.one() for d, c in alt.items()})
            total = total.add(series.times(ctx.irreducible(lam)))
    return total


def orbit_pair_by_divmod(rs, key):
    """``InvariantContext._pair`` in GroupRingElt arithmetic: the orbit of mu
    (the smaller one) times e^nu over monomials, each monomial folded onto
    its dominant conjugate (``dominant_representative``) with weight |W_x|,
    and the sum divided by |W_nu| with GroupRingElt's divmod."""
    mu, nu = sorted(key, key=rs.stabilizer_order, reverse=True)  # smaller orbit first
    orbit = GroupRingElt(dict.fromkeys(rs.weyl_orbit(mu), 1))
    acc = GroupRingElt()
    terms = acc.terms
    for x in GroupRingContext(rs).mul(orbit, GroupRingElt.monomial(nu)).terms:
        d = dominant_representative(rs, x)
        terms[d] = terms.get(d, 0) + rs.stabilizer_order(d)
    k = rs.stabilizer_order(nu)
    prod, rem = divmod(acc, k)
    if rem:
        raise AssertionError(f"orbit-sum product {acc} is not divisible by |W_nu| = {k}")
    return tuple(prod.terms), tuple(prod.terms.values())


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


class _DoubledAlgebra:
    """g + g with [x1,y1]=[x,y]1, [x1,y2]=[x,y]2, [x2,y2]=a[x,y]1+b[x,y]2."""

    def __init__(self, base, alpha, beta):
        self.base = base
        self.alpha = alpha
        self.beta = beta

    def bracket(self, x, y):
        x1, x2 = x
        y1, y2 = y

        def add(u, v):
            out = dict(u)
            for k, c in v.items():
                nv = out.get(k, 0) + c
                if nv == 0:
                    out.pop(k, None)
                else:
                    out[k] = nv
            return out

        bracket = self.base.bracket
        c11 = bracket(x1, y1)
        c12 = add(bracket(x1, y2), bracket(x2, y1))
        c22 = bracket(x2, y2)
        comp1 = add(c11, _scaled(c22, self.alpha) if self.alpha else {})
        comp2 = add(c12, _scaled(c22, self.beta) if self.beta else {})
        return (comp1, comp2)


def _scaled(u, s):
    return {k: s * c for k, c in u.items()}


def _vec_eq(u, v):
    return all(u.get(k, 0) == v.get(k, 0) for k in set(u) | set(v))


def check_witnesses_all_pairs(alpha, beta, base, witnesses, eigenvalues):
    """The witness checks of ``classify_extension``, run in the doubled
    algebra on every basis pair of ``base``; raises AssertionError."""
    alg = _DoubledAlgebra(base, alpha, beta)
    d = base.dimension

    def phi_vec(c1, c2, i):
        return ({i: c1} if c1 != 0 else {}, {i: c2} if c2 != 0 else {})

    brackets = {
        (i, j): base.bracket_basis(i, j) for i in range(d) for j in range(d) if i != j
    }
    if not eigenvalues:
        ((c1, c2),) = witnesses
        # abelian image: [phi x, phi y] = 0
        for i in range(d):
            for j in range(i + 1, d):
                img = alg.bracket(phi_vec(c1, c2, i), phi_vec(c1, c2, j))
                if img[0] or img[1]:
                    raise AssertionError("takiff witness image is not abelian")
        return
    for c1, c2 in witnesses:
        for i in range(d):
            for j in range(i + 1, d):
                img = alg.bracket(phi_vec(c1, c2, i), phi_vec(c1, c2, j))
                expect = brackets[(i, j)]
                if not _vec_eq(img[0], _scaled(expect, c1)) or not _vec_eq(
                    img[1], _scaled(expect, c2)
                ):
                    raise AssertionError("witness map is not a Lie homomorphism")
    # ideals: [x_1, phi(y)] = phi([x,y]) and [x_2, phi(y)] = (p + beta) phi([x,y])
    for (c1, c2), p in zip(witnesses, eigenvalues):
        s = p + beta
        sc1, sc2 = s * c1, s * c2
        for (i, j), expect in brackets.items():
            img1 = alg.bracket(({i: 1}, {}), phi_vec(c1, c2, j))
            if not _vec_eq(img1[0], _scaled(expect, c1)) or not _vec_eq(
                img1[1], _scaled(expect, c2)
            ):
                raise AssertionError("first-copy ideal relation fails")
            img2 = alg.bracket(({}, {i: 1}), phi_vec(c1, c2, j))
            if not _vec_eq(img2[0], _scaled(expect, sc1)) or not _vec_eq(
                img2[1], _scaled(expect, sc2)
            ):
                raise AssertionError("second-copy ideal relation fails")
    # commuting images
    (a1, a2), (b1, b2) = witnesses
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            img = alg.bracket(phi_vec(a1, a2, i), phi_vec(b1, b2, j))
            if img[0] or img[1]:
                raise AssertionError("images of the two witnesses do not commute")
    # spanning: the 2x2 coefficient matrix must be invertible
    if a1 * b2 - a2 * b1 == 0:
        raise AssertionError("witness images do not span")


def classify_extension_all_pairs(alpha, beta, base):
    """``classify_extension`` with every witness relation checked bracket by
    bracket in the doubled algebra g + g instead of once in Q[t]/(t^2 - beta t - alpha)."""
    alpha, beta = frac(alpha), frac(beta)
    disc = 4 * alpha + beta * beta
    if disc == 0:
        witnesses = ((-beta / 2, Fraction(1)),)
        check_witnesses_all_pairs(alpha, beta, base, witnesses, ())
        return ExtensionClassification("takiff_iso", alpha, beta, disc, witnesses, ())
    root = sqrt_rational(disc)
    if root is not None:
        eigenvalues = ((-beta + root) / 2, (-beta - root) / 2)
    else:
        eigenvalues = (QuadExt(-beta / 2, Fraction(1, 2), disc),
                       QuadExt(-beta / 2, Fraction(-1, 2), disc))
    witnesses = []
    for p in eigenvalues:
        denom = 2 * p + beta
        one = 1 if not isinstance(p, QuadExt) else QuadExt(1, 0, disc)
        witnesses.append((p / denom, one / denom))
    check_witnesses_all_pairs(alpha, beta, base, tuple(witnesses), eigenvalues)
    return ExtensionClassification(
        "direct_sum_iso", alpha, beta, disc, tuple(witnesses), eigenvalues
    )
