"""Exact root-system and weight-lattice data for the finite simple types.

A weight is a tuple of ints holding its coordinates in the
fundamental-weight basis, so the i-th coordinate of a weight mu is the
pairing <mu, alpha_i^vee>.  Every weight the package builds, reflects or
keys a group ring with is integral (the tops L_lambda have lambda in Q+,
the theta sum runs over Q), and ``weight()`` is the one place that checks
it.  Coweights, the dual Weyl vector rho_check and a ray's xi, keep
rational coordinates and only ever enter ``inner``.  All bilinear data
derives from the symmetrized Cartan matrix, normalized so the highest
root theta has (theta, theta) = 2.

Construction runs in ints.  The symmetrizer is read along the Dynkin
diagram and checked on every edge, and one fraction-free Gauss-Jordan
elimination of [A | I] (Bareiss) gives det A and adj A, from which the
scaled integer forms behind ``inner`` and ``in_root_lattice`` are read.
Its pivots are the leading principal minors of A, so a Cartan matrix not
of finite type (not symmetrizable, or with a pivot <= 0) is refused with
a UsageError before any root is built; its root strings would never close.
Dominant conjugation (``_reflect_to_dominant``) reflects a list in place
along each node's Dynkin neighbours.

Weyl-group operations never materialize W.  One private walk
enumerates the orbit of a dominant weight as a tree under simple
reflections, each element built once from the parent that reflects away its
first negative coordinate, for ``weyl_orbit`` and ``weyl_orbit_signed``.
The truncated Weyl-Kac numerators (``alternating_sum``) need no walk: by the
Weyl denominator identity they are prod_{alpha>0} (1 - q^{(mu, alpha)}),
multiplied out in ints by the helper that ``principal_specialization`` uses.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .linalg import frac, int_or_frac

Weight = Tuple[int, ...]  # coordinates in the fundamental-weight basis

_SERIES = {"A", "B", "C", "D", "E", "F", "G"}

_DUAL_SERIES = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}


class UsageError(ValueError):
    """Bad input at an API boundary (unknown type, wrong lattice, ...)."""


def weight(coords: Iterable) -> Weight:
    """coords as an int tuple; raises UsageError off the integral weight lattice."""
    coords = tuple(coords)
    key = tuple(map(int, coords))
    if key != coords:
        raise UsageError(f"weight ({', '.join(map(str, coords))}) is not integral")
    return key


def parse_type_label(label: str) -> Tuple[str, int]:
    s = label.strip().upper().replace("_", "")
    if len(s) < 2 or s[0] not in _SERIES:
        raise UsageError(f"unknown type label {label!r}")
    try:
        rank = int(s[1:])
    except ValueError:
        raise UsageError(f"unknown type label {label!r}") from None
    _check_type(s[0], rank, label)
    return s[0], rank


def _check_type(series: str, rank: int, label: str) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 4,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }[series]
    if not ok:
        raise UsageError(f"unsupported type label {label!r}")


def cartan_matrix(series: str, rank: int) -> List[List[int]]:
    """Canonical Cartan matrix (Bourbaki node numbering)."""
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            link(i, i + 1)
        if series == "B" and rank >= 2:
            link(rank - 2, rank - 1, -2, -1)  # alpha_rank short
        if series == "C" and rank >= 2:
            link(rank - 2, rank - 1, -1, -2)  # alpha_rank long
    elif series == "D":
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif series == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to 4 (Bourbaki)
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for u, v in zip(chain, chain[1:]):
            link(u, v)
        link(1, 3)
    elif series == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif series == "G":
        link(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return a


def is_valid_cartan(a: Sequence[Sequence[int]]) -> bool:
    n = len(a)
    for i in range(n):
        if len(a[i]) != n or a[i][i] != 2:
            return False
        for j in range(n):
            if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                return False
    return True


def _symmetrizer(a: Sequence[Sequence[int]]) -> List[int]:
    """Coprime positive ints e_i proportional to d_i = (alpha_i, alpha_i)/2,
    from (alpha_i, alpha_j) = a_ij d_j = a_ji d_i.  Read along a spanning tree
    of the Dynkin diagram, scaling e up where a ratio does not divide, then
    checked on every edge: UsageError unless A is indecomposable and
    symmetrizable."""
    n = len(a)
    e = [1] + [0] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] and not e[j]:
                scale = abs(a[i][j]) // math.gcd(e[i] * a[j][i], a[i][j])
                if scale > 1:
                    e = [x * scale for x in e]
                e[j] = e[i] * a[j][i] // a[i][j]
                todo.append(j)
    if not all(e):
        raise UsageError("Cartan matrix is not indecomposable")
    if any(a[i][j] and a[i][j] * e[j] != a[j][i] * e[i] for i in range(n) for j in range(i)):
        raise UsageError("Cartan matrix is not symmetrizable")
    g = math.gcd(*e)
    return [x // g for x in e]


def _det_and_adjugate(a: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(det A, adj A) in ints, by one fraction-free Gauss-Jordan elimination
    of [A | I] (Bareiss, Math. Comp. 22, 1968), which ends at [det A I | adj A].

    The pivot of step k is the leading principal minor of order k + 1, and
    the division by the previous pivot is exact.  For a symmetrizable A
    (with d > 0), all pivots are positive exactly when the symmetrized A is
    positive definite, that is, when A is of finite type (Kac,
    Infinite-dimensional Lie algebras, Thm 4.3); any other A raises
    UsageError here, before a root is built.
    """
    n = len(a)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    prev = 1
    for k, top in enumerate(m):
        p = top[k]
        if p <= 0:
            raise UsageError("Cartan matrix is not of finite type")
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return prev, [row[n:] for row in m]


def _reduced(den: int, rows: Sequence[Sequence[int]]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(den, rows) / their common gcd: for rows = den M with M rational, the
    least common denominator of M's entries and that multiple of M."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return den // g, tuple(tuple([x // g for x in row]) for row in rows)


class RootSystem:
    """Complete integral/rational data of one simple root system.

    Built from a finite-type Cartan matrix, in integer arithmetic: the
    inverse Cartan matrix comes from one fraction-free elimination, whose
    pivots also refuse (UsageError) a matrix that is not of finite type.
    All derived quantities (positive roots, Weyl vectors, dual Coxeter
    number, lacity, Weyl group order) are computed, not table lookups.
    ``quadratic_form`` holds the (omega_i, omega_j) as Fractions, derived
    from the integer form that ``inner`` sums.  The root data is
    immutable after construction and safe to share; the two mutable parts
    are caches that only grow: the coefficient contexts (``_contexts``) and
    the dominant weights of Q+ up to the deepest norm bound asked so far
    (``_q_plus``).
    """

    def __init__(self, cartan: Sequence[Sequence[int]], type_label: str):
        if not is_valid_cartan(cartan):
            raise UsageError("not a generalized Cartan matrix")
        self.type_label = type_label
        self.series, self.rank = parse_type_label(type_label)
        self.cartan_matrix: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in cartan
        )
        n = self.rank
        a = self.cartan_matrix
        e = _symmetrizer(a)
        det, adj = _det_and_adjugate(a)
        canon = tuple(map(tuple, cartan_matrix(self.series, n)))
        if a != canon and (_DUAL_SERIES[self.series] != self.series or tuple(zip(*a)) != canon):
            raise UsageError(f"Cartan matrix is not that of type {type_label}")
        top, low = max(e), min(e)
        # d_i = e_i / max e, so that the long roots have (alpha, alpha) = 2
        self.symmetrizer: Tuple[Fraction, ...] = tuple(Fraction(x, top) for x in e)
        self.lacity: int = top // low
        # lac d_i = lac (alpha_i, rho), ints: lac (mu, alpha_i) = mu_i lac d_i
        # in alternating_sum, and the scale of the simple roots' lengths in _coroot
        self._steps: Tuple[int, ...] = tuple(x // low for x in e)
        # (omega_i, omega_j) = (A^{-1})_ij d_j = adj(A)_ij lac d_j / (lac det A)
        # and A^{-T} = adj(A)^T / det A, each as ints over its least common
        # denominator, so inner and in_root_lattice sum in ints and divide (or
        # reduce) once
        self._form_den, self._form_scaled = _reduced(
            self.lacity * det, [[x * s for x, s in zip(row, self._steps)] for row in adj])
        self._lattice_den, self._inv_cartan_t_scaled = _reduced(det, list(zip(*adj)))
        den = self._form_den
        self.quadratic_form: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple([Fraction(x, den) for x in row]) for row in self._form_scaled)
        # simple root alpha_i has fundamental-weight coords = i-th row of A,
        # and s_i moves only coordinate i and its Dynkin neighbours j, by a_ij
        self.simple_roots: Tuple[Weight, ...] = a
        self._neighbours: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple([(j, x) for j, x in enumerate(row) if x and j != i]) for i, row in enumerate(a))
        self._build_positive_roots()
        self.rho: Weight = (1,) * n
        # a coweight, so rational: (rho_check, alpha_i) = 1 for every i
        self.rho_check = tuple(int_or_frac(Fraction(top, x)) for x in e)
        self.highest_root: Weight = self.positive_roots[-1]
        theta_len2 = self.inner(self.highest_root, self.highest_root)
        if theta_len2 != 2:
            raise AssertionError("normalization broke: (theta,theta) != 2")
        self.dual_coxeter: int = int(1 + self.inner(self.rho, self.highest_root))
        # <omega_j, alpha^vee> for each positive root alpha: the coroot
        # alpha^vee = 2 alpha / (alpha, alpha) in simple-coroot coordinates
        self._coroot_coords: Tuple[Tuple[int, ...], ...] = tuple(
            self._coroot(alpha) for alpha in self.positive_roots)
        self.weyl_order: int = _weyl_order_from_heights(self._heights)
        # the coefficient contexts and their caches, one per (mode, xi), made
        # on first use by qseries.make_context and freed with this root system
        self._contexts = {}
        # (scaled norm lam^T F lam, lam) for lam in Q+, sorted, through the
        # scaled norm _q_plus_limit; grown by dominant_weights_in_root_lattice
        self._q_plus: List[Tuple[int, Weight]] = []
        self._q_plus_limit = -1

    # -- construction helpers -------------------------------------------------

    def _build_positive_roots(self) -> None:
        """Positive roots by height, each level sorted, with their simple-root
        coordinates (``_root_coords``, in order of discovery) and the number
        of roots at each height (``_heights``)."""
        roots, sub, add = self.simple_roots, operator.sub, operator.add
        n = self.rank
        root_coords: Dict[Weight, Tuple[int, ...]] = {
            alpha: tuple([int(i == j) for j in range(n)]) for i, alpha in enumerate(roots)}
        level: List[Weight] = list(roots)
        ordered: List[Weight] = []
        self._heights = []
        while level:
            ordered.extend(sorted(level))
            self._heights.append(len(level))
            nxt: List[Weight] = []
            for beta in level:
                rc = root_coords[beta]
                for i, alpha in enumerate(roots):
                    # root string: q = p - <beta, alpha_i^vee> copies upward,
                    # and beta - alpha_i is no root unless alpha_i is in beta
                    p = 0
                    if rc[i]:
                        down = tuple(map(sub, beta, alpha))
                        while down in root_coords:
                            p += 1
                            down = tuple(map(sub, down, alpha))
                    if p > beta[i]:
                        up = tuple(map(add, beta, alpha))
                        if up not in root_coords:
                            root_coords[up] = (*rc[:i], rc[i] + 1, *rc[i + 1:])
                            nxt.append(up)
            level = sorted(nxt)
        self.positive_roots: Tuple[Weight, ...] = tuple(ordered)
        self._root_coords = root_coords  # positive roots -> simple-root coords

    def _coroot(self, alpha: Weight) -> Tuple[int, ...]:
        """alpha^vee in simple-coroot coordinates, c_j d_j / d_alpha, in ints:
        _steps[j] = lac d_j, and lac d_alpha = lac (alpha, alpha) / 2 =
        sum_i lac d_i c_i <alpha, alpha_i^vee> / 2."""
        scaled = list(map(operator.mul, self._root_coords[alpha], self._steps))
        step, odd = divmod(sum(map(operator.mul, scaled, alpha)), 2)
        coroot = tuple([x // step for x in scaled])
        if odd or (step != 1 and [k * step for k in coroot] != scaled):
            raise AssertionError("a coroot came out non-integral")
        return coroot

    # -- basic queries ---------------------------------------------------------

    def same_as(self, other: "RootSystem") -> bool:
        return (
            isinstance(other, RootSystem)
            and self.type_label == other.type_label
            and self.cartan_matrix == other.cartan_matrix
        )

    def _require_rank(self, lam: Weight) -> None:
        if len(lam) != self.rank:
            raise UsageError("weight has wrong rank for this root system")

    def inner(self, lam: Weight, mu: Weight) -> Fraction:
        """Exact symmetric bilinear form, normalized with (theta,theta)=2."""
        self._require_rank(lam)
        self._require_rank(mu)
        f = self._form_scaled
        total = 0
        for i, li in enumerate(lam):
            if li:
                row = f[i]
                total += li * sum(row[j] * mj for j, mj in enumerate(mu) if mj)
        return Fraction(total, self._form_den)

    def norm2(self, lam: Weight) -> Fraction:
        return self.inner(lam, lam)

    def height(self, root: Weight) -> int:
        return sum(self._root_coords[root])

    def root_coords(self, root: Weight) -> Tuple[int, ...]:
        """Coordinates of a positive root in the simple-root basis."""
        return self._root_coords[root]

    def in_root_lattice(self, lam: Weight) -> bool:
        """Exact membership test lam in Q: lam's simple-root coordinates
        A^{-T} lam are integers."""
        self._require_rank(lam)
        den = self._lattice_den
        return all(sum(map(operator.mul, row, lam)) % den == 0 for row in self._inv_cartan_t_scaled)

    def is_dominant(self, lam: Weight) -> bool:
        self._require_rank(lam)
        return all(c >= 0 for c in lam)

    def _dominant(self, lam: Weight, what: str) -> Weight:
        """lam as an int tuple; UsageError off the dominant integral weights."""
        self._require_rank(lam)
        lam = weight(lam)
        if not self.is_dominant(lam):
            raise UsageError(f"{what} requires a dominant weight")
        return lam

    def _regular(self, lam: Weight, what: str) -> Weight:
        """lam as an int tuple; UsageError off the regular dominant integral weights."""
        lam = self._dominant(lam, what)
        if 0 in lam:
            raise UsageError(f"{what} requires a regular weight")
        return lam

    def dimension(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    # -- Weyl group machinery --------------------------------------------------

    def _reflect_to_dominant(self, lam: Weight) -> Weight:
        """The dominant weight in the W-orbit of lam, an int tuple of rank n (unchecked).

        Reflects by s_i at the first negative coordinate i, in place on a
        list: s_i negates coordinate i and moves only i's Dynkin neighbours
        j, by -lam_i a_ij.  Coordinates before i were nonnegative, so the
        next negative one is the least neighbour below i that went negative,
        or else the first negative one after i.
        """
        if min(lam) >= 0:
            return lam
        lam, nbrs, n = list(lam), self._neighbours, len(lam)
        i = next(i for i, c in enumerate(lam) if c < 0)
        while True:
            c = lam[i]
            lam[i] = -c
            low = i
            for j, a in nbrs[i]:
                lam[j] -= c * a
                if j < low and lam[j] < 0:
                    low = j
            if low < i:
                i = low
                continue
            i += 1
            while i < n and lam[i] >= 0:
                i += 1
            if i == n:
                return tuple(lam)

    def _orbit_walk(self, lam: Weight) -> List[Tuple[Weight, int]]:
        """(w(lam), eps(w)) for each element w(lam) of the W-orbit of a dominant lam (unchecked).

        Walks the tree in which the parent of a non-dominant nu is s_j nu, j
        the first index with nu_j < 0: from mu it steps by s_i only when
        c = mu_i > 0 and s_i mu has no negative coordinate before index i.
        Each element thus has exactly one parent and is built once, with no
        set of seen elements.  A step lengthens w by one, which flips the
        sign: eps(w) of the one w with w(lam) = nu when lam is regular.
        """
        roots = self.simple_roots
        walk = [(lam, 1)]
        for mu, sign in walk:  # the list grows under the loop: a queue
            for i, c in enumerate(mu):
                if c > 0:
                    nu = tuple([x - c * a for x, a in zip(mu, roots[i])])
                    if i == 0 or min(nu[:i]) >= 0:
                        walk.append((nu, -sign))
        return walk

    def weyl_orbit(self, lam: Weight) -> List[Weight]:
        """Full W-orbit of a dominant weight, each element exactly once, sorted."""
        return sorted([nu for nu, _ in self._orbit_walk(self._dominant(lam, "weyl_orbit"))])

    def weyl_orbit_signed(self, lam: Weight) -> List[Tuple[Weight, int]]:
        """Orbit of a regular dominant weight with det-parities epsilon(w), sorted.

        The parity of an orbit element is well defined exactly when the
        stabilizer is trivial, i.e. lam is regular; this is enforced.
        """
        return sorted(self._orbit_walk(self._regular(lam, "weyl_orbit_signed")))

    def stabilizer_order(self, lam: Weight) -> int:
        """|W_lam| for a dominant lam, without walking its orbit.

        W_lam is the parabolic subgroup generated by the simple reflections
        of lam's zero coordinates, so its order is the Weyl order of the
        positive roots supported on those coordinates, read off their height
        histogram like ``weyl_order``.
        """
        zero = [c == 0 for c in self._dominant(lam, "stabilizer_order")]
        heights = Counter(sum(rc) for rc in self._root_coords.values()
                          if all(zero[i] for i, c in enumerate(rc) if c))
        return _weyl_order_from_heights([heights[h] for h in range(1, len(heights) + 1)])

    def star(self, lam: Weight) -> Weight:
        """Highest weight of the dual representation: -w_0(lam)."""
        lam = self._dominant(lam, "star")
        return self._reflect_to_dominant(tuple(-c for c in lam))

    def dominant_weights_in_root_lattice(self, norm_bound) -> List[Weight]:
        """All lam in Q^+ with (lam,lam)/2 <= norm_bound, as a new list.

        Sorted by (lam,lam), then lexicographically by coordinates.  The
        walk runs once per deeper bound: a shallower bound is a prefix of
        the cached list.
        """
        bound = frac(norm_bound)
        if bound < 0:
            raise UsageError("norm bound must be nonnegative")
        # (lam, lam) <= 2 bound <=> lam^T F lam <= 2 bound den, an int
        limit = math.floor(2 * bound * self._form_den)
        if limit > self._q_plus_limit:
            self._q_plus = self._walk_q_plus(limit)
            self._q_plus_limit = limit
        end = bisect.bisect_right(self._q_plus, limit, key=operator.itemgetter(0))
        return [lam for _, lam in self._q_plus[:end]]

    def _walk_q_plus(self, limit: int) -> List[Tuple[int, Weight]]:
        """(lam^T F lam, lam) for every lam in Q^+ with lam^T F lam <= limit,
        sorted, F = ``_form_scaled``.

        Depth-first over the coordinates, in ints: raising c_i by one adds
        2 (F c)_i + F_ii to the norm and column i of ``_inv_cartan_t_scaled``
        to the root-lattice residues.  Every (omega_i, omega_j) is positive
        on a finite type, so no later coordinate lowers the norm, and c_i
        stops rising once the partial norm passes the limit (Fincke and
        Pohst, Math. Comp. 44, 1985, on the positive orthant).
        """
        n, form, den = self.rank, self._form_scaled, self._lattice_den
        if any(x < 0 for row in form for x in row):
            raise AssertionError("a negative (omega_i, omega_j) breaks the pruning")
        residue_cols = list(zip(*self._inv_cartan_t_scaled))
        found: List[Tuple[int, Weight]] = []
        coords = [0] * n

        def rec(i: int, norm: int, fc: Sequence[int], res: Sequence[int]) -> None:
            if i == n:
                if not any(res):
                    found.append((norm, tuple(coords)))
                return
            row, col = form[i], residue_cols[i]
            while True:
                rec(i + 1, norm, fc, res)
                norm += 2 * fc[i] + row[i]
                if norm > limit:
                    break
                coords[i] += 1
                fc = [a + b for a, b in zip(fc, row)]
                res = [(a + b) % den for a, b in zip(res, col)]
            coords[i] = 0

        rec(0, 0, [0] * n, [0] * n)
        found.sort()
        return found

    def _coroot_pairings(self, lam: Weight) -> Tuple[List[int], List[int]]:
        """(lam+rho, alpha^vee) and (rho, alpha^vee) for every positive root."""
        lam_rho = [c + 1 for c in lam]
        cor = self._coroot_coords
        return [sum(map(operator.mul, lam_rho, k)) for k in cor], [sum(k) for k in cor]

    def weyl_dimension(self, lam: Weight) -> int:
        """Weyl dimension formula prod_{alpha>0} (lam+rho, alpha^vee) / (rho, alpha^vee), exact."""
        num, den = self._coroot_pairings(self._dominant(lam, "weyl_dimension"))
        num, den = math.prod(num), math.prod(den)
        if num % den:
            raise AssertionError("Weyl dimension came out non-integral")
        return num // den

    def principal_specialization(self, lam: Weight) -> List[int]:
        """Coefficients c_0, ..., c_N of the polynomial
        prod_{alpha>0} (1 - z^{(lam+rho, alpha^vee)}) / (1 - z^{(rho, alpha^vee)}).

        ch L_lam at e^mu -> z^{(mu, rho_check)} is z^{-(lam, rho_check)} times
        it, the q-dimension (Kac, Infinite-dimensional Lie algebras, 10.10).
        Exponents common to numerator and denominator cancel as a multiset
        first; the other numerator factors are multiplied out, and each
        denominator factor 1 - z^b is divided out by g_k += g_{k-b}.  The
        quotient is a polynomial exactly when the top b coefficients then
        vanish, which is checked.
        """
        num, den = self._coroot_pairings(self._dominant(lam, "principal_specialization"))
        num, den = Counter(num), Counter(den)
        common = num & den
        num, den = num - common, den - common
        g = _one_minus_product(sorted(num.elements()), sum(num.elements()))
        for b in sorted(den.elements(), reverse=True):
            for k in range(b, len(g)):
                g[k] += g[k - b]
            if any(g[-b:]):
                raise AssertionError("principal specialization is not a polynomial")
            del g[-b:]
        return g

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label})"


def _weyl_order_from_heights(counts: Sequence[int]) -> int:
    """Order of the Weyl group whose positive roots number counts[h - 1] at
    height h: the exponents are the conjugate partition of that histogram
    (Shapiro, Steinberg, Kostant), also for a reducible root system, and
    |W| = prod (m_i + 1)."""
    order = 1
    for i in range(1, (counts[0] if counts else 0) + 1):
        order *= 1 + sum(1 for c in counts if c >= i)
    return order


def _one_minus_product(exps: Iterable[int], top: int) -> List[int]:
    """Coefficients of prod_{a in exps} (1 - q^a), positive ints a, through q^top (none
    if top < 0): one descending pass g_k -= g_{k-a} per factor, to the degree reached."""
    g, deg = [1] + [0] * top, 0
    for a in exps:
        deg = min(deg + a, top)
        for k in range(deg, a - 1, -1):
            g[k] -= g[k - a]
    return g[:top + 1]


def alternating_sum(rs: RootSystem, mu: Weight, bound) -> Dict[Fraction, int]:
    """Depth histogram of the signed orbit of a regular dominant mu, truncated:
    depth (mu - w(mu), rho) -> sum of eps(w), for every depth <= bound.

    The truncated numerator of the Weyl-Kac character formula (Kac,
    Infinite-dimensional Lie algebras, ch. 10), sum_w eps(w) q^{depth}, is
    prod_{alpha>0} (1 - q^{(mu, alpha)}) by the Weyl denominator identity,
    multiplied out at depths scaled by lac: lac (mu, alpha) = sum_i mu_i lac
    d_i c_i, c the simple-root coordinates of alpha, is an int.  A non-regular
    mu is refused, since a factor 1 - q^0 would make the sum 0.  Zero entries
    are dropped and keys come in increasing order.  Depth 0 is w = e alone,
    so it maps to 1 whenever bound >= 0.
    """
    mu, lac = rs._regular(mu, "alternating_sum"), rs.lacity
    scaled = list(map(operator.mul, mu, rs._steps))
    exps = [sum(map(operator.mul, scaled, c)) for c in rs._root_coords.values()]
    g = _one_minus_product(exps, math.floor(frac(bound) * lac))
    return {Fraction(d, lac): c for d, c in enumerate(g) if c}


def build_root_system(type_label: str) -> RootSystem:
    """Construct the root system named by a label like "A2", "d4", "G_2"."""
    series, rank = parse_type_label(type_label)
    return RootSystem(cartan_matrix(series, rank), f"{series}{rank}")


def langlands_dual(rs: RootSystem) -> RootSystem:
    """Root system with the transposed Cartan matrix (B <-> C, rest fixed)."""
    n = rs.rank
    transposed = [[rs.cartan_matrix[j][i] for j in range(n)] for i in range(n)]
    dual_label = f"{_DUAL_SERIES[rs.series]}{n}"
    return RootSystem(transposed, dual_label)
