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

Construction runs in ints.  The one check on the input is that it equals
the label's Cartan matrix, or its transpose on a self-dual series, so any
other matrix (affine, hyperbolic, of another type, ragged) is refused with
a UsageError before any root is built; off finite type its root strings
would never close.  One fraction-free Gauss-Jordan elimination of [A | I]
(Bareiss) gives det A and adj A, from which the symmetrizer and the scaled
integer forms behind ``inner`` and ``in_root_lattice`` are read.
Dominant conjugation (``_reflect_to_dominant``) reflects a list in place
along each node's Dynkin neighbours; its results, with |W_x|, go to one
table (``_conjugate``) that Freudenthal and the invariant ring both read.

Weyl-group operations never materialize W.  One private walk
enumerates the orbit of a dominant weight as a tree under simple
reflections, each element built once from the parent that reflects away its
first negative coordinate, for ``weyl_orbit`` and ``weyl_orbit_signed``.
The truncated Weyl-Kac numerators (``alternating_sum``) need no walk: by the
Weyl denominator identity they are prod_{alpha>0} (1 - q^{(mu, alpha)}),
multiplied out in ints by the helper that ``principal_specialization`` uses.
Nor does the theta series of Q (``theta_counts``): it is a transfer over
the Dynkin tree, node by node from the leaves, in ints.  The three kernels
of ch L_lam sit side by side: ``weyl_dimension``,
``principal_specialization`` and Freudenthal's ``dominant_multiplicities``,
which walks one root string per W_mu-orbit of roots, in ints, over a cone
read off one cached ``_walk_q_plus`` per coset of Q (Q+ for the verifiers).
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


def _symmetrizer(adj: Sequence[Sequence[int]]) -> List[int]:
    """Coprime positive ints e_i proportional to d_i = (alpha_i, alpha_i)/2,
    read off adj A: A = B D^{-1} with B = ((alpha_i, alpha_j)) symmetric, so
    adj A = det A D B^{-1} and d_i / d_0 = adj(A)_{i0} / adj(A)_{0i}, every
    entry of adj A being positive on a simple type.  With e_0 the lcm of the
    reduced ratios' denominators, the e_i have no common factor."""
    ratios = [Fraction(row[0], top) for row, top in zip(adj, adj[0])]
    den = math.lcm(*(r.denominator for r in ratios))
    return [r.numerator * (den // r.denominator) for r in ratios]


def _det_and_adjugate(a: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(det A, adj A) in ints, by one fraction-free Gauss-Jordan elimination
    of [A | I] (Bareiss, Math. Comp. 22, 1968), which ends at [det A I | adj A].

    The pivot of step k is the leading principal minor of order k + 1, and
    the division by the previous pivot is exact.  A is the Cartan matrix of
    a finite type, the only input ``RootSystem`` admits, so every pivot is
    positive (Kac, Infinite-dimensional Lie algebras, Thm 4.3).
    """
    n = len(a)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)]
    prev = 1
    for k, top in enumerate(m):
        p = top[k]
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

    Built from the Cartan matrix of its type label (or its transpose on a
    self-dual series), the only input it admits (UsageError otherwise), in
    integer arithmetic: one fraction-free elimination gives the inverse
    Cartan matrix and the symmetrizer.
    All derived quantities (positive roots, Weyl vectors, dual Coxeter
    number, lacity, Weyl group order) are computed, not table lookups.
    The bilinear form is kept only as integers over one denominator, which
    ``inner`` sums; (omega_i, omega_j) and (alpha_i, alpha_i)/2 are
    ``inner`` of the unit and the simple-root tuples.  The root data is
    immutable after construction and safe to share; the mutable parts are
    caches that only grow: the coefficient contexts (``_contexts``), the
    dominant weights of each coset of Q up to the deepest norm asked so far
    (``_cosets``), the dominant conjugates (``_conjugates``), and |W_J| and
    Freudenthal's strings per zero pattern J.
    """

    def __init__(self, cartan: Sequence[Sequence[int]], type_label: str):
        self.type_label = type_label
        self.series, self.rank = parse_type_label(type_label)
        n = self.rank
        # the input, not transposed (zip would cut a ragged row to length),
        # against the label's int matrices; the one it matches is stored
        canon = tuple(map(tuple, cartan_matrix(self.series, n)))
        dual = tuple(zip(*canon)) if _DUAL_SERIES[self.series] == self.series else canon
        given = tuple(map(tuple, cartan))
        if given not in (canon, dual):
            raise UsageError(f"Cartan matrix is not that of type {type_label}")
        a = self.cartan_matrix = canon if given == canon else dual
        det, adj = _det_and_adjugate(a)
        e = _symmetrizer(adj)
        top, low = max(e), min(e)
        # d_i = e_i / max e, so that the long roots have (alpha, alpha) = 2
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
        # root-lattice residue -> (limit, the coset's _walk_q_plus list through
        # that scaled norm); a deeper limit walks the coset again
        self._cosets: Dict[Tuple[int, ...], Tuple[int, List[Tuple[int, Weight]]]] = {}
        self._conjugates: Dict[Weight, Tuple[Weight, int]] = {}
        self._parabolic_orders: Dict[Tuple[bool, ...], int] = {}
        self._strings: Dict[Tuple[bool, ...], list] = {}

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

    def _conjugate(self, x: Weight) -> Tuple[Weight, int]:
        """(dom x, |W_x|) for any weight x, from the table ``_conjugates``,
        which a miss fills; hot loops read the table first themselves."""
        hit = self._conjugates.get(x)
        if hit is None:
            d = self._reflect_to_dominant(x)
            hit = self._conjugates[x] = (d, self._parabolic_order(tuple(map(operator.not_, d))))
        return hit

    def stabilizer_order(self, lam: Weight) -> int:
        """|W_lam| for a dominant lam, without walking its orbit."""
        return self._parabolic_order(tuple(c == 0 for c in self._dominant(lam, "stabilizer_order")))

    def _parabolic_order(self, zero: Tuple[bool, ...]) -> int:
        """|W_J|, J the nodes marked in zero, cached: the Weyl order of the
        positive roots supported on J, read off their height histogram."""
        k = self._parabolic_orders.get(zero)
        if k is None:
            heights = Counter(sum(rc) for rc in self._root_coords.values()
                              if all(zero[i] for i, c in enumerate(rc) if c))
            k = self._parabolic_orders[zero] = _weyl_order_from_heights(
                [heights[h] for h in range(1, len(heights) + 1)])
        return k

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
        return [lam for _, lam in self._coset_walk((0,) * self.rank, limit)]

    def _coset_walk(self, residue: Tuple[int, ...], limit: int) -> List[Tuple[int, Weight]]:
        """The coset's ``_walk_q_plus`` list through the scaled norm limit: a
        prefix of the cached list, walked again only for a deeper limit."""
        depth, walk = self._cosets.get(residue, (-1, []))
        if limit > depth:
            walk = self._walk_q_plus(limit, residue)
            self._cosets[residue] = (limit, walk)
        return walk[:bisect.bisect_right(walk, limit, key=operator.itemgetter(0))]

    def _walk_q_plus(self, limit: int, residue: Tuple[int, ...]) -> List[Tuple[int, Weight]]:
        """(x^T F x, x), sorted, F = ``_form_scaled``, for every dominant x with
        x^T F x <= limit in the coset lam + Q whose root-lattice residues
        ``_inv_cartan_t_scaled`` lam mod ``_lattice_den`` are residue: Q+ for 0.

        Depth-first over the coordinates, in ints: raising c_i by one adds
        2 (F c)_i + F_ii to the norm and column i of ``_inv_cartan_t_scaled``
        to the residues.  Every (omega_i, omega_j) is positive on a finite
        type, so no later coordinate lowers the norm, and c_i stops rising
        once the partial norm passes the limit (Fincke and Pohst, Math. Comp.
        44, 1985, on the positive orthant).
        """
        n, form, den = self.rank, self._form_scaled, self._lattice_den
        if any(x < 0 for row in form for x in row):
            raise AssertionError("a negative (omega_i, omega_j) breaks the pruning")
        residue_cols = list(zip(*self._inv_cartan_t_scaled))
        found, coords = [], [0] * n

        def rec(i: int, norm: int, fc: Sequence[int], res: Sequence[int]) -> None:
            if i == n:
                if tuple(res) == residue:
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
        return sorted(found)

    def theta_counts(self, order, t: Sequence[int]) -> Dict[Tuple[object, int], int]:
        """{((lam, lam)/2, sum_i c_i t_i): count} over lam = sum_i c_i alpha_i in Q
        with (lam, lam)/2 <= order, for an integer functional t on simple-root
        coordinates; q-exponents by ``int_or_frac``, UsageError for order < 0.

        A transfer over the Dynkin tree, rooted at node 0.  A tree has no
        cycle, so eliminating leaves first factors G = lac B, B_ij = (alpha_i,
        alpha_j), with no fill-in: lac (lam, lam)/2 = sum_i D_i (c_i + l_i
        c_p(i))^2, p(i) the parent of i.  Node i sends p(i), for each c_p,
        sum_{c_i} q^{D_i (c_i + l_i c_p)^2} z^{t_i c_i} times its children's
        messages at c_i.  No term has a negative q-exponent, so truncating
        every message at the order is exact, and |c_i| = |(lam, omega_i^vee)|
        <= sqrt(2 order (B^-1)_ii) by Cauchy-Schwarz (Fincke and Pohst, Math.
        Comp. 44, 1985, summed as a generating function).  In ints: every
        square term is scaled by the common denominator of the D_i and the
        D_i l_i^2, and q^e z^y is the key e W + y, W = 2 Z + 1 for |y| <= Z,
        so a product adds keys and a key is at most limit W + Z exactly when
        e <= limit.
        """
        order = int_or_frac(order)
        if order < 0:
            raise UsageError("theta order must be nonnegative")
        n, a, lac, steps = self.rank, self.cartan_matrix, self.lacity, self._steps
        walk, parent, children = [0], [None] * n, {}
        for i in walk:  # breadth first; the list grows under the loop
            children[i] = [j for j, _ in self._neighbours[i] if j != parent[i]]
            for j in children[i]:
                parent[j] = i
            walk += children[i]
        diag, cross = [Fraction(x) for x in steps], [0] * n
        for i in reversed(walk[1:]):  # leaves first: D_i is final when read
            p = parent[i]
            cross[i] = Fraction((a[i][p] * steps[p]) ** 2, 4) / diag[i]
            diag[p] -= cross[i]
        scale = math.lcm(*(Fraction(x).denominator for x in diag + cross))
        limit = math.floor(order * lac * scale)
        # (B^-1)_ii = (A^-1)_ii / d_i = (A^-1)_ii lac / steps_i
        inv, den = self._inv_cartan_t_scaled, self._lattice_den
        bound = [math.isqrt(math.floor(2 * order * lac * inv[i][i] / (den * steps[i])))
                 for i in range(n)]
        z_bound = sum(abs(x) * b for x, b in zip(t, bound))
        width = 2 * z_bound + 1
        cap = limit * width + z_bound
        messages: Dict[int, List[List[Tuple[int, int]]]] = {}
        for i in reversed(walk):
            b, p = bound[i], parent[i]
            incoming = [messages.pop(j) for j in children[i]]
            terms = []  # (c_i, z^{t_i c_i} prod_k M_k(c_i))
            for c in range(-b, b + 1):
                poly = [(t[i] * c, 1)]
                for message in incoming:
                    out: Dict[int, int] = {}
                    for key, m in poly:
                        _accumulate(out, key, m, message[c + b], cap)
                    poly = sorted(out.items())
                terms.append((c, poly))
            # K D_i (c_i + l_i c_p)^2 = d c_i^2 + x c_i c_p + y c_p^2, in ints
            d = int(diag[i] * scale)
            x, y = (0, 0) if p is None else (a[i][p] * steps[p] * scale, int(cross[i] * scale))
            messages[i] = []
            for cp in (0,) if p is None else range(-bound[p], bound[p] + 1):
                out = {}
                for c, poly in terms:
                    e = d * c * c + x * c * cp + y * cp * cp
                    if e <= limit:
                        _accumulate(out, e * width, 1, poly, cap)
                messages[i].append(sorted(out.items()))
        counts: Dict[Tuple[object, int], int] = {}
        for key, m in messages[0][0]:
            e, y = divmod(key + z_bound, width)
            qs, rem = divmod(e, scale)
            if rem:
                raise AssertionError("a theta exponent is not a multiple of the scale")
            counts[(int_or_frac(Fraction(qs, lac)), y - z_bound)] = m
        return counts

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

    def _freudenthal_strings(self, zero: Tuple[bool, ...]) -> list:
        """Freudenthal's strings at a dominant mu with zero pattern J, cached:
        (alpha, lac (omega_i, alpha) per i, lac (alpha, alpha), count) for the
        one J-dominant root alpha of each W_J-orbit that holds positive roots.

        W_J = W_mu fixes mu, so a string's terms are the same along an orbit
        (Moody and Patera, Bull. AMS 7, 1982).  Its |W_J| / |W_J'| roots, J'
        the nodes of J where alpha_j = 0, are all positive off Phi_J (s_j, j
        in J, permutes the other positive roots); inside Phi_J they are
        closed under negation, so count is half of them.
        """
        strings = self._strings.get(zero)
        if strings is None:
            order, strings = self._parabolic_order(zero), []
            for alpha, rc in self._root_coords.items():
                if all(c >= 0 for c, z in zip(alpha, zero) if z):
                    pair = tuple(map(operator.mul, self._steps, rc))
                    size = order // self._parabolic_order(tuple(z and not c for z, c in zip(zero, alpha)))
                    inside = all(zero[i] for i, c in enumerate(rc) if c)
                    strings.append((alpha, pair, sum(map(operator.mul, alpha, pair)),
                                    size // 2 if inside else size))
            self._strings[zero] = strings
        return strings

    def _dominant_cone(self, lam: Weight) -> List[Tuple[int, Weight]]:
        """(height of lam - mu, mu) for each dominant mu <= lam, sorted.

        Every such mu has (mu, mu) <= (lam, lam), so lam's coset list read to
        lam^T F lam holds it; it is below lam when den (lam - mu)'s simple-root
        coordinates, one row of ``_inv_cartan_t_scaled`` each, are nonnegative.
        """
        inv, den, mul = self._inv_cartan_t_scaled, self._lattice_den, operator.mul
        top = [sum(map(mul, row, lam)) for row in inv]
        size = sum(c * sum(map(mul, row, lam)) for c, row in zip(lam, self._form_scaled))
        diffs = (([c - sum(map(mul, row, mu)) for c, row in zip(top, inv)], mu)
                 for _, mu in self._coset_walk(tuple([c % den for c in top]), size))
        return sorted((sum(d) // den, mu) for d, mu in diffs if min(d) >= 0)

    def dominant_multiplicities(self, lam: Weight) -> Dict[Weight, int]:
        """Dominant weight -> multiplicity in L_lam, by Freudenthal's recursion
        run on the dominant weights only, in ints.

        mu + k alpha (k > 0) has a dominant conjugate of smaller height, read
        from ``_conjugates``, so it is a weight of L_lam iff that conjugate
        already has a multiplicity; strings are unbroken, so the first miss
        ends the string.  The positive roots enter by W_mu-orbits
        (``_freudenthal_strings``), and the mu by ``_dominant_cone``.  A
        string sums lac (mu + k alpha, alpha), and the norms are x^T F x, F =
        ``_form_scaled``, so the recursion's one division is an exact int divmod.
        """
        lam = self._dominant(lam, "dominant_multiplicities")
        form, table, conjugate, add = self._form_scaled, self._conjugates, self._conjugate, operator.add
        mult: Dict[Weight, int] = {lam: 1}
        for _, mu in self._dominant_cone(lam)[1:]:
            total = 0
            for alpha, pair, len2, count in self._freudenthal_strings(tuple(map(operator.not_, mu))):
                nu, ip = mu, sum(map(operator.mul, mu, pair))
                while True:
                    nu = tuple(map(add, nu, alpha))
                    ip += len2
                    m = mult.get((table.get(nu) or conjugate(nu))[0])
                    if m is None:
                        break
                    total += count * m * ip
            # |lam + rho|^2 - |mu + rho|^2 = (lam - mu)^T F (lam + mu + 2 rho), F symmetric
            up = [a + b + 2 for a, b in zip(lam, mu)]
            gap = sum((a - b) * sum(map(operator.mul, row, up)) for a, b, row in zip(lam, mu, form))
            m, rem = divmod(2 * self._form_den * total, self.lacity * gap)
            if rem or m <= 0:
                raise AssertionError("Freudenthal produced a non-positive-integer multiplicity")
            mult[mu] = m
        return mult

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


def _accumulate(out: Dict[int, int], shift: int, scale: int,
                poly: List[Tuple[int, int]], cap: int) -> None:
    """out += scale q^shift poly for a (key, count) list sorted by key, every key
    past cap dropped: a key grows with its q-exponent (``theta_counts``)."""
    get, top = out.get, cap - shift
    for key, m in poly:
        if key > top:
            break
        key += shift
        out[key] = get(key, 0) + scale * m


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
