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

Weyl-group operations never materialize W.  An orbit is enumerated as a
tree under simple reflections, each element built once from the parent
that reflects away its first negative coordinate.  Alternating sums over the
orbit of a regular dominant weight, the numerators of the Weyl-Kac
character formula, are built by a depth-bounded walk down from the
dominant weight (``alternating_sum``), which visits only the orbit
elements whose depth is within the truncation and never the whole orbit.
The full signed orbit (``weyl_orbit_signed``) stays as its test oracle and
for sums that need every term.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .linalg import frac, int_or_frac, isqrt_rational_floor, mat_inverse

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


def _symmetrizer(a: Sequence[Sequence[int]]) -> List[Fraction]:
    """d_i = (alpha_i, alpha_i)/2 with max_i d_i = 1, from d_i a_ij = d_j a_ji."""
    n = len(a)
    d: List[Fraction] = [None] * n  # type: ignore[list-item]
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(a[j][i], a[i][j])
                todo.append(j)
    if any(x is None for x in d):
        raise UsageError("Cartan matrix is not indecomposable")
    top = max(d)
    return [x / top for x in d]


def _scaled_to_ints(matrix: Sequence[Sequence[Fraction]]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(den, den * matrix) with den the least common denominator of the entries."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return den, tuple(tuple(int(x * den) for x in row) for row in matrix)


class RootSystem:
    """Complete integral/rational data of one simple root system.

    Built from a finite-type Cartan matrix; all derived quantities
    (positive roots, Weyl vectors, dual Coxeter number, lacity, Weyl
    group order) are computed, not table lookups.  The root data is
    immutable after construction and safe to share; the one mutable part
    is the cache of the W-invariant coefficient ring, which only grows.
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
        if len(cartan) != n:
            raise UsageError("rank does not match Cartan matrix size")
        self.symmetrizer: Tuple[Fraction, ...] = tuple(_symmetrizer(cartan))
        # quadratic_form[i][j] = (omega_i, omega_j) = (A^{-1})_{ij} d_j
        ainv = mat_inverse(cartan)
        self.quadratic_form: Tuple[Tuple[Fraction, ...], ...] = tuple(
            tuple(ainv[i][j] * self.symmetrizer[j] for j in range(n)) for i in range(n)
        )
        # the same form and A^{-T} as ints over one common denominator each,
        # so inner and in_root_lattice sum in ints and divide (or reduce) once
        self._form_den, self._form_scaled = _scaled_to_ints(self.quadratic_form)
        # simple root alpha_i has fundamental-weight coords = i-th row of A
        self.simple_roots: Tuple[Weight, ...] = self.cartan_matrix
        self._lattice_den, self._inv_cartan_t_scaled = _scaled_to_ints(
            mat_inverse([[cartan[j][i] for j in range(n)] for i in range(n)]))
        self._build_positive_roots()
        self.rho: Weight = (1,) * n
        # a coweight, so rational: (rho_check, alpha_i) = 1 for every i
        self.rho_check = tuple(int_or_frac(1 / d) for d in self.symmetrizer)
        self.highest_root: Weight = self.positive_roots[-1]
        theta_len2 = self.inner(self.highest_root, self.highest_root)
        if theta_len2 != 2:
            raise AssertionError("normalization broke: (theta,theta) != 2")
        self.dual_coxeter: int = int(1 + self.inner(self.rho, self.highest_root))
        self.lacity: int = int(Fraction(1) / min(self.symmetrizer))
        # <omega_j, alpha^vee> for each positive root alpha: the coroot
        # alpha^vee = 2 alpha / (alpha, alpha) in simple-coroot coordinates
        steps = [int(d * self.lacity) for d in self.symmetrizer]
        self._coroot_coords: Tuple[Tuple[int, ...], ...] = tuple(
            self._coroot(alpha, steps) for alpha in self.positive_roots)
        self.weyl_order: int = _weyl_order_from_heights(self._heights)
        # the W-invariant coefficient ring and its caches, made on first use
        # by qseries.make_context and freed with this root system
        self._invariant_context = None

    # -- construction helpers -------------------------------------------------

    def _build_positive_roots(self) -> None:
        n = self.rank
        # track both fundamental-weight coords and simple-root coords
        root_coords: Dict[Weight, Tuple[int, ...]] = {}
        by_height: List[List[Weight]] = [[]]
        for i, alpha in enumerate(self.simple_roots):
            rc = tuple(int(i == j) for j in range(n))
            root_coords[alpha] = rc
            by_height[0].append(alpha)
        h = 0
        while by_height[h]:
            nxt: List[Weight] = []
            for beta in by_height[h]:
                rc = root_coords[beta]
                for i, alpha in enumerate(self.simple_roots):
                    # root string: q = p - <beta, alpha_i^vee> copies upward
                    p = 0
                    down = tuple(b - a for b, a in zip(beta, alpha))
                    while down in root_coords:
                        p += 1
                        down = tuple(b - a for b, a in zip(down, alpha))
                    if p - beta[i] >= 1:
                        up = tuple(b + a for b, a in zip(beta, alpha))
                        if up not in root_coords:
                            root_coords[up] = tuple(
                                c + int(i == j) for j, c in enumerate(rc)
                            )
                            nxt.append(up)
            by_height.append(sorted(nxt))
            h += 1
        ordered: List[Weight] = []
        for level in by_height:
            ordered.extend(sorted(level))
        self.positive_roots: Tuple[Weight, ...] = tuple(ordered)
        self._root_coords = root_coords  # positive roots -> simple-root coords
        self._heights = [len(level) for level in by_height if level]

    def _coroot(self, alpha: Weight, steps: Sequence[int]) -> Tuple[int, ...]:
        """alpha^vee in simple-coroot coordinates, c_j d_j / d_alpha, in ints:
        steps[j] = lac d_j, and lac (alpha, alpha) = sum_i lac d_i c_i <alpha, alpha_i^vee>."""
        scaled = [c * s for c, s in zip(self._root_coords[alpha], steps)]
        len2 = sum(map(operator.mul, scaled, alpha))
        out = [divmod(2 * x, len2) for x in scaled]
        if any(r for _, r in out):
            raise AssertionError("a coroot came out non-integral")
        return tuple(k for k, _ in out)

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

    def dimension(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    # -- Weyl group machinery --------------------------------------------------

    def reflect(self, i: int, lam: Weight) -> Weight:
        """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
        c = lam[i]
        if c == 0:
            return lam
        alpha = self.simple_roots[i]
        return tuple([x - c * a for x, a in zip(lam, alpha)])

    def _reflect_to_dominant(self, lam: Weight) -> Weight:
        """The dominant weight in the W-orbit of lam, an int tuple of rank n (unchecked)."""
        roots = self.simple_roots
        while True:
            i = next((i for i, c in enumerate(lam) if c < 0), None)
            if i is None:
                return lam
            c = lam[i]
            lam = tuple([x - c * a for x, a in zip(lam, roots[i])])

    def weyl_orbit(self, lam: Weight) -> List[Weight]:
        """Full W-orbit of a dominant weight, each element exactly once, sorted.

        Walks the tree in which the parent of a non-dominant nu is s_j nu, j
        the first index with nu_j < 0: from mu it steps by s_i only when
        mu_i > 0 and s_i mu has no negative coordinate before index i.  Each
        element thus has exactly one parent and is built once, with no set
        of seen elements.
        """
        lam = self._dominant(lam, "weyl_orbit")
        roots = self.simple_roots
        orbit = [lam]
        todo = [lam]
        while todo:
            mu = todo.pop()
            for i, c in enumerate(mu):
                if c > 0:
                    nu = tuple([x - c * a for x, a in zip(mu, roots[i])])
                    if i == 0 or min(nu[:i]) >= 0:
                        orbit.append(nu)
                        todo.append(nu)
        orbit.sort()
        return orbit

    def weyl_orbit_signed(self, lam: Weight) -> List[Tuple[Weight, int]]:
        """Orbit of a regular dominant weight with det-parities epsilon(w).

        The parity of an orbit element is well defined exactly when the
        stabilizer is trivial, i.e. lam is regular; this is enforced.
        """
        lam = self._dominant(lam, "weyl_orbit_signed")
        if any(c == 0 for c in lam):
            raise UsageError("weyl_orbit_signed requires a regular weight")
        parity = {lam: 1}
        frontier = [lam]
        while frontier:
            nxt = []
            for mu in frontier:
                pm = parity[mu]
                for i in range(self.rank):
                    nu = self.reflect(i, mu)
                    if nu not in parity:
                        parity[nu] = -pm
                        nxt.append(nu)
            frontier = nxt
        return sorted(parity.items())

    def weyl_orbit_descending(self, mu: Weight, bound) -> Iterator[Tuple[Weight, object, int]]:
        """Orbit elements w(mu) of depth (mu - w(mu), rho) <= bound, as
        (w(mu), depth, eps(w)), for a regular dominant mu.

        Walks breadth-first down from mu.  From nu = w(mu) it steps by s_i
        only when c = <nu, alpha_i^vee> > 0, which lengthens w by one and
        adds c (alpha_i, rho) = c d_i > 0 to the depth.  Depth thus grows
        along every reduced word, so pruning a step past the bound loses no
        element within it, and each element of depth <= bound is reached.
        Depths are exact: ints for simply-laced types, else Fractions.
        """
        mu = self._dominant(mu, "weyl_orbit_descending")
        if any(c == 0 for c in mu):
            raise UsageError("weyl_orbit_descending requires a regular weight")
        # depths are kept scaled by the lacity, where every step is integral
        lac = self.lacity
        steps = [int(d * lac) for d in self.symmetrizer]
        limit = math.floor(frac(bound) * lac)
        roots = self.simple_roots
        level = {mu: 0} if limit >= 0 else {}
        sign = 1
        while level:
            nxt = {}
            for nu, depth in level.items():
                yield nu, depth if lac == 1 else Fraction(depth, lac), sign
                for i, c in enumerate(nu):
                    if c > 0:
                        d = depth + c * steps[i]
                        if d <= limit:
                            nxt[tuple(x - c * a for x, a in zip(nu, roots[i]))] = d
            level = nxt
            sign = -sign

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
        """All lam in Q^+ with (lam,lam)/2 <= norm_bound.

        Sorted by (lam,lam), then lexicographically by coordinates.
        """
        bound = frac(norm_bound)
        if bound < 0:
            raise UsageError("norm bound must be nonnegative")
        n = self.rank
        caps = [
            isqrt_rational_floor(2 * bound / self.quadratic_form[i][i]) for i in range(n)
        ]
        found: List[Tuple[Fraction, Weight]] = []
        coords = [0] * n

        def rec(i: int):
            if i == n:
                lam = tuple(coords)
                nn = self.norm2(lam)
                if nn <= 2 * bound and self.in_root_lattice(lam):
                    found.append((nn, lam))
                return
            for c in range(caps[i] + 1):
                coords[i] = c
                rec(i + 1)
            coords[i] = 0

        rec(0)
        found.sort()
        return [lam for _, lam in found]

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
        g = [1]
        for a in sorted(num.elements()):
            g.extend([0] * a)
            for k in range(len(g) - 1, a - 1, -1):
                g[k] -= g[k - a]
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


def alternating_sum(rs: RootSystem, mu: Weight, bound) -> Dict[Fraction, int]:
    """Depth histogram of the signed orbit of a regular dominant mu, truncated:
    depth (mu - w(mu), rho) -> sum of eps(w), for every depth <= bound.

    The truncated numerator of the Weyl-Kac character formula (Kac,
    Infinite-dimensional Lie algebras, ch. 10), sum_w eps(w) q^{depth}.
    Zero entries are dropped and keys come in increasing order.  Depth 0
    is w = e alone, so it maps to 1 whenever bound >= 0.
    """
    hist: Dict[object, int] = {}
    for _, depth, sign in rs.weyl_orbit_descending(mu, bound):
        hist[depth] = hist.get(depth, 0) + sign
    return {frac(d): c for d, c in sorted(hist.items()) if c}


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


def cartan_isomorphic(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Equality of Cartan matrices up to a simultaneous node permutation."""
    n = len(a)
    if len(b) != n:
        return False

    from itertools import permutations

    rows_a = sorted(tuple(sorted(row)) for row in a)
    rows_b = sorted(tuple(sorted(row)) for row in b)
    if rows_a != rows_b:
        return False
    for perm in permutations(range(n)):
        if all(a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return True
    return False
