"""Truncated formal q-series with group-ring coefficients, exactly.

A GradedCharacter is a finite map {rational exponent -> coefficient}
together with a truncation order N: the stored data determines the
series exactly for every exponent <= N.  There is one sparse coefficient
type, GroupRingElt, keyed by int tuples.  A coefficient context fixes the
ring a series lives in, and ``make_context`` decides which ring each mode
means: ``group_ring`` is the W-invariant part of the group ring in the
orbit-sum basis (a GroupRingElt keyed by dominant weights, c_mu standing
for c_mu m_mu), ``trivial`` is Z (e^mu -> 1, plain ints), and ``ray`` is
Laurent polynomials in one variable z (e^mu -> z^{(mu, xi)}), held as
GroupRingElts keyed by 1-tuples of z-exponents scaled by the common
denominator of the functional mu -> (mu, xi).  The group ring over
monomials, GroupRingContext, is the invariant ring's multiplier and the
tests' oracle.  Coefficients take Python's +, -, scalar *, divmod and
truth value, ints and GroupRingElts alike, so a context holds only what
differs per ring: the projection ``project`` of group-ring elements into
it, the product ``mul``, the sum of products ``dot`` and Adams operation
``frobenius``, the closed forms ``irreducible`` (ch L_lam) and ``theta``
(Theta_Q: ``RootSystem.theta_counts`` in ``trivial`` and ``ray``, with no
orbit walk), and the JSON of a coefficient and of the ring.
Every sum of coefficient products (a series product and the Euler series)
is one ``dot`` per output coefficient.  The base builds the Euler product
of a character, ``euler_series``, from these.  The invariant ring writes
its coefficients out expanded to monomials, so its JSON is the group
ring's, byte for byte.  The module stands on ``rootsys`` alone: every
``irreducible`` reads one of RootSystem's kernels (``weyl_dimension``,
``principal_specialization``, ``dominant_multiplicities``), and
``orbit_sums`` is the one spread of dominant coefficients over their Weyl
orbits; ``finite_char``, ch L_lam over monomials, spreads Freudenthal's, and
the contexts without a closed form project it.  A series has one product,
``mul``: a coefficient or a power of q enters it as a one-term series.

Exponents and truncation orders are exact rationals, held the way
``int_or_frac`` holds coefficients and coweights: an int when integral,
else a Fraction.  Every exponent of the simply-laced verifiers is an
integer, so their series do no Fraction arithmetic; conformal weights at
rational level and the norms of non-simply-laced types stay Fractions.  An
int and a Fraction of equal value compare and hash alike and ``rat_str``
writes them alike, so the choice never shows in JSON.  Nothing here ever
touches floating point.  Exponents may be negative (alternating Weyl
numerators dip below zero before their prefactor is absorbed); truncation
bookkeeping stays exact either way.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .linalg import frac, int_or_frac
from .rootsys import RootSystem, UsageError, Weight, weight


def rat_str(x) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coord_json(c):
    c = int_or_frac(c)
    return c if isinstance(c, int) else rat_str(c)


class GroupRingElt:
    """Element of the integral group ring of the weight lattice: sum c_mu e^mu.

    Stored sparsely as {int tuple -> coefficient}; zero coefficients are
    never kept.  The keys are int-tuple exponents: mu's fundamental-weight
    coordinates, the z-exponent (a 1-tuple) of a RayContext Laurent
    polynomial, or the (kappa_1, kappa_2) powers of a singular-vector
    constraint polynomial.  Coefficients are integers for honest characters, but exact rationals
    are tolerated in intermediate arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Weight, object]] = None):
        self.terms: Dict[Weight, object] = {}
        if terms:
            for w, c in terms.items():
                c = int_or_frac(c)
                if c != 0:
                    self.terms[weight(w)] = c

    @classmethod
    def monomial(cls, w: Weight, coeff=1) -> "GroupRingElt":
        return cls({tuple(w): coeff})

    @classmethod
    def one(cls, rank: int) -> "GroupRingElt":
        return cls({(0,) * rank: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, w: Weight):
        return self.terms.get(tuple(w), 0)

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        out = dict(self.terms)
        for w, c in other.terms.items():
            nc = out.get(w, 0) + c
            if nc == 0:
                out.pop(w, None)
            else:
                out[w] = nc
        res = GroupRingElt()
        res.terms = out
        return res

    def __neg__(self) -> "GroupRingElt":
        res = GroupRingElt()
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        return self + (-other)

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        """The sum over all pairs of terms; by a one-term c e^v it only shifts
        the other's keys by v and scales by c, in the same key order, no zero."""
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        res = GroupRingElt()
        if len(b) == 1:
            ((v, c),) = b.items()
            res.terms = {tuple(map(operator.add, w, v)): x * c for w, x in a.items()}
            return res
        out: Dict[Weight, object] = {}
        get = out.get
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = tuple(map(operator.add, w1, w2))
                out[w] = get(w, 0) + c1 * c2
        res.terms = {w: c for w, c in out.items() if c != 0}
        return res

    def scale(self, c) -> "GroupRingElt":
        c = int_or_frac(c)
        res = GroupRingElt()
        if c != 0:
            res.terms = {w: int_or_frac(v * c) for w, v in self.terms.items()}
        return res

    __rmul__ = scale

    def __divmod__(self, n) -> Tuple["GroupRingElt", "GroupRingElt"]:
        """(q, r) with each coefficient's divmod by the scalar n: self = n q + r."""
        q, r = GroupRingElt(), GroupRingElt()
        for w, c in self.terms.items():
            a, b = divmod(c, n)
            if a:
                q.terms[w] = a
            if b:
                r.terms[w] = b
        return q, r

    def frobenius(self, k: int) -> "GroupRingElt":
        """The Adams operation psi^k: e^mu -> e^{k mu}, for an integer k != 0."""
        res = GroupRingElt()
        res.terms = {tuple(k * c for c in w): v for w, v in self.terms.items()}
        return res

    def dimension(self):
        """Sum of coefficients (the dimension, for a character)."""
        return sum(self.terms.values())

    def items_sorted(self) -> List[Tuple[Weight, object]]:
        return sorted(self.terms.items())

    def to_json(self) -> list:
        return [
            {"weight": list(w), "coeff": _coord_json(v)}
            for w, v in self.items_sorted()
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"{c}*e{w}" for w, c in self.items_sorted()]
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# coefficient contexts


class _Context:
    """What the four coefficient rings share; each context class adds the rest.

    Every context is the image of the group ring, or of its W-invariant
    part, under a ring homomorphism, ``project``: the identity, the
    restriction of an invariant element to its dominant coefficients,
    e^mu -> 1, or e^mu -> z^{(mu, xi)}.  A coefficient is a GroupRingElt or,
    in TrivialContext, a plain number, and both take Python's +, -, scalar
    *, divmod and truth value, so a context holds only what differs per
    ring: the projection, the product ``mul``, the sum of products
    ``dot``, the Adams operation, the closed form ``irreducible``, the lattice
    theta series ``theta``, and the JSON of a coefficient and of the ring.  The unit
    and zero are project(e^0) and project(0), built once when the base's
    __init__ runs, so a subclass sets the fields its ``project`` reads
    first; they are shared, and no code changes a coefficient in place.  The context classes derive from
    this base only, never from one another: perfbench/tracer.py wraps
    ``mul`` on the three mode classes as its ``qseries.coeff_mul`` leaf, and
    a class that inherited another's wrapped ``mul`` would count each
    product twice.  That leaf sees only the products that still go through
    ``mul``: GroupRingContext's, whose ``dot`` is the base's sum of ``mul``,
    among them InvariantContext's, once per miss of its table of orbit-sum
    products m_mu m_nu; and direct ``mul`` calls (the Pochhammer oracles).
    The products that TrivialContext and RayContext sum inside their own
    ``dot`` do not reach it.
    """

    coefficients = "group_ring"  # the ring's name in JSON

    def __init__(self, rs: RootSystem):
        self.rs = rs
        # euler_series' coefficients per projected char; no coset side is cached
        self._euler: Dict[object, Tuple[list, list]] = {}
        self._one = self.project(GroupRingElt.one(rs.rank))
        self._czero = self.project(GroupRingElt())

    def one(self):
        return self._one

    def czero(self):
        return self._czero

    def mul(self, a, b):
        return a * b

    def dot(self, pairs):
        """sum_{(a, b) in pairs} a b, the ring's zero for no pairs."""
        return sum((self.mul(a, b) for a, b in pairs), self._czero)

    def frobenius(self, c, m: int):
        """The Adams operation psi^m, e^mu -> e^{m mu}: on dominant keys it
        sends m_mu to m_{m mu}, and on ray's 1-tuple keys z^k to z^{mk}."""
        return c.frobenius(m)

    def euler_series(self, char: GroupRingElt, depth: int) -> list:
        """Coefficients a_0, ..., a_depth of prod_{n>=1} prod_mu (1 - e^mu q^n)^{-c_mu}
        for char = sum_mu c_mu e^mu with integer c_mu, in this ring.

        Solves the log-derivative recurrence n a_n = sum_{k=1..n} b_k a_{n-k},
        b_k = sum_{d | k} d psi^{k/d}(char) (Kac, Infinite-dimensional Lie
        algebras, 10.10), with psi^m the ring's Adams operation; the division
        by n is exact, and a remainder raises AssertionError.  The
        coefficients are cached per projected char and extended on demand, so
        one series serves every depth and every side built in this context.
        """
        c = self.project(char)
        b, a = self._euler.setdefault(c, ([self._czero], [self._one]))
        for n in range(len(a), depth + 1):
            bn = self._czero
            for d in range(1, n + 1):
                if n % d == 0:
                    bn += d * self.frobenius(c, n // d)
            b.append(bn)
            acc = self.dot((b[k], a[n - k]) for k in range(1, n + 1))
            an, rem = divmod(acc, n)
            if rem:
                raise AssertionError(f"Euler series coefficient {acc} is not divisible by {n}")
            a.append(an)
        return a[: depth + 1]

    def irreducible(self, lam: Weight):
        """ch L_lam in this ring: the orbit sums of Freudenthal's dominant
        multiplicities, projected.  TrivialContext and RayContext at rho_check
        override it with closed forms, InvariantContext with the dominant
        multiplicities alone."""
        return self.project(finite_char(self.rs, lam))

    def describe(self) -> dict:
        return {"coefficients": self.coefficients, "type": self.rs.type_label}

    def matches(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rs.same_as(other.rs)
            and self.describe() == other.describe()
        )


class GroupRingContext(_Context):
    """Coefficients are GroupRingElt over a fixed root system's weight lattice.

    InvariantContext multiplies through it, and the tests build their
    monomial oracles in it; ``make_context`` never returns it.
    """

    def coeff_json(self, c):
        return c.to_json()

    def project(self, gre: GroupRingElt):
        return gre

    def theta(self, order) -> Dict[Exponent, GroupRingElt]:
        """Theta_Q over monomials: the W-orbit of each dominant lam in Q walked."""
        return {e: orbit_sums(self.rs, dict.fromkeys(lams, 1))
                for e, lams in _theta_shells(self.rs, order).items()}


class InvariantContext(_Context):
    """The W-invariant part of the group ring, in the orbit-sum basis.

    A coefficient is a GroupRingElt keyed by dominant weights only and
    stands for sum_mu c_mu m_mu, m_mu = sum_{beta in W mu} e^beta the orbit
    sum, the way LiE stores characters (van Leeuwen, Cohen, Lisser, LiE,
    1992).  Addition, scaling and equality are GroupRingElt's and m_0 is
    GroupRingElt.one; ``mul`` is the orbit product, and ``coeff_json``
    expands to monomials, so JSON and mismatch reports are the group
    ring's byte for byte.  Every coefficient of the coset identity (ch
    L_lam, 1/D, Theta_Q, S_kappa, both sides) is W-invariant and so lives
    here, one integer per dominant weight instead of one per weight.

    Each RootSystem holds one instance, ``make_context(rs, "group_ring")``,
    whose caches every series built on rs shares: the orbit sums m_mu over
    monomials, the products m_mu m_nu per pair (mu, nu), the Euler series
    and the coset sides.  The dominant conjugates and |W_x| come from rs's
    own table (``RootSystem._conjugate``), which Freudenthal shares.
    """

    def __init__(self, rs: RootSystem):
        self._zero: Weight = (0,) * rs.rank
        self._monomials = GroupRingContext(rs)
        self._orbits: Dict[Weight, GroupRingElt] = {}
        self._pairs: Dict[Tuple[Weight, Weight], Tuple[tuple, tuple]] = {}
        super().__init__(rs)

    def _orbit(self, mu: Weight) -> GroupRingElt:
        """m_mu over monomials, built once per mu."""
        orbit = self._orbits.get(mu)
        if orbit is None:
            orbit = self._orbits[mu] = GroupRingElt()
            orbit.terms = dict.fromkeys(self.rs.weyl_orbit(mu), 1)
        return orbit

    def _pair(self, key: Tuple[Weight, Weight]) -> Tuple[tuple, tuple]:
        """m_mu m_nu = sum_d m m_d, as aligned tuples of the d and of the m:
        (1/|W_nu|) sum_{beta in W mu} |W_{beta+nu}| m_{dom(beta+nu)}, by
        sum_{w in W} e^{w x} = |W_x| m_{dom x}, W mu the smaller orbit (key
        order on a tie).  The pass that divides by |W_nu| raises on a remainder."""
        table, conjugate = self.rs._conjugates, self.rs._conjugate
        mu, nu = key
        (_, s), (_, k) = conjugate(mu), conjugate(nu)
        if s < k:
            mu, nu, k = nu, mu, s
        shift = GroupRingElt()
        shift.terms = {nu: 1}
        acc: Dict[Weight, int] = {}
        get = acc.get
        for x in self._monomials.mul(self._orbit(mu), shift).terms:
            d, s = table.get(x) or conjugate(x)
            acc[d] = get(d, 0) + s
        row = []
        for s in acc.values():
            m, r = divmod(s, k)
            if r:
                raise AssertionError(f"orbit-sum product {acc} is not divisible by |W_nu| = {k}")
            row.append(m)
        return tuple(acc), tuple(row)

    def mul(self, a, b):
        """The orbit product: ``dot`` of one pair."""
        return self.dot(((a, b),))

    def dot(self, pairs):
        """sum_{(a, b) in pairs} sum_{mu, nu} a_mu b_nu m_mu m_nu: the weights
        a_mu b_nu of all the pairs are summed first, in one dict of nu per mu;
        then each unordered pair adds its two weights and, unless they cancel,
        walks its row once.  A unit multiple c m_0 only scales its partner."""
        zero = self._zero
        weights: Dict[Weight, Dict[Weight, object]] = {}
        out: Dict[Weight, object] = {}
        get = out.get
        for a, b in pairs:
            at, bt = a.terms, b.terms
            if len(at) == 1 and zero in at:
                at, bt = bt, at
            if len(bt) == 1 and zero in bt:
                c = bt[zero]
                for mu, v in at.items():
                    out[mu] = get(mu, 0) + c * v
                continue
            for mu, c1 in at.items():
                row = weights.setdefault(mu, {})
                rget = row.get
                for nu, c2 in bt.items():
                    row[nu] = rget(nu, 0) + c1 * c2
        table, pair = self._pairs, self._pair
        for mu, row in weights.items():
            for nu, c in row.items():
                if nu != mu and mu in weights.get(nu, ()):
                    if nu < mu:
                        continue  # added in at (nu, mu)
                    c += weights[nu][mu]
                if c:
                    key = (mu, nu) if mu <= nu else (nu, mu)
                    for d, m in zip(*(table.get(key) or table.setdefault(key, pair(key)))):
                        out[d] = get(d, 0) + c * m
        res = GroupRingElt()
        res.terms = {d: c for d, c in out.items() if c != 0}
        return res

    def expand(self, c: GroupRingElt) -> GroupRingElt:
        """c over monomials: sum_mu c_mu sum_{beta in W mu} e^beta."""
        res = GroupRingElt()
        res.terms = {beta: v for mu, v in c.terms.items() for beta in self._orbit(mu).terms}
        return res

    def project(self, gre: GroupRingElt):
        """The dominant coefficients of a W-invariant gre; UsageError otherwise."""
        dom = {w: c for w, c in gre.terms.items() if min(w) >= 0}
        res = GroupRingElt()
        res.terms = dom
        conjugate, order = self.rs._conjugate, self.rs.weyl_order
        if sum(order // conjugate(mu)[1] for mu in dom) != len(gre.terms) or any(
                dom.get(conjugate(w)[0]) != c for w, c in gre.terms.items()):
            raise UsageError("a W-invariant coefficient ring got a non-invariant element")
        return res

    def coeff_json(self, c):
        return self.expand(c).to_json()

    def irreducible(self, lam: Weight):
        """ch L_lam: Freudenthal's dominant multiplicities themselves."""
        ch = GroupRingElt()
        ch.terms = self.rs.dominant_multiplicities(lam)
        return ch

    def theta(self, order) -> Dict[Exponent, GroupRingElt]:
        """Theta_Q in the orbit-sum basis: one key m_lam per dominant lam in Q."""
        return {e: GroupRingElt(dict.fromkeys(lams, 1))
                for e, lams in _theta_shells(self.rs, order).items()}


class TrivialContext(_Context):
    """Coefficients are plain integers: e^mu -> 1."""

    coefficients = "trivial"

    def dot(self, pairs):
        return sum(a * b for a, b in pairs)

    def frobenius(self, c, m: int):
        return c

    def coeff_json(self, c):
        return _coord_json(c)

    def project(self, gre: GroupRingElt):
        return int_or_frac(sum(gre.terms.values()))

    def irreducible(self, lam: Weight):
        """dim L_lam, by the Weyl dimension formula."""
        return self.rs.weyl_dimension(lam)

    def theta(self, order) -> Dict[Exponent, int]:
        """Theta_Q at e^lam -> 1: ``RootSystem.theta_counts`` with t = 0."""
        return {e: m for (e, _), m in self.rs.theta_counts(order, (0,) * self.rs.rank).items()}


class RayContext(_Context):
    """Coefficients are Laurent polynomials: e^mu -> z^{(mu, xi)} for a coweight xi.

    A Laurent polynomial is a GroupRingElt keyed by 1-tuples (den (mu, xi),):
    coords[i] = den (omega_i, xi) is an integer functional, den the least
    common denominator of the (omega_i, xi), so projecting a weight is one
    integer dot product and z-exponents are written as k / den only in JSON.
    """

    coefficients = "ray"

    def __init__(self, rs: RootSystem, xi: Weight):
        self.xi = tuple(int_or_frac(c) for c in xi)
        pairings = [rs.inner(tuple(int(i == j) for j in range(rs.rank)), self.xi)
                    for i in range(rs.rank)]
        self.den = math.lcm(*(p.denominator for p in pairings))
        self.coords = tuple(int(p * self.den) for p in pairings)
        self._principal = self.xi == rs.rho_check
        super().__init__(rs)

    def coeff_json(self, c):
        return [
            {"zexp": rat_str(Fraction(k, self.den)), "coeff": _coord_json(v)}
            for (k,), v in c.items_sorted()
        ]

    def dot(self, pairs):
        """sum_{(a, b) in pairs} a b, every z-exponent product added into one dict."""
        out: Dict[int, object] = {}
        get = out.get
        for a, b in pairs:
            bt = b.terms.items()
            for (k1,), c1 in a.terms.items():
                for (k2,), c2 in bt:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        res = GroupRingElt()
        res.terms = {(k,): c for k, c in out.items() if c != 0}
        return res

    def project(self, gre: GroupRingElt):
        coords = self.coords
        out: Dict[Weight, object] = {}
        get = out.get
        for w, v in gre.terms.items():
            k = (sum(map(operator.mul, coords, w)),)
            out[k] = get(k, 0) + v
        res = GroupRingElt()
        res.terms = {k: v for k, v in out.items() if v != 0}
        return res

    def irreducible(self, lam: Weight):
        """ch L_lam at e^mu -> z^{(mu, xi)}: along xi = rho_check the q-dimension
        z^{-(lam, rho_check)} times ``RootSystem.principal_specialization``,
        along any other xi Freudenthal's character, projected."""
        if not self._principal:
            return super().irreducible(lam)
        poly = self.rs.principal_specialization(lam)
        low, den = -sum(map(operator.mul, self.coords, weight(lam))), self.den
        res = GroupRingElt()
        res.terms = {(low + den * k,): c for k, c in enumerate(poly) if c}
        return res

    def theta(self, order) -> Dict[Exponent, GroupRingElt]:
        """Theta_Q at e^lam -> z^{(lam, xi)}: ``RootSystem.theta_counts`` with
        t_j = den (alpha_j, xi), alpha_j's fundamental-weight coordinates dotted
        with ``coords``."""
        t = [sum(map(operator.mul, alpha, self.coords)) for alpha in self.rs.simple_roots]
        out: Dict[Exponent, GroupRingElt] = {}
        for (e, k), m in self.rs.theta_counts(order, t).items():
            c = out.get(e)
            if c is None:
                c = out[e] = GroupRingElt()
            c.terms[(k,)] = m
        return out

    def describe(self) -> dict:
        return {**super().describe(), "xi": [_coord_json(c) for c in self.xi]}


def orbit_sums(rs: RootSystem, coeffs: Dict[Weight, object]) -> GroupRingElt:
    """sum_mu c_mu m_mu over monomials for {dominant mu: c_mu}: each W-orbit walked."""
    res = GroupRingElt()
    res.terms = {nu: c for mu, c in coeffs.items() for nu in rs.weyl_orbit(mu)}
    return res


def finite_char(rs: RootSystem, lam: Weight) -> GroupRingElt:
    """Irreducible character of highest weight lam: Freudenthal's dominant
    multiplicities (``RootSystem.dominant_multiplicities``) spread over their
    Weyl orbits."""
    return orbit_sums(rs, rs.dominant_multiplicities(lam))


def _theta_shells(rs: RootSystem, order) -> Dict[Exponent, List[Weight]]:
    """The dominant lam in Q with (lam, lam)/2 <= order, grouped by (lam, lam)/2:
    the two group rings' Theta_Q, one orbit per lam."""
    shells: Dict[Exponent, List[Weight]] = {}
    for lam in rs.dominant_weights_in_root_lattice(order):
        shells.setdefault(int_or_frac(rs.norm2(lam) / 2), []).append(lam)
    return shells


def make_context(rs: RootSystem, mode: str = "group_ring", xi: Optional[Weight] = None):
    """The coefficient ring of ``mode`` on rs; a coweight xi applies to ``ray`` only.

    rs holds one context per mode and (for ``ray``) coordinate-wise equal xi,
    made on first use, so every series built in a ring on rs shares its
    caches (the Euler series E of ``euler_series``) and they are freed with
    rs.  A shared E cannot turn a failure into a pass: E = 1 + O(q) is
    invertible, so S E = T E holds exactly when S = T, and a wrong E could
    only misreport the mismatching coefficients, not hide a mismatch.
    ``levels.verify_gko`` shares a coset side between kappas only in a call.
    """
    if xi is not None and mode != "ray":
        raise UsageError(f"a coweight xi applies to mode 'ray' only, not {mode!r}")
    if mode == "ray":
        xi = tuple(int_or_frac(c) for c in (rs.rho_check if xi is None else xi))
    key = (mode, xi)
    ctx = rs._contexts.get(key)
    if ctx is None:
        if mode == "group_ring":
            ctx = InvariantContext(rs)
        elif mode == "trivial":
            ctx = TrivialContext(rs)
        elif mode == "ray":
            ctx = RayContext(rs, xi)
        else:
            raise UsageError(f"unknown coefficient mode {mode!r}")
        rs._contexts[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# the truncated series ring


Exponent = Union[int, Fraction]  # an int when integral (``int_or_frac``)


class GradedCharacter:
    """Truncated series sum_d c_d q^d, exact for all exponents <= order.

    The order and every exponent are stored by ``int_or_frac``: an int when
    integral, else a Fraction."""

    __slots__ = ("context", "order", "terms")

    def __init__(self, context, order, terms: Optional[Dict[Exponent, object]] = None):
        self.context = context
        self.order: Exponent = int_or_frac(order)
        self.terms: Dict[Exponent, object] = {}
        if terms:
            for e, c in terms.items():
                e = int_or_frac(e)
                if e <= self.order and c:
                    self.terms[e] = c

    # -- inspection ----------------------------------------------------------

    def coeff(self, e):
        e = int_or_frac(e)
        if e > self.order:
            raise UsageError(f"exponent {e} beyond truncation order {self.order}")
        return self.terms.get(e, self.context.czero())

    def lower_bound(self) -> Exponent:
        """Largest L such that the series is known to vanish below L."""
        return min(self.terms) if self.terms else self.order

    # -- ring operations -------------------------------------------------------

    def _require_context(self, other: "GradedCharacter") -> None:
        if not self.context.matches(other.context):
            raise UsageError("mismatched series contexts")

    def add(self, other: "GradedCharacter") -> "GradedCharacter":
        self._require_context(other)
        order = min(self.order, other.order)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return GradedCharacter(self.context, order, out)  # which drops the zeros

    def mul(self, other: "GradedCharacter") -> "GradedCharacter":
        # completeness: coefficient at d needs f below d - N_g and g below
        # d - N_f to be known zero, so the product is exact up to
        # min(N_f + L_g, N_g + L_f); this reduces to min(N_f, N_g) for the
        # usual series supported in degrees >= 0.
        self._require_context(other)
        ctx = self.context
        lf, lg = min(self.lower_bound(), self.order), min(other.lower_bound(), other.order)
        order = min(self.order + lg, other.order + lf)
        pairs: Dict[Exponent, list] = {}
        ascending = sorted(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in ascending:
                e = e1 + e2
                if e > order:
                    break
                pairs.setdefault(e, []).append((c1, c2))
        return GradedCharacter(ctx, order, {e: ctx.dot(p) for e, p in pairs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedCharacter)
            and self.context.matches(other.context)
            and self.order == other.order
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        bits = [f"({c!r}) q^{e}" for e, c in sorted(self.terms.items())[:6]]
        more = " + ..." if len(self.terms) > 6 else ""
        return f"<series O(q^{self.order}): " + " + ".join(bits) + more + ">"

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "context": self.context.describe(),
            "truncation_order": rat_str(self.order),
            "series": [
                {"exponent": rat_str(e), "terms": self.context.coeff_json(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    def canonical_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# constructors and comparison


def series_one(ctx, order) -> GradedCharacter:
    order = int_or_frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    return GradedCharacter(ctx, order, {0: ctx.one()})


def series_zero(ctx, order) -> GradedCharacter:
    return GradedCharacter(ctx, order, {})


def pochhammer_inverse(ctx, mu: Weight, s, order) -> GradedCharacter:
    """Truncated prod_{p>=0} (1 - e^mu q^{s+p})^{-1}.

    Requires s > 0 so every factor is 1 + (higher order); mu = 0 with
    s = 1 gives the partition generating function.
    """
    s = int_or_frac(s)
    order = int_or_frac(order)
    if s <= 0:
        raise UsageError("pochhammer_inverse requires shift s > 0")
    if order < 0:
        raise UsageError("order must be nonnegative")
    unit = ctx.project(GroupRingElt.monomial(mu))
    result = series_one(ctx, order)
    step = s
    while step <= order:
        # geometric series for (1 - e^mu q^step)^{-1}
        geom: Dict[Exponent, object] = {}
        e = 0
        c = ctx.one()
        while e <= order:
            geom[e] = c
            e += step
            c = ctx.mul(c, unit)
        result = result.mul(GradedCharacter(ctx, order, geom))
        step += 1
    return result


def pochhammer_finite(ctx, mu: Weight, s, order) -> GradedCharacter:
    """The finite product of (1 - e^mu q^{s+p}) factors with s+p <= order."""
    s = int_or_frac(s)
    order = int_or_frac(order)
    if s <= 0:
        raise UsageError("pochhammer requires shift s > 0")
    unit = ctx.project(GroupRingElt.monomial(mu))
    result = series_one(ctx, order)
    step = s
    while step <= order:
        factor = GradedCharacter(ctx, order, {0: ctx.one(), step: -unit})
        result = result.mul(factor)
        step += 1
    return result


def series_equal(f: GradedCharacter, g: GradedCharacter):
    """Compare two series up to the smaller truncation order.

    Returns None when equal, else the smallest mismatching exponent
    together with both coefficients' canonical JSON.  Coefficients are
    compared with ``!=``: no series or GroupRingElt stores a zero, and an
    int equals a Fraction exactly when they are the same number.
    """
    f._require_context(g)
    bound = min(f.order, g.order)
    ctx = f.context
    exps = sorted(
        {e for e in f.terms if e <= bound} | {e for e in g.terms if e <= bound}
    )
    for e in exps:
        cf = f.terms.get(e, ctx.czero())
        cg = g.terms.get(e, ctx.czero())
        if cf != cg:
            return e, ctx.coeff_json(cf), ctx.coeff_json(cg)
    return None
