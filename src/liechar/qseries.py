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
tests' oracle.  Each context maps group-ring elements into its ring with
``project``, gives the irreducible characters ch L_lam in it with
``irreducible``, the orbit sums m_lam with ``orbit_sum``, and the Euler
product of a character with ``euler_series``.  The invariant ring writes
its coefficients out expanded to monomials, so its JSON is the group
ring's, byte for byte.

Exponents are exact Fractions; conformal weights at rational level are
rational, so nothing here ever touches floating point.  Exponents may be
negative (alternating Weyl numerators dip below zero before their
prefactor is absorbed); truncation bookkeeping stays exact either way.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import frac, int_or_frac
from .rootsys import RootSystem, UsageError, Weight, weight


def rat_str(x) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coord_json(c):
    return c if isinstance(c, int) else rat_str(c)


class GroupRingElt:
    """Element of the integral group ring of the weight lattice: sum c_mu e^mu.

    Stored sparsely as {int tuple -> coefficient}, the tuple holding mu's
    fundamental-weight coordinates; zero coefficients are never kept.
    RayContext's Laurent polynomials are GroupRingElts keyed by 1-tuples.
    Coefficients are integers for honest characters, but exact rationals
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

    def is_zero(self) -> bool:
        return not self.terms

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
        out: Dict[Weight, object] = {}
        get = out.get
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(map(operator.add, w1, w2))
                out[w] = get(w, 0) + c1 * c2
        res = GroupRingElt()
        res.terms = {w: c for w, c in out.items() if c != 0}
        return res

    def scale(self, c) -> "GroupRingElt":
        c = int_or_frac(c)
        res = GroupRingElt()
        if c != 0:
            res.terms = {w: int_or_frac(v * c) for w, v in self.terms.items()}
        return res

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
    e^mu -> 1, or e^mu -> z^{(mu, xi)}.  The base holds the ring operations
    of GroupRingElt coefficients, of rank rs.rank, and the one Euler series
    routine built on them; RayContext's unit has rank 1, and
    TrivialContext's coefficients are plain numbers.  The
    context classes derive from this base only, never from one another:
    perfbench/tracer.py wraps ``mul`` on the three mode classes, and a class
    that inherited another's wrapped ``mul`` would count each product twice.
    (InvariantContext's products reach that wrapper through the
    GroupRingContext they expand into.)
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._euler: Dict[object, Tuple[list, list]] = {}

    def one(self):
        return GroupRingElt.one(self.rs.rank)

    def czero(self):
        return GroupRingElt()

    def is_zero(self, c) -> bool:
        return c.is_zero()

    def scale(self, a, c):
        return a.scale(c)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def frobenius(self, c, m: int):
        """The Adams operation psi^m, e^mu -> e^{m mu}: on dominant keys it
        sends m_mu to m_{m mu}, and on ray's 1-tuple keys z^k to z^{mk}."""
        return c.frobenius(m)

    def divide_exactly(self, c, n: int):
        """c / n, which must leave no remainder in any coefficient."""
        res = GroupRingElt()
        res.terms = {w: _divide_exactly(v, n) for w, v in c.terms.items()}
        return res

    def euler_series(self, char: GroupRingElt, depth: int) -> list:
        """Coefficients a_0, ..., a_depth of prod_{n>=1} prod_mu (1 - e^mu q^n)^{-c_mu}
        for char = sum_mu c_mu e^mu with integer c_mu, in this ring.

        Solves the log-derivative recurrence n a_n = sum_{k=1..n} b_k a_{n-k},
        b_k = sum_{d | k} d psi^{k/d}(char) (Kac, Infinite-dimensional Lie
        algebras, 10.10), with psi^m the ring's Adams operation.  The
        coefficients are cached per projected char and extended on demand, so
        one series serves every depth and every side built in this context.
        """
        c = self.project(char)
        b, a = self._euler.setdefault(c, ([self.czero()], [self.one()]))
        for n in range(len(a), depth + 1):
            bn = self.czero()
            for d in range(1, n + 1):
                if n % d == 0:
                    bn = self.add(bn, self.scale(self.frobenius(c, n // d), d))
            b.append(bn)
            acc = self.czero()
            for k in range(1, n + 1):
                acc = self.add(acc, self.mul(b[k], a[n - k]))
            a.append(self.divide_exactly(acc, n))
        return a[: depth + 1]

    def irreducible(self, lam: Weight):
        """ch L_lam in this ring: Freudenthal's full character, projected.
        TrivialContext and RayContext at rho_check override it with closed
        forms, InvariantContext with the dominant multiplicities alone."""
        from .characters import finite_char  # characters imports this module

        return self.project(finite_char(self.rs, lam).multiplicities)

    def orbit_sum(self, lams):
        """The image of sum_{lam in lams} m_lam for distinct dominant lams,
        m_lam = sum_{beta in W lam} e^beta: the orbits walked and projected
        once.  TrivialContext and InvariantContext override it without walks."""
        gre = GroupRingElt()
        gre.terms = {nu: 1 for lam in lams for nu in self.rs.weyl_orbit(lam)}
        return self.project(gre)

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

    def describe(self) -> dict:
        return {"coefficients": "group_ring", "type": self.rs.type_label}


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
    whose caches every series built on rs shares: orbit lists, |W_x| per
    zero pattern, dominant conjugates, ch L_lam per lam and the Euler series.
    """

    def __init__(self, rs: RootSystem):
        super().__init__(rs)
        self._zero: Weight = (0,) * rs.rank
        self._monomials = GroupRingContext(rs)
        self._orbits: Dict[Weight, List[Weight]] = {}
        self._stabilizers: Dict[Tuple[bool, ...], int] = {}
        self._conjugates: Dict[Weight, Tuple[Weight, int]] = {}
        self._irreducibles: Dict[Weight, GroupRingElt] = {}

    def _orbit(self, mu: Weight) -> List[Weight]:
        orbit = self._orbits.get(mu)
        if orbit is None:
            orbit = self._orbits[mu] = self.rs.weyl_orbit(mu)
        return orbit

    def _stabilizer(self, mu: Weight) -> int:
        """|W_mu| for a dominant mu; it depends only on mu's zero pattern."""
        key = tuple(map(operator.not_, mu))  # the zero pattern
        k = self._stabilizers.get(key)
        if k is None:
            k = self._stabilizers[key] = self.rs.stabilizer_order(mu)
        return k

    def _conjugate(self, x: Weight) -> Tuple[Weight, int]:
        """(dom x, |W_x|) for any weight x, memoized; |W_x| = |W_{dom x}|."""
        d = self.rs._reflect_to_dominant(x)
        self._conjugates[x] = hit = (d, self._stabilizer(d))
        return hit

    def _orbit_size(self, c: GroupRingElt) -> int:
        order = self.rs.weyl_order
        return sum(order // self._stabilizer(mu) for mu in c.terms)

    def mul(self, a, b):
        """The orbit product m_mu m_nu = (1/|W_nu|) sum_{beta in W mu} |W_{beta+nu}| m_{dom(beta+nu)},
        from sum_{w in W} e^{w x} = |W_x| m_{dom x}.

        Only the orbits of the factor with the smaller total orbit size are
        expanded; the group ring multiplies that expansion by the other
        factor's terms of one stabilizer class |W_nu| at a time, and each
        product is folded onto dominant conjugates and divided by |W_nu|
        exactly: a nonzero remainder raises.
        """
        zero = self._zero
        if len(a.terms) == 1 and zero in a.terms:
            return b.scale(a.terms[zero])
        if len(b.terms) == 1 and zero in b.terms:
            return a.scale(b.terms[zero])
        if self._orbit_size(a) > self._orbit_size(b):
            a, b = b, a
        classes: Dict[int, GroupRingElt] = {}
        for nu, c in b.terms.items():
            classes.setdefault(self._stabilizer(nu), GroupRingElt()).terms[nu] = c
        expanded = self.expand(a)
        seen, conjugate = self._conjugates, self._conjugate
        out: Dict[Weight, object] = {}
        for k, part in classes.items():
            acc: Dict[Weight, object] = {}
            get = acc.get
            for x, c in self._monomials.mul(expanded, part).terms.items():
                d, s = seen.get(x) or conjugate(x)
                acc[d] = get(d, 0) + c * s
            for d, c in acc.items():
                out[d] = out.get(d, 0) + _divide_exactly(c, k)
        res = GroupRingElt()
        res.terms = {d: c for d, c in out.items() if c != 0}
        return res

    def expand(self, c: GroupRingElt) -> GroupRingElt:
        """c over monomials: sum_mu c_mu sum_{beta in W mu} e^beta."""
        res = GroupRingElt()
        res.terms = {beta: v for mu, v in c.terms.items() for beta in self._orbit(mu)}
        return res

    def project(self, gre: GroupRingElt):
        """The dominant coefficients of a W-invariant gre; UsageError otherwise."""
        dom = {w: c for w, c in gre.terms.items() if min(w) >= 0}
        res = GroupRingElt()
        res.terms = dom
        to_dominant = self.rs._reflect_to_dominant
        if self._orbit_size(res) != len(gre.terms) or any(
                dom.get(to_dominant(w)) != c for w, c in gre.terms.items()):
            raise UsageError("a W-invariant coefficient ring got a non-invariant element")
        return res

    def coeff_json(self, c):
        return self.expand(c).to_json()

    def irreducible(self, lam: Weight):
        """ch L_lam: Freudenthal's dominant multiplicities, built once per lam."""
        lam = weight(lam)
        ch = self._irreducibles.get(lam)
        if ch is None:
            from .characters import dominant_multiplicities  # characters imports this module

            ch = self._irreducibles[lam] = GroupRingElt()
            ch.terms = dominant_multiplicities(self.rs, lam)
        return ch

    def orbit_sum(self, lams):
        """sum_{lam in lams} m_lam is the element keyed by the lams."""
        return GroupRingElt(dict.fromkeys(lams, 1))

    def describe(self) -> dict:
        return {"coefficients": "group_ring", "type": self.rs.type_label}


def _divide_exactly(c: int, k: int) -> int:
    """c / k for integers, which must divide."""
    q, r = divmod(c, k)
    if r:
        raise AssertionError(f"coefficient {c} is not divisible by {k}")
    return q


class TrivialContext(_Context):
    """Coefficients are plain integers: e^mu -> 1."""

    def one(self):
        return 1

    def czero(self):
        return 0

    def is_zero(self, c) -> bool:
        return c == 0

    def scale(self, a, c):
        return int_or_frac(a * c)

    def frobenius(self, c, m: int):
        return c

    def divide_exactly(self, c, n: int):
        return _divide_exactly(c, n)

    def coeff_json(self, c):
        return _coord_json(c)

    def project(self, gre: GroupRingElt):
        return int_or_frac(sum(gre.terms.values()))

    def irreducible(self, lam: Weight):
        """dim L_lam, by the Weyl dimension formula."""
        return self.rs.weyl_dimension(lam)

    def orbit_sum(self, lams):
        """sum of the orbit sizes |W| / |W_lam|."""
        rs = self.rs
        return sum(rs.weyl_order // rs.stabilizer_order(lam) for lam in lams)

    def describe(self) -> dict:
        return {"coefficients": "trivial", "type": self.rs.type_label}


class RayContext(_Context):
    """Coefficients are Laurent polynomials: e^mu -> z^{(mu, xi)} for a coweight xi.

    A Laurent polynomial is a GroupRingElt keyed by 1-tuples (den (mu, xi),):
    coords[i] = den (omega_i, xi) is an integer functional, den the least
    common denominator of the (omega_i, xi), so projecting a weight is one
    integer dot product and z-exponents are written as k / den only in JSON.
    """

    def __init__(self, rs: RootSystem, xi: Weight):
        super().__init__(rs)
        self.xi = tuple(int_or_frac(c) for c in xi)
        pairings = [rs.inner(tuple(int(i == j) for j in range(rs.rank)), self.xi)
                    for i in range(rs.rank)]
        self.den = math.lcm(*(p.denominator for p in pairings))
        self.coords = tuple(int(p * self.den) for p in pairings)
        self._principal = self.xi == rs.rho_check

    def one(self):
        return GroupRingElt.one(1)

    def coeff_json(self, c):
        return [
            {"zexp": rat_str(Fraction(k, self.den)), "coeff": _coord_json(v)}
            for (k,), v in c.items_sorted()
        ]

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

    def describe(self) -> dict:
        return {
            "coefficients": "ray",
            "type": self.rs.type_label,
            "xi": [_coord_json(c) for c in self.xi],
        }


def make_context(rs: RootSystem, mode: str = "group_ring", xi: Optional[Weight] = None):
    """The coefficient ring of ``mode`` on rs; a coweight xi applies to ``ray`` only.

    rs holds one context per mode and (for ``ray``) coordinate-wise equal xi,
    made on first use, so every series built in a ring on rs shares its
    caches (among them ch L_lam in ``group_ring`` and the Euler series E of
    ``euler_series``) and they are freed with rs.  A shared E cannot turn a
    failure into a pass: E = 1 + O(q) is invertible, so S E = T E holds
    exactly when S = T, and a wrong E could only misreport the mismatching
    coefficients, not hide a mismatch.
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


class GradedCharacter:
    """Truncated series sum_d c_d q^d, exact for all exponents <= order."""

    __slots__ = ("context", "order", "terms")

    def __init__(self, context, order, terms: Optional[Dict[Fraction, object]] = None):
        self.context = context
        self.order: Fraction = frac(order)
        self.terms: Dict[Fraction, object] = {}
        if terms:
            for e, c in terms.items():
                e = frac(e)
                if e <= self.order and not context.is_zero(c):
                    self.terms[e] = c

    # -- inspection ----------------------------------------------------------

    def coeff(self, e):
        e = frac(e)
        if e > self.order:
            raise UsageError(f"exponent {e} beyond truncation order {self.order}")
        return self.terms.get(e, self.context.czero())

    def lower_bound(self) -> Fraction:
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
        ctx = self.context
        for e, c in other.terms.items():
            nc = ctx.add(out.get(e, ctx.czero()), c) if e in out else c
            if ctx.is_zero(nc):
                out.pop(e, None)
            else:
                out[e] = nc
        return GradedCharacter(ctx, order, out)

    def mul(self, other: "GradedCharacter") -> "GradedCharacter":
        # completeness: coefficient at d needs f below d - N_g and g below
        # d - N_f to be known zero, so the product is exact up to
        # min(N_f + L_g, N_g + L_f); this reduces to min(N_f, N_g) for the
        # usual series supported in degrees >= 0.
        self._require_context(other)
        ctx = self.context
        lf, lg = min(self.lower_bound(), self.order), min(other.lower_bound(), other.order)
        order = min(self.order + lg, other.order + lf)
        out: Dict[Fraction, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e > order:
                    continue
                p = ctx.mul(c1, c2)
                if e in out:
                    nc = ctx.add(out[e], p)
                    if ctx.is_zero(nc):
                        del out[e]
                    else:
                        out[e] = nc
                elif not ctx.is_zero(p):
                    out[e] = p
        return GradedCharacter(ctx, order, out)

    def times(self, c) -> "GradedCharacter":
        """c times each coefficient, for a coefficient c of the series' ring
        (order and lower bound unchanged)."""
        ctx = self.context
        return GradedCharacter(ctx, self.order, {e: ctx.mul(c, v) for e, v in self.terms.items()})

    def shift(self, e0) -> "GradedCharacter":
        """Multiply by q^{e0} (exact; order shifts along)."""
        e0 = frac(e0)
        return GradedCharacter(
            self.context, self.order + e0, {e + e0: c for e, c in self.terms.items()}
        )

    def truncate(self, order) -> "GradedCharacter":
        order = frac(order)
        if order > self.order:
            raise UsageError("cannot extend a truncated series")
        return GradedCharacter(
            self.context, order, {e: c for e, c in self.terms.items() if e <= order}
        )

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
    order = frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    return GradedCharacter(ctx, order, {Fraction(0): ctx.one()})


def series_zero(ctx, order) -> GradedCharacter:
    return GradedCharacter(ctx, order, {})


def pochhammer_inverse(ctx, mu: Weight, s, order) -> GradedCharacter:
    """Truncated prod_{p>=0} (1 - e^mu q^{s+p})^{-1}.

    Requires s > 0 so every factor is 1 + (higher order); mu = 0 with
    s = 1 gives the partition generating function.
    """
    s = frac(s)
    order = frac(order)
    if s <= 0:
        raise UsageError("pochhammer_inverse requires shift s > 0")
    if order < 0:
        raise UsageError("order must be nonnegative")
    unit = ctx.project(GroupRingElt.monomial(mu))
    result = series_one(ctx, order)
    step = s
    while step <= order:
        # geometric series for (1 - e^mu q^step)^{-1}
        geom: Dict[Fraction, object] = {}
        e = Fraction(0)
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
    s = frac(s)
    order = frac(order)
    if s <= 0:
        raise UsageError("pochhammer requires shift s > 0")
    unit = ctx.project(GroupRingElt.monomial(mu))
    result = series_one(ctx, order)
    step = s
    while step <= order:
        factor = GradedCharacter(ctx, order, {Fraction(0): ctx.one(), step: ctx.scale(unit, -1)})
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
