"""Character constructors: finite irreducibles, affine Weyl modules,
principal W-algebra modules, the affine denominator, and the level-one
lattice character of simply-laced types.

Finite characters come from Freudenthal's multiplicity recursion run on
the dominant weights only, in integer coordinates: they are reached from
the highest weight by positive-root steps that never leave the dominant
chamber, and a weight on a root string is looked up by its dominant
conjugate.  The Weyl dimension formula and the alternating-orbit-sum form
of the Weyl character formula are independent cross-checks in the tests.

Pochhammer products, D, 1/D and (q;q)^{-rank}, come from one
log-derivative recurrence (``euler_product_inverse``); the product forms
in ``qseries`` are its test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import frac
from .qseries import GradedCharacter, GroupRingElt, series_zero
from .rootsys import RootSystem, UsageError, Weight, alternating_sum, weight


@dataclass(frozen=True)
class LevelValue:
    """Exact rational level kappa attached to a root system."""

    value: Fraction
    root_system: RootSystem

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))

    @property
    def shifted(self) -> Fraction:
        """kappa + h_vee; must not vanish for noncritical constructions."""
        return self.value + self.root_system.dual_coxeter

    def require_noncritical(self) -> None:
        if self.shifted == 0:
            raise UsageError("critical level kappa = -h_vee")


def level(rs: RootSystem, value) -> LevelValue:
    return LevelValue(frac(value), rs)


@dataclass(frozen=True)
class FiniteCharacter:
    highest_weight: Weight
    multiplicities: GroupRingElt  # full weight-system character

    def dimension(self) -> int:
        return int(self.multiplicities.dimension())


def _dominant_weights_below(rs: RootSystem, lam: Weight) -> List[Tuple[int, Weight]]:
    """Dominant mu with lam - mu in Q+, tagged with the height of lam - mu, sorted.

    If lam covers mu among dominant weights, lam - mu is a positive root
    (Stembridge, Adv. Math. 136, 1998), so a walk down by positive roots
    through dominant weights only reaches them all.
    """
    found: Dict[Weight, int] = {lam: 0}
    todo = [lam]
    while todo:
        mu = todo.pop()
        for alpha in rs.positive_roots:
            nu = tuple(m - a for m, a in zip(mu, alpha))
            if min(nu) >= 0 and nu not in found:
                found[nu] = found[mu] + rs.height(alpha)
                todo.append(nu)
    return sorted((h, mu) for mu, h in found.items())


def _dominant_conjugate(rows, nu: Weight) -> Weight:
    """Dominant conjugate of an integral weight; rows[i] is alpha_i."""
    while True:
        i = next((i for i, c in enumerate(nu) if c < 0), None)
        if i is None:
            return nu
        nu = tuple(x - nu[i] * a for x, a in zip(nu, rows[i]))


def finite_char(rs: RootSystem, lam: Weight) -> FiniteCharacter:
    """Irreducible character of highest weight lam by Freudenthal recursion.

    mu + k alpha (k > 0) has a dominant conjugate of smaller height, so it is
    a weight of L_lam iff that conjugate already has a multiplicity; strings
    are unbroken, so the first miss ends the string.
    """
    lam = weight(lam)
    if not rs.is_dominant(lam) or not rs.is_integral(lam):
        raise UsageError("finite_char requires a dominant integral weight")
    lac = rs.lacity
    # (alpha, lac (omega_i, alpha) = lac d_i c_i, lac (alpha, alpha)), all integers
    strings = []
    for alpha in rs.positive_roots:
        pair = tuple(int(d * lac) * c for d, c in zip(rs.symmetrizer, rs.root_coords(alpha)))
        strings.append((alpha, pair, sum(a * p for a, p in zip(alpha, pair))))
    lam_rho = tuple(c + 1 for c in lam)
    c_top = rs.inner(lam_rho, lam_rho)
    mult: Dict[Weight, int] = {lam: 1}
    for _, mu in _dominant_weights_below(rs, lam)[1:]:
        total = 0
        for alpha, pair, len2 in strings:
            nu, ip = mu, sum(m * p for m, p in zip(mu, pair))
            while True:
                nu = tuple(x + a for x, a in zip(nu, alpha))
                ip += len2
                m = mult.get(_dominant_conjugate(rs.cartan_matrix, nu))
                if m is None:
                    break
                total += m * ip
        mu_rho = tuple(c + 1 for c in mu)
        m = Fraction(2 * total, lac) / (c_top - rs.inner(mu_rho, mu_rho))
        if m.denominator != 1 or m <= 0:
            raise AssertionError("Freudenthal produced a non-positive-integer multiplicity")
        mult[mu] = int(m)
    terms = {nu: m for mu, m in mult.items() for nu in rs.weyl_orbit(mu)}
    return FiniteCharacter(lam, GroupRingElt(terms))


def orbit_alternating_sum(rs: RootSystem, mu: Weight) -> GroupRingElt:
    """A_mu = sum_w eps(w) e^{w(mu)} for regular dominant mu."""
    return GroupRingElt({nu: par for nu, par in rs.weyl_orbit_signed(mu)})


def casimir(rs: RootSystem, lam: Weight) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho)."""
    lam = weight(lam)
    two_rho = weight(2 for _ in range(rs.rank))
    return rs.inner(lam, weight(frac(a) + b for a, b in zip(lam, two_rho)))


def conformal_top_weight(rs: RootSystem, lam: Weight, kappa: LevelValue) -> Fraction:
    """Top conformal weight (lam, lam+2rho) / (2(kappa + h_vee))."""
    kappa.require_noncritical()
    return casimir(rs, lam) / (2 * kappa.shifted)


# ---------------------------------------------------------------------------
# graded characters


def _adjoint_char(rs: RootSystem) -> GroupRingElt:
    """ch g = rank e^0 + sum_{alpha in Delta} e^alpha."""
    adjoint = {(0,) * rs.rank: rs.rank}
    for alpha in rs.positive_roots:
        adjoint[alpha] = 1
        adjoint[tuple(-c for c in alpha)] = 1
    return GroupRingElt(adjoint)


def denominator_series(ctx, order) -> GradedCharacter:
    """D = (q;q)^rank prod_{alpha>0} (e^alpha q, e^-alpha q; q), truncated:
    the Euler product of -ch g."""
    return euler_product_inverse(ctx, -_adjoint_char(ctx.rs), order)


def denominator_inverse(ctx, order) -> GradedCharacter:
    """1/D: the character of the vacuum Weyl module (any noncritical level),
    the Euler product of ch g."""
    return euler_product_inverse(ctx, _adjoint_char(ctx.rs), order)


def euler_product_inverse(ctx, char: GroupRingElt, order) -> GradedCharacter:
    """prod_{n>=1} prod_mu (1 - e^mu q^n)^{-c_mu} of char = sum_mu c_mu e^mu, truncated.

    Solves the log-derivative (Euler transform) recurrence
    n a_n = sum_{k=1..n} b_k a_{n-k},  b_k = sum_{d | k} d psi^{k/d}(char),
    with the Adams operations psi^m mapped into ctx's coefficient ring
    (Kac, Infinite-dimensional Lie algebras, 10.10): O(order^2) coefficient
    products, however many weights char has.  The exponents are 0..floor(order).
    """
    order = frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    top = math.floor(order)
    psi = [None] + [ctx.project(char.frobenius(m)) for m in range(1, top + 1)]
    b = [None]
    for k in range(1, top + 1):
        bk = ctx.czero()
        for d in range(1, k + 1):
            if k % d == 0:
                bk = ctx.add(bk, ctx.scale(psi[k // d], d))
        b.append(bk)
    a = [ctx.one()]
    for n in range(1, top + 1):
        acc = ctx.czero()
        for k in range(1, n + 1):
            acc = ctx.add(acc, ctx.mul(b[k], a[n - k]))
        a.append(_divide_exactly(acc, n))
    return GradedCharacter(ctx, order, {Fraction(n): c for n, c in enumerate(a)})


def _divide_exactly(c, n: int):
    """c / n for an integer or GroupRingElt c; n must divide every coefficient."""
    if isinstance(c, GroupRingElt):
        res = GroupRingElt()
        res.terms = {k: _divide_exactly(v, n) for k, v in c.terms.items()}
        return res
    q, r = divmod(c, n)
    if r:
        raise AssertionError(f"Euler-transform coefficient {c} is not divisible by {n}")
    return q


def weyl_module_char(
    ctx, lam: Weight, kappa: LevelValue, order, inv_d: Optional[GradedCharacter] = None
) -> GradedCharacter:
    """Character of the level-kappa Weyl module with top space L_lam.

    q^{h_kappa(lam)} ch[L_lam] / D, truncated at the requested order.
    A precomputed 1/D (built to at least order - h) can be passed in when
    assembling many of these.
    """
    rs = ctx.rs
    kappa.require_noncritical()
    order = frac(order)
    h = conformal_top_weight(rs, lam, kappa)
    top = ctx.project(finite_char(rs, lam).multiplicities)
    need = order - h
    if need < 0:
        return series_zero(ctx, order)
    if inv_d is None or inv_d.order < need:
        inv_d = denominator_inverse(ctx, need)
    shifted = GradedCharacter(ctx, need, {Fraction(0): top}).shift(h)
    return shifted.mul(inv_d.truncate(need))


def walgebra_module_char(ctx, lam_star: Weight, kappa_star: LevelValue, order) -> GradedCharacter:
    """Character of the principal W-algebra module reduced from a Weyl module.

    q^{(l*,l*+2rho)/(2(k*+h_vee)) + (rho,rho)} (q;q)^{-rank}
        sum_w eps(w) q^{-(w(l*+rho), rho)}.

    Coefficients are weight-free (integers times e^0).  The alternating
    sum's exponents are minimized exactly at w = e, so the series has
    lower bound lead = h* - (lam*, rho); that can be negative for extreme
    levels, which the series representation tolerates.  The numerator is
    q^lead times the alternating sum over depths (l*+rho - w(l*+rho), rho)
    <= order - lead, walked down from l*+rho without the rest of the orbit.
    """
    rs = ctx.rs
    kappa_star.require_noncritical()
    order = frac(order)
    lam_star = weight(lam_star)
    if not rs.is_dominant(lam_star) or not rs.is_integral(lam_star):
        raise UsageError("walgebra_module_char requires a dominant integral weight")
    h = conformal_top_weight(rs, lam_star, kappa_star)
    lead = h - rs.inner(lam_star, rs.rho)
    if lead > order:
        return series_zero(ctx, order)
    lam_rho = weight(frac(c) + 1 for c in lam_star)
    alt = alternating_sum(rs, lam_rho, order - lead)
    if alt.get(0) != 1:
        raise AssertionError("leading coefficient of the W-module numerator must be 1")
    numer = GradedCharacter(
        ctx, order, {lead + d: ctx.scale(ctx.one(), c) for d, c in alt.items()}
    )
    cartan = GroupRingElt({(0,) * rs.rank: rs.rank})
    return numer.mul(euler_product_inverse(ctx, cartan, order - lead))


def lattice_theta(ctx, order) -> GradedCharacter:
    """Theta_Q = sum_{lam in Q} q^{(lam,lam)/2} e^lam, truncated."""
    rs = ctx.rs
    order = frac(order)
    terms: Dict[Fraction, GroupRingElt] = {}
    for lam in rs.dominant_weights_in_root_lattice(order):
        e = rs.norm2(lam) / 2
        gre = terms.setdefault(e, GroupRingElt())
        for nu in rs.weyl_orbit(lam):
            gre.terms[nu] = gre.terms.get(nu, 0) + 1
    return GradedCharacter(ctx, order, {e: ctx.project(gre) for e, gre in terms.items()})


def level_one_char(ctx, order) -> GradedCharacter:
    """Character of the level-one lattice vertex algebra (ADE only):
    Theta_Q / (q;q)^rank."""
    rs = ctx.rs
    if rs.lacity != 1:
        raise UsageError("level-one lattice character requires a simply-laced type")
    order = frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    cartan = GroupRingElt({(0,) * rs.rank: rs.rank})
    return lattice_theta(ctx, order).mul(euler_product_inverse(ctx, cartan, order))


# ---------------------------------------------------------------------------
# tensor-square decompositions


def _strip_highest_weights(rs: RootSystem, char: GroupRingElt) -> Dict[Weight, int]:
    """Decompose a genuine character into irreducibles by repeated stripping."""
    remaining = GroupRingElt(dict(char.terms))
    out: Dict[Weight, int] = {}
    rho = rs.rho
    while not remaining.is_zero():
        best = None
        best_h = None
        for w in remaining.terms:
            h = rs.inner(w, rho)
            if best is None or h > best_h:
                best, best_h = w, h
        c = frac(remaining.terms[best])
        if not rs.is_dominant(best) or c.denominator != 1 or c <= 0:
            raise UsageError("input is not a nonnegative integral character")
        c = int(c)
        out[best] = out.get(best, 0) + c
        remaining = remaining - finite_char(rs, best).multiplicities.scale(c)
    return out


def alt2_decompose(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Highest weights (with multiplicity) of wedge^2 L_lam."""
    ch = finite_char(rs, lam).multiplicities
    sq = ch * ch
    frob = ch.frobenius(2)
    half = (sq - frob).scale(Fraction(1, 2))
    return _strip_highest_weights(rs, half)


def sym2_decompose(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Highest weights (with multiplicity) of Sym^2 L_lam."""
    ch = finite_char(rs, lam).multiplicities
    sq = ch * ch
    frob = ch.frobenius(2)
    half = (sq + frob).scale(Fraction(1, 2))
    return _strip_highest_weights(rs, half)
