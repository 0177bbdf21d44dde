"""Character constructors: finite irreducibles, affine Weyl modules,
principal W-algebra modules, the affine denominator, and the level-one
lattice character of simply-laced types.

Finite characters come from Freudenthal's multiplicity recursion run on
the dominant weights only, in integer coordinates: they are reached from
the highest weight by positive-root steps that never leave the dominant
chamber, and a weight on a root string is looked up by its dominant
conjugate.  The Weyl dimension formula and the alternating-orbit-sum form
of the Weyl character formula are independent cross-checks in the tests.
Callers take ch L_lam from their coefficient context (``irreducible``),
which uses a closed form in ``trivial`` and in ``ray`` along rho_check,
the dominant multiplicities themselves in the W-invariant ring
(``group_ring``), and this recursion spread over orbits along any other xi
and in the monomial oracle ring.

Pochhammer products, D, 1/D and (q;q)^{-rank}, are applied to a series
by one routine in every coefficient ring (``euler_product``): a series
product with the Euler series of the e^0 part of the character and one
with that of the rest, each built by the log-derivative recurrence and
cached per context.  The product forms in ``qseries`` are its test
oracles.  The coset sum divides by the (q;q)^rank D that all its summands
share once, as the Euler product of ch g + rank e^0, instead of building
module series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .linalg import frac, int_or_frac
from .qseries import Exponent, GradedCharacter, GroupRingElt, series_one, series_zero
from .rootsys import RootSystem, UsageError, Weight, alternating_sum, weight


@dataclass(frozen=True)
class LevelValue:
    """Exact rational level kappa attached to a root system, with its
    shifted level kappa + h_vee (``shifted``), which must not vanish for
    noncritical constructions."""

    value: Fraction
    root_system: RootSystem
    shifted: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        value = frac(self.value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "shifted", value + self.root_system.dual_coxeter)

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


def finite_char(rs: RootSystem, lam: Weight) -> FiniteCharacter:
    """Irreducible character of highest weight lam: Freudenthal's dominant
    multiplicities spread over their Weyl orbits."""
    mult = dominant_multiplicities(rs, lam)
    # int keys and int multiplicities already: skip GroupRingElt's checks
    char = GroupRingElt()
    char.terms = {nu: m for mu, m in mult.items() for nu in rs.weyl_orbit(mu)}
    return FiniteCharacter(weight(lam), char)


def dominant_multiplicities(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Dominant weight -> multiplicity in L_lam, by Freudenthal's recursion.

    mu + k alpha (k > 0) has a dominant conjugate of smaller height, so it is
    a weight of L_lam iff that conjugate already has a multiplicity; strings
    are unbroken, so the first miss ends the string.
    """
    lam = weight(lam)
    if not rs.is_dominant(lam):
        raise UsageError("finite_char requires a dominant integral weight")
    lac = rs.lacity
    # (alpha, lac (omega_i, alpha) = lac d_i c_i, lac (alpha, alpha)), all
    # integers: rs._steps[i] = lac d_i
    strings = []
    for alpha in rs.positive_roots:
        pair = tuple(map(operator.mul, rs._steps, rs.root_coords(alpha)))
        strings.append((alpha, pair, sum(a * p for a, p in zip(alpha, pair))))
    lam_rho = tuple(c + 1 for c in lam)
    c_top = rs.inner(lam_rho, lam_rho)
    mult: Dict[Weight, int] = {lam: 1}
    to_dominant = rs._reflect_to_dominant
    for _, mu in _dominant_weights_below(rs, lam)[1:]:
        total = 0
        for alpha, pair, len2 in strings:
            nu, ip = mu, sum(m * p for m, p in zip(mu, pair))
            while True:
                nu = tuple(x + a for x, a in zip(nu, alpha))
                ip += len2
                m = mult.get(to_dominant(nu))
                if m is None:
                    break
                total += m * ip
        mu_rho = tuple(c + 1 for c in mu)
        m = Fraction(2 * total, lac) / (c_top - rs.inner(mu_rho, mu_rho))
        if m.denominator != 1 or m <= 0:
            raise AssertionError("Freudenthal produced a non-positive-integer multiplicity")
        mult[mu] = int(m)
    return mult


def casimir(rs: RootSystem, lam: Weight) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho)."""
    lam = weight(lam)
    return rs.inner(lam, tuple(c + 2 for c in lam))


def conformal_top_weight(rs: RootSystem, lam: Weight, kappa: LevelValue) -> Fraction:
    """Top conformal weight (lam, lam+2rho) / (2(kappa + h_vee)), built as one
    Fraction from the numerators and denominators of the two."""
    kappa.require_noncritical()
    cas, s = casimir(rs, lam), kappa.shifted
    return Fraction(cas.numerator * s.denominator, 2 * cas.denominator * s.numerator)


# ---------------------------------------------------------------------------
# graded characters


def _cartan_char(rs: RootSystem) -> GroupRingElt:
    """rank e^0, the character of the Cartan subalgebra: its Euler product
    is (q;q)^{-rank}."""
    return GroupRingElt({(0,) * rs.rank: rs.rank})


def _adjoint_char(rs: RootSystem) -> GroupRingElt:
    """ch g = rank e^0 + sum_{alpha in Delta} e^alpha."""
    adjoint = _cartan_char(rs)
    for alpha in rs.positive_roots:
        adjoint.terms[alpha] = 1
        adjoint.terms[tuple(-c for c in alpha)] = 1
    return adjoint


def denominator_series(ctx, order) -> GradedCharacter:
    """D = (q;q)^rank prod_{alpha>0} (e^alpha q, e^-alpha q; q), truncated:
    the Euler product of -ch g."""
    return euler_product(series_one(ctx, order), -_adjoint_char(ctx.rs))


def denominator_inverse(ctx, order) -> GradedCharacter:
    """1/D: the character of the vacuum Weyl module (any noncritical level),
    the Euler product of ch g."""
    return euler_product(series_one(ctx, order), _adjoint_char(ctx.rs))


def euler_product(f: GradedCharacter, char: GroupRingElt) -> GradedCharacter:
    """f prod_{n>=1} prod_mu (1 - e^mu q^n)^{-c_mu} for char = sum_mu c_mu e^mu
    with integer c_mu, exact through f.order.

    Each factor is 1 + O(q) (Kac, Infinite-dimensional Lie algebras, 10.10),
    so ``GradedCharacter.mul`` by a series known through f.order less f's
    lower bound is exact through f.order.  f is multiplied by two such series
    from the context's cache (``euler_series``): the Euler product of the
    e^0 part of char and that of the rest.  The rest is kept apart because
    it is the series that the coset sides (ch g + rank e^0) and 1/D (ch g)
    share.
    """
    ctx = f.context
    if any(not isinstance(int_or_frac(c), int) for c in char.terms.values()):
        raise UsageError("Euler-product multiplicities must be integers")
    zero = (0,) * ctx.rs.rank
    rest = GroupRingElt({mu: c for mu, c in char.terms.items() if mu != zero})
    for part in (GroupRingElt({zero: char.coeff(zero)}), rest):
        if part:
            depth = f.order - f.lower_bound()
            series = ctx.euler_series(part, math.floor(depth))
            f = f.mul(GradedCharacter(ctx, depth, dict(enumerate(series))))
    return f


def weyl_module_char(ctx, lam: Weight, kappa: LevelValue, order) -> GradedCharacter:
    """Character of the level-kappa Weyl module with top space L_lam:
    q^{h_kappa(lam)} ch[L_lam] / D, truncated at the requested order.
    (The coset sum divides its whole lam-sum by the common (q;q)^rank D
    instead.)"""
    rs = ctx.rs
    kappa.require_noncritical()
    order = int_or_frac(order)
    h = conformal_top_weight(rs, lam, kappa)
    if order < h:
        return series_zero(ctx, order)
    top = ctx.irreducible(lam)
    return denominator_inverse(ctx, order - h).times(top).shift(h)


def _alternating_numerator(rs: RootSystem, lam: Weight, lead, order) -> Dict[Exponent, int]:
    """q^lead sum_w eps(w) q^{(lam+rho - w(lam+rho), rho)} for dominant lam through
    order, as {exponent: integer}: ``alternating_sum`` multiplies it out over the
    positive roots, through order - lead only.  Its depths are Fractions; each
    exponent lead + depth is an int when integral, as every one is on a
    simply-laced type at an integer lead."""
    alt = alternating_sum(rs, tuple(c + 1 for c in lam), order - lead)
    if alt.get(0) != 1:
        raise AssertionError("leading coefficient of an alternating numerator must be 1")
    return {int_or_frac(lead + int_or_frac(d)): c for d, c in alt.items()}


def walgebra_module_char(ctx, lam_star: Weight, kappa_star: LevelValue, order) -> GradedCharacter:
    """Character of the principal W-algebra module reduced from a Weyl module.

    q^{(l*,l*+2rho)/(2(k*+h_vee)) + (rho,rho)} (q;q)^{-rank}
        sum_w eps(w) q^{-(w(l*+rho), rho)}.

    Coefficients are weight-free (integers times e^0).  The alternating
    sum's exponents are minimized exactly at w = e, so the series has
    lower bound lead = h* - (lam*, rho); that can be negative for extreme
    levels, which the series representation tolerates.  The numerator,
    ``_alternating_numerator``, is what both verifiers' lambda-sums multiply
    by ch L_lam.
    """
    rs = ctx.rs
    kappa_star.require_noncritical()
    order = int_or_frac(order)
    lam_star = weight(lam_star)
    if not rs.is_dominant(lam_star):
        raise UsageError("walgebra_module_char requires a dominant integral weight")
    h = conformal_top_weight(rs, lam_star, kappa_star)
    lead = h - rs.inner(lam_star, rs.rho)
    if lead > order:
        return series_zero(ctx, order)
    one = ctx.one()
    numerator = _alternating_numerator(rs, lam_star, lead, order)
    return euler_product(GradedCharacter(ctx, order, {e: c * one for e, c in numerator.items()}),
                         _cartan_char(rs))


def lattice_theta(ctx, order) -> GradedCharacter:
    """Theta_Q = sum_{lam in Q} q^{(lam,lam)/2} e^lam, truncated: the orbit
    sums m_lam of the dominant lam in Q, in ctx's ring (``orbit_sum``)."""
    rs = ctx.rs
    order = int_or_frac(order)
    shells: Dict[Exponent, List[Weight]] = {}
    for lam in rs.dominant_weights_in_root_lattice(order):
        shells.setdefault(int_or_frac(rs.norm2(lam) / 2), []).append(lam)
    return GradedCharacter(ctx, order, {e: ctx.orbit_sum(lams) for e, lams in shells.items()})


def level_one_char(ctx, order) -> GradedCharacter:
    """Character of the level-one lattice vertex algebra (ADE only):
    Theta_Q / (q;q)^rank."""
    rs = ctx.rs
    if rs.lacity != 1:
        raise UsageError("level-one lattice character requires a simply-laced type")
    order = int_or_frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    return euler_product(lattice_theta(ctx, order), _cartan_char(rs))


# ---------------------------------------------------------------------------
# tensor-square decompositions


def _strip_highest_weights(rs: RootSystem, char: GroupRingElt) -> Dict[Weight, int]:
    """Decompose a genuine character into irreducibles by repeated stripping."""
    remaining = GroupRingElt(dict(char.terms))
    out: Dict[Weight, int] = {}
    rho = rs.rho
    while remaining:
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
        remaining = remaining - c * finite_char(rs, best).multiplicities
    return out


def _square_decompose(rs: RootSystem, lam: Weight, sign: int) -> Dict[Weight, int]:
    """Highest weights (with multiplicity) of (ch^2 + sign psi^2 ch)/2, ch = ch L_lam."""
    ch = finite_char(rs, lam).multiplicities
    half = Fraction(1, 2) * (ch * ch + sign * ch.frobenius(2))
    return _strip_highest_weights(rs, half)


def alt2_decompose(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Highest weights (with multiplicity) of wedge^2 L_lam."""
    return _square_decompose(rs, lam, -1)


def sym2_decompose(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Highest weights (with multiplicity) of Sym^2 L_lam."""
    return _square_decompose(rs, lam, 1)
