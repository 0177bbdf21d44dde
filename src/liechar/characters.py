"""Character constructors: finite irreducibles, affine Weyl modules,
principal W-algebra modules, the affine denominator, and the level-one
lattice character of simply-laced types.

``finite_char`` is ch L_lam over monomials: Freudenthal's dominant
multiplicities (``RootSystem.dominant_multiplicities``) spread over
their Weyl orbits (``qseries.orbit_sums``); it is defined in
``qseries``, whose contexts project it, and imported here under the same
name.  The Weyl dimension formula and the alternating-orbit-sum form of
the Weyl character formula are independent cross-checks in the tests.
Callers take ch L_lam from their coefficient context (``irreducible``),
which uses a closed form in ``trivial`` and in ``ray`` along rho_check,
the dominant multiplicities themselves in the W-invariant ring
(``group_ring``), and their orbit sums, projected, along any other xi
and in the monomial oracle ring.  A Weyl module's character is one
series product: q^h ch L_lam times 1/D.

Pochhammer products, D, 1/D and (q;q)^{-rank}, are applied to a series
by one routine in every coefficient ring (``euler_product``): a series
product with the Euler series of the e^0 part of the character and one
with that of the rest, each built by the log-derivative recurrence and
cached per context.  The product forms in ``qseries`` are its test
oracles.  The coset sum divides by the (q;q)^rank D that all its summands
share once, as the Euler product of ch g + rank e^0, instead of building
module series.  Theta_Q comes from the context; in ``trivial`` and ``ray``
it walks no Weyl orbit and shares no code with the lambda-sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict

from .linalg import frac, int_or_frac
from .qseries import Exponent, GradedCharacter, GroupRingElt, finite_char, series_one, series_zero
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


def casimir(rs: RootSystem, lam: Weight) -> Fraction:
    """Casimir eigenvalue (lam, lam + 2 rho)."""
    lam = weight(lam)
    return rs.inner(lam, tuple(c + 2 for c in lam))


def conformal_top_weight(rs: RootSystem, lam: Weight, kappa: LevelValue) -> Fraction:
    """Top conformal weight (lam, lam+2rho) / (2(kappa + h_vee))."""
    kappa.require_noncritical()
    return casimir(rs, lam) / (2 * kappa.shifted)


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
    q^{h_kappa(lam)} ch[L_lam] / D, truncated at the requested order, as
    the product of the one-term series q^h ch L_lam and 1/D through order - h;
    that product is exact through min(order + 0, order - h + h) = order, for
    h < 0 too.  (The coset sum divides its whole lam-sum by the common
    (q;q)^rank D instead.)"""
    kappa.require_noncritical()
    order = int_or_frac(order)
    h = conformal_top_weight(ctx.rs, lam, kappa)
    if order < h:
        return series_zero(ctx, order)
    return GradedCharacter(ctx, order, {h: ctx.irreducible(lam)}).mul(
        denominator_inverse(ctx, order - h))


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
    """Theta_Q = sum_{lam in Q} q^{(lam,lam)/2} e^lam, truncated, in ctx's ring
    (``theta``): counted by a transfer over the Dynkin tree in ``trivial`` and
    ``ray`` (``RootSystem.theta_counts``), one orbit sum m_lam per dominant lam
    in Q in the invariant ring.  UsageError for a negative order."""
    order = int_or_frac(order)
    if order < 0:
        raise UsageError("order must be nonnegative")
    return GradedCharacter(ctx, order, ctx.theta(order))


def level_one_char(ctx, order) -> GradedCharacter:
    """Character of the level-one lattice vertex algebra (ADE only):
    Theta_Q / (q;q)^rank."""
    rs = ctx.rs
    if rs.lacity != 1:
        raise UsageError("level-one lattice character requires a simply-laced type")
    return euler_product(lattice_theta(ctx, order), _cartan_char(rs))
