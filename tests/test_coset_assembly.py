"""The coset sum factored as S_kappa / ((q;q)^rank D), against the per-lambda form it replaced.

``assemble_coset_character`` divides once, by the common (q;q)^rank D, the
sum S_kappa = sum_lam q^{lead_lam} ch[L_lam] sum_w eps(w) q^{depth_w(lam*)}.
The oracle here builds each lambda-summand as a Weyl-module series times a
W-module series, each with its own Euler division, and with the depth
bookkeeping that form needs when W-module factors start below q^0; both
must give the same canonical JSON.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    GradedCharacter,
    GroupRingContext,
    assemble_coset_character,
    build_root_system,
    conformal_top_weight,
    denominator_inverse,
    finite_char,
    kernel_partner_level,
    level,
    make_context,
    series_zero,
    walgebra_module_char,
)
from liechar.linalg import frac

ORACLE_TYPES = [build_root_system(t) for t in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]]
BOUND_TYPES = ORACLE_TYPES + [build_root_system(t) for t in ["A4", "D4", "F4"]]


def _weyl_module_with_inv_d(ctx, lam, kappa, order, inv_d):
    """q^{h_kappa(lam)} ch[L_lam] / D through order, from a 1/D built deep enough."""
    rs = ctx.rs
    h = conformal_top_weight(rs, lam, kappa)
    need = order - h
    if need < 0:
        return series_zero(ctx, order)
    assert inv_d.order >= need
    top = ctx.project(finite_char(rs, lam).multiplicities)
    shifted = GradedCharacter(ctx, need, {F(0): top}).shift(h)
    return shifted.mul(inv_d.truncate(need))


def per_lambda_coset(rs, kappa_value, order, mode, xi=None):
    """The coset sum with one Weyl-module factor per lambda.

    A W-module factor may start at q^{lead_t} < q^0, so its Weyl-module
    partner is needed through order - lead_t, and 1/D deep enough for all.
    In ``group_ring`` it is built over monomials; xi is ray's coweight.
    """
    order = frac(order)
    ctx = GroupRingContext(rs) if mode == "group_ring" else make_context(rs, mode, xi)
    kappa = level(rs, kappa_value)
    partner = kernel_partner_level(kappa, 1)
    needs = []
    for lam in rs.dominant_weights_in_root_lattice(order):
        h = conformal_top_weight(rs, lam, kappa)
        lead_t = conformal_top_weight(rs, rs.star(lam), partner) - rs.inner(lam, rs.rho)
        if h + lead_t <= order:
            needs.append((lam, h, lead_t))
    max_invd = max((order - min(lead_t, 0) - h for _, h, lead_t in needs), default=order)
    inv_d = denominator_inverse(ctx, max(max_invd, F(0)))
    total = series_zero(ctx, order)
    for lam, h, lead_t in needs:
        wfac = _weyl_module_with_inv_d(ctx, lam, kappa, order - min(lead_t, 0), inv_d)
        tfac = walgebra_module_char(ctx, rs.star(lam), partner, order - h)
        total = total.add(wfac.mul(tfac).truncate(order))
    return total


@st.composite
def shifted_levels(draw, rs):
    """kappa + h_vee away from 0 and from the kernel pole 1/r_vee.

    Kept at 1/2 <= s or s <= -2 and |1/s - r_vee| >= 1/4, so no top weight
    is so large in size that the oracle's 1/D gets expensive.
    """
    pos = st.fractions(F(1, 2), 8, max_denominator=3)
    neg = st.fractions(-8, -2, max_denominator=3)
    return draw(st.one_of(pos, neg).filter(lambda s: abs(1 / s - rs.lacity) >= F(1, 4)))


@st.composite
def coset_inputs(draw):
    rs = draw(st.sampled_from(ORACLE_TYPES))
    kappa = draw(shifted_levels(rs)) - rs.dual_coxeter
    mode = draw(st.sampled_from(["group_ring", "trivial", "ray", "ray_rational"]))
    xi = None
    if mode == "ray_rational":
        # a rational coweight off rho_check: ch L_lam from Freudenthal, projected
        coord = st.fractions(-2, 2, max_denominator=3)
        mode, xi = "ray", draw(st.tuples(*[coord] * rs.rank).filter(lambda x: x != rs.rho_check))
    order = draw(st.integers(0, 6).map(lambda k: F(k, 2)))
    return rs, kappa, mode, xi, order


@settings(max_examples=60, deadline=None)
@given(coset_inputs())
def test_factored_coset_sum_matches_per_lambda_oracle(case):
    rs, kappa, mode, xi, order = case
    got = assemble_coset_character(rs, kappa, order, mode, xi)
    assert got.order == order
    assert got.canonical_str() == per_lambda_coset(rs, kappa, order, mode, xi).canonical_str()


@st.composite
def levels_and_types(draw):
    rs = draw(st.sampled_from(BOUND_TYPES))
    s = draw(st.fractions(-20, 20, max_denominator=7).filter(lambda s: s != 0 and s * rs.lacity != 1))
    return rs, s - rs.dual_coxeter


@settings(max_examples=60, deadline=None)
@given(levels_and_types())
def test_each_coset_summand_starts_at_a_nonnegative_power(case):
    # 1/(kappa+h_vee) + 1/(kappa*+h_vee) = r_vee makes the Casimir terms add
    # up to r_vee (lam, lam+2rho)/2, whatever kappa is: S_kappa has no
    # negative powers of q, so S_kappa * 1/D is exact through 1/D's order.
    rs, kappa_value = case
    kappa = level(rs, kappa_value)
    partner = kernel_partner_level(kappa, 1)
    rv = rs.lacity
    for lam in rs.dominant_weights_in_root_lattice(3):
        lam_star = rs.star(lam)
        lead = (conformal_top_weight(rs, lam, kappa) + conformal_top_weight(rs, lam_star, partner)
                - rs.inner(lam_star, rs.rho))
        assert lead == rv * rs.norm2(lam) / 2 + (rv - 1) * rs.inner(lam, rs.rho)
        assert lead >= 0
