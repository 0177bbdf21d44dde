"""The coset sum factored as S_kappa / ((q;q)^rank D), against the per-lambda form it replaced.

``assemble_coset_character`` divides once, by the common (q;q)^rank D, the
sum S_kappa = sum_lam q^{lead_lam} ch[L_lam] sum_w eps(w) q^{depth_w(lam*)}.
The oracle here builds each lambda-summand as a Weyl-module series times a
W-module series, each with its own Euler division, and with the depth
bookkeeping that form needs when W-module factors start below q^0; both
must give the same canonical JSON.  The lambda-sum itself, added into one
dict, is checked against the sum of one series per lambda it replaced.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    GradedCharacter,
    GroupRingContext,
    assemble_coset_character,
    build_root_system,
    conformal_top_weight,
    default_kappa_samples,
    denominator_inverse,
    finite_char,
    kernel_partner_level,
    kw_lhs_character,
    level,
    make_context,
    series_zero,
    walgebra_module_char,
)
from liechar import levels
from liechar.linalg import frac
from oracles import lambda_sum_by_series

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
    top = ctx.project(finite_char(rs, lam))
    return GradedCharacter(ctx, order, {h: top}).mul(GradedCharacter(ctx, need, inv_d.terms))


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
        total = total.add(wfac.mul(tfac))
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


# (type, order, shifted levels kappa + h_vee or None for the default samples);
# B2 and G2 at non-integer levels, with fractional exponents on the kw side
LAMBDA_SUM_CASES = [("A1", 8, None), ("A2", 6, None), ("A3", 5, None), ("A4", 4, None),
                    ("D4", 4, None), ("B2", F(11, 2), (F(5, 2), F(7, 3))),
                    ("G2", F(9, 2), (F(5, 3), F(-9, 4)))]


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
@pytest.mark.parametrize("label,order,shifted", LAMBDA_SUM_CASES)
def test_one_dict_lambda_sum_matches_one_series_per_lambda(monkeypatch, label, order, shifted, mode):
    rs = build_root_system(label)
    if shifted is None:
        kappas = default_kappa_samples(rs, 2)
    else:
        kappas = [s - rs.dual_coxeter for s in shifted]

    def sides(rs):
        return [kw_lhs_character(rs, order, mode).canonical_str()] + [
            assemble_coset_character(rs, k, order, mode).canonical_str() for k in kappas]

    got = sides(rs)
    calls = []

    def by_series(*args):
        calls.append(args)
        return lambda_sum_by_series(*args)

    monkeypatch.setattr(levels, "_lambda_sum", by_series)
    # the oracle builds every side: the kw side and one coset side per
    # assemble_coset_character call, since no side is cached between calls
    assert got == sides(build_root_system(label))
    assert len(calls) == 1 + len(kappas)


# (type, order, mode): the n = 1 kernel relation, checked on the leads
LEAD_CASES = [(label, order, mode) for label, order in
              [("A1", 8), ("A2", 6), ("A3", 5), ("A4", 4), ("D4", 4), ("D5", 3)]
              for mode in ["group_ring", "trivial", "ray"]] + [
                  ("E6", 4, "trivial"), ("E7", 3, "trivial"), ("E8", 4, "trivial")]


@pytest.mark.parametrize("label,order,mode", LEAD_CASES)
def test_every_lead_handed_to_the_lambda_sum_is_the_integer_half_norm(monkeypatch, label, order, mode):
    # with n = 1, 1/(kappa+h_vee) + 1/(kappa*+h_vee) = 1 puts the lam-summand's
    # lead h_kappa(lam) + h_kappa*(lam*) - (lam*, rho) at |lam|^2/2 on a
    # simply-laced type, whatever kappa is: an int, stored as one
    handed = []
    lambda_sum = levels._lambda_sum

    def capturing(ctx, order, summands):
        handed.append(summands)
        return lambda_sum(ctx, order, summands)

    monkeypatch.setattr(levels, "_lambda_sum", capturing)
    rs = build_root_system(label)
    for kappa in default_kappa_samples(rs, 3):
        # each kappa on a fresh root system, so none is handed another's side
        assemble_coset_character(build_root_system(label), kappa, order, mode)
    assert len(handed) == 3
    lams = rs.dominant_weights_in_root_lattice(order)
    assert len(lams) > 1
    for summands in handed:
        assert [lam for lam, _, _ in summands] == lams
        for lam, lam_star, lead in summands:
            assert lam_star == rs.star(lam)
            assert type(lead) is int and lead == rs.norm2(lam) / 2
