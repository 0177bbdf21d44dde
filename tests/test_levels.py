import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from liechar import (
    GradedCharacter,
    GroupRingElt,
    UsageError,
    assemble_coset_character,
    build_root_system,
    conformal_weight,
    conformal_weight_closed,
    coset_rhs_character,
    default_kappa_samples,
    ff_dual_level,
    gluing_levels,
    kernel_partner_level,
    kw_lhs_character,
    langlands_dual,
    lattice_theta,
    level,
    make_context,
    rat_str,
    series_equal,
    verify_gko,
    verify_kw,
    weight,
)
from liechar import characters, cli, levels
from oracles import dominant_representative, specialize

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")


def random_noncritical_levels(rng, rs, count, avoid_kernel_pole_n=None):
    out = []
    while len(out) < count:
        kap = F(rng.randint(-40, 40), rng.randint(1, 12))
        kv = level(rs, kap)
        if kv.shifted == 0:
            continue
        if avoid_kernel_pole_n is not None and F(1) / kv.shifted == rs.lacity * avoid_kernel_pole_n:
            continue
        out.append(kap)
    return out


# -- level maps ---------------------------------------------------------------


def test_ff_dual_examples():
    out = ff_dual_level(level(A1, 0))
    assert out.value == F(-3, 2) and out.root_system.type_label == "A1"
    # B2 with shifted level 1 -> dual shifted level 1/2
    out = ff_dual_level(level(B2, 1 - B2.dual_coxeter))
    assert out.shifted == F(1, 2) and out.root_system.type_label == "C2"


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_ff_dual_involution(label):
    rs = build_root_system(label)
    rng = random.Random(101)
    for kap in random_noncritical_levels(rng, rs, 10):
        back = ff_dual_level(ff_dual_level(level(rs, kap)))
        assert back.value == kap
        assert back.root_system.type_label == label


def test_ff_dual_critical_rejected():
    with pytest.raises(UsageError):
        ff_dual_level(level(A1, -2))


def test_kernel_partner_examples():
    assert kernel_partner_level(level(A1, 0), 1).shifted == 2
    assert kernel_partner_level(level(A1, 1), 1).shifted == F(3, 2)


@pytest.mark.parametrize("label,n", [("A1", 1), ("A2", 2), ("B2", 1), ("G2", 3)])
def test_kernel_partner_involution(label, n):
    rs = build_root_system(label)
    rng = random.Random(103)
    for kap in random_noncritical_levels(rng, rs, 10, avoid_kernel_pole_n=n):
        partner = kernel_partner_level(level(rs, kap), n)
        assert F(1) / level(rs, kap).shifted + F(1) / partner.shifted == rs.lacity * n
        assert kernel_partner_level(partner, n).value == kap


def test_kernel_partner_pole_rejected():
    # shifted level = 1 / (lacity * n) makes the partner critical-at-infinity
    with pytest.raises(UsageError):
        kernel_partner_level(level(A1, 1 - A1.dual_coxeter), 1)


def test_gluing_example_a1():
    # dual shifted level 1, n = 1: kappa shifted 1, varkappa shifted 1/2
    kap, vark = gluing_levels(level(A1, -1), 1)
    assert kap.shifted == 1
    assert vark.shifted == F(1, 2)
    # kernel consequence through the zero-sum partner of kappa
    kstar_shifted = -kap.shifted
    assert F(1) / kstar_shifted + F(1) / vark.shifted == 1


@pytest.mark.parametrize("label,n", [("A1", 1), ("B2", 2), ("G2", 1), ("A2", 0)])
def test_gluing_consistency_random(label, n):
    rs = build_root_system(label)
    dual = langlands_dual(rs)
    rng = random.Random(107)
    for kap in random_noncritical_levels(rng, dual, 10):
        kd = level(dual, kap)
        if kd.shifted + n == 0:
            continue
        kappa, varkappa = gluing_levels(kd, n)
        assert rs.lacity * kappa.shifted * kd.shifted == 1
        assert rs.lacity * (kd.shifted + n) * varkappa.shifted == 1
        # 1/(kappa* + h) + 1/(varkappa + h) = r_vee n with the zero-sum partner
        assert F(1) / (-kappa.shifted) + F(1) / varkappa.shifted == rs.lacity * n


# -- conformal weights ----------------------------------------------------------


def test_conformal_weight_zero():
    assert conformal_weight(A2, weight([0, 0]), F(3, 7), 1) == 0
    assert conformal_weight_closed(A2, weight([0, 0]), 2) == 0


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "D4"])
def test_conformal_weight_theta_ade(label):
    rs = build_root_system(label)
    assert conformal_weight_closed(rs, rs.highest_root, 1) == 1
    assert conformal_weight(rs, rs.highest_root, F(1, 3), 1) == 1


def test_conformal_weight_b2_both_forms():
    kap = 5 - B2.dual_coxeter  # shifted level 5
    two_term = conformal_weight(B2, B2.highest_root, kap, 1)
    closed = conformal_weight_closed(B2, B2.highest_root, 1)
    assert two_term == closed == 3


def test_conformal_weight_requires_root_lattice():
    with pytest.raises(UsageError):
        conformal_weight(A2, weight([1, 0]), F(1, 2), 1)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"])
def test_conformal_weight_forms_agree_and_positive(label):
    rs = build_root_system(label)
    rng = random.Random(109)
    lams = rs.dominant_weights_in_root_lattice(3)
    for n in (1, 2, 3):
        kappas = random_noncritical_levels(rng, rs, 3, avoid_kernel_pole_n=n)
        for lam in lams:
            h = conformal_weight_closed(rs, lam, n)
            for kap in kappas:
                assert conformal_weight(rs, lam, kap, n) == h
            if any(c != 0 for c in lam):
                assert h > 0


# -- coset identity -------------------------------------------------------------


def test_gko_order_zero():
    rep = verify_gko("A1", 0)
    assert rep.status == "pass"
    lhs = assemble_coset_character(A1, F(1, 3), 0)
    assert lhs.coeff(0) == GroupRingElt.one(1)


def test_gko_first_coefficient_is_dim_g_plus_adjoint():
    lhs = assemble_coset_character(A1, F(0), 1, "trivial")
    rhs = coset_rhs_character(A1, F(0), 1, "trivial")
    assert lhs.coeff(1) == rhs.coeff(1) == 6


@pytest.mark.parametrize("label,order", [("A1", 5), ("A2", 3)])
def test_gko_small(label, order):
    rep = verify_gko(label, order)
    assert rep.status == "pass"
    assert rep.first_mismatch is None


def test_gko_kappa_cancellation_bytes():
    # each side on its own root system, so two independently built sides are
    # compared, not the one side a shared context hands to both kappas
    a = assemble_coset_character(build_root_system("A1"), F(1, 3), 4)
    b = assemble_coset_character(build_root_system("A1"), F(7, 5), 4)
    assert a is not b
    assert a.canonical_str() == b.canonical_str()


@pytest.mark.parametrize(
    "label,kap_shift",
    [("A1", F(1, 3)), ("A2", F(1, 3)), ("A2", F(99))],
)
def test_gko_survives_extreme_levels(label, kap_shift):
    # small shifted levels put the partner at negative shifted level; the
    # W-module factors then carry negative exponents internally, and very
    # large ones push the partner close to the pole at shifted level 1
    rs = build_root_system(label)
    kap = kap_shift - rs.dual_coxeter
    partner = kernel_partner_level(level(rs, kap), 1)
    if kap_shift < 1:
        assert partner.shifted < 0  # W-module factors get negative exponents
    lhs = assemble_coset_character(rs, kap, 3)
    rhs = coset_rhs_character(rs, kap, 3)
    assert series_equal(lhs, rhs) is None


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
@pytest.mark.parametrize("kap", [F(-2), F(-5, 2), F(-8, 3)])
def test_coset_sum_skips_summands_past_the_order_on_non_simply_laced(label, kap):
    # some lam in Q+ have a summand starting past q^2 (B3 lam = (2,0,0) has
    # a Weyl-module top weight 7/3 at kappa = -2); it adds nothing there
    rs = build_root_system(label)
    lhs = assemble_coset_character(rs, kap, 2)
    assert lhs.order == 2
    deeper = assemble_coset_character(rs, kap, 3).truncate(2)
    assert lhs.canonical_str() == deeper.canonical_str()


def test_gko_usage_errors():
    with pytest.raises(UsageError):
        verify_gko("B2", 2)
    with pytest.raises(UsageError):
        verify_gko("A1", -1)
    with pytest.raises(UsageError):
        verify_gko("A1", 2, kappas=[F(1, 2), F(1, 2)])
    with pytest.raises(UsageError):
        verify_gko("E6", 1)  # full-mode rank cap


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
def test_gko_refuses_every_bad_kappa_before_building_a_side(monkeypatch, mode):
    # A4: kappa = -5 is critical, and kappa = -4 sits on the kernel-partner
    # pole, where kappa - 1 is critical too; either one in either position is
    # refused before any side is assembled
    def no_side(*args, **kwargs):
        raise AssertionError("a side was built before every kappa was checked")

    monkeypatch.setattr(levels, "assemble_coset_character", no_side)
    monkeypatch.setattr(levels, "coset_rhs_character", no_side)
    for bad in (-5, -4):
        for kappas in ([-2, bad], [bad, -2]):
            with pytest.raises(UsageError):
                verify_gko("A4", 8, mode, kappas=kappas)


def test_default_kappa_samples_avoid_degenerate_set():
    for rs in (A1, A2):
        for kap in default_kappa_samples(rs, 4):
            kv = level(rs, kap)
            assert kv.shifted != 0 and kv.shifted != 1
            kernel_partner_level(kv, 1)  # must not raise


# -- lattice theta identity ------------------------------------------------------


def test_kw_order_zero():
    rep = verify_kw("A2", 0)
    assert rep.status == "pass"


def test_kw_a1_by_hand():
    # both sides equal 1 + q(e^a + e^-a) + q^4(e^2a + e^-2a) through order 4
    lhs = kw_lhs_character(A1, 4)
    ctx = make_context(A1)
    theta = lattice_theta(ctx, 4)
    assert series_equal(lhs, theta) is None
    alpha = A1.simple_roots[0]
    assert ctx.expand(lhs.coeff(1)) == GroupRingElt({alpha: 1, weight([-2]): 1})
    assert not lhs.coeff(2) and not lhs.coeff(3)


@pytest.mark.parametrize(
    "label,order,mode",
    [("A1", 6, "group_ring"), ("A2", 4, "group_ring"), ("D4", 2, "ray"),
     ("E6", 1, "ray"), ("E7", 2, "ray"), ("E8", 1, "ray")],
)
def test_kw_types(label, order, mode):
    rep = verify_kw(label, order, mode)
    assert rep.status == "pass"


def test_verifiers_refuse_a_side_known_short_of_the_order(monkeypatch):
    # series_equal alone would compare through q^1 only and pass
    full = levels.kw_lhs_character

    def short(rs, order, mode="group_ring", xi=None):
        return full(rs, order, mode, xi).truncate(order - 1)

    monkeypatch.setattr(levels, "kw_lhs_character", short)
    with pytest.raises(AssertionError, match="below the requested order 2"):
        verify_kw("A2", 2)
    assert series_equal(short(A2, 2), lattice_theta(make_context(A2), 2)) is None

    coset = levels.assemble_coset_character

    def short_coset(rs, kappa, order, mode="group_ring", xi=None):
        return coset(rs, kappa, order, mode, xi).truncate(order - 1)

    monkeypatch.setattr(levels, "assemble_coset_character", short_coset)
    with pytest.raises(AssertionError, match="below the requested order 2"):
        verify_gko("A1", 2)


# canonical JSON of first_mismatch for A2 q^2 with the RHS bumped at q^1: by
# e^{alpha_1} in trivial and ray, and in group_ring, whose sides live in the
# W-invariant ring, by the orbit sum of alpha_1 (digest recorded with the
# monomial group ring, before the sides moved to the invariant ring)
BUMPED_RHS_MISMATCH = {
    "group_ring": "bd9c5a213b9323d67c81f31b8afdf9cfbb433d1ab60c947c10f0e25ac23fe52d",
    "trivial": "63854f77c19a2f19822454f70617802eb074e2832f970ccc7394e5492945ad76",
    "ray": "44160719f815fb8a6541d5f62ae25f9cbddedeed68ff2523941f33db3ad07141",
}


def _bump(rs, mode):
    alpha = rs.simple_roots[0]
    if mode != "group_ring":
        return GroupRingElt({alpha: 1})
    return GroupRingElt(dict.fromkeys(rs.weyl_orbit(dominant_representative(rs, alpha)), 1))


def _bumped_rhs(bump):
    rhs = levels.coset_rhs_character

    def bumped(rs, kappa, order, mode="group_ring", xi=None):
        f = rhs(rs, kappa, order, mode, xi)
        ctx = f.context
        return f.add(GradedCharacter(ctx, order, {1: ctx.project(bump(rs, mode))}))

    return bumped


@pytest.mark.parametrize("mode", sorted(BUMPED_RHS_MISMATCH))
def test_negative_control_reports_the_same_first_mismatch(monkeypatch, mode):
    # series_equal compares coefficients with !=; the report of a perturbed
    # RHS must still name the same exponent and the same two coefficients
    bumped = _bumped_rhs(_bump)

    monkeypatch.setattr(levels, "coset_rhs_character", bumped)
    rep = verify_gko("A2", 2, mode)
    assert rep.status == "fail"
    assert rep.first_mismatch["exponent"] == "1"
    assert rep.first_mismatch["comparison"] == "lhs[kappa=0] vs rhs"
    text = json.dumps(rep.first_mismatch, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BUMPED_RHS_MISMATCH[mode]


# canonical JSON of first_mismatch for verify_kw A2 q^2 in group_ring with
# Theta_Q bumped at q^1 by the orbit sum of alpha_1 (recorded while
# make_context's group_ring was still the monomial group ring)
BUMPED_THETA_MISMATCH = "a9be251fd3bc4dd3c9ade67b420e14ed5908e278d2fc453efaea54214e1ac220"


def test_kw_negative_control_in_group_ring(monkeypatch):
    theta = levels.lattice_theta

    def bumped(ctx, order):
        f = theta(ctx, order)
        return f.add(GradedCharacter(ctx, order, {1: ctx.project(_bump(ctx.rs, "group_ring"))}))

    monkeypatch.setattr(levels, "lattice_theta", bumped)
    rep = verify_kw("A2", 2)
    assert rep.status == "fail"
    assert rep.first_mismatch["exponent"] == "1"
    assert rep.first_mismatch["comparison"] == "alternating sum vs theta"
    text = json.dumps(rep.first_mismatch, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BUMPED_THETA_MISMATCH


def test_group_ring_sides_refuse_a_non_invariant_bump(monkeypatch):
    # e^{alpha_1} alone is not W-invariant, so the invariant ring rejects it
    monkeypatch.setattr(levels, "coset_rhs_character",
                        _bumped_rhs(lambda rs, mode: GroupRingElt({rs.simple_roots[0]: 1})))
    with pytest.raises(UsageError, match="non-invariant"):
        verify_gko("A2", 2)


def test_kappa_independence_reports_the_first_mismatch(monkeypatch):
    # both sides known one power of q beyond the RHS and different there: each
    # matches the RHS, and the kappa check names the exponent where they part
    coset = levels.assemble_coset_character
    second = default_kappa_samples(A1, 2)[1]

    def deeper(rs, kappa, order, mode="group_ring", xi=None):
        f = coset(rs, kappa, order + 1, mode, xi)
        if kappa == second:
            f = f.add(GradedCharacter(f.context, f.order, {order + 1: f.context.one()}))
        return f

    monkeypatch.setattr(levels, "assemble_coset_character", deeper)
    rep = verify_gko("A1", 2)
    assert rep.status == "fail"
    assert rep.first_mismatch["comparison"] == "kappa-independence 1 vs 1/2"
    assert rep.first_mismatch["exponent"] == "3"


@pytest.mark.parametrize("mode,spec", [("group_ring", "full"), ("trivial", "trivial"), ("ray", "ray")])
def test_negative_control_a_dropped_lambda_fails_at_its_top_weight(monkeypatch, capsys, mode, spec):
    # with ch L_theta taken as zero the coset sum loses its theta-summand,
    # which starts at q^{|theta|^2/2} = q^1; the first kappa sample fails there
    theta = A2.highest_root
    ring = type(make_context(A2, mode))
    irreducible = ring.irreducible

    def dropping_theta(self, lam):
        return self.czero() if tuple(lam) == theta else irreducible(self, lam)

    monkeypatch.setattr(ring, "irreducible", dropping_theta)
    rep = verify_gko("A2", 2, mode)
    assert rep.status == "fail"
    first = rat_str(default_kappa_samples(A2)[0])
    assert rep.first_mismatch["comparison"] == f"lhs[kappa={first}] vs rhs"
    assert rep.first_mismatch["exponent"] == rat_str(A2.norm2(theta) / 2) == "1"
    assert cli.main(["verify-gko", "--type", "A2", "--order", "2", "--spec", spec]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def _later_second_leads(monkeypatch):
    """Start every lam != 0 summand of A2's second default kappa sample one
    power of q later, so its side differs from the first sample's and the RHS."""
    second = default_kappa_samples(A2, 2)[1]
    top = levels.conformal_top_weight

    def later(rs, lam, kappa):
        h = top(rs, lam, kappa)
        return h + 1 if kappa.value == second and any(lam) else h

    monkeypatch.setattr(levels, "conformal_top_weight", later)


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
def test_sides_and_one_over_d_share_one_euler_series(mode):
    # euler_product applies the e^0 factors apart from the rest, so the coset
    # sides (ch g + rank e^0) and 1/D (ch g) read one cached series of
    # sum_{alpha in Delta} e^alpha; the other series are (q;q)^{-2 rank} for
    # the sides and (q;q)^{-rank} for 1/D and the lattice character.  In
    # trivial every key is an integer, so only the key set tells the split
    # from a fold of e^0 into the rest
    rs = build_root_system("A3")
    kappas = default_kappa_samples(rs, 2)
    for kappa in kappas:
        assemble_coset_character(rs, kappa, 4, mode)
    coset_rhs_character(rs, kappas[0], 4, mode)
    ctx = make_context(rs, mode)
    cartan = characters._cartan_char(rs)
    roots = characters._adjoint_char(rs) - cartan
    assert set(ctx._euler) == {ctx.project(cartan), ctx.project(cartan.scale(2)), ctx.project(roots)}
    unit = set(getattr(ctx.one(), "terms", ()))
    non_scalar = [c for c in ctx._euler if not set(getattr(c, "terms", ())) <= unit]
    assert len(non_scalar) == (0 if mode == "trivial" else 1)


@pytest.mark.parametrize("order,n_lams", [(2, 2), (4, 5)])
def test_gko_divides_once_per_side(monkeypatch, order, n_lams):
    # one S_kappa / ((q;q)^rank D) per distinct summand list, and a RHS of 1/D
    # and Theta_Q / (q;q)^rank: three Euler products when the two kappa
    # samples' leads agree and four when they differ, however many
    # lambda-summands
    calls = []
    euler_product = characters.euler_product

    def counted(f, char):
        calls.append(char)
        return euler_product(f, char)

    monkeypatch.setattr(characters, "euler_product", counted)
    monkeypatch.setattr(levels, "euler_product", counted)
    assert len(A2.dominant_weights_in_root_lattice(order)) == n_lams
    for mode in ["group_ring", "trivial", "ray"]:
        calls.clear()
        assert verify_gko("A2", order, mode).status == "pass"
        assert len(calls) == 3
    _later_second_leads(monkeypatch)
    for mode in ["group_ring", "trivial", "ray"]:
        calls.clear()
        assert verify_gko("A2", order, mode).status == "fail"
        assert len(calls) == 4


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
def test_kappa_samples_with_equal_leads_share_one_side(mode):
    rs = build_root_system("A2")
    first, second = default_kappa_samples(rs, 2)
    side = assemble_coset_character(rs, first, 3, mode)
    assert assemble_coset_character(rs, second, 3, mode) is side
    assert assemble_coset_character(rs, F(7, 5), 3, mode) is side
    # another order or another root system is another key
    assert assemble_coset_character(rs, second, 2, mode) is not side
    assert assemble_coset_character(build_root_system("A2"), second, 3, mode) is not side


# canonical JSON of first_mismatch for A2 q^2 with every lam != 0 summand of
# the second default kappa sample started one power of q later (recorded
# while each kappa sample still built its own side)
LATER_LEAD_MISMATCH = {
    "group_ring": "84ea859dd66d14cc5d734b340a07251961983fdfedada6c2af2c37c0b9f08de0",
    "trivial": "b0eaca4cab7f263457b88cb0968fa3baae98f296f9549f91a0350e89b88ad2dd",
    "ray": "6b839733c703ff70f652dcfc88540d799ee46b01fd2b458f3f771282f339481a",
}


@pytest.mark.parametrize("mode", sorted(LATER_LEAD_MISMATCH))
def test_a_kappa_with_other_leads_builds_its_own_side(monkeypatch, mode):
    _later_second_leads(monkeypatch)
    first, second = default_kappa_samples(A2, 2)
    rs = build_root_system("A2")
    assert assemble_coset_character(rs, second, 2, mode) is not assemble_coset_character(rs, first, 2, mode)
    rep = verify_gko("A2", 2, mode)
    assert rep.status == "fail"
    assert rep.first_mismatch["comparison"] == f"lhs[kappa={rat_str(second)}] vs rhs"
    assert rep.first_mismatch["exponent"] == "1"
    text = json.dumps(rep.first_mismatch, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LATER_LEAD_MISMATCH[mode]


def test_kw_usage_errors():
    with pytest.raises(UsageError):
        verify_kw("G2", 2)
    with pytest.raises(UsageError):
        verify_kw("A1", F(-1, 2))


# -- specialized verification modes ----------------------------------------------


def test_gko_trivial_and_ray_modes():
    assert verify_gko("A1", 4, "trivial").status == "pass"
    assert verify_gko("A1", 3, "ray").status == "pass"
    assert verify_gko("A2", 2, "ray", xi=weight([1, 1])).status == "pass"
    assert verify_gko("E6", 1, "ray").status == "pass"
    assert verify_gko("E6", 2, "ray").status == "pass"


def test_specialized_sides_match_specialized_full():
    # specializing the assembled group-ring series equals assembling in the
    # specialized coefficient ring directly
    full = assemble_coset_character(A2, F(1, 5), 2)
    triv = assemble_coset_character(A2, F(1, 5), 2, "trivial")
    assert series_equal(specialize(full, "trivial"), triv) is None
