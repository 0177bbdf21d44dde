"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every comparison is exact; there are no tolerances
to tune anywhere in this file.
"""

import random
from fractions import Fraction as F

import pytest

from liechar import (
    GroupRingContext,
    GroupRingElt,
    alt2_decompose,
    assemble_coset_character,
    build_root_system,
    casimir,
    chevalley_structure,
    classify_extension,
    conformal_weight,
    conformal_weight_closed,
    coset_rhs_character,
    equivariant_hom_dim,
    ff_dual_level,
    finite_char,
    gluing_levels,
    invariant_forms,
    kernel_partner_level,
    langlands_dual,
    level,
    pochhammer_inverse,
    series_equal,
    singular_constraints,
    takiff,
    verify_gko,
    verify_kw,
    weight,
)
from liechar.linalg import sqrt_rational
from oracles import isqrt_rational_floor, orbit_alternating_sum, specialize


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_levels(rng, rs, count, n=1):
    out = []
    while len(out) < count:
        kap = F(rng.randint(-40, 40), rng.randint(1, 12))
        shifted = kap + rs.dual_coxeter
        if shifted == 0 or F(1) / shifted == rs.lacity * n:
            continue
        out.append(kap)
    return out


def dominant_integral_ball(rs, norm_bound):
    caps = [isqrt_rational_floor(F(norm_bound) / rs.quadratic_form[i][i]) for i in range(rs.rank)]
    out = []

    def rec(i, coords):
        if i == rs.rank:
            lam = weight(coords)
            if rs.norm2(lam) <= norm_bound:
                out.append(lam)
            return
        for c in range(caps[i] + 1):
            rec(i + 1, coords + [c])

    rec(0, [])
    return out


def test_criterion_1_gko_identity():
    runs = [
        ("A1", 8, "group_ring"),
        ("A2", 8, "group_ring"),
        ("A3", 5, "group_ring"),
        ("D4", 4, "trivial"),
    ]
    ok = True
    for label, order, mode in runs:
        rep = verify_gko(label, order, mode)
        ok = ok and rep.status == "pass" and rep.first_mismatch is None
    report(1, "coset character identity (A1/A2 q^8, A3 q^5, D4 q^4 trivial)", ok)


def test_criterion_2_kappa_independence():
    runs = [
        ("A1", 8, "group_ring", [F(1, 3), F(7, 2)]),
        ("A2", 8, "group_ring", [F(-1, 2), F(11, 7)]),
        ("A3", 5, "group_ring", [F(1, 5), F(3)]),
        ("D4", 4, "trivial", [F(1, 2), F(13, 3)]),
    ]
    ok = True
    for label, order, mode, kappas in runs:
        # each side on its own root system, so two independently built sides
        # are compared, not the one side a shared context hands to both kappas
        sides = [
            assemble_coset_character(build_root_system(label), k, order, mode).canonical_str()
            for k in kappas
        ]
        ok = ok and sides[0] == sides[1]
    report(2, "kappa-independence of the assembled sum (byte-identical)", ok)


def test_criterion_3_kw_identity():
    ok = True
    for label, order, mode in [("A1", 8, "group_ring"), ("A2", 8, "group_ring"), ("D4", 3, "ray")]:
        rep = verify_kw(label, order, mode)
        ok = ok and rep.status == "pass"
    report(3, "lattice theta identity (A1/A2 q^8, D4 q^3 ray)", ok)


def test_criterion_4_conformal_weight_formula():
    rng = random.Random(41)
    ok = True
    for label in ["A1", "A2", "A3", "B2", "D4", "G2"]:
        rs = build_root_system(label)
        lams = rs.dominant_weights_in_root_lattice(4)  # (lam, lam) <= 8
        for n in (1, 2, 3):
            for kap in random_levels(rng, rs, 5, n):
                for lam in lams:
                    closed = conformal_weight_closed(rs, lam, n)
                    ok = ok and conformal_weight(rs, lam, kap, n) == closed
                    if any(c != 0 for c in lam):
                        ok = ok and closed > 0
    report(4, "conformal-weight formula (two-term == closed, h > 0 on Q+\\{0})", ok)


def test_criterion_5_level_arithmetic():
    rng = random.Random(53)
    ok = True
    for label in ["A1", "A2", "A3", "B2", "G2", "D4"]:
        rs = build_root_system(label)
        dual = langlands_dual(rs)
        for kap in random_levels(rng, rs, 10):
            kv = level(rs, kap)
            back = ff_dual_level(ff_dual_level(kv))
            ok = ok and back.value == kap
            partner = kernel_partner_level(kv, 1)
            ok = ok and kernel_partner_level(partner, 1).value == kap
            ok = ok and F(1) / kv.shifted + F(1) / partner.shifted == rs.lacity
        for kap in random_levels(rng, dual, 10):
            kd = level(dual, kap)
            if kd.shifted + 1 == 0:
                continue
            kappa, varkappa = gluing_levels(kd, 1)
            ok = ok and rs.lacity * kappa.shifted * kd.shifted == 1
            ok = ok and F(1) / (-kappa.shifted) + F(1) / varkappa.shifted == rs.lacity
    report(5, "level arithmetic (ff-dual / kernel involutions, gluing)", ok)


def test_criterion_6_takiff_form_spaces():
    ok = True
    for label in ["A1", "A2", "B2"]:
        ls = chevalley_structure(label)
        ok = ok and invariant_forms(ls).dimension == 1
        tak = takiff(ls)
        space = invariant_forms(tak)
        d = ls.dimension
        ok = ok and space.dimension == 2
        for form in space.basis:
            ok = ok and all(
                form[i][j] == 0 for i in range(d, 2 * d) for j in range(d, 2 * d)
            )
    report(6, "dim B(T(g)) = 2 with vanishing gt-gt block; dim B(g) = 1", ok)


def test_criterion_7_wedge_square_hom():
    ok = True
    for label in ["A1", "A2", "B2"]:
        ls = chevalley_structure(label)
        ok = ok and equivariant_hom_dim("alt2_adjoint", "adjoint", ls) == 1
        rs = build_root_system(label)
        theta = rs.highest_root
        dec = alt2_decompose(rs, theta)
        ok = ok and dec[theta] == 1
        for lam in dec:
            if lam != theta:
                ok = ok and casimir(rs, lam) != 2 * rs.dual_coxeter
    report(7, "dim Hom(wedge^2 ad, ad) = 1 two ways; Casimir exclusion", ok)


def test_criterion_8_extension_classification():
    rng = random.Random(67)
    ok = True
    count_takiff = count_split = 0
    while count_takiff < 20:
        beta = F(rng.randint(-9, 9), rng.randint(1, 6))
        res = classify_extension(-beta * beta / 4, beta)
        ok = ok and res.kind == "takiff_iso" and res.witnesses[0] == (-beta / 2, 1)
        count_takiff += 1
    while count_split < 20:
        alpha = F(rng.randint(-9, 9), rng.randint(1, 6))
        beta = F(rng.randint(-9, 9), rng.randint(1, 6))
        disc = 4 * alpha + beta * beta
        if disc == 0:
            continue
        res = classify_extension(alpha, beta)  # raises if any witness check fails
        ok = ok and res.kind == "direct_sum_iso"
        p_plus, p_minus = res.eigenvalues
        s = p_plus + p_minus + beta
        p = p_plus * p_minus + alpha
        ok = ok and (s == 0 if not hasattr(s, "is_zero") else s.is_zero())
        ok = ok and (p == 0 if not hasattr(p, "is_zero") else p.is_zero())
        count_split += 1
    report(8, "square-zero extension classification (20 random per branch)", ok)


def test_criterion_9_singular_constraints():
    rng = random.Random(71)
    expected = {
        "aa": {"variable": "kappa1", "roots": ["0", "1"]},
        "bb": {"variable": "kappa2", "roots": ["0", "1"]},
        "ab": {"product_of": ["kappa1", "kappa2"]},
    }
    ok = True
    for c in singular_constraints():
        ok = ok and c.root_set == expected[c.pair]
    for _ in range(5):
        scales = [
            F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(4)
        ]
        for c in singular_constraints(scale_e=scales[:2], scale_f=scales[2:]):
            ok = ok and c.root_set == expected[c.pair]
    report(9, "singular-vector constraint polynomials and root sets", ok)


def test_criterion_10_infrastructure():
    ok = True
    # partition oracle for the Euler factor
    a1 = build_root_system("A1")
    ctx = GroupRingContext(a1)
    dp = [1] + [0] * 30
    for m in range(1, 31):
        for k in range(m, 31):
            dp[k] += dp[k - m]
    triv = specialize(pochhammer_inverse(ctx, weight([0]), 1, 30), "trivial")
    ok = ok and all(triv.coeff(k) == dp[k] for k in range(31))
    # ring laws on sampled series
    rng = random.Random(73)
    a2 = build_root_system("A2")
    ctx2 = GroupRingContext(a2)
    from liechar import GradedCharacter

    def rand_series():
        terms = {}
        for _ in range(4):
            e = F(rng.randint(0, 8), rng.choice([1, 2]))
            if e <= 4:
                terms[e] = GroupRingElt(
                    {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)}
                )
        return GradedCharacter(ctx2, 4, terms)

    for _ in range(5):
        f, g, h = rand_series(), rand_series(), rand_series()
        ok = ok and series_equal(f.mul(g), g.mul(f)) is None
        ok = ok and series_equal(f.mul(g.add(h)), f.mul(g).add(f.mul(h))) is None
        ok = ok and series_equal(f.mul(g).mul(h), f.mul(g.mul(h))) is None
    # Freudenthal vs Weyl dimension and vs the alternating orbit sum
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        rs = build_root_system(label)
        a_rho = orbit_alternating_sum(rs, rs.rho)
        for lam in dominant_integral_ball(rs, 4):
            fc = finite_char(rs, lam)
            ok = ok and fc.dimension() == rs.weyl_dimension(lam)
            lam_rho = weight(c + 1 for c in lam)
            ok = ok and fc.multiplicities * a_rho == orbit_alternating_sum(rs, lam_rho)
    report(10, "q-series ring laws, partition oracle, Freudenthal cross-checks", ok)
