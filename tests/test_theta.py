"""Theta_Q in ``trivial`` and ``ray`` by the transfer over the Dynkin tree
(``RootSystem.theta_counts``), against the W-orbit walk it replaces
(``oracles.theta_by_orbits``) and against closed forms (E4 on E8, the
Borweins' a(q) on A2), and the alternating-sum side of the lattice identity
against the same closed forms and, in ``group_ring``, against Theta_Q on
E6-E8.
"""

from fractions import Fraction as F

import pytest

from liechar import (
    UsageError,
    build_root_system,
    lattice_theta,
    make_context,
    verify_gko,
    verify_kw,
)
from liechar.levels import kw_lhs_character
from oracles import theta_by_orbits

RANK_LE_6 = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2"]
)


def _contexts(rs):
    """trivial, ray along rho_check, and ray along a rational xi."""
    xi = tuple(F(i + 1, 3) for i in range(rs.rank))
    return [make_context(rs, "trivial"), make_context(rs, "ray"), make_context(rs, "ray", xi)]


@pytest.mark.parametrize("label", RANK_LE_6)
def test_transfer_matches_the_orbit_walk(label):
    rs = build_root_system(label)
    orders = [0, 1, 2, 3, 4] + ([F(5, 2)] if rs.lacity > 1 else [])
    for ctx in _contexts(rs):
        for order in orders:
            got = lattice_theta(ctx, order).canonical_str()
            assert got == theta_by_orbits(ctx, order).canonical_str(), (ctx.describe(), order)


@pytest.mark.parametrize("label", ["A1", "B2", "G2", "E6"])
def test_negative_order_raises(label):
    rs = build_root_system(label)
    for ctx in _contexts(rs) + [make_context(rs, "group_ring")]:
        with pytest.raises(UsageError):
            lattice_theta(ctx, -1)
        with pytest.raises(UsageError):
            lattice_theta(ctx, F(-1, 2))


def test_theta_counts_grades_by_the_functional():
    # A1: lam = c alpha, (lam, lam)/2 = c^2, graded by t c
    assert build_root_system("A1").theta_counts(4, [3]) == {
        (0, 0): 1, (1, 3): 1, (1, -3): 1, (4, 6): 1, (4, -6): 1}


def _power(series, n, top):
    out = [1] + [0] * top
    for _ in range(n):
        out = [sum(out[i] * series[k - i] for i in range(k + 1)) for k in range(top + 1)]
    return out


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_dn_theta_is_half_the_sum_of_theta3_and_theta4_powers(n):
    # D_n = {x in Z^n : sum x even} with (lam, lam)/2 = |x|^2/2: in s = q^(1/2),
    # Theta = (theta_3(s)^n + theta_4(s)^n)/2, theta_3 = sum_k s^(k^2) and
    # theta_4 = sum_k (-1)^k s^(k^2) (Conway and Sloane, SPLAG, ch. 4)
    order = 8
    top = 2 * order
    theta3 = [0] * (top + 1)
    theta4 = [0] * (top + 1)
    for k in range(-top, top + 1):
        if k * k <= top:
            theta3[k * k] += 1
            theta4[k * k] += (-1) ** k
    both = [a + b for a, b in zip(_power(theta3, n, top), _power(theta4, n, top))]
    theta = lattice_theta(make_context(build_root_system(f"D{n}"), "trivial"), order)
    assert [theta.coeff(m) for m in range(order + 1)] == [both[2 * m] // 2 for m in range(order + 1)]
    assert not any(both[1::2])


def test_e8_ray_verifiers_reach_their_orders():
    # Theta_Q by the transfer leaves E8 q^14 verify_kw in ray well under a second
    kw = verify_kw("E8", 14, "ray")
    assert kw.status == "pass" and kw.order == 14
    gko = verify_gko("E8", 8, "ray")
    assert gko.status == "pass" and gko.order == 8


def _e4(top):
    """E4 = 1 + 240 sum_n sigma_3(n) q^n through q^top, as {n: coefficient}."""
    return {0: 1, **{n: 240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                     for n in range(1, top + 1)}}


def test_e8_theta_is_the_eisenstein_series_e4():
    # E8 is even unimodular, so its theta series is the weight-4 modular form
    # E4 (Conway and Sloane, SPLAG, ch. 4)
    theta = lattice_theta(make_context(build_root_system("E8"), "trivial"), 80)
    assert theta.order == 80 and theta.terms == _e4(80)


def test_a2_theta_is_the_borwein_cubic_theta():
    # a(q) = sum_{m, n} q^(m^2 + mn + n^2) = 1 + 6 sum_n (d_1,3(n) - d_2,3(n)) q^n,
    # d_r,3(n) the number of divisors of n that are r mod 3 (Borwein and
    # Borwein, Trans. AMS 323, 1991)
    a = {0: 1}
    for n in range(1, 61):
        c = 6 * sum((d % 3 == 1) - (d % 3 == 2) for d in range(1, n + 1) if n % d == 0)
        if c:
            a[n] = c
    theta = lattice_theta(make_context(build_root_system("A2"), "trivial"), 60)
    assert theta.order == 60 and theta.terms == a


def test_e8_alternating_sum_side_is_e4():
    # the lambda-sum, the Weyl dimensions and the alternating numerators
    # against a modular form, with no code from theta_counts
    lhs = kw_lhs_character(build_root_system("E8"), 80, "trivial")
    assert lhs.order == 80 and lhs.terms == _e4(80)


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_group_ring_alternating_sum_side_is_theta_at_high_rank(label):
    # the coefficients as dominant-weight maps: the JSON would expand every
    # E8 orbit sum to its monomials
    rs = build_root_system(label)
    lhs = kw_lhs_character(rs, 20, "group_ring")
    assert lhs.order == 20 and lhs.terms == lattice_theta(make_context(rs, "group_ring"), 20).terms
