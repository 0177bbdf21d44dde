from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    UsageError,
    alternating_sum,
    build_root_system,
    cartan_isomorphic,
    langlands_dual,
    weight,
)
from liechar.linalg import mat_inverse
from oracles import dominant_representative

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "D5", "E6", "E7", "E8", "F4", "G2"]

# classical values, used as an independent cross-check of the construction
KNOWN = {
    # type: (num positive roots, dual Coxeter, lacity)
    "A1": (1, 2, 1), "A2": (3, 3, 1), "A3": (6, 4, 1), "A4": (10, 5, 1),
    "B2": (4, 3, 2), "B3": (9, 5, 2), "B4": (16, 7, 2),
    "C2": (4, 3, 2), "C3": (9, 4, 2), "C4": (16, 5, 2),
    "D4": (12, 6, 1), "D5": (20, 8, 1),
    "E6": (36, 12, 1), "E7": (63, 18, 1), "E8": (120, 30, 1),
    "F4": (24, 9, 2), "G2": (6, 4, 3),
}

WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
               "D4": 192, "G2": 12, "F4": 1152, "E6": 51840}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_construction_invariants(label):
    rs = build_root_system(label)
    npos, hvee, lacity = KNOWN[label]
    assert len(rs.positive_roots) == npos
    assert rs.dual_coxeter == hvee
    assert rs.lacity == lacity
    assert rs.dimension() == rs.rank + 2 * npos
    # normalization and Weyl vector pairings
    assert rs.inner(rs.highest_root, rs.highest_root) == 2
    for alpha in rs.simple_roots:
        assert 2 * rs.inner(rs.rho, alpha) / rs.inner(alpha, alpha) == 1
        assert rs.inner(rs.rho_check, alpha) == 1
    # cartan matrix sanity
    for i, row in enumerate(rs.cartan_matrix):
        assert row[i] == 2
        assert all(x <= 0 for j, x in enumerate(row) if j != i)
    # dual Coxeter recomputed from first principles: 1 + (rho, theta^vee)
    theta = rs.highest_root
    assert rs.dual_coxeter == 1 + 2 * rs.inner(rs.rho, theta) / rs.inner(theta, theta)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "D4", "E6", "E7", "E8"])
def test_simply_laced_rho_equals_rho_check(label):
    rs = build_root_system(label)
    assert rs.rho == rs.rho_check
    assert rs.lacity == 1


def test_inner_product_examples():
    a1 = build_root_system("A1")
    alpha = a1.simple_roots[0]
    assert a1.inner(alpha, alpha) == 2
    assert a1.inner(a1.rho, a1.rho) == F(1, 2)
    a2 = build_root_system("A2")
    assert a2.inner(a2.simple_roots[0], a2.simple_roots[1]) == -1
    with pytest.raises(UsageError):
        a2.inner(alpha, a2.rho)  # wrong rank


def test_parse_labels():
    assert build_root_system("d4").type_label == "D4"
    assert build_root_system("G_2").type_label == "G2"
    for bad in ["H3", "A0", "D3", "E9", "F5", "xyz", "B"]:
        with pytest.raises(UsageError):
            build_root_system(bad)


def test_langlands_dual():
    a2 = build_root_system("A2")
    assert langlands_dual(a2).cartan_matrix == a2.cartan_matrix
    b2 = build_root_system("B2")
    c2 = langlands_dual(b2)
    assert c2.type_label == "C2"
    n = b2.rank
    assert all(
        c2.cartan_matrix[i][j] == b2.cartan_matrix[j][i]
        for i in range(n) for j in range(n)
    )
    g2 = build_root_system("G2")
    g2d = langlands_dual(g2)
    assert g2d.type_label == "G2"
    # long/short roles swap: symmetrizers are permuted
    assert sorted(g2d.symmetrizer) == sorted(g2.symmetrizer)
    assert g2d.symmetrizer != g2.symmetrizer


@pytest.mark.parametrize("label", ["A2", "B3", "C4", "D4", "F4", "G2"])
def test_dual_is_involution_up_to_iso(label):
    rs = build_root_system(label)
    double = langlands_dual(langlands_dual(rs))
    assert double.type_label == rs.type_label
    assert cartan_isomorphic(double.cartan_matrix, rs.cartan_matrix)


def test_weyl_orbits():
    a2 = build_root_system("A2")
    assert len(a2.weyl_orbit(weight([1, 0]))) == 3
    assert a2.weyl_orbit(weight([0, 0])) == [weight([0, 0])]
    a1 = build_root_system("A1")
    assert a1.weyl_orbit_signed(a1.rho) == [(weight([-1]), -1), (weight([1]), 1)]
    with pytest.raises(UsageError):
        a2.weyl_orbit(weight([-1, 0]))
    with pytest.raises(UsageError):
        a2.weyl_orbit_signed(weight([1, 0]))  # not regular


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "D4", "G2"])
def test_orbit_sizes_divide_weyl_order(label):
    rs = build_root_system(label)
    if label in WEYL_ORDERS:
        assert rs.weyl_order == WEYL_ORDERS[label]
    samples = [rs.rho, rs.highest_root, weight([1] + [0] * (rs.rank - 1))]
    for lam in samples:
        assert rs.weyl_order % len(rs.weyl_orbit(lam)) == 0
    assert len(rs.weyl_orbit_signed(rs.rho)) == rs.weyl_order


RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


def _reflect_orbit(rs, lam):
    """Breadth-first closure under rs.reflect with a set of seen elements,
    the oracle of weyl_orbit's parent-tree walk."""
    lam = weight(lam)
    seen, frontier = {lam}, [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rs.rank):
                nu = rs.reflect(i, mu)
                if nu not in seen:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("label", RANK_LE_4 + ["E6"])
def test_weyl_orbit_matches_reflect_walk(label):
    rs = build_root_system(label)
    first = [1] + [0] * (rs.rank - 1)
    samples = [rs.rho, rs.highest_root, weight([2 * c for c in first]), weight(first[::-1]),
               weight([0] * rs.rank)]
    for lam in samples:
        got, expect = rs.weyl_orbit(lam), _reflect_orbit(rs, lam)
        assert got == expect
        assert all(type(c) is int for w in got for c in w)


def test_weight_is_an_int_tuple():
    w = weight([F(2), F(-4, 2), 0])
    assert w == (2, -2, 0) and all(type(c) is int for c in w)
    assert weight(c for c in (1, 2)) == (1, 2)
    with pytest.raises(UsageError, match="not integral"):
        weight([F(1, 2), 0])


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_weyl_operations_reject_half_integral_weights(label):
    rs = build_root_system(label)
    half = (F(1, 2),) + (1,) * (rs.rank - 1)  # dominant and regular, but not integral
    for op in (rs.weyl_orbit, rs.weyl_orbit_signed, rs.weyl_dimension, rs.star,
               lambda lam: dominant_representative(rs, lam)):
        with pytest.raises(UsageError, match="not integral"):
            op(half)


@st.composite
def _dominant_weights(draw):
    rs = build_root_system(draw(st.sampled_from(RANK_LE_4)))
    return rs, tuple(draw(st.integers(0, 2)) for _ in range(rs.rank))


@settings(max_examples=60, deadline=None)
@given(_dominant_weights())
def test_dominant_representative_inverts_weyl_orbit(case):
    rs, lam = case
    for nu in rs.weyl_orbit(lam):
        assert dominant_representative(rs, nu) == lam


@st.composite
def _regular_dominant_and_bound(draw):
    rs = build_root_system(draw(st.sampled_from(RANK_LE_4)))
    lam = [draw(st.integers(0, 2)) for _ in range(rs.rank)]
    mu = weight(c + 1 for c in lam)
    top = 2 * rs.inner(mu, rs.rho)  # depth of w_0, the deepest element
    bound = F(draw(st.integers(-2, 2 * int(top) + 2)), 2)
    return rs, mu, bound


@settings(max_examples=80, deadline=None)
@given(_regular_dominant_and_bound())
def test_alternating_sum_matches_full_signed_orbit(case):
    # the full signed orbit, filtered by depth, is the oracle of the walk
    rs, mu, bound = case
    oracle = {}
    full = {}
    for nu, par in rs.weyl_orbit_signed(mu):
        depth = rs.inner(weight(m - n for m, n in zip(mu, nu)), rs.rho)
        full[nu] = (depth, par)
        if depth <= bound:
            oracle[depth] = oracle.get(depth, 0) + par
    oracle = {d: c for d, c in oracle.items() if c}
    got = alternating_sum(rs, mu, bound)
    assert got == oracle
    assert list(got) == sorted(got)
    walk = list(rs.weyl_orbit_descending(mu, bound))
    walked = {nu: (depth, par) for nu, depth, par in walk}
    assert len(walked) == len(walk)  # each element once
    assert walked == {nu: dp for nu, dp in full.items() if dp[0] <= bound}
    deepest = max(depth for depth, _ in full.values())
    assert deepest == 2 * rs.inner(mu, rs.rho)
    everything = list(rs.weyl_orbit_descending(mu, deepest + 1))
    assert len(everything) == rs.weyl_order


def test_alternating_sum_rejects_non_regular_or_non_dominant():
    b3 = build_root_system("B3")
    assert alternating_sum(b3, b3.rho, 0) == {0: 1}
    assert alternating_sum(b3, b3.rho, F(-1, 2)) == {}
    with pytest.raises(UsageError):
        alternating_sum(b3, weight([1, 0, 1]), 4)  # not regular
    with pytest.raises(UsageError):
        alternating_sum(b3, weight([1, -1, 1]), 4)  # not dominant
    with pytest.raises(UsageError):
        alternating_sum(b3, weight([1, 1]), 4)  # wrong rank


def test_star():
    a1 = build_root_system("A1")
    assert a1.star(weight([3])) == weight([3])
    a2 = build_root_system("A2")
    assert a2.star(weight([1, 0])) == weight([0, 1])
    d4 = build_root_system("D4")
    assert d4.star(weight([1, 0, 0, 0])) == weight([1, 0, 0, 0])
    with pytest.raises(UsageError):
        a2.star(weight([-1, 0]))


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "D4", "G2"])
def test_star_involution_and_isometry(label):
    rs = build_root_system(label)
    for lam in rs.dominant_weights_in_root_lattice(3):
        star = rs.star(lam)
        assert rs.star(star) == lam
        assert rs.norm2(star) == rs.norm2(lam)
        assert rs.in_root_lattice(star)


def test_dominant_weights_in_root_lattice():
    a1 = build_root_system("A1")
    assert a1.dominant_weights_in_root_lattice(0) == [weight([0])]
    assert a1.dominant_weights_in_root_lattice(1) == [weight([0]), a1.highest_root]
    a2 = build_root_system("A2")
    assert a2.dominant_weights_in_root_lattice(1) == [weight([0, 0]), a2.highest_root]
    # sorted by norm then lex, no duplicates
    ws = a2.dominant_weights_in_root_lattice(6)
    assert len(set(ws)) == len(ws)
    norms = [a2.norm2(w) for w in ws]
    assert norms == sorted(norms)


SYSTEMS = {label: build_root_system(label) for label in ALL_TYPES}


@st.composite
def _form_arguments(draw):
    rs = SYSTEMS[draw(st.sampled_from(ALL_TYPES))]
    ints = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    rationals = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=6)] * rs.rank)
    return rs, draw(ints), draw(st.one_of(ints, st.just(rs.rho_check), rationals))


@settings(max_examples=200, deadline=None)
@given(_form_arguments())
def test_integer_form_matches_fraction_form(case):
    # inner sums den * (omega_i, omega_j) in ints and in_root_lattice reduces
    # den' * A^{-T} lam mod den'; the oracles solve over Fractions directly
    rs, lam, xi = case
    n = rs.rank
    expect = sum((li * rs.quadratic_form[i][j] * xj for i, li in enumerate(lam)
                  for j, xj in enumerate(xi)), F(0))
    for got in (rs.inner(lam, xi), rs.inner(xi, lam)):
        assert type(got) is F and got == expect
    ainv_t = mat_inverse([[rs.cartan_matrix[j][i] for j in range(n)] for i in range(n)])
    coords = [sum(ainv_t[i][j] * lam[j] for j in range(n)) for i in range(n)]
    assert rs.in_root_lattice(lam) == all(F(c).denominator == 1 for c in coords)


def test_lattice_membership():
    a2 = build_root_system("A2")
    assert a2.in_root_lattice(a2.highest_root)
    assert not a2.in_root_lattice(weight([1, 0]))  # omega_1 generates P/Q = Z/3
    assert weight([1, 0]) == (1, 0)
    with pytest.raises(UsageError):
        weight([F(1, 2), 0])  # off the weight lattice P altogether


@pytest.mark.parametrize("label", ALL_TYPES)
def test_weyl_dimension(label):
    rs = build_root_system(label)
    assert rs.weyl_dimension(weight([0] * rs.rank)) == 1
    assert rs.weyl_dimension(rs.highest_root) == rs.dimension()
