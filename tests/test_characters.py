import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liechar import (
    GradedCharacter,
    GroupRingContext,
    GroupRingElt,
    UsageError,
    alt2_decompose,
    build_root_system,
    casimir,
    conformal_top_weight,
    denominator_inverse,
    denominator_series,
    euler_product,
    finite_char,
    kw_lhs_character,
    lattice_theta,
    level,
    level_one_char,
    make_context,
    pochhammer_finite,
    pochhammer_inverse,
    series_equal,
    series_one,
    sym2_decompose,
    walgebra_module_char,
    weight,
    weyl_module_char,
)
from liechar import characters
from oracles import dominant_representative, mat_inverse, orbit_alternating_sum, specialize

A1 = build_root_system("A1")
A2 = build_root_system("A2")
CTX1 = GroupRingContext(A1)
CTX2 = GroupRingContext(A2)


def colored_partitions(n, colors):
    """Generating coefficients of prod_m (1 - q^m)^{-colors}."""
    dp = [1] + [0] * n
    for m in range(1, n + 1):
        for _ in range(colors):
            for k in range(m, n + 1):
                dp[k] += dp[k - m]
    return dp


def partitions_min_part(n, least):
    dp = [1] + [0] * n
    for m in range(least, n + 1):
        for k in range(m, n + 1):
            dp[k] += dp[k - m]
    return dp


# -- finite characters --------------------------------------------------------


def test_trivial_character():
    for rs in (A1, A2, build_root_system("B2")):
        fc = finite_char(rs, weight([0] * rs.rank))
        assert fc.dimension() == 1
        assert fc.multiplicities == GroupRingElt.one(rs.rank)


def test_a1_fundamental():
    fc = finite_char(A1, weight([1]))
    assert fc.multiplicities.terms == {weight([1]): 1, weight([-1]): 1}


def test_a2_adjoint():
    fc = finite_char(A2, A2.highest_root)
    assert fc.dimension() == 8
    assert fc.multiplicities.coeff(weight([0, 0])) == 2  # Cartan multiplicity
    assert A2.weyl_dimension(A2.highest_root) == 8


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_character_support_weyl_invariant(label):
    rs = build_root_system(label)
    fc = finite_char(rs, rs.highest_root)
    for w, c in fc.multiplicities.terms.items():
        for nu in rs.weyl_orbit(dominant_representative(rs, w)):
            assert fc.multiplicities.coeff(nu) == c


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_weyl_character_formula_cross_check(label):
    # division-free form: ch(lam) * A_rho == A_{lam + rho}
    rs = build_root_system(label)
    a_rho = orbit_alternating_sum(rs, rs.rho)
    for lam in rs.dominant_weights_in_root_lattice(2):
        ch = finite_char(rs, lam).multiplicities
        lam_rho = weight(c + 1 for c in lam)
        assert ch * a_rho == orbit_alternating_sum(rs, lam_rho)


# highest-weight coordinates are capped per type to keep L_lam small
FINITE_CHAR_CAPS = {"A1": (6, 6), "A2": (3, 4), "A3": (2, 3), "A4": (1, 2),
                    "B2": (3, 4), "B3": (2, 2), "B4": (1, 2), "C2": (3, 4),
                    "C3": (2, 2), "C4": (1, 2), "D4": (1, 2), "F4": (1, 1), "G2": (2, 3)}


@st.composite
def _small_dominant(draw, caps=FINITE_CHAR_CAPS):
    label = draw(st.sampled_from(sorted(caps)))
    rs = build_root_system(label)
    top, total = caps[label]
    lam = [draw(st.integers(0, top)) for _ in range(rs.rank)]
    while sum(lam) > total:
        lam[lam.index(max(lam))] -= 1
    return rs, weight(lam)


def _dominant_below_by_box_scan(rs, lam):
    """Every dominant mu in a box with lam - mu a nonnegative integer
    combination of simple roots, tagged with its height; the box holds
    every candidate since (mu, mu) <= (lam, lam) and (omega_i, omega_j) > 0."""
    n = rs.rank
    to_roots = mat_inverse([[rs.cartan_matrix[j][i] for j in range(n)] for i in range(n)])
    bound = rs.norm2(lam)
    caps = []
    for i in range(n):
        c = 0
        while (c + 1) ** 2 * rs.quadratic_form[i][i] <= bound:
            c += 1
        caps.append(c)
    out = []
    for mu in itertools.product(*(range(c + 1) for c in caps)):
        diff = [a - b for a, b in zip(lam, mu)]
        coords = [sum(to_roots[i][j] * diff[j] for j in range(n)) for i in range(n)]
        if all(c.denominator == 1 and c >= 0 for c in coords):
            out.append((int(sum(coords)), mu))
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(_small_dominant())
def test_finite_char_against_weyl_formulas_and_box_scan(case):
    # the Weyl character formula, the Weyl dimension formula and a
    # brute-force scan of dominant weights are the oracles of Freudenthal
    rs, lam = case
    fc = finite_char(rs, lam)
    lam_rho = weight(c + 1 for c in lam)
    assert fc.multiplicities * orbit_alternating_sum(rs, rs.rho) == orbit_alternating_sum(
        rs, lam_rho
    )
    assert fc.dimension() == rs.weyl_dimension(lam)
    assert characters._dominant_weights_below(rs, lam) == _dominant_below_by_box_scan(rs, lam)
    assert all(type(c) is int for w in fc.multiplicities.terms for c in w)
    assert all(type(m) is int for m in fc.multiplicities.terms.values())


def test_finite_char_rejects_bad_weights():
    with pytest.raises(UsageError):
        finite_char(A2, weight([-1, 0]))
    with pytest.raises(UsageError):
        finite_char(A2, weight([F(1, 2), 0]))


# -- ch L_lam in the specialized rings -------------------------------------------

CLOSED_FORM_CAPS = {"A1": (4, 4), "A2": (3, 4), "A3": (2, 3), "A4": (1, 2), "B2": (3, 4),
                    "B3": (2, 2), "C3": (2, 2), "D4": (1, 2), "G2": (2, 3), "F4": (1, 1),
                    "E6": (1, 1)}


def _contexts(rs):
    """Every coefficient ring: the monomial group ring, its W-invariant part
    (``group_ring``), trivial, ray along rho_check and ray along the rational
    coweight (1/2, 1/3, ...)."""
    return [GroupRingContext(rs), make_context(rs, "group_ring"), make_context(rs, "trivial"),
            make_context(rs, "ray"), make_context(rs, "ray", tuple(F(1, k + 2) for k in range(rs.rank)))]


@settings(max_examples=60, deadline=None)
@given(_small_dominant(CLOSED_FORM_CAPS))
@example((build_root_system("A2"), (1, 0)))
@example((build_root_system("E6"), (1, 0, 0, 0, 0, 0)))
@example((build_root_system("G2"), (0, 1)))
def test_irreducible_matches_projected_freudenthal(case):
    # the Weyl dimension (trivial) and the principal specialization (ray at
    # rho_check) against Freudenthal plus project, for lam in and outside Q
    rs, lam = case
    full = finite_char(rs, lam).multiplicities
    for ctx in _contexts(rs):
        assert ctx.irreducible(lam) == ctx.project(full)


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "E6"])
def test_irreducible_rejects_bad_weights(label):
    rs = build_root_system(label)
    below = (-1,) + (1,) * (rs.rank - 1)
    half = (F(1, 2),) + (0,) * (rs.rank - 1)
    for ctx in _contexts(rs):
        for lam in (below, half, (1,) * (rs.rank + 1)):
            with pytest.raises(UsageError):
                ctx.irreducible(lam)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4", "E6"])
def test_principal_specialization_at_one_is_the_dimension(label):
    rs = build_root_system(label)
    for lam in [(0,) * rs.rank, rs.highest_root, (1,) + (0,) * (rs.rank - 1), (1,) * rs.rank]:
        poly = rs.principal_specialization(lam)
        assert sum(poly) == rs.weyl_dimension(lam)
        assert poly == poly[::-1] and min(poly) > 0  # palindromic, no gaps


def test_principal_specialization_guards_exact_division(monkeypatch):
    # dropping the numerator factor of alpha_2 from omega_1 of A2 leaves
    # (1 - z^3) / (1 - z)^2, which is no polynomial
    pairings = A2._coroot_pairings(weight([1, 0]))
    monkeypatch.setattr(type(A2), "_coroot_pairings",
                        lambda self, lam: (pairings[0][1:], pairings[1]))
    with pytest.raises(AssertionError, match="not a polynomial"):
        A2.principal_specialization(weight([1, 0]))


# -- denominator --------------------------------------------------------------


def test_denominator_first_order():
    d = denominator_series(CTX1, 1)
    assert d.coeff(0) == GroupRingElt.one(1)
    alpha = A1.simple_roots[0]
    expect = GroupRingElt({weight([0]): -1, alpha: -1, weight([-2]): -1})
    assert d.coeff(1) == expect


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_denominator_inverse_counts_enveloping_monomials(label):
    rs = build_root_system(label)
    ctx = GroupRingContext(rs)
    inv = specialize(denominator_inverse(ctx, 6), "trivial")
    expect = colored_partitions(6, rs.dimension())
    for k in range(7):
        assert inv.coeff(k) == expect[k]


def test_denominator_times_inverse_is_one():
    for ctx in (CTX1, CTX2):
        prod = denominator_series(ctx, 4).mul(denominator_inverse(ctx, 4))
        assert series_equal(prod, series_one(ctx, 4)) is None


def _oracle_context(rs, mode):
    """The ring the Pochhammer oracles are built in: for ``group_ring``, whose
    make_context ring is the W-invariant one, the monomial group ring."""
    return GroupRingContext(rs) if mode == "group_ring" else make_context(rs, mode)


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_denominator_series_matches_pochhammer_finite_products(label, mode):
    # the finite product form is the oracle of D as the Euler product of -ch g
    rs = build_root_system(label)
    ctx, oracle = make_context(rs, mode), _oracle_context(rs, mode)
    zero = (0,) * rs.rank
    roots = [w for a in rs.positive_roots for w in (a, tuple(-c for c in a))]
    for order in [0, F(1, 2), 1, 3, F(7, 2), 5]:
        expect = series_one(oracle, order)
        for mu in [zero] * rs.rank + roots:
            expect = expect.mul(pochhammer_finite(oracle, mu, 1, order))
        assert denominator_series(ctx, order).canonical_str() == expect.canonical_str()
    with pytest.raises(UsageError):
        denominator_series(ctx, -1)


def _product_of_pochhammer_inverses(ctx, weights, order):
    result = series_one(ctx, order)
    for mu in weights:
        result = result.mul(pochhammer_inverse(ctx, mu, 1, order))
    return result


def _mixed_series(ctx, rs, order):
    """A series with three exponent classes mod 1, lower bound -3/2 and
    coefficients that are not Weyl-invariant."""
    zero = (0,) * rs.rank
    alpha, theta = rs.simple_roots[0], rs.highest_root
    terms = {
        F(-3, 2): {alpha: 1},
        F(-1, 3): {zero: 2, theta: -1},
        F(0): {zero: 1},
        F(2, 3): {tuple(-c for c in alpha): 3},
        F(1, 2): {alpha: -2, theta: 1},
        F(2): {zero: -1},
    }
    return GradedCharacter(ctx, order, {e: ctx.project(GroupRingElt(c)) for e, c in terms.items()})


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "C3", "G2", "D4"])
def test_euler_inverse_matches_pochhammer_products(label, mode):
    # the product forms are the oracle of the factor-by-factor Euler product
    rs = build_root_system(label)
    ctx, oracle = make_context(rs, mode), _oracle_context(rs, mode)
    zero = (0,) * rs.rank
    roots = [w for a in rs.positive_roots for w in (a, tuple(-c for c in a))]
    cartan = GroupRingElt({zero: rs.rank})
    for order in [0, F(1, 2), 3, F(5, 2), 4]:
        expect = _product_of_pochhammer_inverses(oracle, [zero] * rs.rank + roots, order)
        assert denominator_inverse(ctx, order).canonical_str() == expect.canonical_str()
        expect = _product_of_pochhammer_inverses(oracle, [zero] * rs.rank, order)
        assert euler_product(series_one(ctx, order), cartan).canonical_str() == expect.canonical_str()
    # a series with several exponent classes and a negative lower bound: the
    # oracle factor is built 3/2 deeper so that the product is exact through
    # order; the series is not W-invariant, so it stays in the oracle's ring
    adjoint = characters._adjoint_char(rs)
    for order in [F(1, 2), F(7, 2)]:
        f = _mixed_series(oracle, rs, order)
        deeper = order + F(3, 2)
        expect = f.mul(_product_of_pochhammer_inverses(oracle, [zero] * rs.rank + roots, deeper))
        assert expect.order == order
        assert euler_product(f, adjoint).canonical_str() == expect.canonical_str()
        finite = series_one(oracle, deeper)
        for mu in [zero] * rs.rank + roots:
            finite = finite.mul(pochhammer_finite(oracle, mu, 1, deeper))
        expect = f.mul(finite)
        assert euler_product(f, -adjoint).canonical_str() == expect.canonical_str()
    with pytest.raises(UsageError):
        denominator_inverse(ctx, -1)


@st.composite
def drawn_euler_inputs(draw):
    """A specialized ring, a series with exponents in several classes mod 1
    (some below q^0) and non-invariant coefficients, and an integer char whose
    multiplicities include negative ones and zeros, e^0 among its weights."""
    rs = build_root_system(draw(st.sampled_from(["A1", "A2", "A3", "B2", "G2"])))
    ctx = make_context(rs, draw(st.sampled_from(["trivial", "ray"])))
    weights = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    coeffs = st.dictionaries(weights, st.integers(-3, 3), min_size=1, max_size=3)
    exponents = st.sampled_from([F(-1, 2), F(0), F(1, 3), F(1), F(3, 2), F(7, 3)])
    terms = draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=3))
    order = draw(st.sampled_from([F(0), F(1, 2), F(2), F(5, 2)]))
    f = GradedCharacter(ctx, order, {e: ctx.project(GroupRingElt(c)) for e, c in terms.items()})
    char = draw(st.dictionaries(weights, st.integers(-2, 2), min_size=1, max_size=4))
    char[(0,) * rs.rank] = draw(st.integers(-2, 2))
    return f, char


@settings(max_examples=40, deadline=None)
@given(drawn_euler_inputs())
def test_euler_product_of_a_drawn_char_matches_pochhammer_products(case):
    # one more input for the oracle of test_euler_inverse_matches_pochhammer_products:
    # (1 - e^mu q^n)^{-c} is c Pochhammer inverses for c > 0 and -c finite
    # products for c < 0, each built deep enough for f's lower bound
    f, char = case
    ctx = f.context
    deeper = f.order - min(f.lower_bound(), 0)
    expect = series_one(ctx, deeper)
    for mu, c in char.items():
        build = pochhammer_inverse if c > 0 else pochhammer_finite
        for _ in range(abs(c)):
            expect = expect.mul(build(ctx, mu, 1, deeper))
    expect = f.mul(expect)
    assert expect.order == f.order
    assert euler_product(f, GroupRingElt(char)).canonical_str() == expect.canonical_str()


def test_euler_inverse_division_must_be_exact():
    # (1 - q)^{-1/2} has coefficient 1/2 at q^1: a non-integer multiplicity
    # is refused before any pass
    with pytest.raises(UsageError):
        euler_product(series_one(CTX1, 2), GroupRingElt({(0,): F(1, 2)}))


# -- Weyl modules -------------------------------------------------------------


def test_weyl_module_vacuum():
    kap = level(A1, F(1, 3))
    wm = weyl_module_char(CTX1, weight([0]), kap, 3)
    assert wm.coeff(0) == GroupRingElt.one(1)
    assert wm.lower_bound() == 0
    triv = specialize(wm, "trivial")
    inv = specialize(denominator_inverse(CTX1, 3), "trivial")
    assert series_equal(triv, inv) is None


def test_weyl_module_leading_exponent():
    kap = level(A1, 0)  # shifted level 2
    wm = weyl_module_char(CTX1, A1.highest_root, kap, 3)
    assert wm.lower_bound() == 1  # (theta, theta + 2 rho) / (2 * 2) = 1
    assert wm.coeff(1).dimension() == 3


@pytest.mark.parametrize("label,lam", [("A1", (2,)), ("A2", (1, 1)), ("A2", (3, 0))])
def test_weyl_module_times_denominator(label, lam):
    rs = build_root_system(label)
    ctx = GroupRingContext(rs)
    kap = level(rs, F(5, 7))
    h = conformal_top_weight(rs, weight(lam), kap)
    wm = weyl_module_char(ctx, weight(lam), kap, h + 3)
    prod = wm.mul(denominator_series(ctx, h + 3))
    expect = GradedCharacter(ctx, prod.order, {h: finite_char(rs, weight(lam)).multiplicities})
    assert series_equal(prod, expect) is None


def test_weyl_module_above_the_order_builds_no_finite_character(monkeypatch):
    def unused(rs, lam):
        raise AssertionError("finite_char built for a top above the order")

    monkeypatch.setattr(characters, "finite_char", unused)
    kap = level(A1, 0)  # shifted level 2: the top of L_theta sits at q^1
    wm = weyl_module_char(CTX1, A1.highest_root, kap, F(1, 2))
    assert wm.terms == {} and wm.order == F(1, 2)


def test_weyl_module_critical_level_rejected():
    with pytest.raises(UsageError):
        weyl_module_char(CTX1, weight([0]), level(A1, -2), 2)


# -- W-algebra modules --------------------------------------------------------


def test_walgebra_vacuum_a1():
    # (1 - q) / (q; q): partitions into parts >= 2
    kap = level(A1, 0)
    t0 = walgebra_module_char(CTX1, weight([0]), kap, 8)
    expect = partitions_min_part(8, 2)
    for k in range(9):
        assert t0.coeff(k).coeff(weight([0])) == expect[k]


def test_walgebra_leading_term():
    rho_sq = A1.inner(A1.rho, A1.rho)
    for lam, kapval in [((0,), F(1, 5)), ((2,), F(-1, 3)), ((4,), F(2, 7))]:
        kap = level(A1, kapval)
        h = conformal_top_weight(A1, weight(lam), kap)
        lam_rho = weight(c + 1 for c in lam)
        lead = h + rho_sq - A1.inner(lam_rho, A1.rho)
        t = walgebra_module_char(CTX1, weight(lam), kap, lead + 3)
        assert t.lower_bound() == lead
        assert t.coeff(lead).coeff(weight([0])) == 1


@pytest.mark.parametrize("lam", [(0, 0), (1, 1)])
def test_walgebra_numerator_exponent_bound(lam):
    # -(w(lam + rho), rho) is minimized exactly at w = e
    rs = A2
    lam_rho = weight(c + 1 for c in lam)
    pairs = rs.weyl_orbit_signed(lam_rho)
    assert len(pairs) == 6
    top = rs.inner(lam_rho, rs.rho)
    assert sum(p for _, p in pairs) == 0  # signed sum over all of W
    vals = sorted(((rs.inner(nu, rs.rho), p) for nu, p in pairs), reverse=True)
    assert vals[0][0] == top and vals[0][1] == 1
    assert all(v < top for v, _ in vals[1:])


def test_walgebra_guards_the_leading_coefficient(monkeypatch):
    # only w = e has depth 0; a numerator claiming otherwise must not pass
    monkeypatch.setattr(characters, "alternating_sum", lambda rs, mu, bound: {F(0): 2})
    with pytest.raises(AssertionError, match="leading coefficient"):
        walgebra_module_char(CTX1, weight([0]), level(A1, F(1, 5)), 2)


def test_kw_lhs_guards_the_leading_coefficient(monkeypatch):
    # the lattice-theta LHS shares the W-module's alternating numerator
    monkeypatch.setattr(characters, "alternating_sum", lambda rs, mu, bound: {F(0): 2})
    with pytest.raises(AssertionError, match="leading coefficient"):
        kw_lhs_character(A1, 2)


def test_walgebra_rejects_bad_weights():
    kap = level(A2, F(1, 2))
    with pytest.raises(UsageError):
        walgebra_module_char(CTX2, weight([-1, 0]), kap, 2)
    with pytest.raises(UsageError):
        walgebra_module_char(CTX2, weight([F(1, 2), 0]), kap, 2)
    with pytest.raises(UsageError):
        walgebra_module_char(CTX2, weight([0, 0]), level(A2, -3), 2)


def test_strip_rejects_non_characters():
    from liechar.characters import _strip_highest_weights

    # a bare non-dominant exponential is not a character
    with pytest.raises(UsageError):
        _strip_highest_weights(A2, GroupRingElt({weight([2, -1]): 1}))
    # negative leading multiplicity
    with pytest.raises(UsageError):
        _strip_highest_weights(A2, GroupRingElt({weight([1, 1]): -1}))


def test_walgebra_weight_free():
    kap = level(A2, F(1, 2))
    t = walgebra_module_char(CTX2, A2.highest_root, kap, 4)
    zero = weight([0, 0])
    for e in sorted(t.terms):
        assert set(t.coeff(e).terms) == {zero}


# -- level-one lattice character ----------------------------------------------


def test_level_one_a1_values():
    l1 = specialize(level_one_char(CTX1, 4), "trivial")
    assert [l1.coeff(k) for k in range(5)] == [1, 3, 4, 7, 13]


def test_level_one_q1_is_dim_g():
    for rs in (A1, A2, build_root_system("A3")):
        ctx = GroupRingContext(rs)
        l1 = specialize(level_one_char(ctx, 1), "trivial")
        assert l1.coeff(0) == 1
        assert l1.coeff(1) == rs.dimension()


def test_level_one_rejects_non_ade():
    b2 = build_root_system("B2")
    with pytest.raises(UsageError):
        level_one_char(make_context(b2), 2)


def test_theta_series_a1():
    th = lattice_theta(CTX1, 4)
    alpha = A1.simple_roots[0]
    assert th.coeff(0) == GroupRingElt.one(1)
    assert th.coeff(1) == GroupRingElt({alpha: 1, weight([-2]): 1})
    assert th.coeff(2).is_zero()
    assert th.coeff(4) == GroupRingElt({weight([4]): 1, weight([-4]): 1})


# -- casimir and tensor squares -----------------------------------------------


def test_casimir_values():
    assert casimir(A1, weight([0])) == 0
    assert casimir(A1, weight([1])) == F(3, 2)
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(label)
        assert casimir(rs, rs.highest_root) == 2 * rs.dual_coxeter


def test_alt2_adjoint_a1():
    assert alt2_decompose(A1, A1.highest_root) == {A1.highest_root: 1}


def test_alt2_adjoint_a2():
    dec = alt2_decompose(A2, A2.highest_root)
    assert dec[A2.highest_root] == 1
    total = sum(m * A2.weyl_dimension(lam) for lam, m in dec.items())
    assert total == 8 * 7 // 2


def test_sym2_trivial():
    assert sym2_decompose(A2, weight([0, 0])) == {weight([0, 0]): 1}


def test_sym2_adjoint_dimension():
    dec = sym2_decompose(A2, A2.highest_root)
    total = sum(m * A2.weyl_dimension(lam) for lam, m in dec.items())
    assert total == 8 * 9 // 2
    assert dec.get(weight([0, 0])) == 1  # the invariant form


def test_standard_constructors_keep_exponents_nonnegative():
    # the graded-series invariant: exponents in (1/den) Z_{>=0}, all <= order
    kap = level(A2, F(2, 3))
    sample = [
        series_one(CTX2, 4),
        denominator_series(CTX2, 4),
        denominator_inverse(CTX2, 4),
        lattice_theta(CTX2, 4),
        level_one_char(CTX2, 4),
        weyl_module_char(CTX2, A2.highest_root, kap, 4),
        # shifted level 1 keeps the W-module leading exponent at +1
        walgebra_module_char(CTX2, A2.highest_root, level(A2, -2), 4),
    ]
    for series in sample:
        den = math.lcm(*(e.denominator for e in series.terms))
        for e in sorted(series.terms):
            assert 0 <= e <= series.order
            assert (e * den).denominator == 1


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"],
)
def test_alt2_adjoint_multiplicity_one_and_casimir_exclusion(label):
    rs = build_root_system(label)
    theta = rs.highest_root
    dec = alt2_decompose(rs, theta)
    assert dec[theta] == 1
    d = rs.dimension()
    assert sum(m * rs.weyl_dimension(lam) for lam, m in dec.items()) == d * (d - 1) // 2
    for lam in dec:
        if lam != theta:
            assert casimir(rs, lam) != 2 * rs.dual_coxeter
