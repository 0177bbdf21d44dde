"""The W-invariant coefficient ring against the monomial group ring it replaces.

``InvariantContext`` keeps one coefficient per dominant weight (the
orbit-sum basis); ``GroupRingContext`` keeps one per weight and stays as
the oracle.  After expansion to monomials, products, Euler products and
the coset RHS must agree exactly, and the parabolic stabilizer orders that
replace orbit walks must agree with the walks.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    GradedCharacter,
    GroupRingContext,
    GroupRingElt,
    InvariantContext,
    RayContext,
    TrivialContext,
    UsageError,
    assemble_coset_character,
    build_root_system,
    coset_rhs_character,
    default_kappa_samples,
    denominator_inverse,
    euler_product,
    lattice_theta,
    level_one_char,
    make_context,
    series_one,
)
from liechar import characters, levels
from liechar.characters import _adjoint_char, _cartan_char
from oracles import euler_product_by_passes, orbit_pair_by_divmod, specialize

SMALL_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
ORACLE_TYPES = [build_root_system(t) for t in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]]


def _monomial_series(ctx, f):
    """An invariant-ring series over the monomial group ring."""
    mono = GroupRingContext(ctx.rs)
    return GradedCharacter(mono, f.order, {e: ctx.expand(c) for e, c in f.terms.items()})


# -- stabilizers and theta without orbit walks -----------------------------------


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_stabilizer_order_matches_the_orbit_walk(label):
    rs = build_root_system(label)
    for pattern in itertools.product([0, 1, 2], repeat=rs.rank):
        assert rs.stabilizer_order(pattern) * len(rs.weyl_orbit(pattern)) == rs.weyl_order


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_theta_without_walks_matches_the_walked_theta(label):
    rs = build_root_system(label)
    walked = lattice_theta(GroupRingContext(rs), 2)
    assert lattice_theta(TrivialContext(rs), 2) == specialize(walked, "trivial")
    assert lattice_theta(make_context(rs, "group_ring"), 2).canonical_str() == walked.canonical_str()


def test_e8_theta_counts_240_sigma_3():
    # Theta_{E8} = E_4 = 1 + 240 sum_n sigma_3(n) q^n (Serre, A Course in
    # Arithmetic, ch. VII)
    theta = lattice_theta(TrivialContext(build_root_system("E8")), 3)
    assert [theta.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]


def test_d5_theta_counts_roots_and_norm_four_vectors():
    # 40 roots; 10 vectors +-2 e_i and 80 of the form (+-1)^4 0
    theta = lattice_theta(TrivialContext(build_root_system("D5")), 2)
    assert [theta.coeff(n) for n in range(3)] == [1, 40, 90]


# -- the orbit product ------------------------------------------------------------


@st.composite
def invariant_elements(draw, rs, max_terms=4):
    """A W-invariant element as dominant weight -> coefficient, some rational."""
    weights = st.tuples(*[st.integers(0, 2)] * rs.rank)
    coeffs = st.integers(-3, 3) | st.sampled_from([F(1, 2), F(-2, 3), F(5, 6)])
    terms = draw(st.dictionaries(weights, coeffs, max_size=max_terms))
    return GroupRingElt(terms)


@st.composite
def product_inputs(draw):
    rs = draw(st.sampled_from(ORACLE_TYPES))
    return rs, draw(invariant_elements(rs)), draw(invariant_elements(rs))


@settings(max_examples=80, deadline=None)
@given(product_inputs())
def test_orbit_product_matches_the_group_ring_product(case):
    rs, a, b = case
    ctx = make_context(rs, "group_ring")
    expected = ctx.expand(a) * ctx.expand(b)
    assert ctx.expand(ctx.mul(a, b)) == expected
    assert ctx.project(expected) == ctx.mul(a, b)


@pytest.mark.parametrize("label,top", [("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1), ("B3", 1), ("D4", 1)])
def test_orbit_product_of_every_small_pair_matches_the_group_ring_product(label, top):
    # every stabilizer class on both sides, m_0 (the unit) among them
    ctx = make_context(build_root_system(label), "group_ring")
    weights = itertools.product(range(top + 1), repeat=ctx.rs.rank)
    basis = [GroupRingElt.monomial(mu) for mu in weights]
    for a, b in itertools.product(basis, repeat=2):
        assert ctx.expand(ctx.mul(a, b)) == ctx.expand(a) * ctx.expand(b)
        assert ctx.mul(a, b) == ctx.mul(b, a)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_pair_table_rows_match_the_group_ring_divmod(label):
    # every unordered pair of dominant weights with coordinate sum <= 3; the
    # rows must agree term by term and in order
    rs = build_root_system(label)
    ctx = InvariantContext(rs)
    weights = [w for w in itertools.product(range(4), repeat=rs.rank) if sum(w) <= 3]
    for key in itertools.combinations_with_replacement(weights, 2):
        assert ctx._pair(key) == orbit_pair_by_divmod(rs, key)


def test_orbit_products_are_tabled_once_per_pair_and_root_system(monkeypatch):
    monomial_products = []
    real = GroupRingContext.mul

    def counting(self, a, b):
        monomial_products.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(GroupRingContext, "mul", counting)
    ctx = make_context(build_root_system("A3"), "group_ring")
    a = GroupRingElt({(1, 0, 0): 2, (0, 1, 1): F(1, 2)})
    b = GroupRingElt({(0, 0, 1): -1, (1, 1, 0): 3, (0, 1, 1): 1})
    product = ctx.mul(a, b)
    assert len(monomial_products) == 6  # one per distinct pair (mu, nu)
    assert ctx.mul(a, b) == product and ctx.mul(b, a) == product
    assert ctx.mul(b.scale(2), a) == product.scale(2)
    assert len(monomial_products) == 6
    fresh = make_context(build_root_system("A3"), "group_ring")
    assert fresh is not ctx and fresh.mul(b, a) == product
    assert len(monomial_products) == 12


def test_a2_coset_check_tables_265_orbit_products(monkeypatch):
    # verify_gko A2 q^10 reads 265 distinct products m_mu m_nu; a unit multiple
    # c m_0 scales its partner and adds no row to the table
    rs = build_root_system("A2")
    monkeypatch.setattr(levels, "build_root_system", lambda label: rs)
    assert levels.verify_gko("A2", 10).status == "pass"
    assert len(make_context(rs, "group_ring")._pairs) == 265


def test_projecting_a_non_invariant_element_raises():
    rs = build_root_system("A2")
    ctx = make_context(rs, "group_ring")
    with pytest.raises(UsageError, match="non-invariant"):
        ctx.project(GroupRingElt({rs.simple_roots[0]: 1}))
    theta_orbit = GroupRingElt(dict.fromkeys(rs.weyl_orbit(rs.highest_root), 1))
    with pytest.raises(UsageError, match="non-invariant"):
        ctx.project(theta_orbit + GroupRingElt({rs.highest_root: 1}))
    assert ctx.project(theta_orbit) == GroupRingElt({rs.highest_root: 1})


# -- Euler products ----------------------------------------------------------------


@st.composite
def euler_inputs(draw):
    rs = draw(st.sampled_from(ORACLE_TYPES))
    # exponents in several classes mod 1, some below q^0
    exponents = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(4, 3), F(2)])
    terms = draw(st.dictionaries(exponents, invariant_elements(rs, 2), min_size=1, max_size=3))
    order = draw(st.sampled_from([F(1), F(3, 2), F(2), F(7, 3)]))
    # +-ch g, and each of its two parts alone: +-rank e^0 and +-sum_{alpha in Delta} e^alpha
    cartan = _cartan_char(rs)
    char = draw(st.sampled_from([_adjoint_char(rs), cartan, _adjoint_char(rs) - cartan]))
    return rs, terms, order, char.scale(draw(st.sampled_from([1, -1])))


@settings(max_examples=40, deadline=None)
@given(euler_inputs())
def test_invariant_euler_product_matches_the_monomial_passes(case):
    rs, terms, order, char = case
    ctx = make_context(rs, "group_ring")
    f = GradedCharacter(ctx, order, terms)
    got = euler_product(f, char)
    assert got.order == order
    assert got.canonical_str() == euler_product_by_passes(_monomial_series(ctx, f), char).canonical_str()


def test_make_context_hands_out_one_invariant_ring_per_root_system():
    rs = build_root_system("A2")
    ctx = make_context(rs, "group_ring")
    assert isinstance(ctx, InvariantContext)
    assert make_context(rs) is ctx
    assert make_context(build_root_system("A2"), "group_ring") is not ctx


def test_make_context_hands_out_one_ring_per_mode_and_coweight():
    rs = build_root_system("A2")
    trivial, ray = make_context(rs, "trivial"), make_context(rs, "ray")
    assert isinstance(trivial, TrivialContext) and isinstance(ray, RayContext)
    assert make_context(rs, "trivial") is trivial
    # xi defaults to rho_check, and equal coordinates are one key whether
    # they come as ints or Fractions
    assert make_context(rs, "ray", rs.rho_check) is ray
    assert make_context(rs, "ray", (1, 1)) is ray
    assert make_context(rs, "ray", (F(1), F(2, 2))) is ray
    other = make_context(rs, "ray", (F(1, 2), F(1, 3)))
    assert other is not ray and other.xi == (F(1, 2), F(1, 3))
    assert make_context(rs, "ray", [F(1, 2), F(2, 6)]) is other
    assert len({id(make_context(rs)), id(trivial), id(ray), id(other)}) == 4
    assert make_context(build_root_system("A2"), "trivial") is not trivial


def test_euler_series_extends_its_cache_exactly():
    rs = build_root_system("B2")
    char = _adjoint_char(rs)
    # the series is the Euler product of char, here built by the passes oracle
    passes = euler_product_by_passes(series_one(GroupRingContext(rs), 5), char)
    fresh = {"group_ring": InvariantContext, "trivial": TrivialContext,
             "ray": lambda rs: RayContext(rs, rs.rho_check)}
    for mode, make in fresh.items():
        shared = make_context(rs, mode)
        shallow = shared.euler_series(char, 2)
        deep = shared.euler_series(char, 5)
        assert deep[:3] == shallow and deep[0] == shared.one()
        assert make(rs).euler_series(char, 5) == deep
        assert deep == [shared.project(passes.coeff(n)) for n in range(6)]


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
def test_euler_series_refuses_a_remainder(monkeypatch, mode):
    # a fault that adds e^0 to psi^2(char) makes 2 a_2 odd at e^0: the
    # recurrence's exact division must raise, not return rational coefficients
    rs = build_root_system("A2")
    make = {"group_ring": InvariantContext, "trivial": TrivialContext,
            "ray": lambda rs: RayContext(rs, rs.rho_check)}[mode]
    char = _adjoint_char(rs)
    make(rs).euler_series(char, 3)  # exact without the fault
    ctx = make(rs)
    frobenius = ctx.frobenius

    def faulty(c, m):
        return frobenius(c, m) + ctx.one() if m == 2 else frobenius(c, m)

    monkeypatch.setattr(ctx, "frobenius", faulty)
    with pytest.raises(AssertionError, match="not divisible by 2"):
        ctx.euler_series(char, 3)


def test_orbit_product_refuses_a_remainder(monkeypatch):
    # m_w1 m_w1 = m_2w1 + 2 m_w2 in A2 is folded from 3 monomials and divided
    # by |W_w1| = 2; one stray regular monomial leaves a remainder, which raises
    rs = build_root_system("A2")
    ctx = InvariantContext(rs)
    assert dict(zip(*ctx._pair(((1, 0), (1, 0))))) == {(2, 0): 1, (0, 1): 2}
    ctx = InvariantContext(rs)
    mul = ctx._monomials.mul
    monkeypatch.setattr(ctx._monomials, "mul", lambda a, b: mul(a, b) + GroupRingElt.monomial((1, 1)))
    with pytest.raises(AssertionError, match="not divisible"):
        ctx._pair(((1, 0), (1, 0)))


# -- the coset sides ----------------------------------------------------------------


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
@pytest.mark.parametrize("order", [F(0), F(1, 2), F(2), F(5, 2)])
def test_coset_rhs_matches_the_monomial_rhs(label, order):
    rs = build_root_system(label)
    mono = GroupRingContext(rs)
    want = denominator_inverse(mono, order).mul(level_one_char(mono, order))
    got = coset_rhs_character(rs, default_kappa_samples(rs, 1)[0], order)
    assert got.canonical_str() == want.canonical_str()


def test_group_ring_sides_build_each_irreducible_once(monkeypatch):
    built = []
    real = characters.dominant_multiplicities

    def counting(rs, lam):
        built.append(lam)
        return real(rs, lam)

    monkeypatch.setattr(characters, "dominant_multiplicities", counting)
    rs = build_root_system("A2")
    for kappa in default_kappa_samples(rs, 2):
        assemble_coset_character(rs, kappa, 3)
    coset_rhs_character(rs, 0, 3)
    assert sorted(built) == sorted(rs.dominant_weights_in_root_lattice(3))


def test_specializing_an_invariant_series_expands_it_first():
    rs = build_root_system("A2")
    side = coset_rhs_character(rs, 0, 2)
    mono = _monomial_series(side.context, side)
    for mode in ["trivial", "ray"]:
        assert specialize(side, mode) == specialize(mono, mode)
