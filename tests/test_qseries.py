import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
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
    kw_lhs_character,
    make_context,
    pochhammer_finite,
    pochhammer_inverse,
    series_equal,
    series_one,
    weight,
)
from oracles import specialize

A1 = build_root_system("A1")
A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")
C3 = build_root_system("C3")
CTX1 = GroupRingContext(A1)
CTX2 = GroupRingContext(A2)


def partition_numbers(n):
    dp = [1] + [0] * n
    for m in range(1, n + 1):
        for k in range(m, n + 1):
            dp[k] += dp[k - m]
    return dp


def random_group_ring(rng, rs, size=3, span=2):
    terms = {}
    for _ in range(size):
        w = tuple(rng.randint(-span, span) for _ in range(rs.rank))
        terms[w] = rng.randint(-3, 3)
    return GroupRingElt(terms)


def random_series(rng, ctx, order=5, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = F(rng.randint(0, 2 * order), rng.choice([1, 1, 2]))
        if e <= order:
            terms[e] = random_group_ring(rng, ctx.rs)
    return GradedCharacter(ctx, order, terms)


def group_ring_elts(rank):
    weights = st.tuples(*[st.integers(-3, 3)] * rank)
    return st.dictionaries(weights, st.integers(-4, 4), max_size=5).map(GroupRingElt)


def dense_product(a, b):
    """Dense oracle of a * b: every cross term accumulated independently."""
    expect = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            expect[w] = expect.get(w, 0) + c1 * c2
    return {w: c for w, c in expect.items() if c != 0}


# -- group ring ---------------------------------------------------------------


def test_group_ring_against_dense_oracle():
    rng = random.Random(7)
    for _ in range(30):
        a = random_group_ring(rng, A2)
        b = random_group_ring(rng, A2)
        assert (a * b).terms == dense_product(a, b)
        assert (a + b).terms == {
            weight(w): c
            for w in set(a.terms) | set(b.terms)
            if (c := a.terms.get(w, 0) + b.terms.get(w, 0)) != 0
        }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_term_product_matches_the_two_loops(data):
    # a one-term factor c e^v on either side: the product is the two loops'
    # term by term, in their key order and with their coefficient types
    rank = data.draw(st.integers(1, 3))
    weights = st.tuples(*[st.integers(-3, 3)] * rank)
    coeffs = (st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=6)).filter(bool)
    a = GroupRingElt(data.draw(st.dictionaries(weights, coeffs, max_size=6)))
    one_term = GroupRingElt({data.draw(weights): data.draw(coeffs)})
    for x, y in ((a, one_term), (one_term, a)):
        got, want = list((x * y).terms.items()), list(dense_product(x, y).items())
        assert got == want
        assert [type(c) for _, c in got] == [type(c) for _, c in want]


@settings(max_examples=80, deadline=None)
@given(group_ring_elts(2), group_ring_elts(2), group_ring_elts(2))
def test_group_ring_laws(a, b, c):
    assert (a * b).terms == dense_product(a, b)
    assert (b * c).terms == dense_product(b, c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


def test_group_ring_keys_are_int_tuples():
    # the integral group ring of the weight lattice: a half-integral key is refused
    with pytest.raises(UsageError):
        GroupRingElt({(F(1, 2),): 1})
    with pytest.raises(UsageError):
        GroupRingElt.monomial((1, F(-3, 2)))
    a = GroupRingElt({(F(2), 1): 3, (0, -1): 1})
    b = GroupRingElt({(1, F(-3, 1)): 2, (0, 0): -1})
    for elt in (a, b, a * b, a + b, a - b, a.frobenius(3), a.frobenius(-2)):
        for w in elt.terms:
            assert type(w) is tuple and all(type(c) is int for c in w)
    assert a.coeff((2, 1)) == 3 and a.coeff((F(2), F(1))) == 3


def test_group_ring_no_zero_coeffs():
    e = GroupRingElt({(1,): 2, (0,): 0})
    assert (0,) not in e.terms
    diff = e - e
    assert not diff and diff.terms == {}


def _stored_zeros(c) -> bool:
    """A zero kept among a GroupRingElt's terms (a scalar stores nothing)."""
    return isinstance(c, GroupRingElt) and any(v == 0 for v in c.terms.values())


@settings(max_examples=100, deadline=None)
@given(group_ring_elts(2), group_ring_elts(2),
       st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.integers(1, 4), st.tuples(*[st.integers(-2, 2)] * 2))
def test_no_operation_stores_a_zero_coefficient(a, b, c, n, xi):
    # series_equal compares coefficients with != and relies on this; a small
    # integral xi makes ray projections of distinct weights collide and cancel
    q, r = divmod(a, n)
    assert n * q + r == a
    for elt in (a + b, a - b, a + (-a), -a, a * b, a * (b - b), a.scale(c), a.scale(0), c * a, q, r):
        assert not _stored_zeros(elt)
    assert not GroupRingElt() and not a - a and bool(a) == bool(a.terms)
    rings = [make_context(A2, mode) for mode in ("group_ring", "trivial", "ray")]
    for ctx in rings + [CTX2, make_context(A2, "ray", xi)]:
        assert ctx.one() == ctx.project(GroupRingElt.one(2)) and ctx.one()
        assert ctx.czero() == ctx.project(GroupRingElt()) and not ctx.czero()
    for ctx in (CTX2, TrivialContext(A2), RayContext(A2, xi)):
        pa, pb = ctx.project(a), ctx.project(b)
        assert not _stored_zeros(pa) and not _stored_zeros(pb)
        f = GradedCharacter(ctx, 2, {0: pa, F(1, 2): pb, 1: -pa})
        g = GradedCharacter(ctx, 2, {0: pb, F(1, 2): c * pa, 1: pa})
        # pb, q^(1/2) and -1 as one-term series
        by_pb, q_half, minus = (GradedCharacter(ctx, 2, {e: v})
                                for e, v in ((0, pb), (F(1, 2), ctx.one()), (0, -ctx.one())))
        for s in (f.add(g), f.mul(g), f.mul(by_pb), f.mul(q_half), f.add(f.mul(minus))):
            assert all(v and not _stored_zeros(v) for v in s.terms.values())


# -- ring laws ----------------------------------------------------------------


def test_series_one_is_identity():
    rng = random.Random(11)
    one = series_one(CTX2, 5)
    assert one.coeff(0) == GroupRingElt.one(2)
    for _ in range(10):
        f = random_series(rng, CTX2)
        assert series_equal(one.mul(f), f) is None
        assert one.mul(f).order == f.order


def test_ring_laws_on_random_series():
    rng = random.Random(13)
    for _ in range(8):
        f = random_series(rng, CTX2, order=4)
        g = random_series(rng, CTX2, order=4)
        h = random_series(rng, CTX2, order=4)
        assert series_equal(f.mul(g), g.mul(f)) is None
        assert series_equal(f.add(g), g.add(f)) is None
        assert series_equal(f.mul(g).mul(h), f.mul(g.mul(h))) is None
        lhs = f.mul(g.add(h))
        rhs = f.mul(g).add(f.mul(h))
        assert series_equal(lhs, rhs) is None


def test_mul_against_dense_convolution_oracle():
    rng = random.Random(17)
    for _ in range(10):
        f = random_series(rng, CTX2, order=6)
        g = random_series(rng, CTX2, order=6)
        prod = f.mul(g)
        for d in sorted(prod.terms):
            acc = GroupRingElt()
            for e1, c1 in f.terms.items():
                for e2, c2 in g.terms.items():
                    if e1 + e2 == d:
                        acc = acc + c1 * c2
            assert prod.coeff(d) == acc


def test_difference_of_squares():
    alpha = A1.simple_roots[0]
    ea = GroupRingElt.monomial(alpha)
    f = GradedCharacter(CTX1, 5, {0: CTX1.one(), 1: ea})
    g = GradedCharacter(CTX1, 5, {0: CTX1.one(), 1: ea.scale(-1)})
    prod = f.mul(g)
    assert not prod.coeff(1)
    assert prod.coeff(2) == GroupRingElt.monomial(weight([4])).scale(-1)


def test_mismatched_contexts_raise():
    f = series_one(CTX1, 3)
    g = series_one(CTX2, 3)
    with pytest.raises(UsageError):
        f.mul(g)
    with pytest.raises(UsageError):
        f.add(g)


def test_negative_exponents_round_trip():
    # q^{-1/2}(1 - q) times q^{1/2} recovers 1 - q with correct bookkeeping
    f = GradedCharacter(CTX1, F(7, 2), {F(-1, 2): CTX1.one(), F(1, 2): CTX1.one().scale(-1)})
    assert f.lower_bound() == F(-1, 2)
    g = GradedCharacter(CTX1, 4, {F(1, 2): CTX1.one()})
    prod = f.mul(g)
    assert prod.coeff(0) == GroupRingElt.one(1)
    assert prod.coeff(1) == GroupRingElt.one(1).scale(-1)
    # completeness bound respects the negative lower bound
    assert prod.order == min(f.order + g.lower_bound(), g.order + f.lower_bound())


@st.composite
def deep_and_truncated(draw):
    """A series known through q^5 and its truncation to a lower order; the
    exponents are halves in [-3, 5], so lower bounds may be negative."""
    exps = st.integers(-6, 10).map(lambda k: F(k, 2))
    deep = GradedCharacter(CTX1, 5, draw(st.dictionaries(exps, group_ring_elts(1), max_size=5)))
    return deep, GradedCharacter(CTX1, draw(exps), deep.terms)


@settings(max_examples=100, deadline=None)
@given(deep_and_truncated(), deep_and_truncated(),
       st.integers(-6, 6).map(lambda k: F(k, 2)), group_ring_elts(1))
def test_series_operations_claim_no_order_beyond_their_data(fs, gs, e0, c):
    # what mul claims to know of truncated inputs must agree with the product
    # of the deeper inputs
    (big_f, f), (big_g, g) = fs, gs
    prod, deep = f.mul(g), big_f.mul(big_g)
    assert deep.order >= prod.order
    assert GradedCharacter(CTX1, prod.order, deep.terms) == prod
    # a one-term series q^e0 c known through f.order + e0 - L_f scales and
    # shifts f term by term, through f.order + e0 (``weyl_module_char``)
    if c:
        low = min(f.lower_bound(), f.order)
        scaled = f.mul(GradedCharacter(CTX1, f.order + e0 - low, {e0: c}))
        assert scaled == GradedCharacter(
            CTX1, f.order + e0, {e + e0: CTX1.mul(v, c) for e, v in f.terms.items()})


# -- pochhammer ---------------------------------------------------------------


def test_pochhammer_partition_numbers():
    n = 30
    series = pochhammer_inverse(CTX1, weight([0]), 1, n)
    triv = specialize(series, "trivial")
    expect = partition_numbers(n)
    for k in range(n + 1):
        assert triv.coeff(k) == expect[k]


def test_pochhammer_weighted_expansion():
    alpha = A1.simple_roots[0]
    series = pochhammer_inverse(CTX1, alpha, 1, 2)
    assert series.coeff(0) == GroupRingElt.one(1)
    assert series.coeff(1) == GroupRingElt.monomial(alpha)
    two_alpha = weight([4])
    assert series.coeff(2) == GroupRingElt({alpha: 1, two_alpha: 1})


def test_pochhammer_defining_property():
    alpha = A1.simple_roots[0]
    for mu, s in [(weight([0]), 1), (alpha, 1), (alpha, F(1, 2))]:
        inv = pochhammer_inverse(CTX1, mu, s, 5)
        fin = pochhammer_finite(CTX1, mu, s, 5)
        assert series_equal(inv.mul(fin), series_one(CTX1, 5)) is None


def test_pochhammer_requires_positive_shift():
    with pytest.raises(UsageError):
        pochhammer_inverse(CTX1, weight([0]), 0, 3)
    with pytest.raises(UsageError):
        pochhammer_inverse(CTX1, weight([0]), -1, 3)


# -- specialization -----------------------------------------------------------


def test_trivial_specialization():
    alpha = A1.simple_roots[0]
    e = GroupRingElt({alpha: 1, weight([-2]): 1})
    f = GradedCharacter(CTX1, 3, {1: e})
    triv = specialize(f, "trivial")
    assert triv.coeff(1) == 2


def test_ray_specialization_value():
    # e^alpha q -> z^{(alpha, rho_check)} q; for A1 (alpha, rho_check) = 1
    alpha = A1.simple_roots[0]
    assert A1.inner(alpha, A1.rho_check) == 1
    f = GradedCharacter(CTX1, 3, {1: GroupRingElt.monomial(alpha)})
    ray = specialize(f, "ray")
    assert ray.context.coeff_json(ray.coeff(1)) == [{"zexp": "1", "coeff": 1}]
    # a custom coweight moves the exponent
    ray2 = specialize(f, "ray", xi=weight([2]))
    assert ray2.context.coeff_json(ray2.coeff(1)) == [{"zexp": "2", "coeff": 1}]


@st.composite
def ray_projections(draw):
    rs = draw(st.sampled_from([A2, B2, G2, C3]))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    xi = draw(st.one_of(st.just(rs.rho_check), st.tuples(*[rationals] * rs.rank)))
    return rs, xi, draw(group_ring_elts(rs.rank))


@settings(max_examples=80, deadline=None)
@given(ray_projections())
def test_ray_projection_matches_inner_product_oracle(case):
    # e^w -> z^{(w, xi)}, accumulated over Fractions with the bilinear form
    rs, xi, gre = case
    ctx = RayContext(rs, xi)
    expect = {}
    for w, c in gre.terms.items():
        e = rs.inner(w, xi)
        expect[e] = expect.get(e, 0) + c
    expect = {e: c for e, c in expect.items() if c != 0}
    got = ctx.project(gre)
    assert all(type(k) is tuple and len(k) == 1 and type(k[0]) is int for k in got.terms)
    assert {F(k, ctx.den): c for (k,), c in got.terms.items()} == expect
    assert ctx.coeff_json(got) == [
        {"zexp": str(e), "coeff": c}
        for e, c in sorted(expect.items())
    ]


@st.composite
def series_pairs(draw):
    # B2's ray exponents (mu, rho_check) are half-integral
    ctx = GroupRingContext(draw(st.sampled_from([A2, B2])))
    exponents = st.integers(0, 10).map(lambda k: F(k, 2))
    coeffs = group_ring_elts(ctx.rs.rank)
    return [
        GradedCharacter(ctx, 5, draw(st.dictionaries(exponents, coeffs, max_size=4)))
        for _ in range(2)
    ]


@pytest.mark.parametrize("mode", ["trivial", "ray"])
@settings(max_examples=40, deadline=None)
@given(pair=series_pairs())
def test_specialization_is_ring_homomorphism(mode, pair):
    f, g = pair
    lhs = specialize(f.mul(g), mode)
    rhs = specialize(f, mode).mul(specialize(g, mode))
    assert series_equal(lhs, rhs) is None
    lhs = specialize(f.add(g), mode)
    rhs = specialize(f, mode).add(specialize(g, mode))
    assert series_equal(lhs, rhs) is None


def test_specialize_bad_mode():
    f = series_one(CTX1, 1)
    with pytest.raises(UsageError):
        specialize(f, "nonsense")


# -- sums of products ------------------------------------------------------------


@st.composite
def dot_inputs(draw):
    """Pairs of W-invariant elements in the orbit-sum basis, some of them unit
    multiples c m_0 and some rational, with some pairs repeated negated so
    that their products cancel."""
    rs = draw(st.sampled_from([A2, B2, G2, build_root_system("A3")]))
    zero = (0,) * rs.rank
    coeffs = st.integers(-3, 3) | st.sampled_from([F(1, 2), F(-2, 3), F(5, 6)])
    weights = st.tuples(*[st.integers(0, 2)] * rs.rank)
    elements = (st.dictionaries(weights, coeffs, max_size=3)
                | coeffs.map(lambda c: {zero: c})).map(GroupRingElt)
    pairs = draw(st.lists(st.tuples(elements, elements), max_size=5))
    if pairs:
        pairs += [(-a, b) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return rs, draw(st.permutations(pairs))


def _stores_no_zero(c):
    return not isinstance(c, GroupRingElt) or 0 not in c.terms.values()


@settings(max_examples=60, deadline=None)
@given(case=dot_inputs())
@example(case=(A2, []))
@example(case=(A2, [(GroupRingElt({(1, 0): 2}), GroupRingElt({(0, 1): 1})),
                    (GroupRingElt({(1, 0): -2}), GroupRingElt({(0, 1): 1}))]))
def test_dot_is_the_sum_of_products_in_every_ring(case):
    rs, pairs = case
    inv = InvariantContext(rs)
    got = inv.dot(pairs)
    monomial = [(inv.expand(a), inv.expand(b)) for a, b in pairs]
    want = GroupRingElt()
    for a, b in monomial:
        want = want + a * b
    assert inv.expand(got) == want
    assert _stores_no_zero(got)
    rational_xi = tuple(F(1, i + 2) - F(1, 3) for i in range(rs.rank))
    for ctx in [GroupRingContext(rs), TrivialContext(rs), RayContext(rs, rs.rho_check),
                RayContext(rs, rational_xi), inv]:
        if ctx is inv:
            projected = pairs
        else:
            projected = [(ctx.project(a), ctx.project(b)) for a, b in monomial]
        want = ctx.czero()
        for a, b in projected:
            want = want + ctx.mul(a, b)
        got = ctx.dot(projected)
        assert got == want and _stores_no_zero(got)
        if not projected:
            assert got == ctx.czero() and not got


# -- serialization ------------------------------------------------------------


def test_canonical_serialization_deterministic():
    rng = random.Random(29)
    f = random_series(rng, CTX2, order=4)
    s1 = f.canonical_str()
    # rebuild with shuffled insertion order
    items = list(f.terms.items())
    rng.shuffle(items)
    g = GradedCharacter(CTX2, f.order, dict(items))
    assert g.canonical_str() == s1


def test_canonical_serialization_golden():
    series = GradedCharacter(
        CTX1,
        F(3, 2),
        {F(1, 2): GroupRingElt({(2,): 1, (-2,): -1}), 1: GroupRingElt.one(1)},
    )
    expected = (
        '{"context":{"coefficients":"group_ring","type":"A1"},'
        '"series":[{"exponent":"1/2","terms":[{"coeff":-1,"weight":[-2]},'
        '{"coeff":1,"weight":[2]}]},'
        '{"exponent":"1","terms":[{"coeff":1,"weight":[0]}]}],'
        '"truncation_order":"3/2"}'
    )
    assert series.canonical_str() == expected


def test_canonical_serialization_writes_values_not_representations():
    # 1/2 * 2 is Fraction(1, 1): written as the number 1, like the int 1
    halves = GroupRingElt({(1,): F(1, 2)}) * GroupRingElt({(1,): 2})
    assert halves.to_json() == GroupRingElt({(2,): 1}).to_json() == [{"weight": [2], "coeff": 1}]
    assert TrivialContext(A1).coeff_json(F(6, 2)) == 3
    assert TrivialContext(A1).coeff_json(F(3, 2)) == "3/2"
    ray = RayContext(A1, (F(1, 2),))
    twice_half = GroupRingElt({(1,): F(1, 2)}) * GroupRingElt({(0,): 4})
    assert ray.coeff_json(twice_half) == [{"zexp": "1/4", "coeff": 2}]


# -- exponents: an int when integral, else a Fraction ----------------------------


def _stored_by_the_rule(f):
    """Every exponent of f and its order are ints when integral, else Fractions."""
    return all(type(e) is int if F(e).denominator == 1 else type(e) is F
               for e in [f.order, *f.terms])


def test_integral_exponents_are_stored_as_ints():
    f = GradedCharacter(CTX1, F(4), {F(0): CTX1.one(), F(3, 2): CTX1.one(), F(6, 2): CTX1.one()})
    assert type(f.order) is int and _stored_by_the_rule(f)
    assert sorted(f.terms) == [0, F(3, 2), 3]
    assert [type(e) for e in sorted(f.terms)] == [int, F, int]
    # sums of non-integral exponents that come out integral are ints too
    assert _stored_by_the_rule(f.mul(f)) and 3 in f.mul(f).terms
    assert type(series_one(CTX1, F(5)).order) is int


@pytest.mark.parametrize("mode", ["group_ring", "trivial", "ray"])
@pytest.mark.parametrize("label,order,shifted", [("B2", F(11, 2), (F(5, 2), F(7, 3))),
                                                 ("G2", F(9, 2), (F(5, 3), F(-9, 4)))])
def test_non_integral_exponents_stay_fractions(label, order, shifted, mode):
    # the B2 and G2 non-integer-level lambda-sums of test_coset_assembly: the
    # kw side carries exponents |lam|^2/2 in halves and thirds, both sides
    # integral ones as well
    rs = build_root_system(label)
    sides = [kw_lhs_character(rs, order, mode)] + [
        assemble_coset_character(rs, s - rs.dual_coxeter, order, mode) for s in shifted]
    for f in sides:
        assert _stored_by_the_rule(f)
        assert {type(e) for e in f.terms} == {int, F}


def test_coeff_takes_an_integral_exponent_as_int_or_fraction():
    f = GradedCharacter(CTX1, 4, {0: CTX1.one(), 3: GroupRingElt.monomial((2,), 5)})
    assert f.coeff(F(3)) == f.coeff(3) == GroupRingElt.monomial((2,), 5)
    assert f.coeff(F(4)) == f.coeff(4) == GroupRingElt()
    with pytest.raises(UsageError):
        f.coeff(F(9, 2))


def test_a_fractional_shift_gives_fraction_exponents():
    f = GradedCharacter(CTX1, 4, {0: CTX1.one(), 1: CTX1.one(), 3: CTX1.one()})
    g = f.mul(GradedCharacter(CTX1, F(9, 2), {F(1, 2): CTX1.one()}))
    assert type(g.order) is F and g.order == F(9, 2)
    assert all(type(e) is F for e in g.terms)
    assert sorted(g.terms) == [F(1, 2), F(3, 2), F(7, 2)]
    # and shifting back lands on ints again
    back = g.mul(GradedCharacter(CTX1, 4, {F(-1, 2): CTX1.one()}))
    assert back == f and _stored_by_the_rule(back)


def test_fraction_keyed_integral_exponents_serialize_like_int_keyed_ones():
    rng = random.Random(37)
    f = random_series(rng, CTX2, order=4)
    g = GradedCharacter(CTX2, F(f.order), {F(e): c for e, c in f.terms.items()})
    assert g.canonical_str() == f.canonical_str()
    assert g == f
    one = TrivialContext(A2)
    assert (GradedCharacter(one, F(2), {F(0): 1, F(2): 3}).canonical_str()
            == GradedCharacter(one, 2, {0: 1, 2: 3}).canonical_str())
