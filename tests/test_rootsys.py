import math
import random
import signal
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    RootSystem,
    UsageError,
    alternating_sum,
    build_root_system,
    langlands_dual,
    finite_char,
    verify_gko,
    weight,
)
from liechar.rootsys import (
    _DUAL_SERIES,
    _det_and_adjugate,
    _symmetrizer,
    cartan_matrix,
    parse_type_label,
)
from oracles import (
    cartan_isomorphic,
    dominant_multiplicities_by_strings,
    dominant_representative,
    dominant_weights_below,
    dominant_weights_box_scan,
    mat_inverse,
    orbit_depth_histogram,
    reflection_orbit,
)

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
    # long/short roles swap: the half squared lengths (alpha_i, alpha_i)/2 are permuted
    halves, dual_halves = ([rs.inner(a, a) / 2 for a in rs.simple_roots] for rs in (g2, g2d))
    assert sorted(dual_halves) == sorted(halves)
    assert dual_halves != halves


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


@pytest.mark.parametrize("label", RANK_LE_4 + ["E6"])
def test_weyl_orbit_matches_reflect_walk(label):
    rs = build_root_system(label)
    first = [1] + [0] * (rs.rank - 1)
    samples = [rs.rho, rs.highest_root, weight([2 * c for c in first]), weight(first[::-1]),
               weight([0] * rs.rank)]
    for lam in samples:
        got, expect = rs.weyl_orbit(lam), [nu for nu, _ in reflection_orbit(rs, lam)]
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
    # the reflection closure's signed orbit, histogrammed by depth and
    # filtered by the bound, is the oracle of the product over positive roots
    rs, mu, bound = case
    assert rs.weyl_orbit_signed(mu) == reflection_orbit(rs, mu)
    full = orbit_depth_histogram(rs, mu)
    assert max(full) == 2 * rs.inner(mu, rs.rho)
    got = alternating_sum(rs, mu, bound)
    assert got == {d: c for d, c in full.items() if d <= bound}
    assert list(got) == sorted(got)
    walk = rs._orbit_walk(mu)
    assert len(walk) == len(set(walk)) == rs.weyl_order  # each element once


@pytest.mark.parametrize("label", ["E8", "F4", "G2", "B4", "C4"])
def test_alternating_sum_at_rho_is_the_full_denominator(label):
    # at mu = rho the whole numerator prod_{alpha>0} (1 - q^{(rho, alpha)})
    # has degree S = 2 (rho, rho), vanishes at q = 1 and is (anti)palindromic;
    # on E8 the orbit holds 696 729 600 elements and the product must not
    # walk it
    rs = build_root_system(label)
    top, sign = 2 * rs.norm2(rs.rho), (-1) ** len(rs.positive_roots)
    start = time.perf_counter()
    got = alternating_sum(rs, rs.rho, top)
    assert time.perf_counter() - start < 1.0
    assert min(got) == 0 and max(got) == top
    assert sum(got.values()) == 0
    assert got[0] == 1 and got[top] == sign
    assert all(got.get(top - d, 0) == sign * c for d, c in got.items())


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


RANK_8_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
NORM_BOUNDS = [0, F(1, 2), 1, F(7, 3), F(5, 2), 4, 6]


def _count_walks(monkeypatch):
    walks = []
    real = RootSystem._walk_q_plus

    def counting(self, limit, residue):
        walks.append((self.type_label, residue))
        return real(self, limit, residue)

    monkeypatch.setattr(RootSystem, "_walk_q_plus", counting)
    return walks


@pytest.mark.parametrize("label", RANK_8_TYPES)
def test_q_plus_walk_matches_the_box_scan(label, monkeypatch):
    # ascending, every bound walks deeper; descending, every bound is a prefix
    walks = _count_walks(monkeypatch)
    rs = build_root_system(label)
    expected = {b: dominant_weights_box_scan(rs, b) for b in NORM_BOUNDS}
    for b in NORM_BOUNDS:
        assert rs.dominant_weights_in_root_lattice(b) == expected[b]
    assert len(walks) == len(NORM_BOUNDS)
    for b in reversed(NORM_BOUNDS):
        assert rs.dominant_weights_in_root_lattice(b) == expected[b]
    assert len(walks) == len(NORM_BOUNDS)


def test_q_plus_lists_are_fresh():
    rs = build_root_system("A3")
    first = rs.dominant_weights_in_root_lattice(3)
    expected = list(first)
    first.clear()
    rs.dominant_weights_in_root_lattice(2).append((9, 9, 9))
    assert rs.dominant_weights_in_root_lattice(3) == expected
    with pytest.raises(UsageError):
        rs.dominant_weights_in_root_lattice(F(-1, 2))


def test_two_kappa_gko_walks_q_plus_once(monkeypatch):
    # in group_ring, Freudenthal's cones of the lam read the same Q+ walk
    walks = _count_walks(monkeypatch)
    for mode in ["trivial", "group_ring"]:
        assert verify_gko("A2", 3, mode).status == "pass"
    assert walks == [("A2", (0, 0))] * 2


def test_finite_char_walks_an_off_q_coset_once(monkeypatch):
    # (2, 1) and (1, 0) lie in one coset of Q; the smaller reads the cached walk
    walks = _count_walks(monkeypatch)
    rs = build_root_system("A2")
    assert finite_char(rs, (2, 1)).dimension() == 15
    assert finite_char(rs, (1, 0)).dimension() == 3
    assert len(walks) == 1 and walks[0][1] != (0, 0)


SYSTEMS = {label: build_root_system(label) for label in ALL_TYPES}


@st.composite
def _form_arguments(draw):
    rs = SYSTEMS[draw(st.sampled_from(ALL_TYPES))]
    ints = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    rationals = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=6)] * rs.rank)
    return rs, draw(ints), draw(st.one_of(ints, st.just(rs.rho_check), rationals))


def _symmetrizer_from_cartan(a):
    """d_i = (alpha_i, alpha_i)/2 as Fractions, from (alpha_i, alpha_j) =
    a_ij d_j = a_ji d_i along the Dynkin diagram, scaled so max d = 1."""
    n = len(a)
    d = [F(1)] + [None] * (n - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] and d[j] is None:
                d[j] = d[i] * a[j][i] / a[i][j]
                todo.append(j)
    top = max(d)
    return [x / top for x in d]


@settings(max_examples=200, deadline=None)
@given(_form_arguments())
def test_integer_form_matches_fraction_form(case):
    # inner sums den * (omega_i, omega_j) in ints and in_root_lattice reduces
    # den' * A^{-T} lam mod den', both read off one integer elimination; the
    # oracles solve over Fractions directly
    rs, lam, xi = case
    n = rs.rank
    ainv = mat_inverse(rs.cartan_matrix)
    d = _symmetrizer_from_cartan(rs.cartan_matrix)
    form = [[ainv[i][j] * d[j] for j in range(n)] for i in range(n)]
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert [[rs.inner(u, v) for v in units] for u in units] == form
    expect = sum((li * form[i][j] * xj for i, li in enumerate(lam)
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


@pytest.mark.parametrize("label", RANK_8_TYPES + ["C2"])
def test_neighbour_list_conjugation_matches_the_tuple_loop(label):
    # A is not symmetric on B, C, F4 and G2: s_i moves neighbour j by a_ij,
    # from row i, and reading column i instead gives other weights there
    rs = build_root_system(label)
    rng = random.Random(label)
    for _ in range(200):
        lam = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        got = rs._reflect_to_dominant(lam)
        assert got == dominant_representative(rs, lam)
        assert type(got) is tuple and all(type(c) is int for c in got)
        # the shared table: filled on a miss, read back on a hit
        assert rs._conjugate(lam) == (got, rs.stabilizer_order(got))
        assert rs._conjugates[lam] == rs._conjugate(lam)


def _small_dominant_weights(rs, rng, count=4, tries=30):
    """Up to count distinct dominant weights with one to three coordinates
    in {1, 2}, (lam, lam) <= 8 and at most 40 dominant weights below them."""
    found = []
    for _ in range(tries):
        lam = [0] * rs.rank
        for i in rng.sample(range(rs.rank), rng.randint(1, min(3, rs.rank))):
            lam[i] = rng.randint(1, 2)
        lam = tuple(lam)
        if lam not in found and rs.norm2(lam) <= 8 and len(dominant_weights_below(rs, lam)) <= 40:
            found.append(lam)
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize("label", RANK_8_TYPES)
def test_orbit_grouped_freudenthal_matches_one_string_per_root(label):
    # on B, C, F4 and G2 the stabilizer's root system Phi_J can hold both
    # root lengths, so its orbits there differ in size
    rs = build_root_system(label)
    lams = _small_dominant_weights(rs, random.Random(label))
    assert len(lams) >= 2
    for lam in lams + [rs.highest_root]:
        assert rs.dominant_multiplicities(lam) == dominant_multiplicities_by_strings(rs, lam), lam


def _first_dominant_weights_by_coset(rs, count):
    """The first count dominant weights by (norm, coordinates) of each coset
    of Q in P, from scans of the dominant weights of growing norm, each
    coordinate raised until the norm passes the bound (no (omega_i, omega_j)
    is negative).  0 and the omega_i meet every coset: each nonzero one holds
    a minuscule weight."""
    n, reps = rs.rank, []
    for x in [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]:
        if not any(rs.in_root_lattice(tuple(a - b for a, b in zip(x, r))) for r in reps):
            reps.append(x)

    def scan(lam, i, bound, out):
        while rs.norm2(lam) <= bound:
            if i == n - 1:
                out.append(lam)
            else:
                scan(lam, i + 1, bound, out)
            lam = (*lam[:i], lam[i] + 1, *lam[i + 1:])
        return out

    bound = F(2)
    while True:
        groups = [[] for _ in reps]
        for lam in sorted(scan((0,) * n, 0, bound, []), key=lambda w: (rs.norm2(w), w)):
            k = next(k for k, r in enumerate(reps)
                     if rs.in_root_lattice(tuple(a - b for a, b in zip(lam, r))))
            groups[k].append(lam)
        if min(map(len, groups)) >= count:
            return [group[:count] for group in groups]
        bound *= F(3, 2)


@pytest.mark.parametrize("label", RANK_8_TYPES)
def test_dominant_cone_matches_the_positive_root_descent(label):
    # the cone read off lam's cached coset walk against Stembridge's descent
    rs = build_root_system(label)
    for lams in _first_dominant_weights_by_coset(rs, 40):
        for lam in lams:
            assert rs._dominant_cone(lam) == dominant_weights_below(rs, lam), lam


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_freudenthal_keeps_its_order_on_twelve_weights_per_type(label):
    # the first 12 dominant weights of P by norm; the oracle walks the
    # descent's cone, so the dicts agree in key order too
    rs = build_root_system(label)
    lams = sorted((w for ws in _first_dominant_weights_by_coset(rs, 12) for w in ws),
                  key=lambda w: (rs.norm2(w), w))[:12]
    for lam in lams:
        got = list(rs.dominant_multiplicities(lam).items())
        assert got == list(dominant_multiplicities_by_strings(rs, lam).items()), lam


def test_freudenthal_meets_the_weyl_dimension_on_the_d4_q40_summands():
    # every lam that verify_kw D4 q^40 sums in group_ring
    rs = build_root_system("D4")
    lams = rs.dominant_weights_in_root_lattice(40)
    assert len(lams) == 177
    for lam in lams:
        mult = rs.dominant_multiplicities(lam)
        orbits = sum(m * (rs.weyl_order // rs.stabilizer_order(mu)) for mu, m in mult.items())
        assert orbits == rs.weyl_dimension(lam), lam


NOT_FINITE = {
    "hyperbolic": [[2, -3], [-3, 2]],
    "affine A1": [[2, -2], [-2, 2]],
    "twisted affine A2": [[2, -1], [-4, 2]],
    "affine A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "non-symmetrizable 3-cycle": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
}


def _raise_timeout(signum, frame):
    raise TimeoutError("RootSystem construction ran for over a second")


@pytest.fixture
def no_roots(monkeypatch):
    """Make building a positive root fail, so a refusal must come first."""
    def build(self):
        raise AssertionError("a positive root was built")
    monkeypatch.setattr(RootSystem, "_build_positive_roots", build)


@pytest.mark.parametrize("name", sorted(NOT_FINITE))
def test_cartan_matrices_not_of_finite_type_are_refused(name, no_roots):
    # off finite type the positive roots never run out, so the refusal must
    # come before any root is built; the alarm turns a hang into a failure.
    # The label check is the one check on the input, hence its message
    cartan = NOT_FINITE[name]
    label = f"A{len(cartan)}"
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for a in (cartan, [list(col) for col in zip(*cartan)]):
            with pytest.raises(UsageError, match="not that of type"):
                RootSystem(a, label)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_float_entries_are_stored_as_ints():
    rs = RootSystem([[2.0, -1.0], [-1.0, 2.0]], "A2")
    assert rs.cartan_matrix == ((2, -1), (-1, 2))
    assert all(type(x) is int for row in rs.cartan_matrix for x in row)
    assert rs.same_as(build_root_system("A2"))


@pytest.mark.parametrize("label", [f"A{r}" for r in range(1, 13)] + [f"B{r}" for r in range(2, 10)]
                         + [f"C{r}" for r in range(2, 10)] + [f"D{r}" for r in range(4, 13)]
                         + ["E6", "E7", "E8", "F4", "G2"])
def test_symmetrizer_read_off_the_adjugate_matches_the_dynkin_walk(label):
    a = cartan_matrix(*parse_type_label(label))
    for m in (a, [list(col) for col in zip(*a)]):
        e = _symmetrizer(_det_and_adjugate(m)[1])
        assert math.gcd(*e) == 1 and min(e) > 0
        assert [F(x, max(e)) for x in e] == _symmetrizer_from_cartan(m)


@pytest.mark.parametrize("label", RANK_8_TYPES + ["C2", "A12", "D16"])
def test_every_finite_type_and_its_transpose_builds(label):
    series, rank = parse_type_label(label)
    a = cartan_matrix(series, rank)
    rs = RootSystem(a, label)
    dual = RootSystem([list(col) for col in zip(*a)], f"{_DUAL_SERIES[series]}{rank}")
    assert rs.weyl_order == dual.weyl_order
    assert len(rs.positive_roots) == len(dual.positive_roots)


def test_a_type_label_must_name_its_cartan_matrix(no_roots):
    for cartan, label in [
        (cartan_matrix("E", 6), "A6"),
        (cartan_matrix("C", 3), "B3"),
        (cartan_matrix("A", 3), "A2"),  # the label's rank is not the matrix's
        ([[2]], "A2"),
        ([[2, -1], [-1, 2, 5]], "A2"),  # ragged: transposing would cut the 5
        ([[2, -1, -1], [-1, 2, 0], [-1, 0, 2]], "A3"),  # nodes 1 and 2 swapped
    ]:
        with pytest.raises(UsageError, match=f"not that of type {label}"):
            RootSystem(cartan, label)


@pytest.mark.parametrize("label", RANK_8_TYPES + ["C2"])
def test_langlands_dual_builds_under_its_label(label):
    rs = build_root_system(label)
    dual = langlands_dual(rs)
    assert dual.type_label == f"{_DUAL_SERIES[rs.series]}{rs.rank}"
    assert langlands_dual(dual).cartan_matrix == rs.cartan_matrix
