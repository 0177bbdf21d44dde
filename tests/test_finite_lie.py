import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    GroupRingElt,
    QuadExt,
    UsageError,
    abelian,
    build_root_system,
    chevalley_structure,
    classify_extension,
    equivariant_hom_dim,
    invariant_forms,
    singular_constraints,
    takiff,
)
from liechar.finite_lie import LieStructure, _check_witnesses
from liechar.linalg import SparseNullspace, sqrt_rational
from oracles import (
    check_witnesses_all_pairs,
    classify_extension_all_pairs,
    hom_dim_all_equations,
    invariant_forms_all_equations,
)

SL2 = chevalley_structure("A1")
SL3 = chevalley_structure("A2")
SO5 = chevalley_structure("B2")


# -- structure constants --------------------------------------------------------


def test_sl2_relations():
    assert SL2.dimension == 3
    h, e, f = 0, 1, 2
    assert SL2.bracket_basis(e, f) == {h: 1}
    assert SL2.bracket_basis(h, e) == {e: 2}
    assert SL2.bracket_basis(h, f) == {f: -2}


@pytest.mark.parametrize(
    "label,dim",
    [("A1", 3), ("A2", 8), ("A3", 15), ("B2", 10), ("B3", 21), ("C3", 21),
     ("C4", 36), ("D4", 28), ("G2", 14), ("F4", 52)],
)
def test_jacobi_exhaustive(label, dim):
    ls = chevalley_structure(label)
    assert ls.dimension == dim
    ls.check_jacobi()


def test_rank_cap():
    with pytest.raises(UsageError):
        chevalley_structure("A5")
    with pytest.raises(UsageError):
        chevalley_structure("E6")


def test_cartan_weyl_relations():
    for label in ("A2", "B2", "G2"):
        ls = chevalley_structure(label)
        rs = ls.root_system
        n = rs.rank
        for i in range(n):
            for k, alpha in enumerate(rs.positive_roots):
                idx = n + k
                expect = {idx: F(alpha[i])} if alpha[i] else {}
                assert ls.bracket_basis(i, idx) == expect


def test_structure_constants_magnitude_is_string_length():
    # |N(a, b)| = p + 1 where p counts the alpha-string below beta
    for label in ("A2", "B2", "G2"):
        ls = chevalley_structure(label)
        rs = ls.root_system
        n = rs.rank
        pos = list(rs.positive_roots)
        posset = set(pos)
        for i, a in enumerate(pos):
            for j, b in enumerate(pos):
                if i == j:
                    continue
                s = tuple(x + y for x, y in zip(a, b))
                if s not in posset:
                    continue
                vec = ls.bracket_basis(n + i, n + j)
                coeff = vec[n + pos.index(s)]
                p = 0
                cur = tuple(x - y for x, y in zip(b, a))
                while cur in posset or tuple(-c for c in cur) in posset:
                    p += 1
                    cur = tuple(x - y for x, y in zip(cur, a))
                assert abs(coeff) == p + 1


def test_bracket_antisymmetry_random_vectors():
    rng = random.Random(211)
    for _ in range(20):
        x = {rng.randrange(SL3.dimension): F(rng.randint(-3, 3)) for _ in range(3)}
        y = {rng.randrange(SL3.dimension): F(rng.randint(-3, 3)) for _ in range(3)}
        xy = SL3.bracket(x, y)
        yx = SL3.bracket(y, x)
        assert xy == {k: -c for k, c in yx.items()}


# -- generators ------------------------------------------------------------------

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]


def _generated_dimension(ls, gens):
    """Dimension of the span of the iterated brackets of the given basis vectors."""
    span = SparseNullspace(ls.dimension)
    frontier = [{g: F(1)} for g in gens]
    while frontier:
        kept = []
        for vec in frontier:
            before = span.rank
            span.add_row(vec)
            if span.rank > before:
                kept.append(vec)
        frontier = [ls.bracket({g: F(1)}, vec) for vec in kept for g in gens]
    return span.rank


def test_chevalley_generators_are_cartan_and_simple_root_vectors():
    for label in RANK_LE_4:
        ls = chevalley_structure(label)
        rs = ls.root_system
        n, npos = rs.rank, len(rs.positive_roots)
        assert ls.generators == (
            tuple(range(n)) + tuple(range(n, 2 * n)) + tuple(range(n + npos, n + npos + n))
        )
        assert all(rs.height(rs.positive_roots[i]) == 1 for i in range(n))


@pytest.mark.parametrize("label", RANK_LE_4)
def test_chevalley_generators_span_the_algebra(label):
    ls = chevalley_structure(label)
    assert _generated_dimension(ls, ls.generators) == ls.dimension


@pytest.mark.parametrize("label", RANK_LE_3)
def test_takiff_generators_span_the_algebra(label):
    ls = chevalley_structure(label)
    t = takiff(ls)
    assert t.generators == ls.generators + tuple(g + ls.dimension for g in ls.generators)
    assert _generated_dimension(t, t.generators) == t.dimension


def test_generators_without_lowering_vectors_do_not_span():
    for label in ("A2", "B3", "G2"):
        ls = chevalley_structure(label)
        n = ls.root_system.rank
        borel = ls.generators[: 2 * n]  # h_i and e_i only: the Borel subalgebra
        dim = _generated_dimension(ls, borel)
        assert dim == n + len(ls.root_system.positive_roots) < ls.dimension


def test_default_generators_are_the_whole_basis():
    assert SL3.generators != tuple(range(SL3.dimension))
    full = LieStructure(SL3.labels, SL3.brackets)
    assert full.generators == tuple(range(SL3.dimension))
    with pytest.raises(UsageError):
        LieStructure(SL3.labels, SL3.brackets, generators=[SL3.dimension])


def _whole_basis(ls):
    return LieStructure(ls.labels, ls.brackets, name=ls.name)


REPS = ["adjoint", "trivial", "alt2_adjoint", "sym2_adjoint"]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2"])
def test_generator_equations_match_whole_basis_equations(label):
    ls = chevalley_structure(label)
    full = _whole_basis(ls)
    for rep_from in REPS:
        for rep_to in REPS:
            assert equivariant_hom_dim(rep_from, rep_to, ls) == equivariant_hom_dim(
                rep_from, rep_to, full
            ), (rep_from, rep_to)
    for alg in (ls, takiff(ls)):
        assert invariant_forms(alg).to_json() == invariant_forms(_whole_basis(alg)).to_json()


def _json(space):
    return json.dumps(space.to_json(), sort_keys=True)


def _raising_and_lowering(ls):
    """ls with the e_i and f_i as its only generators: none acts diagonally."""
    n = ls.root_system.rank
    npos = len(ls.root_system.positive_roots)
    gens = list(range(n, 2 * n)) + list(range(n + npos, n + npos + n))
    return LieStructure(ls.labels, ls.brackets, name=ls.name, generators=gens)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_invariant_forms_match_all_equations_oracle(label):
    ls = chevalley_structure(label)
    for alg in (ls, takiff(ls)):
        assert _json(invariant_forms(alg)) == _json(invariant_forms_all_equations(alg))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_hom_dim_matches_all_equations_oracle(label):
    ls = chevalley_structure(label)
    for rep_from in REPS:
        for rep_to in REPS:
            assert equivariant_hom_dim(rep_from, rep_to, ls) == hom_dim_all_equations(
                rep_from, rep_to, ls
            ), (rep_from, rep_to)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_no_diagonal_generator_builds_every_equation(label, monkeypatch):
    # with nothing to pin, the builders add exactly the oracle's rows
    rows = []
    add_row = SparseNullspace.add_row

    def counted(ns, row):
        rows.append(len(row))
        add_row(ns, row)

    monkeypatch.setattr(SparseNullspace, "add_row", counted)

    def run(fn, *args):
        del rows[:]
        out = fn(*args)
        return out, sorted(rows)

    ls = _raising_and_lowering(chevalley_structure(label))
    for alg in (ls, takiff(ls)):
        got, got_rows = run(invariant_forms, alg)
        want, want_rows = run(invariant_forms_all_equations, alg)
        assert _json(got) == _json(want)
        assert got_rows == want_rows
    assert invariant_forms(ls).dimension == 1
    for rep_from, rep_to in [("alt2_adjoint", "adjoint"), ("adjoint", "adjoint"),
                             ("sym2_adjoint", "trivial")]:
        got, got_rows = run(equivariant_hom_dim, rep_from, rep_to, ls)
        want, want_rows = run(hom_dim_all_equations, rep_from, rep_to, ls)
        assert got == want == 1
        assert got_rows == want_rows


def test_abelian_forms_match_all_equations_oracle():
    space = invariant_forms(abelian(3))
    assert space.dimension == 6
    assert _json(space) == _json(invariant_forms_all_equations(abelian(3)))


# -- takiff ----------------------------------------------------------------------


def test_takiff_squares_to_zero():
    t = takiff(SL2)
    assert t.dimension == 6
    d = SL2.dimension
    for i in range(d, 2 * d):
        for j in range(i + 1, 2 * d):
            assert t.bracket_basis(i, j) == {}


def test_takiff_mixed_bracket():
    t = takiff(SL2)
    d = SL2.dimension
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            base = SL2.bracket_basis(i, j)
            assert t.bracket_basis(i, j + d) == {k + d: c for k, c in base.items()}


def test_takiff_jacobi():
    takiff(SL2).check_jacobi()
    takiff(SL3).check_jacobi()


# -- invariant forms --------------------------------------------------------------


def _is_invariant(ls, form):
    d = ls.dimension
    for x in range(d):
        for y in range(d):
            for z in range(d):
                val = sum(c * form[k][z] for k, c in ls.bracket_basis(x, y).items())
                val += sum(c * form[y][k] for k, c in ls.bracket_basis(x, z).items())
                if val != 0:
                    return False
    return True


@pytest.mark.parametrize("ls", [SL2, SL3, SO5], ids=["sl2", "sl3", "so5"])
def test_simple_algebra_has_unique_form(ls):
    space = invariant_forms(ls)
    assert space.dimension == 1
    assert _is_invariant(ls, space.basis[0])


@pytest.mark.parametrize("ls", [SL2, SL3, SO5], ids=["sl2", "sl3", "so5"])
def test_takiff_form_space(ls):
    t = takiff(ls)
    space = invariant_forms(t)
    assert space.dimension == 2
    d = ls.dimension
    for form in space.basis:
        assert _is_invariant(t, form)
        # the gt x gt block is excluded by invariance
        assert all(form[i][j] == 0 for i in range(d, 2 * d) for j in range(d, 2 * d))


def test_abelian_forms_unconstrained():
    assert invariant_forms(abelian(1)).dimension == 1
    assert invariant_forms(abelian(2)).dimension == 3


# -- intertwiner spaces ------------------------------------------------------------


@pytest.mark.parametrize(
    "ls", [SL2, SL3, SO5, chevalley_structure("D4")], ids=["sl2", "sl3", "so5", "so8"]
)
def test_alt2_to_adjoint_is_one_dimensional(ls):
    assert equivariant_hom_dim("alt2_adjoint", "adjoint", ls) == 1


@pytest.mark.parametrize("ls", [SL2, SL3], ids=["sl2", "sl3"])
def test_other_hom_dims(ls):
    assert equivariant_hom_dim("adjoint", "trivial", ls) == 0
    assert equivariant_hom_dim("adjoint", "adjoint", ls) == 1
    assert equivariant_hom_dim("trivial", "trivial", ls) == 1
    # the invariant bilinear form, seen as Sym^2(ad) -> trivial
    assert equivariant_hom_dim("sym2_adjoint", "trivial", ls) == 1


# -- extension classification --------------------------------------------------------


def test_classify_takiff_branch_example():
    res = classify_extension(F(-1, 4), 1)
    assert res.kind == "takiff_iso"
    assert res.witnesses == ((F(-1, 2), F(1)),)


def test_classify_direct_sum_examples():
    res = classify_extension(1, 0)
    assert res.kind == "direct_sum_iso"
    assert res.eigenvalues == (F(1), F(-1))
    res = classify_extension(0, 1)
    assert res.kind == "direct_sum_iso"
    assert res.eigenvalues == (F(0), F(-1))


def test_classify_quadratic_extension_branch():
    res = classify_extension(1, 1)  # discriminant 5 is not a square
    assert res.kind == "direct_sum_iso"
    p_plus, p_minus = res.eigenvalues
    assert isinstance(p_plus, QuadExt)
    # p_+ + p_- = -beta, p_+ p_- = -alpha
    assert (p_plus + p_minus) == QuadExt(-1, 0, 5)
    assert (p_plus * p_minus) == QuadExt(-1, 0, 5)


def test_classify_random_takiff_branch():
    rng = random.Random(223)
    for _ in range(20):
        beta = F(rng.randint(-8, 8), rng.randint(1, 5))
        alpha = -beta * beta / 4
        res = classify_extension(alpha, beta)
        assert res.kind == "takiff_iso"
        assert res.witnesses[0] == (-beta / 2, 1)


@pytest.mark.parametrize("base", [SL2, SL3], ids=["sl2", "sl3"])
def test_classify_random_split_branch(base):
    rng = random.Random(227)
    found_irrational = 0
    for _ in range(20):
        alpha = F(rng.randint(-8, 8), rng.randint(1, 5))
        beta = F(rng.randint(-8, 8), rng.randint(1, 5))
        if 4 * alpha + beta * beta == 0:
            continue
        res = classify_extension(alpha, beta, base)  # verifies hom/ideal/commuting
        assert res.kind == "direct_sum_iso"
        p_plus, p_minus = res.eigenvalues
        disc = 4 * alpha + beta * beta
        if sqrt_rational(disc) is None:
            found_irrational += 1
            assert isinstance(p_plus, QuadExt)
        zero = p_plus + p_minus + beta
        assert zero == 0 if not isinstance(zero, QuadExt) else zero.is_zero()
        prod = p_plus * p_minus + alpha
        assert prod == 0 if not isinstance(prod, QuadExt) else prod.is_zero()
    assert found_irrational > 0


def _classify_cases():
    """The doubled brackets (alpha, beta) of the classification tests above."""
    cases = [(F(-1, 4), F(1)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(2), F(1, 3))]
    rng = random.Random(223)
    for _ in range(20):
        beta = F(rng.randint(-8, 8), rng.randint(1, 5))
        cases.append((-beta * beta / 4, beta))
    rng = random.Random(227)
    for _ in range(20):
        alpha = F(rng.randint(-8, 8), rng.randint(1, 5))
        beta = F(rng.randint(-8, 8), rng.randint(1, 5))
        if 4 * alpha + beta * beta != 0:
            cases.append((alpha, beta))
    return cases


# SHA-256 of the classifications' canonical JSON, one line per case.  The
# JSON does not name the base algebra, so every base gives the same digest;
# each base checks the hom/ideal/commuting identities once in
# Q[t]/(t^2 - beta t - alpha), which holds them only if its bracket is nonzero.
# The per-pair checks in the doubled algebra run as the oracle below.
CLASSIFY_DIGEST = "e354a7288520432b92736b77ba47a448e7895afa8c1a70afdbdf160658a6831a"


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2"])
def test_classify_extension_json_is_pinned(label):
    base = chevalley_structure(label)
    text = "\n".join(
        json.dumps(classify_extension(a, b, base).to_json(), sort_keys=True)
        for a, b in _classify_cases()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_DIGEST


@pytest.mark.parametrize("base", [SL2, SL3, SO5, abelian(3)], ids=["A1", "A2", "B2", "abelian3"])
def test_classify_extension_matches_all_pairs_oracle(base):
    for a, b in _classify_cases():
        fast = classify_extension(a, b, base).to_json()
        assert fast == classify_extension_all_pairs(a, b, base).to_json()
        if not base.brackets:  # no identity is checked, and nothing else changes
            assert fast == classify_extension(a, b, SL2).to_json()


def _raised(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def _perturbed_witnesses():
    """(alpha, beta, witnesses, eigenvalues, message on a non-abelian base)."""
    out = [(F(-1, 4), F(1), ((F(-1, 2), F(2)),), (), "takiff witness image is not abelian")]
    for alpha, beta in [(F(1), F(0)), (F(2), F(1, 3)), (F(1), F(1))]:
        res = classify_extension(alpha, beta)
        (a1, a2), w_minus = res.witnesses
        p_plus, p_minus = res.eigenvalues
        out += [
            (alpha, beta, ((a1 + 1, a2), w_minus), res.eigenvalues,
             "witness map is not a Lie homomorphism"),
            (alpha, beta, res.witnesses, (p_minus, p_plus), "second-copy ideal relation fails"),
            (alpha, beta, ((a1, a2), (a1, a2)), (p_plus, p_plus),
             "images of the two witnesses do not commute"),
        ]
    return out


@pytest.mark.parametrize("base", [SL2, SL3, abelian(3)], ids=["A1", "A2", "abelian3"])
def test_witness_checks_are_as_strict_as_the_pair_loops(base):
    for alpha, beta, witnesses, eigenvalues, message in _perturbed_witnesses():
        args = (alpha, beta, base, witnesses, eigenvalues)
        fast = _raised(_check_witnesses, *args)
        assert fast == _raised(check_witnesses_all_pairs, *args)
        if base.brackets:
            assert fast == message
        else:  # only the spanning check sees an abelian base
            assert fast in (None, "witness images do not span")


# -- quadratic-extension scalars -------------------------------------------------------

RATIONALS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)
OPERANDS = st.one_of(
    st.tuples(st.just("rational"), RATIONALS),
    st.tuples(st.just("quad"), st.tuples(RATIONALS, RATIONALS)),
)


def _pair_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_inverse(x, d):
    nrm = x[0] * x[0] - d * x[1] * x[1]
    return (x[0] / nrm, -x[1] / nrm)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([F(2), F(3), F(5), F(7, 4)]), OPERANDS, OPERANDS)
def test_quadext_arithmetic_matches_pair_oracle(d, x, y):
    # (a, b) pairs of Fractions stand for a + b sqrt(d); a rational r is (r, 0)
    if x[0] == y[0] == "rational":
        x = ("quad", (x[1], 0))

    def value(op):
        return QuadExt(op[1][0], op[1][1], d) if op[0] == "quad" else op[1]

    def pair(op):
        return (F(op[1][0]), F(op[1][1])) if op[0] == "quad" else (F(op[1]), F(0))

    def as_pair(q):
        assert isinstance(q, QuadExt) and q.d == d
        assert isinstance(q.a, F) and isinstance(q.b, F)
        return (q.a, q.b)

    u, v, pu, pv = value(x), value(y), pair(x), pair(y)
    assert as_pair(u + v) == (pu[0] + pv[0], pu[1] + pv[1])
    assert as_pair(u - v) == (pu[0] - pv[0], pu[1] - pv[1])
    assert as_pair(-(u - v)) == (pv[0] - pu[0], pv[1] - pu[1])
    assert as_pair(u * v) == _pair_mul(pu, pv, d)
    assert (u == v) == (pu == pv)
    assert (v == u) == (pu == pv)
    for q, p in ((u, pu), (v, pv)):
        if isinstance(q, QuadExt):
            assert q.is_zero() == (p == (0, 0))
            if p == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    q.inverse()
            else:
                assert as_pair(q.inverse()) == _pair_inverse(p, d)
    if pv == (0, 0):
        with pytest.raises(ZeroDivisionError):
            u / v
    else:
        assert as_pair(u / v) == _pair_mul(pu, _pair_inverse(pv, d), d)


def test_quadext_refuses_mixed_radicands_and_zero_inverse():
    u, v = QuadExt(1, 1, 2), QuadExt(1, 1, 3)
    for op in (lambda: u + v, lambda: u - v, lambda: u * v, lambda: u / v, lambda: u == v):
        with pytest.raises(UsageError):
            op()
    zero = QuadExt(0, 0, 5)
    for op in (zero.inverse, lambda: 1 / zero, lambda: QuadExt(1, 1, 5) / zero,
               lambda: QuadExt(1, 1, 5) / 0):
        with pytest.raises(ZeroDivisionError):
            op()


# -- singular-vector constraints -------------------------------------------------------


def test_singular_constraint_shapes():
    cons = {c.pair: c for c in singular_constraints()}
    assert cons["aa"].coefficient == "alpha"
    assert cons["aa"].polynomial == GroupRingElt({(2, 0): F(2), (1, 0): F(-2)})
    assert cons["aa"].root_set == {"variable": "kappa1", "roots": ["0", "1"]}
    assert cons["bb"].coefficient == "gamma"
    assert cons["bb"].polynomial == GroupRingElt({(0, 2): F(2), (0, 1): F(-2)})
    assert cons["bb"].root_set == {"variable": "kappa2", "roots": ["0", "1"]}
    assert cons["ab"].coefficient == "beta"
    assert cons["ab"].polynomial == GroupRingElt({(1, 1): F(1)})
    assert cons["ab"].root_set == {"product_of": ["kappa1", "kappa2"]}


def test_singular_constraints_rescaling_invariance():
    rng = random.Random(229)
    for _ in range(5):
        scales = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
        cons = singular_constraints(scale_e=scales[:2], scale_f=scales[2:])
        by_pair = {c.pair: c for c in cons}
        assert by_pair["aa"].root_set == {"variable": "kappa1", "roots": ["0", "1"]}
        assert by_pair["bb"].root_set == {"variable": "kappa2", "roots": ["0", "1"]}
        assert by_pair["ab"].root_set == {"product_of": ["kappa1", "kappa2"]}
        # polynomials differ from the unscaled ones by a nonzero scalar only
        base = {c.pair: c.polynomial for c in singular_constraints()}
        for pair, con in by_pair.items():
            terms = con.polynomial.terms
            ref = base[pair].terms
            ratios = {F(terms[k]) / ref[k] for k in ref}
            assert len(ratios) == 1 and 0 not in ratios


def test_singular_constraints_vanish_on_level_one_vector():
    # alpha = 1, beta = gamma = 0, kappa_1 = 1: every constraint value is 0
    cons = {c.pair: c for c in singular_constraints()}
    coeffs = {"alpha": F(1), "beta": F(0), "gamma": F(0)}
    for pair, con in cons.items():
        k1, k2 = F(1), F(7, 3)
        value = sum(c * k1**i * k2**j for (i, j), c in con.polynomial.terms.items())
        value *= coeffs[con.coefficient]
        assert value == 0


def test_singular_rejects_zero_scaling():
    with pytest.raises(UsageError):
        singular_constraints(scale_e=(0, 1))
