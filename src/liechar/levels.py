"""Level arithmetic and the top-level character identity verifiers.

Level maps implemented here: the W-algebra level duality
r_vee (kappa + h_vee)(kappa_dual + h_vee_dual) = 1, the kernel-object
pairing 1/(kappa + h_vee) + 1/(kappa* + h_vee) = r_vee n, and the glued
pair behind both.  The verifiers assemble both sides of the coset
character identity and of the lattice theta identity from independent
constituents and compare coefficients exactly.  Both left-hand sides are
one lambda-sum (``_lambda_sum``) of q^lead ch L_lam times an alternating
Weyl numerator; the coset sum then divides once by (q;q)^rank D, the
factor that every one of its summands carries, each lead read off one
exact line in 1/(kappa + h_vee).  ``verify_gko`` builds that table of lines
once per call and, when every slope is 0, one side for all its kappa
samples.  The coset sides share one cached series for the mu != 0 factors
of 1/D, which cannot hide a mismatch.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .characters import (
    LevelValue,
    _adjoint_char,
    _alternating_numerator,
    _cartan_char,
    denominator_inverse,
    euler_product,
    lattice_theta,
    level,
    level_one_char,
)
from .linalg import frac, int_or_frac
from .qseries import (
    Exponent,
    GradedCharacter,
    make_context,
    rat_str,
    series_equal,
)
from .rootsys import (
    RootSystem,
    UsageError,
    Weight,
    build_root_system,
    langlands_dual,
    weight,
)

FULL_RANK_CAP = 4
SPECIALIZED_RANK_CAP = 8


@dataclass(frozen=True)
class LevelRelation:
    """A solved level relation together with its defining equation."""

    kind: str  # "ff_dual" | "kernel" | "gluing_first" | "gluing_second"
    n: Optional[int]
    source: LevelValue
    target: LevelValue

    def holds(self) -> bool:
        ks, kt = self.source, self.target
        if self.kind == "ff_dual":
            return ks.root_system.lacity * ks.shifted * kt.shifted == 1
        if self.kind == "kernel":
            return (
                Fraction(1) / ks.shifted + Fraction(1) / kt.shifted
                == ks.root_system.lacity * self.n
            )
        if self.kind == "gluing_first":
            return kt.root_system.lacity * ks.shifted * kt.shifted == 1
        if self.kind == "gluing_second":
            return kt.root_system.lacity * (ks.shifted + self.n) * kt.shifted == 1
        raise UsageError(f"unknown relation kind {self.kind!r}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "source": {"type": self.source.root_system.type_label, "kappa": rat_str(self.source.value)},
            "target": {"type": self.target.root_system.type_label, "kappa": rat_str(self.target.value)},
            "holds": self.holds(),
        }


def ff_dual_level(kappa: LevelValue) -> LevelValue:
    """Dual level on the Langlands dual system:
    r_vee (kappa + h_vee)(kappa_dual + h_vee_dual) = 1."""
    kappa.require_noncritical()
    rs = kappa.root_system
    dual = langlands_dual(rs)
    shifted_dual = Fraction(1) / (rs.lacity * kappa.shifted)
    return LevelValue(shifted_dual - dual.dual_coxeter, dual)


def kernel_partner_level(kappa: LevelValue, n: int) -> LevelValue:
    """Partner level with 1/(kappa+h_vee) + 1/(kappa*+h_vee) = r_vee n."""
    kappa.require_noncritical()
    rs = kappa.root_system
    rhs = Fraction(rs.lacity * n) - Fraction(1) / kappa.shifted
    if rhs == 0:
        raise UsageError(f"kappa {rat_str(kappa.value)} sits on the kernel-partner pole: "
                         "its partner would be at infinity")
    return LevelValue(Fraction(1) / rhs - rs.dual_coxeter, rs)


def gluing_levels(kappa_dual: LevelValue, n: int) -> Tuple[LevelValue, LevelValue]:
    """Solve both gluing relations for a level on the dual system.

    Returns (kappa, varkappa) on the original system with
    r_vee (kappa + h)(kappa_dual + h_dual) = 1 and
    r_vee (kappa_dual + n + h_dual)(varkappa + h) = 1.
    """
    kappa_dual.require_noncritical()
    dual = kappa_dual.root_system
    rs = langlands_dual(dual)
    lac = rs.lacity
    kappa = LevelValue(Fraction(1) / (lac * kappa_dual.shifted) - rs.dual_coxeter, rs)
    shifted_up = kappa_dual.shifted + n
    if shifted_up == 0:
        raise UsageError("degenerate gluing: kappa_dual + n is critical")
    varkappa = LevelValue(Fraction(1) / (lac * shifted_up) - rs.dual_coxeter, rs)
    return kappa, varkappa


def conformal_weight(rs: RootSystem, lam: Weight, kappa, n: int) -> Fraction:
    """Top conformal weight of the lam-summand, from the two shifted levels."""
    lam = weight(lam)
    if not rs.in_root_lattice(lam) or not rs.is_dominant(lam):
        raise UsageError("conformal_weight requires lam in Q+")
    kv = kappa if isinstance(kappa, LevelValue) else level(rs, kappa)
    partner = kernel_partner_level(kv, n)
    cas = rs.inner(lam, tuple(c + 2 for c in lam))
    return cas / (2 * kv.shifted) + cas / (2 * partner.shifted) - rs.inner(lam, rs.rho_check)


def conformal_weight_closed(rs: RootSystem, lam: Weight, n: int) -> Fraction:
    """Closed form (lam,lam) r_vee n / 2 + (lam, n r_vee rho - rho_vee)."""
    lam = weight(lam)
    if not rs.in_root_lattice(lam) or not rs.is_dominant(lam):
        raise UsageError("conformal_weight requires lam in Q+")
    rv = rs.lacity
    shift = tuple(n * rv * r - rc for r, rc in zip(rs.rho, rs.rho_check))  # a coweight
    return rs.norm2(lam) * rv * n / 2 + rs.inner(lam, shift)


# ---------------------------------------------------------------------------
# identity verifiers


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    type_label: str
    order: Exponent  # an int when integral, as in GradedCharacter
    status: str  # "pass" | "fail"
    first_mismatch: Optional[dict]
    timing_ms: int

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "type": self.type_label,
            "order": rat_str(self.order),
            "status": self.status,
            "timing_ms": self.timing_ms,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        return out


def _verdict(identity: str, rs: RootSystem, order: Exponent, t0: float,
             comparisons: List[Tuple[str, GradedCharacter, GradedCharacter]]) -> IdentityReport:
    """Compare each (label, lhs, rhs) in turn; the first mismatch fails the identity.

    series_equal compares only through the smaller truncation order, so a
    side known to less than the requested order would pass unchecked: that
    is refused first."""
    known = min(side.order for _, *pair in comparisons for side in pair)
    if known < order:
        raise AssertionError(f"a side is known only through q^{rat_str(known)}, "
                             f"below the requested order {rat_str(order)}")
    status, mismatch = "pass", None
    for label, lhs, rhs in comparisons:
        res = series_equal(lhs, rhs)
        if res is not None:
            e, cl, cr = res
            status = "fail"
            mismatch = {"comparison": label, "exponent": rat_str(e), "lhs": cl, "rhs": cr}
            break
    ms = int((time.perf_counter() - t0) * 1000)
    return IdentityReport(identity, rs.type_label, order, status, mismatch, ms)


def _check_verifier_args(rs: RootSystem, order, mode: str) -> Exponent:
    order = int_or_frac(order)
    if order < 0:
        raise UsageError("truncation order must be nonnegative")
    if rs.lacity != 1:
        raise UsageError(f"{rs.type_label} is not simply-laced")
    cap = FULL_RANK_CAP if mode == "group_ring" else SPECIALIZED_RANK_CAP
    if rs.rank > cap:
        raise UsageError(
            f"rank {rs.rank} exceeds the cap {cap} for mode {mode!r}"
        )
    return order


def default_kappa_samples(rs: RootSystem, count: int = 2) -> List[Fraction]:
    """Generic rational levels with shifted level 3, 5/2, 7/3, 9/4, ...

    All lie in (2, 3], safely away from the degenerate set (critical level
    0 and the kernel-partner pole at shifted level 1)."""
    return [Fraction(2 * k + 3, k + 1) - rs.dual_coxeter for k in range(count)]


def _lambda_sum(ctx, order: Exponent, summands) -> GradedCharacter:
    """sum_{lam in Q+} q^lead ch[L_lam] sum_w eps(w) q^{(mu+rho - w(mu+rho), rho)}
    through order, for each (lam, mu, lead) in summands; a lam with lead >
    order adds nothing, and its ch[L_lam] is not built.  The pairs (c, ch
    L_lam) of each exponent are gathered and summed with one ``ctx.dot``."""
    one = ctx.one()
    pairs: Dict[Exponent, list] = {}
    for lam, mu, lead in summands:
        if lead <= order:
            ch = ctx.irreducible(lam)
            for e, c in _alternating_numerator(ctx.rs, mu, lead, order).items():
                pairs.setdefault(e, []).append((c * one, ch))
    return GradedCharacter(ctx, order, {e: ctx.dot(p) for e, p in pairs.items()})


def _lead_table(rs: RootSystem, order: Exponent) -> List[Tuple[Weight, Weight, Exponent, Exponent]]:
    """(lam, lam*, slope, intercept) for each lam of ``dominant_weights_in_root_lattice(order)``.
    With u = 1/(kappa + h_vee) and the n = 1 partner's 1/(kappa* + h_vee) = r_vee - u, lam's
    coset lead u Cas(lam)/2 + (r_vee - u) Cas(lam*)/2 - (lam*, rho) is slope u + intercept.
    The slope is 0 (-w_0 keeps the form and rho), but computed.  lam* pairs with rho, as in
    ``walgebra_module_char``; each pairing is an int x^T F y, F = ``_form_scaled``."""
    form, den, r = rs._form_scaled, 2 * rs._form_den, rs.lacity
    perm = [c - 1 for c in rs.star(tuple(range(1, rs.rank + 1)))]  # -w_0 on the omega_i

    def pairings(x):  # x^T F x and x^T F rho, as F is symmetric and rho = (1, ..., 1)
        fx = [sum(map(operator.mul, row, x)) for row in form]
        return sum(map(operator.mul, x, fx)), sum(fx)

    table = []
    for lam in rs.dominant_weights_in_root_lattice(order):
        star = tuple([lam[j] for j in perm])
        n, p = pairings(lam)
        ns, ps = (n, p) if star == lam else pairings(star)
        table.append((lam, star, int_or_frac(Fraction(n + 2 * p - ns - 2 * ps, den)),
                      int_or_frac(Fraction(r * ns + 2 * (r - 1) * ps, den))))
    return table


def _leads(table, shifted: Fraction) -> Tuple[Exponent, ...]:
    return tuple(int_or_frac(slope / shifted + intercept) for _, _, slope, intercept in table)


def _coset_side(ctx, order: Exponent, table, leads) -> GradedCharacter:
    """S_kappa / ((q;q)^rank D) through order at one kappa's leads: exact, since every lead
    is r_vee |lam|^2/2 + (r_vee - 1)(lam, rho) >= 0 and every Euler factor is 1 + O(q)."""
    summands = [(lam, lam_star, lead) for (lam, lam_star, _, _), lead in zip(table, leads)]
    return euler_product(_lambda_sum(ctx, order, summands), _adjoint_char(ctx.rs) + _cartan_char(ctx.rs))


def assemble_coset_character(rs: RootSystem, kappa_value, order, mode: str = "group_ring",
                             xi=None) -> GradedCharacter:
    """LHS of the coset identity: sum over lam in Q+ of
    ch[Weyl module at kappa] * ch[W-algebra module at the partner level].

    Every summand carries the same (q;q)^{-rank} / D, so the sum is built as
    S_kappa = sum_lam q^lead ch[L_lam] sum_w eps(w) q^{(lam*+rho - w(lam*+rho), rho)}
    and divided once, by S_kappa / ((q;q)^rank D) = ``euler_product`` with
    ch g + rank e^0.  Each lead is read off its line in 1/(kappa + h_vee).
    """
    order = int_or_frac(order)
    ctx = make_context(rs, mode, xi)
    kappa = level(rs, kappa_value)
    kernel_partner_level(kappa, 1)  # refuses the pole; no lead reads the partner level
    table = _lead_table(rs, order)
    return _coset_side(ctx, order, table, _leads(table, kappa.shifted))


def coset_rhs_character(rs: RootSystem, kappa_value, order, mode: str = "group_ring", xi=None) -> GradedCharacter:
    """RHS: ch[vacuum affine module at kappa - 1] * ch[level-one lattice algebra]."""
    order = int_or_frac(order)
    ctx = make_context(rs, mode, xi)
    level(rs, frac(kappa_value) - 1).require_noncritical()
    return denominator_inverse(ctx, order).mul(level_one_char(ctx, order))


def verify_gko(type_label: str, order, mode: str = "group_ring", xi=None,
               kappas: Optional[List] = None) -> IdentityReport:
    """Coset character identity: the assembled sum equals ch[V^{kappa-1}]
    ch[L_1] at every sampled kappa, so the sums also agree with one another
    through the order.  Every kappa is checked before any side is built.
    One lead table serves every kappa: when every slope is 0, one side is
    compared under every kappa's label, else each kappa builds its own."""
    t0 = time.perf_counter()
    rs = build_root_system(type_label)
    order = _check_verifier_args(rs, order, mode)
    kappas = [frac(k) for k in (default_kappa_samples(rs, 2) if kappas is None else kappas)]
    if len(set(kappas)) < 2:
        raise UsageError("need at least two distinct kappa samples")
    # refuse a critical kappa or one on the kernel-partner pole before any
    # side is built; on a simply-laced type the pole kappa + h_vee = 1 is
    # also where kappa - 1, the right-hand side's level, is critical
    samples = [level(rs, k) for k in kappas]
    for kv in samples:
        kernel_partner_level(kv, 1)
    ctx = make_context(rs, mode, xi)
    table = _lead_table(rs, order)
    if any(slope for _, _, slope, _ in table):
        sides = [_coset_side(ctx, order, table, _leads(table, kv.shifted)) for kv in samples]
    else:
        sides = [_coset_side(ctx, order, table, [intercept for *_, intercept in table])] * len(samples)
    rhs = coset_rhs_character(rs, kappas[0], order, mode, xi)
    comparisons = [(f"lhs[kappa={rat_str(k)}] vs rhs", lhs, rhs) for k, lhs in zip(kappas, sides)]
    return _verdict("gko", rs, order, t0, comparisons)


def kw_lhs_character(rs: RootSystem, order, mode: str = "group_ring", xi=None) -> GradedCharacter:
    """sum_{lam in Q+} q^{(lam,lam)/2} ch[L_lam] sum_w eps(w) q^{(lam+rho-w(lam+rho), rho)}.

    Each alternating sum is multiplied out as prod_{alpha>0} (1 - q^{(lam+rho, alpha)})
    only through the depths <= order - (lam,lam)/2 that survive truncation.
    """
    order = int_or_frac(order)
    summands = [(lam, lam, int_or_frac(rs.norm2(lam) / 2))
                for lam in rs.dominant_weights_in_root_lattice(order)]
    return _lambda_sum(make_context(rs, mode, xi), order, summands)


def verify_kw(type_label: str, order, mode: str = "group_ring", xi=None) -> IdentityReport:
    """Lattice theta identity: the alternating-sum side equals Theta_Q."""
    t0 = time.perf_counter()
    rs = build_root_system(type_label)
    order = _check_verifier_args(rs, order, mode)
    ctx = make_context(rs, mode, xi)
    lhs = kw_lhs_character(rs, order, mode, xi)
    rhs = lattice_theta(ctx, order)
    return _verdict("kw", rs, order, t0, [("alternating sum vs theta", lhs, rhs)])
