"""Level arithmetic and the top-level character identity verifiers.

Level maps implemented here: the W-algebra level duality
r_vee (kappa + h_vee)(kappa_dual + h_vee_dual) = 1, the kernel-object
pairing 1/(kappa + h_vee) + 1/(kappa* + h_vee) = r_vee n, and the glued
pair behind both.  The verifiers assemble both sides of the coset
character identity and of the lattice theta identity from independent
constituents and compare coefficients exactly.  In ``group_ring`` the two
coset sides share one cached series for the factors of 1/D, which cannot
hide a mismatch (``make_context``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .characters import (
    LevelValue,
    _adjoint_char,
    _alternating_series,
    conformal_top_weight,
    denominator_inverse,
    euler_product,
    lattice_theta,
    level,
    level_one_char,
    walgebra_module_char,
)
from .linalg import frac
from .qseries import (
    GradedCharacter,
    make_context,
    rat_str,
    series_equal,
    series_zero,
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
        raise UsageError("degenerate level: partner would be at infinity")
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
    order: Fraction
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


def _mismatch_dict(res, comparison: str) -> dict:
    e, lhs, rhs = res
    return {"comparison": comparison, "exponent": rat_str(e), "lhs": lhs, "rhs": rhs}


def _require_known_through(order: Fraction, *sides: GradedCharacter) -> None:
    """series_equal compares only through the smaller truncation order, so a
    side known to less than the requested order would pass unchecked."""
    for side in sides:
        if side.order < order:
            raise AssertionError(
                f"a side is known only through q^{rat_str(side.order)}, "
                f"below the requested order {rat_str(order)}"
            )


def _check_verifier_args(rs: RootSystem, order, mode: str) -> Fraction:
    order = frac(order)
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


def _lambda_sum(rs: RootSystem, ctx, order: Fraction, factor) -> GradedCharacter:
    """sum_{lam in Q+} factor(lam) ch[L_lam] through order, for series factor(lam)
    with weight-free coefficients; ch[L_lam] is built only where one is nonzero."""
    total = series_zero(ctx, order)
    for lam in rs.dominant_weights_in_root_lattice(order):
        f = factor(lam)
        if f.terms:
            total = total.add(f.times(ctx.irreducible(lam)))
    return total


def assemble_coset_character(
    rs: RootSystem, kappa_value, order, mode: str = "group_ring", xi=None
) -> GradedCharacter:
    """LHS of the coset identity: sum over lam in Q+ of
    ch[Weyl module at kappa] * ch[W-algebra module at the partner level],
    computed as S_kappa = sum_lam q^{h_lam} ch[L_lam] ch[W_{lam*}] divided by D
    one Euler factor at a time (in ``group_ring``, the mu != 0 factors at once)."""
    order = frac(order)
    ctx = make_context(rs, mode, xi)
    kappa = level(rs, kappa_value)
    kappa.require_noncritical()
    partner = kernel_partner_level(kappa, 1)

    def factor(lam):
        h = conformal_top_weight(rs, lam, kappa)
        return walgebra_module_char(ctx, rs.star(lam), partner, order - h).shift(h)

    # every factor of D is 1 + O(q), so S / D is exact through order
    return euler_product(_lambda_sum(rs, ctx, order, factor), _adjoint_char(rs))


def coset_rhs_character(rs: RootSystem, kappa_value, order, mode: str = "group_ring", xi=None) -> GradedCharacter:
    """RHS: ch[vacuum affine module at kappa - 1] * ch[level-one lattice algebra]."""
    order = frac(order)
    ctx = make_context(rs, mode, xi)
    level(rs, frac(kappa_value) - 1).require_noncritical()
    return denominator_inverse(ctx, order).mul(level_one_char(ctx, order))


def verify_gko(
    type_label: str,
    order,
    mode: str = "group_ring",
    xi=None,
    kappas: Optional[List] = None,
) -> IdentityReport:
    """Coset character identity: the assembled kappa-dependent sum equals
    ch[V^{kappa-1}] ch[L_1], and is itself independent of the sampled kappa."""
    t0 = time.perf_counter()
    rs = build_root_system(type_label)
    order = _check_verifier_args(rs, order, mode)
    if kappas is None:
        kappas = default_kappa_samples(rs, 2)
    kappas = [frac(k) for k in kappas]
    if len(set(kappas)) < 2:
        raise UsageError("need at least two distinct kappa samples")
    sides = [assemble_coset_character(rs, k, order, mode, xi) for k in kappas]
    rhs = coset_rhs_character(rs, kappas[0], order, mode, xi)
    _require_known_through(order, rhs, *sides)
    status, mismatch = "pass", None
    for k, lhs in zip(kappas, sides):
        res = series_equal(lhs, rhs)
        if res is not None:
            status, mismatch = "fail", _mismatch_dict(res, f"lhs[kappa={rat_str(k)}] vs rhs")
            break
    if status == "pass":
        for k, lhs in zip(kappas[1:], sides[1:]):
            res = series_equal(sides[0], lhs)
            if res is not None:
                status, mismatch = "fail", _mismatch_dict(
                    res, f"kappa-independence {rat_str(kappas[0])} vs {rat_str(k)}")
                break
    ms = int((time.perf_counter() - t0) * 1000)
    return IdentityReport("gko", rs.type_label, order, status, mismatch, ms)


def kw_lhs_character(rs: RootSystem, order, mode: str = "group_ring", xi=None) -> GradedCharacter:
    """sum_{lam in Q+} q^{(lam,lam)/2} ch[L_lam] sum_w eps(w) q^{(lam+rho-w(lam+rho), rho)}.

    Each alternating sum is walked down from lam+rho only through the depths
    (lam+rho-w(lam+rho), rho) <= order - (lam,lam)/2 that survive truncation.
    """
    order = frac(order)
    ctx = make_context(rs, mode, xi)
    return _lambda_sum(
        rs, ctx, order, lambda lam: _alternating_series(ctx, lam, rs.norm2(lam) / 2, order)
    )


def verify_kw(type_label: str, order, mode: str = "group_ring", xi=None) -> IdentityReport:
    """Lattice theta identity: the alternating-sum side equals Theta_Q."""
    t0 = time.perf_counter()
    rs = build_root_system(type_label)
    order = _check_verifier_args(rs, order, mode)
    ctx = make_context(rs, mode, xi)
    lhs = kw_lhs_character(rs, order, mode, xi)
    rhs = lattice_theta(ctx, order)
    _require_known_through(order, lhs, rhs)
    res = series_equal(lhs, rhs)
    status = "pass" if res is None else "fail"
    mismatch = None if res is None else _mismatch_dict(res, "alternating sum vs theta")
    ms = int((time.perf_counter() - t0) * 1000)
    return IdentityReport("kw", rs.type_label, order, status, mismatch, ms)
