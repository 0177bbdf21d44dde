"""Command-line surface: identity verifiers and structured JSON reports.

Every command writes a schema-versioned JSON report (stdout, and to
--out when given) and exits 0 on pass, 1 on an identity mismatch, 2 on
a usage error, 3 on an internal error (a failed consistency check, with
its traceback on stderr).  Reports are byte-identical for identical
configurations; wall-clock fields stay zeroed unless --timing is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .characters import (
    denominator_inverse,
    denominator_series,
    lattice_theta,
    level,
    level_one_char,
    walgebra_module_char,
    weyl_module_char,
)
from .finite_lie import (
    chevalley_structure,
    classify_extension,
    equivariant_hom_dim,
    invariant_forms,
    singular_constraints,
    takiff,
)
from .levels import (
    IdentityReport,
    LevelRelation,
    conformal_weight,
    conformal_weight_closed,
    default_kappa_samples,
    ff_dual_level,
    gluing_levels,
    kernel_partner_level,
    verify_gko,
    verify_kw,
)
from .qseries import GradedCharacter, make_context, rat_str
from .rootsys import UsageError, build_root_system, weight

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}") from None


def parse_coords(text: str) -> tuple:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse weight coordinates {text!r}") from None


def _spec_mode(name: str) -> str:
    return {"full": "group_ring", "trivial": "trivial", "ray": "ray"}.get(name, name)


def _write_report(payload: dict, out_path: Optional[str]) -> None:
    """Write the report to --out (through a temporary file, replaced into
    place), then to stdout; an unwritable --out is a usage error, and no
    report is printed for it."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        tmp = out_path + ".tmp"
        made = False
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                made = True
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError as exc:
            if made:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise UsageError(f"cannot write report to {out_path}: {exc.strerror or exc}") from None
    sys.stdout.write(text)


def _finish(command: str, config: dict, reports: List[dict], status: str,
            out_path: Optional[str], t0: float, timing: bool) -> int:
    payload = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": config,
        "reports": reports,
        "status": status,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000) if timing else 0,
    }
    _write_report(payload, out_path)
    return EXIT_PASS if status == "pass" else EXIT_MISMATCH


def _identity_json(rep: IdentityReport, timing: bool) -> dict:
    out = rep.to_json()
    if not timing:
        out["timing_ms"] = 0
    return out


def _xi_config(xi) -> dict:
    """The report's record of the ray coweight, when one was given."""
    return {} if xi is None else {"xi": [rat_str(c) for c in xi]}


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_verify_gko(args, t0: float) -> int:
    rs = build_root_system(args.type)
    kappas = [parse_rational(k) for k in args.kappa] if args.kappa else None
    xi = parse_coords(args.xi) if args.xi else None
    rep = verify_gko(args.type, parse_rational(args.order), _spec_mode(args.spec),
                     xi=xi, kappas=kappas)
    config = {
        "type": args.type,
        "order": args.order,
        "spec": args.spec,
        "kappas": [rat_str(k) for k in (kappas or default_kappa_samples(rs, 2))],
        **_xi_config(xi),
    }
    return _finish("verify-gko", config, [_identity_json(rep, args.timing)],
                   rep.status, args.out, t0, args.timing)


def cmd_verify_kw(args, t0: float) -> int:
    xi = parse_coords(args.xi) if args.xi else None
    rep = verify_kw(args.type, parse_rational(args.order), _spec_mode(args.spec), xi=xi)
    config = {"type": args.type, "order": args.order, "spec": args.spec, **_xi_config(xi)}
    return _finish("verify-kw", config, [_identity_json(rep, args.timing)],
                   rep.status, args.out, t0, args.timing)


def cmd_weights(args, t0: float) -> int:
    rs = build_root_system(args.type)
    n = args.n
    bound = parse_rational(args.max_norm) / 2
    rows = []
    all_positive = True
    kappa = default_kappa_samples(rs, 1)[0]
    for lam in rs.dominant_weights_in_root_lattice(bound):
        h_two = conformal_weight(rs, lam, kappa, n)
        h_closed = conformal_weight_closed(rs, lam, n)
        positive = h_closed > 0 or all(c == 0 for c in lam)
        all_positive = all_positive and positive and h_two == h_closed
        rows.append(
            {
                "lambda": [rat_str(c) for c in lam],
                "norm2": rat_str(rs.norm2(lam)),
                "h": rat_str(h_closed),
                "h_two_term": rat_str(h_two),
            }
        )
    config = {"type": args.type, "n": n, "max_norm": args.max_norm}
    status = "pass" if all_positive else "fail"
    return _finish("weights", config, rows, status, args.out, t0, args.timing)


def cmd_levels(args, t0: float) -> int:
    rs = build_root_system(args.type)
    kappa = level(rs, parse_rational(args.kappa))
    if args.op != "ff-dual" and args.n < 1:  # A[g, kappa, n] has n in Z_{>0}
        raise UsageError(f"levels --op {args.op} requires n a positive integer, not {args.n}")
    if args.op == "ff-dual":
        rels = [LevelRelation("ff_dual", None, kappa, ff_dual_level(kappa))]
    elif args.op == "kernel":
        rels = [LevelRelation("kernel", args.n, kappa, kernel_partner_level(kappa, args.n))]
    elif args.op == "gluing":
        first, second = gluing_levels(kappa, args.n)
        rels = [LevelRelation("gluing_first", args.n, kappa, first),
                LevelRelation("gluing_second", args.n, kappa, second)]
    else:
        raise UsageError(f"unknown level operation {args.op!r}")
    rows = [rel.to_json() for rel in rels]
    status = "pass" if all(rel.holds() for rel in rels) else "fail"
    config = {"type": args.type, "kappa": args.kappa, "op": args.op, "n": args.n}
    return _finish("levels", config, rows, status, args.out, t0, args.timing)


def cmd_takiff_forms(args, t0: float) -> int:
    ls = chevalley_structure(args.type)
    base_forms = invariant_forms(ls)
    tak = takiff(ls)
    tak_forms = invariant_forms(tak)
    d = ls.dimension
    block_zero = all(
        all(form[i][j] == 0 for i in range(d, 2 * d) for j in range(d, 2 * d))
        for form in tak_forms.basis
    )
    rows = [
        {"algebra": ls.name, "form_space_dim": base_forms.dimension},
        {
            "algebra": tak.name,
            "form_space_dim": tak_forms.dimension,
            "gt_gt_block_zero": block_zero,
        },
    ]
    status = "pass" if (base_forms.dimension == 1 and tak_forms.dimension == 2 and block_zero) else "fail"
    config = {"type": args.type}
    return _finish("takiff-forms", config, rows, status, args.out, t0, args.timing)


def cmd_hom_dim(args, t0: float) -> int:
    ls = chevalley_structure(args.type)
    dim = equivariant_hom_dim(args.rep_from, args.rep_to, ls)
    rows = [{"from": args.rep_from, "to": args.rep_to, "dim": dim}]
    config = {"type": args.type, "from": args.rep_from, "to": args.rep_to}
    return _finish("hom-dim", config, rows, "pass", args.out, t0, args.timing)


def cmd_classify_ext(args, t0: float) -> int:
    base = chevalley_structure(args.base)
    result = classify_extension(parse_rational(args.alpha), parse_rational(args.beta), base)
    config = {"alpha": args.alpha, "beta": args.beta, "base": args.base}
    return _finish("classify-ext", config, [result.to_json()], "pass", args.out, t0, args.timing)


def cmd_singular(args, t0: float) -> int:
    scale_e = (parse_rational(args.scale_ea), parse_rational(args.scale_eb))
    scale_f = (parse_rational(args.scale_fa), parse_rational(args.scale_fb))
    constraints = singular_constraints(scale_e, scale_f)
    rows = [c.to_json() for c in constraints]
    expect = {
        "aa": {"variable": "kappa1", "roots": ["0", "1"]},
        "bb": {"variable": "kappa2", "roots": ["0", "1"]},
        "ab": {"product_of": ["kappa1", "kappa2"]},
    }
    status = "pass" if all(c.root_set == expect[c.pair] for c in constraints) else "fail"
    config = {
        "scale_e": [args.scale_ea, args.scale_eb],
        "scale_f": [args.scale_fa, args.scale_fb],
    }
    return _finish("singular", config, rows, status, args.out, t0, args.timing)


# --which -> the series it dumps, from (ctx, lam, kappa, order)
_CHAR_BUILDERS = {
    "level-one": lambda ctx, lam, kappa, order: level_one_char(ctx, order),
    "weyl": weyl_module_char,
    "wmod": walgebra_module_char,
    "denominator": lambda ctx, lam, kappa, order: denominator_series(ctx, order),
    "denominator-inverse": lambda ctx, lam, kappa, order: denominator_inverse(ctx, order),
    "finite": lambda ctx, lam, kappa, order: GradedCharacter(
        ctx, order, {Fraction(0): ctx.irreducible(lam)}),
    "theta": lambda ctx, lam, kappa, order: lattice_theta(ctx, order),
}


def cmd_char(args, t0: float) -> int:
    rs = build_root_system(args.type)
    order = parse_rational(args.order)
    mode = _spec_mode(args.spec)
    ctx = make_context(rs, mode, parse_coords(args.xi) if args.xi else None)
    lam = weight(parse_coords(args.lam)) if args.lam else (0,) * rs.rank
    rs._require_rank(lam)  # for every builder, also those that take no weight
    kappa = level(rs, parse_rational(args.kappa)) if args.kappa else level(
        rs, default_kappa_samples(rs, 1)[0]
    )
    series = _CHAR_BUILDERS[args.which](ctx, lam, kappa, order)
    config = {
        "type": args.type,
        "which": args.which,
        "order": args.order,
        "spec": args.spec,
        "lambda": args.lam,
        "kappa": args.kappa,
    }
    return _finish("char", config, [series.to_json()], "pass", args.out, t0, args.timing)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechar",
        description="Exact character identities for affine and W-algebra modules.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_type=True):
        if with_type:
            p.add_argument("--type", required=True, help="type label, e.g. A2, d4")
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--timing", action="store_true", help="include wall-clock timings")

    p = sub.add_parser("verify-gko", help="coset character identity")
    common(p)
    p.add_argument("--order", required=True)
    p.add_argument("--spec", default="full", choices=["full", "trivial", "ray"])
    p.add_argument("--xi", help="ray coweight coordinates, e.g. 1,1")
    p.add_argument("--kappa", action="append", help="rational level sample (repeatable)")
    p.set_defaults(func=cmd_verify_gko)

    p = sub.add_parser("verify-kw", help="lattice theta identity")
    common(p)
    p.add_argument("--order", required=True)
    p.add_argument("--spec", default="full", choices=["full", "trivial", "ray"])
    p.add_argument("--xi")
    p.set_defaults(func=cmd_verify_kw)

    p = sub.add_parser("weights", help="conformal weight table over Q+")
    common(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-norm", default="4", help="include lam with (lam,lam) <= this")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("levels", help="level arithmetic (ff-dual / kernel / gluing)")
    common(p)
    p.add_argument("--kappa", required=True)
    p.add_argument("--op", required=True, choices=["ff-dual", "kernel", "gluing"])
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("takiff-forms", help="invariant bilinear forms of g and T(g)")
    common(p)
    p.set_defaults(func=cmd_takiff_forms)

    p = sub.add_parser("hom-dim", help="dimension of an intertwiner space")
    common(p)
    p.add_argument("--from", dest="rep_from", default="alt2_adjoint",
                   choices=["adjoint", "alt2_adjoint", "sym2_adjoint", "trivial"])
    p.add_argument("--to", dest="rep_to", default="adjoint",
                   choices=["adjoint", "alt2_adjoint", "sym2_adjoint", "trivial"])
    p.set_defaults(func=cmd_hom_dim)

    p = sub.add_parser("classify-ext", help="classify a doubled-bracket extension")
    common(p, with_type=False)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--base", default="A1")
    p.set_defaults(func=cmd_classify_ext)

    p = sub.add_parser("singular", help="degree-two singular-vector constraints")
    common(p, with_type=False)
    p.add_argument("--scale-ea", default="1")
    p.add_argument("--scale-eb", default="1")
    p.add_argument("--scale-fa", default="1")
    p.add_argument("--scale-fb", default="1")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("char", help="dump a character series as canonical JSON")
    common(p)
    p.add_argument("--which", required=True, choices=list(_CHAR_BUILDERS))
    p.add_argument("--order", required=True)
    p.add_argument("--spec", default="full", choices=["full", "trivial", "ray"])
    p.add_argument("--xi")
    p.add_argument("--lambda", dest="lam", help="weight coordinates, e.g. 1,1")
    p.add_argument("--kappa")
    p.set_defaults(func=cmd_char)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args, t0)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a failed internal check, not a mismatch (exit 1)
        traceback.print_exc()
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
