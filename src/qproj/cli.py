"""Command line front end.

Every subcommand runs one verifiable computation and emits a report with the
configuration echoed for provenance.  Output formats: human table (default),
JSON (the stable machine contract, shape {"command", "config", "results",
"pass"}), and CSV.  Exit status 0 when all checks pass, 1 otherwise, 2 on
usage errors.  Identical configuration gives byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import bundles, cocycle, coordring, dolbeault, gtrep
from .qarith import DEFAULT_PRECISION, check_precision, parse_q


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, mp.mpf):
        return mp.nstr(value, 8)
    return str(value)


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, default=str) + "\n"
    results = report["results"]
    if fmt == "csv":
        buf = io.StringIO()
        if results:
            writer = csv.DictWriter(buf, fieldnames=list(results[0].keys()))
            writer.writeheader()
            for row in results:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
        return buf.getvalue()
    lines = ["command: %s" % report["command"],
             "config:  %s" % json.dumps(report["config"], default=str)]
    if results:
        cols = list(results[0].keys())
        widths = {c: max(len(c), *(len(_fmt(r[c])) for r in results)) for c in cols}
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        for row in results:
            lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in cols))
    lines.append("pass: %s" % ("yes" if report["pass"] else "no"))
    return "\n".join(lines) + "\n"


def _basic_config(args, **extra):
    cfg = {"q": "%d/%d" % (args.q.numerator, args.q.denominator),
           "precision": args.precision}
    cfg.update(extra)
    return cfg


def _parse_weight(text):
    return tuple(int(x) for x in text.split(","))


def _module_weight(args):
    weight = _parse_weight(args.n)
    if len(weight) != args.ell:
        raise ValueError("--n has %d components but --ell is %d" % (len(weight), args.ell))
    return weight


def cmd_irrep(args):
    mod = gtrep.build_irrep(_module_weight(args), args.q, args.precision, args.dim_cap)
    results = []
    for op in ("K", "E", "F"):
        for k in range(1, mod.ell + 1):
            row = {"op": "%s%d" % (op, k),
                   "nnz": {"K": mod.K, "E": mod.E, "F": mod.F}[op][k].nnz}
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(
                    args.out, "irrep_ell%d_n%s_%s%d.coo"
                    % (mod.ell, "-".join(map(str, mod.weight)), op, k))
                with open(path, "w") as fh:
                    fh.write(gtrep.export_matrix(mod, op, k))
                row["path"] = path
            results.append(row)
    cfg = _basic_config(args, ell=mod.ell, n=list(mod.weight), dim=mod.dim,
                        dim_cap=args.dim_cap)
    return {"command": "irrep", "config": cfg, "results": results, "pass": True}


def cmd_verify_relations(args):
    mod = gtrep.build_irrep(_module_weight(args), args.q, args.precision, args.dim_cap)
    report = gtrep.verify_relations(mod, args.tol)
    results = [{"relation": c.name, "residual": mp.nstr(c.residual, 8),
                "entry": "-" if c.entry is None else "%d,%d" % c.entry,
                "ok": c.residual <= report.tolerance}
               for c in report.checks]
    cfg = _basic_config(args, ell=mod.ell, n=list(mod.weight), tol=args.tol,
                        dim_cap=args.dim_cap)
    return {"command": "verify-relations", "config": cfg, "results": results,
            "pass": report.ok}


def cmd_ln_kernel(args):
    records = bundles.ker_el_numeric(args.ell, args.N, args.n1max, args.q,
                                     dim_cap=args.dim_cap)
    # Ranks are exact, so no decision is ever ill conditioned; the key stays
    # in the report for its stable shape.
    results = [{"ell": r.ell, "N": r.N, "n1": r.n1,
                "dim_constrained": r.dim_constrained,
                "dim_kernel": r.dim_kernel,
                "ill_conditioned": False}
               for r in records]
    total = sum(r.dim_kernel for r in records)
    expected = bundles.ker_el_combinatorial(args.ell, args.N)
    ok = total == expected
    cfg = _basic_config(args, ell=args.ell, N=args.N, n1max=args.n1max,
                        dim_cap=args.dim_cap, combinatorial_total=expected,
                        numeric_total=total)
    return {"command": "ln-kernel", "config": cfg, "results": results, "pass": ok}


def cmd_ring_dims(args):
    if args.Nmax < 0:
        raise ValueError("--Nmax must be non-negative, got %d" % args.Nmax)
    results = []
    ok = True
    for N in range(args.Nmax + 1):
        gd = coordring.graded_dim(args.ell + 1, N)
        kc = bundles.ker_el_combinatorial(args.ell, N)
        match = gd == kc
        ok = ok and match
        results.append({"N": N, "graded_dim": gd, "kernel_count": kc, "ok": match})
    cfg = _basic_config(args, ell=args.ell, Nmax=args.Nmax)
    return {"command": "ring-dims", "config": cfg, "results": results, "pass": ok}


def cmd_factorize(args):
    mono = _parse_weight(args.Z)
    fac = coordring.tensor_factorize(mono, args.N)
    results = [{"Z": coordring.format_monomial(mono),
                "N": args.N,
                "R": fac.R,
                "Z1": coordring.format_monomial(fac.left),
                "Z2": coordring.format_monomial(fac.right)}]
    cfg = _basic_config(args, Z=list(mono), N=args.N)
    return {"command": "factorize", "config": cfg, "results": results, "pass": True}


def cmd_euler_cp1(args):
    results = []
    ok = True
    for N in args.N:
        res = dolbeault.cp1_euler_characteristic(N, args.lmax, args.q)
        ok = ok and res.chi == -N + 1 and res.stable
        results.append({"N": N, "dim_ker": res.dim_ker, "dim_coker": res.dim_coker,
                        "chi": res.chi, "stable": res.stable})
    cfg = _basic_config(args, lmax=args.lmax)
    return {"command": "euler-cp1", "config": cfg, "results": results, "pass": ok}


def cmd_cp2_identity(args):
    report = dolbeault.cp2_coefficient_identity(
        range(0, args.nmax + 1), [args.q], args.precision)
    results = [{"n": row.n, "q": "%d/%d" % (row.q.numerator, row.q.denominator),
                "residual_mixed": mp.nstr(row.residual_mixed, 6),
                "residual_scalar": mp.nstr(row.residual_scalar, 6),
                "ok": row.ok}
               for row in report.rows]
    cfg = _basic_config(args, nmax=args.nmax)
    return {"command": "cp2-identity", "config": cfg, "results": results,
            "pass": report.ok}


def cmd_shuffle_certificate(args):
    try:
        chains = cocycle.build_chains(args.ell)
    except cocycle.ChainSearchError as exc:
        # The search has just failed; certify through the spanning tree
        # without searching again.
        cert = cocycle._tree_certificate(args.ell)
        results = [{
            "r": cert.r,
            "chain_error": str(exc),
            "membership": cert.ok,
            "via_chains": cert.via_chains,
            "pairs": len(cert.pairs),
        }]
        ok = False
    else:
        # The one solve also rebuilds its sum, which is the membership check.
        solution = cocycle.solve_cocycle_system(args.ell, 1, chains)
        results = [{
            "r": solution.r,
            "k": str(solution.k),
            "bridge": solution.bridge,
            "chain1": list(chains.chain1),
            "chain2": list(chains.chain2),
            "x": [str(v) for v in solution.x],
            "matches_closed_form": solution.matches_closed_form,
            "membership": solution.membership,
            "pairs": len(solution.edges),
        }]
        ok = solution.matches_closed_form and solution.membership
    cfg = _basic_config(args, ell=args.ell)
    return {"command": "shuffle-certificate", "config": cfg, "results": results,
            "pass": ok}


def cmd_coboundary_check(args):
    report = cocycle.twisted_coboundary_check(args.n, samples=args.samples)
    results = [{"n": report.n, "cochains": report.cochains,
                "tuples_checked": report.tuples_checked,
                "invariant_cochains": report.invariant_cochains,
                "ok": report.ok}]
    cfg = _basic_config(args, n=args.n, samples=args.samples)
    return {"command": "coboundary-check", "config": cfg, "results": results,
            "pass": report.ok}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qproj",
        description="Quantum projective space computations with built-in checks.")
    parser.add_argument("--q", default="1/2", help="deformation parameter p/r in (0,1)")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="working decimal digits (>= 30)")
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by a subparser default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", default=argparse.SUPPRESS,
                        help="deformation parameter p/r in (0,1)")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="working decimal digits (>= 30)")
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("irrep", parents=[common],
                       help="build a module and export its matrices")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", required=True, help="comma separated highest weight")
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=gtrep.DEFAULT_DIM_CAP)
    p.add_argument("--out", help="directory for coordinate-list matrix files")
    p.set_defaults(func=cmd_irrep)

    p = sub.add_parser("verify-relations", parents=[common], help="check all defining relations")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--tol", default=gtrep.DEFAULT_RELATION_TOL)
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=gtrep.DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_verify_relations)

    p = sub.add_parser("ln-kernel", parents=[common], help="line bundle kernel dimensions per block")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n1max", type=int, default=4)
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=gtrep.DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_ln_kernel)

    p = sub.add_parser("ring-dims", parents=[common], help="graded ring dimensions vs kernel counts")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--Nmax", type=int, default=10)
    p.set_defaults(func=cmd_ring_dims)

    p = sub.add_parser("factorize", parents=[common], help="split a monomial across two degrees")
    p.add_argument("--Z", required=True, help="comma separated exponent vector")
    p.add_argument("--N", type=int, required=True, help="degree of the left factor")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("euler-cp1", parents=[common], help="Euler characteristic on the quantum line")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--lmax", type=int, default=8)
    p.set_defaults(func=cmd_euler_cp1)

    p = sub.add_parser("cp2-identity", parents=[common], help="degree-2 coefficient identities")
    p.add_argument("--nmax", type=int, default=20)
    p.set_defaults(func=cmd_cp2_identity)

    p = sub.add_parser("shuffle-certificate", parents=[common], help="two-chain cocycle certificate")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_shuffle_certificate)

    p = sub.add_parser("coboundary-check", parents=[common], help="twisted coboundary checks")
    p.add_argument("--n", type=int, default=2, help="cochain degree (0..4)")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_coboundary_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.q = parse_q(args.q)
        args.precision = check_precision(args.precision)
        report = args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        report = {"command": args.command, "config": {},
                  "results": [{"error": str(exc)}], "pass": False}
    sys.stdout.write(_render(report, args.format))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
