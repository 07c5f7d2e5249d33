"""Command line front end.

Every subcommand runs one verifiable computation and returns its config
fields, its result rows and whether it passed; `main` alone wraps them in the
report, with q and precision echoed first for provenance.  Output formats:
human table (default), JSON (the stable machine contract, shape {"command",
"config", "results", "pass"}), and CSV.  Exit status 0 when all checks pass,
1 otherwise (an error is one "error" row under an empty config), 2 on usage
errors.  Identical configuration gives byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from mpmath import mp

from . import bundles, cocycle, coordring, dolbeault, gtrep
from .qarith import DEFAULT_PRECISION, DEFAULT_Q, check_precision, parse_q


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
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


def _parse_weight(text):
    return tuple(int(x) for x in text.split(","))


# The rank of a CLI module build: even the trivial module, of dimension 1 and
# so under any dimension cap, costs about l^2, about 2 s at l = 2,000.
MAX_IRREP_ELL = 2000


def _build_module(args):
    if args.ell > MAX_IRREP_ELL:  # before the build
        raise ValueError("--ell must be at most %d, got %d" % (MAX_IRREP_ELL, args.ell))
    weight = _parse_weight(args.n)
    if len(weight) != args.ell:
        raise ValueError("--n has %d components but --ell is %d" % (len(weight), args.ell))
    return gtrep.build_irrep(weight, args.q, args.precision, args.dim_cap)


def cmd_irrep(args):
    mod = _build_module(args)
    results = []
    for op in ("K", "E", "F"):
        for k in range(1, mod.ell + 1):
            row = {"op": "%s%d" % (op, k), "nnz": getattr(mod, op)[k].nnz}
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(
                    args.out, "irrep_ell%d_n%s_%s%d.coo"
                    % (mod.ell, "-".join(map(str, mod.weight)), op, k))
                with open(path, "w") as fh:
                    fh.write(gtrep.export_matrix(mod, op, k))
                row["path"] = path
            results.append(row)
    cfg = {"ell": mod.ell, "n": list(mod.weight), "dim": mod.dim, "dim_cap": args.dim_cap}
    return cfg, results, True


def cmd_verify_relations(args):
    tol, _value = gtrep._relation_tol(args.tol, args.precision, args.ell)  # before the build
    mod = _build_module(args)
    report = gtrep.verify_relations(mod, tol)
    results = [{"relation": c.name, "residual": mp.nstr(c.residual, 8),
                "entry": "-" if c.entry is None else "%d,%d" % c.entry,
                "ok": c.residual <= report.tolerance}
               for c in report.checks]
    cfg = {"ell": mod.ell, "n": list(mod.weight), "tol": tol, "dim_cap": args.dim_cap}
    return cfg, results, report.ok


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
    cfg = {"ell": args.ell, "N": args.N, "n1max": args.n1max, "dim_cap": args.dim_cap,
           "combinatorial_total": expected, "numeric_total": total}
    return cfg, results, total == expected


def cmd_ring_dims(args):
    if args.Nmax < 0:
        raise ValueError("--Nmax must be non-negative, got %d" % args.Nmax)
    if args.ell < 1:  # before either count, so every ell < 1 gets this message
        raise ValueError("--ell must be at least 1, got %d" % args.ell)
    # Each column enumerates C(Nmax + ell + 1, ell + 1) items in all.
    coordring._check_count(args.Nmax + args.ell + 1, args.ell + 1, "ring-dims")
    results = []
    ok = True
    for N in range(args.Nmax + 1):
        gd = coordring.graded_dim(args.ell + 1, N)
        kc = bundles.ker_el_combinatorial(args.ell, N)
        match = gd == kc
        ok = ok and match
        results.append({"N": N, "graded_dim": gd, "kernel_count": kc, "ok": match})
    return {"ell": args.ell, "Nmax": args.Nmax}, results, ok


def cmd_factorize(args):
    mono = _parse_weight(args.Z)
    fac = coordring.tensor_factorize(mono, args.N)
    results = [{"Z": coordring.format_monomial(mono),
                "N": args.N,
                "R": fac.R,
                "Z1": coordring.format_monomial(fac.left),
                "Z2": coordring.format_monomial(fac.right)}]
    return {"Z": list(mono), "N": args.N}, results, True


def cmd_euler_cp1(args):
    results = []
    ok = True
    for N in args.N:
        res = dolbeault.cp1_euler_characteristic(N, args.lmax)
        ok = ok and res.chi == -N + 1 and res.stable
        results.append({"N": N, "dim_ker": res.dim_ker, "dim_coker": res.dim_coker,
                        "chi": res.chi, "stable": res.stable})
    return {"lmax": args.lmax}, results, ok


def cmd_cp2_identity(args):
    report = dolbeault.cp2_coefficient_identity(
        range(0, args.nmax + 1), [args.q], args.precision)
    results = [{"n": row.n, "q": "%d/%d" % (row.q.numerator, row.q.denominator),
                "residual_mixed": mp.nstr(row.residual_mixed, 6),
                "residual_scalar": mp.nstr(row.residual_scalar, 6),
                "ok": row.ok}
               for row in report.rows]
    return {"nmax": args.nmax}, results, report.ok


def cmd_shuffle_certificate(args):
    try:
        chains = cocycle.build_chains(args.ell)
    except cocycle.ChainSearchError as exc:
        # The search has just failed; certify through the spanning tree
        # without searching again.
        cert = cocycle._certificate(args.ell, cocycle.spanning_tree_edges(args.ell), False)
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
    return {"ell": args.ell}, results, ok


def cmd_coboundary_check(args):
    # Every cochain is certified at once: --samples is only checked, after
    # the degree and before any work, and echoed.
    cocycle._check_degree(args.n)
    if args.samples < 1:
        raise ValueError("need at least one sampled cochain, got samples=%d" % args.samples)
    report = cocycle.twisted_coboundary_check(
        args.n, algebra=coordring.TruncatedPolynomialAlgebra(2, 2, args.q))
    results = [{"n": report.n, "cochains": args.samples,
                "tuples_checked": report.tuples_checked,
                "invariant_cochains": max(3, args.samples // 10),
                "ok": report.ok}]
    return {"n": args.n, "samples": args.samples}, results, report.ok


def build_parser():
    # The global flags are accepted before and after the subcommand; with
    # SUPPRESS a subparser leaves a value given before it alone, and `main`
    # fills in what neither gave.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", default=argparse.SUPPRESS,
                        help="deformation parameter p/r in (0,1)")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="working decimal digits (30..4000)")
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default=argparse.SUPPRESS)
    # Flags that several subcommands share, one parent parser each.
    ell, weight, dim_cap = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    ell.add_argument("--ell", type=int, required=True)
    weight.add_argument("--n", required=True, help="comma separated highest weight")
    dim_cap.add_argument("--dim-cap", type=int, default=gtrep.DEFAULT_DIM_CAP)

    parser = argparse.ArgumentParser(
        prog="qproj", parents=[common],
        description="Quantum projective space computations with built-in checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("irrep", cmd_irrep, "build a module and export its matrices",
                ell, weight, dim_cap)
    p.add_argument("--out", help="directory for coordinate-list matrix files")
    p = command("verify-relations", cmd_verify_relations, "check all defining relations",
                ell, weight, dim_cap)
    p.add_argument("--tol", help="default 1e-min(40, 2*precision//3)")
    p = command("ln-kernel", cmd_ln_kernel, "line bundle kernel dimensions per block",
                ell, dim_cap)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n1max", type=int, default=4)
    p = command("ring-dims", cmd_ring_dims, "graded ring dimensions vs kernel counts", ell)
    p.add_argument("--Nmax", type=int, default=10)
    p = command("factorize", cmd_factorize, "split a monomial across two degrees")
    p.add_argument("--Z", required=True, help="comma separated exponent vector")
    p.add_argument("--N", type=int, required=True, help="degree of the left factor")
    p = command("euler-cp1", cmd_euler_cp1, "Euler characteristic on the quantum line")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--lmax", type=int, default=8,
                   help="largest spin (at most %d)" % dolbeault.MAX_LMAX)
    p = command("cp2-identity", cmd_cp2_identity, "degree-2 coefficient identities")
    p.add_argument("--nmax", type=int, default=20)
    command("shuffle-certificate", cmd_shuffle_certificate, "two-chain cocycle certificate",
            ell)
    p = command("coboundary-check", cmd_coboundary_check, "twisted coboundary checks")
    p.add_argument("--n", type=int, default=2, help="cochain degree (0..4)")
    p.add_argument("--samples", type=int, default=50)
    return parser


# Built on the first `main` call, not at import; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv, argparse.Namespace(
        q=DEFAULT_Q, precision=DEFAULT_PRECISION, format="table"))
    try:
        args.q = parse_q(args.q)
        args.precision = check_precision(args.precision)
        fields, results, ok = args.func(args)
        config = {"q": "%d/%d" % (args.q.numerator, args.q.denominator),
                  "precision": args.precision, **fields}
    except (ValueError, ArithmeticError, OSError) as exc:
        config, results, ok = {}, [{"error": str(exc)}], False
    report = {"command": args.command, "config": config, "results": results, "pass": ok}
    sys.stdout.write(_render(report, args.format))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
