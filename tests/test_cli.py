"""Command line interface: reports, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qproj import bundles, cli, cocycle, gtrep
from qproj.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_euler_cp1_report(capsys):
    code, report = run_json(capsys, "euler-cp1", "--N", "2", "--lmax", "8")
    assert code == 0 and report["pass"]
    assert report["command"] == "euler-cp1"
    assert set(report) == {"command", "config", "results", "pass"}
    row = report["results"][0]
    assert (row["chi"], row["dim_ker"], row["dim_coker"]) == (-1, 0, 1)
    assert row["stable"] is True


def test_euler_cp1_multiple_degrees(capsys):
    code, report = run_json(capsys, "euler-cp1", "--N", "-2", "0", "3", "--lmax", "8")
    assert code == 0
    assert [r["chi"] for r in report["results"]] == [3, 1, -2]


def test_ln_kernel_report(capsys):
    code, report = run_json(capsys, "ln-kernel", "--ell", "2", "--N", "1", "--n1max", "3")
    assert code == 0 and report["pass"]
    assert report["config"]["numeric_total"] == 3
    rows = report["results"]
    assert [r["dim_kernel"] for r in rows] == [3, 0, 0, 0]
    assert set(rows[0]) == {"ell", "N", "n1", "dim_constrained", "dim_kernel",
                            "ill_conditioned"}


def test_verify_relations_exit_code_and_rows(capsys):
    code, report = run_json(capsys, "verify-relations", "--ell", "2", "--n", "1,1",
                            "--tol", "1e-40")
    assert code == 0 and report["pass"]
    assert all(r["ok"] for r in report["results"])


def test_ring_dims(capsys):
    code, report = run_json(capsys, "ring-dims", "--ell", "2", "--Nmax", "6")
    assert code == 0
    assert [r["graded_dim"] for r in report["results"]] == [1, 3, 6, 10, 15, 21, 28]


def test_factorize(capsys):
    code, report = run_json(capsys, "factorize", "--Z", "1,2,1", "--N", "2")
    assert code == 0
    row = report["results"][0]
    assert row["Z"] == "z^[1,2,1]" and row["R"] == 0
    assert row["Z1"] == "z^[1,1,0]" and row["Z2"] == "z^[0,1,1]"


def test_cp2_identity(capsys):
    code, report = run_json(capsys, "cp2-identity", "--nmax", "3")
    assert code == 0 and report["pass"]
    assert len(report["results"]) == 4


def test_shuffle_certificate(capsys):
    code, report = run_json(capsys, "shuffle-certificate", "--ell", "2")
    assert code == 0
    row = report["results"][0]
    assert row["k"] == "6" and row["bridge"] == 2 and row["membership"]
    assert row["x"] == ["-5", "-4", "-3", "1", "-1"]


def test_shuffle_certificate_ell4_fails_with_membership(capsys):
    code, report = run_json(capsys, "shuffle-certificate", "--ell", "4")
    assert code == 1 and not report["pass"]
    row = report["results"][0]
    assert "bipartite" in row["chain_error"]
    assert row["membership"] is True and row["pairs"] == 69


def test_shuffle_certificate_ell7_falls_back_to_the_tree(capsys):
    # The chain search runs out of its node budget; the report still comes,
    # certified through the spanning tree, and exits 1.
    code, report = run_json(capsys, "shuffle-certificate", "--ell", "7")
    assert code == 1 and not report["pass"]
    row = report["results"][0]
    assert "ell=7 (r=1716) found no partition in 2000 nodes" in row["chain_error"]
    assert row["membership"] is True and row["via_chains"] is False
    assert row["pairs"] == 3431


def test_shuffle_certificate_ell5_ends_and_falls_back_to_the_tree():
    # In a child process with a timeout, so that a chain search that never
    # ends fails here instead of hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qproj.cli", "shuffle-certificate", "--ell", "5",
         "--format", "json"], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] is False
    row = report["results"][0]
    assert "ell=5 (r=126) found no partition in 2000 nodes" in row["chain_error"]
    assert row["membership"] is True and row["via_chains"] is False
    assert row["pairs"] == 251


def test_coboundary_check(capsys):
    code, report = run_json(capsys, "coboundary-check", "--n", "1", "--samples", "5")
    assert code == 0 and report["pass"]


def test_coboundary_check_uses_q(monkeypatch, capsys):
    seen = []
    original = cocycle.twisted_coboundary_check

    def spy(*args, algebra=None, **kwargs):
        seen.append(algebra)
        return original(*args, algebra=algebra, **kwargs)

    monkeypatch.setattr(cocycle, "twisted_coboundary_check", spy)
    code, report = run_json(capsys, "coboundary-check", "--n", "1", "--samples", "5",
                            "--q", "3/4")
    assert code == 0 and report["pass"] and report["config"]["q"] == "3/4"
    assert [algebra.q for algebra in seen] == [Fraction(3, 4)]


@pytest.mark.parametrize("precision, tol", [
    ("30", "1e-20"), ("40", "1e-26"), ("60", "1e-40"), ("100", "1e-40")])
def test_verify_relations_default_tol_follows_precision(capsys, precision, tol):
    # 1e-40 lies below the rounding floor at 30 and 40 digits; there it
    # would fail correct modules.
    code, report = run_json(capsys, "verify-relations", "--ell", "2", "--n", "1,1",
                            "--precision", precision)
    assert code == 0 and report["pass"]
    assert report["config"]["tol"] == tol


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-40"])
def test_verify_relations_rejects_bad_tolerance(capsys, tol):
    # inf would pass every relation and nan fail them all.
    code, report = run_json(capsys, "verify-relations", "--ell", "2", "--n", "1,1",
                            "--tol=" + tol)
    assert code == 1 and not report["pass"]
    assert report["results"] == [
        {"error": "relation tolerance must be finite and non-negative, got %s" % tol}]


def test_bad_tolerance_is_reported_before_the_build(capsys, monkeypatch):
    # (3,3) has dimension 64, above the cap 5: the tolerance error still wins,
    # and no module is built.
    def build(*args):
        raise AssertionError("built a module for a bad tolerance")

    monkeypatch.setattr(gtrep, "build_irrep", build)
    code, report = run_json(capsys, "verify-relations", "--ell", "2", "--n", "3,3",
                            "--dim-cap", "5", "--tol", "nan")
    assert code == 1 and report["results"] == [
        {"error": "relation tolerance must be finite and non-negative, got nan"}]


def test_relation_rank_above_the_ceiling_is_reported_before_the_build(capsys, monkeypatch):
    # The trivial module has dimension 1 whatever l, so the dimension cap
    # never bounded the 5 l^2 relation checks: --ell 100 took 1.1 s and 83 MiB.
    def build(*args):
        raise AssertionError("built a module above the relation ceiling")

    monkeypatch.setattr(gtrep, "build_irrep", build)
    ell = gtrep.MAX_RELATION_ELL + 1
    code, report = run_json(capsys, "verify-relations", "--ell", str(ell),
                            "--n", ",".join(["0"] * ell))
    assert code == 1 and report["results"] == [
        {"error": "the relation check takes ell at most 100, got 101"}]


@pytest.mark.parametrize("command", ["irrep", "verify-relations"])
def test_module_rank_above_the_ceiling_is_reported_before_the_build(
        capsys, monkeypatch, command):
    # The trivial module has dimension 1 whatever l: --ell 2000 took 1.6 to
    # 2.1 s and 158 MiB, growing about as l^2.  The relation check refuses
    # first, under its own lower ceiling.
    def build(*args):
        raise AssertionError("built a module above the rank ceiling")

    monkeypatch.setattr(gtrep, "build_irrep", build)
    ell = cli.MAX_IRREP_ELL + 1
    code, report = run_json(capsys, command, "--ell", str(ell), "--n", ",".join(["0"] * ell))
    error = ("--ell must be at most 2000, got 2001" if command == "irrep"
             else "the relation check takes ell at most 100, got 2001")
    assert code == 1 and report["results"] == [{"error": error}]


def test_irrep_builds_at_the_rank_ceiling(capsys, monkeypatch):
    def build(*args):
        raise ArithmeticError("reached the build")

    monkeypatch.setattr(gtrep, "build_irrep", build)
    ell = cli.MAX_IRREP_ELL
    code, report = run_json(capsys, "irrep", "--ell", str(ell), "--n", ",".join(["0"] * ell))
    assert code == 1 and report["results"] == [{"error": "reached the build"}]


def test_block_rank_above_the_ceiling_is_reported_before_any_weyl_product(
        capsys, monkeypatch):
    # A dimension-1 block at --ell 4000 took 16.75 s and 632 MiB to pass.
    def product(*args):
        raise AssertionError("formed a Weyl product above the block ceiling")

    monkeypatch.setattr(bundles, "_capped_weyl_dim", product)
    monkeypatch.setattr(bundles, "weyl_dim", product)
    code, report = run_json(capsys, "ln-kernel", "--ell", "4000", "--N", "0", "--n1max", "0")
    assert code == 1 and report["results"] == [{"error": "ell must be at most 1000, got 4000"}]


def test_ring_dims_of_many_generators(capsys):
    code, report = run_json(capsys, "ring-dims", "--ell", "1200", "--Nmax", "0")
    assert code == 0 and report["pass"]
    assert report["results"] == [{"N": 0, "graded_dim": 1, "kernel_count": 1, "ok": True}]


@pytest.mark.parametrize("argv, error", [
    (("ring-dims", "--ell", "2", "--Nmax", "-3"), "--Nmax must be non-negative, got -3"),
    (("cp2-identity", "--nmax", "-1"), "empty parameter grid: 0 n values, 1 q values"),
])
def test_empty_ranges_are_rejected(capsys, argv, error):
    # A negative upper bound leaves nothing to check; it must not pass.
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["pass"]
    assert report["results"] == [{"error": error}]


def test_a_filter_postcondition_failure_is_one_error_row(monkeypatch, capsys):
    # A rank of 0 leaves a joint kernel that single tableaux do not span.
    monkeypatch.setattr(bundles, "exact_rank", lambda columns: 0)
    code, report = run_json(capsys, "ln-kernel", "--ell", "2", "--N", "1", "--n1max", "1")
    assert code == 1 and report["config"] == {} and not report["pass"]
    assert report["results"] == [
        {"error": "joint kernel (dim 2) is not spanned by single tableaux (1 found)"}]


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_shuffle_certificate_searches_and_solves_once(monkeypatch, capsys, ell):
    calls = {"build_chains": 0, "_telescope": 0}

    def count(name):
        original = getattr(cocycle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cocycle, name, counted)

    count("build_chains")
    count("_telescope")
    main(["shuffle-certificate", "--ell", str(ell)])
    capsys.readouterr()
    # ell 1..3 take the chain path; at ell = 4 the one search raises the
    # parity certificate and the spanning tree is solved without a second.
    assert calls == {"build_chains": 1, "_telescope": 1}


@pytest.mark.parametrize("argv, cap", [
    (("ln-kernel", "--ell", "3", "--N", "2", "--n1max", "2", "--dim-cap", "-1"), "-1"),
    (("ln-kernel", "--ell", "2", "--N", "0", "--n1max", "0", "--dim-cap", "0"), "0"),
    (("irrep", "--ell", "2", "--n", "1,1", "--dim-cap", "0"), "0"),
    (("verify-relations", "--ell", "2", "--n", "1,1", "--dim-cap", "-5"), "-5"),
])
def test_non_positive_dim_cap_is_rejected(capsys, argv, cap):
    # A cap below 1 rejects every module; it is a usage error, not a block
    # above a real cap.
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["pass"]
    assert report["results"] == [{"error": "dim_cap must be at least 1, got %s" % cap}]


def test_coboundary_check_rejects_no_samples(capsys):
    code, report = run_json(capsys, "coboundary-check", "--n", "0", "--samples", "-5")
    assert code == 1 and not report["pass"]
    assert report["results"] == [
        {"error": "need at least one sampled cochain, got samples=-5"}]


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_rejected(capsys, samples):
    # The CLI checks --samples after the cochain degree.
    code, report = run_json(capsys, "coboundary-check", "--n", "0",
                            "--samples", str(samples))
    assert code == 1 and report["results"] == [
        {"error": "need at least one sampled cochain, got samples=%d" % samples}]
    code, report = run_json(capsys, "coboundary-check", "--n", "5",
                            "--samples", str(samples))
    assert code == 1 and report["results"] == [
        {"error": "cochain degree n must lie in 0..4"}]


def test_samples_are_checked_before_the_coboundary_check(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cocycle, "twisted_coboundary_check",
                        lambda *a, **k: calls.append(a))
    code, report = run_json(capsys, "coboundary-check", "--n", "4", "--samples", "0")
    assert code == 1 and report["results"] == [
        {"error": "need at least one sampled cochain, got samples=0"}]
    assert calls == []


@pytest.mark.parametrize("argv, error", [
    (("ring-dims", "--ell", "6", "--Nmax", "30"),
     "ring-dims would enumerate C(37, 7) items, above the ceiling of 1000000"),
    (("ring-dims", "--ell", "10", "--Nmax", "20"),
     "ring-dims would enumerate C(31, 11) items, above the ceiling of 1000000"),
    (("ring-dims", "--ell", "1000000000", "--Nmax", "1000000000"),
     "ring-dims would enumerate C(2000000001, 1000000001) items, above the ceiling "
     "of 1000000"),
    (("factorize", "--Z", "100000000,1", "--N", "3"),
     "deg(Z) = 100000001 is above the word length ceiling of 4000"),
    (("shuffle-certificate", "--ell", "12"), "ell must be at most 9, got 12"),
])
def test_unbudgeted_inputs_end_in_an_error_row(argv, error):
    # In a child process with a timeout, so that an input past the ceiling
    # that runs on fails here instead of hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qproj.cli", *argv, "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["results"] == [{"error": error}]


@pytest.mark.parametrize("samples", [1, 5, 29, 30, 50])
def test_invariant_cochains_echoes_samples(capsys, samples):
    # --samples only sets the two echoed columns: every one of the 6^4
    # tuples of length 4 is checked whatever its value.
    code, report = run_json(capsys, "coboundary-check", "--n", "1",
                            "--samples", str(samples))
    assert code == 0 and report["config"]["samples"] == samples
    assert report["results"] == [{"n": 1, "cochains": samples, "tuples_checked": 6**4,
                                  "invariant_cochains": max(3, samples // 10),
                                  "ok": True}]


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_ring_dims_rejects_ell_below_one(capsys, ell):
    # One message for every ell < 1, checked before either count.
    code, report = run_json(capsys, "ring-dims", "--ell", ell, "--Nmax", "2")
    assert code == 1 and not report["pass"]
    assert report["results"] == [{"error": "--ell must be at least 1, got %s" % ell}]


@pytest.mark.parametrize("argv", [
    ("cp2-identity", "--nmax", "0"),
    ("irrep", "--ell", "1", "--n", "1"),
    ("euler-cp1", "--N", "0"),
])
def test_precision_above_the_ceiling_is_rejected(capsys, argv):
    # Every subcommand checks the ceiling before it computes anything.
    code, report = run_json(capsys, *argv, "--precision", "4001")
    assert code == 1 and report["config"] == {}
    assert report["results"] == [
        {"error": "working precision must be at most 4000 digits, got 4001"}]
    code, report = run_json(capsys, *argv, "--precision", "4000")
    assert code == 0 and report["config"]["precision"] == 4000


def test_euler_cp1_rejects_lmax_above_the_ceiling(capsys):
    code, report = run_json(capsys, "euler-cp1", "--N", "0", "--lmax", "100001")
    assert code == 1 and report["config"] == {}
    assert report["results"] == [{"error": "l_max must be at most 100000, got 100001"}]


def test_q_with_a_zero_denominator_is_reported(capsys):
    code, report = run_json(capsys, "euler-cp1", "--N", "0", "--q", "1/0")
    assert code == 1 and not report["pass"]
    assert report["results"] == [{"error": "q has a zero denominator: '1/0'"}]


def test_irrep_export(tmp_path, capsys):
    out = tmp_path / "mats"
    code, report = run_json(capsys, "irrep", "--ell", "1", "--n", "2",
                            "--out", str(out))
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["irrep_ell1_n2_E1.coo", "irrep_ell1_n2_F1.coo",
                     "irrep_ell1_n2_K1.coo"]
    header = (out / "irrep_ell1_n2_E1.coo").read_text().splitlines()[0]
    assert header == "# irrep ℓ=1 n=2 op=E1 q=1/2 precision=60"


def test_irrep_out_onto_a_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("keep\n")
    code, report = run_json(capsys, "irrep", "--ell", "1", "--n", "2", "--out", str(path))
    assert code == 1 and not report["pass"]
    [row] = report["results"]
    assert str(path) in row["error"]
    assert path.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["irrep", "verify-relations"])
def test_weight_length_must_match_ell(capsys, command):
    code, report = run_json(capsys, command, "--ell", "5", "--n", "1,1")
    assert code == 1 and not report["pass"]
    assert report["results"] == [{"error": "--n has 2 components but --ell is 5"}]


def test_global_flags_before_subcommand(capsys):
    code, report = run_json(capsys, "--q", "9/10", "cp2-identity", "--nmax", "1")
    assert code == 0
    assert report["config"]["q"] == "9/10"


def test_bad_q_reports_failure(capsys):
    code, out = run(capsys, "euler-cp1", "--N", "0", "--q", "3/2")
    assert code == 1
    assert "between 0 and 1" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_byte_identical_output(capsys):
    _c1, out1 = run(capsys, "ln-kernel", "--ell", "2", "--N", "2", "--n1max", "2",
                    "--format", "json")
    _c2, out2 = run(capsys, "ln-kernel", "--ell", "2", "--N", "2", "--n1max", "2",
                    "--format", "json")
    assert out1 == out2


def test_csv_format(capsys):
    code, out = run(capsys, "ring-dims", "--ell", "1", "--Nmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,graded_dim,kernel_count,ok"
    assert lines[1] == "0,1,1,yes"


# Byte pins of the report contract: the first 16 hex digits of the sha256 of
# stdout, and the exit code, for every subcommand in each format, one error
# report, and --q before and after the subcommand.
BYTE_PINS = [
    ("irrep --ell 2 --n 1,1 --format json", 0, "86835222cc2ede1e"),
    ("irrep --ell 2 --n 1,1 --format table", 0, "7d244139430a1800"),
    ("irrep --ell 2 --n 1,1 --format csv", 0, "c4e83f467849a18b"),
    ("verify-relations --ell 2 --n 1,1 --format json", 0, "aec6c655284efe76"),
    ("verify-relations --ell 2 --n 1,1 --format table", 0, "289d693bf3c3a5e9"),
    ("verify-relations --ell 2 --n 1,1 --format csv", 0, "a2e831d1a658a29e"),
    ("ln-kernel --ell 2 --N 1 --n1max 3 --format json", 0, "fb4706f9bf0c96b7"),
    ("ln-kernel --ell 2 --N 1 --n1max 3 --format table", 0, "6239e39bc2ea047d"),
    ("ln-kernel --ell 2 --N 1 --n1max 3 --format csv", 0, "74f59a2b4add9dfc"),
    ("ring-dims --ell 2 --Nmax 4 --format json", 0, "50569232503db9a4"),
    ("ring-dims --ell 2 --Nmax 4 --format table", 0, "3222ca4f352f8939"),
    ("ring-dims --ell 2 --Nmax 4 --format csv", 0, "85f034bb00b6e576"),
    ("factorize --Z 1,2,1 --N 2 --format json", 0, "d054e6b6a37346b1"),
    ("factorize --Z 1,2,1 --N 2 --format table", 0, "0b67d44f6fe4b6f8"),
    ("factorize --Z 1,2,1 --N 2 --format csv", 0, "2f88ef5f3b222aab"),
    ("euler-cp1 --N -1 2 --lmax 6 --format json", 0, "125b39f226857480"),
    ("euler-cp1 --N -1 2 --lmax 6 --format table", 0, "bcfeb3bcd95f6386"),
    ("euler-cp1 --N -1 2 --lmax 6 --format csv", 0, "edc977df8356998d"),
    ("cp2-identity --nmax 3 --format json", 0, "2cb400735270e4d2"),
    ("cp2-identity --nmax 3 --format table", 0, "7a724f209627af41"),
    ("cp2-identity --nmax 3 --format csv", 0, "21d7756ce64b388a"),
    ("shuffle-certificate --ell 2 --format json", 0, "ec59fc8ed2d5b93b"),
    ("shuffle-certificate --ell 2 --format table", 0, "4a07a047f9fb8a28"),
    ("shuffle-certificate --ell 2 --format csv", 0, "9668c6b9f914ae62"),
    ("coboundary-check --n 1 --samples 5 --format json", 0, "2358c7cb19ddca42"),
    ("coboundary-check --n 1 --samples 5 --format table", 0, "4c927c04db16f7d7"),
    ("coboundary-check --n 1 --samples 5 --format csv", 0, "be461fc8ffd13cac"),
    ("ring-dims --ell 2 --Nmax -3", 1, "6ce297e226e55f55"),
    ("cp2-identity --nmax 1001", 1, "7b90f654a1c0b38d"),
    ("--q 9/10 cp2-identity --nmax 1 --format json", 0, "33cbc9a8fcbf97ef"),
    ("cp2-identity --nmax 1 --q 9/10 --format json", 0, "33cbc9a8fcbf97ef"),
]


def test_pins_cover_every_subcommand_in_every_format():
    pinned = {(argv.split()[0], argv.split()[-1]) for argv, _code, _digest in BYTE_PINS}
    commands = build_parser()._subparsers._group_actions[0].choices
    assert pinned >= {(name, fmt) for name in commands for fmt in ("json", "table", "csv")}


@pytest.mark.parametrize("argv, code, digest", BYTE_PINS)
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


def readme_command_lines():
    """The argv of every `qproj ...` line of the README's Command line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("qproj ")]


def test_the_readme_shows_every_subcommand():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in readme_command_lines()} == set(commands)


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_lines_pass(capsys, monkeypatch, tmp_path, argv):
    # A renamed flag or subcommand would leave the README wrong; the
    # `irrep --out` line writes under tmp_path.
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == 0, out


# The JSON report of every shuffle-certificate ell up to the ceiling
# MAX_SHUFFLE_ELL = 9, pinned as above: ell 1..3 certify through the chains,
# ell 4..9 through the spanning tree, and exit 1.
SHUFFLE_PINS = [
    (1, 0, "aaceb9de10fb9511"),
    (2, 0, "ec59fc8ed2d5b93b"),
    (3, 0, "78fb202865afa89f"),
    (4, 1, "93d49cc58ee5f215"),
    (5, 1, "1660b6f845948694"),
    (6, 1, "906d42c170d96f57"),
    (7, 1, "086e7ef82c42a148"),
    (8, 1, "7e400b1bf4c61394"),
    (9, 1, "e964fc690a7c4174"),
]


def test_shuffle_pins_reach_the_ceiling():
    assert [ell for ell, _code, _digest in SHUFFLE_PINS] == list(
        range(1, cocycle.MAX_SHUFFLE_ELL + 1))


@pytest.mark.parametrize("ell, code, digest", SHUFFLE_PINS)
def test_shuffle_certificate_bytes_are_pinned(capsys, ell, code, digest):
    got_code, out = run(capsys, "shuffle-certificate", "--ell", str(ell), "--format", "json")
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# Subcommands mixed; --q and --precision given, then omitted; an exit 1 and
# an argparse usage error (exit 2) in between.
_SEQUENCE = [
    ["coboundary-check", "--n", "1", "--q", "3/4", "--precision", "40", "--format", "json"],
    ["coboundary-check", "--n", "1", "--format", "json"],
    ["--q", "9/10", "factorize", "--Z", "1,2,1", "--N", "2"],
    ["coboundary-check", "--n", "x"],
    ["factorize", "--Z", "1,2,1", "--N", "2"],
    ["euler-cp1", "--N", "1", "2", "--lmax", "6", "--format", "csv", "--precision", "50"],
    ["coboundary-check", "--n", "5", "--format", "json"],
    ["ring-dims", "--ell", "2", "--Nmax", "3", "--q", "1/3"],
    ["shuffle-certificate", "--ell", "2"],
    ["ring-dims", "--ell", "2", "--Nmax", "3", "--format", "json"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_sequence_of_calls(capsys):
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in _SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in _SEQUENCE:
        cli._parser.cache_clear()  # a new parser for every call
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [0, 0, 0, 2, 0, 0, 1, 0, 0, 0]
    assert "invalid int value: 'x'" in shared[3][2]
    # A flag given to one call does not stay for the next.
    first, second = (json.loads(out)["config"] for _code, out, _err in shared[:2])
    assert (first["q"], first["precision"]) == ("3/4", 40)
    assert (second["q"], second["precision"]) == ("1/2", 60)
    assert '"q": "1/2"' in shared[4][1] and '"q": "9/10"' in shared[2][1]
