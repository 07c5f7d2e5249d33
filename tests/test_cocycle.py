"""Shuffle chains, the telescoping solve, membership, twisted coboundary."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import ref_double_coboundary, ref_invariance_defect
from qproj.coordring import TruncatedPolynomialAlgebra
from qproj import cocycle
from qproj.cocycle import (
    MAX_SHUFFLE_ELL,
    ChainSearchError,
    Chains,
    _certificate,
    _double_coboundary,
    _face_table,
    _invariance_defect,
    b_sigma,
    build_chains,
    chain_edges,
    default_toy_algebra,
    enumerate_shuffles,
    flip_neighbors,
    is_flip_adjacent,
    lambda_sigma,
    parity_split,
    solve_cocycle_system,
    spanning_tree_edges,
    twisted_coboundary_check,
    verify_membership,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# -- enumeration --------------------------------------------------------------

def test_shuffle_counts():
    assert enumerate_shuffles(1) == ["01", "10"]
    assert len(enumerate_shuffles(2)) == 6
    assert len(enumerate_shuffles(3)) == 20
    with pytest.raises(ValueError, match="ell must be at least 1"):
        enumerate_shuffles(0)


def test_shuffles_are_sorted_and_balanced():
    pats = enumerate_shuffles(3)
    assert pats == sorted(pats)
    assert all(p.count("0") == p.count("1") == 3 for p in pats)


def test_flip_adjacency():
    assert is_flip_adjacent("0011", "0101")
    assert not is_flip_adjacent("0011", "0110")
    assert not is_flip_adjacent("0011", "0011")
    assert "0101" in flip_neighbors("0011")


@pytest.mark.parametrize("a, b", [("0011", "01"), ("01", "0011")])
def test_flip_adjacency_of_different_lengths_is_false(a, b):
    assert not is_flip_adjacent(a, b)


# -- chains ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2, 3])
def test_chains_partition_and_adjacency(ell):
    chains = build_chains(ell)
    pats = enumerate_shuffles(ell)
    r = len(pats) // 2
    assert len(chains.chain1) == len(chains.chain2) == r
    assert sorted(chains.chain1 + chains.chain2) == pats
    assert chains.chain1[0] == "0" * ell + "1" * ell
    assert chains.chain2[0] == "1" * ell + "0" * ell
    for chain in (chains.chain1, chains.chain2):
        for a, b in zip(chain, chain[1:]):
            assert is_flip_adjacent(a, b)
    assert is_flip_adjacent(chains.chain1[-1], chains.chain2[chains.bridge - 1])


def test_chain_bridge_positions():
    assert build_chains(1).bridge == 1
    assert build_chains(2).bridge == 2
    assert build_chains(3).bridge == 2


def test_ell2_chains_explicit():
    chains = build_chains(2)
    assert chains.chain1 == ("0011", "0101", "0110")
    assert chains.chain2 == ("1100", "1010", "1001")


def test_ell3_chains_explicit():
    chains = build_chains(3)
    assert chains.chain1 == (
        "000111", "001011", "001101", "001110", "010110",
        "010101", "011001", "011010", "011100", "101100")
    assert chains.chain2 == (
        "111000", "110100", "110010", "110001", "101001",
        "101010", "100110", "100101", "100011", "010011")
    assert chains.bridge == 2


def test_chains_impossible_at_ell4_with_parity_certificate():
    # The flip graph splits (38, 32) by parity and two alternating paths of
    # 35 vertices cover at most 36 of the larger class, so no partition
    # exists; the error message carries that counting certificate.
    assert parity_split(enumerate_shuffles(4)) in ((38, 32), (32, 38))
    with pytest.raises(ChainSearchError, match="bipartite with classes"):
        build_chains(4)


def test_chain_search_past_the_recursion_limit_is_a_typed_error():
    # At ell = 7 (r = 1716) a recursive search would nest up to 2r = 3432
    # calls, past the recursion limit; the budgeted stack ends it typed.
    with pytest.raises(ChainSearchError, match=r"ell=7 \(r=1716\) .* in 2000 nodes"):
        build_chains(7)


@pytest.mark.parametrize("ell, r", [(5, 126), (7, 1716)])
def test_chain_search_ends_by_its_node_budget(ell, r):
    # In a child process with a timeout, so that a search that never ends
    # fails here instead of hanging the suite.
    code = ("from qproj.cocycle import ChainSearchError, build_chains\n"
            "try:\n    build_chains(%d)\n"
            "except ChainSearchError as exc:\n    print(exc)\n" % ell)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "chain search for ell=%d (r=%d) found no partition in 2000 nodes "
        "(budget 2000)\n" % (ell, r))


# -- the exact solve ----------------------------------------------------------------

def test_solve_ell1():
    sol = solve_cocycle_system(1, 1)
    assert sol.r == 1 and sol.k == 2
    assert sol.x == (Fraction(-1),)
    assert sol.matches_closed_form and sol.sign_absorbed == ()


def test_solve_ell2():
    sol = solve_cocycle_system(2, 1)
    assert sol.k == 6 == 2 * sol.r
    assert sol.x == tuple(map(Fraction, (-5, -4, -3, 1, -1)))
    assert sol.matches_closed_form
    assert sol.sign_absorbed == (sol.r + 1,)
    assert abs(sol.x[sol.r]) == 1  # |x_(r+1)| = m, sign absorbed


def test_solve_ell3():
    sol = solve_cocycle_system(3, 1)
    assert sol.r == 10 and sol.k == 20
    assert sol.matches_closed_form
    # bare pattern -(2r-i)m holds away from the single absorbed index
    for i, xi in enumerate(sol.x, start=1):
        if i != sol.r + 1:
            assert xi == -(2 * sol.r - i)


def test_solve_scales_linearly_in_m():
    m = Fraction(3, 7)
    sol = solve_cocycle_system(2, m)
    assert sol.k == 6 * m
    assert sol.x == tuple(v * m for v in (-5, -4, -3, 1, -1))


def test_solution_reconstructs_target():
    # Independent of the solver: sum x_e (phi_a - phi_b) must equal
    # m*tau - k*phi_first coefficientwise.
    for ell in (1, 2, 3):
        sol = solve_cocycle_system(ell, 1)
        first = "0" * ell + "1" * ell
        total = {p: Fraction(0) for p in enumerate_shuffles(ell)}
        for xe, (a, b) in zip(sol.x, sol.edges):
            total[a] += xe
            total[b] -= xe
        for p, coeff in total.items():
            expected = Fraction(1) - (sol.k if p == first else 0)
            assert coeff == expected


# Coefficients at m = 1, as a dense rational solve of the incidence system
# gives them; the tree solve must return the same exact Fractions.
CHAIN_X = {
    1: (-1,),
    2: (-5, -4, -3, 1, -1),
    3: (-19, -18, -17, -16, -15, -14, -13, -12, -11, -10, 1, -8, -7, -6, -5, -4, -3,
        -2, -1),
}
TREE_X_ELL4 = (
    -69, -65, -3, -55, -9, -2, -35, -19, -6, -2, -1, -34, -16, -2, -5, -1, -31, -2, -10,
    -5, -1, -3, -1, -25, -5, -1, -9, -3, -1, -2, -15, -9, -3, -1, -7, -1, -2, -1, -14,
    -7, -1, -2, -4, -2, -1, -12, -1, -4, -2, -1, -3, -1, -9, -2, -3, -1, -2, -5, -3, -1,
    -2, -1, -4, -2, -1, -3, -1, -2, -1)


def _exact(values):
    return all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("m", [1, Fraction(3, 7), -2])
def test_solved_coefficients_are_pinned_fractions(ell, m):
    sol = solve_cocycle_system(ell, m)
    assert _exact(sol.x) and type(sol.k) is Fraction
    assert sol.x == tuple(m * v for v in CHAIN_X[ell])


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_membership_coefficients_are_pinned_fractions(ell):
    cert = verify_membership(ell)
    assert cert.ok and _exact(cert.coefficients)
    assert cert.coefficients == (TREE_X_ELL4 if ell == 4 else CHAIN_X[ell])


# Above ell = 4 the spanning-tree coefficients, one per pair, as the first 16
# hex digits of the sha256 of their comma-joined decimal strings.
TREE_X_DIGESTS = {
    5: "22c88e055fb20c9b",
    6: "8b1d2dcfc6b66afd",
    7: "55fde9e6207dfa67",
    8: "321aa5b40b0f2a9f",
    9: "165aaecfe97834ad",
}


@pytest.mark.parametrize("ell", sorted(TREE_X_DIGESTS))
def test_tree_coefficients_are_pinned_up_to_the_ceiling(ell):
    cert = verify_membership(ell)
    assert cert.ok and not cert.via_chains and _exact(cert.coefficients)
    joined = ",".join(map(str, cert.coefficients))
    assert len(cert.coefficients) == len(cert.pairs) == 2 * cert.r - 1
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == TREE_X_DIGESTS[ell]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_telescope_solves_in_integers(ell):
    # Every demand is an integer, so the peel needs no Fraction: the
    # coefficients come back as ints, in units of m.
    x, rebuilt = cocycle._telescope(enumerate_shuffles(ell), chain_edges(build_chains(ell)))
    assert rebuilt and all(type(v) is int for v in x)
    assert tuple(x) == CHAIN_X[ell]


# Pairs at ell = 2 that are no spanning tree of the six patterns: chain2
# repeats 0110 and misses 1100 (a doubled pair), chain2 is one pattern short,
# and the chains close the cycle 0101-0110-1010-1001 and miss 1100.
NOT_A_TREE = [
    Chains(("0011", "0101", "0110"), ("1001", "1010", "0110"), 2),
    Chains(("0011", "0101", "0110"), ("1100", "1010"), 2),
    Chains(("0011", "0101", "0110"), ("1010", "1001", "0101"), 1),
]


@pytest.mark.parametrize("chains", NOT_A_TREE)
def test_pairs_that_are_no_spanning_tree_are_refused(chains):
    with pytest.raises(ArithmeticError, match="no unique solution"):
        solve_cocycle_system(2, 1, chains)
    cert = _certificate(2, chain_edges(chains), True)
    assert not cert.ok and cert.coefficients == ()


def test_a_chain_through_a_non_pattern_is_refused():
    # Five edges, as a tree of the six patterns has, but one end is no pattern.
    chain1, chain2, bridge = build_chains(2)
    chains = Chains(chain1[:-1] + ("0x11",), chain2, bridge)
    with pytest.raises(ArithmeticError, match="no unique solution"):
        solve_cocycle_system(2, 1, chains)
    cert = _certificate(2, chain_edges(chains), True)
    assert not cert.ok and cert.coefficients == ()


# -- membership -----------------------------------------------------------------------

def test_membership_ell1():
    cert = verify_membership(1)
    assert cert.ok and cert.via_chains
    assert cert.pairs == (("01", "10"),)
    assert cert.coefficients == (Fraction(-1),)


def test_membership_ell2():
    cert = verify_membership(2)
    assert cert.ok and len(cert.pairs) == 5 == 2 * cert.r - 1


def test_membership_ell4_spanning_tree_fallback():
    cert = verify_membership(4)
    assert cert.ok
    assert not cert.via_chains
    assert len(cert.pairs) == 69 == 2 * cert.r - 1
    for a, b in cert.pairs:
        assert is_flip_adjacent(a, b)


def test_spanning_tree_edge_count():
    for ell in (1, 2, 3, 4):
        edges = spanning_tree_edges(ell)
        assert len(edges) == len(enumerate_shuffles(ell)) - 1


def test_spanning_tree_is_the_breadth_first_tree():
    # Oracle: the plain queue-popping breadth-first walk.
    for ell in (1, 2, 3, 4, 5):
        root = "0" * ell + "1" * ell
        seen, queue, edges = {root}, [root], []
        while queue:
            cur = queue.pop(0)
            for n in flip_neighbors(cur):
                if n not in seen:
                    seen.add(n)
                    edges.append((cur, n))
                    queue.append(n)
        assert spanning_tree_edges(ell) == edges


@pytest.mark.parametrize("entry", [
    enumerate_shuffles, build_chains, spanning_tree_edges, verify_membership,
    lambda ell: solve_cocycle_system(ell, 1, build_chains(1))])
def test_shuffle_entry_points_refuse_ell_above_the_ceiling(entry):
    # C(2l, l) patterns: l = 11 took 44 s and 1.3 GiB before this ceiling.
    assert MAX_SHUFFLE_ELL == 9
    for ell in (MAX_SHUFFLE_ELL + 1, 12, 10**6):
        with pytest.raises(ValueError, match="ell must be at most 9, got %d" % ell):
            entry(ell)
    with pytest.raises(ValueError, match="ell must be at least 1"):
        entry(0)


def test_chain_search_lists_neighbours_of_reached_patterns_only(monkeypatch):
    # At ell = 7 the search places 2000 of the 3432 patterns before it gives
    # up, so it must not list the neighbours of all of them.
    calls = []
    original = cocycle.flip_neighbors
    monkeypatch.setattr(cocycle, "flip_neighbors",
                        lambda p: calls.append(p) or original(p))
    with pytest.raises(ChainSearchError):
        build_chains(7)
    assert len(calls) == len(set(calls)) <= cocycle._NODE_BUDGET + 1


def test_chain_edges_order():
    chains = build_chains(2)
    edges = chain_edges(chains)
    assert len(edges) == 5
    assert edges[0] == ("0011", "0101")
    assert edges[2] == ("0110", "1010")  # the bridge is the r-th edge


# -- twisted coboundary on the toy algebra ----------------------------------------------

def test_b_sigma_squared_with_identity_twist_n1():
    alg = default_toy_algebra()
    sigma = alg.scaling_automorphism((Fraction(1), Fraction(1)))
    rep = twisted_coboundary_check(1, seed=3,
                                   sigma_factors=(Fraction(1), Fraction(1)))
    assert rep.ok
    # direct spot check of ordinary b^2 = 0 on one cochain
    phi = {(0, 1): Fraction(1), (2, 3): Fraction(-2, 3)}
    bb = b_sigma(alg, sigma, b_sigma(alg, sigma, phi, 1), 2)
    assert bb((0, 1, 2, 3)) == 0


def test_b_sigma_squared_scaled_twist_50_cochains():
    rep = twisted_coboundary_check(2, seed=0)
    assert rep.ok
    # 6^5 > 2000 tuples of length 5, so 400 are drawn.
    assert rep.tuples_checked == 400


def test_lambda_fixed_cochains_stay_fixed_under_b():
    rep = twisted_coboundary_check(2, seed=1)
    # Every one of the 6^4 tuples of length 4 is checked.
    assert rep.ok and rep.invariance_tuples == 6**4


def test_lambda_sigma_rotation_signs():
    alg = default_toy_algebra()
    sigma = alg.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    phi = {(1, 2): Fraction(5)}
    lam = lambda_sigma(sigma, phi, 1)
    # (lam phi)(a0, a1) = (-1)^1 sigma(a1) phi(a1, a0)
    assert lam((2, 1)) == -sigma[1] * Fraction(5)
    assert lam((1, 2)) == -sigma[2] * phi.get((2, 1), Fraction(0))


@pytest.mark.parametrize("n", [0, 3, 4])
def test_b_sigma_squared_other_degrees(n):
    rep = twisted_coboundary_check(n, seed=2)
    assert rep.ok


def test_degree_bounds():
    with pytest.raises(ValueError):
        twisted_coboundary_check(5)


class _BrokenTwistAlgebra(TruncatedPolynomialAlgebra):
    """The toy algebra with the eigenvalue of z1 z2 doubled: sigma is then no
    longer multiplicative, so it is not an automorphism."""

    def scaling_automorphism(self, factors):
        eigs = super().scaling_automorphism(factors)
        eigs[self.index[(1, 1)]] *= 2
        return eigs


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_check_fails_for_a_non_multiplicative_twist(n):
    alg = _BrokenTwistAlgebra(2, 2, Fraction(1, 2))
    rep = twisted_coboundary_check(n, seed=0, algebra=alg)
    assert not rep.ok


def test_b_sigma_snapshots_a_dict_cochain():
    alg = default_toy_algebra()
    sigma = alg.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    unit, z1 = alg.index[(0, 0)], alg.index[(1, 0)]
    phi = {(z1,): Fraction(5)}
    b = b_sigma(alg, sigma, phi, 0)
    # (b phi)(1, z1) = phi(z1) - sigma(z1) phi(z1) = (1 - 2/3) * 5
    phi[(z1,)] = Fraction(7)
    assert b((unit, z1)) == Fraction(5, 3)
    # A fresh call sees the changed dict.
    assert b_sigma(alg, sigma, phi, 0)((unit, z1)) == Fraction(7, 3)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("algebra", [default_toy_algebra(),
                                     _BrokenTwistAlgebra(2, 2, Fraction(1, 2))],
                         ids=["true", "broken"])
def test_double_coboundary_combination_is_b_sigma_squared(n, algebra):
    # The formal check rests on linearity: the combination at a tuple,
    # applied to any cochain, is the direct b_sigma(b_sigma(phi)) value.
    rng = random.Random(n)
    sigma = algebra.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    dim = algebra.dim
    phi = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
           for t in itertools.product(range(dim), repeat=n + 1)}
    bb = b_sigma(algebra, sigma, b_sigma(algebra, sigma, phi, n), n + 1)
    tuples = list(itertools.product(range(dim), repeat=n + 3))
    nonzero = 0
    if len(tuples) > 1296:
        tuples = rng.sample(tuples, 300)
    table = _face_table(algebra, sigma)
    for t in tuples:
        combo = _double_coboundary(table, t, n)
        assert sum(c * phi[inner] for inner, c in combo.items()) == bb(t)
        nonzero += bb(t) != 0
    assert (nonzero > 0) == isinstance(algebra, _BrokenTwistAlgebra)


class _Z1SquaredTwistAlgebra(TruncatedPolynomialAlgebra):
    """The toy algebra with the eigenvalue of z1^2 set to 1: a full turn then
    fixes tuples whose products it does not fix, which breaks the
    lambda_sigma-invariance of b_sigma."""

    def scaling_automorphism(self, factors):
        eigs = super().scaling_automorphism(factors)
        eigs[self.index[(2, 0)]] = Fraction(1)
        return eigs


def _is_invariant(algebra, sigma, t):
    # A full turn of lambda_sigma is the product of the eigenvalues at t.
    w = Fraction(1)
    for idx in t:
        w *= sigma[idx]
    return w == 1


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("algebra", [default_toy_algebra(),
                                     _Z1SquaredTwistAlgebra(2, 2, Fraction(1, 2))],
                         ids=["true", "z1-squared"])
def test_invariance_defect_combination_is_the_rotated_coboundary(n, algebra):
    # The formal invariance check rests on linearity: the combination at a
    # tuple, applied to any invariant cochain, is the direct value of
    # lambda_sigma^(n+2) b_sigma(phi) - b_sigma(phi).
    rng = random.Random(n)
    sigma = algebra.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    dim = algebra.dim
    phi = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
           for t in itertools.product(range(dim), repeat=n + 1)
           if _is_invariant(algebra, sigma, t)}
    assert phi
    psi = b_sigma(algebra, sigma, phi, n)
    rotated = psi
    for _ in range(n + 2):
        rotated = lambda_sigma(sigma, rotated, n + 1)
    nonzero = 0
    table = _face_table(algebra, sigma)
    for t in itertools.product(range(dim), repeat=n + 2):
        combo = _invariance_defect(table, t, n)
        assert set(combo) <= set(phi)
        assert sum(c * phi[face] for face, c in combo.items()) == rotated(t) - psi(t)
        nonzero += bool(combo)
    assert (nonzero > 0) == isinstance(algebra, _Z1SquaredTwistAlgebra)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_invariance_half_alone_rejects_the_z1_squared_twist(monkeypatch, n):
    # With the b_sigma^2 half switched off, the invariance half must see the
    # broken twist by itself at every seed.
    monkeypatch.setattr("qproj.cocycle._double_coboundary", lambda *args: {})
    alg = _Z1SquaredTwistAlgebra(2, 2, Fraction(1, 2))
    for seed in range(5):
        assert not twisted_coboundary_check(n, seed=seed, algebra=alg).ok


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_true_twist_passes_at_every_seed(n):
    for seed in range(5):
        assert twisted_coboundary_check(n, seed=seed).ok


# -- the integer face table against the Fraction reference -------------------------

_TWISTS = {
    "true": (default_toy_algebra(), (Fraction(2, 3), Fraction(3, 2))),
    "broken": (_BrokenTwistAlgebra(2, 2, Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 2))),
    "z1-squared": (_Z1SquaredTwistAlgebra(2, 2, Fraction(1, 2)),
                   (Fraction(2, 3), Fraction(3, 2))),
    "q9/10": (TruncatedPolynomialAlgebra(2, 2, Fraction(9, 10)),
              (Fraction(2, 3), Fraction(3, 2))),
    "degree3": (TruncatedPolynomialAlgebra(2, 3, Fraction(1, 2)),
                (Fraction(5, 7), Fraction(7, 5))),
}


def _check_tuples(dim, n):
    """The (n+3)- and (n+2)-tuples `twisted_coboundary_check` evaluates at
    seed 0: all of a length up to 2000, else 400 drawn in this order."""
    rng = random.Random(0)

    def draw(length):
        if dim**length <= 2000:
            return list(itertools.product(range(dim), repeat=length))
        return [tuple(rng.randrange(dim) for _ in range(length)) for _ in range(400)]

    return draw(n + 3), draw(n + 2)


def test_check_tuples_are_the_checks_own(monkeypatch):
    # On the true twist no tuple fails, so the check evaluates every one.
    seen = {"bsq": [], "inv": []}
    monkeypatch.setattr("qproj.cocycle._double_coboundary",
                        lambda table, t, n: seen["bsq"].append(t) or {})
    monkeypatch.setattr("qproj.cocycle._invariance_defect",
                        lambda table, t, n: seen["inv"].append(t) or {})
    for n in range(5):
        seen["bsq"].clear()
        seen["inv"].clear()
        assert twisted_coboundary_check(n, seed=0).ok
        assert (seen["bsq"], seen["inv"]) == _check_tuples(6, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("twist", sorted(_TWISTS))
def test_combinations_equal_the_fraction_reference(twist, n):
    # Exhaustively at n <= 2 on the degree-2 algebras, else at the check's
    # own tuples; the combinations must agree key by key as Fractions.
    algebra, factors = _TWISTS[twist]
    sigma = algebra.scaling_automorphism(factors)
    table = _face_table(algebra, sigma)
    dim = algebra.dim
    if n <= 2 and dim == 6:
        bsq = itertools.product(range(dim), repeat=n + 3)
        inv = itertools.product(range(dim), repeat=n + 2)
    else:
        bsq, inv = _check_tuples(dim, n)
    nonzero = 0
    for t in bsq:
        combo = _double_coboundary(table, t, n)
        assert combo == ref_double_coboundary(algebra, sigma, t, n)
        assert all(type(c) is Fraction for c in combo.values())
        nonzero += bool(combo)
    for t in inv:
        combo = _invariance_defect(table, t, n)
        assert combo == ref_invariance_defect(algebra, sigma, t, n)
        assert all(type(c) is Fraction for c in combo.values())
        nonzero += bool(combo)
    assert (nonzero > 0) == (twist in ("broken", "z1-squared"))


# The reports of the Fraction face loop at n = 0..4, seeds 0..99: the broken
# twist slips through the 400 sampled tuples at these (n, seed) only.
_BROKEN_TWIST_SLIPS = {(3, 22), (3, 44), (4, 44), (4, 83)}
_TUPLE_COUNTS = {0: (216, 36), 1: (1296, 216), 2: (400, 1296), 3: (400, 400), 4: (400, 400)}


@pytest.mark.parametrize("twist", ["true", "broken", "z1-squared"])
def test_reports_at_seeds_0_to_99_are_pinned(twist):
    algebra, factors = _TWISTS[twist]
    for n in range(5):
        for seed in range(100):
            rep = twisted_coboundary_check(n, seed=seed, algebra=algebra,
                                           sigma_factors=factors)
            ok = twist == "true" or (twist == "broken" and (n, seed) in _BROKEN_TWIST_SLIPS)
            assert rep == (n, *_TUPLE_COUNTS[n], ok), (n, seed)


def test_b_sigma_rejects_a_tuple_of_the_wrong_length():
    alg = default_toy_algebra()
    sigma = alg.scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    b = b_sigma(alg, sigma, {(0, 1): Fraction(1)}, 1)
    assert isinstance(b((0, 1, 2)), Fraction)
    for tup in [(0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError, match="b_sigma evaluates on 3-tuples, got a %d-tuple"
                           % len(tup)):
            b(tup)


def test_lambda_sigma_rejects_a_tuple_of_the_wrong_length():
    sigma = default_toy_algebra().scaling_automorphism((Fraction(2, 3), Fraction(3, 2)))
    lam = lambda_sigma(sigma, {(1, 2): Fraction(5)}, 1)
    assert lam((2, 1)) == -sigma[1] * 5
    for tup in [(2,), (2, 1, 0)]:
        with pytest.raises(ValueError, match="lambda_sigma evaluates on 2-tuples, got a %d-tuple"
                           % len(tup)):
            lam(tup)
