"""Shuffle combinatorics for the fundamental twisted cocycle.

Derivative patterns are balanced strings over two letters, encoded '0' for
the holomorphic slot and '1' for the anti-holomorphic one; a pattern of
length 2l with l of each letter is a balanced shuffle, and two patterns are
adjacent when they differ by one adjacent transposition of distinct letters.
The fundamental class is the formal sum tau of all binom(2l, l) pattern
symbols; the telescoping construction writes m*tau - k*phi_first as an exact
combination of adjacent-pair differences (phi - phi'), where the pairs form a
spanning tree of the patterns, read off two chains

    chain1: '0'^l '1'^l = pi_1 ~ pi_2 ~ ... ~ pi_r,
    chain2: '1'^l '0'^l = pi'_1 ~ pi'_2 ~ ... ~ pi'_r,

partitioning all patterns, plus one bridge pi_r ~ pi'_kappa.  The
coefficients are read off the tree by peeling leaves, with no linear solve:
the pair (a, b) carries m times the number of patterns beyond it, signed by
which end those patterns hang from.  The system is linear in m, so the tree
is peeled once, in integers at m = 1, and scaled.  The chains are found by
one budgeted depth-first search over the sequence chain1 + chain2 with
lexicographic tie-breaking and the bridge fixed at kappa = 2 (kappa = 1 when
r = 1), because that placement makes the solved coefficients match the
closed form x_i = -(2r-i)m with a single sign absorption at x_{r+1}.  The
bridge is tested as soon as position kappa of chain2 is filled, so no
subtree that cannot hold it is entered.  The search runs on an explicit
stack and ends by one rule, a budget of placed patterns (`_NODE_BUDGET`); at
odd l >= 5 it raises ChainSearchError when the budget runs out (a Hamilton
path of the flip graph exists exactly at odd l, by Eades, Hickey and Read,
JACM 31 (1984), so it is this kappa = 2 search that fails there).

The flip graph is bipartite (an adjacent transposition moves one '1' by one
position) and a path alternates parity classes, so two r-vertex chains can
cover at most 2*ceil(r/2) vertices of either class.  For even l >= 4 the
class imbalance binomial(l, l/2) pushes the larger class past that bound, so
no chain partition exists at all; `build_chains` detects this up front and
raises with the counting certificate.  Cohomologousness itself survives: the
adjacent-pair differences of any spanning tree of the (connected) flip graph
span the full zero-coefficient-sum subspace, so `verify_membership` falls
back to a spanning tree when the two-chain structure is impossible.

Twisted Hochschild operators are exercised on a finite q-commuting toy
algebra with a diagonal scaling automorphism, with no rounding.  b_sigma is
linear, so b_sigma^2 = 0 is certified for every cochain at once: at each
checked tuple the double coboundary is a fixed combination of cochain
values, and it must vanish (the twisted calculus of Kustermans, Murphy and
Tuset, J. Geom. Phys. 44 (2003)).  The lambda_sigma-invariance of b_sigma is
certified the same way.  A full turn of lambda_sigma acts at each tuple as a
scalar c, the product of the sigma-eigenvalues of its entries, so the
sigma-invariant cochains are spanned by the indicators of the tuples the
turn fixes, and at each checked tuple the invariance defect is (c - 1) times
a fixed combination of their values that must vanish.

The faces are evaluated in integers, from one table per call: with D the
lcm of the denominators of every nonzero product coefficient and every wrap
coefficient (a product coefficient of ab times sigma(a)), the table holds
each of them times D.  The integer sum of each b_sigma^2 combination is D^2 times its exact value, and each
invariance combination is (c - 1)/D times its integer face sum, with c != 1;
so a combination vanishes exactly when its integer form does.  c = 1 is the
integer test that the eigenvalues' numerators and denominators have equal
products.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .coordring import TruncatedPolynomialAlgebra
from .linalg import _Memo

__all__ = [
    "enumerate_shuffles",
    "flip_neighbors",
    "is_flip_adjacent",
    "parity_split",
    "ChainSearchError",
    "Chains",
    "build_chains",
    "CocycleSolution",
    "solve_cocycle_system",
    "spanning_tree_edges",
    "MembershipCertificate",
    "verify_membership",
    "b_sigma",
    "lambda_sigma",
    "default_toy_algebra",
    "CoboundaryReport",
    "twisted_coboundary_check",
    "MAX_SHUFFLE_ELL",
]

# The largest l of the shuffle patterns.  There are C(2l, l) of them: 48,620
# at l = 9, where `shuffle-certificate` takes about 2 s and 60 MiB; at l = 11
# it took 44 s and 1.3 GiB.
MAX_SHUFFLE_ELL = 9


def _check_ell(ell):
    # Every entry point that builds the patterns of an ell checks it first.
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if ell > MAX_SHUFFLE_ELL:
        raise ValueError("ell must be at most %d, got %d" % (MAX_SHUFFLE_ELL, ell))


def enumerate_shuffles(ell: int) -> list:
    """All balanced patterns of length 2l, lexicographically ('0' < '1');
    l must lie in 1..MAX_SHUFFLE_ELL."""
    _check_ell(ell)
    # The zero positions come in lexicographic order, and so do the patterns.
    out = []
    for zeros in itertools.combinations(range(2 * ell), ell):
        chars = ["1"] * (2 * ell)
        for p in zeros:
            chars[p] = "0"
        out.append("".join(chars))
    return out


def flip_neighbors(pattern: str) -> list:
    """Patterns one adjacent transposition away, sorted."""
    out = []
    for i in range(len(pattern) - 1):
        if pattern[i] != pattern[i + 1]:
            out.append(pattern[:i] + pattern[i + 1] + pattern[i] + pattern[i + 2:])
    return sorted(out)


def is_flip_adjacent(a: str, b: str) -> bool:
    if len(a) != len(b):
        return False
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    return (
        len(diff) == 2
        and diff[1] == diff[0] + 1
        and a[diff[0]] == b[diff[1]]
        and a[diff[1]] == b[diff[0]]
    )


def parity_split(patterns) -> tuple:
    """Sizes of the two bipartition classes of the flip graph."""
    even = sum(1 for p in patterns if sum(i for i, c in enumerate(p) if c == "1") % 2 == 0)
    return even, len(patterns) - even


class ChainSearchError(RuntimeError):
    """No two-chain partition exists, or the search ended without one."""


Chains = namedtuple("Chains", "chain1 chain2 bridge")


# The chain search gives up after placing this many patterns.  l = 1, 2, 3
# need 1, 5 and 46; at l = 5 none of 200,000 placements completes a partition.
_NODE_BUDGET = 2000


def build_chains(ell: int) -> Chains:
    """Partition all patterns into two adjacent-transposition chains.

    chain1 starts at '0'^l '1'^l, chain2 at '1'^l '0'^l, each of length
    r = binom(2l, l)/2; `bridge` is the 1-based position kappa in chain2
    adjacent to the end of chain1, always 2 (1 when r = 1).  One depth-first
    search over chain1 + chain2 on an explicit stack of neighbour iterators,
    lexicographic tie-breaking, the bridge tested as soon as its position is
    filled.  Flip neighbours are listed only for the patterns the search
    reaches.

    Raises ChainSearchError when the partition provably cannot exist (parity
    certificate, any even l >= 4), or when the search space or the budget of
    placed patterns runs out first (odd l >= 5); the message names l, r and
    the patterns placed.
    """
    patterns = enumerate_shuffles(ell)
    r = len(patterns) // 2
    even, odd = parity_split(patterns)
    majority = max(even, odd)
    # A path on an alternating bipartite graph covers at most ceil(r/2)
    # vertices of one class; two chains cover at most 2*ceil(r/2).
    if majority > 2 * ((r + 1) // 2):
        raise ChainSearchError(
            "no two-chain partition exists for ell=%d: the flip graph is "
            "bipartite with classes (%d, %d), and two alternating paths of "
            "length r=%d cover at most %d vertices of the larger class"
            % (ell, even, odd, r, 2 * ((r + 1) // 2)))
    kappa = 1 if r == 1 else 2
    start1 = "0" * ell + "1" * ell
    start2 = "1" * ell + "0" * ell
    nbr = _Memo(lambda p: tuple(flip_neighbors(p)))

    def moves(seq):
        # Positions 1..r are chain1, r+1..2r chain2, which restarts at start2.
        return iter((start2,) if len(seq) == r else nbr[seq[-1]])

    seq, used, nodes = [start1], {start1}, 0
    stack = [moves(seq)]
    while stack and nodes < _NODE_BUDGET:
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            used.remove(seq.pop())
        elif p not in used and (p != start2 or len(seq) == r):
            nodes += 1
            seq.append(p)
            if len(seq) == r + kappa and p not in nbr[seq[r - 1]]:
                seq.pop()
            elif len(seq) == 2 * r:
                return Chains(tuple(seq[:r]), tuple(seq[r:]), kappa)
            else:
                used.add(p)
                stack.append(moves(seq))
    raise ChainSearchError(
        "chain search for ell=%d (r=%d) found no partition in %d nodes (budget %d)"
        % (ell, r, nodes, _NODE_BUDGET))


def chain_edges(chains: Chains) -> list:
    """Ordered edge list: chain1 steps, the bridge, then chain2 steps."""
    c1, c2, k = chains
    edges = [(c1[i], c1[i + 1]) for i in range(len(c1) - 1)]
    edges.append((c1[-1], c2[k - 1]))
    edges.extend((c2[i], c2[i + 1]) for i in range(len(c2) - 1))
    return edges


CocycleSolution = namedtuple(
    "CocycleSolution", "m r bridge x k edges matches_closed_form sign_absorbed membership")


def _closed_form(i, r, kappa, m):
    # Derived from the telescoping structure with the bridge at kappa:
    # chain1 edges and the bridge follow x_i = -(2r-i) m exactly; chain2
    # edges before the bridge carry +j m, after it -(r-j) m.
    if i <= r:
        return -(2 * r - i) * m
    j = i - r
    return j * m if j < kappa else -(r - j) * m


def _telescope(patterns, edges):
    """Integer x with tau - 2r*phi_first = sum_e x_e (phi_a - phi_b).

    One unknown per edge (a, b), one equation per pattern; first =
    patterns[0] = '0'^l '1'^l and 2r = len(patterns), so every pattern
    demands 1 and first demands 1 - 2r.  The edges must form a spanning tree
    of the patterns, and x is read off it by peeling leaves: a leaf's one
    edge carries the leaf's whole demand, which then passes to the other end.
    So x_e = +-(number of patterns beyond e, away from first), an int.
    Returns (x, rebuilt), or None when the edges close a cycle, do not span
    the patterns or reach a non-pattern; `rebuilt` re-checks x independently
    of the peeling by summing the weighted pairs.
    """
    if len(edges) != len(patterns) - 1:
        return None
    rhs = dict.fromkeys(patterns, 1)
    rhs[patterns[0]] = 1 - len(patterns)
    incident = {p: [] for p in patterns}
    for e, (a, b) in enumerate(edges):
        if a not in incident or b not in incident:
            return None
        incident[a].append(e)
        incident[b].append(e)
    demand = dict(rhs)
    x = [None] * len(edges)
    leaves = [p for p in patterns if len(incident[p]) == 1]
    while leaves:
        p = leaves.pop()
        if not incident[p]:  # its last edge went with a neighbour's peel
            continue
        e = incident[p].pop()
        a, b = edges[e]
        other = b if p == a else a
        x[e] = demand[p] if p == a else -demand[p]
        demand[other] += demand[p]
        incident[other].remove(e)
        if len(incident[other]) == 1:
            leaves.append(other)
    if None in x:
        return None
    total = dict.fromkeys(patterns, 0)
    for y, (a, b) in zip(x, edges):
        total[a] += y
        total[b] -= y
    return x, total == rhs


def solve_cocycle_system(ell: int, m=1, chains: Chains = None) -> CocycleSolution:
    """Exact coefficients writing m*tau - k*phi_first as a sum over the chains.

    Sets up one equation per pattern from the actual chain structure (each
    edge contributes +-(phi - phi') with the sign convention fixed
    edge-forward), reads the exact solution off the tree the edges form,
    asserts it against the closed form above, and records which indices
    differ from -(2r-i)m only by the documented sign absorption.  The system
    is linear in m, so this is the `verify_membership` solve (m = 1) scaled
    by m.  k is 2rm: every pair difference has coefficient sum zero, so
    summing the equations over all patterns forces it.  `membership` is the
    solver-independent rebuild of the sum.  Raises ArithmeticError when the
    chain edges are no spanning tree of the patterns.
    """
    m = Fraction(m)
    if chains is None:
        chains = build_chains(ell)
    cert = _certificate(ell, chain_edges(chains), True)
    if not cert.coefficients:
        raise ArithmeticError(
            "telescoping system has no unique solution at ell=%d "
            "(falsifies the construction)" % ell)
    r, kappa = cert.r, chains.bridge
    x = tuple(m * v for v in cert.coefficients)
    expected = tuple(_closed_form(i, r, kappa, m) for i in range(1, 2 * r))
    matches = x == expected
    # Indices where the solved coefficient deviates from the bare pattern
    # -(2r-i)m; with the bridge at kappa <= 2 this is at most {r+1}, where
    # only the sign differs (the documented sign absorption).
    sign_absorbed = tuple(
        i for i in range(1, 2 * r) if x[i - 1] != -(2 * r - i) * m)
    return CocycleSolution(m, r, kappa, x, 2 * r * m, cert.pairs, matches,
                           sign_absorbed, cert.ok)


def spanning_tree_edges(ell: int) -> list:
    """Edges of the lexicographic BFS spanning tree of the flip graph.

    The flip graph is connected (bubble sort), so the tree always has
    binom(2l, l) - 1 edges; used by `verify_membership` when the two-chain
    partition does not exist.  Raises ArithmeticError if the walk misses a
    pattern.
    """
    _check_ell(ell)
    root = "0" * ell + "1" * ell
    seen = {root}
    queue = [root]
    edges = []
    for cur in queue:  # the walk reads the patterns appended as it goes
        for n in flip_neighbors(cur):
            if n not in seen:
                seen.add(n)
                edges.append((cur, n))
                queue.append(n)
    if len(queue) != math.comb(2 * ell, ell):
        raise ArithmeticError("the flip graph of ell=%d reaches %d of its %d patterns"
                              % (ell, len(queue), math.comb(2 * ell, ell)))
    return edges


MembershipCertificate = namedtuple(
    "MembershipCertificate", "ok ell r via_chains pairs coefficients")


def verify_membership(ell: int) -> MembershipCertificate:
    """Certify that tau - 2r*phi_first lies in the span of adjacent-pair
    differences, with explicit exact coefficients.

    Uses the chain edges when the two-chain partition exists; otherwise the
    spanning-tree pairs of the flip graph (2r - 1 pairs either way).
    """
    try:
        edges, via_chains = chain_edges(build_chains(ell)), True
    except ChainSearchError:
        edges, via_chains = spanning_tree_edges(ell), False
    return _certificate(ell, edges, via_chains)


def _certificate(ell, edges, via_chains) -> MembershipCertificate:
    # The one solve over the given pairs, no chain search, re-checked by
    # rebuilding the sum; the integer coefficients come back as Fractions.
    patterns = enumerate_shuffles(ell)
    r = len(patterns) // 2
    solved = _telescope(patterns, edges)
    x, rebuilt = solved if solved else ((), False)
    return MembershipCertificate(rebuilt, ell, r, via_chains, tuple(edges),
                                 tuple(map(Fraction, x)))


# -- twisted Hochschild operators on the toy algebra -----------------------


def default_toy_algebra() -> TruncatedPolynomialAlgebra:
    """Two q-commuting generators truncated above total degree two."""
    return TruncatedPolynomialAlgebra(2, 2, Fraction(1, 2))


def _lookup(phi):
    """A cochain as a callable: a dict is copied (absent tuples read zero), a
    callable is passed through."""
    if callable(phi):
        return phi
    snapshot = dict(phi)
    return lambda t: snapshot.get(t, 0)


_FaceTable = namedtuple("_FaceTable", "scale mul wrap num den")


def _face_table(algebra, sigma_eigs) -> _FaceTable:
    """The faces of b_sigma as integers, built once per call.  `scale` is the
    lcm D of the denominators of every nonzero product coefficient c and wrap
    coefficient c*sigma(a); `mul[a][b]` is (D*c, index of ab), `wrap[a][b]` is
    (D*c*sigma(a), index of ab), (0, None) where the coefficient vanishes; and
    num[i]/den[i] is the sigma-eigenvalue of basis element i in lowest terms.
    """
    dim = algebra.dim
    mul = [[algebra.product(a, b) for b in range(dim)] for a in range(dim)]
    wrap = [[(c * sigma_eigs[a], idx) for c, idx in row] for a, row in enumerate(mul)]
    scale = math.lcm(*(Fraction(c).denominator for row in mul + wrap
                       for c, idx in row if idx is not None and c))
    mul, wrap = ([[(int(c * scale), idx) if idx is not None and c else (0, None)
                   for c, idx in row] for row in rows] for rows in (mul, wrap))
    eigs = [Fraction(s) for s in sigma_eigs]
    return _FaceTable(scale, mul, wrap, [s.numerator for s in eigs],
                      [s.denominator for s in eigs])


def _faces(table, tup, n):
    """The faces of the twisted coboundary of an n-cochain at the
    (n+2)-tuple `tup`, as (integer coefficient, (n+1)-tuple) pairs:
    (b_sigma phi)(tup) is the sum of coefficient * phi((n+1)-tuple) over them,
    divided by `table.scale`."""
    mul = table.mul
    for i in range(n + 1):
        c, idx = mul[tup[i]][tup[i + 1]]
        if c:
            yield (c if i % 2 == 0 else -c), tup[:i] + (idx,) + tup[i + 2:]
    c, idx = table.wrap[tup[n + 1]][tup[0]]
    if c:
        yield (-c if n % 2 == 0 else c), (idx,) + tup[1:n + 1]


def _turn(table, tup):
    """The scalar of a full turn of lambda_sigma (len(tup) rotations) at
    `tup`, as (numerator, denominator): each rotation moves one entry to the
    front times its sigma-eigenvalue, the signs give (-1)^(n(n+1)) = 1, so it
    is the product of the eigenvalues of the entries."""
    return (math.prod(map(table.num.__getitem__, tup)),
            math.prod(map(table.den.__getitem__, tup)))


def _double_coboundary(table, tup, n):
    """(b_sigma b_sigma phi)(tup) for every n-cochain phi at once: b_sigma is
    linear, so at the (n+3)-tuple `tup` it is the fixed combination
    {(n+1)-tuple: coefficient} of values of phi returned here, zeros dropped.
    It is summed in integers, D^2 times the exact value."""
    combo = {}
    for c, mid in _faces(table, tup, n + 1):
        for c2, inner in _faces(table, mid, n):
            combo[inner] = combo.get(inner, 0) + c * c2
    return {t: Fraction(c, table.scale**2) for t, c in combo.items() if c}


def _invariance_defect(table, tup, n):
    """(lambda_sigma^(n+2) b_sigma phi - b_sigma phi)(tup) for every
    sigma-invariant n-cochain phi at once.  Those cochains are spanned by the
    indicators of the (n+1)-tuples a full turn fixes, and at the
    (n+2)-tuple `tup` the full turn is the scalar c, so the value is
    (c - 1) * (b_sigma phi)(tup): the fixed combination
    {fixed (n+1)-tuple: coefficient} returned here, zeros dropped.  The face
    sums are integers, D / (c - 1) times the exact value."""
    num, den = _turn(table, tup)
    if num == den:
        return {}
    combo = {}
    for c, face in _faces(table, tup, n):
        fnum, fden = _turn(table, face)
        if fnum == fden:
            combo[face] = combo.get(face, 0) + c
    combo = {t: c for t, c in combo.items() if c}
    factor = (Fraction(num, den) - 1) / table.scale if combo else 0
    return {t: factor * c for t, c in combo.items()}


def b_sigma(algebra, sigma_eigs, phi, n: int):
    """Twisted Hochschild coboundary of an n-cochain, as a callable.

    phi maps (n+1)-tuples of basis indices to Fractions (dict or callable);
    the result evaluates on (n+2)-tuples.  The last face multiplies
    sigma(a_{n+1}) into a_0, picking up the diagonal eigenvalue.  A dict phi
    is copied at this call, so later changes to it are not seen.  A tuple of
    another length raises ValueError.
    """
    table = _face_table(algebra, sigma_eigs)
    lookup = _lookup(phi)

    def out(tup):
        if len(tup) != n + 2:
            raise ValueError("b_sigma evaluates on %d-tuples, got a %d-tuple" % (n + 2, len(tup)))
        total = Fraction(0)
        for c, face in _faces(table, tup, n):
            v = lookup(face)
            if v:
                total += c * v
        return total / table.scale

    return out


def lambda_sigma(sigma_eigs, phi, n: int):
    """Twisted cyclic rotation of an n-cochain, as a callable; it reads only
    the sigma-eigenvalues, not the algebra's product.  A tuple of another
    length than n + 1 raises ValueError."""
    lookup = _lookup(phi)

    def out(tup):
        if len(tup) != n + 1:
            raise ValueError("lambda_sigma evaluates on %d-tuples, got a %d-tuple"
                             % (n + 1, len(tup)))
        return (-1) ** n * sigma_eigs[tup[n]] * lookup((tup[n],) + tup[:n])

    return out


CoboundaryReport = namedtuple("CoboundaryReport", "n tuples_checked invariance_tuples ok")

# All tuples of a length are checked when there are at most this many,
# otherwise _TUPLE_BUDGET // 5 random ones.
_TUPLE_BUDGET = 2000


def _check_degree(n):
    # The cochain degrees the check covers; the CLI checks them first too.
    if n < 0 or n > 4:
        raise ValueError("cochain degree n must lie in 0..4")


def twisted_coboundary_check(n: int, seed: int = 0, algebra=None,
                             sigma_factors=(Fraction(2, 3), Fraction(3, 2))
                             ) -> CoboundaryReport:
    """Exact checks of the twisted coboundary on the toy algebra.

    Certifies two identities for every cochain at once, each as a fixed
    rational combination of cochain values that must vanish at every checked
    tuple: b_sigma(b_sigma(phi)) = 0 for every n-cochain phi, at the checked
    (n+3)-tuples, and lambda_sigma^(n+2) b_sigma(phi) = b_sigma(phi) for every
    sigma-invariant (full-turn-fixed) n-cochain phi, at the checked
    (n+2)-tuples.  The checked tuples of a length are all of them when there
    are at most 2000, otherwise 400 random ones drawn from `seed`; the RNG
    draws nothing else, and no cochain is sampled.  All arithmetic is exact;
    any nonzero coefficient fails the report.
    """
    _check_degree(n)
    algebra = default_toy_algebra() if algebra is None else algebra
    table = _face_table(algebra, algebra.scaling_automorphism(sigma_factors))
    rng = random.Random(seed)
    dim = algebra.dim

    def evaluation_tuples(length):
        if dim**length <= _TUPLE_BUDGET:
            return list(itertools.product(range(dim), repeat=length))
        return [tuple(rng.randrange(dim) for _ in range(length))
                for _ in range(_TUPLE_BUDGET // 5)]

    bsq_tuples = evaluation_tuples(n + 3)
    inv_tuples = evaluation_tuples(n + 2)
    ok = not any(_double_coboundary(table, t, n) for t in bsq_tuples)
    ok = ok and not any(_invariance_defect(table, t, n) for t in inv_tuples)
    return CoboundaryReport(n, len(bsq_tuples), len(inv_tuples), ok)
