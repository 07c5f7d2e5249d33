"""Acceptance suite: one PASS/FAIL line per test.  Criteria 1 and 3 carry two
tests each (numeric and exact relations; Euler characteristic and Serre
duality), every other criterion one.

Tolerances are pinned here and nowhere else.  Criterion 5 requires the
two-chain partition wherever no parity obstruction rules it out (ell = 1,
2, 3); where the obstruction holds (ell = 4, see qproj.cocycle) the test
counts the parity classes itself, requires `build_chains` to raise with
those numbers, and checks the membership certificate built on the
spanning tree instead.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from oracles import q_binomial, q_factorial, q_multinomial
from qproj import bundles, cocycle, coordring, dolbeault, gtrep
from qproj.qarith import q_int

Q = Fraction(1, 2)
PREC = 60


def conclude(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    detail = "" if not problems else " | " + "; ".join(str(p) for p in problems[:4])
    print("ACCEPTANCE %d %s: %s%s" % (num, status, label, detail))
    assert not problems, "criterion %d failed: %s" % (num, problems)


def test_criterion_1_relation_suite():
    """Defining relations at tol 1e-40, q = 1/2, 60 digits, under 60 s."""
    tol = mp.mpf("1e-40")
    weights = {
        1: [(1,), (2,)],
        2: [(0, 1), (1, 1), (0, 2)],
        3: [(0, 0, 1), (1, 0, 1), (0, 0, 2)],
    }
    problems = []
    start = time.monotonic()
    for ell, ws in weights.items():
        for w in ws:
            report = gtrep.verify_relations(gtrep.build_irrep(w, Q, PREC), tol)
            if not report.ok:
                worst = max(report.checks, key=lambda c: c.residual)
                problems.append("ell=%d n=%s worst=%s" % (ell, w, worst))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append("runtime %.1fs exceeds 60s" % elapsed)
    conclude(1, "relation suite (%.1fs)" % elapsed, problems)


def _exact_apply(columns, vec):
    """An operator given column by column (tableau -> {target: Fraction}) on
    a vector (tableau -> Fraction), exactly; zero coordinates are dropped."""
    out = {}
    for t, c in vec.items():
        for s, d in columns[t].items():
            out[s] = out.get(s, 0) + c * d
    return {s: v for s, v in out.items() if v}


def _exact_word(vec, *ops):
    # ops[0] ops[1] ... ops[-1] vec: the rightmost operator acts first
    for columns in reversed(ops):
        vec = _exact_apply(columns, vec)
    return vec


def _exact_combination(*terms):
    out = {}
    for coeff, vec in terms:
        for s, v in vec.items():
            out[s] = out.get(s, 0) + coeff * v
    return {s: v for s, v in out.items() if v}


def test_criterion_1_exact_relations():
    """E_k, F_k from `exact_column` (non-normalized GT basis) satisfy the
    defining relations with zero residual at rational q, and E_k steps the
    weights a_i by row k of the Cartan matrix.  Under 10 s."""
    problems = []
    start = time.monotonic()
    for q in (Q, Fraction(9, 10)):
        two = q + 1 / q
        qnum = {}  # [a]_q from its Laurent coefficients, not gtrep's formula
        for w in [(2, 1, 2), (3, 3), (1, 1, 1)]:
            ell = len(w)
            basis = gtrep.enumerate_tableaux(w)
            E = {k: {t: gtrep.exact_column("E", k, t, q) for t in basis}
                 for k in range(1, ell + 1)}
            F = {k: {t: gtrep.exact_column("F", k, t, q) for t in basis}
                 for k in range(1, ell + 1)}
            bad = set()
            for t in basis:
                v = {t: Fraction(1)}
                for k in range(1, ell + 1):
                    for s in E[k][t]:
                        cartan = [2 if i == k else -1 if abs(i - k) == 1 else 0
                                  for i in range(1, ell + 1)]
                        if [s.a(i) - t.a(i) for i in range(1, ell + 1)] != cartan:
                            bad.add("E%d weight step" % k)
                for i in range(1, ell + 1):
                    for j in range(1, ell + 1):
                        bracket = _exact_combination(
                            (1, _exact_word(v, E[i], F[j])), (-1, _exact_word(v, F[j], E[i])))
                        want = {}
                        a = t.a(i)
                        if i == j and a:
                            if a not in qnum:
                                qnum[a] = sum(c * q**e for e, c in q_int(a).coeffs().items())
                            want = {t: qnum[a]}
                        if bracket != want:
                            bad.add("[E%d,F%d]" % (i, j))
                        if abs(i - j) == 1:
                            for X, name in ((E, "E"), (F, "F")):
                                serre = _exact_combination(
                                    (1, _exact_word(v, X[i], X[i], X[j])),
                                    (-two, _exact_word(v, X[i], X[j], X[i])),
                                    (1, _exact_word(v, X[j], X[i], X[i])))
                                if serre:
                                    bad.add("serre(%s%d,%s%d)" % (name, i, name, j))
                        elif abs(i - j) > 1:
                            for X, name in ((E, "E"), (F, "F")):
                                if _exact_word(v, X[i], X[j]) != _exact_word(v, X[j], X[i]):
                                    bad.add("%s%d%s%d" % (name, i, name, j))
            problems += ["n=%s q=%s %s" % (w, q, b) for b in sorted(bad)]
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        problems.append("runtime %.1fs exceeds 10s" % elapsed)
    conclude(1, "exact relation suite (%.1fs)" % elapsed, problems)


def test_criterion_2_kernel_theorem():
    """Numeric block-kernel totals equal the combinatorial count exactly."""
    problems = []
    for ell in (1, 2, 3):
        for N in range(0, 7):
            records = bundles.ker_el_numeric(ell, N, 3, Q)
            total = sum(r.dim_kernel for r in records)
            expected = bundles.ker_el_combinatorial(ell, N)
            if total != expected or expected != math.comb(N + ell, ell):
                problems.append("ell=%d N=%d total=%d expected=%d" % (ell, N, total, expected))
        for N in range(-4, 0):
            records = bundles.ker_el_numeric(ell, N, 3, Q)
            if any(r.dim_kernel for r in records):
                problems.append("ell=%d N=%d nonzero kernel" % (ell, N))
    conclude(2, "line bundle kernel theorem", problems)


def test_criterion_3_euler_characteristic():
    """chi = -N + 1 for N in -4..4 at l_max 8 and 10, for every q in (0, 1):
    each block holds the sign on (0, 1) of its radicand, a product of
    q-integers none of which vanishes there."""
    problems = []
    for lmax in (8, 10):
        for N in range(-4, 5):
            res = dolbeault.cp1_euler_characteristic(N, lmax)
            if res.chi != -N + 1 or not res.stable:
                problems.append("N=%d lmax=%d -> chi=%d stable=%s"
                                % (N, lmax, res.chi, res.stable))
    conclude(3, "quantum line Euler characteristic", problems)


def test_criterion_3_serre_duality():
    """Serre duality on qP^1: dim ker at N equals dim coker at 2 - N, both
    max(0, 1 - N), for N in -5..5 at l_max 12, for every q in (0, 1)."""
    problems = []
    for N in range(-5, 6):
        ker = dolbeault.cp1_euler_characteristic(N, 12).dim_ker
        coker = dolbeault.cp1_euler_characteristic(2 - N, 12).dim_coker
        if not ker == coker == max(0, 1 - N):
            problems.append("N=%d ker=%d coker(2-N)=%d" % (N, ker, coker))
    conclude(3, "quantum line Serre duality", problems)


def _admissible_partitions(mono, N):
    """Every r with sum N and 0 <= r_i <= s_i, supported on the first k
    indices, k the first index whose prefix sum of exponents exceeds N."""
    prefix = itertools.accumulate(mono)
    k = next((i for i, p in enumerate(prefix, start=1) if p > N), len(mono))
    for head in itertools.product(*(range(x + 1) for x in mono[:k])):
        if sum(head) == N:
            yield head + (0,) * (len(mono) - k)


def test_criterion_4_ring_grading_and_factorization():
    """Graded dimensions match kernel counts; factorization postcondition
    holds exhaustively for degree <= 8 over <= 4 generators, over every
    admissible partition, so the q-power R of a split is checked too."""
    problems = []
    for ell in (1, 2, 3, 4):
        for N in range(0, 11):
            gd = coordring.graded_dim(ell + 1, N)
            kc = bundles.ker_el_combinatorial(ell, N)
            if not gd == kc == math.comb(N + ell, ell):
                problems.append("ell=%d N=%d graded=%d kernel=%d" % (ell, N, gd, kc))
    checked = twisted = 0
    for g in (1, 2, 3, 4):
        for d in range(0, 9):
            for mono in coordring.monomials(g, d):
                for N in range(0, d + 1):
                    for r in _admissible_partitions(mono, N):
                        fac = coordring.tensor_factorize(mono, N, r)
                        word = []
                        for i, s in enumerate(fac.left, start=1):
                            word.extend([i] * s)
                        for i, s in enumerate(fac.right, start=1):
                            word.extend([i] * s)
                        e, back = coordring.normal_order(tuple(word), g)
                        if back != mono or e != -fac.R or fac.left != r:
                            problems.append("Z=%s N=%d r=%s" % (mono, N, r))
                        checked += 1
                        twisted += fac.R != 0
    if (checked, twisted) != (10637, 5489):
        problems.append("%d splits, %d with R != 0: expected 10637 and 5489"
                        % (checked, twisted))
    conclude(4, "ring grading and factorization (%d splits, %d with R != 0)"
             % (checked, twisted), problems)


def test_criterion_5_cocycle_certificate():
    """Chains for ell in 1..4 wherever no parity obstruction exists, exact
    solve with k = 2 r m, the closed-form pattern up to the documented sign
    absorption, and a membership certificate; exact arithmetic, under 30 s.

    The obstruction is decided here from `enumerate_shuffles` and
    `flip_neighbors` alone: every flip must join patterns of different
    position-sum parity (so the flip graph is bipartite), and two alternating
    r-vertex chains cover at most 2*ceil(r/2) vertices of one class.  Where
    the larger class exceeds that bound (ell = 4: classes (38, 32), r = 35,
    bound 36) `build_chains` must raise with these counts; elsewhere it must
    return chains.  Either way the membership certificate must rebuild
    tau - 2r*phi_first from flip-adjacent pairs, through the chains where
    they exist and through the spanning tree where they cannot.
    """
    def parity(pattern):
        return sum(i for i, c in enumerate(pattern) if c == "1") % 2

    problems = []
    start = time.monotonic()
    for ell in (1, 2, 3, 4):
        patterns = cocycle.enumerate_shuffles(ell)
        r = len(patterns) // 2
        for p in patterns:
            for n in cocycle.flip_neighbors(p):
                if parity(n) == parity(p):
                    problems.append("ell=%d flip %s~%s keeps parity" % (ell, p, n))
        even = sum(1 for p in patterns if parity(p) == 0)
        odd = len(patterns) - even
        bound = 2 * ((r + 1) // 2)
        obstructed = max(even, odd) > bound

        try:
            chains = cocycle.build_chains(ell)
        except cocycle.ChainSearchError as exc:
            chains = None
            if not obstructed:
                problems.append("ell=%d chains missing without a parity "
                                "obstruction (%s)" % (ell, exc))
            else:
                for count in ("(%d, %d)" % (even, odd), "r=%d " % r,
                              "at most %d " % bound):
                    if count not in str(exc):
                        problems.append("ell=%d obstruction message lacks %r: %s"
                                        % (ell, count, exc))
        else:
            if obstructed:
                problems.append("ell=%d chains returned despite classes (%d, %d) "
                                "exceeding %d" % (ell, even, odd, bound))
        if chains is not None:
            for m in (Fraction(1), Fraction(3)):
                sol = cocycle.solve_cocycle_system(ell, m, chains)
                if sol.k != 2 * sol.r * m:
                    problems.append("ell=%d m=%s k=%s" % (ell, m, sol.k))
                if not sol.matches_closed_form:
                    problems.append("ell=%d m=%s closed form mismatch" % (ell, m))
                if not set(sol.sign_absorbed) <= {sol.r + 1}:
                    problems.append("ell=%d unexpected sign absorption %s"
                                    % (ell, sol.sign_absorbed))
                for i in sol.sign_absorbed:
                    if abs(sol.x[i - 1]) != abs(m):
                        problems.append("ell=%d |x_%d| != |m|" % (ell, i))

        cert = cocycle.verify_membership(ell)
        if chains is not None:
            if not (cert.ok and cert.via_chains and len(cert.pairs) == 2 * cert.r - 1):
                problems.append("ell=%d membership certificate failed" % ell)
        elif not (cert.ok and not cert.via_chains and len(cert.pairs) == 2 * cert.r - 1):
            problems.append("ell=%d membership fallback failed" % ell)
        if not all(cocycle.is_flip_adjacent(a, b) for a, b in cert.pairs):
            problems.append("ell=%d membership pair not flip-adjacent" % ell)
        # Independent of the solver: sum y_e (phi_a - phi_b) must equal
        # tau - 2r*phi_first coefficientwise.  The pair terms cancel over each
        # connected component, while the target sums to a positive count over
        # any component without phi_first, so this also certifies that the
        # 2r - 1 pairs connect every pattern (a spanning tree).
        first = "0" * ell + "1" * ell
        total = {p: Fraction(0) for p in patterns}
        for y, (a, b) in zip(cert.coefficients, cert.pairs):
            total[a] += y
            total[b] -= y
        if len(cert.coefficients) != len(cert.pairs) or any(
                total[p] != 1 - (2 * r if p == first else 0) for p in patterns):
            problems.append("ell=%d membership coefficients do not rebuild "
                            "tau - 2r*phi_first" % ell)
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        problems.append("runtime %.1fs exceeds 30s" % elapsed)
    conclude(5, "cocycle certificate (%.1fs)" % elapsed, problems)


def test_criterion_6_cp2_identities():
    """Coefficient identities for n in 1..20, q in {1/2, 3/4, 9/10}, 1e-30."""
    report = dolbeault.cp2_coefficient_identity(
        range(1, 21), [Q, Fraction(3, 4), Fraction(9, 10)], PREC)
    problems = []
    bound = mp.mpf("1e-30")
    for row in report.rows:
        if row.residual_mixed > bound or row.residual_scalar > bound:
            problems.append("n=%d q=%s residuals (%s, %s)"
                            % (row.n, row.q, mp.nstr(row.residual_mixed, 4),
                               mp.nstr(row.residual_scalar, 4)))
    conclude(6, "quantum plane coefficient identities", problems)


def test_criterion_7_fundamental_pairing():
    """Defining-representation matrix coefficients: exact positions, values
    within 1e-50."""
    problems = []
    bound = mp.mpf("1e-50")
    for ell in (1, 2, 3):
        mod = gtrep.build_irrep((0,) * (ell - 1) + (1,), Q, PREC)
        with mp.workdps(PREC):
            qs = mp.sqrt(mp.mpf(Q.numerator) / mp.mpf(Q.denominator))
            for r in range(1, ell + 1):
                for i in range(1, ell + 2):
                    expected = qs ** ((1 if r + 1 == i else 0) - (1 if r == i else 0))
                    got = mod.K[r].get(i - 1, i - 1)
                    if abs(got - expected) > bound:
                        problems.append("ell=%d K_%d diag %d" % (ell, r, i))
                entries = dict(mod.E[r].entries())
                if set(entries) != {(r, r - 1)}:
                    problems.append("ell=%d E_%d positions %s" % (ell, r, sorted(entries)))
                elif abs(entries[(r, r - 1)] - 1) > bound:
                    problems.append("ell=%d E_%d value" % (ell, r))
    conclude(7, "defining representation pairing", problems)


def test_criterion_8_property_suite():
    """Palindromicity and symmetry, interlacing preservation, weight
    additivity, normal-order confluence, twisted coboundary squared."""
    problems = []

    # q-arithmetic symmetry under q <-> 1/q, and binomial symmetry.
    for z in range(-12, 13):
        if not q_int(z).is_palindromic():
            problems.append("q_int(%d) not palindromic" % z)
    for n in range(0, 9):
        if not q_factorial(n).is_palindromic():
            problems.append("q_factorial(%d) not palindromic" % n)
        for m_ in range(0, n + 1):
            if not q_binomial(n, m_).is_palindromic():
                problems.append("q_binomial(%d,%d) not palindromic" % (n, m_))
            if q_binomial(n, m_) != q_binomial(n, n - m_):
                problems.append("q_binomial(%d,%d) asymmetric" % (n, m_))
    if q_multinomial((1, 1)).is_palindromic():
        problems.append("q_multinomial prefactor lost")

    # Interlacing preservation and weight additivity along E and F.
    for weight in [(2,), (1, 1), (0, 2), (1, 0, 1)]:
        mod = gtrep.build_irrep(weight, Q, PREC)
        for k in range(1, mod.ell + 1):
            for (i, j), _v in mod.E[k].entries():
                src, dst = mod.basis[j], mod.basis[i]
                if not (src.interlaces() and dst.interlaces()):
                    problems.append("n=%s E_%d broke interlacing" % (weight, k))
                if dst.a(k) != src.a(k) + 2:
                    problems.append("n=%s E_%d weight step" % (weight, k))
                for other in (k - 1, k + 1):
                    if 1 <= other <= mod.ell and dst.a(other) != src.a(other) - 1:
                        problems.append("n=%s E_%d neighbor step" % (weight, k))

    # Normal ordering confluence: every word of length <= 6 over <= 4
    # generators, four reduction strategies against the inversion formula.
    rng = random.Random(2024)
    def reduce(word, pick):
        w, steps = list(word), 0
        while True:
            descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
            if not descents:
                return -steps, tuple(w)
            i = pick(descents)
            w[i], w[i + 1] = w[i + 1], w[i]
            steps += 1
    strategies = [lambda d: d[0], lambda d: d[-1],
                  lambda d: rng.choice(d), lambda d: rng.choice(d)]
    words = 0
    for length in range(0, 7):
        for word in itertools.product((1, 2, 3, 4), repeat=length):
            e_sorted, mono = coordring.normal_order(word, 4)
            for pick in strategies:
                e, sorted_word = reduce(word, pick)
                counts = tuple(sorted_word.count(i) for i in range(1, 5))
                if e != e_sorted or counts != mono:
                    problems.append("confluence broke at %s" % (word,))
            words += 1

    # Twisted coboundary squared on the toy algebra.
    rep = cocycle.twisted_coboundary_check(2, seed=0)
    if not rep.ok:
        problems.append("b_sigma^2 != 0 at n=2")
    rep1 = cocycle.twisted_coboundary_check(1, seed=5)
    if not rep1.ok:
        problems.append("b_sigma^2 != 0 at n=1")

    conclude(8, "property suite (%d words)" % words, problems)
