"""Smith normal form, homology of integer complexes, exact signature.

Oracles: determinantal divisors (the product of the first i invariant
factors is the gcd of all i x i minors) computed with an independent
Fraction-based determinant; for the signature, Sylvester's minor
criterion for definiteness, the rational congruence diagonalization
support.fraction_signature, and Sylvester's law of inertia on T^T D T
with T unimodular and D diagonal.
"""

import importlib
import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from bsfour import intlinalg
from bsfour.errors import ChainComplexError
from bsfour.intlinalg import AbelianGroup

from support import fraction_signature, random_unimodular


def frac_det(A):
    """Gaussian elimination determinant over Fraction; test-local oracle."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if M[r][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            M[i], M[p] = M[p], M[i]
            det = -det
        det *= M[i][i]
        for r in range(i + 1, n):
            f = M[r][i] / M[i][i]
            for c in range(i, n):
                M[r][c] -= f * M[i][c]
    return det


def minor_gcds(A):
    m, n = len(A), len(A[0])
    out = []
    for size in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[A[r][c] for c in cols] for r in rows]
                g = math.gcd(g, int(frac_det(sub)))
        out.append(g)
    return out


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def mat_mul(A, B):
    return [[sum(A[i][p] * B[p][j] for p in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank_mod_p(A, p):
    """Row reduction over F_p; test-local oracle."""
    M = [[x % p for x in row] for row in A]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], -1, p)
        M[rank] = [x * inv % p for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][col]:
                f = M[r][col]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def test_snf_frozen_examples():
    _, D, _ = intlinalg.smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]
    assert intlinalg.invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    _, D, _ = intlinalg.smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]
    assert intlinalg.invariant_factors([[5]]) == [5]
    assert intlinalg.invariant_factors([]) == []


@pytest.mark.parametrize("diagonal, chain", [((2, 3), (1, 6)),
                                              ((6, 10, 15), (1, 30, 30))])
def test_snf_reaches_the_divisor_chain_in_the_loop(diagonal, chain):
    """Diagonal matrices that are no divisor chain: every pivot clears
    its row and column at once, so only the divisibility step, which
    adds a row with an entry the pivot does not divide, makes the
    chain (determinantal divisors: gcd(6, 10, 15) = 1 and
    gcd(60, 90, 150) = 30)."""
    n = len(diagonal)
    A = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    U, D, V = intlinalg.smith_normal_form(A)
    assert D == [[chain[i] if i == j else 0 for j in range(n)]
                 for i in range(n)]
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(frac_det(U)) == 1 and abs(frac_det(V)) == 1
    assert intlinalg.invariant_factors(A) == list(chain)


def test_snf_properties_random():
    rng = random.Random(71)
    for trial in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        U, D, V = intlinalg.smith_normal_form(A)
        assert abs(frac_det(U)) == 1
        assert abs(frac_det(V)) == 1
        assert mat_mul(mat_mul(U, A), V) == D
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        # determinantal divisor oracle
        gcds = minor_gcds(A)
        prod = 1
        for i, d in enumerate(diag):
            prod *= d
            assert prod == gcds[i] or (prod == 0 and gcds[i] == 0)


def test_rank_matches_fraction_rank():
    rng = random.Random(72)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        gcds = minor_gcds(A)
        oracle_rank = max([i + 1 for i, g in enumerate(gcds) if g], default=0)
        assert len(intlinalg.invariant_factors(A)) == oracle_rank


def test_homology_small_complex():
    # Z --(2,0)--> Z^2 --(0;1)--> Z, rows act on the right
    H = intlinalg.homology_of_complex([[2, 0]], [[0], [1]])
    assert H == [AbelianGroup.trivial(),
                 AbelianGroup.cyclic(2),
                 AbelianGroup.trivial()]
    H = intlinalg.homology_of_complex([], [[0], [0]])
    assert H == [AbelianGroup.free(1), AbelianGroup.free(2),
                 AbelianGroup.trivial()]


def test_homology_rejects_non_complex():
    with pytest.raises(ChainComplexError):
        intlinalg.homology_of_complex([[1, 0]], [[1], [0]])


def test_homology_mod2():
    H = intlinalg.homology_of_complex([[0, 1]], [[0], [0]], modulus=2)
    assert H == [AbelianGroup.elementary(2, 1),
                 AbelianGroup.elementary(2, 1),
                 AbelianGroup.trivial()]
    # mod 2 the boundary (2, 0) vanishes
    H = intlinalg.homology_of_complex([[2, 0]], [[0], [2]], modulus=2)
    assert H == [AbelianGroup.elementary(2, 1),
                 AbelianGroup.elementary(2, 2),
                 AbelianGroup.elementary(2, 1)]


@pytest.mark.parametrize("modulus", [4, -2, 1, 91])
def test_homology_refuses_a_modulus_that_is_not_prime(modulus):
    """Z/p ranks of the invariant factors give the homology over Z/p
    only for a prime p: mod 4 the complex below has H1 = Z/4 + Z/2 and
    H2 = Z/2, which they would miss.  -2 is not read as 2."""
    with pytest.raises(ValueError, match="modulus must be 0 or a prime"):
        intlinalg.homology_of_complex([[0, 2]], [[0], [0]], modulus)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_homology_mod_p_matches_row_reduction(p):
    rng = random.Random(75 + p)
    for _ in range(40):
        n0, n1, n2 = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 4)
        r = rng.randint(0, n1)
        # d2' d1' = 0 by block shape; a change of basis T of Z^n1 keeps
        # it, and adding multiples of p keeps it mod p while leaving the
        # entries unreduced
        d1 = random_matrix(rng, r, n0) + [[0] * n0 for _ in range(n1 - r)]
        d2 = [[0] * r + row for row in random_matrix(rng, n2, n1 - r)]
        T = random_unimodular(rng, n1)
        T_inv = intlinalg.unimodular_inverse(T)
        assert mat_mul(T, T_inv) == identity(n1)
        d1 = mat_mul(T, d1)
        d2 = mat_mul(d2, T_inv) if n2 else []
        d1 = [[x + p * rng.randint(-3, 3) for x in row] for row in d1]
        d2 = [[x + p * rng.randint(-3, 3) for x in row] for row in d2]
        r1, r2 = rank_mod_p(d1, p), rank_mod_p(d2, p)
        H = intlinalg.homology_of_complex(d2, d1, modulus=p)
        assert H == [AbelianGroup.elementary(p, n0 - r1),
                     AbelianGroup.elementary(p, n1 - r1 - r2),
                     AbelianGroup.elementary(p, n2 - r2)]


def test_abelian_group_basics():
    G = AbelianGroup.from_invariant_factors([1, 2, 4])
    assert G.free_rank == 0 and G.torsion == (2, 4)
    assert str(G) == "Z/2 + Z/4"
    assert str(AbelianGroup.free(2)) == "Z^2"
    assert str(AbelianGroup.trivial()) == "0"
    assert str(AbelianGroup.cyclic(0)) == "Z"
    assert AbelianGroup.cyclic(1) == AbelianGroup.trivial()
    assert AbelianGroup.cyclic(-5) == AbelianGroup.cyclic(5)
    # direct sums renormalize to a divisor chain
    G = AbelianGroup.cyclic(2).direct_sum(AbelianGroup.cyclic(3))
    assert G == AbelianGroup.cyclic(6)
    G = AbelianGroup.cyclic(4).direct_sum(AbelianGroup.cyclic(6))
    assert G.torsion == (2, 12)
    doc = G.to_json()
    assert doc == {"free_rank": 0, "torsion": ["2", "12"]}
    # several non-coprime factors and a free summand
    G = AbelianGroup.from_invariant_factors([12, 0, 18, 8, -30, 1], 1)
    assert G.free_rank == 2 and G.torsion == (2, 6, 12, 360)


def test_signature_frozen_examples():
    assert intlinalg.signature([[1, 0], [0, -1]]) == 0
    assert intlinalg.signature([[2, 0, 0], [0, 3, 0], [0, 0, -5]]) == 1
    assert intlinalg.signature([[0, 1], [1, 0]]) == 0
    assert intlinalg.signature([[0, 3], [3, 0]]) == 0
    assert intlinalg.signature([]) == 0


def test_e8_is_even_unimodular_positive_definite():
    E = intlinalg.e8_matrix()
    assert len(E) == 8 and all(len(r) == 8 for r in E)
    assert all(E[i][j] == E[j][i] for i in range(8) for j in range(8))
    assert all(E[i][i] % 2 == 0 for i in range(8))
    assert frac_det(E) == 1
    # Sylvester: all leading principal minors positive
    for s in range(1, 9):
        assert frac_det([row[:s] for row in E[:s]]) > 0
    assert intlinalg.signature(E) == 8
    assert intlinalg.invariant_factors(E) == [1] * 8


def test_signature_congruence_invariance():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 5)
        S = random_matrix(rng, n, n, -6, 6)
        for i in range(n):
            for j in range(i):
                S[i][j] = S[j][i]
        T = random_unimodular(rng, n)
        assert abs(frac_det(T)) == 1
        TS = mat_mul([list(r) for r in zip(*T)], mat_mul(S, T))
        assert intlinalg.signature(TS) == intlinalg.signature(S)
        assert intlinalg.signature([[-x for x in row] for row in S]) == \
            -intlinalg.signature(S)


def test_signature_additivity_and_unimodular_inverse():
    rng = random.Random(74)
    outcomes = set()
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        S1 = random_matrix(rng, n1, n1, -5, 5)
        S2 = random_matrix(rng, n2, n2, -5, 5)
        for S in (S1, S2):
            for i in range(len(S)):
                for j in range(i):
                    S[i][j] = S[j][i]
        block = [r + [0] * n2 for r in S1] + [[0] * n1 + r for r in S2]
        assert intlinalg.signature(block) == \
            intlinalg.signature(S1) + intlinalg.signature(S2)
        n = rng.randint(1, 4)
        for A in (random_matrix(rng, 4, 4), random_matrix(rng, n, n, -1, 1),
                  random_unimodular(rng, n)):
            inv = intlinalg.unimodular_inverse(A)
            assert (inv is None) == (abs(frac_det(A)) != 1)
            outcomes.add(inv is None)
            if inv is not None:
                assert mat_mul(A, inv) == identity(len(A))
                assert mat_mul(inv, A) == identity(len(A))
    assert outcomes == {True, False}
    assert intlinalg.unimodular_inverse([]) == []
    for bad in ([[1, 2]], [[1], [2]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            intlinalg.unimodular_inverse(bad)


def random_symmetric(rng, n, rank, lo=-3, hi=3):
    """V^T D V with V of `rank` random rows: rank at most `rank`."""
    V = random_matrix(rng, rank, n, lo, hi)
    D = [rng.choice((-2, -1, 1, 2)) for _ in range(rank)]
    return [[sum(V[q][i] * D[q] * V[q][j] for q in range(rank))
             for j in range(n)] for i in range(n)]


def block_sum(A, B):
    n, m = len(A), len(B)
    return [list(r) + [0] * m for r in A] + [[0] * n + list(r) for r in B]


def permuted(S, perm):
    return [[S[i][j] for j in perm] for i in perm]


def test_signature_matches_fraction_oracle():
    """The integer elimination against the rational one it replaced, on
    dense, rank-deficient and zero-diagonal matrices, and on A + Z with
    |det A| >= 2 and Z zero on the diagonal: A is pivoted first, so the
    row and column add on Z comes after pivots and its divisions are by
    prev = det A, not 1."""
    rng = random.Random(75)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 8)
        S = random_symmetric(rng, n, rng.randint(0, n))
        cases.append(S)
        cases.append([[0 if i == j else x for j, x in enumerate(row)]
                      for i, row in enumerate(S)])
        D = random_matrix(rng, n, n, -9, 9)
        cases.append([[D[min(i, j)][max(i, j)] for j in range(n)]
                      for i in range(n)])
    for _ in range(200):
        m = rng.randint(1, 3)
        A = random_symmetric(rng, m, m, -4, 4)
        if frac_det(A) in (0, 1, -1):
            continue
        n = rng.randint(2, 5)
        Z = random_symmetric(rng, n, rng.randint(1, n))
        Z = [[0 if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(Z)]
        perm = list(range(m, m + n))
        rng.shuffle(perm)
        cases.append(permuted(block_sum(A, Z), list(range(m)) + perm))
    assert len(cases) > 700
    outcomes = set()
    for S in cases:
        want = fraction_signature(S)
        assert intlinalg.signature(S) == want, S
        outcomes.add(want)
    assert outcomes >= set(range(-5, 6))


def test_signature_of_certify_forms_matches_oracle(monkeypatch, tmp_path):
    """Every augmented form the benchmark's certify round takes the
    signature of, one for each form of each CERTIFY_SHAPES shape, agrees
    with the oracle."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve()
                                    .parents[1] / "layerbench"))
    workloads = importlib.import_module("workloads")
    seen = []
    real = intlinalg.signature

    def recorded(S):
        sig = real(S)
        seen.append((len(S), sig, fraction_signature(S)))
        return sig

    monkeypatch.setattr(intlinalg, "signature", recorded)
    for op in workloads.setup_certify(1, str(tmp_path)):
        op.check(op.run())
    assert all(sig == want for _, sig, want in seen)
    assert {n for n, _, _ in seen} == {
        2 * r + 8 * s for r, s, _ in workloads.CERTIFY_SHAPES}
    assert {sig for _, sig, _ in seen} == {0, 8}


def test_signature_dense_rank_120_within_time_bound():
    """S = T^T D T with T unimodular has the signature of D (Sylvester's
    law of inertia).  The exact divisions keep every entry a minor of
    S, so rank 120 takes 0.25 s on a 2-core x86 host; the bound is
    2 s."""
    rng = random.Random(120)
    n = 120
    T = random_unimodular(rng, n)
    D = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    S = [[sum(T[q][i] * D[q] * T[q][j] for q in range(n)) for j in range(n)]
         for i in range(n)]
    start = time.perf_counter()
    sig = intlinalg.signature(S)
    elapsed = time.perf_counter() - start
    assert sig == sum(1 if d > 0 else -1 for d in D)
    assert elapsed < 2.0, elapsed
