"""Exact integer linear algebra: Smith normal form with transforms,
finitely generated abelian groups, homology of short complexes, and
signatures of symmetric matrices.

The Smith form is the elimination for homology over Z and Z/p,
unimodularity and integer inverses: one loop that reaches the divisor
chain by itself.  An integer inverse is returned only after a product
by `_mat_mul`, the one integer matrix product, has checked it.
`signature` has its own fraction-free congruence elimination.
Everything stays in arbitrary-precision integers, never rationals or
floating point.  Matrices are plain lists of rows.
"""

import math
from dataclasses import dataclass
from operator import mul

from .errors import ChainComplexError


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    if not A or not B:
        return []
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(A):
    """U, D, V with U A V = D diagonal, U and V unimodular, the diagonal
    non-negative and each entry dividing the next.

    One elimination loop: the smallest nonzero entry left is the pivot
    p at (i, i) and clears its row and column by division with
    remainder; a remainder is a smaller pivot.  Once row and column are
    clear, a row below that holds an entry p does not divide is added
    to row i, so the next pass finds a remainder, hence a smaller
    pivot.  The pivot that passes both divides everything below and to
    the right, and so every later pivot: the divisor chain comes out
    of the loop (H. Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, 2.4)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    D = [list(row) for row in A]
    U = _identity(m)
    V = _identity(n)
    for i in range(min(m, n)):
        while True:
            best = None
            for r in range(i, m):
                for c in range(i, n):
                    v = D[r][c]
                    if v and (best is None
                              or abs(v) < abs(D[best[0]][best[1]])):
                        best = (r, c)
            if best is None:
                return U, D, V
            r, c = best
            if r != i:
                D[i], D[r] = D[r], D[i]
                U[i], U[r] = U[r], U[i]
            if c != i:
                _swap_cols(D, i, c)
                _swap_cols(V, i, c)
            if D[i][i] < 0:
                D[i] = [-x for x in D[i]]
                U[i] = [-x for x in U[i]]
            p = D[i][i]
            clean = True
            for r in range(i + 1, m):
                q = D[r][i] // p
                if q:
                    D[r] = [x - q * y for x, y in zip(D[r], D[i])]
                    U[r] = [x - q * y for x, y in zip(U[r], U[i])]
                if D[r][i]:
                    clean = False
            for c in range(i + 1, n):
                q = D[i][c] // p
                if q:
                    for row in D:
                        row[c] -= q * row[i]
                    for row in V:
                        row[c] -= q * row[i]
                if D[i][c]:
                    clean = False
            if clean and p > 1:
                # 1 divides every entry, so a unit pivot skips the scan
                r = next((r for r in range(i + 1, m)
                          if any(x % p for x in D[r][i + 1:])), None)
                if r is not None:
                    D[i] = [x + y for x, y in zip(D[i], D[r])]
                    U[i] = [x + y for x, y in zip(U[i], U[r])]
                    clean = False
            if clean:
                break
    return U, D, V


def invariant_factors(A):
    """Nonzero diagonal of the Smith form."""
    if not A:
        return []
    _, D, _ = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(A), len(A[0]))) if D[i][i]]


def unimodular_inverse(A):
    """Integer inverse of a square matrix, checked by one product, or
    None when its determinant is not +-1.  The 0 x 0 matrix is
    unimodular with inverse []."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    U, D, V = smith_normal_form(A)
    one = _identity(n)
    if D != one:
        return None
    # U A V = 1 gives A = U^-1 V^-1, hence A^-1 = V U.  Any other D has
    # determinant 0 or at least 2, and det A = +-det D.  X is returned
    # only once A X = 1 is checked (X A = 1 follows over Z, as over any
    # commutative ring), so it trusts nothing of U and V.
    X = _mat_mul(V, U)
    return X if _mat_mul(A, X) == one else None


def signature(S):
    """Signature of a symmetric integer matrix, by fraction-free
    (Bareiss) congruence elimination in the integers."""
    n = len(S)
    for i, row in enumerate(S):
        if len(row) != n:
            raise ValueError("square matrix required")
        for j in range(i):
            if row[j] != S[j][i]:
                raise ValueError("symmetric matrix required")
    # Bareiss: after pivots P, with prev the last pivot (1 at first),
    # each active entry M[r][c] is the minor det S[P+{r}, P+{c}] of the
    # not-yet-pivoted matrix S and prev is det S[P, P], so the division
    # is exact and the true Schur pivot is d / prev: +1 when d and prev
    # have the same sign.  With a zero active diagonal and M[i][j] = c,
    # adding row and column j to row and column i is a unimodular
    # congruence that makes M[i][i] = 2c.  The minor is linear in row r
    # and in column c of S, so this is the same add applied to S; it
    # leaves det S[P, P] alone (i and j are not in P), and the division
    # stays exact.  An all-zero active block contributes 0.
    M = [list(row) for row in S]
    act = list(range(n))
    sig, prev = 0, 1
    while act:
        p = next((i for i in act if M[i][i]), None)
        if p is None:
            p, j = next(((i, j) for i in act for j in act if M[i][j]),
                        (None, None))
            if p is None:
                break
            for r in act:
                M[r][p] += M[r][j]
            for c in act:
                M[p][c] += M[j][c]
        act.remove(p)
        Mp, d = M[p], M[p][p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for r in act:
            Mr = M[r]
            f = Mr[p]
            for c in act:
                Mr[c] = (d * Mr[c] - f * Mp[c]) // prev
        prev = d
    return sig


_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def e8_matrix():
    """Gram matrix of the positive definite even unimodular rank-8
    lattice, as the Cartan matrix of the T(2,3,5) diagram."""
    E = [[0] * 8 for _ in range(8)]
    for i in range(8):
        E[i][i] = 2
    for i, j in _E8_EDGES:
        E[i][j] = E[j][i] = -1
    return E


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank + Z/t1 + ... + Z/tr with t1 | t2 | ... and ti >= 2."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for t in self.torsion:
            if t < 2 or (prev is not None and t % prev):
                raise ValueError("torsion must be a divisor chain of"
                                 " integers >= 2")
            prev = t

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, r):
        return cls(r, ())

    @classmethod
    def cyclic(cls, n):
        """Z/n, with Z/0 read as Z and Z/1 as trivial."""
        return cls.from_invariant_factors([n])

    @classmethod
    def elementary(cls, p, dim):
        return cls.from_invariant_factors([p] * dim)

    @classmethod
    def from_invariant_factors(cls, factors, free_rank=0):
        """Canonicalize arbitrary cyclic factors (0 meaning Z) into a
        divisor chain.

        This is the Smith form of a diagonal matrix: Z/a + Z/b is
        Z/gcd(a,b) + Z/lcm(a,b), so replacing (t_i, t_j) by their gcd
        and lcm for every i < j leaves t_0 | t_1 | ...  No factoring,
        hence no trial division on large primes."""
        free = free_rank
        ts = []
        for f in factors:
            f = abs(int(f))
            if f == 0:
                free += 1
            elif f > 1:
                ts.append(f)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                g = math.gcd(ts[i], ts[j])
                ts[i], ts[j] = g, ts[i] // g * ts[j]
        return cls(free, tuple(t for t in ts if t > 1))

    def direct_sum(self, other):
        return self.from_invariant_factors(
            self.torsion + other.torsion, self.free_rank + other.free_rank)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def to_json(self):
        return {"free_rank": self.free_rank,
                "torsion": [str(t) for t in self.torsion]}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def homology_of_complex(d2, d1, modulus=0):
    """Homology [H0, H1, H2] of the length-2 complex of row vectors

        Z^n2 --d2--> Z^n1 --d1--> Z^n0

    (coefficients Z/modulus when the modulus is a prime; 0 means Z,
    and any other modulus raises ValueError).  d2 may be empty; d1 must
    have at least one row and column."""
    if modulus and not _is_prime(modulus):
        raise ValueError("modulus must be 0 or a prime")
    if not d1 or not d1[0]:
        raise ValueError("d1 must be nonempty")
    n1, n0 = len(d1), len(d1[0])
    n2 = len(d2)
    if any(len(row) != n0 for row in d1) or any(len(row) != n1 for row in d2):
        raise ValueError("ragged boundary matrices")
    for row in _mat_mul(d2, d1):
        for x in row:
            if (x % modulus) if modulus else x:
                raise ChainComplexError("d2 * d1 is not zero")
    f2 = invariant_factors(d2)
    f1 = invariant_factors(d1)
    if modulus:
        # U d V = D with U, V unimodular; their determinants +-1 stay
        # units mod p, so d and D have the same rank over Z/p: the number
        # of invariant factors that p does not divide.
        r2 = sum(1 for f in f2 if f % modulus)
        r1 = sum(1 for f in f1 if f % modulus)
        return [AbelianGroup.elementary(modulus, n0 - r1),
                AbelianGroup.elementary(modulus, n1 - r1 - r2),
                AbelianGroup.elementary(modulus, n2 - r2)]
    r2, r1 = len(f2), len(f1)
    return [AbelianGroup.from_invariant_factors(f1, n0 - r1),
            AbelianGroup.from_invariant_factors(f2, n1 - r1 - r2),
            AbelianGroup.free(n2 - r2)]
