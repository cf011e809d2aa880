"""Shared random generators and oracles for the test suite.

Every generator takes an explicit random.Random so runs are
reproducible.
"""

from fractions import Fraction

from bsfour import bsgroup
from bsfour.groupring import FreeRingElt, GroupRingElt


def random_word(rng, maxlen=40):
    n = rng.randint(0, maxlen)
    return "".join(rng.choice("aAbB") for _ in range(n))


def random_element(rng, k, wordlen=12):
    return bsgroup.eval_word(random_word(rng, wordlen), k)


def random_ring_elt(rng, k, terms=6, wordlen=8, cmax=9):
    p = GroupRingElt.zero(k)
    for _ in range(rng.randint(0, terms)):
        c = rng.randint(-cmax, cmax)
        p = p + GroupRingElt.monomial(k, random_element(rng, k, wordlen), c)
    return p


def random_unit_triangular(rng, k, n, max_terms=2):
    """Random unit upper triangular matrix with small sparse entries;
    always invertible, used to generate certificated forms."""
    rows = [[GroupRingElt.one(k) if i == j else GroupRingElt.zero(k)
             for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                p = GroupRingElt.zero(k)
                for _ in range(rng.randint(1, max_terms)):
                    w = "".join(rng.choice("aAbB")
                                for _ in range(rng.randint(0, 4)))
                    p = p + GroupRingElt.from_word(
                        k, w, rng.choice((-2, -1, 1, 2)))
                rows[i][j] = p
    return tuple(tuple(row) for row in rows)


def random_unimodular(rng, n):
    """Product of random elementary integer matrices; determinant +-1."""
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        kind = rng.randrange(6)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and n > 1:
            if i != j:
                T[i], T[j] = T[j], T[i]
        elif kind == 1:
            T[i] = [-x for x in T[i]]
        else:
            if i == j:
                continue
            q = rng.choice((-2, -1, 1, 2))
            T[i] = [x + q * y for x, y in zip(T[i], T[j])]
    return T


def fraction_signature(S):
    """Signature of a symmetric matrix, by exact congruence
    diagonalization.  A pair of zero-diagonal rows coupled off-diagonal
    is a hyperbolic plane and contributes nothing.

    The rational elimination intlinalg.signature used before it became
    integer-only, kept as its oracle."""
    n = len(S)
    for i, row in enumerate(S):
        if len(row) != n:
            raise ValueError("square matrix required")
        for j in range(i):
            if row[j] != S[j][i]:
                raise ValueError("symmetric matrix required")
    M = [[Fraction(x) for x in row] for row in S]
    act = list(range(n))
    sig = 0
    while act:
        piv = next((i for i in act if M[i][i]), None)
        if piv is not None:
            d = M[piv][piv]
            sig += 1 if d > 0 else -1
            rest = [r for r in act if r != piv]
            for r in rest:
                f = M[r][piv] / d
                if f:
                    for c in rest:
                        M[r][c] -= f * M[piv][c]
            act = rest
            continue
        pair = next(((i, j) for i in act for j in act if i < j and M[i][j]),
                    None)
        if pair is None:
            break
        i, j = pair
        c = M[i][j]
        rest = [r for r in act if r != i and r != j]
        alpha = {r: -M[r][j] / c for r in rest}
        beta = {r: -M[r][i] / c for r in rest}
        old = {r: (M[r][i], M[r][j]) for r in rest}
        rows = {r: dict((s, M[r][s]) for s in rest) for r in rest}
        for r in rest:
            for s in rest:
                M[r][s] = (rows[r][s]
                           + alpha[r] * M[i][s] + beta[r] * M[j][s]
                           + alpha[s] * old[r][0] + beta[s] * old[r][1]
                           + (alpha[r] * beta[s] + beta[r] * alpha[s]) * c)
        act = rest
    return sig


def geometric_series(k):
    """(b^k - 1)/(b - 1) as an element of the free ring.

    1 + b + ... + b^(k-1) for k > 0, zero for k = 0, and
    -(b^-1 + ... + b^k) for k < 0; in every case
    (b - 1) * geometric_series(k) = b^k - 1.
    """
    if k > 0:
        return FreeRingElt._raw({"b" * i: 1 for i in range(k)})
    if k == 0:
        return FreeRingElt.zero()
    return FreeRingElt._raw({"B" * i: -1 for i in range(1, -k + 1)})


def x_fraction(g, k):
    """The x-part as an exact rational."""
    kq = -k if k < 0 else k
    return Fraction(g[0], (kq or 1) ** g[1])


def sesquilinear(f, x, y):
    """s(x, y) = x A involute(y)^T for row vectors over the ring."""
    n = f.rank
    if len(x) != n or len(y) != n:
        raise ValueError("vector length must match the rank")
    ybar = [p.involute() for p in y]
    total = GroupRingElt.zero(f.k)
    for i in range(n):
        row = GroupRingElt.zero(f.k)
        for j in range(n):
            row = row + f.matrix[i][j] * ybar[j]
        total = total + x[i] * row
    return total
