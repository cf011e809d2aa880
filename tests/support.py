"""Shared random generators and oracles for the test suite.

Every generator takes an explicit random.Random so runs are
reproducible.  FreeRing, the free group ring with its arithmetic, is
the oracle of the Fox derivatives, which bsfour keeps only to print.
"""

from fractions import Fraction

from bsfour import _kernel, bsgroup
from bsfour.bsgroup import MAX_JSON_EXPONENT, MAX_JSON_K
from bsfour.errors import SchemaError
from bsfour.foxchain import fox_derivative
from bsfour.groupring import FreeRingElt, GroupRingElt


def element(num, pow, t, k):
    """Canonical element with x = num / |k|^pow, reducing as needed."""
    if pow < 0:
        raise ValueError("pow must be non-negative")
    return _kernel.bs_reduce(num, pow, t, k)


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


class FreeRing(FreeRingElt):
    """Z[F(a, b)] with its ring operations: the oracle that Fox
    derivatives, words in FreeRingElt, are compared with."""

    __slots__ = ()

    @classmethod
    def _raw(cls, terms):
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({"": 1})

    @classmethod
    def from_word(cls, word):
        return cls({bsgroup.free_reduce(word): 1})

    def __add__(self, other):
        if not isinstance(other, FreeRingElt):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            c0 = out.get(w, 0) + c
            if c0:
                out[w] = c0
            elif w in out:
                del out[w]
        return self._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FreeRingElt):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = bsgroup.free_reduce(w1 + w2)
                c0 = out.get(w, 0) + c1 * c2
                if c0:
                    out[w] = c0
                elif w in out:
                    del out[w]
        return self._raw(out)

    def __eq__(self, other):
        # a FreeRingElt on the left defers to this, its subclass
        return isinstance(other, FreeRingElt) and self.terms == other.terms


def fox(word, gen):
    """foxchain.fox_derivative(word, gen) as an element of FreeRing."""
    return FreeRing._raw(fox_derivative(word, gen).terms)


def geometric_series(k):
    """(b^k - 1)/(b - 1) as an element of the free ring.

    1 + b + ... + b^(k-1) for k > 0, zero for k = 0, and
    -(b^-1 + ... + b^k) for k < 0; in every case
    (b - 1) * geometric_series(k) = b^k - 1.
    """
    if k > 0:
        return FreeRing._raw({"b" * i: 1 for i in range(k)})
    if k == 0:
        return FreeRing.zero()
    return FreeRing._raw({"B" * i: -1 for i in range(1, -k + 1)})


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


def law_addmul(out, p, q, k):
    """out += p q in place, pair by pair through _kernel.bs_mul: the
    group-law loop of the kernel without its constant path, adding into
    out in the same order (a key new to out goes last, one whose sum
    is 0 is deleted)."""
    for g1, c1 in p.items():
        for g2, c2 in q.items():
            g = _kernel.bs_mul(g1, g2, k)
            c = out.get(g, 0) + c1 * c2
            if c:
                out[g] = c
            else:
                del out[g]
    return out


def mat_product(A, B, k):
    """A B for matrices of ring elements, by the ring's own + and *, as
    a tuple of rows."""
    return tuple(tuple(sum((A[i][p] * B[p][j] for p in range(len(B))),
                           GroupRingElt.zero(k)) for j in range(len(B[0])))
                 for i in range(len(A)))


def assert_isometry_invertible(f, g, U):
    """For a U that verify_isometry accepts, U^T A_g Ubar = A_f: U^T
    has the inverse X = A_g Ubar C_f, with C_f the certificate of f.
    Both products, X U^T and U^T X, are checked to be 1."""
    k, n = f.k, f.rank
    Ut = [list(col) for col in zip(*U)]
    ubar = [[p.involute() for p in row] for row in U]
    X = mat_product(mat_product(g.matrix, ubar, k), f.inverse, k)
    one = tuple(tuple(GroupRingElt.one(k) if i == j else GroupRingElt.zero(k)
                      for j in range(n)) for i in range(n))
    assert mat_product(X, Ut, k) == one
    assert mat_product(Ut, X, k) == one


def read_element(doc, k):
    """A group element read from JSON by GroupRingElt.from_json, as the
    one element of a ring element over k with one term of coefficient
    1: |k| is checked first, then the element."""
    (g,) = GroupRingElt.from_json(
        {"k": k, "terms": [{"coeff": 1, "elt": doc}]}).terms
    return g


# The JSON readers of ring and group elements as they were before one
# loop (bsgroup._json_terms) read every term: a function call per
# element and per integer field, kept as the oracle of that loop.  Like
# the readers, they refuse an unknown field, naming the first one.  The
# bound on |k| of the enclosing document comes before everything it
# holds, terms or none.

def oracle_check_k(k):
    if abs(k) > MAX_JSON_K:
        raise SchemaError("field 'k' must have |k| <= %d" % MAX_JSON_K)


def oracle_json_int(value, field):
    if isinstance(value, bool):
        raise SchemaError("field %r must be an integer string" % field)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        stripped = text[1:] if text[:1] in "+-" else text
        if stripped.isascii() and stripped.isdigit():
            try:
                return int(text)
            except ValueError:  # longer than int() reads from a string
                raise SchemaError("field %r has too many digits"
                                  % field) from None
    raise SchemaError("field %r must be a decimal integer string" % field)


def oracle_element_from_json(doc, k):
    oracle_check_k(k)
    if not isinstance(doc, dict):
        raise SchemaError("group element must be a JSON object")
    for field in ("num", "pow", "t"):
        if field not in doc:
            raise SchemaError("group element missing field %r" % field)
    for field in doc:
        if field not in ("num", "pow", "t"):
            raise SchemaError("group element has an unknown field %r"
                              % field)
    num = oracle_json_int(doc["num"], "num")
    t = oracle_json_int(doc["t"], "t")
    if abs(t) > MAX_JSON_EXPONENT:
        raise SchemaError("field 't' must have |t| <= %d"
                          % MAX_JSON_EXPONENT)
    pw = doc["pow"]
    if not isinstance(pw, int) or isinstance(pw, bool) or pw < 0:
        raise SchemaError("pow must be a non-negative integer")
    if pw > MAX_JSON_EXPONENT:
        raise SchemaError("pow must be at most %d" % MAX_JSON_EXPONENT)
    return element(num, pw, t, k)


def oracle_ring_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("ring element must be a JSON object")
    k = doc.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise SchemaError("ring element needs an integer field 'k'")
    oracle_check_k(k)
    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise SchemaError("ring element needs a list field 'terms'")
    for field in doc:
        if field not in ("k", "terms"):
            raise SchemaError("ring element has an unknown field %r" % field)
    acc = {}
    for item in terms:
        if not isinstance(item, dict) or set(item) != {"coeff", "elt"}:
            raise SchemaError("each term needs exactly 'coeff' and 'elt'")
        c = oracle_json_int(item["coeff"], "coeff")
        g = tuple(oracle_element_from_json(item["elt"], k))
        acc[g] = acc.get(g, 0) + c
    # oracle_element_from_json returns reduced elements, so only the
    # zero sums are left to drop before the trusted constructor.
    return GroupRingElt._raw(k, {g: c for g, c in acc.items() if c})


def oracle_json_matrix(rows, k, what, memo):
    """hermform._json_matrix as it read before the term memo: each cell
    on its own, by oracle_ring_from_json; memo is not used."""
    if not isinstance(rows, list) or any(not isinstance(r, list)
                                         for r in rows):
        raise SchemaError("%s must be a list of rows" % what)
    out = []
    for row in rows:
        entries = []
        for cell in row:
            p = oracle_ring_from_json(cell)
            if p.k != k:
                raise SchemaError("%s entry has k=%d, form has k=%d"
                                  % (what, p.k, k))
            entries.append(p)
        out.append(tuple(entries))
    return tuple(out)
