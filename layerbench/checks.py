"""Output checks computed apart from bsfour.

Nothing here imports bsfour.  Certificates are checked after two ring
homomorphisms computed from the raw terms: the augmentation to Z and
the affine representation over Q,

    b -> (1 1; 0 1),  a -> (k 0; 0 1),  so  b^x a^t -> (k^t x; 0 1),

with x = num / |k|^pow as stored.  The image of a ring element is
upper triangular (alpha beta; 0 gamma), gamma being the augmentation,
so a matrix over the ring maps to a matrix of such triples.

Invariant tables are checked against the closed forms of the paper,
computed from k alone.  Every check raises CheckFailed on a wrong
output; the benchmark counts that operation as failed.
"""

from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- certificates ---------------------------------------------------------

def terms_from_json(doc):
    """[((num, pow, t), coeff)] from a ring-element JSON document."""
    return [((int(item["elt"]["num"]), int(item["elt"]["pow"]),
              int(item["elt"]["t"])), int(item["coeff"]))
            for item in doc["terms"]]


def matrix_from_json(rows):
    return [[terms_from_json(cell) for cell in row] for row in rows]


def entry_image(terms, k):
    """(alpha, beta, gamma): the affine image of sum c * b^x a^t."""
    require(k != 0, "the affine check needs k != 0")
    kq = abs(k)
    terms = list(terms)
    if not terms:
        return (Fraction(0), Fraction(0), 0)
    tmin = min(0, min(g[2] for g, _ in terms))
    pmax = max(g[1] for g, _ in terms)
    a_num = b_num = gamma = 0
    for (num, pw, t), c in terms:
        a_num += c * k ** (t - tmin)
        b_num += c * num * kq ** (pmax - pw)
        gamma += c
    return (Fraction(a_num, k ** -tmin), Fraction(b_num, kq ** pmax), gamma)


def _image_product_is_identity(A, B):
    n = len(A)
    for i in range(n):
        for j in range(n):
            alpha = beta = Fraction(0)
            gamma = 0
            for p in range(n):
                a1, b1, g1 = A[i][p]
                a2, b2, g2 = B[p][j]
                alpha += a1 * a2
                beta += a1 * b2 + b1 * g2
                gamma += g1 * g2
            want = 1 if i == j else 0
            if gamma != want:
                raise CheckFailed("augmented product differs from the"
                                  " identity at (%d, %d)" % (i, j))
            if alpha != want or beta != 0:
                raise CheckFailed("affine image of the product differs"
                                  " from the identity at (%d, %d)" % (i, j))


def check_certificate(matrix, inverse, k):
    """A C = C A = 1 after augmentation and after the affine
    representation.  matrix and inverse are square lists of term
    lists [((num, pow, t), coeff)]."""
    n = len(matrix)
    require(n > 0, "empty form")
    require(len(inverse) == n and all(len(r) == n for r in matrix + inverse),
            "certificate has the wrong shape")
    A = [[entry_image(p, k) for p in row] for row in matrix]
    C = [[entry_image(p, k) for p in row] for row in inverse]
    _image_product_is_identity(A, C)
    _image_product_is_identity(C, A)


def check_form_doc(doc):
    """Independent certificate check of a form JSON document."""
    require("inverse" in doc, "form carries no certificate")
    check_certificate(matrix_from_json(doc["matrix"]),
                      matrix_from_json(doc["inverse"]), doc["k"])


# -- closed forms of the paper, from k alone --------------------------------

def _cyclic_part(m):
    # Z/m with Z/0 read as Z and Z/1 as trivial
    if m == 0:
        return ["Z"]
    if m == 1:
        return []
    return ["Z/%d" % m]


def _show(parts):
    free = parts.count("Z")
    rest = [p for p in parts if p != "Z"]
    head = [] if not free else ["Z" if free == 1 else "Z^%d" % free]
    return " + ".join(head + rest) if head or rest else "0"


def expected_report_row(k):
    """The report row of B(k): H1 = Z + Z/|k-1|, H2 = 0 (k != 1),
    H2(;Z/2) = Z/2 exactly for odd k, L5 = H1, L4 = Z (+ Z/2 for odd
    k), bordism = 8Z + H2(;Z/2)."""
    odd = k % 2 == 1
    h1 = _show(["Z"] + _cyclic_part(abs(k - 1)))
    h2_mod2 = "Z/2" if odd else "0"
    return {"k": k, "H0": "Z", "H1": h1,
            "H2": "Z" if k == 1 else "0",
            "H2_mod2": h2_mod2, "whitehead": "0",
            "L4": "Z + Z/2" if odd else "Z",
            "L5": h1,
            "bordism": "8Z + Z/2" if odd else "8Z",
            "oracle_check": "ok"}


def check_report(doc, k):
    rows = doc.get("rows")
    require(isinstance(rows, list) and len(rows) == 1,
            "report for k=%d must have one row" % k)
    want = expected_report_row(k)
    for key, value in want.items():
        require(rows[0].get(key) == value,
                "report k=%d: %s is %r, expected %r"
                % (k, key, rows[0].get(key), value))


def _group_doc(free_rank, torsion):
    return {"free_rank": free_rank, "torsion": [str(t) for t in torsion]}


def check_lgroups(doc, k):
    """L5 = Z + Z/|k-1| (torsion exactly |k-1| here), L4 = Z (+ Z/2 for
    odd k), Wh = 0, and the assembly domains match."""
    m = abs(k - 1)
    require(m >= 2, "lgroups check expects |k-1| >= 2")
    lg = doc["lgroups"]
    require(lg["L5"] == _group_doc(1, [m]),
            "L5 of k=%d is %r, expected torsion %d" % (k, lg["L5"], m))
    require(lg["L4"] == _group_doc(1, [2] if k % 2 else []),
            "L4 of k=%d is %r" % (k, lg["L4"]))
    require(lg["whitehead"] == _group_doc(0, []), "Whitehead group not 0")
    require(lg["L0_symmetric"] == _group_doc(1, []), "L0 symmetric not Z")
    require(doc["assembly"]["consistent"] is True,
            "assembly reported inconsistent for k=%d" % k)


# -- forms, realization, classification -------------------------------------

def expected_realize(k, signature):
    """(w2, ks) pairs of an even certificated form extended from Z:
    type II with KS = sig/8 mod 2, and for odd k also type III with
    KS = sig/8 + Arf = sig/8 mod 2."""
    require(signature % 8 == 0, "even forms have signature divisible by 8")
    ks = (signature // 8) % 2
    out = [("II", ks)]
    if k % 2:
        out.append(("III", ks))
    return out


def check_verdict(doc, expected):
    require(doc.get("verdict") == expected,
            "verdict %r, expected %r" % (doc.get("verdict"), expected))
