"""Hermitian forms over the group ring of B(k).

A form is a square matrix A over Z[B(k)] equal to its conjugate
transpose (involute entries, then transpose), evaluating on row
vectors by s(x, y) = x A involute(y)^T, linear in x.

Invertibility over the group ring is never decided heuristically:
either a certificate C with A C = 1 is produced and checked by exact
multiplication, or the answer is unknown; C A = 1 follows (the proof
is at _is_inverse).  Every inverse that is searched for comes from
invert_matrix: the lifted integer inverse for a matrix of integer
constants, otherwise Gauss-Jordan elimination with trivial-unit pivots
+-g, then one check; sound, not complete, and never failing on a unit
triangular matrix.  try_invert, congruence and isometry_inverse all
call it, and a form that try_invert certifies is not checked again.
The check of a lifted integer inverse is the integer product inside
intlinalg.unimodular_inverse, which is the same check: the entrywise
embedding of Z in Z[B(k)] is an injective ring map.
from_integer_matrix takes its certificate from invert_matrix;
hyperbolic attaches its known inverse, which its constructor checks.
A product is compared with its target entry by entry, as it is summed.
verify_isometry builds no inverse: the isometry equation proves the
isometry invertible.  congruence and orthogonal_sum derive their
matrices and certificates from checked parts instead of checking them
again, and congruence fills the lower half of each hermitian product
by the involution.  A form transported by U from one with certificate
Cf is checked by one product: Ubar C = Cf W*, for Ubar = involute(U)
and the checked W = Ubar^-1; congruence multiplies out T = Cf W* once,
as that target and as the right factor of its certificate C2 = W T.
The proofs are at each function.  Forms are read-only, so a
certificate once checked stays attached to its matrix, and a
transported form to its factors.  Parity reads the identity
coefficients of the diagonal; cross terms contribute
lambda + conjugate(lambda), which has even identity coefficient, so the
diagonal rule agrees with evaluation parity.  The augmented form is the
integer Gram matrix obtained by applying the augmentation entrywise;
its signature is the signature invariant of the form.  The properties
HermitianForm.parity and HermitianForm.signature compute the two once
and keep them on the form.

A form document is read with one term memo for all its entries (see
bsgroup); to_json writes each entry with GroupRingElt.to_json, or with
the function given as entry, as the command line does to write the
elements themselves.
"""

from dataclasses import dataclass
from enum import Enum

from . import _kernel, intlinalg
from .bsgroup import _json_k
from .errors import CertificateError, GroupMismatchError, SchemaError
from .groupring import GroupRingElt

_ONE = {(0, 0, 0): 1}  # the terms of 1, to compare with; never handed out

ARF_EXTENDED = "extended-from-Z"
ARF_ASSERTED = "asserted"


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class ArfTag:
    """Provenance-carried Arf invariant of an even form.

    No algorithm computes Arf from the matrix here; the value is 0 for
    forms extended from the integers and otherwise only what the caller
    asserts."""

    mode: str
    value: int

    def __post_init__(self):
        if self.mode not in (ARF_EXTENDED, ARF_ASSERTED):
            raise SchemaError("arf mode must be %r or %r"
                              % (ARF_EXTENDED, ARF_ASSERTED))
        if type(self.value) is not int or self.value not in (0, 1):
            raise SchemaError("arf value must be 0 or 1")
        if self.mode == ARF_EXTENDED and self.value != 0:
            raise SchemaError("forms extended from Z have arf 0")

    def to_json(self):
        return {"mode": self.mode, "value": self.value}

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or set(doc) != {"mode", "value"}:
            raise SchemaError("arf tag needs exactly 'mode' and 'value'")
        return cls(doc["mode"], doc["value"])


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


def _row_times(row, B, k, start=0):
    """The entries of the product of a row vector and B, from column
    start on, as term dicts, one at a time."""
    # a zero entry contributes nothing: the kernel is called only when
    # both operands have terms
    live = [(Bp, x.terms) for Bp, x in zip(B, row) if x.terms]
    for j in range(start, len(B[0])):
        acc = {}
        for Bp, a in live:
            b = Bp[j].terms
            if b:
                _kernel.ring_addmul(acc, a, b, k)
        yield acc


def mat_mul(A, B, k):
    if not A or not B:
        return ()
    return tuple(tuple(GroupRingElt._raw(k, acc)
                       for acc in _row_times(row, B, k)) for row in A)


def _hermitian_product(A, B, k):
    """A B for square A and B whose product is hermitian by theorem:
    the entries on and above the diagonal are multiplied out, and each
    one below is the involute of its mirror image."""
    P = [[None] * len(A) for _ in A]
    for i, row in enumerate(A):
        for j, acc in enumerate(_row_times(row, B, k, i), i):
            P[i][j] = GroupRingElt._raw(k, acc)
            if j > i:
                P[j][i] = P[i][j].involute()
    return _freeze(P)


def mat_transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_involute(A):
    return tuple(tuple(p.involute() for p in row) for row in A)


def _star(A):
    # conjugate transpose; an anti-automorphism of the matrix ring
    return mat_transpose(mat_involute(A))


def _is_square(C, n):
    return len(C) == n and all(len(r) == n for r in C)


def _product_is(A, C, T, k):
    """True iff A C = T, for A, C and T square of one size, or T = 1.
    The product is never held: each entry is compared as soon as it is
    summed, so the check stops at the first entry that differs."""
    for i, row in enumerate(A):
        want = None if T == 1 else T[i]
        for j, acc in enumerate(_row_times(row, C, k)):
            if acc != (want[j].terms if want is not None
                       else _ONE if i == j else {}):
                return False
    return True


def _is_inverse(A, C, k):
    """True iff C is the two-sided inverse of the square matrix A: the
    shape first, then A C = 1 alone."""
    # C A = 1 follows: square matrices over Z[G] in Q[G] are directly
    # finite for every group G (Kaplansky; for matrices S. Montgomery,
    # Bull. AMS 75, 1969; for sofic groups such as B(k) also Elek and
    # Szabo, J. Algebra 280, 2004).  For hermitian A it is elementary:
    # star gives C* A = 1, so C* = C* (A C) = (C* A) C = C, C A = 1.
    return _is_square(C, len(A)) and _product_is(A, C, 1, k)


def _check_entries(k, rows, what):
    for row in rows:
        for p in row:
            if not isinstance(p, GroupRingElt):
                raise SchemaError("%s entries must be ring elements" % what)
            if p.k != k:
                raise GroupMismatchError(
                    "%s entry over k=%d inside a form over k=%d"
                    % (what, p.k, k))


class HermitianForm:
    """Hermitian matrix over Z[B(k)] with an optional verified inverse
    and optional Arf provenance.  Read-only once constructed."""

    # _check: verify_inverse's (F, T), with matrix C = 1 iff F C = T;
    # _parity, _signature: the values of the properties of those names,
    # None until first read
    __slots__ = ("k", "matrix", "inverse", "arf", "_check", "_parity",
                 "_signature")

    def __init__(self, k, matrix, inverse=None, arf=None):
        matrix = _freeze(matrix)
        if not _is_square(matrix, len(matrix)):
            raise SchemaError("form matrix must be square")
        _check_entries(k, matrix, "form")
        self._check_hermitian(matrix)
        if inverse is not None:
            inverse = _freeze(inverse)
            _check_entries(k, inverse, "certificate")
            if not self._certifies(matrix, inverse, k):
                raise CertificateError("inverse certificate failed"
                                       " verification")
        if arf is not None and not isinstance(arf, ArfTag):
            raise SchemaError("arf must be an ArfTag")
        for name, value in (("k", k), ("matrix", matrix),
                            ("inverse", inverse), ("arf", arf),
                            ("_check", (matrix, 1)), ("_parity", None),
                            ("_signature", None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _check_hermitian(matrix):
        # The involution is an involution: M[j][i] == involute(M[i][j])
        # holds exactly when involute(M[j][i]) == M[i][j], so the checks
        # at (i, j) and (j, i) are one check and j >= i suffices.  A
        # pair that fails fails first at its (min, max) position in
        # row-major order, so the reported position is unchanged.
        n = len(matrix)
        for i in range(n):
            for j in range(i, n):
                if matrix[j][i] != matrix[i][j].involute():
                    raise SchemaError(
                        "matrix is not hermitian at (%d, %d)" % (i, j))

    _certifies = staticmethod(_is_inverse)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianForm is read-only")

    def __delattr__(self, name):
        raise AttributeError("HermitianForm is read-only")

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def parity(self):
        """parity(self), computed on first use and kept: the form is
        read-only."""
        if self._parity is None:
            object.__setattr__(self, "_parity", parity(self))
        return self._parity

    @property
    def signature(self):
        """The signature of the augmented form, computed on first use
        and kept: the form is read-only."""
        if self._signature is None:
            object.__setattr__(self, "_signature",
                               intlinalg.signature(augment_form(self)))
        return self._signature

    def to_json(self, entry=None):
        """The form document, each matrix entry written by entry, by
        default GroupRingElt.to_json."""
        if entry is None:
            entry = GroupRingElt.to_json
        doc = {"k": self.k,
               "matrix": [[entry(p) for p in row] for row in self.matrix]}
        if self.inverse is not None:
            doc["inverse"] = [[entry(p) for p in row]
                              for row in self.inverse]
        if self.arf is not None:
            doc["arf"] = self.arf.to_json()
        return doc

    @staticmethod
    def from_json(doc):
        if not isinstance(doc, dict):
            raise SchemaError("form must be a JSON object")
        k = _json_k(doc, "form needs an integer field 'k'")
        memo = {}  # one term memo for the document (see bsgroup)
        matrix = _json_matrix(doc.get("matrix"), k, "matrix", memo)
        inverse = None
        if "inverse" in doc:
            inverse = _json_matrix(doc["inverse"], k, "inverse", memo)
        arf = ArfTag.from_json(doc["arf"]) if "arf" in doc else None
        # after the fields: a document of another kind hears what it lacks
        for field in doc:
            if field not in ("k", "matrix", "inverse", "arf"):
                raise SchemaError("form has an unknown field %r" % field)
        return HermitianForm(k, matrix, inverse, arf)


def _json_matrix(rows, k, what, memo):
    if not isinstance(rows, list) or any(not isinstance(r, list)
                                         for r in rows):
        raise SchemaError("%s must be a list of rows" % what)
    out = []
    for row in rows:
        entries = []
        for cell in row:
            p = GroupRingElt.from_json(cell, memo)
            if p.k != k:
                raise SchemaError("%s entry has k=%d, form has k=%d"
                                  % (what, p.k, k))
            entries.append(p)
        out.append(tuple(entries))
    return tuple(out)


def matrix_from_json(doc):
    """Parse {"k": int, "matrix": [[ring-elt JSON]]} into (k, rows)."""
    if not isinstance(doc, dict) or set(doc) != {"k", "matrix"}:
        raise SchemaError("matrix document needs exactly 'k' and 'matrix'")
    k = _json_k(doc, "matrix document needs an integer 'k'")
    rows = _json_matrix(doc["matrix"], k, "matrix", {})
    if any(len(row) != len(rows[0]) for row in rows):
        raise SchemaError("matrix rows must all have the same length")
    return k, rows


def matrix_to_json(M, k):
    return {"k": k, "matrix": [[p.to_json() for p in row] for row in M]}


def parity(f):
    """Odd iff some diagonal entry has odd identity coefficient."""
    for i in range(f.rank):
        if f.matrix[i][i].identity_coefficient() % 2:
            return Parity.ODD
    return Parity.EVEN


def augment_form(f):
    """Integer Gram matrix: the augmentation applied entrywise."""
    return [[p.augment() for p in row] for row in f.matrix]


def hyperbolic(k, r):
    """Orthogonal sum of r hyperbolic planes (0 1; 1 0); self-inverse."""
    n = 2 * r
    rows = [[GroupRingElt.zero(k)] * n for _ in range(n)]
    for i in range(r):
        rows[2 * i][2 * i + 1] = GroupRingElt.one(k)
        rows[2 * i + 1][2 * i] = GroupRingElt.one(k)
    M = _freeze(rows)
    return HermitianForm(k, M, inverse=M,
                         arf=ArfTag(ARF_EXTENDED, 0))


def _constants(k, M):
    """An integer matrix as a matrix of constants of the group ring."""
    return _freeze([[GroupRingElt._raw(k, {(0, 0, 0): int(x)} if x else {})
                     for x in row] for row in M])


def from_integer_matrix(k, M):
    """Embed a symmetric integer matrix as constants.  A unimodular
    matrix gets as certificate the lifted inverse that invert_matrix
    checked over Z; integer forms carry the extended-from-Z arf tag."""
    rows = _constants(k, M)
    cert = invert_matrix(rows, k)  # ValueError unless M is square
    HermitianForm._check_hermitian(rows)  # the check _DerivedForm skips
    return _DerivedForm(k, rows, cert, ArfTag(ARF_EXTENDED, 0))


def orthogonal_sum(f, g):
    """The block-diagonal form f + g.  Its certificate, when both
    summands have one, is the block-diagonal matrix of theirs, derived
    without a product (the proof is below), so both summands must be
    HermitianForms, whose certificates were checked or derived."""
    if not isinstance(f, HermitianForm) or not isinstance(g, HermitianForm):
        raise TypeError("orthogonal_sum takes two HermitianForms")
    if f.k != g.k:
        raise GroupMismatchError("orthogonal sum across different k")
    k = f.k
    n, m = f.rank, g.rank
    z = GroupRingElt.zero(k)

    def block(A, B):
        rows = [list(row) + [z] * m for row in A]
        rows += [[z] * n + list(row) for row in B]
        return rows

    cert = None
    if f.inverse is not None and g.inverse is not None:
        cert = block(f.inverse, g.inverse)
    arf = None
    if f.arf is not None and g.arf is not None:
        mode = (ARF_EXTENDED if f.arf.mode == g.arf.mode == ARF_EXTENDED
                else ARF_ASSERTED)
        arf = ArfTag(mode, f.arf.value ^ g.arf.value)
    # Block-diagonal matrices multiply block by block, so
    # diag(A, B) diag(C, D) = diag(A C, B D) = diag(1, 1) = 1, where C
    # and D are the summands' certificates: checked or derived when f
    # and g were built, and forms are read-only.
    return _DerivedForm(k, block(f.matrix, g.matrix), cert, arf)


def _is_constant(mat):
    return all(p.terms.keys() <= _ONE.keys() for row in mat for p in row)


def invert_matrix(mat, k):
    """Invert a square matrix over the group ring: a matrix of integer
    constants by lifting its integer inverse, any other by _eliminate.
    Sound but not complete: returns an inverse checked once, by exact
    multiplication, or None.  The check is M X = 1: over Z, inside
    intlinalg.unimodular_inverse, for a constant matrix, which is the
    same check (the proof is below), and by _is_inverse otherwise.  It
    never fails on a unit triangular matrix, and congruence relies on
    that to transport certificates."""
    if _is_constant(mat):
        # The augmentation is the identity on constants, so mat is the
        # entrywise lift of the integer matrix M.  The lift Z -> Z[B(k)]
        # is an injective ring map, so the product of two lifts is the
        # lift of the integer product, and it is 1 exactly when M X = 1,
        # which unimodular_inverse checks before it returns X: checking
        # over Z is checking over the group ring.  The lifted inverse
        # holds even where the +-g pivots of _eliminate get stuck, as on
        # E8.  A unit triangular matrix of constants has determinant 1.
        M = [[p.augment() for p in row] for row in mat]
        X = intlinalg.unimodular_inverse(M)
        return None if X is None else _constants(k, X)
    X = _eliminate(mat, k)
    return X if X is not None and _is_inverse(mat, X, k) else None


def _eliminate(mat, k):
    """Gauss-Jordan elimination of a square matrix with trivial-unit
    pivots (+-g only): the inverse, unchecked, or None when no pivot is
    left."""
    # On a unit upper or lower triangular matrix it never fails.  Rows
    # already pivoted never change row i's entry at (i, i), so the
    # pivot is always that entry, which is 1.  The step at a pivot p < i
    # subtracts M[i][p] M[p][i] from it.  If the matrix is upper
    # triangular, M[i][p] = 0: no step touches row i before its own.  If
    # it is lower triangular, M[p][i] = 0: every row stays zero right of
    # the diagonal, as the step at p adds row p only to rows below it.
    n = len(mat)
    # the augmented matrix (mat | 1), each entry a term dict of its own
    # that an update adds into in place
    M = [[dict(p.terms) for p in row] + [{(0, 0, 0): 1} if i == j else {}
                                         for j in range(n)]
         for i, row in enumerate(mat)]
    perm = list(range(n))
    for i in range(n):
        pivot = next(((r, c) for r in range(i, n) for c in range(i, n)
                      if list(M[r][c].values()) in ([1], [-1])), None)
        if pivot is None:
            return None
        r, c = pivot
        M[i], M[r] = M[r], M[i]
        if c != i:
            for row in M:
                row[i], row[c] = row[c], row[i]
            perm[i], perm[c] = perm[c], perm[i]
        if M[i][i] != _ONE:
            (g, s), = M[i][i].items()
            pinv = {_kernel.bs_inv(g, k): s}
            M[i] = [_kernel.ring_addmul({}, pinv, x, k) if x else x
                    for x in M[i]]
        for r, row in enumerate(M):
            if r == i or not row[i]:
                continue
            neg = {g: -v for g, v in row[i].items()}
            for j, y in enumerate(M[i]):
                if y and j != i:
                    _kernel.ring_addmul(row[j], neg, y, k)
            row[i] = {}  # row[i] - row[i] M[i][i], as M[i][i] = 1
    # swapping columns i and c of mat swaps rows i and c of its inverse
    rows = dict(zip(perm, M))
    return tuple(tuple(GroupRingElt._raw(k, t) for t in rows[q][n:])
                 for q in range(n))


def try_invert(f):
    """f with a verified inverse of its matrix attached, or None
    (unknown).  The augmented matrix must be invertible over Z, which
    rejects most non-invertible forms immediately; the inverse is
    invert_matrix's, checked there and not again.  A constant matrix is
    its own augmentation, and invert_matrix's lift is None exactly when
    this screen is, so it is not screened twice."""
    if (not _is_constant(f.matrix)
            and intlinalg.unimodular_inverse(augment_form(f)) is None):
        return None
    C = invert_matrix(f.matrix, f.k)
    return None if C is None else _DerivedForm(f.k, f.matrix, C, f.arf)


def verify_inverse(f, C):
    """True iff C is the inverse of the form matrix, checked by exact
    multiplication: C's entries as the constructor checks a
    certificate's, then its shape, then one product F C, compared with
    a target T entry by entry (the matrix is hermitian)."""
    # (F, T) is (A2, 1) for a plain form A2.  A form that congruence
    # built from A by U keeps (Ubar, Cf W*), where A2 = U^T A Ubar,
    # A Cf = 1 and W Ubar = Ubar W = 1 (see congruence), so by star
    # U^T W* = W* U^T = 1.  If Ubar C = Cf W*, then
    # A2 C = U^T (A Cf) W* = U^T W* = 1.  If A2 C = 1, then W* on the
    # left gives A Ubar C = W*, and Cf A = 1 (see _is_inverse) gives
    # Ubar C = Cf W*.  So the verdict is the direct product's for every
    # C, and trusts nothing C provides; it costs one product with the
    # sparse Ubar, none with A or A2.
    C = _freeze(C)
    _check_entries(f.k, C, "certificate")
    if not _is_square(C, f.rank):
        return False
    factor, target = f._check
    return _product_is(factor, C, target, f.k)


class _DerivedForm(HermitianForm):
    """A form derived from checked parts by congruence, orthogonal_sum,
    try_invert or from_integer_matrix: of the constructor's checks only
    the hermitian one and the product of certificate and matrix are
    skipped.  check, when given, replaces verify_inverse's (F, T).
    try_invert attaches to f.matrix, checked hermitian when f was built
    (forms are read-only), and from_integer_matrix to a matrix it has
    just checked hermitian, the inverse that invert_matrix checked."""

    __slots__ = ()

    def __init__(self, k, matrix, inverse, arf, check=None):
        super().__init__(k, matrix, inverse, arf)
        if check is not None:
            object.__setattr__(self, "_check", check)

    # mirrored by _hermitian_product, or hermitian blocks on a diagonal
    _check_hermitian = staticmethod(lambda matrix: None)

    @staticmethod
    def _certifies(matrix, inverse, k):
        return _is_square(inverse, len(matrix))


def congruence(f, U):
    """The form U^T A involute(U).  When f has a certificate C and
    invert_matrix finds W = involute(U)^-1, the form gets W T, for
    T = C W* multiplied out once, and keeps involute(U) and T for
    verify_inverse; otherwise it is a plain form without a certificate.
    Both W T and the matrix are hermitian: only the entries on and above
    the diagonal are multiplied out, the rest are filled by the
    involution.  U must be square of matching rank."""
    if not isinstance(f, HermitianForm):
        raise TypeError("congruence takes a HermitianForm")
    U = _freeze(U)
    n = f.rank
    if not _is_square(U, n):
        raise ValueError("congruence matrix must match the rank")
    _check_entries(f.k, U, "congruence")
    k = f.k
    # With A = f.matrix, C = f.inverse and W = Ubar^-1, the new matrix is
    # A2 = U^T A Ubar and its certificate C2 = W C W* = W T, by
    # associativity, for T = C W*, verify_inverse's target.  Both are
    # hermitian: A* = A was checked when f was built and Ubar* = U^T, so
    # A2* = A2; C* = C (see _is_inverse), so C2* = C2.  So
    # _hermitian_product, which fills the entries below the diagonal by
    # the involution, gives them exactly.  C2 needs no product with A2:
    # A C = 1 was checked or derived when f was built (forms are
    # read-only), and invert_matrix checked Ubar W = 1, so W Ubar = 1
    # (see _is_inverse) and
    #   A2 C2 = U^T A (Ubar W) C W* = U^T (A C) W* = U^T W* = (W Ubar)* = 1.
    ubar = mat_involute(U)
    A2 = _hermitian_product(mat_mul(mat_transpose(U), f.matrix, k), ubar, k)
    W = invert_matrix(ubar, k) if f.inverse is not None else None
    if W is None:
        return HermitianForm(k, A2, None, f.arf)
    T = mat_mul(f.inverse, _star(W), k)
    return _DerivedForm(k, A2, _hermitian_product(W, T, k), f.arf, (ubar, T))


def verify_isometry(f, g, U):
    """True iff U^T A_g involute(U) = A_f exactly, for A_f and A_g the
    matrices of f and g; no inverse of U is built.  A wrong shape, or an
    f without a certificate, raises CertificateError."""
    if f.k != g.k:
        raise GroupMismatchError("isometry across different k")
    U = _freeze(U)
    if g.rank != f.rank or not _is_square(U, f.rank):
        raise CertificateError("isometry certificate has wrong shape")
    _check_entries(f.k, U, "certificate")
    if f.inverse is None:
        raise CertificateError("the first form has no inverse certificate")
    # The isometry is x -> x U^T: s_g(x U^T, y U^T) = x U^T A_g Ubar y*
    # = s_f(x, y).  The equation proves U^T invertible: A_f C_f = 1 was
    # checked or derived when f was built (forms are read-only), so
    # U^T (A_g Ubar C_f) = 1, and a right inverse is two-sided (see
    # _is_inverse).  A U^T that is not invertible fails the equation.
    return _product_is(mat_mul(mat_transpose(U), g.matrix, f.k),
                       mat_involute(U), f.matrix, f.k)


def isometry_inverse(U, k):
    """The certificate for the reversed isometry: if U carries f ~ g
    then involute(involute(U)^-1) carries g ~ f.  A U for which
    invert_matrix finds no inverse raises CertificateError.  A caller
    holding the forms needs no inverse: X^T is the reversed isometry
    for X = A_g involute(U) C_f (see verify_isometry)."""
    W = invert_matrix(mat_involute(U), k)
    if W is None:
        raise CertificateError("no inverse of the isometry certificate"
                               " was found")
    return mat_involute(W)


def even_reference_form(k, hyperbolics=1, e8_blocks=0):
    """H^r orthogonal-sum E8^s: the even certificated building blocks."""
    f = hyperbolic(k, hyperbolics)
    for _ in range(e8_blocks):
        f = orthogonal_sum(f, from_integer_matrix(k, intlinalg.e8_matrix()))
    return f
