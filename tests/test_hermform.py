"""Hermitian forms over Z[B(k)]: parity, augmentation, certificates.

Key cross-checks: the sesquilinear evaluation identity
id(s(x, x)) = sum_i id(A_ii) * eps(x_i) mod 2 ties the diagonal parity
rule to actual form values, and every generated certificate is verified
again by exact matrix multiplication rather than trusted.  Tampered
certificates and tampered transport factors are shown to be rejected.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bsfour import _kernel, cli, hermform, intlinalg
from bsfour.errors import (CertificateError, GroupMismatchError,
                           InconsistentDescriptorError, SchemaError)
from bsfour.groupring import GroupRingElt
from bsfour.hermform import (HermitianForm, Parity, congruence, hyperbolic,
                             isometry_inverse, parity, try_invert,
                             verify_inverse)
from bsfour.invariants import ManifoldDescriptor, W2Type

from support import (assert_isometry_invertible, law_addmul, mat_product,
                     random_ring_elt, random_unimodular,
                     random_unit_triangular, random_word, sesquilinear)

one = GroupRingElt.one
zero = GroupRingElt.zero


def verify_isometry(f, g, U):
    # looked up in the module at each call, so that the check in
    # conftest.py of every accepted isometry sees these calls too
    return hermform.verify_isometry(f, g, U)


def const_form(k, M):
    return hermform.from_integer_matrix(k, M)


def unit_form(k):
    return const_form(k, [[1]])


def random_certificated(rng, k, r=1, e8=0, entry_terms=2):
    f = hermform.even_reference_form(k, hyperbolics=r, e8_blocks=e8)
    U = random_unit_triangular(rng, k, f.rank, max_terms=entry_terms)
    return congruence(f, U)


def test_constructor_validates_hermitian():
    k = 2
    a = GroupRingElt.from_word(k, "a")
    with pytest.raises(SchemaError):
        HermitianForm(k, ((a,),))  # a is not self-conjugate
    # but a + a^-1 is
    HermitianForm(k, ((a + a.involute(),),))
    with pytest.raises(SchemaError):
        HermitianForm(k, ((one(k), one(k)),))  # not square


def test_constructor_verifies_certificate():
    k = 3
    good = hyperbolic(k, 1)
    assert good.inverse is not None
    assert verify_inverse(good, good.inverse)
    with pytest.raises(CertificateError):
        HermitianForm(k, good.matrix, inverse=((one(k), zero(k)),
                                               (zero(k), zero(k))))


def test_hyperbolic_shape():
    f = hyperbolic(2, 2)
    assert f.rank == 4
    assert parity(f) is Parity.EVEN
    aug = hermform.augment_form(f)
    assert aug == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert intlinalg.signature(aug) == 0


def test_parity_examples():
    assert parity(unit_form(2)) is Parity.ODD
    assert parity(const_form(2, [[2]])) is Parity.EVEN
    assert parity(const_form(3, intlinalg.e8_matrix())) is Parity.EVEN
    k = 3
    b = GroupRingElt.from_word(k, "b")
    f = HermitianForm(k, ((b + b.involute(),),))
    assert parity(f) is Parity.EVEN
    f = HermitianForm(k, ((b + b.involute() + 1,),))
    assert parity(f) is Parity.ODD


def test_parity_reads_every_diagonal_entry():
    """[[0, 1], [1, 1]] is odd through its second diagonal entry alone,
    so a type II descriptor of it is inconsistent."""
    for k in (2, 3):
        f = const_form(k, [[0, 1], [1, 1]])
        assert parity(f) is Parity.ODD
        with pytest.raises(InconsistentDescriptorError):
            ManifoldDescriptor(k, f, W2Type.II, 0)


@pytest.mark.parametrize("k", [-3, -2, 2, 3])
def test_sesquilinear_rules(k):
    rng = random.Random(9000 + k)
    f = random_certificated(rng, k, r=2)
    n = f.rank
    for _ in range(20):
        x = [random_ring_elt(rng, k, terms=3, wordlen=5) for _ in range(n)]
        y = [random_ring_elt(rng, k, terms=3, wordlen=5) for _ in range(n)]
        lam = random_ring_elt(rng, k, terms=3, wordlen=5)
        sxy = sesquilinear(f, x, y)
        assert sesquilinear(f, [lam * xi for xi in x], y) == lam * sxy
        assert sesquilinear(f, y, x) == sxy.involute()
    basis = [[one(k) if i == j else zero(k) for j in range(n)]
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert sesquilinear(f, basis[i], basis[j]) == f.matrix[i][j]


@pytest.mark.parametrize("k", [2, 3])
def test_parity_matches_evaluation(k):
    rng = random.Random(9100 + k)
    for _ in range(15):
        f = random_certificated(rng, k, r=rng.randint(1, 2))
        n = f.rank
        for _ in range(10):
            x = [random_ring_elt(rng, k, terms=3, wordlen=5)
                 for _ in range(n)]
            lhs = sesquilinear(f, x, x).identity_coefficient() % 2
            rhs = sum(f.matrix[i][i].identity_coefficient()
                      * x[i].augment() for i in range(n)) % 2
            assert lhs == rhs
        # diagonal rule agrees: even means every diagonal id-coeff even
        diag_odd = any(f.matrix[i][i].identity_coefficient() % 2
                       for i in range(n))
        assert (parity(f) is Parity.ODD) == diag_odd


def test_augment_form_is_integer_gram_matrix():
    k = 2
    f = hermform.even_reference_form(k, hyperbolics=1, e8_blocks=1)
    aug = hermform.augment_form(f)
    assert aug[0][1] == 1 and aug[0][0] == 0
    assert [row[2:] for row in aug[2:]] == intlinalg.e8_matrix()
    assert intlinalg.signature(aug) == 8


def test_orthogonal_sum_certificates_and_arf():
    k = 3
    f = hyperbolic(k, 1)
    g = const_form(k, intlinalg.e8_matrix())
    s = hermform.orthogonal_sum(f, g)
    assert s.rank == 10
    assert s.inverse is not None  # both certificates combine
    assert s.arf is not None and s.arf.value == 0
    assert s.arf.mode == "extended-from-Z"


def test_orthogonal_sum_adds_arf_values_mod_2():
    k = 2
    odd = hermform.ArfTag("asserted", 1)
    f = HermitianForm(k, hyperbolic(k, 1).matrix, arf=odd)
    assert hermform.orthogonal_sum(f, f).arf == hermform.ArfTag("asserted", 0)
    g = hyperbolic(k, 1)  # extended from Z: 0
    assert hermform.orthogonal_sum(f, g).arf == odd
    assert hermform.orthogonal_sum(g, g).arf == g.arf


def test_try_invert_examples():
    assert try_invert(const_form(2, [[2]])) is None
    k = 2
    h = hyperbolic(k, 1)
    g = try_invert(HermitianForm(k, h.matrix))
    assert g is not None and g.matrix == h.matrix and g.arf is None
    assert verify_inverse(h, g.inverse)
    # (0, pbar; p, 0) is invertible only when p is a unit; p = 1 - a
    # augments to 0 so the fast determinant test rejects it
    p = one(k) - GroupRingElt.from_word(k, "a")
    f = HermitianForm(k, ((zero(k), p.involute()), (p, zero(k))))
    assert try_invert(f) is None


def test_try_invert_lifts_the_integer_inverse_of_a_constant_form():
    E = intlinalg.e8_matrix()
    for k in (2, 3, -2, 0, 1):
        # E8: no +-g pivot takes elimination through it, but invert_matrix
        # lifts its integer inverse, and try_invert attaches that
        bare = HermitianForm(k, const_form(k, E).matrix)
        assert hermform._eliminate(bare.matrix, k) is None
        C = hermform.invert_matrix(bare.matrix, k)
        assert C == const_form(k, E).inverse
        assert try_invert(bare).inverse == C
        assert verify_inverse(bare, C)
        # where elimination does invert a constant form, the certificate
        # is the same: a two-sided inverse is unique
        rng = random.Random(4100 + k)
        eliminated = 0
        for M in ([[1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]],
                  [[2, 1], [1, 1]]) * 3:
            n = len(M)
            T = random_unimodular(rng, n)
            S = [[sum(T[a][i] * M[a][b] * T[b][j] for a in range(n)
                      for b in range(n)) for j in range(n)]
                 for i in range(n)]
            f = HermitianForm(k, const_form(k, S).matrix)
            W = hermform._eliminate(f.matrix, k)
            C = hermform.invert_matrix(f.matrix, k)
            if W is not None:
                eliminated += 1
                assert C == W
            assert try_invert(f).inverse == C
            assert verify_inverse(f, C)
        assert eliminated >= 4
    # not unimodular: no certificate
    f = HermitianForm(2, const_form(2, [[2, 1], [1, 2]]).matrix)
    assert hermform.invert_matrix(f.matrix, 2) is None
    assert try_invert(f) is None


def test_try_invert_runs_one_smith_form_on_a_constant_form(monkeypatch):
    """A constant matrix is its own augmentation: try_invert does not
    screen it before invert_matrix lifts it, so the plain E8 form, which
    lifts, and [[2]], which does not, each take one Smith form."""
    real = intlinalg.smith_normal_form
    calls = []

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    for M, invertible in ((intlinalg.e8_matrix(), True), ([[2]], False)):
        f = HermitianForm(2, hermform._constants(2, M))
        calls.clear()
        assert (try_invert(f) is not None) == invertible
        assert calls == [M]


@pytest.mark.parametrize("k", [2, 3, -2])
def test_try_invert_transformed_hyperbolics(k):
    rng = random.Random(9200 + k)
    for _ in range(10):
        f = random_certificated(rng, k, r=rng.randint(1, 2))
        stripped = HermitianForm(k, f.matrix)  # drop the certificate
        g = try_invert(stripped)
        assert g is not None and g.matrix == f.matrix
        assert verify_inverse(stripped, g.inverse)


def identity(k, n):
    return tuple(tuple(one(k) if i == j else zero(k) for j in range(n))
                 for i in range(n))


def test_unit_triangular_inverse():
    """invert_matrix never fails on a unit triangular matrix, upper or
    lower, and what it returns is a two-sided inverse."""
    for k in (2, 3, -2, 1):
        rng = random.Random(77 + k)
        for _ in range(20):
            U = random_unit_triangular(rng, k, 4, max_terms=2)
            # upper, and two unit lower triangular matrices built from it
            for M in (U, hermform.mat_transpose(U), hermform._star(U)):
                W = hermform.invert_matrix(M, k)
                assert W is not None
                assert hermform.mat_mul(M, W, k) == identity(k, 4)
                assert hermform.mat_mul(W, M, k) == identity(k, 4)
        # not triangular: a verified inverse when the elimination finds
        # one (here its first pivot is a, after a column swap), None when
        # it cannot (1 - a^2 is no unit: it augments to 0)
        a, A = GroupRingElt.from_word(k, "a"), GroupRingElt.from_word(k, "A")
        X = ((one(k) * 2, a), (one(k), zero(k)))
        W = hermform.invert_matrix(X, k)
        assert W == ((zero(k), one(k)), (A, A * -2))
        assert hermform.mat_mul(X, W, k) == identity(k, 2)
        assert hermform.mat_mul(W, X, k) == identity(k, 2)
        assert hermform.invert_matrix(((one(k), a), (a, one(k))), k) is None


def test_e8_certificate_is_the_integer_inverse():
    E = intlinalg.e8_matrix()
    C = const_form(3, E).inverse
    assert C is not None
    ints = []
    for row in C:
        assert all(set(p.terms) <= {(0, 0, 0)} for p in row)
        ints.append([p.identity_coefficient() for p in row])
    eye = [[int(i == j) for j in range(8)] for i in range(8)]
    assert [[sum(E[i][p] * ints[p][j] for p in range(8))
             for j in range(8)] for i in range(8)] == eye


@pytest.mark.parametrize("k", [2, 3])
def test_generated_forms_are_even_certificated_sig_multiple_of_8(k):
    rng = random.Random(9300 + k)
    for _ in range(30):
        e8 = 1 if rng.random() < 0.25 else 0
        f = random_certificated(rng, k, r=rng.randint(1, 2), e8=e8,
                                entry_terms=1 if e8 else 2)
        assert f.inverse is not None
        assert verify_inverse(f, f.inverse)
        assert parity(f) is Parity.EVEN
        sig = intlinalg.signature(hermform.augment_form(f))
        assert sig % 8 == 0


def test_verify_isometry_examples():
    k = 2
    f = unit_form(k)
    g_elt = GroupRingElt.from_word(k, "ab")
    U = ((g_elt,),)
    assert verify_isometry(f, f, U)  # g 1 gbar = 1
    ident = ((one(k),),)
    assert verify_isometry(f, f, ident)
    # block swap on H + H
    h2 = hyperbolic(k, 2)
    P = [[zero(k)] * 4 for _ in range(4)]
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        P[i][j] = one(k)
    assert verify_isometry(h2, h2, tuple(map(tuple, P)))
    # parity obstruction: <1> and <-1> are not isometric via any U we try
    neg = const_form(k, [[-1]])
    assert not verify_isometry(f, neg, U)
    assert not verify_isometry(f, neg, ident)


def test_verify_isometry_requires_invertible_certificate():
    """A U^T that is not invertible fails the equation itself: on the
    form (1), U = (2) gives 2 * 1 * 2 = 4, not 1.  No inverse of U is
    sought, so that product decides it, and the answer is False."""
    k = 2
    f = unit_form(k)
    two = GroupRingElt.one(k) * 2
    assert verify_isometry(f, f, ((two,),)) is False


def test_verify_isometry_checks_the_entries_of_its_certificate():
    """An entry of U that is no ring element, or one over another k, is
    refused before anything is multiplied."""
    k = 2
    h = hyperbolic(k, 1)
    for entry, error in ((1, SchemaError), (one(3), GroupMismatchError)):
        U = ((one(k), entry), (zero(k), one(k)))
        with pytest.raises(error):
            verify_isometry(h, h, U)


def test_verify_isometry_needs_a_certificate_of_the_first_form():
    """The proof that an accepted U^T is invertible uses the certificate
    of the first form, so a first form without one raises; the second
    form needs none."""
    k = 2
    h = hyperbolic(k, 1)
    bare = HermitianForm(k, h.matrix)
    with pytest.raises(CertificateError, match="no inverse certificate"):
        verify_isometry(bare, h, identity(k, 2))
    assert verify_isometry(h, bare, identity(k, 2))


def test_verify_isometry_accepts_what_elimination_cannot_invert():
    """U = [[2, 5], [3, 8]] has determinant 1 but no entry +-1, so the
    +-g pivots of _eliminate find nothing in it; it carries H to
    [[12, 31], [31, 80]], and U^T has the inverse A_g Ubar C_f.  So do
    the transports of H^r by U = M D, M a block sum of that matrix and
    D a diagonal of monomials, whose entries are no trivial units."""
    k = 2
    U = hermform._constants(k, [[2, 5], [3, 8]])
    assert hermform._eliminate(U, k) is None
    f, h = const_form(k, [[12, 31], [31, 80]]), hyperbolic(k, 1)
    assert verify_isometry(f, h, U)
    assert_isometry_invertible(f, h, U)
    assert not verify_isometry(h, f, U)
    rng = random.Random(93)
    for i in range(6):
        k = (2, 3, -2)[i % 3]
        g, C, U = _plain_transport(rng, k, 1 + i % 2)
        assert hermform._eliminate(U, k) is None
        f = HermitianForm(k, g.matrix, C)
        assert verify_isometry(f, hyperbolic(k, g.rank // 2), U)
        assert_isometry_invertible(f, hyperbolic(k, g.rank // 2), U)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, -2, -1, 1, 0]), st.integers(1, 4),
       st.sampled_from(["upper", "lower", "product", "any"]),
       st.integers(0, 2 ** 32))
def test_every_inverse_elimination_finds_is_two_sided(k, n, shape, seed):
    """invert_matrix checks M X = 1 alone, and by direct finiteness
    X M = 1 follows (the proof is at hermform._is_inverse).  This
    samples that conclusion: X M is computed here, by the ring's own
    + and *.  A triangular M with trivial units +-g on its diagonal is
    always inverted; a product L P R of two such and a permutation P,
    or a matrix of random entries, when the pivots find a way."""
    rng = random.Random(seed)

    def entry():
        return rng.choice((
            zero(k),
            GroupRingElt.from_word(k, random_word(rng, 4),
                                   rng.choice((-1, 1))),
            random_ring_elt(rng, k, terms=2, wordlen=3, cmax=2)))

    def triangular(upper):
        return [[GroupRingElt.from_word(k, random_word(rng, 3),
                                        rng.choice((-1, 1))) if i == j
                 else entry() if (i < j) == upper else zero(k)
                 for j in range(n)] for i in range(n)]

    if shape in ("upper", "lower"):
        M = triangular(shape == "upper")
    elif shape == "product":
        order = list(range(n))
        rng.shuffle(order)
        P = [[one(k) if j == order[i] else zero(k) for j in range(n)]
             for i in range(n)]
        M = mat_product(mat_product(triangular(False), P, k),
                        triangular(True), k)
    else:
        M = [[entry() for _ in range(n)] for _ in range(n)]
    X = hermform.invert_matrix(M, k)
    if shape in ("upper", "lower"):
        assert X is not None
    if X is not None:
        assert mat_product(M, X, k) == identity(k, n)
        assert mat_product(X, M, k) == identity(k, n)


@pytest.mark.parametrize("k", [2, 3])
def test_isometry_inverse_transport(k):
    rng = random.Random(9400 + k)
    for _ in range(10):
        f = hermform.even_reference_form(k, hyperbolics=2)
        U = random_unit_triangular(rng, k, 4, max_terms=1)
        g = congruence(f, U)
        # g was built as U^T A_f Ubar, i.e. U certifies g ~ f read as
        # verify_isometry(g, f, U)
        assert verify_isometry(g, f, U)
        V = isometry_inverse(U, k)
        assert verify_isometry(f, g, V)


@pytest.mark.parametrize("k", [2, 3])
def test_congruence_preserves_invariants(k):
    rng = random.Random(9500 + k)
    for _ in range(10):
        base = hermform.even_reference_form(
            k, hyperbolics=rng.randint(1, 2), e8_blocks=rng.randint(0, 1))
        U = random_unit_triangular(rng, k, base.rank, max_terms=1)
        g = congruence(base, U)
        assert parity(g) is parity(base)
        assert (intlinalg.signature(hermform.augment_form(g))
                == intlinalg.signature(hermform.augment_form(base)))
        assert g.rank == base.rank


def test_json_round_trip():
    rng = random.Random(78)
    for k in (2, 3, -2):
        f = random_certificated(rng, k, r=1, e8=0)
        doc = f.to_json()
        assert doc["k"] == k
        g = HermitianForm.from_json(doc)
        assert g.matrix == f.matrix
        assert g.inverse == f.inverse
        f2 = HermitianForm(f.k, f.matrix, arf=hermform.ArfTag("asserted", 1))
        doc2 = f2.to_json()
        assert doc2["arf"] == {"mode": "asserted", "value": 1}
        assert HermitianForm.from_json(doc2).arf == f2.arf
        assert "inverse" not in doc2


def test_json_rejects_bad_certificate():
    k = 2
    f = hyperbolic(k, 1)
    doc = f.to_json()
    doc["inverse"][0][0] = GroupRingElt.one(k).to_json()
    with pytest.raises(CertificateError):
        HermitianForm.from_json(doc)


def test_json_rejects_mismatched_entry_k():
    f = hyperbolic(2, 1)
    doc = f.to_json()
    doc["matrix"][0][1]["k"] = 5
    with pytest.raises(SchemaError):
        HermitianForm.from_json(doc)


def test_arf_tag_validation():
    assert hermform.ArfTag("extended-from-Z", 0).value == 0
    with pytest.raises(SchemaError):
        hermform.ArfTag("extended-from-Z", 1)
    with pytest.raises(SchemaError):
        hermform.ArfTag("asserted", 2)
    with pytest.raises(SchemaError):
        hermform.ArfTag("guessed", 0)


# -- certificates checked once, at their factors ----------------------------

def test_congruence_rejects_wrong_triangular_inverse(monkeypatch):
    """One wrong update inside the elimination is caught by its final
    check M W = 1: congruence attaches no certificate and
    isometry_inverse raises.  U is triangular with one diagonal entry
    -1, so not unit triangular, and congruence takes invert_matrix."""
    k = 2
    f = hermform.even_reference_form(k, hyperbolics=2)
    U = [list(row) for row in random_unit_triangular(
        random.Random(80), k, f.rank, max_terms=1)]
    # the last pivot, so the elimination's updates come before it
    U[-1][-1] = -one(k)
    assert hermform._substitute(
        f.inverse, U, hermform.mat_involute(U), k) is None
    assert congruence(f, U).inverse is not None
    real_invert, real_check = hermform.invert_matrix, hermform._is_inverse
    real_addmul = _kernel.ring_addmul
    armed, checked = [], []

    def invert(M, k):
        armed.append(True)
        return real_invert(M, k)

    def check(A, C, k):
        checked.append(not armed)  # the wrong update came before
        return real_check(A, C, k)

    def addmul(acc, p, q, k):
        # the first update of each elimination that leaves a nonzero
        # entry gains a stray term a (an update that zeroes the entry
        # below a pivot is never read again)
        real_addmul(acc, p, q, k)
        if armed and acc:
            armed.clear()
            real_addmul(acc, {(0, 0, 1): 1}, {(0, 0, 0): 1}, k)
        return acc

    monkeypatch.setattr(hermform, "invert_matrix", invert)
    monkeypatch.setattr(hermform, "_is_inverse", check)
    monkeypatch.setattr(_kernel, "ring_addmul", addmul)
    assert congruence(f, U).inverse is None
    with pytest.raises(CertificateError):
        isometry_inverse(U, k)
    assert checked == [True, True]


def test_forms_are_read_only():
    k = 2
    base = hermform.even_reference_form(k, hyperbolics=1)
    U = random_unit_triangular(random.Random(81), k, base.rank)
    for f in (base, congruence(base, U)):
        # _parity and _signature before and after their properties fill
        # them
        for name in ("k", "matrix", "inverse", "arf", "_parity", "parity",
                     "_parity", "_signature", "signature", "_signature"):
            before = getattr(f, name)
            with pytest.raises(AttributeError):
                setattr(f, name, None)
            with pytest.raises(AttributeError):
                delattr(f, name)
            assert getattr(f, name) is before


def test_one_sided_check_agrees_with_two_sided():
    rng = random.Random(82)
    verdicts = set()
    for i in range(200):
        k = rng.choice((2, 3, -2))
        g = random_certificated(rng, k, r=rng.randint(1, 2), entry_terms=1)
        C = [list(row) for row in g.inverse]
        if i % 2:
            r, c = rng.randrange(g.rank), rng.randrange(g.rank)
            w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 3)))
            C[r][c] = C[r][c] + GroupRingElt.from_word(k, w,
                                                       rng.choice((-1, 1)))
        C = hermform._freeze(C)
        one_sided = verify_inverse(g, C)
        two_sided = (mat_product(g.matrix, C, k) == identity(k, g.rank)
                     and mat_product(C, g.matrix, k) == identity(k, g.rank))
        assert one_sided == two_sided
        assert one_sided == (i % 2 == 0)
        verdicts.add(one_sided)
    assert verdicts == {True, False}


def test_form_command_rejects_tampered_transport_certificate(capsys,
                                                             tmp_path):
    k = 3
    g = random_certificated(random.Random(83), k, r=1, e8=1, entry_terms=1)
    doc = g.to_json()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["form", str(path)]) == 0
    cell = GroupRingElt.from_json(doc["inverse"][3][7])
    doc["inverse"][3][7] = (cell - GroupRingElt.from_word(k, "b")).to_json()
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["form", str(path)]) == 2
    assert capsys.readouterr().out == ""



@pytest.mark.parametrize("cells, where", [
    ([(1, 3)], "(1, 3)"),            # upper triangle only
    ([(3, 1)], "(1, 3)"),            # lower triangle only
    ([(1, 3), (2, 0)], "(0, 2)"),    # first failure in row-major order
])
def test_form_command_rejects_one_sided_hermitian_break(capsys, tmp_path,
                                                        cells, where):
    k = 3
    doc = random_certificated(random.Random(84), k, r=2).to_json()
    for i, j in cells:
        cell = GroupRingElt.from_json(doc["matrix"][i][j])
        doc["matrix"][i][j] = (cell + GroupRingElt.from_word(k, "b")).to_json()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["form", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: matrix is not hermitian at %s\n" % where


class _KernelCalls:
    """Wraps _kernel.ring_addmul and records its operands, with their
    sizes at the call: invert_matrix adds into its entries in place, so
    an operand may change size afterwards."""

    def __init__(self, monkeypatch):
        self.operands = []
        self.sizes = []
        real = _kernel.ring_addmul

        def counted(acc, p, q, k):
            self.operands.append((p, q))
            self.sizes.append((len(p), len(q)))
            return real(acc, p, q, k)

        monkeypatch.setattr(_kernel, "ring_addmul", counted)

    def products(self, thunk):
        start = len(self.operands)
        result = thunk()
        self.last = self.operands[start:]
        self.last_sizes = self.sizes[start:]
        return result, sum(a * b for a, b in self.last_sizes)


def test_congruence_does_no_product_with_its_certificate(monkeypatch):
    k = 2
    f = hermform.even_reference_form(k, hyperbolics=1, e8_blocks=1)
    U = random_unit_triangular(random.Random(84), k, f.rank, max_terms=1)
    calls = _KernelCalls(monkeypatch)
    mul = hermform.mat_mul
    ubar = hermform.mat_involute(U)
    # the transport's own products: U^T A Ubar, W = Ubar^-1 with its
    # check, W C W*
    _, n1 = calls.products(
        lambda: mul(mul(hermform.mat_transpose(U), f.matrix, k), ubar, k))
    W, n2 = calls.products(lambda: hermform.invert_matrix(ubar, k))
    _, n3 = calls.products(
        lambda: mul(mul(W, f.inverse, k), hermform._star(W), k))
    own = n1 + n2 + n3
    g, spent = calls.products(lambda: congruence(f, U))
    assert g.inverse is not None and spent <= own
    matrix_terms = [p.terms for row in g.matrix for p in row]
    cert_terms = [p.terms for row in g.inverse for p in row]
    for p, q in calls.last:
        assert not (any(p is t for t in matrix_terms)
                    and any(q is t for t in cert_terms))
        assert not (any(p is t for t in cert_terms)
                    and any(q is t for t in matrix_terms))
    # the product left out, A2 C2 taken directly, is the bulk of a full
    # check; verify_inverse takes it through the factors, for less
    _, direct = calls.products(
        lambda: hermform._is_inverse(g.matrix, g.inverse, k))
    assert direct > own
    verdict, check = calls.products(lambda: verify_inverse(g, g.inverse))
    assert verdict is True and check < direct


def test_mat_mul_skips_empty_operands(monkeypatch):
    k = 3
    rng = random.Random(85)
    f = hermform.even_reference_form(k, hyperbolics=1, e8_blocks=1)
    U = random_unit_triangular(rng, k, f.rank, max_terms=1)
    calls = _KernelCalls(monkeypatch)
    for A, B in ((f.matrix, U), (U, f.inverse), (U, U)):
        got, _ = calls.products(lambda: hermform.mat_mul(A, B, k))
        assert calls.last
        assert all(a and b for a, b in calls.last_sizes)
        n = len(A)
        want = tuple(tuple(sum((A[i][p] * B[p][j] for p in range(n)),
                               zero(k)) for j in range(n)) for i in range(n))
        assert got == want
    # the elimination and its check skip them too, upper and lower
    for M in (U, hermform.mat_transpose(U)):
        W, _ = calls.products(lambda: hermform.invert_matrix(M, k))
        assert calls.last
        assert all(a and b for a, b in calls.last_sizes)
        assert W is not None and hermform._is_inverse(M, W, k)
    # nor does it multiply by a column it has finished: on lower input
    # the step at pivot p updates each row r > p with L[r][p] != 0 once
    # for each nonzero entry of row p of the inverse, and each update
    # is one kernel call, one with a factor equal to 1 too
    L = hermform.mat_transpose(U)
    W, _ = calls.products(lambda: hermform.invert_matrix(L, k))
    updates = len(calls.last)
    assert any(one(k).terms in pair for pair in calls.last)
    calls.products(lambda: hermform._is_inverse(L, W, k))
    updates -= len(calls.last)
    n = len(L)
    assert updates == sum(
        sum(1 for r in range(p + 1, n) if L[r][p])
        * sum(1 for x in W[p] if x) for p in range(n))


def test_try_invert_checks_its_certificate_once(monkeypatch):
    """try_invert attaches the inverse that invert_matrix checked, and
    checks it no second time.  invert_matrix screens the augmentation
    once over Z, by the integer product inside
    intlinalg.unimodular_inverse; for a constant form (E8) that product
    is the check of its lift, with no kernel product and no _is_inverse,
    and a transported form is checked once more, by elimination's
    _is_inverse.  try_invert takes the kernel products and the integer
    products of invert_matrix and no more, so no second product A C,
    and no involute, so no second hermitian check."""
    k = 3
    e8 = intlinalg.e8_matrix()
    forms = (HermitianForm(k, const_form(k, e8).matrix),
             HermitianForm(k, random_certificated(random.Random(95), k,
                                                  r=2).matrix))
    checked, over_z, involuted = [], [], []
    real_check, real_involute = hermform._is_inverse, GroupRingElt.involute
    real_mat_mul = intlinalg._mat_mul

    def check(A, C, k):
        checked.append(A)
        return real_check(A, C, k)

    def mat_mul_over_z(A, B):
        over_z.append(A)
        return real_mat_mul(A, B)

    def involute(p):
        involuted.append(p)
        return real_involute(p)

    monkeypatch.setattr(hermform, "_is_inverse", check)
    monkeypatch.setattr(intlinalg, "_mat_mul", mat_mul_over_z)
    monkeypatch.setattr(GroupRingElt, "involute", involute)
    calls = _KernelCalls(monkeypatch)
    # per form, the matrices checked over the ring; the left factors
    # equal to the augmentation of integer products are that one
    # augmentation, in invert_matrix and in try_invert alike
    for f, ring in ((forms[0], []), (forms[1], [forms[1].matrix])):
        M = hermform.augment_form(f)
        C, want = calls.products(lambda: hermform.invert_matrix(f.matrix, k))
        assert C is not None and checked == ring
        assert [A for A in over_z if A == M] == [M]
        assert (want > 0) == bool(ring)
        checked.clear()
        over_z.clear()
        involuted.clear()
        g, spent = calls.products(lambda: try_invert(f))
        assert spent == want and checked == ring
        assert [A for A in over_z if A == M] == [M]
        assert not involuted
        assert g.matrix == f.matrix and g.inverse == C
        assert verify_inverse(f, g.inverse)
        checked.clear()
        over_z.clear()


def test_a_wrong_integer_inverse_is_refused(monkeypatch):
    """unimodular_inverse checks V U against the matrix before it
    returns it: with a Smith form whose V is one entry off, it finds no
    inverse of E8, invert_matrix none either, try_invert leaves bare E8
    without a certificate and from_integer_matrix attaches none."""
    k = 3
    e8 = intlinalg.e8_matrix()
    real = intlinalg.smith_normal_form

    def wrong_v(A):
        U, D, V = real(A)
        V[2][5] += 1
        return U, D, V

    monkeypatch.setattr(intlinalg, "smith_normal_form", wrong_v)
    assert intlinalg.unimodular_inverse(e8) is None
    bare = HermitianForm(k, hermform._constants(k, e8))
    assert hermform.invert_matrix(bare.matrix, k) is None
    assert try_invert(bare) is None
    f = hermform.from_integer_matrix(k, e8)
    assert f.matrix == bare.matrix and f.inverse is None


def test_from_integer_matrix_refuses_what_it_cannot_embed():
    """A matrix that is not square fails in the Smith form, and a
    unimodular one that is not symmetric fails the hermitian check,
    although invert_matrix lifts its inverse; one that is not
    unimodular is embedded without a certificate."""
    k = 2
    with pytest.raises(ValueError, match="square matrix required"):
        hermform.from_integer_matrix(k, [[1, 0]])
    with pytest.raises(SchemaError, match=r"not hermitian at \(0, 1\)"):
        hermform.from_integer_matrix(k, [[0, 1], [-1, 0]])
    f = hermform.from_integer_matrix(k, [[2, 1], [1, 2]])
    assert f.inverse is None and f.arf == hermform.ArfTag(
        hermform.ARF_EXTENDED, 0)


def test_congruence_certificate_is_the_product_of_w_and_t():
    """congruence multiplies out T = C W* and takes W T as the
    certificate: entry for entry the (W C) W* of the product taken the
    other way round, and T the (W C)* it compares with."""
    rng = random.Random(98)
    for k in (2, -3, 5):
        for r, s in ((1, 0), (2, 0), (0, 1), (1, 1)):
            f = hermform.even_reference_form(k, r, s)
            U = random_unit_triangular(rng, k, f.rank, max_terms=1)
            g = congruence(f, U)
            W = hermform.invert_matrix(hermform.mat_involute(U), k)
            WC = hermform.mat_mul(W, f.inverse, k)
            assert g.inverse == hermform._hermitian_product(
                WC, hermform._star(W), k)
            assert g._check[1] == hermform._star(WC)
            assert g._check[0] == hermform.mat_involute(U)


def test_congruence_by_a_constant_unimodular_matrix_keeps_the_certificate():
    """U = [[2, 5], [3, 8]] has no entry +-1, so no trivial-unit pivot
    eliminates involute(U), but invert_matrix lifts its integer inverse:
    the transport of H by U carries a certificate, which verify_inverse
    accepts and the direct product confirms."""
    for k in (2, -3):
        U = hermform._constants(k, [[2, 5], [3, 8]])
        g = congruence(hyperbolic(k, 1), U)
        assert g.matrix == const_form(k, [[12, 31], [31, 80]]).matrix
        assert g.inverse is not None
        assert verify_inverse(g, g.inverse)
        assert mat_product(g.matrix, g.inverse, k) == identity(k, 2)
        assert mat_product(g.inverse, g.matrix, k) == identity(k, 2)
        assert hermform._eliminate(hermform.mat_involute(U), k) is None


def test_a_singular_augmentation_is_refused_before_elimination(monkeypatch):
    """U = [[1 + a, 0], [0, 1]] is not unit triangular, and its
    augmentation diag(2, 1) is singular, so U has no inverse: the
    transport of H by U gets no certificate and isometry_inverse raises,
    both without an elimination."""
    k = 2
    U = ((GroupRingElt.from_word(k, "a") + one(k), zero(k)),
         (zero(k), one(k)))
    eliminated = []
    real = hermform._eliminate

    def eliminate(mat, k):
        eliminated.append(mat)
        return real(mat, k)

    monkeypatch.setattr(hermform, "_eliminate", eliminate)
    g = congruence(hyperbolic(k, 1), U)
    assert g.inverse is None
    with pytest.raises(CertificateError):
        isometry_inverse(U, k)
    assert not eliminated


def test_wrong_certificate_fails_at_its_first_entry(monkeypatch):
    """A C = 1 is checked one entry at a time: a certificate wrong at
    (0, 0) is rejected after the products of that entry alone, at most
    n kernel calls, where the whole check makes more than n.  So is the
    transported form's one product, involute(U) C against C_f W*."""
    k = 3
    rng = random.Random(86)
    f = hermform.even_reference_form(k, hyperbolics=2, e8_blocks=2)
    n = f.rank
    assert n >= 20
    # U filled down column 0 fills row 0 of the transported form; its
    # certificate stays small
    U = [list(row) for row in identity(k, n)]
    for j in range(1, n):
        U[j][0] = GroupRingElt.from_word(
            k, "".join(rng.choice("aAbB") for _ in range(3)))
    g = congruence(f, U)
    assert all(p.terms for p in g.matrix[0])
    C = [list(row) for row in g.inverse]
    # (A C)(0, 0) gains A[0][0] b a, which is nonzero
    C[0][0] = C[0][0] + GroupRingElt.from_word(k, "ba")
    C = hermform._freeze(C)
    plain = HermitianForm(k, g.matrix, g.inverse)
    calls = _KernelCalls(monkeypatch)
    for h in (g, plain):
        verdict, _ = calls.products(lambda: verify_inverse(h, h.inverse))
        assert verdict is True and len(calls.last) > n
    checks = (lambda: verify_inverse(g, C),
              lambda: verify_inverse(plain, C),
              lambda: hermform._is_inverse(g.matrix, C, k))
    for check in checks:
        verdict, _ = calls.products(check)
        assert verdict is False
        assert 0 < len(calls.last) <= n
    start = len(calls.operands)
    with pytest.raises(CertificateError):
        HermitianForm(k, g.matrix, C)
    assert 0 < len(calls.operands) - start <= n


def test_invert_matrix_adds_factors_of_one_directly(monkeypatch):
    """Updates of the elimination with a factor equal to +-1 are kernel
    calls like any other, and the kernel adds the other factor in
    directly.  The inverses are the ones the group-law loop gives for
    every update, term order included (support.law_addmul)."""
    k = 3
    rng = random.Random(87)
    a, b = (GroupRingElt.from_word(k, w) for w in "ab")
    U = random_unit_triangular(rng, k, 6, max_terms=1)
    mats = (U, hermform.mat_transpose(U),
            ((a, one(k)), (one(k), zero(k))),        # 1 beside pivot a
            ((one(k), a), (-one(k), zero(k))),       # -1 below a pivot
            ((zero(k), -b), (a * b, one(k))))        # pivot -b off (0, 0)
    units = ({(0, 0, 0): 1}, {(0, 0, 0): -1})
    seen = []
    real_addmul = _kernel.ring_addmul

    def addmul(acc, p, q, k):
        seen.append(p in units or q in units)
        return real_addmul(acc, p, q, k)

    def order(W):
        return [[list(x.terms.items()) for x in row] for row in W]

    monkeypatch.setattr(_kernel, "ring_addmul", addmul)
    got = [hermform.invert_matrix(M, k) for M in mats]
    assert all(W is not None for W in got)
    assert any(seen)  # factors of +-1 reach the kernel
    monkeypatch.setattr(_kernel, "ring_addmul", law_addmul)
    want = [hermform.invert_matrix(M, k) for M in mats]
    assert [order(W) for W in got] == [order(W) for W in want]


def _plain_transport(rng, k, r):
    """congruence of H^r by U = M D, where M is the block sum of r
    copies of the unimodular [[2, 5], [3, 8]] and D a diagonal of
    monomials +-w: no entry of involute(U) is a trivial unit, so the
    elimination finds no pivot.  Unless every monomial is +-1, U is no
    constant matrix either, invert_matrix finds no inverse and congruence
    returns a plain form.  Returns the form with its inverse, built from
    the integer inverse of M, and U."""
    f = hyperbolic(k, r)
    n = f.rank
    M = [[0] * n for _ in range(n)]
    for i in range(r):
        M[2 * i][2 * i:2 * i + 2] = [2, 5]
        M[2 * i + 1][2 * i:2 * i + 2] = [3, 8]
    words = ["".join(rng.choice("aAbB") for _ in range(rng.randint(0, 3)))
             for _ in range(n)]
    D = [[GroupRingElt.from_word(k, words[i], rng.choice((-1, 1)))
          if i == j else zero(k) for j in range(n)] for i in range(n)]
    U = hermform.mat_mul(hermform._constants(k, M), D, k)
    ubar = hermform.mat_involute(U)
    assert hermform._eliminate(ubar, k) is None
    # involute(U) = M involute(D), and involute(D)^-1 = D
    W = hermform.mat_mul(D, hermform._constants(
        k, intlinalg.unimodular_inverse(M)), k)
    assert hermform._is_inverse(ubar, W, k)
    C = hermform.mat_mul(hermform.mat_mul(W, f.inverse, k),
                         hermform._star(W), k)
    g = congruence(f, U)
    if any(D[i][i].terms.keys() != {(0, 0, 0)} for i in range(n)):
        assert hermform.invert_matrix(ubar, k) is None
        assert type(g) is HermitianForm and g.inverse is None
    else:
        assert hermform.invert_matrix(ubar, k) == W and g.inverse == C
    return g, C, U


def test_verify_inverse_agrees_with_the_direct_product():
    """verify_inverse gives the verdict of the direct product A C = 1:
    for forms transported once and twice, whose factors it multiplies
    through and whose W* it compares with, and for plain forms that
    congruence returns when invert_matrix finds no W; over k of both
    signs, E8 among them; for the certificate, a tampered one, one
    tampered only below the diagonal, and wrong shapes."""
    rng = random.Random(88)
    verdicts = set()
    for i in range(32):
        k = (2, 3, -2, -3)[i % 4]
        if i >= 24:
            g, C, _ = _plain_transport(rng, k, 1 + i % 3)
        else:
            r, e8 = ((1, 0), (2, 0), (0, 1))[i % 3]
            g = hermform.even_reference_form(k, r, e8)
            for _ in range(1 + i % 2):
                g = congruence(g, random_unit_triangular(rng, k, g.rank,
                                                         max_terms=1))
            C = g.inverse
        n = g.rank
        C = [list(row) for row in C]
        tampered = [list(row) for row in C]
        below = [list(row) for row in C]
        x = rng.randrange(1, n)
        for D, (r, c) in ((tampered, (rng.randrange(n), rng.randrange(n))),
                          (below, (x, rng.randrange(x)))):
            w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 3)))
            D[r][c] = D[r][c] + GroupRingElt.from_word(
                k, w, rng.choice((-1, 1)))
        shapes = (C[:-1], [row[:-1] for row in C],
                  [row + [zero(k)] for row in C] + [[zero(k)] * (n + 1)],
                  C[:-1] + [C[-1][:-1]])
        for D in (C, tampered, below) + shapes:
            want = hermform._is_inverse(g.matrix, hermform._freeze(D), k)
            assert verify_inverse(g, D) == want
            verdicts.add(want)
        assert verify_inverse(g, C) is True
        assert verify_inverse(g, tampered) is False
        assert verify_inverse(g, below) is False
    assert verdicts == {True, False}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, -2, -3)), st.sampled_from(((1, 0), (2, 0))),
       st.integers(1, 2), st.randoms(use_true_random=False),
       st.sampled_from(("kept", "entry", "below", "source", "rows")))
def test_verify_inverse_agrees_on_random_transports(k, shape, times, rng,
                                                    how):
    """On small forms transported once or twice by random unit
    triangular U, verify_inverse(g, D), one product with involute(U),
    agrees with the direct check A2 D = 1: for the derived certificate,
    for it with one entry changed anywhere or below the diagonal, for
    the certificate of the source form, and for it with two rows
    swapped."""
    f = hermform.even_reference_form(k, *shape)
    g = f
    for _ in range(times):
        g = congruence(g, random_unit_triangular(rng, k, g.rank, max_terms=2))
    assert g._check[1] != 1
    D = [list(row) for row in (f.inverse if how == "source" else g.inverse)]
    n = g.rank
    if how in ("entry", "below"):
        r = rng.randrange(1, n) if how == "below" else rng.randrange(n)
        c = rng.randrange(r) if how == "below" else rng.randrange(n)
        w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 3)))
        D[r][c] = D[r][c] + GroupRingElt.from_word(k, w, rng.choice((-1, 1)))
    elif how == "rows":
        D[0], D[-1] = D[-1], D[0]
    want = hermform._is_inverse(g.matrix, hermform._freeze(D), k)
    assert verify_inverse(g, D) is want
    if how in ("kept", "entry", "below"):
        assert want is (how == "kept")


@pytest.mark.parametrize("k", [2, -3, 0, 1, -1])
@pytest.mark.parametrize("r, e8", [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1)])
def test_congruence_is_the_full_products(k, r, e8):
    """On every shape of the certify benchmark workload, by a unit upper
    and a unit lower triangular U, the transported matrix is (U^T A) Ubar
    and its certificate (W C) W*, entry for entry, though congruence
    works out only the entries on and above the diagonal of each."""
    rng = random.Random("congruence %d %d %d" % (k, r, e8))
    f = hermform.even_reference_form(k, r, e8)
    upper = random_unit_triangular(rng, k, f.rank)
    mul = hermform.mat_mul
    n = f.rank
    for U in (upper, hermform.mat_transpose(upper)):
        g = congruence(f, U)
        ubar = hermform.mat_involute(U)
        W = hermform.invert_matrix(ubar, k)
        A2 = mul(mul(hermform.mat_transpose(U), f.matrix, k), ubar, k)
        C2 = mul(mul(W, f.inverse, k), hermform._star(W), k)
        for i in range(n):
            for j in range(n):
                assert g.matrix[i][j] == A2[i][j], (i, j)
                assert g.inverse[i][j] == C2[i][j], (i, j)


def test_unit_triangular_transport_builds_no_inverse(monkeypatch):
    """congruence by a unit upper or lower triangular U never calls
    invert_matrix: T and C2 solve T U^T = C_f and Ubar C2 = T, which the
    tests' own products confirm, with A2 C2 = 1.  A U that is not unit
    triangular calls invert_matrix once."""
    calls = []
    real = hermform.invert_matrix

    def invert(M, k):
        calls.append(M)
        return real(M, k)

    monkeypatch.setattr(hermform, "invert_matrix", invert)
    rng = random.Random(92)
    for k in (2, -3, 0, 1):
        for r, e8 in ((1, 0), (2, 0), (0, 1)):
            f = hermform.even_reference_form(k, r, e8)
            n = f.rank
            U = random_unit_triangular(rng, k, n)
            for V in (U, hermform.mat_transpose(U), identity(k, n)):
                calls.clear()
                g = congruence(f, V)
                assert calls == []
                ubar, T = g._check
                Vt = hermform.mat_transpose(V)
                assert ubar == hermform.mat_involute(V)
                assert mat_product(T, Vt, k) == f.inverse
                assert mat_product(ubar, g.inverse, k) == T
                assert mat_product(g.matrix, g.inverse, k) == identity(k, n)
            # U times a diagonal with one -1, for elimination, and a
            # constant unimodular U, for the lift: neither is unit
            # triangular
            D = [list(row) for row in identity(k, n)]
            D[0][0] = -one(k)
            M = [[0] * n for _ in range(n)]
            for i in range(0, n, 2):
                M[i][i:i + 2], M[i + 1][i:i + 2] = [2, 5], [3, 8]
            for V in (hermform.mat_mul(U, D, k), hermform._constants(k, M)):
                calls.clear()
                g = congruence(f, V)
                assert calls == [hermform.mat_involute(V)]
                assert mat_product(g.matrix, g.inverse, k) == identity(k, n)


def test_verify_inverse_takes_one_product_with_ubar(monkeypatch):
    """On a transported form, verify_inverse takes the one product
    involute(U) C and no other: its kernel calls are those of that
    product, each an entry of the kept involute(U) times one of C, so
    none with the source matrix A, with U^T A or with the form matrix.
    The target is C_f W*, for C_f the source certificate and
    W = involute(U)^-1."""
    k = 2
    f = hermform.even_reference_form(k, hyperbolics=1, e8_blocks=1)
    U = random_unit_triangular(random.Random(89), k, f.rank, max_terms=1)
    g = congruence(f, U)
    ubar = hermform.mat_involute(U)
    W = hermform.invert_matrix(ubar, k)
    factor, target = g._check
    assert factor == ubar and target == hermform.mat_mul(
        f.inverse, hermform._star(W), k)
    calls = _KernelCalls(monkeypatch)
    _, want = calls.products(lambda: hermform.mat_mul(ubar, g.inverse, k))
    sizes = calls.last_sizes
    verdict, spent = calls.products(lambda: verify_inverse(g, g.inverse))
    assert verdict is True and spent == want and calls.last_sizes == sizes
    kept = [p.terms for row in factor for p in row]
    cert = [p.terms for row in g.inverse for p in row]
    for p, q in calls.last:
        assert any(p is t for t in kept) and any(q is t for t in cert)


def test_derived_forms_skip_the_hermitian_check(monkeypatch):
    """orthogonal_sum puts hermitian blocks on the diagonal, and
    congruence fills the lower half of each product by the involution,
    so neither form is checked again entry by entry: the sum takes no
    involute at all, and the transport only those its products need.
    A plain form of the same matrix takes one per entry on and above
    the diagonal."""
    k = 3
    f = hermform.even_reference_form(k, hyperbolics=1)
    e8 = hermform.from_integer_matrix(k, intlinalg.e8_matrix())
    U = random_unit_triangular(random.Random(91), k, 10, max_terms=1)
    count = []
    real = GroupRingElt.involute

    def involute(p):
        count.append(p)
        return real(p)

    monkeypatch.setattr(GroupRingElt, "involute", involute)
    s = hermform.orthogonal_sum(f, e8)
    assert count == []
    HermitianForm(k, s.matrix)
    assert len(count) == 10 * 11 // 2
    count.clear()
    congruence(s, U)
    # involute(U), and one mirror per entry below the diagonal of the
    # matrix and of the certificate: the substitution builds no W*
    assert len(count) == 100 + 2 * (10 * 9 // 2)


def test_orthogonal_sum_derives_its_certificate(monkeypatch):
    """orthogonal_sum builds its block-diagonal certificate from the two
    summands' with no ring product, and it is the inverse of the
    block-diagonal matrix."""
    k = -3
    rng = random.Random(90)
    f = random_certificated(rng, k, r=1)
    g = random_certificated(rng, k, r=0, e8=1, entry_terms=1)
    n, m = f.rank, g.rank
    calls = _KernelCalls(monkeypatch)
    s, spent = calls.products(lambda: hermform.orthogonal_sum(f, g))
    assert calls.last == [] and spent == 0
    for i in range(n + m):
        for j in range(n + m):
            for M, A, B in ((s.matrix, f.matrix, g.matrix),
                            (s.inverse, f.inverse, g.inverse)):
                want = (A[i][j] if i < n and j < n
                        else B[i - n][j - n] if i >= n and j >= n
                        else zero(k))
                assert M[i][j] == want, (i, j)
    assert hermform._is_inverse(s.matrix, s.inverse, k)
    assert verify_inverse(s, s.inverse) is True


def test_even_reference_form_builds_its_e8_block_once(monkeypatch):
    """even_reference_form sums one E8 form s times: three blocks run
    one Smith form, and the sum is the same as three E8 built apart."""
    k = 3
    calls = []
    real = intlinalg.smith_normal_form

    def snf(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(intlinalg, "smith_normal_form", snf)
    f = hermform.even_reference_form(k, hyperbolics=1, e8_blocks=3)
    assert len(calls) == 1
    g = hyperbolic(k, 1)
    for _ in range(3):
        g = hermform.orthogonal_sum(g, const_form(k, intlinalg.e8_matrix()))
    assert (f.matrix, f.inverse, f.arf) == (g.matrix, g.inverse, g.arf)
    assert hermform._is_inverse(f.matrix, f.inverse, k)


def test_orthogonal_sum_refuses_a_summand_that_is_not_a_form():
    """The block certificate is trusted only because each summand's was
    checked when it was built, so a look-alike summand whose inverse is
    wrong is refused rather than summed."""
    h = hyperbolic(2, 1)

    class LookAlike:
        k, rank, matrix, arf = h.k, h.rank, h.matrix, h.arf
        inverse = hermform._freeze([[one(2), zero(2)], [zero(2), one(2)]])

    for f, g in ((h, LookAlike()), (LookAlike(), h)):
        with pytest.raises(TypeError, match="HermitianForm"):
            hermform.orthogonal_sum(f, g)


@pytest.mark.parametrize("C, error", [
    (hyperbolic(3, 1).matrix, GroupMismatchError),
    ([[0, 1], [1, 0]], SchemaError),
], ids=["other-k", "int-entries"])
@pytest.mark.parametrize("transported", [False, True])
def test_verify_inverse_checks_certificate_entries(C, error, transported):
    """C's entries are checked as the constructor checks a certificate's:
    ring elements over the form's k."""
    f = hyperbolic(2, 1)
    if transported:
        f = congruence(f, random_unit_triangular(random.Random(91), 2, 2))
    with pytest.raises(error, match="certificate"):
        verify_inverse(f, C)
