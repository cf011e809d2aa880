"""Hermitian forms over Z[B(k)]: parity, augmentation, certificates.

Key cross-checks: the sesquilinear evaluation identity
id(s(x, x)) = sum_i id(A_ii) * eps(x_i) mod 2 ties the diagonal parity
rule to actual form values, and every generated certificate is verified
by exact matrix multiplication rather than trusted.
"""

import random

import pytest

from bsfour import hermform, intlinalg
from bsfour.errors import CertificateError, SchemaError
from bsfour.groupring import GroupRingElt
from bsfour.hermform import (HermitianForm, Parity, congruence, hyperbolic,
                             isometry_inverse, parity, sesquilinear,
                             try_invert, verify_inverse, verify_isometry)

from support import random_ring_elt, random_unit_triangular

one = GroupRingElt.one
zero = GroupRingElt.zero


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


def test_try_invert_examples():
    assert try_invert(const_form(2, [[2]])) is None
    k = 2
    h = hyperbolic(k, 1)
    C = try_invert(h)
    assert C is not None and verify_inverse(h, C)
    # (0, pbar; p, 0) is invertible only when p is a unit; p = 1 - a
    # augments to 0 so the fast determinant test rejects it
    p = one(k) - GroupRingElt.from_word(k, "a")
    f = HermitianForm(k, ((zero(k), p.involute()), (p, zero(k))))
    assert try_invert(f) is None


@pytest.mark.parametrize("k", [2, 3, -2])
def test_try_invert_transformed_hyperbolics(k):
    rng = random.Random(9200 + k)
    for _ in range(10):
        f = random_certificated(rng, k, r=rng.randint(1, 2))
        stripped = HermitianForm(k, f.matrix)  # drop the certificate
        C = try_invert(stripped)
        assert C is not None
        assert verify_inverse(stripped, C)


def test_unit_triangular_inverse():
    rng = random.Random(77)
    k = 2
    for _ in range(20):
        U = random_unit_triangular(rng, k, 4, max_terms=2)
        # upper, and two unit lower triangular matrices built from it
        for M in (U, hermform.mat_transpose(U), hermform._star(U)):
            W = hermform.unit_triangular_inverse(M, k)
            assert hermform.mat_is_identity(hermform.mat_mul(M, W, k))
            assert hermform.mat_is_identity(hermform.mat_mul(W, M, k))
    a = GroupRingElt.from_word(k, "a")
    with pytest.raises(ValueError):
        hermform.unit_triangular_inverse(((one(k), a), (a, one(k))), k)


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
    k = 2
    f = unit_form(k)
    two = GroupRingElt.one(k) * 2
    with pytest.raises(CertificateError):
        verify_isometry(f, f, ((two,),))


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
