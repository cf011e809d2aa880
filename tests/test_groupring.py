"""Integral group ring of B(k): ring axioms, involution, augmentation.

The independent check on the convolution is the identity
id_coeff(p * involute(p)) = sum of squared coefficients, which holds in
any group ring and does not go through the product code path twice.
"""

import random

import pytest

from bsfour import bsgroup
from bsfour.errors import GroupMismatchError, SchemaError
from bsfour.groupring import GroupRingElt

from support import FreeRing, element, geometric_series, random_ring_elt

KS = [k for k in range(-4, 5)]


def mono(k, word, c=1):
    return GroupRingElt.monomial(k, bsgroup.eval_word(word, k), c)


def test_parse_matches_construction():
    p = GroupRingElt.parse(2, "1 - a + 2*b*A")
    q = GroupRingElt.one(2) - mono(2, "a") + mono(2, "bA", 2)
    assert p == q
    assert GroupRingElt.parse(3, "0") == GroupRingElt.zero(3)
    assert GroupRingElt.parse(3, "-2") == GroupRingElt.one(3) * (-2)
    assert GroupRingElt.parse(3, "3*2*ab*A") == mono(3, "abA", 6)


def test_parse_multiplies_adjacent_factors():
    assert GroupRingElt.parse(2, "2a") == GroupRingElt.parse(2, "2*a")
    assert GroupRingElt.parse(2, "ab ba") == mono(2, "abba")
    assert GroupRingElt.parse(2, "2 3") == GroupRingElt.one(2) * 6
    assert GroupRingElt.parse(3, "1 - 2 ab 3 A") == \
        GroupRingElt.one(3) - mono(3, "abA", 6)


def test_parse_rejects_malformed():
    # digits are ASCII only: str.isdigit also takes these
    for text in ["2**a", "a +", "+", "c", "1 -- 2", "", "(a)",
                 "\u0663*a", "\u00b2*a", "1\u00b2", "\uff13a"]:
        with pytest.raises(SchemaError):
            GroupRingElt.parse(2, text)


def test_telescoping_product():
    # (1 - b)(1 + b + b^2 + b^3) = 1 - b^4
    k = 2
    p = GroupRingElt.one(k) - mono(k, "b")
    q = sum((mono(k, "b" * i) for i in range(4)), GroupRingElt.zero(k))
    assert p * q == GroupRingElt.one(k) - mono(k, "bbbb")


def test_involute_frozen_example():
    # ((1 - a) b)~ at k = 3: b - ab goes to b^-1 - b^-1 a^-1, and
    # (ab)^-1 has normal form x = -1, t = -1 since ab = b^3 a.
    k = 3
    p = (GroupRingElt.one(k) - mono(k, "a")) * mono(k, "b")
    expected = (GroupRingElt.monomial(k, element(-1, 0, 0, k))
                - GroupRingElt.monomial(k, element(-1, 0, -1, k)))
    assert p.involute() == expected


def test_geometric_series_values():
    assert geometric_series(5) == sum(
        (FreeRing.from_word("b" * i) for i in range(5)), FreeRing.zero())
    assert geometric_series(0) == FreeRing.zero()
    assert geometric_series(-2) == (
        -FreeRing.from_word("B") - FreeRing.from_word("BB"))


@pytest.mark.parametrize("k", range(-12, 13))
def test_geometric_series_telescopes(k):
    b = FreeRing.from_word("b")
    one = FreeRing.one()
    bk = FreeRing.from_word(("b" if k >= 0 else "B") * abs(k))
    assert (b - one) * geometric_series(k) == bk - one
    # and its augmentation, the sum of its coefficients, is k itself
    assert sum(geometric_series(k).terms.values()) == k


@pytest.mark.parametrize("k", KS)
def test_ring_axioms_random(k):
    rng = random.Random(4000 + k)
    one = GroupRingElt.one(k)
    for _ in range(60):
        p = random_ring_elt(rng, k)
        q = random_ring_elt(rng, k)
        r = random_ring_elt(rng, k)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p * one == p and one * p == p
        assert p - p == GroupRingElt.zero(k)
        assert p * 3 == p + p + p


@pytest.mark.parametrize("k", KS)
def test_involution_is_anti_automorphism(k):
    rng = random.Random(5000 + k)
    for _ in range(60):
        p = random_ring_elt(rng, k)
        q = random_ring_elt(rng, k)
        assert (p * q).involute() == q.involute() * p.involute()
        assert (p + q).involute() == p.involute() + q.involute()
        assert p.involute().involute() == p
        assert p.involute().augment() == p.augment()


@pytest.mark.parametrize("k", KS)
def test_augmentation_is_ring_map(k):
    rng = random.Random(6000 + k)
    for _ in range(60):
        p = random_ring_elt(rng, k)
        q = random_ring_elt(rng, k)
        assert (p * q).augment() == p.augment() * q.augment()
        assert (p + q).augment() == p.augment() + q.augment()
    assert GroupRingElt.one(k).augment() == 1


@pytest.mark.parametrize("k", KS)
def test_identity_coefficient_identities(k):
    rng = random.Random(7000 + k)
    for _ in range(60):
        p = random_ring_elt(rng, k)
        # the only solution of g h^-1 = e is g = h
        assert (p * p.involute()).identity_coefficient() == sum(
            c * c for c in p.terms.values())
        assert (p + p.involute()).identity_coefficient() % 2 == 0
    assert GroupRingElt.one(k).identity_coefficient() == 1


def test_mismatched_parameters_raise():
    p = GroupRingElt.one(2)
    q = GroupRingElt.one(3)
    with pytest.raises(GroupMismatchError):
        p * q
    with pytest.raises(GroupMismatchError):
        p + q
    assert p != q


@pytest.mark.parametrize("k", KS)
def test_json_round_trip(k):
    rng = random.Random(8000 + k)
    for _ in range(25):
        p = random_ring_elt(rng, k)
        doc = p.to_json()
        assert doc["k"] == k
        assert GroupRingElt.from_json(doc) == p
        keys = [(int(t["elt"]["t"]), t["elt"]["pow"], int(t["elt"]["num"]))
                for t in doc["terms"]]
        assert keys == sorted(keys)


def test_json_rejects_garbage():
    for doc in [
        {"terms": []},
        {"k": "2", "terms": []},
        {"k": 2, "terms": [{"coeff": "0.5", "elt": {"num": "0", "pow": 0, "t": "0"}}]},
        {"k": 2, "terms": {}},
        {"k": 2},
        [],
    ]:
        with pytest.raises(SchemaError):
            GroupRingElt.from_json(doc)


def test_rendering_is_canonical():
    p = GroupRingElt.parse(2, "1 - a + 2*b*A")
    assert str(p) == "2*b*a^-1 + 1 - a"
    assert str(GroupRingElt.zero(5)) == "0"
    assert str(geometric_series(-2)) == "-B - BB"
    assert str(FreeRing.one()) == "1"
