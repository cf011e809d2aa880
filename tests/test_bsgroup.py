"""Group arithmetic against the exact affine-representation oracle.

For k != 0 the group B(k) acts faithfully enough on Q by
g = b^x a^t : v -> k^t v + x, so composing letter maps with Fraction
arithmetic gives an independent check of the normal-form product.
"""

import random
from fractions import Fraction

import pytest

from bsfour import bsgroup
from bsfour._kernel import bs_inv, bs_mul
from bsfour.errors import SchemaError, WordSyntaxError

from support import element, read_element, x_fraction

KS = [k for k in range(-5, 6)]
KS_NONZERO = [k for k in KS if k != 0]


def affine_eval(word, k):
    """Return (x, t) of the word via the affine action, k != 0."""
    m, c = Fraction(1), Fraction(0)
    for ch in word:
        if ch == "a":
            lm, lc = Fraction(k), Fraction(0)
        elif ch == "A":
            lm, lc = Fraction(1, k), Fraction(0)
        elif ch == "b":
            lm, lc = Fraction(1), Fraction(1)
        elif ch == "B":
            lm, lc = Fraction(1), Fraction(-1)
        else:
            raise AssertionError(ch)
        c = m * lc + c
        m = m * lm
    t = word.count("a") - word.count("A")
    assert m == Fraction(k) ** t
    return c, t


def random_word(rng, maxlen=40):
    n = rng.randint(0, maxlen)
    return "".join(rng.choice("aAbB") for _ in range(n))


def test_identity_and_generators():
    e = (0, 0, 0)
    assert bsgroup.eval_word("", 2) == e
    for k in KS_NONZERO:
        a = bsgroup.eval_word("a", k)
        b = bsgroup.eval_word("b", k)
        assert a == (0, 0, 1)
        assert b == (1, 0, 0)
        assert bs_mul(a, bs_inv(a, k), k) == e
        assert bs_mul(b, bs_inv(b, k), k) == e
    assert bsgroup.eval_word("b", 0) == e  # b dies in B(0)


def test_defining_relation():
    # a b a^-1 = b^k in normal form
    for k in KS_NONZERO:
        assert bsgroup.eval_word("abA", k) == (k, 0, 0)
    assert bsgroup.eval_word("abA", 0) == (0, 0, 0)


def test_frozen_examples():
    # a^-1 b a at k=3: affine map v -> v + 1/3
    assert bsgroup.eval_word("Aba", 3) == (1, 1, 0)
    # a^-2 b a^2 at k=2: v -> v + 1/4
    assert bsgroup.eval_word("AAbaa", 2) == (1, 2, 0)
    # (b a)^-1 at k=2: affine inverse of v -> 2v + 1 is v -> v/2 - 1/2
    g = bs_inv(bsgroup.eval_word("ba", 2), 2)
    assert g == (-1, 1, -1)
    # (a b)^-1 at k=-1: ab is v -> -v - 1, self-inverse up to t; the
    # inverse map is v -> -v - 1 with t = -1, so x = -1.
    g = bs_inv(bsgroup.eval_word("ab", -1), -1)
    assert g == (-1, 0, -1)
    assert bs_mul(bsgroup.eval_word("ab", -1), g, -1) == \
        (0, 0, 0)


def test_subgroup_generators_embed_z_one_over_k():
    # a^-i b a^i realizes 1/k^i, with the sign carried by negative k
    for k in KS_NONZERO:
        for i in range(0, 6):
            g = bsgroup.eval_word("A" * i + "b" + "a" * i, k)
            assert g[2] == 0
            assert x_fraction(g, k) == Fraction(1, k) ** i


@pytest.mark.parametrize("k", KS_NONZERO)
def test_affine_oracle(k):
    rng = random.Random(1000 + k)
    for _ in range(250):
        w = random_word(rng)
        g = bsgroup.eval_word(w, k)
        x, t = affine_eval(w, k)
        assert x_fraction(g, k) == x
        assert g[2] == t
        assert element(*g, k) == g  # reduced


def test_quotient_evaluation_k0():
    rng = random.Random(7)
    for _ in range(250):
        w = random_word(rng)
        g = bsgroup.eval_word(w, 0)
        assert g[:2] == (0, 0)
        assert g[2] == w.count("a") - w.count("A")


@pytest.mark.parametrize("k", KS)
def test_group_axioms_random(k):
    rng = random.Random(2000 + k)
    elems = [bsgroup.eval_word(random_word(rng, 20), k) for _ in range(60)]
    e = (0, 0, 0)
    for _ in range(200):
        g, h, f = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        gh_f = bs_mul(bs_mul(g, h, k), f, k)
        g_hf = bs_mul(g, bs_mul(h, f, k), k)
        assert gh_f == g_hf
        assert bs_mul(g, bs_inv(g, k), k) == e
        assert bs_mul(bs_inv(g, k), g, k) == e
        assert bs_mul(g, e, k) == g
        assert bs_mul(e, g, k) == g


@pytest.mark.parametrize("k", KS)
def test_normal_form_unaffected_by_relator_insertion(k):
    relator = "abA" + ("B" * k if k > 0 else "b" * (-k))
    inverse_rel = relator[::-1].swapcase()
    rng = random.Random(3000 + k)
    for _ in range(100):
        w = random_word(rng, 24)
        cut = rng.randint(0, len(w))
        ins = rng.choice([relator, inverse_rel])
        w2 = w[:cut] + ins + w[cut:]
        assert bsgroup.eval_word(w, k) == bsgroup.eval_word(w2, k)


def test_word_validation():
    with pytest.raises(WordSyntaxError):
        bsgroup.eval_word("abc", 2)
    with pytest.raises(WordSyntaxError):
        bsgroup.free_reduce("x")


def test_free_word_helpers():
    assert bsgroup.free_reduce("aAbBba") == "ba"
    assert bsgroup.free_reduce("") == ""
    w = "aabBAb"
    red = bsgroup.free_reduce(w + w[::-1].swapcase())
    assert red == ""


def test_element_constructor_reduces():
    assert element(4, 2, 0, 2) == (1, 0, 0)
    assert element(6, 2, 5, 2) == (3, 1, 5)
    assert element(0, 3, 1, 7) == (0, 0, 1)
    assert element(5, 9, -2, 1) == (5, 0, -2)
    assert element(3, 4, 2, 0) == (0, 0, 2)
    # negative modulus: |k| is what matters
    assert element(9, 2, 0, -3) == (1, 0, 0)


def test_json_round_trip():
    rng = random.Random(11)
    for k in KS_NONZERO:
        for _ in range(50):
            g = bsgroup.eval_word(random_word(rng), k)
            doc = bsgroup._json_element(*g)
            assert set(doc) == {"num", "pow", "t"}
            assert isinstance(doc["num"], str) and isinstance(doc["t"], str)
            assert read_element(doc, k) == g


def test_json_rejects_garbage():
    for doc in [
        {"num": "1", "pow": -1, "t": "0"},
        {"num": "x", "pow": 0, "t": "0"},
        {"num": "1", "t": "0"},
        {"num": 1.5, "pow": 0, "t": "0"},
        {"num": "\u00b2", "pow": 0, "t": "0"},
        {"num": "9" * 5000, "pow": 0, "t": "0"},
        {"num": "1", "pow": bsgroup.MAX_JSON_EXPONENT + 1, "t": "0"},
        {"num": "1", "pow": 0, "t": str(-bsgroup.MAX_JSON_EXPONENT - 1)},
        "nope",
    ]:
        with pytest.raises(SchemaError):
            read_element(doc, 2)
    edge = {"num": "1", "pow": bsgroup.MAX_JSON_EXPONENT,
            "t": str(-bsgroup.MAX_JSON_EXPONENT)}
    for k in (bsgroup.MAX_JSON_K, -bsgroup.MAX_JSON_K):
        assert read_element(edge, k) == (1, bsgroup.MAX_JSON_EXPONENT,
                                         -bsgroup.MAX_JSON_EXPONENT)
        with pytest.raises(SchemaError):
            read_element(edge, 2 * k)


def test_sort_key_orders_by_t_then_pow_then_num():
    gs = [(1, 0, 1), (-2, 0, 0), (1, 1, 0),
          (1, 0, 0), (0, 0, -1)]
    ordered = sorted(gs, key=bsgroup.sort_key)
    assert ordered == [(0, 0, -1), (-2, 0, 0),
                       (1, 0, 0), (1, 1, 0),
                       (1, 0, 1)]
