"""Fox derivatives and the 2-complex chain data.

The oracle for the derivative is the fundamental identity
w - 1 = da(w)(a - 1) + db(w)(b - 1) in the free ring, which determines
both derivatives and is checked on random unreduced words.  The
boundary d2 of the complex is checked against the free derivatives
with every word evaluated on its own.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bsfour import _kernel, bsgroup, foxchain, intlinalg
from bsfour.errors import ChainComplexError
from bsfour.foxchain import build_complex, fox_derivative, relator_word
from bsfour.groupring import GroupRingElt

from support import FreeRing, fox, geometric_series, random_word

W = FreeRing.from_word
KS = list(range(-12, 13))
KS_NONZERO = [k for k in KS if k != 0]


def test_single_letter_derivatives():
    one = FreeRing.one()
    zero = FreeRing.zero()
    assert fox_derivative("a", "a") == one
    assert fox_derivative("A", "a") == -W("A")
    assert fox_derivative("b", "a") == zero
    assert fox_derivative("b", "b") == one
    assert fox_derivative("B", "b") == -W("B")
    assert fox_derivative("", "a") == zero


def test_product_rule():
    rng = random.Random(42)
    for _ in range(200):
        u = random_word(rng, 15)
        v = random_word(rng, 15)
        for g in "ab":
            lhs = fox_derivative(u + v, g)
            rhs = fox(u, g) + W(u) * fox(v, g)
            assert lhs == rhs


def letterwise_derivative(word, gen):
    """d/d gen by the Leibniz rule in the FreeRing oracle, one letter at
    a time, every product and sum normalized in full."""
    total, prefix = FreeRing.zero(), FreeRing.one()
    for ch in word:
        if ch == gen:
            total = total + prefix
        elif ch == gen.upper():
            total = total - prefix * W(ch)
        prefix = prefix * W(ch)
    return total


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aAbB", max_size=60), st.sampled_from("ab"))
def test_derivative_terms_are_reduced_and_nonzero(word, gen):
    expected = letterwise_derivative(word, gen).terms
    for w in (word, bsgroup.free_reduce(word)):
        terms = fox_derivative(w, gen).terms
        assert terms == expected
        for key, c in terms.items():
            assert key == bsgroup.free_reduce(key) and c in (1, -1)


def test_fundamental_identity():
    rng = random.Random(43)
    a1 = W("a") - FreeRing.one()
    b1 = W("b") - FreeRing.one()
    for _ in range(500):
        w = random_word(rng, 30)
        lhs = W(w) - FreeRing.one()
        rhs = fox(w, "a") * a1 + fox(w, "b") * b1
        assert lhs == rhs


def test_relator_word():
    assert relator_word(3) == "abABBB"
    assert relator_word(-2) == "abAbb"
    assert relator_word(0) == "abA"
    assert relator_word(1) == "abAB"


@pytest.mark.parametrize("k", range(-12, 13))
def test_relator_derivatives_match_displayed_formulas(k):
    r = relator_word(k)
    # da r = 1 - a b a^-1
    assert fox_derivative(r, "a") == FreeRing.one() - W("abA")
    # db r = a - a b a^-1 b^-k (b^k - 1)/(b - 1)
    b_minus_k = W("B" * k if k >= 0 else "b" * (-k))
    expected = W("a") - W("abA") * b_minus_k * geometric_series(k)
    assert fox_derivative(r, "b") == expected


@pytest.mark.parametrize("k", KS_NONZERO)
def test_chain_condition(k):
    cx = build_complex(k)
    assert cx.ranks == (1, 2, 1)
    total = GroupRingElt.zero(k)
    for i in range(2):
        total = total + cx.d2[0][i] * cx.d1[i][0]
    assert total.is_zero()


def projected_by_words(k, gen):
    """fox_derivative of the relator, each free word evaluated in B(k)."""
    acc = {}
    for w, c in fox_derivative(relator_word(k), gen).terms.items():
        g = tuple(bsgroup.eval_word(w, k))
        acc[g] = acc.get(g, 0) + c
    return GroupRingElt(k, acc)


@pytest.mark.parametrize(
    "k", [k for k in range(-40, 41) if k != 0] + [233, -233, 1001, -1000])
def test_boundary_matches_evaluated_free_derivatives(k):
    expected = ((projected_by_words(k, "a"), projected_by_words(k, "b")),)
    assert build_complex(k).d2 == expected


def test_chain_condition_failure_raises(monkeypatch):
    honest = foxchain._projected_derivatives

    def perturbed(k):
        da, db = honest(k)
        return da, db + GroupRingElt.from_word(k, "b")

    monkeypatch.setattr(foxchain, "_projected_derivatives", perturbed)
    with pytest.raises(ChainComplexError):
        build_complex(3)


def test_projected_boundary_at_k1():
    cx = build_complex(1)
    one = GroupRingElt.one(1)
    assert cx.d2[0][0] == one - GroupRingElt.from_word(1, "b")
    assert cx.d2[0][1] == GroupRingElt.from_word(1, "a") - one


def test_circle_complex_at_k0():
    cx = build_complex(0)
    assert cx.ranks == (0, 1, 1)
    assert cx.d2 == ()
    assert cx.d1[0][0] == GroupRingElt.one(0) - GroupRingElt.from_word(0, "a")
    D2, D1 = foxchain.tensor_trivial(cx)
    assert D2 == []
    assert D1 == [[0]]


@pytest.mark.parametrize("k", KS_NONZERO)
def test_augmented_boundaries(k):
    cx = build_complex(k)
    D2, D1 = foxchain.tensor_trivial(cx)
    assert D2 == [[0, 1 - k]]
    assert D1 == [[0], [0]]


@pytest.mark.parametrize("k", KS_NONZERO + [233, -233, 1001, -1000])
def test_projected_keys_are_reduced_and_nonzero(k):
    """Every key in normal form, and no two prefixes on one key: each
    coefficient is +-1, so none is 0."""
    da, db = foxchain._projected_derivatives(k)
    assert len(da.terms) == 2 and len(db.terms) == abs(k) + 1
    for d in (da, db):
        for g, c in d.terms.items():
            assert g == _kernel.bs_reduce(*g, k) and c in (1, -1)


@pytest.mark.parametrize("k", KS)
def test_mod2_homology_of_integer_and_reduced_boundaries(k):
    D2, D1 = foxchain.tensor_trivial(build_complex(k))

    def mod2(D):
        return [[x % 2 for x in row] for row in D]

    assert intlinalg.homology_of_complex(D2, D1, 2) == \
        intlinalg.homology_of_complex(mod2(D2), mod2(D1), 2)


def test_complex_json_shape():
    doc = build_complex(2).to_json()
    assert doc["k"] == 2
    assert doc["ranks"] == [1, 2, 1]
    assert len(doc["d2"]) == 1 and len(doc["d2"][0]) == 2
    assert len(doc["d1"]) == 2 and len(doc["d1"][0]) == 1
    assert GroupRingElt.from_json(doc["d1"][0][0]).k == 2
