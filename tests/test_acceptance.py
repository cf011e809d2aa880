"""Acceptance gate: eight criteria, one pass/fail line each.

Verdict lines are collected and printed by the terminal-summary hook
in conftest.py so they stay visible under output capture.  Budgets are
wall-clock upper bounds checked inside the criterion; exceeding one
fails the test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import ACCEPTANCE_VERDICTS

from bsfour import bsgroup, foxchain, hermform, intlinalg, invariants
from bsfour.foxchain import build_complex, fox_derivative, relator_word
from bsfour.groupring import GroupRingElt
from bsfour.hermform import (
    HermitianForm,
    Parity,
    augment_form,
    congruence,
    even_reference_form,
    hyperbolic,
    isometry_inverse,
    parity,
    verify_inverse,
)
from bsfour.intlinalg import AbelianGroup, e8_matrix, signature
from bsfour.invariants import (
    ManifoldDescriptor,
    W2Type,
    classify,
    homology_closed_form,
    ks_constraint,
    lgroup_table,
    realize,
)

from support import (
    FreeRing,
    geometric_series,
    random_ring_elt,
    random_unit_triangular,
    random_word,
    x_fraction,
)

KS_ALL = list(range(-12, 13))
KS_NONZERO = [k for k in KS_ALL if k != 0]
W = FreeRing.from_word


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _verdict_line(num, label, "FAIL", time.perf_counter() - start,
                      budget)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _verdict_line(num, label, "FAIL", elapsed, budget)
        raise AssertionError(
            "criterion %d exceeded its %.0fs budget: %.2fs"
            % (num, budget, elapsed))
    _verdict_line(num, label, "PASS", elapsed, budget)


def _verdict_line(num, label, verdict, elapsed, budget):
    timing = ("%.2fs < %.0fs" % (elapsed, budget) if budget
              else "%.2fs" % elapsed)
    ACCEPTANCE_VERDICTS.append(
        "criterion %d %s: %s (%s)" % (num, label, verdict, timing))


def affine_eval(word, k):
    # independent oracle: b^x a^t acts on Q by v -> k^t v + x
    m, c = Fraction(1), Fraction(0)
    for ch in word:
        if ch == "a":
            lm, lc = Fraction(k), Fraction(0)
        elif ch == "A":
            lm, lc = Fraction(1, k), Fraction(0)
        elif ch == "b":
            lm, lc = Fraction(1), Fraction(1)
        else:
            lm, lc = Fraction(1), Fraction(-1)
        c = m * lc + c
        m = m * lm
    return c, word.count("a") - word.count("A")


def chain_homology(k, modulus):
    d2, d1 = foxchain.tensor_trivial(build_complex(k))
    return intlinalg.homology_of_complex(d2, d1, modulus)


def test_criterion_1_fox_chain_fidelity():
    with criterion(1, "(fox derivatives and chain condition)", budget=5.0):
        for k in KS_NONZERO:
            r = relator_word(k)
            assert fox_derivative(r, "a") == FreeRing.one() - W("abA")
            b_minus_k = W("B" * k if k >= 0 else "b" * (-k))
            assert fox_derivative(r, "b") == \
                W("a") - W("abA") * b_minus_k * geometric_series(k)
            cx = build_complex(k)
            assert cx.ranks == (1, 2, 1)
            total = GroupRingElt.zero(k)
            for i in range(2):
                total = total + cx.d2[0][i] * cx.d1[i][0]
            assert total.is_zero()


def test_criterion_2_homology_oracle():
    with criterion(2, "(homology closed forms vs chain complex)",
                   budget=5.0):
        for k in KS_ALL:
            for modulus in (0, 2):
                groups = chain_homology(k, modulus)
                for deg in (0, 1, 2):
                    assert groups[deg] == homology_closed_form(
                        k, deg, modulus=modulus), (k, deg, modulus)


EXPECTED_L5_TORSION = {
    -12: 13, -11: 12, -10: 11, -9: 10, -8: 9, -7: 8, -6: 7, -5: 6,
    -4: 5, -3: 4, -2: 3, -1: 2, 0: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5,
    7: 6, 8: 7, 9: 8, 10: 9, 11: 10, 12: 11,
}


def test_criterion_3_lgroup_whitehead_tables():
    with criterion(3, "(L-group and Whitehead tables)", budget=5.0):
        for k in KS_ALL:
            table = lgroup_table(k)
            if k % 2:
                assert table.l4 == AbelianGroup(1, (2,)), k
            else:
                assert table.l4 == AbelianGroup.free(1), k
            if k == 1:
                assert table.l5 == AbelianGroup.free(2)
            else:
                t = EXPECTED_L5_TORSION[k]
                expected = (AbelianGroup.free(1) if t == 1
                            else AbelianGroup(1, (t,)))
                assert table.l5 == expected, k
            assert table.l0_symmetric == AbelianGroup.free(1)
            assert table.whitehead.is_trivial()
        # degenerate readings pinned by classical values
        assert lgroup_table(0).l5 == AbelianGroup.free(1)
        assert lgroup_table(1).l5 == AbelianGroup.free(2)
        assert homology_closed_form(1, 1) == AbelianGroup.free(2)


def test_criterion_4_assembly_consistency():
    with criterion(4, "(assembly map domains match L-groups)", budget=5.0):
        for k in KS_ALL:
            table = lgroup_table(k)
            report = invariants.assembly_status(k, table)
            assert report.consistent, k
            # cross-check the domains through the chain complex, not
            # the closed forms the table was built from
            h = chain_homology(k, 0)
            h2m = chain_homology(k, 2)[2]
            assert h[0].direct_sum(h2m) == table.l4, k
            assert h[1] == table.l5, k


def test_criterion_5_algebra_properties():
    with criterion(5, "(ring axioms >= 1e4, affine oracle >= 1e3/k)",
                   budget=30.0):
        rng = random.Random(5050)
        checks = 0
        for _ in range(3500):
            k = rng.choice(KS_ALL)
            p = random_ring_elt(rng, k, terms=4, wordlen=6)
            q = random_ring_elt(rng, k, terms=4, wordlen=6)
            r = random_ring_elt(rng, k, terms=4, wordlen=6)
            assert (p * q) * r == p * (q * r)
            checks += 1
            assert (p * q).involute() == q.involute() * p.involute()
            checks += 1
            assert (p * q).augment() == p.augment() * q.augment()
            checks += 1
        assert checks >= 10 ** 4
        for k in KS_NONZERO:
            for _ in range(1000):
                word = random_word(rng, 25)
                g = bsgroup.eval_word(word, k)
                x, t = affine_eval(word, k)
                assert x_fraction(g, k) == x and g[2] == t, (word, k)


def test_criterion_6_signature_mod8_and_ks():
    with criterion(6, "(200 even certificated forms per k: sig mod 8, KS)",
                   budget=120.0):
        for k in (2, 3):
            rng = random.Random(6600 + k)
            for _ in range(200):
                with_e8 = rng.random() < 0.06
                f = even_reference_form(
                    k, hyperbolics=1 if with_e8 else rng.randint(1, 3),
                    e8_blocks=1 if with_e8 else 0)
                U = random_unit_triangular(rng, k, f.rank, max_terms=1)
                g = congruence(f, U)
                assert g.inverse is not None
                assert verify_inverse(g, g.inverse)
                assert parity(g) is Parity.EVEN
                sig = signature(augment_form(g))
                assert sig % 8 == 0
                assert ks_constraint(W2Type.II, sig) == (sig // 8) % 2
                if k % 2:
                    arf = g.arf.value
                    assert ks_constraint(W2Type.III, sig, arf) \
                        == (sig // 8 + arf) % 2


def _fixture_forms(k):
    rng = random.Random(7700 + k)
    e8 = hermform.from_integer_matrix(k, e8_matrix())
    h1 = hyperbolic(k, 1)
    forms = [
        hermform.from_integer_matrix(k, [[1]]),
        hermform.from_integer_matrix(k, [[-1]]),
        hermform.from_integer_matrix(k, [[1, 0], [0, -1]]),
        hermform.from_integer_matrix(k, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        h1,
        hyperbolic(k, 2),
        e8,
        hermform.orthogonal_sum(h1, e8),
        congruence(h1, random_unit_triangular(rng, k, 2)),
        congruence(hyperbolic(k, 2), random_unit_triangular(rng, k, 4)),
    ]
    if k % 2:
        forms.append(HermitianForm(k, h1.matrix, h1.inverse, arf=None))
    return forms


def test_criterion_7_realization_counts():
    with criterion(7, "(realize counts 2/1/2 and KS relations, >= 20 forms)",
                   budget=30.0):
        tested = 0
        for k in (2, 3):
            for f in _fixture_forms(k):
                out = realize(k, f)
                tested += 1
                if parity(f) is Parity.ODD:
                    assert len(out) == 2
                    assert all(d.w2 is W2Type.I for d in out)
                    assert sorted(d.ks for d in out) == [0, 1]
                    continue
                sig = signature(augment_form(f))
                if k % 2 == 0:
                    assert len(out) == 1
                    assert out[0].w2 is W2Type.II
                else:
                    assert len(out) == 2
                    assert {d.w2 for d in out} == {W2Type.II, W2Type.III}
                for d in out:
                    if d.w2 is W2Type.II:
                        assert d.ks == (sig // 8) % 2  # Rochlin
                    elif d.form.arf is not None:
                        assert d.ks == (sig // 8 + d.form.arf.value) % 2
                    else:
                        assert d.ks is None
                    arf = None if d.form.arf is None else d.form.arf.value
                    assert ks_constraint(d.w2, sig, arf) == d.ks
        assert tested >= 20


def _descriptor_pool(k):
    h1 = hyperbolic(k, 1)
    rng = random.Random(8800 + k)
    U = random_unit_triangular(rng, k, 2)
    moved = congruence(h1, U)
    pool = [
        ManifoldDescriptor(
            k, hermform.from_integer_matrix(k, [[1, 0], [0, -1]]),
            W2Type.I, 0),
        ManifoldDescriptor(
            k, hermform.from_integer_matrix(k, [[1, 0], [0, -1]]),
            W2Type.I, 1),
        ManifoldDescriptor(
            k, hermform.from_integer_matrix(k, [[1, 0], [0, 1]]),
            W2Type.I, 0),
        ManifoldDescriptor(k, h1, W2Type.II, 0),
        ManifoldDescriptor(k, hyperbolic(k, 2), W2Type.II, 0),
        ManifoldDescriptor(k, moved, W2Type.II, 0),
    ]
    if k % 2:
        e8 = hermform.from_integer_matrix(k, e8_matrix())
        pool.append(ManifoldDescriptor(k, h1, W2Type.III, 0))
        pool.append(ManifoldDescriptor(k, e8, W2Type.II, 1))
        pool.append(ManifoldDescriptor(k, e8, W2Type.III, 1))
    return pool, U, moved, h1


def _necessary_invariants_differ(d1, d2):
    return (d1.w2 is not d2.w2
            or d1.form.rank != d2.form.rank
            or d1.parity is not d2.parity
            or d1.signature != d2.signature
            or (d1.ks is not None and d2.ks is not None and d1.ks != d2.ks))


def _identity(k, n):
    one = GroupRingElt.one(k)
    zero = GroupRingElt.zero(k)
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def test_criterion_8_classifier_soundness():
    with criterion(8, "(classifier soundness on >= 30 pairs)", budget=30.0):
        pairs = 0
        for k in (2, 3):
            pool, U, moved, h1 = _descriptor_pool(k)
            for i, d1 in enumerate(pool):
                # reflexivity with an identity certificate
                res = classify(d1, d1, isometry=_identity(k, d1.form.rank))
                assert res.verdict == "Homeomorphic"
                pairs += 1
                for d2 in pool[i + 1:]:
                    res = classify(d1, d2)
                    if _necessary_invariants_differ(d1, d2):
                        assert res.verdict == "NotHomeomorphic", (d1, d2)
                    else:
                        assert res.verdict == "Unknown", (d1, d2)
                    # symmetric without a certificate
                    assert classify(d2, d1).verdict == res.verdict
                    pairs += 1
            # certificate soundness: moved = congruence(h1, U) carries
            # a verified isometry in one direction, its inverse in the
            # other, and a wrong certificate stays Unknown
            dm = ManifoldDescriptor(k, moved, W2Type.II, 0)
            dh = ManifoldDescriptor(k, h1, W2Type.II, 0)
            assert classify(dm, dh, isometry=U).verdict == "Homeomorphic"
            assert classify(dh, dm,
                            isometry=isometry_inverse(U, k)).verdict == \
                "Homeomorphic"
            assert classify(dh, dm,
                            isometry=_identity(k, 2)).verdict == "Unknown"
            pairs += 3
        assert pairs >= 30
