"""Closed-form invariants, descriptors, and the classifier.

The homology closed forms are checked against an independent oracle:
the chain complex from the presentation, tensored down and pushed
through Smith normal form.  Everything downstream (bordism, KS rules,
realization counts, classification verdicts) is pinned by hand-checked
small cases.
"""

import pytest

from bsfour import foxchain, hermform, intlinalg
from bsfour.errors import (
    CertificateError,
    DescriptorError,
    GroupMismatchError,
    InconsistentDescriptorError,
    SchemaError,
)
from bsfour.groupring import GroupRingElt
from bsfour.hermform import HermitianForm, congruence, isometry_inverse
from bsfour.intlinalg import AbelianGroup
from bsfour.invariants import (
    ManifoldDescriptor,
    W2Type,
    assembly_status,
    classify,
    homology_closed_form,
    ks_constraint,
    lgroup_table,
    realize,
    stable_bordism_group,
)

from support import random_unit_triangular

AG = AbelianGroup
ALL_K = list(range(-12, 13))


def odd_form(k):
    return hermform.from_integer_matrix(k, [[1, 0], [0, -1]])


def identity_matrix(k, n):
    one = GroupRingElt.one(k)
    zero = GroupRingElt.zero(k)
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def chain_homology(k, modulus):
    d2, d1 = foxchain.tensor_trivial(foxchain.build_complex(k))
    return intlinalg.homology_of_complex(d2, d1, modulus)


def test_homology_closed_form_integral():
    assert homology_closed_form(3, 1) == AG(1, (2,))
    assert homology_closed_form(1, 2) == AG.free(1)
    assert homology_closed_form(2, 2) == AG.trivial()
    assert homology_closed_form(5, 1) == AG(1, (4,))
    assert homology_closed_form(-3, 1) == AG(1, (4,))
    # degenerate torsion: Z/0 is Z, Z/(-1) and Z/1 are trivial
    assert homology_closed_form(1, 1) == AG.free(2)
    assert homology_closed_form(0, 1) == AG.free(1)
    assert homology_closed_form(2, 1) == AG.free(1)
    for k in ALL_K:
        assert homology_closed_form(k, 0) == AG.free(1)
        assert homology_closed_form(k, 3) == AG.trivial()


def test_homology_closed_form_mod2():
    assert homology_closed_form(3, 2, modulus=2) == AG.elementary(2, 1)
    assert homology_closed_form(2, 2, modulus=2) == AG.trivial()
    assert homology_closed_form(1, 2, modulus=2) == AG.elementary(2, 1)
    assert homology_closed_form(3, 1, modulus=2) == AG.elementary(2, 2)
    assert homology_closed_form(4, 1, modulus=2) == AG.elementary(2, 1)
    for k in ALL_K:
        assert homology_closed_form(k, 0, modulus=2) == AG.elementary(2, 1)
        assert homology_closed_form(k, 3, modulus=2) == AG.trivial()


def test_homology_closed_form_rejects_bad_args():
    with pytest.raises(ValueError):
        homology_closed_form(2, 4)
    with pytest.raises(ValueError):
        homology_closed_form(2, -1)
    with pytest.raises(ValueError):
        homology_closed_form(2, 1, modulus=3)


def test_homology_closed_form_matches_chain_complex():
    # the closed forms against the Smith-normal-form pipeline
    for k in ALL_K:
        for modulus in (0, 2):
            groups = chain_homology(k, modulus)
            for deg in (0, 1, 2):
                assert groups[deg] == homology_closed_form(
                    k, deg, modulus=modulus), (k, deg, modulus)


def test_lgroup_table_values():
    expected = {
        3: (AG(1, (2,)), AG(1, (2,))),
        2: (AG.free(1), AG.free(1)),
        0: (AG.free(1), AG.free(1)),
        1: (AG(1, (2,)), AG.free(2)),
        5: (AG(1, (2,)), AG(1, (4,))),
        -3: (AG(1, (2,)), AG(1, (4,))),
        12: (AG.free(1), AG(1, (11,))),
        -12: (AG.free(1), AG(1, (13,))),
    }
    for k, (l4, l5) in expected.items():
        table = lgroup_table(k)
        assert table.l4 == l4, k
        assert table.l5 == l5, k
    for k in ALL_K:
        table = lgroup_table(k)
        assert table.l0_symmetric == AG.free(1)
        assert table.whitehead.is_trivial()


def test_lgroup_table_json():
    doc = lgroup_table(3).to_json()
    assert doc == {
        "L4": {"free_rank": 1, "torsion": ["2"]},
        "L5": {"free_rank": 1, "torsion": ["2"]},
        "L0_symmetric": {"free_rank": 1, "torsion": []},
        "whitehead": {"free_rank": 0, "torsion": []},
    }


def test_assembly_status_consistent_for_all_k():
    for k in ALL_K:
        report = assembly_status(k, lgroup_table(k))
        assert report.consistent, k
        assert report.degree4_domain == report.degree4_codomain
        assert report.degree5_domain == report.degree5_codomain
    assert assembly_status(3, lgroup_table(3)).degree4_domain == AG(1, (2,))
    assert assembly_status(2, lgroup_table(2)).degree4_domain == AG.free(1)
    assert assembly_status(5, lgroup_table(5)).degree5_domain == AG(1, (4,))


def test_stable_bordism_group():
    build = foxchain.build_complex
    assert str(stable_bordism_group(build(2), W2Type.II)) == "8Z"
    assert str(stable_bordism_group(build(3), W2Type.II)) == "8Z + Z/2"
    assert str(stable_bordism_group(build(1), W2Type.II)) == "8Z + Z/2"
    for k in ALL_K:
        desc = stable_bordism_group(build(k), W2Type.II)
        assert desc.signature_multiple == 8
        # torsion is computed from the complex; pin it to the closed form
        assert desc.torsion == homology_closed_form(k, 2, modulus=2)
    with pytest.raises(DescriptorError):
        stable_bordism_group(build(3), W2Type.I)
    with pytest.raises(DescriptorError):
        stable_bordism_group(build(2), W2Type.III)  # needs odd k


def test_ks_constraint_rules():
    assert ks_constraint(W2Type.II, 8) == 1
    assert ks_constraint(W2Type.II, 0) == 0
    assert ks_constraint(W2Type.II, 16) == 0
    assert ks_constraint(W2Type.II, -8) == 1
    assert ks_constraint(W2Type.III, 0, arf=1) == 1
    assert ks_constraint(W2Type.III, 8, arf=0) == 1
    assert ks_constraint(W2Type.III, 8, arf=1) == 0
    assert ks_constraint(W2Type.I, 13) is None  # free
    assert ks_constraint(W2Type.III, 8) is None  # free while Arf unknown
    with pytest.raises(InconsistentDescriptorError,
                       match="signature divisible by 8"):
        ks_constraint(W2Type.II, 4)
    with pytest.raises(InconsistentDescriptorError):
        ks_constraint(W2Type.III, 12, arf=0)


def test_descriptor_validation():
    k = 2
    odd = odd_form(k)
    even = hermform.hyperbolic(k, 1)
    ManifoldDescriptor(k, odd, W2Type.I, 0)
    ManifoldDescriptor(k, odd, W2Type.I, 1)
    ManifoldDescriptor(k, even, W2Type.II, 0)
    with pytest.raises(InconsistentDescriptorError):
        ManifoldDescriptor(k, even, W2Type.I, 0)  # type I needs odd
    with pytest.raises(InconsistentDescriptorError):
        ManifoldDescriptor(k, odd, W2Type.II, 0)  # type II needs even
    with pytest.raises(InconsistentDescriptorError):
        ManifoldDescriptor(k, even, W2Type.III, 0)  # type III needs odd k
    with pytest.raises(InconsistentDescriptorError):
        # Rochlin: type II forces KS = sign/8 = 0 here
        ManifoldDescriptor(k, even, W2Type.II, 1)
    with pytest.raises(GroupMismatchError):
        ManifoldDescriptor(3, odd, W2Type.I, 0)
    with pytest.raises(DescriptorError):
        # no certificate of invertibility
        ManifoldDescriptor(k, hermform.from_integer_matrix(k, [[3]]),
                           W2Type.I, 0)
    with pytest.raises(DescriptorError):
        ManifoldDescriptor(k, odd, W2Type.I, 2)


def test_descriptor_unknown_ks_only_for_typeIII_unknown_arf():
    k = 3
    h = hermform.hyperbolic(k, 1)
    stripped = HermitianForm(k, h.matrix, h.inverse, arf=None)
    d = ManifoldDescriptor(k, stripped, W2Type.III, None)
    assert d.ks is None
    with pytest.raises(DescriptorError):
        ManifoldDescriptor(k, h, W2Type.III, None)  # arf known: KS forced
    with pytest.raises(DescriptorError):
        ManifoldDescriptor(k, odd_form(k), W2Type.I, None)


def test_descriptor_json_round_trip():
    k = 3
    d = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    doc = d.to_json()
    assert set(doc) == {"k", "form", "w2", "ks"}
    assert doc["w2"] == "II"
    assert doc["ks"] == 0
    back = ManifoldDescriptor.from_json(doc)
    assert back.w2 is W2Type.II
    assert back.ks == 0
    assert back.form.matrix == d.form.matrix

    h = hermform.hyperbolic(k, 1)
    stripped = HermitianForm(k, h.matrix, h.inverse, arf=None)
    doc = ManifoldDescriptor(k, stripped, W2Type.III, None).to_json()
    assert doc["ks"] is None
    assert ManifoldDescriptor.from_json(doc).ks is None

    with pytest.raises(SchemaError):
        ManifoldDescriptor.from_json({"k": k, "form": h.to_json(),
                                      "w2": "IV", "ks": 0})
    with pytest.raises(SchemaError):
        ManifoldDescriptor.from_json([1, 2])


def test_realize_odd_form():
    k = 2
    out = realize(k, odd_form(k))
    assert len(out) == 2
    assert all(d.w2 is W2Type.I for d in out)
    assert sorted(d.ks for d in out) == [0, 1]


def test_realize_even_form_even_k():
    k = 2
    out = realize(k, hermform.hyperbolic(k, 1))
    assert len(out) == 1
    assert out[0].w2 is W2Type.II
    assert out[0].ks == 0


def test_realize_even_form_odd_k():
    k = 3
    out = realize(k, hermform.hyperbolic(k, 1))
    assert len(out) == 2
    assert {d.w2 for d in out} == {W2Type.II, W2Type.III}
    assert all(d.ks == 0 for d in out)  # sign 0, arf 0

    e8 = hermform.from_integer_matrix(k, intlinalg.e8_matrix())
    out = realize(k, e8)
    assert len(out) == 2
    by_type = {d.w2: d for d in out}
    assert by_type[W2Type.II].ks == 1  # sign 8
    assert by_type[W2Type.III].ks == 1  # sign/8 + arf = 1 + 0


def test_realize_even_form_unknown_arf():
    k = 3
    h = hermform.hyperbolic(k, 1)
    stripped = HermitianForm(k, h.matrix, h.inverse, arf=None)
    out = realize(k, stripped)
    assert len(out) == 2
    by_type = {d.w2: d for d in out}
    assert by_type[W2Type.II].ks == 0
    assert by_type[W2Type.III].ks is None


def test_realize_computes_the_signature_once(monkeypatch):
    # one intlinalg.signature call per realize and none for a second
    # realize of the same form; each descriptor equals the one the
    # constructor builds on a fresh copy of the form, which holds no
    # signature yet
    h3 = hermform.hyperbolic(3, 1)
    cases = [(2, hermform.hyperbolic(2, 1)),
             (3, h3),
             (3, hermform.from_integer_matrix(3, intlinalg.e8_matrix())),
             (3, HermitianForm(3, h3.matrix, h3.inverse, arf=None)),
             (2, odd_form(2)),
             (3, odd_form(3))]
    calls = []
    real = intlinalg.signature

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(intlinalg, "signature", counting)
    for k, f in cases:
        calls.clear()
        out = realize(k, f)
        assert len(calls) == 1, (k, f.rank)
        calls.clear()
        again = realize(k, f)
        assert calls == [], (k, f.rank)
        for d, d2 in zip(out, again, strict=True):
            fresh = HermitianForm(k, f.matrix, f.inverse, f.arf)
            want = ManifoldDescriptor(k, fresh, d.w2, d.ks)
            assert d.form is f and d2.form is f
            assert (d.k, d.w2, d.ks, d.parity, d.signature) == (
                want.k, want.w2, want.ks, want.parity, want.signature)
            assert (d2.w2, d2.ks, d2.signature) == (d.w2, d.ks, d.signature)
        assert len(calls) == len(out)


def test_realize_computes_the_parity_once(monkeypatch):
    # one hermform.parity call per realize, among them an even form at
    # odd k (two descriptors and the odd-or-even choice), and none for a
    # second realize of the same form
    cases = [(2, hermform.hyperbolic(2, 1)),
             (3, hermform.even_reference_form(3, 1, 1)),
             (3, hermform.from_integer_matrix(3, intlinalg.e8_matrix())),
             (2, odd_form(2)),
             (3, odd_form(3))]
    calls = []
    real = hermform.parity

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(hermform, "parity", counting)
    for k, f in cases:
        calls.clear()
        out = realize(k, f)
        assert calls == [f], (k, f.rank)
        calls.clear()
        again = realize(k, f)
        assert calls == [], (k, f.rank)
        for d in out + again:
            assert d.parity is real(HermitianForm(k, f.matrix, f.inverse))


def test_realize_rejects_uncertificated_forms():
    with pytest.raises(DescriptorError):
        realize(2, hermform.from_integer_matrix(2, [[3]]))
    with pytest.raises(GroupMismatchError):
        realize(3, odd_form(2))


def test_realize_counts_over_generated_forms():
    import random

    rng = random.Random(411)
    for k in (2, 3):
        for _ in range(6):
            f = hermform.even_reference_form(k, hyperbolics=rng.randint(1, 2))
            g = congruence(f, random_unit_triangular(
                rng, k, f.rank, max_terms=1))
            out = realize(k, g)
            assert len(out) == (2 if k % 2 else 1)
            for d in out:
                assert d.ks == ks_constraint(  # raises if inconsistent
                    d.w2, d.signature,
                    None if d.form.arf is None else d.form.arf.value)


def test_classify_reflexive_and_certificate():
    k = 2
    d = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    res = classify(d, d, isometry=identity_matrix(k, 2))
    assert res.verdict == "Homeomorphic"
    res = classify(d, d)
    assert res.verdict == "Unknown"


def test_classify_detects_invariant_mismatches():
    k = 2
    odd0 = ManifoldDescriptor(k, odd_form(k), W2Type.I, 0)
    odd1 = ManifoldDescriptor(k, odd_form(k), W2Type.I, 1)
    res = classify(odd0, odd1)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("Kirby-Siebenmann invariant differs: 0 vs 1",)
    # equal signature and KS leave no invariant that tells them apart
    res = classify(odd0, ManifoldDescriptor(k, odd_form(k), W2Type.I, 0))
    assert res.reasons == ("no isometry certificate supplied",)

    even = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    res = classify(odd0, even)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("w2 type differs: I vs II",
                           "parity differs: odd vs even")

    big = ManifoldDescriptor(k, hermform.hyperbolic(k, 2), W2Type.II, 0)
    res = classify(even, big)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("rank differs: 2 vs 4",)

    plus2 = ManifoldDescriptor(
        k, hermform.from_integer_matrix(k, [[1, 0], [0, 1]]), W2Type.I, 0)
    res = classify(odd0, plus2)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("signature differs: 0 vs 2",)
    plus = ManifoldDescriptor(
        k, hermform.from_integer_matrix(k, [[1]]), W2Type.I, 0)
    minus = ManifoldDescriptor(
        k, hermform.from_integer_matrix(k, [[-1]]), W2Type.I, 0)
    res = classify(plus, minus)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("signature differs: 1 vs -1",)

    # all five invariants differ: one reason each, in snapshot order
    e8 = ManifoldDescriptor(
        k, hermform.from_integer_matrix(k, intlinalg.e8_matrix()),
        W2Type.II, 1)
    res = classify(plus, e8)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("w2 type differs: I vs II",
                           "Kirby-Siebenmann invariant differs: 0 vs 1",
                           "rank differs: 1 vs 8",
                           "parity differs: odd vs even",
                           "signature differs: 1 vs 8")

    # an unknown ks (type III, odd k, no Arf tag) differs from nothing
    k = 3
    h = hermform.hyperbolic(k, 1)
    unknown = ManifoldDescriptor(
        k, HermitianForm(k, h.matrix, h.inverse, arf=None), W2Type.III, None)
    e8 = ManifoldDescriptor(
        k, hermform.from_integer_matrix(k, intlinalg.e8_matrix()),
        W2Type.II, 1)
    res = classify(unknown, e8)
    assert res.verdict == "NotHomeomorphic"
    assert res.reasons == ("w2 type differs: III vs II",
                           "rank differs: 2 vs 8",
                           "signature differs: 0 vs 8")
    known = ManifoldDescriptor(k, h, W2Type.III, 0)
    res = classify(known, unknown, isometry=identity_matrix(k, 2))
    assert res.verdict == "Unknown"
    assert res.reasons == ("forms are isometric but the Kirby-Siebenmann"
                           " invariant is undetermined",)

    with pytest.raises(GroupMismatchError):
        classify(odd0, ManifoldDescriptor(3, odd_form(3), W2Type.I, 0))


def test_classify_with_transported_certificate():
    k = 2
    f = hermform.hyperbolic(k, 2)
    U = ((GroupRingElt.one(k), GroupRingElt.from_word(k, "ab"),
          GroupRingElt.zero(k), GroupRingElt.zero(k)),
         (GroupRingElt.zero(k), GroupRingElt.one(k),
          GroupRingElt.zero(k), GroupRingElt.zero(k)),
         (GroupRingElt.zero(k), GroupRingElt.zero(k),
          GroupRingElt.one(k), GroupRingElt.zero(k)),
         (GroupRingElt.zero(k), GroupRingElt.zero(k),
          GroupRingElt.from_word(k, "B", -1), GroupRingElt.one(k)))
    g = congruence(f, U)
    df = ManifoldDescriptor(k, f, W2Type.II, 0)
    dg = ManifoldDescriptor(k, g, W2Type.II, 0)
    # A_g = U^T A_f involute(U), so U carries g -> f
    assert classify(dg, df, isometry=U).verdict == "Homeomorphic"
    assert classify(df, dg, isometry=isometry_inverse(U, k)).verdict == \
        "Homeomorphic"
    # matching invariants but a certificate that is no isometry
    assert classify(df, dg, isometry=identity_matrix(k, 4)).verdict == \
        "Unknown"
    assert classify(df, dg).verdict == "Unknown"


def test_isometry_inverse_reverses_a_constant_isometry():
    """U = [[2, 5], [3, 8]] carries H to [[12, 31], [31, 80]].  No entry
    of U is +-1, so trivial-unit elimination cannot invert it, but its
    entries are integer constants: invert_matrix lifts the integer
    inverse, and isometry_inverse turns it into the certificate that
    carries the pair back the other way."""
    k = 2
    h = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    f = ManifoldDescriptor(k, hermform.from_integer_matrix(
        k, [[12, 31], [31, 80]]), W2Type.II, 0)
    U = hermform._constants(k, [[2, 5], [3, 8]])
    ubar = hermform.mat_involute(U)
    assert hermform._eliminate(ubar, k) is None
    assert hermform.invert_matrix(ubar, k) == hermform._constants(
        k, [[8, -5], [-3, 2]])
    assert classify(f, h, isometry=U).verdict == "Homeomorphic"
    V = isometry_inverse(U, k)
    assert V == hermform._constants(k, [[8, -5], [-3, 2]])
    assert classify(h, f, isometry=V).verdict == "Homeomorphic"
    # a constant U that is not unimodular has no inverse to give
    with pytest.raises(CertificateError):
        isometry_inverse(hermform._constants(k, [[2, 5], [4, 8]]), k)


def test_classify_json_shape():
    k = 2
    d = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    doc = classify(d, d).to_json()
    assert set(doc) == {"verdict", "reasons", "invariants"}
    assert doc["verdict"] == "Unknown"
    assert doc["invariants"]["first"]["parity"] == "even"
    assert doc["invariants"]["second"]["signature"] == 0
