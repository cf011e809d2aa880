"""Command-line interface: exit codes, schemas, determinism.

Commands run in-process through main(argv); stdout is parsed back as
JSON and compared against the library, so every emitted document is
also a round-trip test of the schema.
"""

import argparse
import json
import os
import pathlib
import random
import re
import shlex
import signal
import sys
import time

import pytest

from bsfour import bsgroup, cli, foxchain, hermform, intlinalg, invariants
from bsfour import _kernel
from bsfour._kernel import bs_inv
from bsfour.groupring import GroupRingElt
from bsfour.hermform import HermitianForm
from bsfour.invariants import ManifoldDescriptor, W2Type

from support import element, random_unit_triangular


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_group_normal_form(capsys):
    doc = run_json(capsys, "group", "--k", "3", "--word", "Aba")
    assert doc["element"] == {"num": "1", "pow": 1, "t": "0"}
    assert doc["display"] == "b^(1/3)"
    doc = run_json(capsys, "group", "--k", "2", "--word", "ba",
                   "--times", "ba", "--invert")
    assert doc["element"]["t"] == "-2"


def test_group_rejects_bad_word(capsys):
    code, _ = run(capsys, "group", "--k", "2", "--word", "abc")
    assert code == 2


def test_ring_expression(capsys):
    doc = run_json(capsys, "ring", "--k", "2", "--expr", "1 + 2*ba - aB")
    assert doc["display"] == "1 - b^-2*a + 2*b*a"
    assert doc["augmentation"] == "2"
    assert doc["identity_coefficient"] == "1"
    back = GroupRingElt.from_json(doc["element"])
    assert back == GroupRingElt.parse(2, "1 + 2*ba - aB")
    inv = run_json(capsys, "ring", "--k", "2", "--expr", "1 + 2*ba - aB",
                   "--involute")
    assert GroupRingElt.from_json(inv["element"]) == back.involute()


@pytest.mark.parametrize("expr", ["\u0663*a", "\u00b2*a"])
def test_ring_rejects_non_ascii_digits(capsys, expr):
    code = cli.main(["ring", "--k", "2", "--expr", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "unexpected character" in line


def test_fox_formulas(capsys):
    doc = run_json(capsys, "fox", "--k", "2")
    assert doc["relator"] == "abABB"
    assert doc["derivatives"]["a"]["display"] == "1 - abA"
    assert doc["derivatives"]["b"]["display"] == "a - abAB - abABB"
    assert doc["complex"]["ranks"] == [1, 2, 1]


def test_homology_closed_form_equals_chain(capsys):
    doc = run_json(capsys, "homology", "--k", "3")
    assert doc["agree"] is True
    assert doc["closed_form"]["H1"] == {"free_rank": 1, "torsion": ["2"]}
    assert doc["closed_form"] == doc["chain_complex"]
    doc = run_json(capsys, "homology", "--k", "3", "--mod", "2")
    assert doc["coefficients"] == "Z/2"
    assert doc["closed_form"]["H2"] == {"free_rank": 0, "torsion": ["2"]}


def test_lgroups_document(capsys):
    doc = run_json(capsys, "lgroups", "--k", "5")
    assert doc["lgroups"]["L5"] == {"free_rank": 1, "torsion": ["4"]}
    assert doc["assembly"]["consistent"] is True
    # k - 1 = 2^61 - 1 is prime; a canonical form that factors its
    # torsion by trial division does not finish here.
    start = time.perf_counter()
    doc = run_json(capsys, "lgroups", "--k", str(2 ** 61))
    assert time.perf_counter() - start < 2.0
    assert doc["lgroups"]["L5"] == {"free_rank": 1,
                                    "torsion": [str(2 ** 61 - 1)]}


def test_form_and_realize_compute_the_signature_once(capsys, monkeypatch,
                                                     tmp_path):
    calls = []
    real = intlinalg.signature

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(intlinalg, "signature", counting)
    h = hermform.hyperbolic(3, 1)
    plain = write(tmp_path / "plain.json", HermitianForm(3, h.matrix).to_json())
    cert = write(tmp_path / "cert.json", h.to_json())
    for argv in (("form", plain), ("form", plain, "--try-invert"),
                 ("form", cert), ("realize", cert),
                 ("realize", plain, "--try-invert")):
        calls.clear()
        run_json(capsys, *argv)
        assert len(calls) == 1, argv


def test_form_and_realize_compute_the_parity_once(capsys, monkeypatch,
                                                  tmp_path):
    calls = []
    real = hermform.parity

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(hermform, "parity", counting)
    even = write(tmp_path / "even.json",
                 hermform.even_reference_form(3, 1, 1).to_json())
    odd = write(tmp_path / "odd.json",
                hermform.from_integer_matrix(3, [[1, 0], [0, -1]]).to_json())
    for argv in (("form", even), ("realize", even), ("realize", odd),
                 ("realize", even, "--try-invert")):
        calls.clear()
        run_json(capsys, *argv)
        assert len(calls) == 1, argv


def test_term_memo_lasts_one_document_read(capsys, monkeypatch, tmp_path):
    """A document's terms are reduced once per distinct element of the
    document, and nothing is kept across reads: a second read of the
    same document, in the library or through cli.main, reduces as many
    as the first."""
    calls = []
    real = _kernel.bs_reduce

    def counting(num, pw, t, k):
        calls.append((num, pw, t))
        return real(num, pw, t, k)

    f = hermform.congruence(
        hermform.even_reference_form(3, 0, 1),
        random_unit_triangular(random.Random(28), 3, 8, max_terms=1))
    d = ManifoldDescriptor(3, f, W2Type.II, 1)
    U = hermform.matrix_to_json(hermform.hyperbolic(3, 4).inverse, 3)
    form, desc, iso = (write(tmp_path / name, doc) for name, doc in (
        ("form.json", f.to_json()), ("desc.json", d.to_json()),
        ("u.json", U)))
    elts = [term["elt"] for row in f.to_json()["matrix"] + f.to_json()[
        "inverse"] for cell in row for term in cell["terms"]]
    distinct = {(e["num"], e["pow"], e["t"]) for e in elts}
    assert len(distinct) < len(elts)
    monkeypatch.setattr(_kernel, "bs_reduce", counting)
    reads = [lambda: HermitianForm.from_json(f.to_json()),
             lambda: hermform.matrix_from_json(
                 hermform.matrix_to_json(f.matrix, 3)),
             lambda: run_json(capsys, "form", form),
             lambda: run_json(capsys, "realize", form),
             lambda: run_json(capsys, "classify", desc, desc,
                              "--isometry", iso)]
    counts = []
    for read in reads:
        first = []
        for _ in range(2):
            calls.clear()
            read()
            first.append(len(calls))
        assert first[0] == first[1], read
        counts.append(first[0])
    assert counts[0] == len(distinct)


def test_lgroups_builds_one_table(capsys, monkeypatch):
    # the table cli prints is the one assembly_status compares
    calls = []
    real = invariants.lgroup_table

    def counting(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(invariants, "lgroup_table", counting)
    for k in (5, -4, 2 ** 61):
        calls.clear()
        doc = run_json(capsys, "lgroups", "--k", str(k))
        assert calls == [k]
        assert doc["assembly"]["degree5"]["codomain"] == doc["lgroups"]["L5"]


def test_bordism(capsys):
    doc = run_json(capsys, "bordism", "--k", "3", "--w2", "II")
    assert doc["signature_multiple"] == 8
    assert doc["torsion"] == {"free_rank": 0, "torsion": ["2"]}
    code = cli.main(["bordism", "--k", "3", "--w2", "I"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # one line for the user, naming no Python function
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: type I ")
    assert "stable_classify" not in captured.err
    code, _ = run(capsys, "bordism", "--k", "2", "--w2", "III")
    assert code == 2


def test_form_summary_and_round_trip(capsys, tmp_path):
    e8 = hermform.from_integer_matrix(3, intlinalg.e8_matrix())
    path = write(tmp_path / "e8.json", e8.to_json())
    doc = run_json(capsys, "form", path)
    assert doc["summary"]["rank"] == 8
    assert doc["summary"]["signature"] == 8
    assert doc["summary"]["parity"] == "even"
    assert doc["summary"]["certificated"] is True
    back = HermitianForm.from_json(doc["form"])
    assert back.matrix == e8.matrix


def test_form_try_invert(capsys, tmp_path):
    h = hermform.hyperbolic(2, 1)
    plain = HermitianForm(2, h.matrix)  # certificate dropped
    path = write(tmp_path / "plain.json", plain.to_json())
    doc = run_json(capsys, "form", path)
    assert doc["summary"]["certificated"] is False
    doc = run_json(capsys, "form", path, "--try-invert")
    assert doc["summary"]["certificated"] is True
    assert HermitianForm.from_json(doc["form"]).inverse is not None


def test_form_bad_certificate_exits_2(capsys, tmp_path):
    h = hermform.hyperbolic(2, 1)
    doc = h.to_json()
    doc["inverse"][0][0] = GroupRingElt.one(2).to_json()  # breaks A*C = 1
    path = write(tmp_path / "bad.json", doc)
    code, _ = run(capsys, "form", path)
    assert code == 2


def test_form_unknown_field_exits_2(capsys, tmp_path):
    # a misspelt certificate is refused, not dropped without a word
    doc = hermform.hyperbolic(2, 1).to_json()
    doc["invrese"] = doc.pop("inverse")
    path = write(tmp_path / "typo.json", doc)
    code = cli.main(["form", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: form has an unknown field 'invrese'\n"


def test_classify_flow(capsys, tmp_path):
    k = 2
    h = hermform.hyperbolic(k, 1)
    d = ManifoldDescriptor(k, h, W2Type.II, 0)
    p1 = write(tmp_path / "d1.json", d.to_json())
    p2 = write(tmp_path / "d2.json", d.to_json())
    ident = hermform.matrix_to_json(
        tuple(tuple(GroupRingElt.one(k) if i == j else GroupRingElt.zero(k)
                    for j in range(2)) for i in range(2)), k)
    pu = write(tmp_path / "u.json", ident)
    doc = run_json(capsys, "classify", p1, p2)
    assert doc["verdict"] == "Unknown"
    doc = run_json(capsys, "classify", p1, p2, "--isometry", pu)
    assert doc["verdict"] == "Homeomorphic"

    odd = hermform.from_integer_matrix(k, [[1, 0], [0, -1]])
    q1 = write(tmp_path / "i0.json",
               ManifoldDescriptor(k, odd, W2Type.I, 0).to_json())
    q2 = write(tmp_path / "i1.json",
               ManifoldDescriptor(k, odd, W2Type.I, 1).to_json())
    doc = run_json(capsys, "classify", q1, q2)
    assert doc["verdict"] == "NotHomeomorphic"
    assert any("Kirby-Siebenmann" in r for r in doc["reasons"])


def test_classify_accepts_an_isometry_elimination_cannot_invert(capsys,
                                                                tmp_path):
    """U = [[2, 5], [3, 8]] carries H to [[12, 31], [31, 80]].  No entry
    of U is +-1, so trivial-unit elimination cannot invert it, but the
    equation and the certificate of the first form prove U^T
    invertible, so the verdict is Homeomorphic."""
    k = 2
    f = hermform.from_integer_matrix(k, [[12, 31], [31, 80]])
    h = hermform.hyperbolic(k, 1)
    df, dh = (write(tmp_path / name, ManifoldDescriptor(
        k, form, W2Type.II, 0).to_json()) for name, form in
        (("f.json", f), ("h.json", h)))
    pu = write(tmp_path / "u.json", hermform.matrix_to_json(
        hermform._constants(k, [[2, 5], [3, 8]]), k))
    doc = run_json(capsys, "classify", df, dh, "--isometry", pu)
    assert doc["verdict"] == "Homeomorphic"
    assert doc["reasons"] == [
        "all invariants agree and the isometry certificate verifies"]
    doc = run_json(capsys, "classify", dh, df, "--isometry", pu)
    assert doc["reasons"] == ["isometry certificate does not verify"]


def test_classify_isometry_of_wrong_size_is_unknown(capsys, tmp_path):
    k = 2
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        k, hermform.hyperbolic(k, 1), W2Type.II, 0).to_json())
    u = write(tmp_path / "u.json", hermform.matrix_to_json(
        ((GroupRingElt.one(k),),), k))
    doc = run_json(capsys, "classify", d, d, "--isometry", u)
    assert doc["verdict"] == "Unknown"
    assert doc["reasons"] == ["isometry certificate is unusable: isometry"
                              " certificate has wrong shape"]


def test_classify_isometry_over_another_k_exits_2(capsys, tmp_path):
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        2, hermform.hyperbolic(2, 1), W2Type.II, 0).to_json())
    one, zero = GroupRingElt.one(3), GroupRingElt.zero(3)
    u = write(tmp_path / "u.json", hermform.matrix_to_json(
        ((one, zero), (zero, one)), 3))
    code = cli.main(["classify", d, d, "--isometry", u])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        "error: isometry matrix is over k=3, descriptors over k=2\n"


def test_classify_inconsistent_descriptor_exits_3(capsys, tmp_path):
    k = 2
    d = ManifoldDescriptor(k, hermform.hyperbolic(k, 1), W2Type.II, 0)
    good = d.to_json()
    bad = dict(good)
    bad["ks"] = 1  # Rochlin forces 0 here
    p1 = write(tmp_path / "good.json", good)
    p2 = write(tmp_path / "bad.json", bad)
    code, _ = run(capsys, "classify", p1, p2)
    assert code == 3


def test_realize_counts(capsys, tmp_path):
    odd = hermform.from_integer_matrix(2, [[1, 0], [0, -1]])
    p = write(tmp_path / "odd.json", odd.to_json())
    doc = run_json(capsys, "realize", p)
    assert doc["count"] == 2
    assert [d["w2"] for d in doc["descriptors"]] == ["I", "I"]

    p = write(tmp_path / "heven.json", hermform.hyperbolic(2, 1).to_json())
    doc = run_json(capsys, "realize", p)
    assert doc["count"] == 1
    assert doc["descriptors"][0]["w2"] == "II"

    p = write(tmp_path / "hodd.json", hermform.hyperbolic(3, 1).to_json())
    doc = run_json(capsys, "realize", p)
    assert doc["count"] == 2
    assert [d["w2"] for d in doc["descriptors"]] == ["II", "III"]
    for d in doc["descriptors"]:
        ManifoldDescriptor.from_json(d)  # all emitted descriptors validate


def test_realize_requires_certificate(capsys, tmp_path):
    plain = HermitianForm(2, hermform.hyperbolic(2, 1).matrix)
    p = write(tmp_path / "plain.json", plain.to_json())
    code, _ = run(capsys, "realize", p)
    assert code == 2
    doc = run_json(capsys, "realize", p, "--try-invert")
    assert doc["count"] == 1


def test_try_invert_certifies_bare_e8(capsys, tmp_path):
    e8 = hermform.from_integer_matrix(3, intlinalg.e8_matrix())
    p = write(tmp_path / "e8.json", HermitianForm(3, e8.matrix).to_json())
    doc = run_json(capsys, "form", p, "--try-invert")
    assert doc["summary"]["certificated"] is True
    assert doc["form"]["inverse"] == e8.to_json()["inverse"]
    code, _ = run(capsys, "realize", p)
    assert code == 2
    doc = run_json(capsys, "realize", p, "--try-invert")
    assert doc["count"] >= 1
    for d in doc["descriptors"]:
        assert d["form"]["inverse"] == e8.to_json()["inverse"]


def test_report_rows(capsys):
    doc = run_json(capsys, "report", "--k-range", "2..3")
    assert [r["k"] for r in doc["rows"]] == [2, 3]
    row = doc["rows"][1]
    assert row["H1"] == "Z + Z/2"
    assert row["bordism"] == "8Z + Z/2"
    assert row["oracle_check"] == "ok"
    code, _ = run(capsys, "report", "--k-range", "2-3")
    assert code == 2
    spaced = run_json(capsys, "report", "--k-range", "-12..12")
    glued = run_json(capsys, "report", "--k-range=-12..12")
    assert [r["k"] for r in spaced["rows"]] == list(range(-12, 13))
    assert spaced == glued
    doc = run_json(capsys, "report", "--k-range", "-3..-2")
    assert [r["k"] for r in doc["rows"]] == [-3, -2]
    # argparse abbreviations of --k-range take a negative range too
    full = run_json(capsys, "report", "--k-range=-2..2")
    assert [r["k"] for r in full["rows"]] == list(range(-2, 3))
    for option in ("--k-r", "--k"):
        assert run_json(capsys, "report", option, "-2..2") == full


def test_report_row_computes_each_homology_once(capsys, monkeypatch):
    """A report row computes the chain homology once per coefficient
    ring; its bordism column is the one stable_bordism_group gives."""
    real = intlinalg.homology_of_complex
    moduli = []

    def counted(d2, d1, modulus):
        moduli.append(modulus)
        return real(d2, d1, modulus)

    monkeypatch.setattr(intlinalg, "homology_of_complex", counted)
    doc = run_json(capsys, "report", "--k-range=-6..6")
    assert moduli == [0, 2] * 13
    monkeypatch.undo()
    for row in doc["rows"]:
        cx = foxchain.build_complex(row["k"])
        assert row["bordism"] == str(
            invariants.stable_bordism_group(cx, W2Type.II))


def test_report_pretty_table(capsys):
    code, out = run(capsys, "report", "--k-range", "0..0", "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "H0", "H1", "H2", "H2_mod2",
                                "whitehead", "L4", "L5", "bordism",
                                "oracle_check"]
    assert lines[2].startswith("0  Z")
    assert all(line == line.rstrip() for line in lines)


def test_pretty_flattens_lists(capsys, tmp_path):
    code, out = run(capsys, "ring", "--k", "2", "--expr", "2 - aB",
                    "--pretty")
    assert code == 0
    assert out.splitlines() == [
        "k: 2", "element.k: 2",
        "element.terms[0].coeff: 2", "element.terms[0].elt.num: 0",
        "element.terms[0].elt.pow: 0", "element.terms[0].elt.t: 0",
        "element.terms[1].coeff: -1", "element.terms[1].elt.num: -2",
        "element.terms[1].elt.pow: 0", "element.terms[1].elt.t: 1",
        "display: 2 - b^-2*a", "augmentation: 1",
        "identity_coefficient: 2"]
    p = write(tmp_path / "h.json", hermform.hyperbolic(2, 1).to_json())
    code, out = run(capsys, "realize", p, "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["k: 2", "count: 1", "descriptors[0].k: 2"]
    # a list of scalars is one line, an empty list reads [], others nest
    for line in ("descriptors[0].form.matrix[0][0].terms: []",
                 "descriptors[0].form.matrix[0][1].terms[0].coeff: 1",
                 "descriptors[0].form.inverse[1][0].terms[0].elt.t: 0",
                 "descriptors[0].w2: II"):
        assert line in lines
    assert all(line == line.rstrip() for line in lines)


def test_usage_errors_exit_64(capsys):
    code, _ = run(capsys, "nosuch")
    assert code == 64
    code, _ = run(capsys, "group", "--k", "2")  # missing --word
    assert code == 64
    code, _ = run(capsys)
    assert code == 64


def test_missing_file_exits_2(capsys, tmp_path):
    code, _ = run(capsys, "form", str(tmp_path / "absent.json"))
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _ = run(capsys, "form", str(garbled))
    assert code == 2


def test_output_is_deterministic(capsys, tmp_path):
    code, first = run(capsys, "report", "--k-range", "-3..3")
    assert code == 0
    assert len(json.loads(first)["rows"]) == 7
    code, second = run(capsys, "report", "--k-range", "-3..3")
    assert code == 0
    assert first == second
    code, first = run(capsys, "ring", "--k", "2", "--expr", "ba + ab + 1")
    assert code == 0
    code, second = run(capsys, "ring", "--k", "2", "--expr", "1 + ab + ba")
    assert code == 0
    assert first == second  # canonical term order

    # Every command writes exactly what json.dumps(doc, indent=2) does.
    k = -3
    f = hermform.congruence(hermform.hyperbolic(k, 1),
                            ((GroupRingElt.one(k), GroupRingElt.parse(
                                k, "2*ab - B + 1")),
                             (GroupRingElt.zero(k), GroupRingElt.one(k))))
    form = write(tmp_path / "form.json", f.to_json())
    bare = write(tmp_path / "bare.json", hermform.matrix_to_json(f.matrix, k))
    d1, d2 = (write(tmp_path / ("d%d.json" % i), d.to_json())
              for i, d in enumerate(invariants.realize(k, f)))
    one = write(tmp_path / "one.json", hermform.matrix_to_json(
        ((GroupRingElt.one(k), GroupRingElt.zero(k)),
         (GroupRingElt.zero(k), GroupRingElt.one(k))), k))
    for argv in (("group", "--k", "-2", "--word", "aBBaba", "--invert"),
                 ("ring", "--k", "3", "--expr", "3*ab - 2*Ba + 1",
                  "--involute"),
                 ("fox", "--k", "-3"),
                 ("homology", "--k", "6", "--mod", "2"),
                 ("lgroups", "--k", "-4"),
                 ("bordism", "--k", "3", "--w2", "III"),
                 ("form", form),
                 ("form", bare, "--try-invert"),
                 ("realize", form),
                 ("classify", d1, d2),
                 ("classify", d1, d1, "--isometry", one),
                 ("report", "--k-range=-2..2")):
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    deep_matrix = tmp_path / "deep-matrix.json"
    deep_matrix.write_text('{"k": 2, "matrix": %s%s}'
                           % ("[" * 100000, "]" * 100000))
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        2, hermform.hyperbolic(2, 1), W2Type.II, 0).to_json())
    for bad in (str(deep), str(deep_matrix)):
        for argv in (("form", bad),
                     ("realize", bad, "--try-invert"),
                     ("classify", bad, d),
                     ("classify", d, bad),
                     ("classify", d, d, "--isometry", bad)):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("error: %s: " % bad)


@pytest.mark.parametrize("content, reason", [
    (b"{1: 2}", "Expecting property name enclosed in double quotes"),
    (b'{"k": 2, "matrix": []}\xff', "'utf-8' codec can't decode byte 0xff"),
    (b"9" * 5000, "a JSON number has more than 4300 digits"),
], ids=["not JSON", "not UTF-8", "5000 digits"])
def test_unreadable_json_names_its_file(capsys, tmp_path, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        2, hermform.hyperbolic(2, 1), W2Type.II, 0).to_json())
    for argv in (("form", str(bad)),
                 ("realize", str(bad), "--try-invert"),
                 ("classify", str(bad), d),
                 ("classify", d, str(bad)),
                 ("classify", d, d, "--isometry", str(bad))):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: %s: %s" % (bad, reason))
        assert "set_int_max_str_digits" not in captured.err


def test_one_complex_per_command(capsys, monkeypatch):
    built = []
    honest = foxchain.build_complex

    def counting(k):
        built.append(k)
        return honest(k)

    monkeypatch.setattr(foxchain, "build_complex", counting)
    code, _ = run(capsys, "report", "--k-range=-3..3")
    assert code == 0
    assert built == [-3, -2, -1, 0, 1, 2, 3]
    for argv in (("homology", "--k", "3"),
                 ("homology", "--k", "3", "--mod", "2"),
                 ("bordism", "--k", "3", "--w2", "II")):
        built.clear()
        code, _ = run(capsys, *argv)
        assert code == 0
        assert built == [3]


def spawn_measured(argv, out_path, err_path, timeout_s=60.0):
    """Run bsfour in a fresh interpreter, stdout and stderr to files.
    Returns (exit code, wall seconds, peak RSS in MB) from the child's
    own resource usage."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "bsfour.cli", *argv], env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
                      (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)])
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.perf_counter() - start > timeout_s:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            pytest.fail("bsfour %s ran over %.0f s" % (" ".join(argv),
                                                        timeout_s))
        time.sleep(0.02)
    seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024


@pytest.mark.parametrize("argv", [
    ["homology", "--k", str(cli.MAX_CHAIN_K)],
    ["homology", "--k", str(-cli.MAX_CHAIN_K)],
    ["fox", "--k", str(cli.MAX_FOX_K)],
], ids=["homology-max", "homology-min", "fox-max"])
def test_largest_accepted_k_within_budget(tmp_path, argv):
    out, err = tmp_path / "out.json", tmp_path / "err.txt"
    code, seconds, rss_mb = spawn_measured(argv, out, err)
    assert code == 0, err.read_text()
    assert err.read_text() == ""
    assert seconds <= 10.0
    assert rss_mb <= 200.0
    doc = json.loads(out.read_text())
    assert doc["k"] == int(argv[2])
    if argv[0] == "homology":
        assert doc["agree"] is True
    else:
        assert doc["complex"]["ranks"] == [1, 2, 1]


@pytest.mark.parametrize("argv", [
    ("homology", "--k", str(cli.MAX_CHAIN_K + 1)),
    ("homology", "--k", str(-cli.MAX_CHAIN_K - 1), "--mod", "2"),
    ("bordism", "--k", str(cli.MAX_CHAIN_K + 1), "--w2", "II"),
    ("report", "--k-range=0..%d" % (cli.MAX_CHAIN_K + 1)),
    ("report", "--k-range=%d..0" % (-cli.MAX_CHAIN_K - 1)),
    ("fox", "--k", str(cli.MAX_FOX_K + 1)),
    ("fox", "--k", str(-cli.MAX_FOX_K - 1)),
], ids=" ".join)
def test_k_beyond_limit_exits_2(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("k_range", ["5..3", "-2..-3", "1..0"])
def test_report_reversed_range_exits_2(capsys, k_range):
    code = cli.main(["report", "--k-range=" + k_range])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: k range A..B needs A <= B, got %s\n" % (
        k_range)


@pytest.mark.parametrize("k_range", ["a..2", "1..b", "1.5..2"])
def test_report_range_bounds_not_integers_exit_2(capsys, k_range):
    code = cli.main(["report", "--k-range", k_range])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: k range bounds must be integers\n"


@pytest.mark.parametrize("k_range, total", [
    ("-1049..1049", 1049 * 1050),
    ("99989..100000", 12 * 99989 + 66),
    ("-100000..100000", 100000 * 100001),
])
def test_report_k_sum_beyond_limit_exits_2(capsys, k_range, total):
    code = cli.main(["report", "--k-range=" + k_range])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: report accepts a k range whose sum of |k| is at most %d,"
        " got %d\n" % (cli.MAX_REPORT_K_SUM, total))


def test_largest_accepted_report_range_within_budget(tmp_path):
    """A report row costs O(|k|), and more per unit of |k| near the
    limit, so the worst accepted range is the rows next to -MAX_CHAIN_K
    (the rows next to +MAX_CHAIN_K measured the same)."""
    lo, hi = -cli.MAX_CHAIN_K, -cli.MAX_CHAIN_K + 10
    total = sum(map(abs, range(lo, hi + 1)))
    assert total <= cli.MAX_REPORT_K_SUM < total + abs(hi + 1)
    out, err = tmp_path / "out.json", tmp_path / "err.txt"
    code, seconds, rss_mb = spawn_measured(
        ["report", "--k-range=%d..%d" % (lo, hi)], out, err)
    assert code == 0, err.read_text()
    assert err.read_text() == ""
    assert seconds <= 10.0
    assert rss_mb <= 200.0
    rows = json.loads(out.read_text())["rows"]
    assert [row["k"] for row in rows] == list(range(lo, hi + 1))
    assert all(row["oracle_check"] == "ok" for row in rows)


def test_dense_rank_22_isometry_within_budget(tmp_path):
    """classify --isometry takes one product, U^T A Ubar, and builds no
    inverse of U.  On H^11 at k = 2 with a dense unit upper triangular
    U of +-word entries of length 6, the inverse of this U has 737,047
    terms, and building it took the command to 4.3 s and 134 MB peak
    RSS (one run, 2-core host); the product alone is a few thousand
    term products."""
    k, n = 2, 22
    rng = random.Random(22)
    U = [[GroupRingElt.one(k) if i == j else GroupRingElt.zero(k)
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            U[i][j] = GroupRingElt.from_word(
                k, "".join(rng.choice("aAbB") for _ in range(6)),
                rng.choice((-1, 1)))
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        k, hermform.hyperbolic(k, 11), W2Type.II, 0).to_json())
    u = write(tmp_path / "u22.json", hermform.matrix_to_json(U, k))
    out, err = tmp_path / "out.json", tmp_path / "err.txt"
    code, seconds, rss_mb = spawn_measured(
        ["classify", d, d, "--isometry", u], out, err)
    assert code == 0, err.read_text()
    assert err.read_text() == ""
    assert seconds <= 1.0
    assert rss_mb <= 100.0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "Unknown"
    assert doc["reasons"] == ["isometry certificate does not verify"]


def test_ragged_isometry_rows_exit_2(capsys, tmp_path):
    k = 2
    d = write(tmp_path / "d.json", ManifoldDescriptor(
        k, hermform.hyperbolic(k, 1), W2Type.II, 0).to_json())
    one, zero = GroupRingElt.one(k).to_json(), GroupRingElt.zero(k).to_json()
    u = write(tmp_path / "u.json", {"k": k, "matrix": [[one], [zero, one]]})
    code = cli.main(["classify", d, d, "--isometry", u])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: matrix rows must all have the same length\n"


@pytest.mark.parametrize("where, field", [
    ("ring", "coef"), ("group", "junk")])
def test_unknown_element_field_exits_2(capsys, tmp_path, where, field):
    cell = {"k": 2, "terms": [
        {"coeff": "1", "elt": {"num": "0", "pow": 0, "t": "0"}}]}
    (cell if where == "ring" else cell["terms"][0]["elt"])[field] = "3"
    path = write(tmp_path / "f.json", {"k": 2, "matrix": [[cell]]})
    code = cli.main(["form", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s element has an unknown field %r\n" % (
        where, field)


LONGEST_WORD = "a" * cli.MAX_WORD_LENGTH
LONGEST_EXPR = "a" * (cli.MAX_EXPR_LENGTH - 1) + "b"


@pytest.mark.parametrize("argv, num, pow", [
    (["group", "--word", LONGEST_WORD, "--times", LONGEST_WORD[1:] + "b"],
     799, 0),
    (["group", "--word", LONGEST_WORD.upper(),
      "--times", LONGEST_WORD[1:].upper() + "b"], 0, 799),
    (["ring", "--expr", LONGEST_EXPR], 799, 0),
    (["ring", "--expr", LONGEST_EXPR.replace("a", "A")], 0, 799),
], ids=["group-a", "group-A", "ring-a", "ring-A"])
@pytest.mark.parametrize("k", [bsgroup.MAX_JSON_K, -bsgroup.MAX_JSON_K])
def test_longest_accepted_word_prints(capsys, argv, num, pow, k):
    """At |k| = the limit, a^799 b gives num = k^799 and A^799 b gives
    |k|^799 in the display: 3996 digits each, the most any accepted
    word reaches."""
    assert len(argv[2]) + len(argv[4] if len(argv) > 4 else "") == 800
    doc = run_json(capsys, argv[0], "--k", str(k), *argv[1:])
    elt = doc["element"]
    if argv[0] == "ring":
        [term] = elt["terms"]
        assert term["coeff"] == "1"
        elt = term["elt"]
    assert elt["pow"] == pow
    if pow:
        assert elt["num"] == str(k // abs(k))  # the sign of k^-799
        assert str(abs(k) ** pow) in doc["display"]
    else:
        assert elt["num"] == str(k ** num)
    assert len(str(abs(k) ** 799)) == 3996


@pytest.mark.parametrize("argv, limit", [
    (("group", "--k", "10", "--word", "a" * 5000 + "b"),
     cli.MAX_WORD_LENGTH),
    (("group", "--k", "2", "--word", LONGEST_WORD + "a"),
     cli.MAX_WORD_LENGTH),
    (("group", "--k", "2", "--word", "a", "--times", LONGEST_WORD + "b"),
     cli.MAX_WORD_LENGTH),
    (("group", "--k", str(bsgroup.MAX_JSON_K + 1), "--word", "a"),
     bsgroup.MAX_JSON_K),
    (("group", "--k", str(-bsgroup.MAX_JSON_K - 1), "--word", "a"),
     bsgroup.MAX_JSON_K),
    (("ring", "--k", "2", "--expr", LONGEST_EXPR + "a"),
     cli.MAX_EXPR_LENGTH),
    (("ring", "--k", str(bsgroup.MAX_JSON_K + 1), "--expr", "1 + a"),
     bsgroup.MAX_JSON_K),
], ids=["group-10^5000", "group-word", "group-times", "group-k",
        "group-minus-k", "ring-expr", "ring-k"])
def test_word_beyond_limit_exits_2(capsys, argv, limit):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert str(limit) in line


REPEATED_ARGV = [
    ["nosuch"],
    ["--help"],
    ["homology", "--k", str(cli.MAX_CHAIN_K + 1)],
    ["report", "--k-range=-3..3"],
    ["lgroups", "--k", "7"],
    ["nosuch"],
]


def test_main_repeats_like_a_fresh_process(capsys, monkeypatch, tmp_path):
    # argparse wraps help to the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    out, err = tmp_path / "out.txt", tmp_path / "err.txt"
    codes = []
    for argv in REPEATED_ARGV:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        fresh = spawn_measured(argv, out, err)[0]
        assert (code, captured.out, captured.err) == (
            fresh, out.read_text(), err.read_text()), argv
        codes.append(code)
    assert codes == [64, 0, 2, 0, 0, 64]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    honest = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        honest(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert [cli.main(["lgroups", "--k", "7"]),
            cli.main(["nosuch"]),
            cli.main(["group", "--k", "2", "--word", "ab"])] == [0, 64, 0]
    capsys.readouterr()
    assert built == []


def element_limit_form(t, k=3, pow=None):
    """The rank-2 form [[x, 1], [1, 0]], x = g + g^-1 for g = b a^t, with
    the matrix itself as a wrong certificate: checking it multiplies x
    by x, which builds |k|^(2|t|).  With pow, x is b^(1/|k|^pow) a^t
    instead, written out by hand since the reader is what is under
    test."""
    if pow is None:
        g = element(1, 0, t, k)
        x = GroupRingElt(k, {g: 1, bs_inv(g, k): 1}).to_json()
    else:
        x = {"k": k, "terms": [{"coeff": "1", "elt": {
            "num": "1", "pow": pow, "t": str(t)}}]}
    one, zero = GroupRingElt.one(k).to_json(), GroupRingElt.zero(k).to_json()
    matrix = [[x, one], [one, zero]]
    return {"k": k, "matrix": matrix, "inverse": matrix}


@pytest.mark.parametrize("doc, field", [
    (element_limit_form(3 * 10 ** 7), "'t'"),
    (element_limit_form(-bsgroup.MAX_JSON_EXPONENT - 1, pow=0), "'t'"),
    (element_limit_form(0, pow=bsgroup.MAX_JSON_EXPONENT + 1), "pow"),
    (element_limit_form(0, pow=3 * 10 ** 7), "pow"),
    (element_limit_form(1000, k=10 ** 4000 + 1), "|k|"),
], ids=["t=3e7", "t=-limit-1", "pow=limit+1", "pow=3e7", "k=10^4000+1"])
def test_element_beyond_limit_exits_2_fast(capsys, tmp_path, doc, field):
    # t = 3e7 at k = 3 took 54 s to be rejected before the limit, and
    # t = 1000 at the 4001-digit k 6 s
    path = write(tmp_path / "form.json", doc)
    start = time.perf_counter()
    code = cli.main(["form", path])
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert field in captured.err
    assert seconds < 1.0


def test_document_k_beyond_limit_exits_2_without_terms(capsys, tmp_path):
    """|k| is bounded once per document, not per term: a rank-0 form,
    the zero form, an empty ring element as the entry of a form over
    k = 2, a descriptor of the rank-0 form and an empty isometry
    matrix, all over k = 10^300, each exit 2 with one line that names
    the limit and does not echo k.  The first two were read, and the zero
    form's k written back, before the bound was per document."""
    big = 10 ** 300
    rank0 = {"k": big, "matrix": []}
    zero = {"k": big, "matrix": [[{"k": big, "terms": []}]]}
    mixed = {"k": 2, "matrix": [[{"k": big, "terms": []}]]}
    d = ManifoldDescriptor(2, hermform.hyperbolic(2, 1), W2Type.II, 0)
    p = write(tmp_path / "d.json", d.to_json())
    runs = [["form", write(tmp_path / "rank0.json", rank0)],
            ["form", "--try-invert", write(tmp_path / "zero.json", zero)],
            ["realize", write(tmp_path / "mixed.json", mixed)],
            ["classify", write(tmp_path / "big.json", {
                "k": big, "form": rank0, "w2": "II", "ks": 0}), p],
            ["classify", p, p, "--isometry",
             write(tmp_path / "u.json", {"k": big, "matrix": []})]]
    for argv in runs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        [line] = captured.err.splitlines()
        assert str(bsgroup.MAX_JSON_K) in line and "|k|" in line, argv
        assert len(line) < 100, argv


def assert_digit_limit(capsys, path, message):
    """form and realize --try-invert on the form at path, each with and
    without --pretty, exit 2 with the one line "error: " + message: the
    ring elements are written, or flattened, after the command ran."""
    for argv in (["form"], ["form", "--pretty"], ["realize"],
                 ["realize", "--pretty"]):
        code = cli.main(argv + ["--try-invert", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == "error: %s\n" % message, argv


def test_result_beyond_digit_limit_exits_2(capsys, tmp_path):
    """[[1, u], [u*, u*u + 1]] with u = a^900 + b at k = 10^5 is read,
    and --try-invert finds an inverse with the term b^(-k^900) a^900,
    whose num has 4501 digits: more than the 4300 that str() writes and
    the readers accept.  The error names that limit, not Python's
    remedy."""
    k = 10 ** 5
    u = GroupRingElt.from_word(k, "a" * 900) + GroupRingElt.from_word(k, "b")
    one = GroupRingElt.one(k)
    f = HermitianForm(k, [[one, u], [u.involute(), u.involute() * u + one]])
    path = write(tmp_path / "form.json", f.to_json())
    assert_digit_limit(capsys, path, "a group element of the result has a"
                       " num of more than 4300 digits, the most the JSON"
                       " readers accept")


def test_result_coefficient_beyond_digit_limit_exits_2(capsys, tmp_path):
    """The constant form [[0, 0, 1], [0, 1, a], [1, a, 0]] with
    a = 10^4000 is read (4001 digits), and --try-invert finds its
    inverse, whose entry a^2 has 8001 digits.  The error names the
    coeff and the limit, not Python's remedy."""
    a = 10 ** 4000
    M = [[0, 0, 1], [0, 1, a], [1, a, 0]]
    f = HermitianForm(2, [[GroupRingElt.one(2) * x for x in row] for row in M])
    path = write(tmp_path / "form.json", f.to_json())
    assert_digit_limit(capsys, path, "a ring element of the result has a"
                       " coeff of more than 4300 digits, the most the JSON"
                       " readers accept")


def test_lgroups_beyond_digit_limit_exits_2(capsys):
    """At k = -(10^4300 - 1), L5 holds Z/(k - 1) of order 10^4300, with
    4301 digits: one more than str() writes and the readers accept.
    The error names the field and the limit, not Python's remedy; one
    digit less, at either sign, is written."""
    code = cli.main(["lgroups", "--k=-" + "9" * 4300])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line == ("error: the group L5 of the result has a torsion"
                    " coefficient of more than 4300 digits, the most the"
                    " JSON readers accept")
    for k in (int("9" * 4300), -int("9" * 4299)):
        doc = run_json(capsys, "lgroups", "--k=%d" % k)
        assert doc["lgroups"]["L5"]["torsion"] == [str(abs(k - 1))]


@pytest.mark.parametrize("argv, code", [
    (["form"], 2),
    (["form", "--try-invert"], 0),
    (["realize", "--try-invert"], 0),
], ids=["form", "form-try-invert", "realize-try-invert"])
@pytest.mark.parametrize("k", [bsgroup.MAX_JSON_K, -bsgroup.MAX_JSON_K])
def test_largest_accepted_element_within_budget(tmp_path, argv, code, k):
    """The form of element_limit_form at |t| = pow = the limit and
    |k| = its limit: the wrong certificate is rejected, and without it
    --try-invert finds the inverse; each run takes under 2 s and 100 MB
    in a fresh interpreter."""
    doc = element_limit_form(bsgroup.MAX_JSON_EXPONENT, k)
    assert bsgroup.MAX_JSON_EXPONENT == max(
        max(abs(int(e["elt"]["t"])), e["elt"]["pow"])
        for e in doc["matrix"][0][0]["terms"])
    if code == 0:
        del doc["inverse"]
    path = write(tmp_path / "form.json", doc)
    out, err = tmp_path / "out.json", tmp_path / "err.txt"
    got, seconds, rss_mb = spawn_measured(argv + [path], out, err)
    assert got == code, err.read_text()
    assert seconds <= 2.0
    assert rss_mb <= 100.0
    if code == 0:
        assert err.read_text() == ""
        json.loads(out.read_text())
    else:
        assert err.read_text() == (
            "error: inverse certificate failed verification\n")


def readme_blocks():
    """The first two code blocks of the README's "Command line"
    section: the command list and the sample output."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    return section.split("```")[1], section.split("```")[3]


def readme_commands():
    """The bsfour lines of the command list, with the [optional] parts
    and # comments dropped."""
    block = readme_blocks()[0]
    lines = []
    for line in block.splitlines():
        line = re.sub(r"\[[^]]*\]", "", line.split("#")[0]).strip()
        if line.startswith("bsfour "):
            lines.append(shlex.split(line)[1:])
    return lines


def test_readme_commands_run(capsys):
    ran = set()
    for argv in readme_commands():
        if any(a.endswith(".json") for a in argv):
            continue  # needs a document on disk
        code, out = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)
        ran.add(argv[0])
    assert ran == {"group", "ring", "fox", "homology", "lgroups", "bordism",
                   "report"}


def test_readme_sample_output(capsys):
    examples = readme_blocks()[1].strip().split("$ ")[1:]
    assert len(examples) == 2
    for example in examples:
        command, *shown = example.strip().splitlines()
        code, out = run(capsys, *shlex.split(command)[1:])
        assert code == 0
        assert out.splitlines() == shown
