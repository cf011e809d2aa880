"""The worked examples of docs/schemas, read back.

Each schema page holds one JSON worked example.  Every example goes
through the reader of its document kind and is compared with what the
library or the command the page names writes, so a page cannot drift
from the code.
"""

import json
import pathlib
import re

from bsfour import cli, hermform
from bsfour.bsgroup import _json_element
from bsfour.groupring import GroupRingElt
from bsfour.hermform import HermitianForm
from bsfour.invariants import ManifoldDescriptor

from support import read_element

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
PAGES = ("abelian-group", "classifier-output", "descriptor", "element",
         "form", "matrix", "ring-element")


def example(page):
    blocks = re.findall(r"```json\n(.*?)```",
                        (SCHEMAS / (page + ".md")).read_text(), re.S)
    assert len(blocks) == 1, page
    return json.loads(blocks[0])


def run_json(capsys, *argv):
    capsys.readouterr()
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_every_page_with_an_example_is_read():
    pages = {p.stem for p in SCHEMAS.glob("*.md")
             if "```json" in p.read_text()}
    assert pages == set(PAGES)


def test_element_example(capsys):
    doc = example("element")
    g = read_element(doc, 2)
    assert _json_element(*g) == doc
    out = run_json(capsys, "group", "--k", "2", "--word", "Aba")
    assert out["element"] == doc


def test_ring_element_example(capsys):
    doc = example("ring-element")
    assert GroupRingElt.from_json(doc).to_json() == doc
    out = run_json(capsys, "ring", "--k", "2", "--expr", "1 + 2*ba - aB")
    assert out["element"] == doc


def test_matrix_example():
    doc = example("matrix")
    k, rows = hermform.matrix_from_json(doc)
    assert (k, len(rows), len(rows[0])) == (2, 2, 2)
    assert hermform.matrix_to_json(rows, k) == doc


def test_form_example(capsys, tmp_path):
    doc = example("form")
    f = HermitianForm.from_json(doc)
    assert f.inverse is not None
    assert f.to_json() == doc == hermform.hyperbolic(2, 1).to_json()
    path = write(tmp_path, "h.json", doc)
    for extra in ((), ("--try-invert",)):
        out = run_json(capsys, "form", path, *extra)
        assert out["form"] == doc and out["summary"]["certificated"]
        out = run_json(capsys, "realize", path, *extra)
        assert out["count"] >= 1
        for d in out["descriptors"]:
            assert d["form"] == doc


def test_descriptor_example():
    doc = example("descriptor")
    assert ManifoldDescriptor.from_json(doc).to_json() == doc


def test_abelian_group_example(capsys):
    out = run_json(capsys, "homology", "--k", "3")
    assert example("abelian-group") == out["closed_form"]["H1"]


def test_classifier_output_example(capsys, tmp_path):
    path = write(tmp_path, "d.json", example("descriptor"))
    out = run_json(capsys, "classify", path, path)
    assert example("classifier-output") == out

