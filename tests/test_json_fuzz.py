"""Property tests of the JSON readers that take outside documents.

The group element reader (GroupRingElt.from_json on a one-term ring
element, support.read_element), GroupRingElt.from_json and
hermform.matrix_from_json either return a value or raise SchemaError on
any document, never another exception, and the first two give what the
readers they replaced, kept in tests/support.py, give: the same terms in the same order, or the same
message; HermitianForm.from_json and ManifoldDescriptor.from_json raise
only BsfourError (a certificate that fails, an inconsistent descriptor).
Valid values survive to_json -> json.dumps -> from_json with identical
bytes.  The malformed documents are built from valid ones with fields
swapped for junk, so they reach every check of a reader, not only the
first; for forms and descriptors, whose checks need a hermitian matrix
and a certificate to get past, up to two nodes anywhere in a valid
document are replaced or deleted.

Form and matrix documents are read with one term memo per document;
with terms repeated and twinned (a field swapped for a value of another
type that compares equal, or for an unhashable []), in either order,
and cells moved to another k, they give what a read of each cell on
its own by the oracle gives: the same entries or the same first error.

The CLI's writer, cli._dumps, gives the bytes json.dumps(doc, indent=2)
gives on any document of dicts, lists, tuples, str, int, bool and None,
and raises TypeError on anything else.  A ring element in a document,
zero included, is written as json.dumps writes its to_json(), and a
number too long to write raises to_json's one-line error.
"""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bsfour import bsgroup, cli, hermform, intlinalg
from bsfour.bsgroup import MAX_JSON_EXPONENT, MAX_JSON_K, _json_element
from bsfour.errors import BsfourError, SchemaError
from bsfour.groupring import GroupRingElt
from bsfour.hermform import ARF_ASSERTED, ArfTag, HermitianForm
from bsfour.invariants import ManifoldDescriptor, realize

from support import (element, oracle_element_from_json, oracle_json_int,
                     oracle_json_matrix, oracle_ring_from_json,
                     random_unit_triangular, read_element)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)

# ks: values of k that elements are read over; any_k adds any integer,
# the first one past the limit among them.
ks = st.one_of(st.integers(-6, 6),
               st.sampled_from([-MAX_JSON_K, MAX_JSON_K]))
any_k = st.one_of(ks, st.integers(), st.just(MAX_JSON_K + 1))

junk = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

# Decimal strings, well-formed or nearly so: signs, padding, non-ASCII
# digits, exponents at and past the limits, more digits than int() reads.
int_texts = st.one_of(
    st.integers().map(str),
    st.integers(-MAX_JSON_EXPONENT - 2, MAX_JSON_EXPONENT + 2).map(str),
    st.sampled_from(["", "-", "+7", " 12 ", "1_000", "0x1f", "1e3", "²",
                     "５", "١٢", "9" * 5000, "-" + "9" * 5000]),
    st.text(alphabet="0123456789+- ²٣", max_size=6))


exponents = st.one_of(
    st.integers(-2, 20),
    st.sampled_from([MAX_JSON_EXPONENT, MAX_JSON_EXPONENT + 1, 10 ** 30]))


def mostly(usual, *other):
    """usual in three draws of four, else one of other."""
    return st.integers(0, 3).flatmap(
        lambda i: usual if i else st.one_of(*other))


def field(valid):
    return mostly(valid, junk)


def document(fields):
    """Mostly every field present, else some missing, one unknown field
    added, or not an object at all."""
    return mostly(st.fixed_dictionaries(fields),
                  st.fixed_dictionaries({}, optional=fields),
                  st.fixed_dictionaries(dict(fields, junk=junk)),
                  junk)


element_docs = document({"num": field(st.one_of(int_texts, st.integers())),
                         "pow": field(exponents),
                         "t": field(st.one_of(int_texts, st.integers()))})


def ring_docs(k):
    term = document({"coeff": field(int_texts), "elt": element_docs})
    return document({"k": field(k), "terms": field(st.lists(term,
                                                             max_size=3))})


def matrix_docs(k):
    rows = st.lists(st.lists(ring_docs(st.just(k)), max_size=2), max_size=2)
    return document({"k": field(st.just(k)), "matrix": field(rows)})


def reads_or_rejects(read, doc, errors=SchemaError):
    try:
        return read(doc)
    except errors:
        return None


def round_trip(doc, read, write):
    """read(json.loads(json.dumps(doc))), checking that write gives the
    same bytes back."""
    text = json.dumps(doc)
    value = read(json.loads(text))
    assert json.dumps(write(value)) == text
    return value


@FUZZ
@given(element_docs, any_k)
def test_element_reader_raises_only_schema_error(doc, k):
    g = reads_or_rejects(lambda d: read_element(d, k), doc)
    if g is not None:
        assert abs(k) <= MAX_JSON_K
        round_trip(_json_element(*g), lambda d: read_element(d, k),
                   lambda g: _json_element(*g))


@FUZZ
@given(ring_docs(any_k))
def test_ring_reader_raises_only_schema_error(doc):
    p = reads_or_rejects(GroupRingElt.from_json, doc)
    if p is not None:
        round_trip(p.to_json(), GroupRingElt.from_json, GroupRingElt.to_json)


@FUZZ
@given(ks.flatmap(matrix_docs))
def test_matrix_reader_raises_only_schema_error(doc):
    read = reads_or_rejects(hermform.matrix_from_json, doc)
    if read is not None:
        k, M = read
        round_trip(hermform.matrix_to_json(M, k), hermform.matrix_from_json,
                   lambda km: hermform.matrix_to_json(km[1], km[0]))


def outcome(read, doc):
    """What read does with doc: its value as plain data, or the message
    of the SchemaError it raises."""
    try:
        value = read(doc)
    except SchemaError as exc:
        return "SchemaError", str(exc)
    if isinstance(value, GroupRingElt):
        return value.k, list(value.terms.items())  # insertion order too
    return type(value), value


# Terms over a few elements that reduce to the same key at k = +-2, with
# coefficients that cancel, so that sums, zero sums and keys that come
# back after one are read.
colliding_terms = st.lists(st.fixed_dictionaries({
    "coeff": st.integers(-2, 2).map(str),
    "elt": st.sampled_from([{"num": "1", "pow": 0, "t": "0"},
                            {"num": "2", "pow": 1, "t": "0"},
                            {"num": "4", "pow": 2, "t": "0"},
                            {"num": "0", "pow": 3, "t": "1"},
                            {"num": "0", "pow": 0, "t": "1"}])}), max_size=8)


@FUZZ
@given(st.one_of(ring_docs(any_k),
                 st.builds(lambda k, terms: {"k": k, "terms": terms},
                           st.sampled_from([2, -2, 3]), colliding_terms)))
def test_ring_reader_agrees_with_its_oracle(doc):
    assert outcome(GroupRingElt.from_json, doc) == outcome(
        oracle_ring_from_json, doc)


@FUZZ
@given(element_docs, any_k)
def test_element_reader_agrees_with_its_oracle(doc, k):
    assert outcome(lambda d: read_element(d, k), doc) == outcome(
        lambda d: oracle_element_from_json(d, k), doc)


@FUZZ
@given(st.one_of(int_texts, junk,
                 st.sampled_from(["9" * 4300, "-" + "9" * 4300,
                                  "9" * 4301, "+" + "9" * 4300])),
       st.sampled_from(["num", "t", "coeff"]))
def test_int_reader_agrees_with_its_oracle(value, name):
    assert outcome(lambda v: bsgroup._json_int(v, name), value) == outcome(
        lambda v: oracle_json_int(v, name), value)


elements = st.builds(
    lambda num, pw, t, k: (element(num, pw, t, k), k),
    st.integers(), st.integers(0, MAX_JSON_EXPONENT),
    st.integers(-MAX_JSON_EXPONENT, MAX_JSON_EXPONENT), ks)


def ring_elts(k):
    g = st.builds(lambda num, pw, t: element(num, pw, t, k),
                  st.integers(), st.integers(0, MAX_JSON_EXPONENT),
                  st.integers(-MAX_JSON_EXPONENT, MAX_JSON_EXPONENT))
    return st.dictionaries(g, st.integers(), max_size=4).map(
        lambda terms: GroupRingElt(k, terms))


@FUZZ
@given(elements)
def test_element_round_trip_is_byte_identical(gk):
    g, k = gk
    assert round_trip(_json_element(*g), lambda d: read_element(d, k),
                      lambda g: _json_element(*g)) == g


@FUZZ
@given(ks.flatmap(ring_elts))
def test_ring_round_trip_is_byte_identical(p):
    assert round_trip(p.to_json(), GroupRingElt.from_json,
                      GroupRingElt.to_json) == p


@FUZZ
@given(ks.flatmap(lambda k: st.lists(st.lists(ring_elts(k), min_size=2,
                                              max_size=2),
                                     min_size=2, max_size=2)
                  .map(lambda rows: (k, rows))))
def test_matrix_round_trip_is_byte_identical(k_rows):
    k, rows = k_rows
    assert round_trip(hermform.matrix_to_json(rows, k),
                      hermform.matrix_from_json,
                      lambda km: hermform.matrix_to_json(km[1], km[0])) == (
        k, tuple(tuple(row) for row in rows))


# Certificated forms of rank 1 to 8, moved by a random unit triangular
# transport with one-term entries, with the Arf tag kept, dropped or
# asserted.
FORM_BASES = (
    lambda k: hermform.hyperbolic(k, 1),
    lambda k: hermform.even_reference_form(k, 2),
    lambda k: hermform.from_integer_matrix(k, [[1]]),
    lambda k: hermform.from_integer_matrix(k, [[1, 0], [0, -1]]),
    lambda k: hermform.from_integer_matrix(k, intlinalg.e8_matrix()),
)
arf_tags = st.one_of(st.just("keep"), st.none(),
                     st.builds(ArfTag, st.just(ARF_ASSERTED),
                               st.integers(0, 1)))


def forms(k):
    def build(base, seed, arf):
        f = base(k)
        U = random_unit_triangular(random.Random(seed), k, f.rank,
                                   max_terms=1)
        g = hermform.congruence(f, U)
        return HermitianForm(k, g.matrix, g.inverse,
                             f.arf if arf == "keep" else arf)
    return st.builds(build, st.sampled_from(FORM_BASES),
                     st.integers(0, 2 ** 16), arf_tags)


def descriptor_docs(k):
    """Mostly a descriptor that realize lists for the form, else the
    form with any w2-type and KS value, consistent or not."""
    def decorate(f):
        return mostly(
            st.sampled_from(realize(k, f)).map(ManifoldDescriptor.to_json),
            st.builds(lambda w2, ks: {"k": k, "form": f.to_json(),
                                      "w2": w2, "ks": ks},
                      st.sampled_from(["I", "II", "III"]),
                      st.sampled_from([0, 1, None])))
    return forms(k).flatmap(decorate)


DELETE = object()
# Replacements: junk, integers and exponents near the limits, and the
# values that descriptor and Arf fields take, so that a swap can also
# turn a valid document into another valid or inconsistent one.
replacements = st.one_of(
    junk, int_texts, exponents, st.just(DELETE),
    st.sampled_from(["I", "II", "III", 0, 1, None, 1.0, True,
                     hermform.ARF_EXTENDED, ARF_ASSERTED]))


def nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


def replaced(doc, path, value):
    """A copy of doc with the node at path set to value, or removed for
    DELETE."""
    if not path:
        return {} if value is DELETE else value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def tampered(draw, docs):
    """A valid document with up to two nodes replaced or deleted, half
    of them at depth at most 2 (the fields of a descriptor, a form and
    its Arf tag), which a uniform draw over all nodes would rarely hit."""
    doc = draw(docs)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(nodes(doc))
        if draw(st.booleans()):
            paths = [path for path in paths if len(path) <= 2]
        path = draw(st.sampled_from(paths))
        doc = replaced(doc, path, draw(replacements))
    return doc


@FUZZ
@given(ks.flatmap(lambda k: tampered(forms(k).map(HermitianForm.to_json))))
def test_form_reader_raises_only_package_errors(doc):
    f = reads_or_rejects(HermitianForm.from_json, doc, BsfourError)
    if f is not None:
        round_trip(f.to_json(), HermitianForm.from_json,
                   HermitianForm.to_json)


@FUZZ
@given(ks.flatmap(lambda k: tampered(descriptor_docs(k))))
def test_descriptor_reader_raises_only_package_errors(doc):
    d = reads_or_rejects(ManifoldDescriptor.from_json, doc, BsfourError)
    if d is not None:
        round_trip(d.to_json(), ManifoldDescriptor.from_json,
                   ManifoldDescriptor.to_json)


@st.composite
def twinned(draw, docs):
    """A valid form or matrix document with two to six of its terms
    replaced by one term of the common types (str coeff, num and t, int
    pow) or by a twin of it: one field, the same in every twin of the
    document, swapped for a value of another type that compares equal,
    or for an unhashable [].  Sometimes a cell is moved to another k as
    well."""
    doc = draw(docs)
    k = doc["k"]
    term = {"coeff": "1",
            "num": draw(st.sampled_from(["0", "1", "3"])),
            "pow": draw(st.sampled_from([0, 1])),
            "t": draw(st.sampled_from(["0", "1"]))}
    twins = {"coeff": [1, 1.0, True, []],
             "num": [int(term["num"]), []],
             "pow": [bool(term["pow"]), float(term["pow"]), []],
             "t": [int(term["t"]), []]}
    name = draw(st.sampled_from(sorted(twins)))  # the field twinned
    paths = [path for path in nodes(doc)
             if len(path) > 1 and path[-2] == "terms"]
    for _ in range(draw(st.integers(2, 6)) if paths else 0):
        fields = dict(term)
        fields[name] = draw(st.sampled_from([term[name]] + twins[name]))
        doc = replaced(doc, draw(st.sampled_from(paths)), {
            "coeff": fields.pop("coeff"), "elt": fields})
    if draw(st.integers(0, 7)) == 0:
        paths = [path for path in nodes(doc)
                 if len(path) == 4 and path[-1] == "k"]
        if paths:
            doc = replaced(doc, draw(st.sampled_from(paths)),
                           draw(st.sampled_from([-k, k + 1])))
    return doc


def read_outcome(read, doc):
    """What read does with a form or matrix document: the entries read
    as plain data, or the type and message of the error it raises."""
    def plain(rows):
        return None if rows is None else [
            [(p.k, list(p.terms.items())) for p in row] for row in rows]
    try:
        value = read(doc)
    except BsfourError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, HermitianForm):
        return (value.k, plain(value.matrix), plain(value.inverse),
                value.arf)
    k, rows = value
    return k, plain(rows)


def per_cell(read):
    """read, with each cell read on its own by the oracle."""
    def oracle_read(doc):
        with mock.patch.object(hermform, "_json_matrix",
                               oracle_json_matrix):
            return read(doc)
    return oracle_read


def form_and_matrix_docs(k):
    return forms(k).flatmap(lambda f: st.sampled_from([
        (HermitianForm.from_json, f.to_json()),
        (hermform.matrix_from_json, hermform.matrix_to_json(f.matrix, k)),
        (hermform.matrix_from_json, hermform.matrix_to_json(f.inverse, k))
        if f.inverse is not None else
        (HermitianForm.from_json, f.to_json())]))


@settings(FUZZ, max_examples=300)
@given(ks.flatmap(form_and_matrix_docs)
       .flatmap(lambda rd: st.tuples(st.just(rd[0]),
                                     twinned(st.just(rd[1])))))
def test_memo_reader_agrees_with_the_per_cell_oracle(read_doc):
    read, doc = read_doc
    assert read_outcome(read, doc) == read_outcome(per_cell(read), doc)


TWIN_ORDERS = [(name, first, second)
               for name, values in (("coeff", ["1", 1, 1.0, True, []]),
                                    ("pow", [1, True, 1.0, []]),
                                    ("pow", [0, False, 0.0]),
                                    ("num", ["1", 1, []]),
                                    ("t", ["0", 0, []]))
               for first in values for second in values
               if first is not second]


@pytest.mark.parametrize("name, first, second", TWIN_ORDERS,
                         ids=["%s-%r-%r" % case for case in TWIN_ORDERS])
def test_memo_reader_keeps_twins_apart(name, first, second):
    # the first and the last term of a transported E8 form over k = 3
    # become one element with the named field first and second, each
    # twin in both orders; the form and its matrix alone are read
    f = hermform.congruence(
        hermform.from_integer_matrix(3, intlinalg.e8_matrix()),
        random_unit_triangular(random.Random(27), 3, 8, max_terms=1))
    for read, doc in ((HermitianForm.from_json, f.to_json()),
                      (hermform.matrix_from_json,
                       hermform.matrix_to_json(f.matrix, 3))):
        paths = [path for path in nodes(doc)
                 if len(path) > 1 and path[-2] == "terms"]
        for path, value in ((paths[0], first), (paths[-1], second)):
            term = {"coeff": "1", "elt": {"num": "1", "pow": 1, "t": "0"}}
            (term if name == "coeff" else term["elt"])[name] = value
            doc = replaced(doc, path, term)
        assert read_outcome(read, doc) == read_outcome(per_cell(read), doc)


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_readers_reject_non_integer_ks_and_arf(value):
    # 1.0 and True compare equal to 1 and used to be read, and written
    # back, as they came
    f = hermform.from_integer_matrix(3, [[1]])
    doc = realize(3, f)[1].to_json()
    doc["ks"] = value
    with pytest.raises(SchemaError):
        ManifoldDescriptor.from_json(doc)
    doc = hermform.hyperbolic(3, 1).to_json()
    doc["arf"] = {"mode": ARF_ASSERTED, "value": value}
    with pytest.raises(SchemaError):
        HermitianForm.from_json(doc)


# Strings with everything the writer escapes: quotes, backslashes,
# control and non-ASCII characters, lone surrogates, astral characters.
escapes = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\n\t\x1f\x7f\u00e9\u2028\ud800\udfff'
                    '\U0001f600')), max_size=10)

json_docs = st.recursive(
    st.none() | st.booleans() | escapes
    | st.integers() | st.integers(10 ** 1000, 10 ** 1500)
    | st.integers(-(10 ** 1500), -(10 ** 1000)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(escapes, inner, max_size=4),
    max_leaves=24)


@FUZZ
@given(json_docs)
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def around(inner):
    """Documents with inner as one of their values, one level down."""
    return st.one_of(st.builds(lambda a, x: [a, x], json_docs, inner),
                     st.builds(lambda x: (x,), inner),
                     st.builds(lambda a, x: {"a": a, "x": x},
                               json_docs, inner))


# json.dumps writes a float, and the key 1 as "1"; the writer
# takes neither.
not_json = st.sampled_from([1.5, -0.0, float("inf"), {1, 2}, b"\x00",
                            bytearray(b"x"), {1: "int key"}, {None: 0},
                            {(1,): 0}, object()])


@FUZZ
@given(st.recursive(not_json, around, max_leaves=6))
def test_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)


def json_twin(doc):
    """doc with each ring element in it replaced by its to_json()."""
    if isinstance(doc, GroupRingElt):
        return doc.to_json()
    if isinstance(doc, dict):
        return {key: json_twin(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(json_twin(value) for value in doc)
    return doc


# Documents with ring elements, the zero element among them, at any
# depth, as the form and realize commands build them.
ring_leaves = st.one_of(ks.flatmap(ring_elts), ks.map(GroupRingElt.zero))


@FUZZ
@given(st.recursive(ring_leaves | json_docs, around, max_leaves=8))
def test_writer_writes_ring_elements_as_their_to_json(doc):
    assert cli._dumps(doc) == json.dumps(json_twin(doc), indent=2)


@settings(FUZZ, max_examples=50)
@given(ks.flatmap(forms))
def test_writer_writes_form_documents_as_to_json(f):
    # what form and realize write, against the library's plain dicts
    out = realize(f.k, f)
    assert cli._dumps(f.to_json(cli._itself)) == json.dumps(f.to_json(),
                                                            indent=2)
    assert cli._dumps([d.to_json(cli._itself) for d in out]) == json.dumps(
        [d.to_json() for d in out], indent=2)


def test_writer_writes_each_ring_element_once_per_indentation(monkeypatch):
    # realize puts one form in every descriptor: the writer sorts the
    # terms of an element once per call and indentation, and the text
    # is still json.dumps's; a second call sorts them again
    keyed = []
    real = bsgroup.sort_key

    def sort_key(g):
        keyed.append(g)
        return real(g)

    monkeypatch.setattr(bsgroup, "sort_key", sort_key)
    p = GroupRingElt(3, {(1, 0, 2): 4, (0, 0, 0): -1, (2, 1, -1): 7})
    f = hermform.from_integer_matrix(3, [[1, 0], [0, -1]])
    # the matrix and its inverse, two descriptors: one term each at
    # (0, 0) and (1, 1) of two matrices, written once
    docs = ({"a": [p, p, [p]], "b": p},
            [d.to_json(cli._itself) for d in realize(3, f)])
    for doc, written in zip(docs, (3 * 3, 2 * 2)):
        want = json.dumps(json_twin(doc), indent=2)
        for _ in range(2):
            keyed.clear()
            assert cli._dumps(doc) == want
            assert len(keyed) == written


@pytest.mark.parametrize("terms, message", [
    ({(3 * 10 ** 4400 + 1, 0, 0): 1}, "a group element of the result has a"
     " num of more than 4300 digits, the most the JSON readers accept"),
    ({(0, 0, 0): 10 ** 4400}, "a ring element of the result has a coeff"
     " of more than 4300 digits, the most the JSON readers accept")],
    ids=["num", "coeff"])
def test_writer_names_the_digit_limit_as_to_json_does(terms, message):
    # a short term first, so the long one is not the first one written
    p = GroupRingElt(2, {**terms, (1, 0, -1): 5})
    with pytest.raises(BsfourError) as caught:
        p.to_json()
    assert str(caught.value) == message
    for doc in (p, [GroupRingElt.one(2), p], {"form": {"matrix": [[p]]}}):
        with pytest.raises(BsfourError) as caught:
            cli._dumps(doc)
        assert str(caught.value) == message
