"""Normal forms in the solvable Baumslag-Solitar group B(k).

B(k) = <a, b | a b a^-1 = b^k>.  For k != 0 every element is b^x a^t
with x in Z[1/k], and multiplication twists the x-part:

    (x1, t1) (x2, t2) = (x1 + k^t1 * x2, t1 + t2).

x is stored as num / |k|^pow with pow == 0 or |k| not dividing num, so
each element has exactly one representation.  The degenerate parameters
ride along: B(0) = Z (b dies), B(1) = Z^2, B(-1) is the Klein bottle
group; all are handled by the same reduction.

An element is the kernel's plain tuple (num, pow, t), and the group law
is _kernel.bs_mul and bs_inv.  This module holds what surrounds them:
free words, which are strings over a, A, b, B with A = a^-1 and
B = b^-1, and the JSON reading and writing of elements with its limits.

The terms of every ring-element, matrix, form and descriptor document
are read by one loop, _json_terms, with a memo that belongs to one
document read: HermitianForm.from_json and matrix_from_json open it for
all the entries of a document, GroupRingElt.from_json for a ring
element read on its own, and it is dropped with the read, never kept
across reads.  It maps a coeff of type str to its int, and a
(num, pow, t, k) of types exactly str, int, str and int to the reduced
element.  Only values of those types are looked up or stored, so a
True, a 1.0 or an int num never meets an entry made for another type,
an unhashable value is never hashed, and k in the key keeps a cell over
another k apart.  A miss, or a value of any other type, runs the checks
in the order docs/schemas/element.md gives; a hit skips only checks
that the same values passed before (no check depends on k), so every
error is the one a read without the memo raises.  Elements are written by
_json_element, and whole ring elements by GroupRingElt.to_json or,
on the command line, straight from their sorted terms by cli._dumps.
"""

import sys
from operator import itemgetter

from . import _kernel
from .errors import BsfourError, SchemaError, WordSyntaxError

# Largest |t|, pow and |k| of a group element read from JSON.  A product
# of two elements builds powers of |k| as large as |k|^(|t| + pow).  On a
# 2-core x86 host, a 715-byte form document with a wrong certificate
# took 8 s to be rejected at t = 10^7, k = 3, and 6 s at t = 1000 and a
# 4000-digit k; at these limits the worst such document exits within a
# second (docs/schemas/element.md).
MAX_JSON_EXPONENT = 10000
MAX_JSON_K = 100000

_LETTERS = frozenset("aAbB")
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _json_decimal(value, owner, field):
    """The decimal string of an integer field of a result, or a one-line
    error that names the digit limit the JSON readers apply to it."""
    try:
        return str(value)
    except ValueError:  # str() and int() share the digit limit
        raise BsfourError(
            "%s of the result has a %s of more than %d digits, the most"
            " the JSON readers accept"
            % (owner, field, sys.get_int_max_str_digits())) from None


def _json_element(num, pow, t):
    return {"num": _json_decimal(num, "a group element", "num"),
            "pow": pow, "t": str(t)}


def _json_int(value, field):
    # str, the common case, first: the types are disjoint
    if isinstance(value, str):
        text = value.strip()
        stripped = text[1:] if text[:1] in "+-" else text
        if stripped.isascii() and stripped.isdigit():
            try:
                return int(text)
            except ValueError:  # longer than int() reads from a string
                raise SchemaError("field %r has too many digits"
                                  % field) from None
    elif isinstance(value, bool):
        raise SchemaError("field %r must be an integer string" % field)
    elif isinstance(value, int):
        return value
    raise SchemaError("field %r must be a decimal integer string" % field)


def _json_k(doc, missing):
    """The int field k of a ring-element, form, matrix or descriptor
    document, |k| within its limit whether it holds terms or not."""
    k = doc.get("k")
    if not isinstance(k, int) or isinstance(k, bool):
        raise SchemaError(missing)
    if abs(k) > MAX_JSON_K:
        raise SchemaError("field 'k' must have |k| <= %d" % MAX_JSON_K)
    return k


def _json_terms(items, k, memo):
    """Reduced (num, pow, t) -> nonzero coefficient, in order of first
    appearance, checked in the order docs/schemas/element.md gives; k
    was checked by _json_k.  memo belongs to one document read (see
    the module docstring) and is filled here."""
    acc = {}
    for item in items:
        if (not isinstance(item, dict) or len(item) != 2
                or "coeff" not in item or "elt" not in item):
            raise SchemaError("each term needs exactly 'coeff' and 'elt'")
        c = item["coeff"]
        if type(c) is str:
            c0 = memo.get(c)
            if c0 is None:
                c0 = memo[c] = _json_int(c, "coeff")
            c = c0
        else:
            c = _json_int(c, "coeff")
        doc = item["elt"]
        if not isinstance(doc, dict):
            raise SchemaError("group element must be a JSON object")
        if "num" not in doc or "pow" not in doc or "t" not in doc:
            raise SchemaError("group element missing field %r" % next(
                f for f in ("num", "pow", "t") if f not in doc))
        if len(doc) != 3:
            raise SchemaError("group element has an unknown field %r" % next(
                f for f in doc if f not in ("num", "pow", "t")))
        num, pw, t = doc["num"], doc["pow"], doc["t"]
        if type(num) is str and type(pw) is int and type(t) is str:
            key = (num, pw, t, k)
            g = memo.get(key)
            if g is None:
                g = memo[key] = _json_group_element(num, pw, t, k)
        else:
            g = _json_group_element(num, pw, t, k)
        acc[g] = acc.get(g, 0) + c
    return {g: c for g, c in acc.items() if c}


def _json_group_element(num, pw, t, k):
    num = _json_int(num, "num")
    t = _json_int(t, "t")
    if t > MAX_JSON_EXPONENT or t < -MAX_JSON_EXPONENT:
        raise SchemaError("field 't' must have |t| <= %d"
                          % MAX_JSON_EXPONENT)
    if not isinstance(pw, int) or isinstance(pw, bool) or pw < 0:
        raise SchemaError("pow must be a non-negative integer")
    if pw > MAX_JSON_EXPONENT:
        raise SchemaError("pow must be at most %d" % MAX_JSON_EXPONENT)
    return _kernel.bs_reduce(num, pw, t, k)


def check_word(word):
    if not isinstance(word, str):
        raise WordSyntaxError("word must be a string")
    bad = set(word) - _LETTERS
    if bad:
        raise WordSyntaxError("invalid letters %s; use a, A, b, B"
                              % "".join(sorted(bad)))
    return word


def eval_word(word, k):
    """Image of a free word under F(a, b) -> B(k), as the kernel's
    reduced tuple (num, pow, t)."""
    return _kernel.eval_word(check_word(word), k)


def free_reduce(word):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for ch in check_word(word):
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


# Canonical term order: by t, then pow, then num.
sort_key = itemgetter(2, 1, 0)
