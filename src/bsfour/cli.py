"""Command-line front end.

JSON on stdout by default, aligned text with --pretty.  Exit codes:
0 success, 2 invalid input (schema, word syntax, bad certificates, a
file that is not UTF-8 JSON or is nested too deeply to read), 3 a
descriptor that is mathematically inconsistent, 64 usage errors.
Output is deterministic: ring terms are emitted in the canonical
(a-exponent, denominator-exponent, numerator) order and every integer
that can grow without bound is a decimal string.  The JSON is written
with two-space indentation, one scalar per line, keys in insertion
order and non-ASCII characters escaped as \\uXXXX: byte for byte what
the json module writes with indent=2, here written by _dumps in one
pass, with one dispatch on each value's type.  The form documents of
form and realize carry the ring elements themselves
(HermitianForm.to_json with entry _itself), and _dumps writes each one
from its sorted terms, through the %-templates of its indentation,
made once per process, as the text of its to_json(); --pretty
flattens that to_json().  A number too long to write makes the
command exit 2 with to_json's one-line error.

main(argv) may be called repeatedly in one process, as the benchmark
and the tests do; every call shares the one parser built at import.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import _kernel, bsgroup, foxchain, hermform, intlinalg, invariants
from .errors import (
    BsfourError,
    GroupMismatchError,
    InconsistentDescriptorError,
    SchemaError,
)
from .groupring import GroupRingElt
from .hermform import HermitianForm
from .invariants import W2Type

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 64

# Largest |k| accepted by the commands that build the Fox complex
# (homology, bordism, each end of report --k-range).  The complex has
# O(|k|) terms; homology --k 100000 takes about 0.25 s and 32 MB.
MAX_CHAIN_K = 100000
# report builds one complex per k of its range, so a row costs O(|k|)
# and the range is bounded by the sum of |k| over it.  At the limit,
# 99990..100000 and -100000..-99990 each took about 1.6 s and 36 MB.
MAX_REPORT_K_SUM = 1100000
# fox prints the free derivatives, O(k^2) characters of words; at the
# limit it writes 9.8 MB in about 0.2 s and 49 MB.  The output, not the
# time, is what bounds k here.
MAX_FOX_K = 3000
# Longest --word and --times of group, and --expr of ring; both
# commands accept |k| <= bsgroup.MAX_JSON_K = 10^5.  A word of L letters
# evaluates to b^(num / |k|^pow) a^t with |num| <= L * |k|^L and
# pow <= L, so each letter adds at most 5 decimal digits at |k| = 10^5.
# group multiplies two words, 800 letters in all, and no term of an
# expression is longer than the expression: num and |k|^pow have at
# most 5 * 800 + 4 = 4004 digits, within the 4300 that str() writes.
MAX_WORD_LENGTH = 400
MAX_EXPR_LENGTH = 800


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _check_k(k, limit, command):
    if abs(k) > limit:
        raise SchemaError("%s accepts |k| <= %d, got k=%d"
                          % (command, limit, k))
    return k


def _check_length(text, limit, option, command):
    if text is not None and len(text) > limit:
        raise SchemaError("%s accepts %s of at most %d characters, got %d"
                          % (command, option, limit, len(text)))


def _load_json(path):
    """The document in the file at path.  A file that is not UTF-8
    JSON, holds a number of too many digits or is nested too deeply to
    read raises SchemaError with one line that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            reason = "JSON nested too deeply to read"
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            reason = str(exc)
        except ValueError:  # int() refused a number of too many digits
            reason = ("a JSON number has more than %d digits, the most"
                      " the reader accepts" % sys.get_int_max_str_digits())
    raise SchemaError("%s: %s" % (path, reason))


def _cmd_group(args):
    k = _check_k(args.k, bsgroup.MAX_JSON_K, "group")
    _check_length(args.word, MAX_WORD_LENGTH, "--word", "group")
    _check_length(args.times, MAX_WORD_LENGTH, "--times", "group")
    g = bsgroup.eval_word(args.word, k)
    if args.times is not None:
        g = _kernel.bs_mul(g, bsgroup.eval_word(args.times, k), k)
    if args.invert:
        g = _kernel.bs_inv(g, k)
    return {"k": k, "element": bsgroup._json_element(*g),
            "display": str(GroupRingElt.monomial(k, g))}


def _cmd_ring(args):
    _check_k(args.k, bsgroup.MAX_JSON_K, "ring")
    _check_length(args.expr, MAX_EXPR_LENGTH, "--expr", "ring")
    p = GroupRingElt.parse(args.k, args.expr)
    if args.involute:
        p = p.involute()
    return {"k": args.k, "element": p.to_json(), "display": str(p),
            "augmentation": str(p.augment()),
            "identity_coefficient": str(p.identity_coefficient())}


def _free_terms(p):
    return [{"coeff": str(c), "word": w} for w, c in p.sorted_terms()]


def _cmd_fox(args):
    k = _check_k(args.k, MAX_FOX_K, "fox")
    relator = foxchain.relator_word(k)
    da = foxchain.fox_derivative(relator, "a")
    db = foxchain.fox_derivative(relator, "b")
    return {"k": k, "relator": relator,
            "derivatives": {
                "a": {"display": str(da), "terms": _free_terms(da)},
                "b": {"display": str(db), "terms": _free_terms(db)}},
            "complex": foxchain.build_complex(k).to_json()}


def _homology_pair(k, augmented, modulus):
    """The closed-form and the chain-complex homology groups in degrees
    0-2; augmented is foxchain.tensor_trivial of the complex at k."""
    closed = [invariants.homology_closed_form(k, d, modulus=modulus)
              for d in (0, 1, 2)]
    return closed, intlinalg.homology_of_complex(*augmented, modulus)


def _cmd_homology(args):
    modulus = args.mod or 0
    k = _check_k(args.k, MAX_CHAIN_K, "homology")
    augmented = foxchain.tensor_trivial(foxchain.build_complex(k))
    closed, chain = _homology_pair(k, augmented, modulus)
    return {"k": args.k,
            "coefficients": "Z" if modulus == 0 else "Z/2",
            "closed_form": {"H%d" % d: g.to_json()
                            for d, g in enumerate(closed)},
            "chain_complex": {"H%d" % d: g.to_json()
                              for d, g in enumerate(chain)},
            "agree": closed == chain}


def _cmd_lgroups(args):
    # L5 holds Z/(k - 1), whose order is written as a decimal string
    bsgroup._json_decimal(args.k - 1, "the group L5", "torsion coefficient")
    table = invariants.lgroup_table(args.k)
    return {"k": args.k, "lgroups": table.to_json(),
            "assembly": invariants.assembly_status(args.k, table).to_json()}


def _cmd_bordism(args):
    cx = foxchain.build_complex(_check_k(args.k, MAX_CHAIN_K, "bordism"))
    return invariants.stable_bordism_group(cx, W2Type(args.w2)).to_json()


def _itself(p):
    # the entry writer of the form documents the commands build: the
    # ring element itself, which _encode writes from its terms
    return p


def _form_summary(f):
    return {"k": f.k, "rank": f.rank,
            "parity": f.parity.value,
            "signature": f.signature,
            "certificated": f.inverse is not None,
            "arf": f.arf.to_json() if f.arf is not None else None}


def _read_form(path, try_invert):
    f = HermitianForm.from_json(_load_json(path))
    if try_invert and f.inverse is None:
        f = hermform.try_invert(f) or f
    return f


def _cmd_form(args):
    f = _read_form(args.file, args.try_invert)
    return {"summary": _form_summary(f), "form": f.to_json(_itself)}


def _cmd_classify(args):
    d1 = invariants.ManifoldDescriptor.from_json(_load_json(args.first))
    d2 = invariants.ManifoldDescriptor.from_json(_load_json(args.second))
    U = None
    if args.isometry is not None:
        uk, U = hermform.matrix_from_json(_load_json(args.isometry))
        if uk != d1.k:
            raise GroupMismatchError(
                "isometry matrix is over k=%d, descriptors over k=%d"
                % (uk, d1.k))
    return invariants.classify(d1, d2, isometry=U).to_json()


def _cmd_realize(args):
    f = _read_form(args.file, args.try_invert)
    out = invariants.realize(f.k, f)
    return {"k": f.k, "count": len(out),
            "descriptors": [d.to_json(_itself) for d in out]}


def _parse_range(spec):
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise SchemaError("k range must look like 'a..b'")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SchemaError("k range bounds must be integers") from None
    if lo > hi:
        raise SchemaError("k range A..B needs A <= B, got %s" % spec)
    return lo, hi


def _report_row(k):
    augmented = foxchain.tensor_trivial(foxchain.build_complex(k))
    closed, chain = _homology_pair(k, augmented, 0)
    closed2, chain2 = _homology_pair(k, augmented, 2)
    # the type II bordism group is 8Z + H2(B(k); Z/2), the latter from
    # this complex: what stable_bordism_group(cx, W2Type.II) would
    # compute again
    bordism = invariants.BordismDescription(k, W2Type.II, 8, chain2[2])
    table = invariants.lgroup_table(k)
    return {"k": k,
            "H0": str(closed[0]),
            "H1": str(closed[1]),
            "H2": str(closed[2]),
            "H2_mod2": str(closed2[2]),
            "whitehead": str(table.whitehead),
            "L4": str(table.l4),
            "L5": str(table.l5),
            "bordism": str(bordism),
            "oracle_check": ("ok" if closed == chain and closed2 == chain2
                             else "mismatch")}


def _cmd_report(args):
    lo, hi = _parse_range(args.k_range)
    for k in (lo, hi):
        _check_k(k, MAX_CHAIN_K, "report")
    total = sum(map(abs, range(lo, hi + 1)))
    if total > MAX_REPORT_K_SUM:
        raise SchemaError("report accepts a k range whose sum of |k| is at"
                          " most %d, got %d" % (MAX_REPORT_K_SUM, total))
    return {"k_range": args.k_range,
            "rows": [_report_row(k) for k in range(lo, hi + 1)]}


_REPORT_COLUMNS = ("k", "H0", "H1", "H2", "H2_mod2", "whitehead",
                   "L4", "L5", "bordism", "oracle_check")


def _report_table(doc):
    rows = [[str(row[c]) for c in _REPORT_COLUMNS] for row in doc["rows"]]
    widths = [max([len(c)] + [len(r[i]) for r in rows])
              for i, c in enumerate(_REPORT_COLUMNS)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(_REPORT_COLUMNS, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(line.rstrip() for line in lines)


@functools.cache
def _ring_templates(indent):
    """Per indentation of a ring element's own line, %-templates: the
    text of the zero element, and of any other the text up to its first
    term, the text of one term, the text between terms and the text
    after the last."""
    i1, i2 = indent + "  ", indent + "    "
    i3, i4 = i2 + "  ", i2 + "    "
    return ("{" + i1 + '"k": %d,' + i1 + '"terms": []' + indent + "}",
            "{" + i1 + '"k": %d,' + i1 + '"terms": [' + i2,
            "{" + i3 + '"coeff": "%d",' + i3 + '"elt": {' + i4 + '"num": "%d",'
            + i4 + '"pow": %d,' + i4 + '"t": "%d"' + i3 + "}" + i2 + "}",
            "," + i2,
            i1 + "]" + indent + "}")


def _encode_ring(p, indent, append, memo):
    """Pass to append the JSON text of p.to_json() at indent, written
    straight from p's sorted terms once: memo maps (id(p), indent) to
    the text."""
    key = (id(p), indent)
    text = memo.get(key)
    if text is None:
        zero, head, term, sep, tail = _ring_templates(indent)
        terms = p.terms
        if not terms:
            text = zero % p.k
        else:
            try:
                text = head % p.k + sep.join([
                    term % (terms[g], g[0], g[1], g[2])
                    for g in sorted(terms, key=bsgroup.sort_key)]) + tail
            except ValueError:  # a number of more than 4300 digits
                # raises the one-line error
                _encode(p.to_json(), indent, append, memo)
                return
        memo[key] = text
    append(text)


def _encode(value, indent, append, memo):
    """Pass to append, piece by piece, the JSON text of value with
    two-space indentation; indent is the line break and indentation
    that value's own line starts with.  One dispatch on the type, bool
    before int; a ring element goes to _encode_ring with memo, and each
    item of a container, after its separator and key, through a call."""
    if isinstance(value, GroupRingElt):
        _encode_ring(value, indent, append, memo)
    elif isinstance(value, str):
        append(_quote(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        if not value:
            append("{}" if keyed else "[]")
            return
        inner = indent + "  "
        sep = ("{" if keyed else "[") + inner
        for item in value.items() if keyed else value:
            if keyed:
                key, item = item
                append(sep + _quote(key) + ": ")  # TypeError unless str
            else:
                append(sep)
            sep = "," + inner
            _encode(item, inner, append, memo)
        append(indent + ("}" if keyed else "]"))
    else:
        raise TypeError("cannot write %s as JSON" % type(value).__name__)


def _dumps(doc):
    """The text the json module writes for doc with indent=2, byte for
    byte, built in one pass by _encode and joined once.  dict, list and
    tuple are the containers, str, int, bool and None the leaves, a
    GroupRingElt is written as its to_json(), and keys are str; anything
    else raises TypeError.  A ring element that doc holds more than once
    at one indentation, as the descriptors of realize hold one form, is
    written once and its text repeated."""
    out = []
    # keyed by id: doc holds every element it reaches until the call
    # returns, so no id is reused within it
    _encode(doc, "\n", out.append, {})
    return "".join(out)


def _is_group_doc(value):
    return isinstance(value, dict) and set(value) == {"free_rank", "torsion"}


def _flatten(value, path, lines):
    if isinstance(value, GroupRingElt):
        value = value.to_json()
    if _is_group_doc(value):
        group = intlinalg.AbelianGroup(
            value["free_rank"], tuple(int(t) for t in value["torsion"]))
        lines.append("%s: %s" % (path, group))
    elif isinstance(value, dict):
        for key, inner in value.items():
            _flatten(inner, "%s.%s" % (path, key) if path else key, lines)
    elif isinstance(value, list):
        if not value:
            lines.append("%s: []" % path)
        elif all(not isinstance(v, (dict, list, GroupRingElt))
                 for v in value):
            lines.append("%s: %s" % (path, ", ".join(str(v) for v in value)))
        else:
            for i, inner in enumerate(value):
                _flatten(inner, "%s[%d]" % (path, i), lines)
    else:
        lines.append("%s: %s" % (path, "-" if value is None else value))


def _render_pretty(command, doc):
    if command == "report":
        return _report_table(doc)
    lines = []
    _flatten(doc, "", lines)
    return "\n".join(lines)


def build_parser():
    parser = _Parser(
        prog="bsfour",
        description="Invariants of B(k) = <a, b | a b a^-1 = b^k> and of"
                    " the 4-manifolds carrying these fundamental groups.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, command=name)
        p.add_argument("--pretty", action="store_true",
                       help="aligned text instead of JSON")
        return p

    p = add("group", _cmd_group, "normal form of a word in B(k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--word", required=True,
                   help="word over a, A, b, B (capitals are inverses)")
    p.add_argument("--times", help="optional second word to multiply by")
    p.add_argument("--invert", action="store_true")

    p = add("ring", _cmd_ring, "evaluate a group-ring expression")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--expr", required=True,
                   help="e.g. '1 + 2*ba - aB'")
    p.add_argument("--involute", action="store_true")

    p = add("fox", _cmd_fox, "relator derivatives and the chain complex")
    p.add_argument("--k", type=int, required=True)

    p = add("homology", _cmd_homology,
            "group homology, closed form against the chain complex")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mod", type=int, choices=[2],
                   help="coefficients Z/2 instead of Z")

    p = add("lgroups", _cmd_lgroups, "L-groups, Whitehead group, assembly")
    p.add_argument("--k", type=int, required=True)

    p = add("bordism", _cmd_bordism, "stable bordism group for a w2-type")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w2", required=True, choices=["I", "II", "III"])

    p = add("form", _cmd_form, "validate and summarize a hermitian form")
    p.add_argument("file", help="form JSON file")
    p.add_argument("--try-invert", action="store_true",
                   help="attempt an inverse certificate if missing")

    p = add("classify", _cmd_classify,
            "compare two manifold descriptors")
    p.add_argument("first", help="descriptor JSON file")
    p.add_argument("second", help="descriptor JSON file")
    p.add_argument("--isometry", help="matrix JSON file ({'k', 'matrix'})")

    p = add("realize", _cmd_realize,
            "manifold descriptors carrying a certificated form")
    p.add_argument("file", help="form JSON file")
    p.add_argument("--try-invert", action="store_true",
                   help="attempt an inverse certificate if missing")

    p = add("report", _cmd_report, "per-k invariant table")
    p.add_argument("--k-range", required=True, metavar="A..B",
                   help="inclusive integer range, e.g. -12..12")

    return parser


def _glue_range(argv):
    """argparse takes a value such as "-12..12" for an option string and
    leaves "--k-range -12..12" without its argument; hand such a pair
    on as "--k-range=-12..12", which it reads as intended.  The same
    holds for the abbreviations argparse accepts ("--k-r", "--k"); on
    subcommands with a --k option, "--k=-5" reads as "--k -5"."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) >= 3 and "--k-range".startswith(out[-1])
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(
            _glue_range(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else exc.code
    try:
        doc = args.func(args)
        # the ring elements of a document are written here, and a number
        # too long to write is an error of the command
        text = (_render_pretty(args.command, doc) if args.pretty
                else _dumps(doc))
    except InconsistentDescriptorError as exc:
        print("inconsistent: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except (BsfourError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
