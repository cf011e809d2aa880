"""The integral group ring Z[B(k)], and Fox derivatives as words.

Elements of Z[B(k)] are sparse integer combinations of group elements.
The involution extends g -> g^-1 linearly; it is an anti-automorphism.
The involute of zero is that zero element itself, so the zero entries
of a matrix cost nothing to involute.
The augmentation sums coefficients; it is the ring map to Z induced by
collapsing the group.

FreeRingElt holds a Fox derivative as an integer combination of free
words, for the fox command to print; it does no arithmetic and stores
the terms it is given, which foxchain's one Leibniz pass makes freely
reduced, distinct and nonzero.  The projected derivatives that the
chain complex uses come out of the same pass in Z[B(k)], already in
normal form, and are built with the trusted GroupRingElt._raw.

JSON terms are read by one loop, bsgroup._json_terms, which
GroupRingElt.from_json, and through it every matrix, form and
descriptor reader, uses, with a term memo for the document the element
belongs to (see bsgroup); each document's k is bounded once, by
bsgroup._json_k.  to_json writes the terms from the sorted keys
directly, as plain dicts; the command line writes the same text from
the same sorted keys without building them (cli._encode_ring).
"""

from . import _kernel, bsgroup
from .bsgroup import _json_decimal, _json_element, _json_k, _json_terms
from .errors import GroupMismatchError, SchemaError

_IDENT = (0, 0, 0)


class GroupRingElt:
    """Element of Z[B(k)].  terms maps reduced (num, pow, t) to nonzero
    coefficients; the parameter k rides along and must match between
    operands."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        clean = {}
        if terms:
            for g, c in terms.items():
                if not c:
                    continue
                key = _kernel.bs_reduce(g[0], g[1], g[2], k)
                c0 = clean.get(key, 0) + c
                if c0:
                    clean[key] = c0
                elif key in clean:
                    del clean[key]
        self.terms = clean

    @classmethod
    def _raw(cls, k, terms):
        # trusted path: terms already reduced and zero-free
        obj = object.__new__(cls)
        obj.k = k
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, k):
        return cls._raw(k, {})

    @classmethod
    def one(cls, k):
        return cls._raw(k, {_IDENT: 1})

    @classmethod
    def monomial(cls, k, g, coeff=1):
        return cls(k, {g: coeff})

    @classmethod
    def from_word(cls, k, word, coeff=1):
        return cls.monomial(k, bsgroup.eval_word(word, k), coeff)

    def _check(self, other):
        if self.k != other.k:
            raise GroupMismatchError(
                "mixed group parameters k=%d and k=%d" % (self.k, other.k))

    def _coerce(self, other):
        if isinstance(other, int):
            return self._raw(self.k, {_IDENT: other} if other else {})
        if isinstance(other, GroupRingElt):
            self._check(other)
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for g, c in other.terms.items():
            c0 = out.get(g, 0) + c
            if c0:
                out[g] = c0
            elif g in out:
                del out[g]
        return self._raw(self.k, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw(self.k, {g: -c for g, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.zero(self.k)
            return self._raw(self.k,
                             {g: c * other for g, c in self.terms.items()})
        if isinstance(other, GroupRingElt):
            self._check(other)
            return self._raw(self.k,
                             _kernel.ring_mul(self.terms, other.terms, self.k))
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, GroupRingElt) and self.k == other.k
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def involute(self):
        """Linear extension of g -> g^-1.  The involute of zero is zero
        itself, returned as is: elements are never mutated."""
        if not self.terms:
            return self
        return self._raw(self.k, _kernel.ring_involute(self.terms, self.k))

    def augment(self):
        return sum(self.terms.values())

    def identity_coefficient(self):
        return self.terms.get(_IDENT, 0)

    def to_json(self):
        terms = self.terms
        return {"k": self.k,
                "terms": [{"coeff": _json_decimal(terms[g], "a ring element",
                                                  "coeff"),
                           "elt": _json_element(*g)}
                          for g in sorted(terms, key=bsgroup.sort_key)]}

    @classmethod
    def from_json(cls, doc, memo=None):
        """The ring element of doc.  memo, when given, is the term memo
        of the document doc belongs to (see bsgroup); otherwise doc is
        a document of its own."""
        if not isinstance(doc, dict):
            raise SchemaError("ring element must be a JSON object")
        k = _json_k(doc, "ring element needs an integer field 'k'")
        terms = doc.get("terms")
        if not isinstance(terms, list):
            raise SchemaError("ring element needs a list field 'terms'")
        if len(doc) != 2:
            raise SchemaError("ring element has an unknown field %r" % next(
                f for f in doc if f not in ("k", "terms")))
        return cls._raw(k, _json_terms(terms, k, {} if memo is None
                                       else memo))

    @classmethod
    def parse(cls, k, text):
        """Small human syntax: integer coefficients and words over
        a, A, b, B joined by '*', combined with '+'/'-'.  Adjacent
        factors multiply as if '*' stood between them: '2a', 'ab ba'
        and '2 3' read as 2*a, abba and 6."""
        if not isinstance(text, str) or not text.strip():
            raise SchemaError("empty ring expression")
        tokens = _tokenize(text)
        total = cls.zero(k)
        i, n = 0, len(tokens)
        first = True
        while i < n:
            sign = 1
            if first:
                if tokens[i] == "-":
                    sign = -1
                    i += 1
                elif tokens[i] == "+":
                    raise SchemaError("leading '+' in ring expression")
            else:
                # the term loop below stops only at '+', '-' or the end
                if tokens[i] == "-":
                    sign = -1
                i += 1
            coeff = sign
            parts = []
            saw = False
            while i < n and tokens[i] not in ("+", "-"):
                tok = tokens[i]
                if tok == "*":
                    if not saw or i + 1 >= n or tokens[i + 1] in ("+", "-", "*"):
                        raise SchemaError("misplaced '*' in ring expression")
                    i += 1
                    continue
                if isinstance(tok, int):
                    coeff *= tok
                else:
                    parts.append(tok)
                saw = True
                i += 1
            if not saw:
                raise SchemaError("empty term in ring expression")
            g = bsgroup.eval_word("".join(parts), k)
            total = total + cls.monomial(k, g, coeff)
            first = False
        return total

    def __str__(self):
        terms = self.terms
        return _render([(g, terms[g])
                        for g in sorted(terms, key=bsgroup.sort_key)],
                       lambda g: _elt_str(g, self.k))

    def __repr__(self):
        return "GroupRingElt(k=%d, %s)" % (self.k, self)


def _tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*":
            out.append(ch)
            i += 1
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit takes "²" and "٣"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "aAbB":
            j = i
            while j < n and text[j] in "aAbB":
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise SchemaError("unexpected character %r in ring expression" % ch)
    return out


def _elt_str(g, k):
    num, pw, t = g
    parts = []
    if num:
        if pw == 0:
            parts.append("b" if num == 1 else "b^%d" % num)
        else:
            parts.append("b^(%d/%d)" % (num, abs(k) ** pw))
    if t:
        parts.append("a" if t == 1 else "a^%d" % t)
    return "*".join(parts) if parts else "1"


def _render(pairs, show):
    if not pairs:
        return "0"
    bits = []
    for g, c in pairs:
        s = show(g)
        mag = abs(c)
        if s == "1":
            body = str(mag)
        elif mag == 1:
            body = s
        else:
            body = "%d*%s" % (mag, s)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


class FreeRingElt:
    """A Fox derivative in Z[F(a, b)], keyed by freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # stored as given: fox_derivative's keys are distinct, freely
        # reduced and hold +-1 each (the proof is at its call)
        self.terms = terms

    def sorted_terms(self):
        return [(w, self.terms[w])
                for w in sorted(self.terms, key=lambda w: (len(w), w))]

    def __str__(self):
        return _render(self.sorted_terms(), lambda w: w or "1")
