"""Fox derivatives of the defining relator and the cellular chain data
of the standard 2-complex of B(k).

The relator is r = a b a^-1 b^-k.  With chains as row vectors and
boundaries acting by right multiplication, the complex for k != 0 is

    0 -> L --(da r, db r)--> L^2 --(1-a, 1-b)^T--> L -> Z -> 0

over L = Z[B(k)], and the chain condition is the row-times-column
product d2 * d1 = 0, which is the fundamental Fox identity applied to
the relator.  For k = 0 the group is Z and the circle complex
0 -> L --(1-a)--> L -> Z -> 0 is used instead.

Both derivatives come from one Leibniz pass over a word, _leibniz,
which carries the prefix by a given product.  fox_derivative carries it
as a free word (the fox command prints the result); build_complex
carries it as a B(k) normal form advanced by _kernel.bs_mul, so the
complex costs O(|k|) group operations.  Either way the keys come out in
normal form and are stored as they are.
"""

from dataclasses import dataclass

from . import _kernel, bsgroup
from .errors import ChainComplexError
from .groupring import FreeRingElt, GroupRingElt

_LETTER = {"a": (0, 0, 1), "A": (0, 0, -1), "b": (1, 0, 0), "B": (-1, 0, 0)}


def relator_word(k):
    """a b a^-1 b^-k as a word."""
    return "abA" + ("B" * k if k >= 0 else "b" * (-k))


def _leibniz(word, u, step):
    """The free derivatives (d/da, d/db) of word as term dicts, in one
    pass: u is the empty prefix and step(u, ch) the prefix u followed
    by the letter ch.  By the Leibniz rule d(u x v) = du + u dx + u x dv
    with dx = 1 and d(x^-1) = -x^-1, a letter x adds +u to d/dx and a
    letter x^-1 adds -(u x^-1)."""
    da, db = {}, {}
    target = {"a": da, "A": da, "b": db, "B": db}
    for ch in word:
        x = step(u, ch)
        d = target[ch]
        if ch.islower():
            d[u] = d.get(u, 0) + 1
        else:
            d[x] = d.get(x, 0) - 1
        u = x
    return da, db


def fox_derivative(word, gen):
    """The free derivative d/d gen, an element of Z[F(a, b)].

    Defined by d(x) = 1, d(x^-1) = -x^-1 on the letters of gen, zero on
    the other generator, and the Leibniz rule d(uv) = du + u dv.
    """
    if gen not in ("a", "b"):
        raise ValueError("gen must be 'a' or 'b'")
    # On the reduced word x1..xn every key is a prefix, hence freely
    # reduced: a letter x_i = x adds x1..x(i-1), a letter x_i = x^-1
    # adds x1..xi.  Keys of one derivative differ in length, except
    # for x_(i+1) = x right after x_i = x^-1, which reduction rules
    # out; so each key holds exactly one +-1.
    da, db = _leibniz(bsgroup.free_reduce(word), "", str.__add__)
    return FreeRingElt(da if gen == "a" else db)


@dataclass(frozen=True)
class FoxComplex:
    """Boundary matrices over Z[B(k)], row-vector convention."""

    k: int
    d2: tuple  # n2 x n1 rows of GroupRingElt
    d1: tuple  # n1 x n0

    @property
    def ranks(self):
        """(n2, n1, n0)."""
        return (len(self.d2), len(self.d1), len(self.d1[0]))

    def to_json(self):
        return {
            "k": self.k,
            "ranks": list(self.ranks),
            "d2": [[p.to_json() for p in row] for row in self.d2],
            "d1": [[p.to_json() for p in row] for row in self.d1],
        }


def _projected_derivatives(k):
    """(d r/da, d r/db) for r = relator_word(k), projected to Z[B(k)].

    The Leibniz pass of fox_derivative with each prefix carried as a
    B(k) normal form, so every key comes out of bs_mul reduced and each
    prefix is evaluated once.  The free reduction fox_derivative starts
    with is left out: Fox derivatives are invariant under it, and the
    relator is reduced.  k must be nonzero.
    """
    mul = _kernel.bs_mul
    da, db = _leibniz(relator_word(k), (0, 0, 0),
                      lambda u, ch: mul(u, _LETTER[ch], k))
    # No two keys of one derivative meet, so each holds +-1 and _raw gets
    # no zero: d/da has 1 (from a) and abA = b^k; d/db has a (from b)
    # and, after abA, one distinct power of b per letter: b^(k-j) from
    # the j-th B (k > 0), b^(k+j-1) from the j-th b (k < 0).
    return GroupRingElt._raw(k, da), GroupRingElt._raw(k, db)


def build_complex(k):
    """Chain data of the presentation 2-complex (circle complex if k = 0)."""
    one = GroupRingElt.one(k)
    col_a = one - GroupRingElt.from_word(k, "a")
    if k == 0:
        return FoxComplex(0, (), ((col_a,),))
    col_b = one - GroupRingElt.from_word(k, "b")
    da, db = _projected_derivatives(k)
    # the fundamental identity makes this vanish; it must never fire
    if not (da * col_a + db * col_b).is_zero():
        raise ChainComplexError("d2 * d1 is not zero at k=%d" % k)
    return FoxComplex(k, ((da, db),), ((col_a,), (col_b,)))


def tensor_trivial(cx):
    """Boundary matrices after applying the augmentation entrywise, as
    plain integer row lists (D2, D1).  Homology mod p reads them as
    they are (intlinalg.homology_of_complex)."""
    d2 = [[p.augment() for p in row] for row in cx.d2]
    d1 = [[p.augment() for p in row] for row in cx.d1]
    return d2, d1
