"""Fox derivatives of the defining relator and the cellular chain data
of the standard 2-complex of B(k).

The relator is r = a b a^-1 b^-k.  With chains as row vectors and
boundaries acting by right multiplication, the complex for k != 0 is

    0 -> L --(da r, db r)--> L^2 --(1-a, 1-b)^T--> L -> Z -> 0

over L = Z[B(k)], and the chain condition is the row-times-column
product d2 * d1 = 0, which is the fundamental Fox identity applied to
the relator.  For k = 0 the group is Z and the circle complex
0 -> L --(1-a)--> L -> Z -> 0 is used instead.

fox_derivative gives the free derivatives as words (the fox command
prints them); build_complex projects them to Z[B(k)] in one pass over
the relator, so the complex costs O(|k|) group operations.
"""

from dataclasses import dataclass

from . import _kernel, bsgroup
from .errors import ChainComplexError
from .groupring import FreeRingElt, GroupRingElt

_LETTER = {"a": (0, 0, 1), "A": (0, 0, -1), "b": (1, 0, 0), "B": (-1, 0, 0)}


def relator_word(k):
    """a b a^-1 b^-k as a word."""
    return "abA" + ("B" * k if k >= 0 else "b" * (-k))


def fox_derivative(word, gen):
    """The free derivative d/d gen, an element of Z[F(a, b)].

    Defined by d(x) = 1, d(x^-1) = -x^-1 on the letters of gen, zero on
    the other generator, and the Leibniz rule d(uv) = du + u dv.
    """
    if gen not in ("a", "b"):
        raise ValueError("gen must be 'a' or 'b'")
    word = bsgroup.free_reduce(word)
    inv = gen.swapcase()
    acc = {}
    prefix = []
    for ch in word:
        if ch == gen:
            key = "".join(prefix)
            acc[key] = acc.get(key, 0) + 1
        elif ch == inv:
            key = "".join(prefix) + ch
            acc[key] = acc.get(key, 0) - 1
        prefix.append(ch)
    return FreeRingElt(acc)


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

    One pass over the relator with the prefix u carried as a B(k)
    normal form: by the Leibniz rule d(u x v) = du + u dx + u x dv, a
    letter x adds +u to d/dx and a letter x^-1 adds -(u x^-1).  This is
    fox_derivative letter by letter, with each prefix evaluated once
    instead of from scratch.  fox_derivative first reduces its word
    freely; that step is left out here, because Fox derivatives are
    invariant under free reduction and the relator is already reduced.
    k must be nonzero.
    """
    mul = _kernel.bs_mul
    da, db = {}, {}
    target = {"a": da, "A": da, "b": db, "B": db}
    u = (0, 0, 0)
    for ch in relator_word(k):
        x = mul(u, _LETTER[ch], k)
        d = target[ch]
        if ch.islower():
            d[u] = d.get(u, 0) + 1
        else:
            d[x] = d.get(x, 0) - 1
        u = x
    return GroupRingElt(k, da), GroupRingElt(k, db)


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


def tensor_trivial(cx, modulus=0):
    """Boundary matrices after applying the augmentation entrywise,
    optionally reduced mod a positive modulus.  Returns (D2, D1) as
    plain integer row lists."""

    def eps(p):
        v = p.augment()
        return v % modulus if modulus else v

    d2 = [[eps(p) for p in row] for row in cx.d2]
    d1 = [[eps(p) for p in row] for row in cx.d1]
    return d2, d1
