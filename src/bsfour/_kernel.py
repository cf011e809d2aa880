"""Arithmetic kernel: the group law of B(k) and convolution in Z[B(k)].

Elements of B(k) = <a, b | a b a^-1 = b^k> in normal form b^x a^t are
plain tuples (num, pow, t) meaning x = num / |k|^pow, t the a-exponent.
Group-ring elements are dicts mapping such tuples to nonzero ints.

Reduced means pow == 0 or |k| does not divide num, so every element has
exactly one representation.  For k = 0 the generator b dies and x is
forced to 0; for |k| = 1 the exponent x is an integer and pow is 0.

The convolution _addmul applies the group law inline to each pair of
terms, with what depends on the left term alone worked out once for
it; a call to _mul per pair took about 30 % of its time.  _mul, for
single products, does the loop's arithmetic for one pair and ends in
_reduce.  The inverse law has one copy, in ring_involute's loop over
the terms; _inv is its one-term case.

A constant operand {(0, 0, 0): c} skips the group law (1 g = g 1 = g):
_addmul adds c times each term of the other operand under its own key,
in the loop's order.  Into an empty out that is one copy at C level:
dict.update with the other operand for c = 1, with one dict
comprehension of the scaled terms otherwise; the keys, coefficients
and order are the loop's.  out must be neither p nor q, both reduced.
"""


def _reduce(num, pow, t, k):
    kq = -k if k < 0 else k
    if kq == 0 or num == 0:
        return (0, 0, t)
    if kq == 1:
        return (num, 0, t)
    while pow > 0 and num % kq == 0:
        num //= kq
        pow -= 1
    return (num, pow, t)


def _mul(g, h, k):
    # One pair of _addmul's loop.  A num of 0 is never multiplied by a
    # power of |k|, which may be as large as |k|^(|t1| + pow).
    n1, p1, t1 = g
    n2, p2, t2 = h
    if n2 == 0:
        return (n1, p1, t1 + t2)
    kq = -k if k < 0 else k
    if k < 0 and t1 & 1:
        n2 = -n2
    d = p2 - t1 if kq > 1 else p2
    if p1 >= d:
        return _reduce(n1 + n2 * kq ** (p1 - d), p1, t1 + t2, k)
    if n1:
        n2 += n1 * kq ** (d - p1)
    return _reduce(n2, d, t1 + t2, k)


def _addmul(out, p, q, k):
    # out += p * q in place; the accumulator keeps matrix products
    # from allocating one dict per partial sum.  A constant factor
    # scales the other operand (see the module docstring).
    if len(q) == 1 and (0, 0, 0) in q:
        p, q = q, p
    if len(p) == 1 and (0, 0, 0) in p:
        c = p[0, 0, 0]
        if not out:
            # the loop below would store c c2 under each key of q in
            # order, with no sum and no zero (c and c2 are nonzero)
            out.update(q if c == 1 else {g: c * c2 for g, c2 in q.items()})
            return out
        for g, c2 in q.items():
            c2 = c * c2 + out.get(g, 0)
            if c2:
                out[g] = c2
            else:
                del out[g]
        return out
    # Otherwise the group law is written out for each pair of terms:
    #   b^x1 a^t1 * b^x2 a^t2 = b^(x1 + k^t1 x2) a^(t1 + t2),
    # where k^t1 x2 = (+-n2) / |k|^d with d = p2 - t1; the sum goes over
    # the larger denominator and is divided by |k| until reduced.  For
    # |k| <= 1 every reduced element has pow 0 (and num 0 when k = 0),
    # so the exponent is taken as 0 there: k^t1 is only a sign, and the
    # loop does not divide by 1 once per unit of t1.
    kq = -k if k < 0 else k
    for (n1, p1, t1), c1 in p.items():
        flip = k < 0 and t1 & 1
        e = t1 if kq > 1 else 0
        for (n2, p2, t2), c2 in q.items():
            if n2:
                if flip:
                    n2 = -n2
                d = p2 - e
                if p1 >= d:
                    num = n1 + n2 * kq ** (p1 - d)
                    pw = p1
                else:
                    num = n1 * kq ** (d - p1) + n2
                    pw = d
                if num:
                    while pw and num % kq == 0:
                        num //= kq
                        pw -= 1
                    key = (num, pw, t1 + t2)
                else:
                    key = (0, 0, t1 + t2)
            else:
                key = (n1, p1, t1 + t2)
            c = out.get(key)
            if c is None:
                out[key] = c1 * c2
            else:
                c += c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


def eval_word(word, k):
    g = (0, 0, 0)
    for ch in word:
        if ch == "a":
            g = (g[0], g[1], g[2] + 1)
        elif ch == "A":
            g = (g[0], g[1], g[2] - 1)
        elif ch == "b":
            g = _mul(g, (1, 0, 0), k)
        else:
            g = _mul(g, (-1, 0, 0), k)
    return g


def ring_mul(p, q, k):
    return _addmul({}, p, q, k)


def ring_involute(p, k):
    # The inverse law for each term, (b^x a^t)^-1 = b^(-k^-t x) a^-t
    # with -k^-t x = (-+n) / |k|^(pow + t), reduced in place; pow is 0
    # for |k| <= 1.  g -> g^-1 is a bijection on reduced keys, so
    # distinct terms go to distinct keys: each is stored by assignment,
    # with no sum and no zero to drop.
    kq = -k if k < 0 else k
    out = {}
    for (n, pw, t), c in p.items():
        if n:
            if not (k < 0 and t & 1):
                n = -n
            if kq > 1:
                pw += t
                if pw < 0:
                    n *= kq ** -pw
                    pw = 0
                else:
                    while pw and n % kq == 0:
                        n //= kq
                        pw -= 1
            out[n, pw, -t] = c
        else:
            out[0, 0, -t] = c
    return out


def _inv(g, k):
    # the one-term case of ring_involute
    (h,) = ring_involute({g: 1}, k)
    return h


# The kernel calls only the private names.  A wrapper put on a public
# name from outside (a profiler or call counter) then sees the calls
# made from other modules, not every step inside the loops above.
bs_reduce = _reduce
bs_mul = _mul
bs_inv = _inv
ring_addmul = _addmul
