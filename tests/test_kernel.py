"""The kernel against the affine law in Fractions.

_kernel.ring_addmul(out, p, q, k) adds p * q to out in place, with the
group law of B(k) written out inside its loop, and a constant operand
c 1 scaling the other one without the group law; _kernel.bs_mul does
the same arithmetic for one pair of elements.  ring_involute holds the
inverse law, and bs_inv is its one-term case.
The oracle maps every term to (x, t) through support.x_fraction and
multiplies with (x1, t1) (x2, t2) = (x1 + k^t1 x2, t1 + t2) in exact
rationals, inverting with (x, t)^-1 = (-k^-t x, -t); for k = 0 the
generator b dies and x is 0.  support.law_addmul, the loop
pair by pair through _kernel.bs_mul, is the oracle of the order in
which terms enter out.
"""

import sys
import time
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bsfour import _kernel, bsgroup
from bsfour.groupring import GroupRingElt

from support import element, law_addmul, x_fraction

KS = (0, 1, -1, 2, -2, 3, -3, 6, -10)
CONSTANTS = (1, -1, 2, -2, 3)


def elements(k):
    """Reduced elements with |t| <= 8 and pow <= 6, the numerator often
    a multiple of |k| before reduction."""
    kq = abs(k)
    return st.builds(
        lambda m, j, pw, t: element(m * kq ** j, pw, t, k),
        st.integers(-20, 20), st.integers(0, 2), st.integers(0, 6),
        st.integers(-8, 8))


def ring_terms(k, max_size):
    return st.dictionaries(elements(k),
                           st.integers(-3, 3).filter(bool),
                           max_size=max_size)


def constants():
    return st.sampled_from(CONSTANTS).map(lambda c: {(0, 0, 0): c})


@st.composite
def operands(draw):
    """(out, p, q, k); p or q is often a constant c 1.  out holds its
    own terms and, for some pairs of terms of p and q, the negated
    product, so that the sum cancels."""
    k = draw(st.sampled_from(KS))
    p = draw(st.one_of(constants(), ring_terms(k, 5)))
    q = draw(st.one_of(constants(), ring_terms(k, 5)))
    out = draw(ring_terms(k, 3))
    for g1, c1 in p.items():
        for g2, c2 in q.items():
            if draw(st.integers(0, 3)) == 0:
                out[_kernel.bs_mul(g1, g2, k)] = -c1 * c2
    return out, p, q, k


def affine(terms, k):
    return Counter({(x_fraction(g, k), g[2]): c for g, c in terms.items()})


def affine_product(p, q, k):
    total = Counter()
    for (x1, t1), c1 in affine(p, k).items():
        for (x2, t2), c2 in affine(q, k).items():
            x = x1 + Fraction(k) ** t1 * x2 if k else Fraction(0)
            total[(x, t1 + t2)] += c1 * c2
    return total


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(operands())
def test_ring_addmul_matches_affine_law(case):
    out, p, q, k = case
    want = affine(out, k)
    want.update(affine_product(p, q, k))
    want = {key: c for key, c in want.items() if c}
    acc = dict(out)
    assert _kernel.ring_addmul(acc, p, q, k) is acc
    assert affine(acc, k) == want
    assert len(acc) == len(want)
    for g, c in acc.items():
        assert c != 0
        assert _kernel.bs_reduce(*g, k) == g


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KS).flatmap(
    lambda k: st.tuples(st.just(k), elements(k), elements(k))))
def test_mul_and_inv_match_affine_law(case):
    k, g, h = case
    x1, x2 = x_fraction(g, k), x_fraction(h, k)
    gh, ginv = _kernel.bs_mul(g, h, k), _kernel.bs_inv(g, k)
    assert x_fraction(gh, k) == (x1 + Fraction(k) ** g[2] * x2 if k else 0)
    assert x_fraction(ginv, k) == (-Fraction(k) ** -g[2] * x1 if k else 0)
    assert (gh[2], ginv[2]) == (g[2] + h[2], -g[2])
    for r in (gh, ginv):
        assert _kernel.bs_reduce(*r, k) == r


def affine_involute(p, k):
    return Counter({((-Fraction(k) ** -t * x if k else 0), -t): c
                    for (x, t), c in affine(p, k).items()})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KS).flatmap(
    lambda k: st.tuples(st.just(k), ring_terms(k, 6))))
def test_ring_involute_inverts_each_term(case):
    k, p = case
    got = _kernel.ring_involute(p, k)
    for g in p:
        inv = _kernel.bs_inv(g, k)
        assert (_kernel.bs_mul(g, inv, k) == _kernel.bs_mul(inv, g, k)
                == (0, 0, 0))
    assert affine(got, k) == affine_involute(p, k)
    for g in got:
        assert _kernel.bs_reduce(*g, k) == g


def test_ring_involute_explicit_cases():
    cases = (
        # pow + t < 0: the numerator is multiplied by |k|^-(pow + t)
        (2, (1, 1, -3), (-4, 0, 3)),
        (-2, (1, 1, -3), (4, 0, 3)),
        (-233, (1, 0, -2), (-233 ** 2, 0, 2)),
        # |k| >= 233: the division loop, and a denominator that grows
        (233, (466, 0, 1), (-2, 0, -1)),
        (-233, (466 * 233, 0, 2), (-2, 0, -2)),
        (233, (5, 2, 1), (-5, 3, -1)),
        (-233, (5, 2, 1), (5, 3, -1)),
        # num 0, and |k| <= 1 where pow is 0
        (233, (0, 0, 7), (0, 0, -7)),
        (1, (3, 0, 4), (-3, 0, -4)),
        (-1, (3, 0, 5), (3, 0, -5)),
    )
    for k, g, want in cases:
        assert _kernel.bs_inv(g, k) == want, (k, g)
        assert _kernel.ring_involute({g: 7}, k) == {want: 7}, (k, g)
        assert affine({want: 7}, k) == affine_involute({g: 7}, k)


def test_involute_of_zero_is_that_zero():
    for k in KS:
        z = GroupRingElt.zero(k)
        assert z.involute() is z
        assert z.involute().involute() is z
        assert z.terms == {} and not z
        assert (z.involute() + GroupRingElt.one(k)) == GroupRingElt.one(k)
        assert z.terms == {}
    assert _kernel.ring_involute({}, 2) == {}


def test_a_power_factor_builds_no_power_of_k():
    # A factor a^t has num 0.  The product or inverse multiplies no
    # power |k|^|t| by it, which at |k| = 10^5 and |t| = 10^4 has 50,000
    # digits: 2-3 ms a call, and 0.45 s for (b a^-t) a^3, whose sum over
    # |k|^t would then be divided by |k| t times.
    t = bsgroup.MAX_JSON_EXPONENT
    start = time.perf_counter()
    for k in (bsgroup.MAX_JSON_K, -bsgroup.MAX_JSON_K) * 25:
        assert _kernel.bs_mul((1, 0, -t), (0, 0, 3), k) == (1, 0, 3 - t)
        assert _kernel.bs_mul((0, 0, -t), (1, 0, 0), k) == (1, t, -t)
        assert _kernel.bs_inv((0, 0, -t), k) == (0, 0, t)
        assert _kernel.bs_inv((0, 0, t), k) == (0, 0, -t)
    assert time.perf_counter() - start < 0.05


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(operands())
def test_constant_factor_keeps_the_order_of_the_loop(case):
    # with a constant operand or without, out ends with the items, in
    # the order, that the group-law loop gives pair by pair,
    # cancellations included
    out, p, q, k = case
    want = law_addmul(dict(out), p, q, k)
    got = _kernel.ring_addmul(dict(out), p, q, k)
    assert list(got.items()) == list(want.items())


def lines_run(func, *args):
    """Lines executed inside func's own frame during func(*args)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code is not func.__code__:
            return None
        if event == "line":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        func(*args)
    finally:
        sys.settrace(None)
    return count


def test_constant_factor_skips_the_group_law():
    # c 1 times p, on either side, runs the same few lines per term of
    # p, fewer than the group law runs for a monomial factor a
    k = 2
    p = {element(n, 3, t, k): 1
         for n, t in ((1, 2), (3, -1), (-5, 4))}
    for c in CONSTANTS:
        one, a = {(0, 0, 0): c}, {(0, 0, 1): c}
        left = lines_run(_kernel.ring_addmul, {}, one, p, k)
        right = lines_run(_kernel.ring_addmul, {}, p, one, k)
        assert abs(left - right) <= 1
        assert max(left, right) < min(
            lines_run(_kernel.ring_addmul, {}, a, p, k),
            lines_run(_kernel.ring_addmul, {}, p, a, k))


def test_constant_factor_copies_into_an_empty_accumulator():
    # c 1 times q, on either side, into an empty out is one copy: the
    # lines run do not grow with the terms of q, out ends as the loop
    # leaves it, and it is a dict of its own, so changing it leaves q
    k = 3
    for c in CONSTANTS:
        one = {(0, 0, 0): c}
        lines = {0: set(), 1: set()}
        for size in (1, 10, 200):
            q = {element(n, 2, n % 5 - 2, k): n for n in range(1, size + 1)}
            kept = dict(q)
            for side, (p, r) in enumerate(((one, q), (q, one))):
                lines[side].add(lines_run(_kernel.ring_addmul, {}, p, r, k))
                got = _kernel.ring_addmul({}, p, r, k)
                want = law_addmul({}, p, r, k)
                assert list(got.items()) == list(want.items())
                got.clear()
                got[0, 0, 5] = 1
                assert list(q.items()) == list(kept.items())
        assert len(lines[0]) == len(lines[1]) == 1, (c, lines)


def test_unit_k_products_cost_no_work_per_exponent():
    # For |k| <= 1 the twist k^t1 is a sign: a product of two monomials
    # runs the same few lines for every t1, where dividing by |k| = 1
    # once per unit of t1 would give the same result |t1| times slower.
    t = bsgroup.MAX_JSON_EXPONENT
    for k in (0, 1, -1):
        counts = {lines_run(_kernel.ring_addmul, {}, {g1: 1}, {g2: 1}, k)
                  for g1 in (element(1, 0, s, k) for s in (-t, t))
                  for g2 in (element(1, 0, 0, k),
                             element(-1, 0, -t, k))}
        assert max(counts) < 30, (k, counts)
