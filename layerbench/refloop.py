"""The reference loop that defines the benchmark's cost unit (ref).

Each timed operation is bracketed by one run of ref_loop() before and
one after; its cost is its wall time divided by the mean of those two
runs.  Slow and fast phases of the host then cancel, since they stretch
the loop and the operation alike.

The loop mixes small-tuple dict traffic with big-integer arithmetic,
the two things bsfour spends its time on.  It imports nothing from
bsfour, so no change to the program can move the unit.  Any change to
this file changes the unit: measure the baseline again after one.
"""

import time

_MODULUS = (1 << 521) - 1
# fixed operands of the convolution: (numerator, power, exponent) triples
_P = [((i * 7919) % 61 - 30, i % 3, (i * 31) % 9 - 4) for i in range(48)]
_Q = [((i * 104729) % 67 - 33, i % 2, (i * 17) % 7 - 3) for i in range(40)]


def ref_loop():
    """A sparse convolution into a dict keyed by fresh small tuples (1920
    updates), then a chain of 600 big-integer steps feeding a small
    tuple-keyed table."""
    out = {}
    for n1, p1, t1 in _P:
        for n2, p2, t2 in _Q:
            key = (n1 * 3 + (n2 << p1), p1 + p2, t1 + t2)
            c = out.get(key)
            if c is None:
                out[key] = n1 * n2
            else:
                c += n1 * n2
                if c:
                    out[key] = c
                else:
                    del out[key]
    table = {}
    acc = 0x9E3779B97F4A7C15 ** 6
    for i in range(600):
        key = (i & 31, (i >> 5) & 7, i % 3)
        acc = (acc * 0x5DEECE66D + i) % _MODULUS
        table[key] = table.get(key, 0) + (acc >> 300)
        if i & 7 == 0:
            table.pop((i & 31, 0, 0), None)
    return len(out), len(table)


def time_ref():
    """Seconds taken by one run of the reference loop."""
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0
