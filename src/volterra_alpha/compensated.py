"""Error-free float transformations and double-double helpers.

Alternating series with large terms (the entire function of the Gram
module evaluated at z ~ 100, the closed-form kernel sums) need more than
one double of working precision.  A double-double number is an unevaluated
pair ``(hi, lo)`` with ``|lo| <= ulp(hi)/2``; sums of many of them are fed
to ``math.fsum`` which is exact.
"""

import math

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    """Return (s, e) with s = fl(a+b) and a + b = s + e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def two_prod(a, b):
    """Return (p, e) with p = fl(a*b) and a * b = p + e exactly."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_mul_d(hi, lo, c):
    """Multiply the double-double (hi, lo) by the double c."""
    p, e = two_prod(hi, c)
    e += lo * c
    s, e2 = two_sum(p, e)
    return s, e2


def dd_div_dd(ahi, alo, bhi, blo):
    """Divide two double-double numbers; error O(u^2)."""
    q1 = ahi / bhi
    p_hi, p_lo = two_prod(q1, bhi)
    p_lo += q1 * blo
    r_hi = ahi - p_hi
    r_lo = alo - p_lo
    q2 = (r_hi + r_lo) / bhi
    s, e = two_sum(q1, q2)
    return s, e


def fsum_pairs(pairs):
    """Exactly rounded sum of double-double values given as (hi, lo) pairs."""
    flat = []
    for hi, lo in pairs:
        flat.append(hi)
        flat.append(lo)
    return math.fsum(flat)
