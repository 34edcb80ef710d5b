"""Integer-numerator form of exact coefficient lists.

The compiled kernels (`hopf.convolve`, `tensor.concat` and the psi pairing
of `conversion`) run one index loop per operation.  When every coefficient
of their operands is an `int` or a `Fraction`, the loop runs on integer
numerators over one common denominator and divides once per output
coefficient.  Otherwise (float mode) it runs on the values unchanged, in
the same term order as the plain dict loop it replaced, so float results
keep their rounding bit for bit.
"""

from __future__ import annotations

import math


def numerators(*columns: list) -> tuple:
    """(scaled columns, denominator): each list of coefficients as integer
    numerators over its least common denominator, and the product of those
    denominators.  If some coefficient is not an int or a Fraction (it has
    no denominator), the columns come back unchanged with None."""
    scaled = []
    den = 1
    for values in columns:
        # float increments hold their Fraction unit first and floats after,
        # so the last value settles most float operands at once
        if values and type(values[-1]) is float:
            return columns, None
        # a float has no denominator, and a 0 makes the lcm 0
        q = math.lcm(*[getattr(v, "denominator", 0) for v in values])
        if not q:
            return columns, None
        scaled.append([v.numerator * (q // v.denominator) for v in values])
        den *= q
    return scaled, den
