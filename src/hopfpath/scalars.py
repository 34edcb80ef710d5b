"""Scalar modes, scalars read from text, and the integer-numerator form of
exact coefficient lists.

Every layer runs in one of two scalar modes: RATIONAL (exact `Fraction`s,
the default and the oracle) or FLOAT.  `parse_rational` reads a scalar
given from outside, such as a flag, a CSV cell or a polynomial coefficient.

The compiled kernels (`hopf.convolve`, `tensor.concat` and the psi pairing
of `conversion`) run one index loop per operation.  When every coefficient
of their operands is an `int` or a `Fraction`, the loop runs on integer
numerators over one common denominator and divides once per output
coefficient.  Otherwise (float mode) it runs on the values unchanged, in
the same term order as the plain dict loop it replaced, so float results
keep their rounding bit for bit.  The row fold of a rough path's pairs
(`roughpath._RoughPathBase.pair_rows`, which `conversion.certify` sweeps)
runs the same kernels but keeps exact rows as numerators from step to step,
reduced by their gcd; `certify` compares them by cross-multiplying, and
divides only for a witness.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"


def parse_rational(text) -> Fraction:
    """A scalar from outside input, such as "3/4", "-2" or "0.5".

    Anything Fraction cannot read, a zero denominator included, raises one
    ValueError that names the value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a number") from None


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
