"""Scalar modes, scalars read from text, and the integer-numerator form of
exact coefficient lists.

Every layer runs in one of two scalar modes: RATIONAL (exact `Fraction`s,
the default and the oracle) or FLOAT.  `parse_rational` reads a scalar
given from outside, such as a flag, a CSV cell or a polynomial coefficient.

`numerators` writes lists of exact coefficients (`int`s and `Fraction`s) as
integer numerators over their least common denominator, and leaves a list
with a float in it as it is.  Two modules read it.  `linear.Row` carries an
element's terms that way through the compiled kernels (`hopf.convolve`,
`tensor.concat`, the Chen sweep, the pair fold that `conversion.certify`
reads and the psi pairing), all by `linear.Context.times` and `Row.pair`;
`rde`'s polynomial views do the same for the derivative rule.
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
