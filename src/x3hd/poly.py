"""Exact arithmetic on sparse polynomials in the formal variable u.

The coefficient of u^k counts ordered solution pairs at Hamming distance k,
so all arithmetic must stay exact: coefficients are Python integers and are
never rounded or truncated. Counts grow up to 4^n, hence no fixed-width type.
"""

from __future__ import annotations

# An int of at most this many bits has at most 617 decimal digits, below
# the smallest limit on int-to-str conversion that Python (>= 3.11) allows
# to be set, so `str` converts it directly.
_STR_BITS = 2048


def decimal(n: int) -> str:
    """The decimal digits of n >= 0, at any size: a large n is split on a
    power of ten into halves that convert separately, so the interpreter's
    limit on int-to-str conversion never applies."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    # 10**k has about half as many digits as n (log10(2) > 0.3), so high > 0
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return decimal(high) + decimal(low).zfill(k)


class HDPoly:
    """Immutable sparse polynomial with nonnegative integer coefficients.

    Stored as a degree -> coefficient map with no zero entries; the zero
    polynomial is the empty map and has no degree. The results of `+`,
    `*` and `**` have positive coefficients by construction and skip the
    public constructor's checks (`_trusted`).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if coeffs:
            for deg, coeff in coeffs.items():
                for value in (deg, coeff):
                    if type(value) is not int:
                        raise TypeError(f"{value!r} is not an int")
                if deg < 0:
                    raise ValueError(f"negative degree {deg}")
                if coeff < 0:
                    raise ValueError(f"negative coefficient {coeff}")
                if coeff:
                    cleaned[deg] = coeff
        self._coeffs = cleaned

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "HDPoly":
        """A polynomial owning `coeffs`: nonnegative degrees, positive coefficients."""
        poly = object.__new__(cls)
        poly._coeffs = coeffs
        return poly

    def coeff(self, degree: int) -> int:
        return self._coeffs.get(degree, 0)

    def degree(self) -> int | None:
        """Largest exponent with a nonzero coefficient; None for zero."""
        if not self._coeffs:
            return None
        return max(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def total(self) -> int:
        """Sum of all coefficients (the number of counted pairs)."""
        return sum(self._coeffs.values())

    def terms(self) -> dict[int, int]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "HDPoly") -> "HDPoly":
        if not isinstance(other, HDPoly):
            return NotImplemented
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        out = dict(self._coeffs)
        for deg, coeff in other._coeffs.items():
            out[deg] = out.get(deg, 0) + coeff
        return HDPoly._trusted(out)

    def __radd__(self, other):
        # lets sum() work with its default integer start value
        if other == 0:
            return self
        return NotImplemented

    def __mul__(self, other: "HDPoly") -> "HDPoly":
        # a zero or unit factor returns an operand; one term shifts and scales
        if not isinstance(other, HDPoly):
            return NotImplemented
        small, big = (self, other) if len(self._coeffs) <= len(other._coeffs) else (other, self)
        a, b = small._coeffs, big._coeffs
        if not a:
            return small
        if len(a) == 1:
            ((d1, c1),) = a.items()
            if d1 == 0 and c1 == 1:
                return big
            return HDPoly._trusted({d1 + d2: c1 * c2 for d2, c2 in b.items()})
        out: dict[int, int] = {}
        for d1, c1 in a.items():
            for d2, c2 in b.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + c1 * c2
        return HDPoly._trusted(out)

    def __pow__(self, k: int) -> "HDPoly":
        """self**k for k >= 0. A polynomial of at most two terms expands by
        the binomial theorem; a longer one is multiplied out k - 1 times."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        if k == 0:
            return ONE
        items = list(self._coeffs.items())
        if len(items) > 2:
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        if len(items) < 2:
            return HDPoly._trusted({deg * k: coeff**k for deg, coeff in items})
        # term i is C(k, i) a^i b^(k-i), each factor carried from term i - 1
        (d1, a), (d2, b) = items
        out: dict[int, int] = {}
        binom, a_power, b_power = 1, 1, b**k
        for i in range(k + 1):
            out[d1 * i + d2 * (k - i)] = binom * a_power * b_power
            binom = binom * (k - i) // (i + 1)
            a_power *= a
            b_power //= b
        return HDPoly._trusted(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HDPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def to_pairs(self) -> list[list]:
        """[degree, coefficient-as-decimal-string] pairs, ascending degree."""
        return [[deg, decimal(self._coeffs[deg])] for deg in sorted(self._coeffs)]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for deg in sorted(self._coeffs, reverse=True):
            coeff = self._coeffs[deg]
            if deg == 0:
                parts.append(decimal(coeff))
            else:
                base = "u" if deg == 1 else f"u^{deg}"
                parts.append(base if coeff == 1 else f"{decimal(coeff)}*{base}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HDPoly({self})"


ZERO = HDPoly()
ONE = HDPoly({0: 1})
U = HDPoly({1: 1})
