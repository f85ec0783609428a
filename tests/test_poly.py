import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from x3hd.poly import ONE, U, ZERO, HDPoly, decimal


def poly_from(items):
    return HDPoly(dict(items))


polys = st.dictionaries(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=10**6),
    max_size=8,
).map(HDPoly)


def test_constants():
    assert ONE.terms() == {0: 1}
    assert U.terms() == {1: 1}
    assert ZERO.terms() == {}
    assert ZERO.is_zero() and not ONE.is_zero()


def test_add_examples():
    assert poly_from({0: 4}) + poly_from({4: 12}) == poly_from({0: 4, 4: 12})
    p = poly_from({2: 5, 0: 1})
    assert p + ZERO == p
    assert poly_from({1: 2}) + poly_from({1: 3}) == poly_from({1: 5})


def test_mul_examples():
    assert U * U == poly_from({2: 1})
    two_u_plus_two = poly_from({1: 2, 0: 2})
    assert two_u_plus_two * two_u_plus_two == poly_from({2: 4, 1: 8, 0: 4})
    assert poly_from({3: 7}) * ZERO == ZERO


def test_degree():
    assert poly_from({0: 4, 4: 12}).degree() == 4
    assert ONE.degree() == 0
    assert ZERO.degree() is None


def test_rejects_negative():
    with pytest.raises(ValueError):
        HDPoly({2: -1})
    with pytest.raises(ValueError):
        HDPoly({-1: 2})


@pytest.mark.parametrize("coeffs", [{0: 1.5}, {1.5: 2}, {0: True}, {"1": 1}])
def test_rejects_a_degree_or_coefficient_that_is_not_an_int(coeffs):
    with pytest.raises(TypeError, match="is not an int"):
        HDPoly(coeffs)


def test_zero_coefficients_dropped():
    assert HDPoly({3: 0, 1: 2}) == poly_from({1: 2})


def test_rendering():
    assert str(poly_from({4: 12, 0: 4})) == "12*u^4 + 4"
    assert str(poly_from({1: 2, 0: 2})) == "2*u + 2"
    assert str(poly_from({3: 1})) == "u^3"
    assert str(ZERO) == "0"


def test_json_pairs_ascending_with_string_counts():
    p = poly_from({4: 12, 0: 4})
    assert p.to_pairs() == [[0, "4"], [4, "12"]]
    assert p.to_pairs()[1][1] == "12"


def test_huge_coefficients_stay_exact():
    big = 10**200 + 7
    p = HDPoly({0: big})
    q = p * p
    assert q.coeff(0) == big * big
    assert len(str(q.coeff(0))) >= 400


def test_coefficients_past_the_int_str_limit_render():
    # 5001 digits, past the 4300 digits Python 3.11 converts by default
    digits = "1" + "0" * 4999 + "7"
    p = HDPoly({0: 10**5000 + 7})
    assert str(p) == digits
    assert p.to_pairs() == [[0, digits]]
    assert str(HDPoly({2: 10**5000 + 7})) == digits + "*u^2"


def test_decimal_equals_str_below_the_limit():
    for n in (0, 7, 2**2048 - 1, 2**2048, 10**617, 10**1234 - 1, 3**8000, 10**4299 + 1):
        assert decimal(n) == str(n)


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_degree_of_product_adds(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree() == a.degree() + b.degree()


@given(st.lists(polys, max_size=5))
def test_sum_builtin_works(ps):
    total = sum(ps, ZERO)
    expected = ZERO
    for p in ps:
        expected = expected + p
    assert total == expected


@given(polys, st.integers(min_value=0, max_value=6))
def test_power_equals_repeated_product(a, k):
    # covers the binomial path (two terms) and the multiplied-out one (more)
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


def _schoolbook_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return out


def test_fast_paths_equal_the_schoolbook_reference():
    # the results of +, * and ** skip the public constructor's checks and
    # take shortcuts for zero, one and one-term operands; each must equal
    # the checked polynomial built from plain dict arithmetic
    rng = random.Random(5)
    specials = [ZERO, ONE, U, HDPoly({2: 3}), HDPoly({4: 1}), HDPoly({0: 7})]
    sparse = [
        HDPoly({rng.randrange(12): rng.randrange(1, 10**rng.randint(1, 30))
                for _ in range(rng.randint(1, 6))})
        for _ in range(40)
    ]
    pool = specials + sparse
    for a in pool:
        ta = a.terms()
        for b in pool:
            tb = b.terms()
            total = {d: ta.get(d, 0) + tb.get(d, 0) for d in ta.keys() | tb.keys()}
            for got, want in ((a + b, total), (a * b, _schoolbook_mul(ta, tb))):
                assert got == HDPoly(want), (ta, tb)
                assert all(got.terms().values()), (ta, tb)
        for k in range(5):
            want = {0: 1}
            for _ in range(k):
                want = _schoolbook_mul(want, ta)
            got = a**k
            assert got == HDPoly(want), (ta, k)
            assert all(got.terms().values()), (ta, k)
