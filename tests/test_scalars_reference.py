"""Cyclotomic arithmetic against exact polynomial arithmetic mod Phi_n.

The reference shares nothing with the field: it builds Phi_M from the
Moebius product of the x^d - 1, writes every operand as a polynomial in
zeta_M over ``Fraction`` (M the lcm of the operands' orders) and reduces
mod Phi_M, whose remainders are unique, so two values are equal exactly
when their remainders are.  Inverses and quotients are checked by
multiplying back in the reference.  A second table pins the printed and
float forms of fixed values, which order spectra and N0 supports.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk.scalars import Cyclotomic, format_scalar, sort_key

ORDERS = (1, 3, 4, 5, 8, 12)


# -- reference --------------------------------------------------------------

def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divmod(num, div):
    """(quotient, remainder) of polynomials, ``div`` monic."""
    num, quo = list(num), [0] * max(len(num) - len(div) + 1, 1)
    for k in reversed(range(len(num) - len(div) + 1)):
        c = quo[k] = num[k + len(div) - 1]
        for i, y in enumerate(div):
            num[k + i] -= c * y
    return quo, num[:len(div) - 1]


def phi_poly(n):
    """Phi_n = prod over d | n of (x^d - 1)^mu(n / d)."""
    up, down = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if _mobius(n // d) == 1:
                up = _poly_mul(up, factor)
            else:
                down = _poly_mul(down, factor)
    quo, rem = _divmod(up, down)
    assert not any(rem)
    return quo


def embed(n, coeffs, big):
    """sum_k coeffs[k] zeta_n^k as its remainder mod Phi_big (n | big)."""
    poly = [Fraction(0)] * big
    for k, c in enumerate(coeffs):
        poly[k * (big // n) % big] += Fraction(c)
    return tuple(_divmod(poly, phi_poly(big))[1])


def ref(x, big):
    return embed(x.order, x.coeffs, big)


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(a, b, big):
    return tuple(_divmod(_poly_mul(a, b), phi_poly(big))[1])


def ref_power_map(n, coeffs, k):
    """sum_j coeffs[j] zeta_n^(j k): a Galois map when gcd(k, n) = 1."""
    poly = [Fraction(0)] * n
    for j, c in enumerate(coeffs):
        poly[j * k % n] += Fraction(c)
    return embed(n, poly, n)


# -- operands ---------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
operands = st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(small, min_size=1, max_size=n)))
rationals = st.one_of(st.integers(-4, 4), small)


class TestPolynomialOracle:
    @settings(max_examples=150, deadline=None)
    @given(operands, operands)
    def test_field_operations(self, xs, ys):
        x, y = Cyclotomic(*xs), Cyclotomic(*ys)
        big = math.lcm(xs[0], ys[0])
        a, b = embed(*xs, big), embed(*ys, big)
        one = embed(1, [1], big)
        assert ref(x, big) == a and ref(y, big) == b
        assert ref(x + y, big) == ref_add(a, b)
        assert ref(x - y, big) == ref_add(a, tuple(-v for v in b))
        assert ref(-x, big) == tuple(-v for v in a)
        assert ref(x * y, big) == ref_mul(a, b, big)
        assert ref(x.conjugate(), xs[0]) == ref_power_map(*xs, -1)
        assert (x == y) == (a == b)
        if a == b:
            assert hash(x) == hash(y)
        if any(b):
            assert ref_mul(ref(y.inverse(), big), b, big) == one
            assert ref_mul(ref(x / y, big), b, big) == a
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()

    @settings(max_examples=100, deadline=None)
    @given(operands, rationals)
    def test_int_and_fraction_operands_on_either_side(self, xs, q):
        n = xs[0]
        x = Cyclotomic(*xs)
        a, c = embed(*xs, n), embed(1, [q], n)
        assert ref(x + q, n) == ref(q + x, n) == ref_add(a, c)
        assert ref(x - q, n) == ref_add(a, tuple(-v for v in c))
        assert ref(q - x, n) == ref_add(c, tuple(-v for v in a))
        assert ref(x * q, n) == ref(q * x, n) == ref_mul(a, c, n)
        assert (x == q) == (q == x) == (a == c)
        if a == c:
            assert hash(x) == hash(q) == hash(Fraction(q))
        if q:
            assert ref_mul(ref(x / q, n), c, n) == a
        if any(a):
            assert ref_mul(ref(q / x, n), a, n) == c

    @settings(max_examples=100, deadline=None)
    @given(operands, st.data())
    def test_galois_maps(self, xs, data):
        n = xs[0]
        k = data.draw(st.sampled_from([k for k in range(1, n + 1)
                                       if math.gcd(k, n) == 1]))
        x = Cyclotomic(*xs)
        # on the subfield Q(zeta_order) the map zeta_n -> zeta_n^k is
        # zeta_order -> zeta_order^k
        assert ref(x._sigma(k), n) == ref_power_map(*xs, k)

    @settings(max_examples=100, deadline=None)
    @given(operands, st.integers(2, 3))
    def test_a_value_written_in_a_larger_field(self, xs, m):
        n, coeffs = xs
        spread = [Fraction(0)] * (n * m)
        for k, c in enumerate(coeffs):
            spread[k * m] = c
        x, y = Cyclotomic(n, coeffs), Cyclotomic(n * m, spread)
        assert x == y and hash(x) == hash(y)
        if x.is_rational():
            assert hash(x) == hash(x.rational_value())


# -- pinned outputs -----------------------------------------------------------

z = Cyclotomic.root_of_unity
F = Fraction
BIG = 10 ** 30 + 1


def _gaussian(make, re, im, value):
    """The key is the exact parts, tied by (0,)."""
    text = f"Cyc({re})" if im is None else f"Cyc({re}+{im}i)"
    key = (Fraction(re), Fraction(im or 0), (0,))
    return make, text, [re, im or "0"], key, value


def _cyclic(make, order, coeffs, value):
    """The key is complex()'s parts, tied by the canonical (order, nums, den)."""
    fractions = [Fraction(c) for c in coeffs]
    text = ", ".join(f"Fraction({c.numerator}, {c.denominator})"
                     for c in fractions)
    text = f"Cyc(order={order}, coeffs=({text}))"
    doc = {"order": order, "coeffs": [str(c) for c in fractions]}
    den = math.lcm(*(c.denominator for c in fractions))
    nums = tuple(int(c * den) for c in fractions)
    return make, text, doc, value + ((1, order, nums, den),), value


# name: (value, repr, format_scalar, sort_key, complex() as (re, im)); all
# but sort_key as printed before Cyclotomic stored integer numerators, and
# a Gaussian value's complex() its exact parts, each correctly rounded
PINNED = {
    "0": _gaussian(lambda: Cyclotomic.from_rational(0), "0", None,
                   (0.0, 0.0)),
    "-7/3": _gaussian(lambda: Cyclotomic.from_rational(F(-7, 3)), "-7/3", None,
                      (-2.3333333333333335, 0.0)),
    "big/7": _gaussian(lambda: Cyclotomic.from_rational(F(BIG, 7)),
                       f"{BIG}/7", None, (1.4285714285714285e+29, 0.0)),
    "i": _gaussian(lambda: Cyclotomic.gaussian(0, 1), "0", "1",
                   (0.0, 1.0)),
    "1/2-2i": _gaussian(lambda: Cyclotomic.gaussian(F(1, 2), -2), "1/2", "-2",
                        (0.5, -2.0)),
    "-3/7+5/11i": _gaussian(lambda: Cyclotomic.gaussian(F(-3, 7), F(5, 11)),
                            "-3/7", "5/11",
                            (-0.42857142857142855, 0.45454545454545453)),
    "z3": _cyclic(lambda: z(3), 3, [0, 1],
                  (-0.4999999999999998, 0.8660254037844387)),
    "1+2z3": _cyclic(lambda: 1 + 2 * z(3), 3, [1, 2],
                     (4.440892098500626e-16, 1.7320508075688774)),
    "1/2-3/5z3": _cyclic(lambda: F(1, 2) - F(3, 5) * z(3), 3, ["1/2", "-3/5"],
                         (0.7999999999999998, -0.5196152422706632)),
    "z8": _cyclic(lambda: z(8), 8, [0, 1, 0, 0],
                  (0.7071067811865476, 0.7071067811865475)),
    "z8+z8^7": _cyclic(lambda: z(8) + z(8, 7), 8, [0, 1, 0, -1],
                       (1.414213562373095, -2.220446049250313e-16)),
    "z8^3/3-2": _cyclic(lambda: F(1, 3) * z(8, 3) - 2, 8, [-2, 0, 0, "1/3"],
                        (-2.2357022603955157, 0.2357022603955159)),
    "z25": _cyclic(lambda: z(25), 25, [0, 1] + [0] * 18,
                   (0.9685831611286311, 0.2486898871648548)),
    "z25^7-3/4": _cyclic(lambda: z(25, 7) - F(3, 4), 25,
                         ["-3/4"] + [0] * 6 + [1] + [0] * 12,
                         (-0.9373813145857247, 0.9822872507286885)),
    "z25^24/5+z25^3": _cyclic(lambda: z(25, 24) / 5 + z(25, 3), 25,
                              [0, 0, 0, 1] + (["-1/5"] + [0] * 4) * 3 + ["-1/5"],
                              (0.9226852596471375, 0.6348091284957176)),
}


@pytest.mark.parametrize("make, text, doc, key, value", PINNED.values(),
                         ids=PINNED.keys())
def test_pinned_outputs(make, text, doc, key, value):
    x = make()
    assert repr(x) == text
    assert format_scalar(x) == doc
    assert sort_key(x) == key
    c = complex(x)
    assert (c.real, c.imag) == value
