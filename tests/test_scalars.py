import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra
from ncgdesk.errors import NumericalError
from ncgdesk.cyclic import DecompositionRep, HCClass, TensorElement, check_face_bound
from ncgdesk.scalars import (
    Cyclotomic,
    conj_scalar,
    eliminate,
    format_scalar,
    get_epsilon,
    parse_scalar,
    scalar_is_zero,
    scalars_equal,
    set_epsilon,
    sort_key,
    tagged,
    tags,
    to_complex,
)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
gaussians = st.builds(Cyclotomic.gaussian, fractions, fractions)

# (n, coefficients of 1, zeta_n, ..., zeta_n^(n-1)), checked against complex
# arithmetic, which shares no table with the field.
ORACLE_ORDERS = (1, 3, 4, 5, 8, 12, 24)
small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
coefficient_lists = st.sampled_from(ORACLE_ORDERS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(small, min_size=1, max_size=n)))
elements = coefficient_lists.map(lambda nc: Cyclotomic(*nc))


def _point(x):
    """The float element x of the algebra C."""
    return AlgebraElement(MultiMatrixAlgebra((1,)), 1, (((x,),),))


def value(n, coeffs):
    return sum(float(c) * cmath.exp(2j * math.pi * k / n) for k, c in enumerate(coeffs))


def close(z, w):
    return abs(z - w) <= 1e-9 * (1 + abs(w))


class TestCyclotomic:
    def test_rational_embedding(self):
        x = Cyclotomic.from_rational(Fraction(3, 4))
        assert x.is_rational() and x.rational_value() == Fraction(3, 4)
        assert complex(x) == 0.75

    @pytest.mark.parametrize("q", [0, 1, -1, Fraction(1, 2), Fraction(-7, 3),
                                   Fraction(10 ** 30 + 1, 7), 2 ** 61 - 1])
    def test_rational_hashes_as_its_fraction(self, q):
        x = Cyclotomic.from_rational(q)
        assert x == Fraction(q) and hash(x) == hash(Fraction(q))
        assert len({x, Fraction(q)}) == 1

    def test_root_of_unity_powers(self):
        w = Cyclotomic.root_of_unity(3)
        assert (w ** 3).is_rational()
        assert (w ** 3).rational_value() == 1
        # 1 + w + w^2 = 0
        assert (Cyclotomic.from_rational(1) + w + w * w).is_zero()

    def test_gaussian_parts(self):
        z = Cyclotomic.gaussian(Fraction(1, 2), Fraction(-2))
        assert z.is_gaussian()
        assert z.gaussian_parts() == (Fraction(1, 2), Fraction(-2))
        assert abs(complex(z) - complex(0.5, -2)) < 1e-12

    @given(fractions, fractions)
    def test_gaussian_embeds_as_its_rounded_parts(self, re, im):
        assert complex(Cyclotomic.gaussian(0, 1)) == 1j
        assert complex(Cyclotomic.gaussian(1, 2)) == 1 + 2j
        # float(Fraction) rounds correctly, as the int division does
        assert complex(Cyclotomic.gaussian(re, im)) == complex(float(re),
                                                               float(im))

    def test_gaussian_is_the_generic_canonical_form(self):
        grid = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4, 6)]
        for re in grid:
            for im in grid:
                fast, generic = Cyclotomic.gaussian(re, im), Cyclotomic(4, (re, im))
                assert (fast.order, fast.coeffs) == (generic.order, generic.coeffs)
                assert hash(fast) == hash(generic)

    def test_conjugate_of_root(self):
        w = Cyclotomic.root_of_unity(5)
        assert (w * w.conjugate()).rational_value() == 1

    def test_inverse(self):
        z = Cyclotomic.gaussian(Fraction(3), Fraction(4))
        assert (z * z.inverse()).rational_value() == 1
        with pytest.raises(ZeroDivisionError):
            Cyclotomic.from_rational(0).inverse()

    @given(gaussians)
    def test_gaussian_inverse_matches_galois_route(self, z):
        # the generic route: z times its other Galois conjugates is its norm
        if z.is_zero():
            with pytest.raises(ZeroDivisionError):
                z.inverse()
            return
        if z.order == 1:
            generic = Cyclotomic.from_rational(1 / z.rational_value())
        else:
            rest = z._sigma(3)
            generic = rest * (1 / (z * rest).rational_value())
        assert z.inverse() == generic
        assert z * z.inverse() == 1

    def test_mixed_order_arithmetic(self):
        # i lives in order 4, w in order 3; the sum needs order 12
        i = Cyclotomic.gaussian(0, 1)
        w = Cyclotomic.root_of_unity(3)
        s = i + w
        assert abs(complex(s) - (1j + complex(w))) < 1e-12

    @given(gaussians, gaussians)
    def test_add_commutes(self, a, b):
        assert (a + b) == (b + a)

    @given(gaussians, gaussians, gaussians)
    def test_mul_distributes(self, a, b, c):
        assert (a * (b + c)) == (a * b + a * c)

    @given(gaussians)
    def test_conjugate_involutive(self, a):
        assert a.conjugate().conjugate() == a

    @given(gaussians)
    def test_complex_embedding_is_homomorphic(self, a):
        b = Cyclotomic.gaussian(Fraction(1, 3), Fraction(2))
        assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9


class TestFieldOracle:
    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists, coefficient_lists)
    def test_operations_match_complex(self, xs, ys):
        x, y = Cyclotomic(*xs), Cyclotomic(*ys)
        zx, zy = value(*xs), value(*ys)
        assert close(complex(x), zx) and close(complex(y), zy)
        assert close(complex(x + y), zx + zy)
        assert close(complex(x - y), zx - zy)
        assert close(complex(x * y), zx * zy)
        assert close(complex(x.conjugate()), zx.conjugate())
        if not y.is_zero():
            assert close(complex(x / y), zx / zy)

    @settings(max_examples=100, deadline=None)
    @given(elements)
    def test_inverse(self, x):
        assume(not x.is_zero())
        assert x * x.inverse() == 1

    @pytest.mark.parametrize("make, order", [
        (lambda: Cyclotomic.root_of_unity(8) + Cyclotomic.root_of_unity(8, 7), 8),
        (lambda: Cyclotomic.root_of_unity(12, 4), 3),
        (lambda: Cyclotomic.root_of_unity(6), 3),
        (lambda: Cyclotomic.gaussian(0, 1) * Cyclotomic.root_of_unity(3), 12),
    ], ids=["z8+z8^7", "z12^4", "z6", "i*z3"])
    def test_conductor(self, make, order):
        assert make().order == order


# Q(i) operands with parts up to 2^80: a second operand drawn on its own,
# or as the first's negation, a rational multiple of its conjugate or a
# value with the opposite imaginary part, so sums, differences and products
# reach zero and rational results
huge = st.integers(-2 ** 80, 2 ** 80)
big_rationals = st.builds(Fraction, huge, st.just(1) | st.integers(1, 2 ** 80))
im_parts = big_rationals | st.just(Fraction(0))


def _gaussian_operand(draw, re, im):
    """An exact operand of value re + im i: an int, a Fraction or a
    Cyclotomic, as its value allows."""
    kinds = ["cyclotomic"]
    if not im:
        kinds += ["fraction", "int"] if re.denominator == 1 else ["fraction"]
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return int(re)
    return re if kind == "fraction" else Cyclotomic.gaussian(re, im)


@st.composite
def gaussian_pairs(draw):
    re, im = draw(big_rationals), draw(im_parts)
    r, s, t = draw(big_rationals), draw(big_rationals), draw(im_parts)
    second = draw(st.sampled_from([(s, t), (-re, -im), (re * r, -im * r), (s, -im)]))
    x, y = _gaussian_operand(draw, re, im), _gaussian_operand(draw, *second)
    if not isinstance(y, Cyclotomic):  # one Cyclotomic makes the results one
        x = Cyclotomic.gaussian(re, im)
    return x, y


def _pair_parts(x):
    return x.gaussian_parts() if isinstance(x, Cyclotomic) else (Fraction(x), Fraction(0))


def _canonical(x):
    return x.order, x.nums, x.den


class TestGaussianRoute:
    """Q and Q(i) operands skip the field tables; their sums, differences
    and products are the canonical Cyclotomic of the Fraction-pair result."""

    @settings(max_examples=300, deadline=None)
    @given(gaussian_pairs())
    def test_matches_fraction_pair_arithmetic(self, xy):
        for x, y in (xy, xy[::-1]):
            (a, b), (c, d) = _pair_parts(x), _pair_parts(y)
            for got, re, im in ((x + y, a + c, b + d), (x - y, a - c, b - d),
                                (x * y, a * c - b * d, a * d + b * c)):
                assert _canonical(got) == _canonical(Cyclotomic.gaussian(re, im))


# exact values of every kind, and finite floats and complexes small enough
# that no product or quotient overflows
zetas = st.sampled_from((3, 5, 8, 12)).flatmap(
    lambda n: st.lists(small, min_size=1, max_size=n).map(
        lambda c: Cyclotomic(n, c)))
exact = st.one_of(st.integers(-10, 10), fractions, gaussians, zetas)
finite = st.floats(-1e6, 1e6)
inexact = st.one_of(finite, st.builds(complex, finite, finite))
OPERATIONS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _results(op, x, y):
    """op in both orders, skipping a zero divisor."""
    return [op(a, b) for a, b in ((x, y), (y, x))
            if op is not operator.truediv or b != 0]


class TestFloatOperands:
    """An exact value meeting a float or complex gives the complex result,
    as a Fraction does."""

    @settings(max_examples=200, deadline=None)
    @given(exact, inexact)
    def test_mixed_operations_run_on_the_complex_value(self, x, y):
        for op in OPERATIONS:
            assert _results(op, x, y) == _results(op, complex(x), y)

    @settings(max_examples=100, deadline=None)
    @given(exact, st.one_of(gaussians, zetas))
    def test_exact_operations_stay_exact(self, x, y):
        for op in OPERATIONS:
            for got, want in zip(_results(op, x, y),
                                 _results(op, complex(x), complex(y))):
                assert isinstance(got, Cyclotomic) and close(complex(got), want)
        assert (x + y) - y == x and (x - y) + y == x
        if y:
            assert (x * y) / y == x

    @pytest.mark.parametrize("x", [
        Cyclotomic.from_rational(10 ** 400), Cyclotomic.gaussian(1, 10 ** 400),
        Cyclotomic(3, (0, 10 ** 400))], ids=["rational", "gaussian", "zeta3"])
    @pytest.mark.parametrize("y", [0.5, 0.5j])
    def test_beyond_float_range_is_a_numerical_error(self, x, y):
        for op in OPERATIONS:
            for a, b in ((x, y), (y, x)):
                with pytest.raises(NumericalError):
                    op(a, b)


class TestHelpers:
    def test_scalar_is_zero_exact(self):
        assert scalar_is_zero(Cyclotomic.from_rational(0))
        assert not scalar_is_zero(Cyclotomic.gaussian(0, Fraction(1, 10 ** 9)))

    def test_scalar_is_zero_float(self):
        assert scalar_is_zero(1e-12)
        assert not scalar_is_zero(1e-3)

    def test_epsilon_roundtrip(self):
        old = get_epsilon()
        try:
            set_epsilon(1e-6)
            assert get_epsilon() == 1e-6
            assert scalars_equal(0.0, 1e-7)
        finally:
            set_epsilon(old)

    @pytest.mark.parametrize("accepts", [
        lambda d: scalar_is_zero(d),
        lambda d: la.mat_equal(la.as_matrix(((1.0,),)),
                               la.as_matrix(((1.0 + d,),))),
        lambda d: _point(1.0).equals(_point(1.0 + d)),
        lambda d: TensorElement.from_summand((_point(1.0),)).equals(
            TensorElement.from_summand((_point(1.0 + d),))),
        lambda d: HCClass(0, (1.0,)).equals(HCClass(0, (1.0 + d,))),
        # d_0 of a degree-0 summand x is x^2, whose norm is (1 + d) * d
        # above the norm of x = 1 + d
        lambda d: check_face_bound(DecompositionRep(((_point(1.0 + d),),)), 0),
    ], ids=["scalar_is_zero", "mat_equal", "AlgebraElement.equals",
            "TensorElement.equals", "HCClass.equals", "check_face_bound"])
    def test_one_epsilon_decides_every_float_comparison(self, accepts):
        assert not accepts(1e-7)
        old = get_epsilon()
        try:
            set_epsilon(1e-6)
            assert accepts(1e-7)
        finally:
            set_epsilon(old)

    def test_conj_scalar_float(self):
        assert conj_scalar(complex(1, 2)) == complex(1, -2)

    def test_sort_key_orders_by_real_then_imag(self):
        xs = [Cyclotomic.gaussian(1, 0), Cyclotomic.gaussian(0, 1),
              Cyclotomic.gaussian(0, -1)]
        assert sorted(xs, key=sort_key) == [xs[2], xs[1], xs[0]]

    def test_sort_key_puts_a_negative_zero_first(self):
        # equal floats whose zeros differ in sign: the same one comes first
        # in either order, so a merged float key prints the same bytes
        xs = [complex(1, 0.0), complex(1, -0.0)]
        for listed in (xs, xs[::-1]):
            assert str(min(listed, key=sort_key)) == "(1-0j)"


# sparse exact columns over a few rows, so that many columns are dependent
entries = st.one_of(st.integers(-2, 2), small, elements)
sparse = st.dictionaries(st.integers(0, 4), entries, max_size=4)
column_lists = st.lists(sparse, max_size=8)


# integer columns whose pivots need not be units
small_ints = st.integers(-6, 6)
int_columns = st.lists(st.dictionaries(st.integers(0, 4), small_ints, max_size=4),
                       max_size=8)


def rational1(vec: dict) -> dict:
    """vec with each entry an order-1 Cyclotomic: the pivot-1 path."""
    return {k: Cyclotomic.from_rational(v) for k, v in vec.items()}


def untagged(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if k >= 0}


def combine(coeffs: dict, cols) -> dict:
    """sum of c * cols[j] over coeffs {j: c}, zeros dropped."""
    out = {}
    for j, c in coeffs.items():
        for i, x in cols[j].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


class TestEliminator:
    """The eliminator keeps rows only; tagged columns [A; I] carry the
    combinations, and change nothing at indices >= 0."""

    @settings(max_examples=40, deadline=None)
    @given(column_lists, sparse)
    def test_tags_change_no_row_and_no_residue(self, cols, vec):
        plain, independent, kernel = eliminate(cols)
        red, independent_t, _ = eliminate(tagged(cols))
        assert plain.rank == red.rank == len(independent)
        assert independent == independent_t
        assert kernel == []
        assert plain.rows == {p: untagged(row) for p, row in red.rows.items()}
        assert plain.reduce(vec) == untagged(red.reduce(vec))

    @settings(max_examples=40, deadline=None)
    @given(column_lists)
    def test_kernel_vectors(self, cols):
        _, independent, kernel = eliminate(tagged(cols))
        positions = [j for j in range(len(cols)) if j not in independent]
        assert len(kernel) == len(positions)
        for j, k in zip(positions, kernel):
            assert k[j] == 1
            assert set(k) - {j} <= {i for i in independent if i < j}
            assert combine(k, cols) == {}

    @settings(max_examples=40, deadline=None)
    @given(column_lists, sparse)
    def test_tags_rebuild_the_subtracted_combination(self, cols, vec):
        red, _, _ = eliminate(tagged(cols))
        residue = red.reduce(vec)
        combo = {j: -c for j, c in tags(residue).items()}
        rebuilt = combine(combo, cols)
        for i, x in untagged(residue).items():
            rebuilt[i] = rebuilt.get(i, 0) + x
        assert {i: x for i, x in rebuilt.items() if x} \
            == {i: x for i, x in vec.items() if x}

    @settings(max_examples=60, deadline=None)
    @given(int_columns, st.dictionaries(st.integers(0, 4),
                                        st.one_of(small_ints, small), max_size=4),
           st.booleans())
    def test_fraction_free_rows_match_the_pivot_one_path(self, cols, vec, tag):
        wrap = tagged if tag else list
        red, independent, kernel = eliminate(wrap(cols))
        unit, independent_1, kernel_1 = eliminate(wrap(map(rational1, cols)))
        assert red.rank == unit.rank
        assert (independent, kernel) == (independent_1, kernel_1)
        assert red.rows == unit.rows
        assert red.reduce(vec) == unit.reduce(rational1(vec))

    def test_an_int_vector_meets_a_cyclotomic_row(self):
        # row 0 is 2 e_0 + e_1 in ints, row 1 is e_1 + w e_2 over Q(w), w^3 = 1
        w = Cyclotomic.root_of_unity(3)
        cols = [{0: 2, 1: 1}, {1: 1, 2: w}]
        red, independent, _ = eliminate(tagged(cols))
        assert independent == [0, 1]
        # e_0 - col_0 / 2 = -e_1 / 2 leaves the int path at row 1
        residue = {2: w / 2, -1: Fraction(-1, 2), -2: Fraction(1, 2)}
        assert red.reduce({0: 1}) == residue
        assert red.reduce({0: Fraction(1, 3), 3: 5}) \
            == {3: 5} | {k: v / 3 for k, v in residue.items()}
        assert red.rows[0] == {0: 1, 1: Fraction(1, 2), -1: Fraction(1, 2)}


class TestJson:
    @given(gaussians)
    def test_roundtrip_gaussian(self, a):
        assert parse_scalar(format_scalar(a)) == a

    def test_roundtrip_nongaussian(self):
        w = Cyclotomic.root_of_unity(3)
        doc = format_scalar(w)
        assert isinstance(doc, dict)
        assert parse_scalar(doc) == w

    def test_roundtrip_float(self):
        doc = format_scalar(complex(0.5, -1.25))
        z = parse_scalar(doc)
        assert isinstance(z, complex) or math.isclose(to_complex(z).real, 0.5)
        assert abs(to_complex(z) - complex(0.5, -1.25)) < 1e-12

    def test_bare_string_is_exact(self):
        x = parse_scalar("2/3")
        assert x.is_rational() and x.rational_value() == Fraction(2, 3)


class TestRefusals:
    def test_cyclotomic_is_immutable(self):
        z = Cyclotomic.root_of_unity(3)
        with pytest.raises(AttributeError, match="^Cyclotomic is immutable$"):
            z.order = 6
        assert z == Cyclotomic.root_of_unity(3)

    def test_values_outside_a_subfield_are_refused(self):
        w = Cyclotomic.root_of_unity(3)
        with pytest.raises(ValueError, match="^not a rational scalar$"):
            Cyclotomic.gaussian(0, 1).rational_value()
        with pytest.raises(ValueError,
                           match="^scalar is not a Gaussian rational$"):
            w.gaussian_parts()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_a_foreign_operand_raises_type_error(self, op):
        w = Cyclotomic.root_of_unity(3)
        for a, b in ((w, "1"), ("1", w)):
            with pytest.raises(TypeError):
                op(a, b)

    def test_lazy_import_returns_a_loaded_module(self):
        import numpy
        from ncgdesk.scalars import _lazy_import
        assert _lazy_import("numpy") is numpy
