from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.errors import ValidationError
from ncgdesk.scalars import Cyclotomic, scalar_is_zero, scalars_equal

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_matrices(n=3):
    side = st.integers(1, n)
    return side.flatmap(lambda r: side.flatmap(lambda c: st.lists(
        st.lists(fr, min_size=c, max_size=c),
        min_size=r, max_size=r).map(la.as_matrix)))


def test_mat_mul_identity():
    m = la.as_matrix([[1, 2], [3, 4]])
    assert la.mat_equal(la.mat_mul(m, la.identity(2)), m)


def test_block_diag_shapes():
    a = la.as_matrix([[1]])
    b = la.as_matrix([[2, 0], [0, 2]])
    d = la.block_diag(a, b)
    assert la.shape(d) == (3, 3)
    assert d[0][0] == 1 and d[2][2] == 2 and d[0][1] == 0


def test_rank_and_rref():
    m = la.as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert la.rank(m) == 2
    assert tuple(la.pivot_columns(m)) == (0, 1)


def test_nullspace_is_in_kernel():
    m = la.as_matrix([[1, 2, 3], [2, 4, 6]])
    basis = la.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        image = la.mat_mul(m, la.from_columns([v]))
        assert la.is_zero_matrix(image)


def test_invert_round_trip():
    m = la.as_matrix([[1, 2], [3, 5]])
    inv = la.invert(m)
    assert la.mat_equal(la.mat_mul(m, inv), la.identity(2))


def test_complex_exact_entries():
    i = Cyclotomic.gaussian(0, 1)
    m = la.as_matrix([[i, 0], [0, i]])
    sq = la.mat_mul(m, m)
    assert scalars_equal(sq[0][0], Fraction(-1))
    assert la.rank(m) == 2


def test_projection_onto_columns_is_idempotent():
    cols = [(Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1), Fraction(0))]
    p = la.projection_onto_columns(cols)
    assert la.mat_equal(la.mat_mul(p, p), p)
    assert la.mat_equal(la.conj_transpose(p), p)
    # fixes the column space
    for c in cols:
        img = la.mat_mul(p, la.from_columns([c]))
        assert la.mat_equal(img, la.from_columns([c]))


def test_op_norm_diagonal():
    m = la.as_matrix([[3, 0], [0, -4]])
    assert abs(la.op_norm(m) - 4.0) < 1e-12


@settings(max_examples=40)
@given(small_matrices())
def test_rank_bounded_and_stable_under_transpose(m):
    r, c = la.shape(m)
    k = la.rank(m)
    assert 0 <= k <= min(r, c)
    assert la.rank(la.transpose(m)) == k


@settings(max_examples=40)
@given(small_matrices())
def test_nullity_plus_rank(m):
    r, c = la.shape(m)
    assert la.rank(m) + len(la.nullspace(m)) == c


def square_matrices(n=2):
    return st.integers(1, n).flatmap(lambda r: st.lists(
        st.lists(fr, min_size=r, max_size=r),
        min_size=r, max_size=r).map(la.as_matrix))


@settings(max_examples=25)
@given(square_matrices(), fr)
def test_trace_linear(m, c):
    assert scalars_equal(la.trace(la.scalar_mul(c, m)), c * la.trace(m)) \
        or scalar_is_zero(la.trace(la.scalar_mul(c, m)) - c * la.trace(m))


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(lambda r: st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(st.complex_numbers(max_magnitude=3), min_size=k,
                          max_size=k), min_size=r, max_size=r),
        st.lists(st.lists(st.complex_numbers(max_magnitude=3), min_size=r,
                          max_size=r), min_size=k, max_size=k)))))
def test_trace_product_matches_trace_of_float_product(pair):
    a, b = map(la.as_matrix, pair)
    got = la.trace_product(a, b)
    assert isinstance(got, complex)
    assert abs(got - la.trace(la.mat_mul(a, b))) <= 1e-9


def test_trace_product_shape_checked():
    with pytest.raises(ValidationError, match="trace_product shape"):
        la.trace_product(la.zeros(2, 3), la.zeros(2, 3))


EXACT = la.as_matrix([[1, 2], [3, 4]])
FLOAT = la.as_matrix([[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("op", [
    la.mat_mul, la.mat_add, la.mat_sub, la.mat_equal, la.block_diag,
    la.stack_rows, lambda a, b: la.block_matrix([[a, b]]), la.trace_product,
], ids=["mat_mul", "mat_add", "mat_sub", "mat_equal", "block_diag",
        "stack_rows", "block_matrix", "trace_product"])
def test_mixed_exact_and_float_operands_rejected(op):
    with pytest.raises(ValidationError):
        op(EXACT, FLOAT)
    with pytest.raises(ValidationError):
        op(FLOAT, EXACT)


def test_empty_shape_is_kept():
    assert la.shape(la.zeros(0, 3)) == (0, 3)
    assert la.shape(la.transpose(la.zeros(2, 0))) == (0, 2)


def test_nullspace_of_zero_row_matrix_is_everything():
    basis = la.nullspace(la.zeros(0, 3))
    assert len(basis) == 3
    assert la.mat_equal(la.from_columns(basis), la.identity(3))


def test_mat_mul_through_empty_inner_dimension():
    out = la.mat_mul(la.zeros(2, 0), la.zeros(0, 3))
    assert la.shape(out) == (2, 3) and la.is_zero_matrix(out)


def test_empty_float_matrix_is_not_exact():
    assert not la.is_exact_matrix(la.zeros(0, 3, exact=False))
    assert not la.is_exact_matrix(la.zeros(2, 0, exact=False))
