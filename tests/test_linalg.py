from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.errors import ValidationError
from ncgdesk.scalars import Cyclotomic, get_epsilon, scalar_is_zero, scalars_equal

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_matrices(n=3):
    side = st.integers(1, n)
    return side.flatmap(lambda r: side.flatmap(lambda c: st.lists(
        st.lists(fr, min_size=c, max_size=c),
        min_size=r, max_size=r).map(la.as_matrix)))


def test_mat_mul_identity():
    m = la.as_matrix([[1, 2], [3, 4]])
    assert la.mat_equal(la.mat_mul(m, la.identity(2)), m)


@pytest.mark.parametrize("c", [0, 3, Fraction(-5, 6),
                               Cyclotomic.gaussian(1, Fraction(2, 3)),
                               Cyclotomic.root_of_unity(3, 1)])
def test_scalar_matrix_is_the_scaled_identity(c):
    for n in (1, 3):
        assert la.scalar_matrix(c, n) == la.scalar_mul(c, la.identity(n))


def test_one_block_and_one_cell_are_the_matrix():
    for m in (la.as_matrix([[1, Fraction(1, 2)], [Cyclotomic.gaussian(0, 1), 3]]),
              la.as_matrix([[1.0, 2j], [0.5, 0.0]])):
        assert la.block_diag(m) is m
        assert la.grid_cell(m, 2, 0, 0) is m
        assert la.grid_cell(m, 1, 1, 0) == la.as_matrix([[la.entries(m)[1][0]]])


def test_block_diag_shapes():
    a = la.as_matrix([[1]])
    b = la.as_matrix([[2, 0], [0, 2]])
    d = la.block_diag(a, b)
    assert la.shape(d) == (3, 3)
    rows = la.entries(d)
    assert rows[0][0] == 1 and rows[2][2] == 2 and rows[0][1] == 0


def test_rank_and_rref():
    m = la.as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert la.rank(m) == 2
    assert tuple(la.pivot_columns(m)) == (0, 1)


def test_nullspace_is_in_kernel():
    m = la.as_matrix([[1, 2, 3], [2, 4, 6]])
    basis = la.kernel_basis(m)
    assert la.shape(basis) == (3, 2)
    assert la.is_zero_matrix(la.mat_mul(m, basis))


def test_invert_round_trip():
    m = la.as_matrix([[1, 2], [3, 5]])
    inv = la.invert(m)
    assert la.mat_equal(la.mat_mul(m, inv), la.identity(2))


def test_complex_exact_entries():
    i = Cyclotomic.gaussian(0, 1)
    m = la.as_matrix([[i, 0], [0, i]])
    sq = la.mat_mul(m, m)
    assert scalars_equal(la.entries(sq)[0][0], Fraction(-1))
    assert la.rank(m) == 2


def test_projection_onto_columns_is_idempotent():
    cols = [(Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1), Fraction(0))]
    p = la.projection_onto_columns(la.from_columns(cols))
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
    assert la.rank(m) + la.shape(la.kernel_basis(m))[1] == c


def square_matrices(n=2):
    return st.integers(1, n).flatmap(lambda r: st.lists(
        st.lists(fr, min_size=r, max_size=r),
        min_size=r, max_size=r).map(la.as_matrix))


@settings(max_examples=25)
@given(square_matrices(), fr)
def test_trace_linear(m, c):
    assert scalars_equal(la.trace(la.scalar_mul(c, m)), c * la.trace(m)) \
        or scalar_is_zero(la.trace(la.scalar_mul(c, m)) - c * la.trace(m))


def test_block_traces_are_the_traces_of_each_block():
    z3, i = Cyclotomic.root_of_unity(3, 1), Cyclotomic.gaussian(0, 1)
    blocks = [[la.as_matrix([[Fraction(1, 2), 0], [5, 2]]),
               la.as_matrix([[z3, 1], [0, z3 * z3]]),
               la.as_matrix([[Fraction(3, 4), 1], [1, Fraction(-3, 4)]])],
              [la.as_matrix([[i]]), la.as_matrix([[Fraction(1, 6)]]),
               la.as_matrix([[-1]])]]
    table = la.block_traces([la.block_matrix([row]) for row in blocks])
    assert table == la.as_matrix([[la.trace(row[g]) for row in blocks]
                                  for g in range(3)])


EXACT = la.as_matrix([[1, 2], [3, 4]])
FLOAT = la.as_matrix([[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("op", [
    la.mat_mul, la.mat_add, la.mat_sub, la.mat_equal, la.block_diag,
    la.stack_rows, lambda a, b: la.block_matrix([[a, b]]), la.kron,
    lambda a, b: la.combine([(1, a), (2, b)]),
], ids=["mat_mul", "mat_add", "mat_sub", "mat_equal", "block_diag",
        "stack_rows", "block_matrix", "kron", "combine"])
def test_mixed_exact_and_float_operands_rejected(op):
    assert type(EXACT) is la.ExactMatrix and type(FLOAT) is la.FloatMatrix
    with pytest.raises(ValidationError):
        op(EXACT, FLOAT)
    with pytest.raises(ValidationError):
        op(FLOAT, EXACT)


# -- the packed-type contract ------------------------------------------------
# A and B are 2 x 2, A invertible and B of rank 1.  Each matrix-valued op
# maps (a, b) to a matrix; REFERENCE gives numpy's answer on the same arrays.

A_ROWS = [[1, 2], [3, 5]]
B_ROWS = [[2, 4], [1, Fraction(2)]]

MATRIX_OPS = {
    "mat_add": la.mat_add,
    "mat_sub": la.mat_sub,
    "mat_neg": lambda a, b: la.mat_neg(a),
    "scalar_mul": lambda a, b: la.scalar_mul(Fraction(1, 3), a),
    "mat_mul": la.mat_mul,
    "kron": la.kron,
    "conj_transpose": lambda a, b: la.conj_transpose(a),
    "transpose": lambda a, b: la.transpose(a),
    "block_diag": la.block_diag,
    "stack_rows": la.stack_rows,
    "block_matrix": lambda a, b: la.block_matrix([[a, b], [b, a]]),
    "grid_cell": lambda a, b: la.grid_cell(a, 1, 1, 0),
    "invert": lambda a, b: la.invert(a),
    "kernel_basis": lambda a, b: la.kernel_basis(b),
    "projection_onto_columns":
        lambda a, b: la.projection_onto_columns(la.kernel_basis(b)),
}

SCALAR_OPS = {
    "trace": lambda a, b: la.trace(a),
    "op_norm": lambda a, b: la.op_norm(a),
    "rank": lambda a, b: la.rank(b),
    "pivot_columns": lambda a, b: la.pivot_columns(b),
    "mat_equal": la.mat_equal,
    "is_zero_matrix": lambda a, b: la.is_zero_matrix(la.mat_sub(a, a)),
    "entries": lambda a, b: la.entries(a),
    "shape": lambda a, b: la.shape(b),
}


def _kernel(b):
    _, s, vh = np.linalg.svd(b)
    return vh[int(np.sum(s > get_epsilon())):].conj().T


REFERENCE = {
    "mat_add": lambda a, b: a + b,
    "mat_sub": lambda a, b: a - b,
    "mat_neg": lambda a, b: -a,
    "scalar_mul": lambda a, b: a / 3,
    "mat_mul": lambda a, b: a @ b,
    "kron": np.kron,
    "conj_transpose": lambda a, b: a.conj().T,
    "transpose": lambda a, b: a.T,
    "block_diag": lambda a, b: np.block([[a, 0 * b], [0 * a, b]]),
    "stack_rows": lambda a, b: np.vstack([a, b]),
    "block_matrix": lambda a, b: np.block([[a, b], [b, a]]),
    "grid_cell": lambda a, b: a[1:, :1],
    "invert": lambda a, b: np.linalg.inv(a),
    "kernel_basis": lambda a, b: _kernel(b),
    "projection_onto_columns":
        lambda a, b: _kernel(b) @ _kernel(b).conj().T,
    "trace": lambda a, b: np.trace(a),
    "op_norm": lambda a, b: np.linalg.norm(a, 2),
    "rank": lambda a, b: np.linalg.matrix_rank(b),
    "pivot_columns": lambda a, b: [0],
    "mat_equal": lambda a, b: False,
    "is_zero_matrix": lambda a, b: True,
    "entries": lambda a, b: a,
    "shape": lambda a, b: b.shape,
}


def _operands(exact: bool, packed: bool):
    rows = [A_ROWS, B_ROWS] if exact else \
        [[[complex(x) for x in row] for row in m] for m in (A_ROWS, B_ROWS)]
    return [la.as_matrix(m) for m in rows] if packed else rows


@pytest.mark.parametrize("name", MATRIX_OPS)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_matrix_ops_keep_the_packed_type(name, exact):
    out = MATRIX_OPS[name](*_operands(exact, True))
    assert type(out) is (la.ExactMatrix if exact else la.FloatMatrix)


def _built(exact: bool):
    """A and B built from their numerators or their array, not by as_matrix."""
    if exact:
        return [la.from_numerators(1, [[[int(x) for x in row] for row in m]], 1)
                for m in (A_ROWS, B_ROWS)]
    return [la.FloatMatrix(np.array(m, dtype=complex)) for m in (A_ROWS, B_ROWS)]


@pytest.mark.parametrize("name", [*MATRIX_OPS, *SCALAR_OPS])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_nested_operands_give_the_packed_result(name, exact):
    # as_matrix, the one packer of nested operands, gives the matrices
    # the other constructors build, so every operation answers alike
    op = {**MATRIX_OPS, **SCALAR_OPS}[name]
    nested = _operands(exact, False)
    assert op(*map(la.as_matrix, nested)) == op(*_built(exact))


@pytest.mark.parametrize("name", [*MATRIX_OPS, *SCALAR_OPS])
def test_float_results_match_numpy(name):
    op = {**MATRIX_OPS, **SCALAR_OPS}[name]
    got = op(*_operands(False, True))
    want = REFERENCE[name](*map(la.to_numpy, _operands(False, True)))
    if isinstance(got, (bool, list)):
        assert got == want
    else:
        got = la.to_numpy(got) if type(got) is la.FloatMatrix else np.array(got)
        assert got.shape == np.shape(want)
        assert np.allclose(got, want, rtol=0, atol=get_epsilon())


def test_float_matrices_are_read_only():
    f = la.as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        la.to_numpy(f)[0, 0] = 3.0
    copied = np.array([[1.0, 2.0]])
    g = la.as_matrix(copied)
    copied[0, 0] = 5.0
    assert g == f and type(g) is la.FloatMatrix


def test_empty_shape_is_kept():
    assert la.shape(la.zeros(0, 3)) == (0, 3)
    assert la.shape(la.transpose(la.zeros(2, 0))) == (0, 2)


def test_nullspace_of_zero_row_matrix_is_everything():
    basis = la.kernel_basis(la.zeros(0, 3))
    assert la.shape(basis)[1] == 3
    assert la.mat_equal(basis, la.identity(3))


def test_mat_mul_through_empty_inner_dimension():
    out = la.mat_mul(la.zeros(2, 0), la.zeros(0, 3))
    assert la.shape(out) == (2, 3) and la.is_zero_matrix(out)


def test_float_combine_adds_in_order_from_zero():
    # bit for bit the sum of scalar_mul products added one at a time to 0
    rng = np.random.default_rng(3)
    mats = [la.FloatMatrix(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in range(4)]
    scalars = [0.3 - 1.7j, Fraction(2, 3), Cyclotomic.root_of_unity(3), -1]
    total = la.zeros(3, 3, exact=False)
    for c, m in zip(scalars, mats):
        total = la.mat_add(total, la.scalar_mul(c, m))
    got = la.combine(list(zip(scalars, mats)))
    assert type(got) is la.FloatMatrix and got.arr.tobytes() == total.arr.tobytes()
    # a float scalar makes the sum of exact matrices float
    exact = la.as_matrix([[1, Fraction(1, 3)], [0, Cyclotomic.root_of_unity(8)]])
    got = la.combine([(0.5, exact), (Fraction(1, 2), exact)])
    want = la.mat_add(la.mat_add(la.zeros(2, 2, exact=False), la.scalar_mul(0.5, exact)),
                      la.scalar_mul(Fraction(1, 2), la.FloatMatrix(la.to_numpy(exact))))
    assert type(got) is la.FloatMatrix and got.arr.tobytes() == want.arr.tobytes()


def test_empty_float_matrix_is_not_exact():
    assert type(la.zeros(0, 3, exact=False)) is la.FloatMatrix
    assert type(la.zeros(2, 0, exact=False)) is la.FloatMatrix


# Refusals of the public operations, exact and float alike.
EXACT_2x2 = la.as_matrix([[1, 2], [3, 4]])
FLOAT_2x3 = la.as_matrix([[1.0, 0.0, 2j]] * 2)
REFUSALS = {
    "bool entry": (lambda: la.as_matrix([[1, True]]), "bool is not a scalar"),
    "string entry": (lambda: la.as_matrix([["1"]]),
                     "unsupported matrix entry '1'"),
    "ragged rows": (lambda: la.as_matrix([[1, 2], [3]]), "ragged matrix rows"),
    "sum of different shapes": (
        lambda: la.mat_add(EXACT_2x2, la.identity(3)),
        r"add shape mismatch \(2, 2\) vs \(3, 3\)"),
    "product of mismatched shapes": (
        lambda: la.mat_mul(FLOAT_2x3, la.identity(2, exact=False)),
        r"matmul shape mismatch \(2, 3\) x \(2, 2\)"),
    "rows of different widths stacked": (
        lambda: la.stack_rows(EXACT_2x2, la.identity(3)),
        "matrices to stack are missing or differ in size"),
    "nothing stacked": (lambda: la.stack_rows(),
                        "matrices to stack are missing or differ in size"),
    "grid of misfitting blocks": (
        lambda: la.block_matrix([[EXACT_2x2, la.identity(3)]]),
        "matrices to stack are missing or differ in size"),
    "inverse of a non-square matrix": (
        lambda: la.invert(FLOAT_2x3), "invert: matrix not square"),
    "projection onto no columns": (
        lambda: la.projection_onto_columns(la.as_matrix([])),
        "projection_onto_columns: empty basis"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_operands_are_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_matrices_of_different_shapes_are_not_equal():
    assert not la.mat_equal(EXACT_2x2, la.identity(3))
    assert not la.mat_equal(FLOAT_2x3, la.zeros(3, 2, exact=False))


def test_packed_matrices_compare_unequal_to_other_types():
    for m in (EXACT_2x2, FLOAT_2x3):
        assert m != 1 and m != la.entries(m)
        assert (m == 1) is False


def test_no_columns_with_a_row_count_are_that_many_empty_rows():
    assert la.shape(la.from_columns([], 3)) == (3, 0)

