"""The packed exact kernel against a plain triple-loop reference.

The reference works on lists of row lists of Cyclotomic scalars, one
entry at a time.  Every property requires the packed result to equal the
reference exactly, entry by entry and as a canonical packed matrix.
The reference's Cyclotomic scalars use the same field tables as the
kernel, so products are also checked against numpy complex matmul.

The exact eliminator (the sparse reducer behind ``rank``,
``pivot_columns``, ``kernel_basis``, ``invert`` and the subfield tables) is
checked against a dense Gauss-Jordan elimination on the same row lists,
value for value.
"""

from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.errors import ValidationError
from ncgdesk.scalars import Cyclotomic, _promotion, _subfields

ZERO = Cyclotomic.from_rational(0)
ORDERS = (1, 3, 4, 12)
PHI = {1: 1, 3: 2, 4: 2, 5: 4, 8: 4, 12: 4}
NEAR_2_64 = st.integers(2 ** 64 - 2 ** 8, 2 ** 64 + 2 ** 8)


# -- reference --------------------------------------------------------------

def ref_mul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), ZERO)
             for j in range(cols)] for row in a]


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(c, a):
    return [[c * x for x in row] for row in a]


def ref_conj_transpose(a, rows, cols):
    return [[a[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def ref_block_diag(parts):
    cols = sum(c for _, _, c in parts)
    out = []
    c0 = 0
    for m, r, c in parts:
        for i in range(r):
            out.append([ZERO] * c0 + list(m[i]) + [ZERO] * (cols - c0 - c))
        c0 += c
    return out


def ref_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def ref_rref(rows, ncols):
    """Dense Gauss-Jordan: rows (lists) to RREF in place; the pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def ref_nullspace(a, c):
    rows = [list(row) for row in a]
    pivots = ref_rref(rows, c)
    basis = []
    for f in range(c):
        if f in pivots:
            continue
        vec = [ZERO] * c
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        basis.append(tuple(vec))
    return basis


def ref_invert(a, n):
    """The inverse as row lists, or None when a is singular."""
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    if len(ref_rref(rows, n)) != n:
        return None
    return [row[n:] for row in rows]


# -- strategies -------------------------------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), NEAR_2_64),
)


@st.composite
def scalars(draw, orders=ORDERS):
    order = draw(st.sampled_from(orders))
    coeffs = draw(st.lists(rationals, min_size=PHI[order], max_size=PHI[order]))
    return Cyclotomic(order, coeffs)


# one field per matrix, or entries of every order mixed in one matrix
fields = st.sampled_from([(1,), (3,), (4,), (12,), ORDERS])


def matrices(rows, cols):
    return fields.flatmap(lambda orders: st.lists(
        st.lists(scalars(orders), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))


sizes = st.integers(0, 3)


def pack(rows, r, c):
    """Exact matrix of shape (r, c) from reference rows."""
    return la.as_matrix(rows) if r and c else la.zeros(r, c)


def same(packed, ref, r, c):
    """Equal entry by entry, and equal to the reference packed afresh."""
    got = la.entries(packed)
    return la.shape(packed) == (r, c) and len(got) == len(ref) \
        and ref_equal(got, ref) and packed == pack(ref, r, c)


@st.composite
def one_matrix(draw):
    r, c = draw(sizes), draw(sizes)
    return draw(matrices(r, c)), r, c


# -- properties -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mat_mul_matches_reference(data):
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(matrices(r, k)), data.draw(matrices(k, c))
    out = la.mat_mul(pack(a, r, k), pack(b, k, c))
    assert same(out, ref_mul(a, b, k, c), r, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_and_sub_match_reference(data):
    a, r, c = data.draw(one_matrix())
    b = data.draw(matrices(r, c))
    pa, pb = pack(a, r, c), pack(b, r, c)
    assert same(la.mat_add(pa, pb), ref_add(a, b), r, c)
    assert same(la.mat_sub(pa, pb), ref_sub(a, b), r, c)
    assert same(la.mat_neg(pa), ref_scale(Fraction(-1), a), r, c)


@settings(max_examples=60, deadline=None)
@given(one_matrix(), st.one_of(scalars(), rationals))
def test_scalar_mul_matches_reference(mat, s):
    a, r, c = mat
    assert same(la.scalar_mul(s, pack(a, r, c)), ref_scale(s, a), r, c)


# scalar and matrix over any two fields: promotion to their compositum,
# whose multiplication table scales the matrix
SCALE_ORDERS = (1, 3, 4, 5, 8, 12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scalar_mul_is_entrywise_across_fields(data):
    n, m = data.draw(st.sampled_from(SCALE_ORDERS)), \
        data.draw(st.sampled_from(SCALE_ORDERS))
    r, c = data.draw(sizes), data.draw(sizes)
    a = data.draw(st.lists(st.lists(scalars((m,)), min_size=c, max_size=c),
                           min_size=r, max_size=r))
    s = data.draw(scalars((n,)))
    assert same(la.scalar_mul(s, pack(a, r, c)), ref_scale(s, a), r, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_combine_matches_reference(data):
    # one to three terms, each scalar and matrix over its own field
    r, c = data.draw(sizes), data.draw(sizes)
    terms = data.draw(st.lists(st.tuples(
        st.sampled_from(SCALE_ORDERS).flatmap(
            lambda n: st.one_of(scalars((n,)), rationals)),
        st.sampled_from(SCALE_ORDERS).flatmap(lambda m: st.lists(
            st.lists(scalars((m,)), min_size=c, max_size=c),
            min_size=r, max_size=r))), min_size=1, max_size=3))
    want = ref_scale(*terms[0])
    for s, a in terms[1:]:
        want = ref_add(want, ref_scale(s, a))
    got = la.combine([(s, pack(a, r, c)) for s, a in terms])
    assert same(got, want, r, c)


@settings(max_examples=60, deadline=None)
@given(one_matrix(), one_matrix())
def test_kron_matches_reference(x, y):
    (a, r, c), (b, s, t) = x, y
    assert same(la.kron(pack(a, r, c), pack(b, s, t)), ref_kron(a, b),
                r * s, c * t)


@settings(max_examples=60, deadline=None)
@given(one_matrix())
def test_conj_transpose_matches_reference(mat):
    a, r, c = mat
    assert same(la.conj_transpose(pack(a, r, c)), ref_conj_transpose(a, r, c),
                c, r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_matches_reference(data):
    n = data.draw(sizes)
    a = data.draw(matrices(n, n))
    assert la.trace(pack(a, n, n)) == ref_trace(a)


@settings(max_examples=40, deadline=None)
@given(st.lists(one_matrix(), max_size=3))
def test_block_diag_matches_reference(mats):
    out = la.block_diag(*(pack(m, r, c) for m, r, c in mats))
    rows = sum(r for _, r, _ in mats)
    cols = sum(c for _, _, c in mats)
    assert same(out, ref_block_diag(mats), rows, cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mat_equal_matches_reference(data):
    a, r, c = data.draw(one_matrix())
    b = data.draw(st.one_of(st.just(a), matrices(r, c)))
    pa, pb = pack(a, r, c), pack(b, r, c)
    assert la.mat_equal(pa, pb) == ref_equal(a, b)
    assert la.mat_equal(pa, pb) == (pa == pb)
    if pa == pb:
        assert hash(pa) == hash(pb)
    assert la.is_zero_matrix(la.mat_sub(pa, pb)) == ref_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(one_matrix())
def test_as_matrix_round_trip(mat):
    a, r, c = mat
    packed = pack(a, r, c)
    assert la.as_matrix(packed) is packed
    assert ref_equal(la.entries(packed), a) and len(la.entries(packed)) == r
    if r and c:
        assert la.as_matrix(la.entries(packed)) == packed


ORACLE_ORDERS = (1, 3, 4, 5, 8, 12, 24)
small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mat_mul_matches_complex_matmul(data):
    order = data.draw(st.sampled_from(ORACLE_ORDERS))
    entry = st.builds(Cyclotomic, st.just(order),
                      st.lists(small, min_size=1, max_size=order))
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a = pack(data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                min_size=r, max_size=r)), r, k)
    b = pack(data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                min_size=k, max_size=k)), k, c)
    want = la.to_numpy(a) @ la.to_numpy(b)
    assert np.allclose(la.to_numpy(la.mat_mul(a, b)), want, rtol=1e-9, atol=1e-9)


# -- the exact eliminator ---------------------------------------------------

elim_sizes = st.integers(0, 4)


@st.composite
def deficient(draw, r, c):
    """An r x c matrix of rank at most min(r, c) - 1 (r, c > 0), as a
    product through a narrower inner dimension."""
    k = draw(st.integers(0, min(r, c) - 1))
    orders = draw(fields)
    x = draw(st.lists(st.lists(scalars(orders), min_size=k, max_size=k),
                      min_size=r, max_size=r))
    y = draw(st.lists(st.lists(scalars(orders), min_size=c, max_size=c),
                      min_size=k, max_size=k))
    return ref_mul(x, y, k, c)


@st.composite
def elim_matrix(draw, square=False):
    r = draw(elim_sizes)
    c = r if square else draw(elim_sizes)
    if r and c and draw(st.booleans()):
        return draw(deficient(r, c)), r, c
    return draw(matrices(r, c)), r, c


@settings(max_examples=80, deadline=None)
@given(elim_matrix())
def test_rank_pivots_and_rref_match_reference(mat):
    a, r, c = mat
    packed = pack(a, r, c)
    rows = [list(row) for row in a]
    pivots = ref_rref(rows, c)
    assert la.rank(packed) == len(pivots)
    assert la.pivot_columns(packed) == pivots


@settings(max_examples=80, deadline=None)
@given(elim_matrix())
def test_nullspace_matches_reference(mat):
    a, r, c = mat
    kernel = la.kernel_basis(pack(a, r, c))
    assert list(la.entries(la.transpose(kernel))) == ref_nullspace(a, c)


@settings(max_examples=80, deadline=None)
@given(elim_matrix(square=True))
def test_invert_matches_reference(mat):
    a, n, _ = mat
    want = ref_invert(a, n)
    if want is None:
        with pytest.raises(ValidationError, match="singular"):
            la.invert(pack(a, n, n))
    else:
        assert same(la.invert(pack(a, n, n)), want, n, n)


@pytest.mark.parametrize("n", [8, 12, 24])
def test_subfield_tables_match_reference(n):
    want = []
    for d in range(2, n):
        if n % d or d % 4 == 2:
            continue
        embed = _promotion(d, n)
        size = embed.shape[1]
        cols = [[Fraction(x) for x in col] for col in embed.T.tolist()]
        rows = ref_rref(cols, len(embed))
        inv = ref_invert([[Fraction(x) for x in embed[i]] for i in rows], size)
        scale = math.lcm(*(x.denominator for row in inv for x in row))
        want.append((d, rows, [[x * scale for x in row] for row in inv],
                     embed.tolist(), scale))
    got = [(d, list(rows), inv, _promotion(d, n).tolist(), scale)
           for d, rows, inv, scale in _subfields(n)]
    assert got == want
