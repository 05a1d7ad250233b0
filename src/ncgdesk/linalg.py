"""Dense matrix helpers over either scalar backend.

A matrix is one of two packed types.  Packing happens only in
:func:`as_matrix`, at the public boundary: every operation takes packed
matrices, tests the type of each operand once, and raises
ValidationError when exact and float operands meet.

- :class:`ExactMatrix`: a matrix over Q(zeta_N) as phi(N) numpy
  ``object`` planes of Python-int numerators (coefficients of 1, zeta,
  ..., zeta^(phi(N)-1)) over one positive denominator, in canonical form
  (:func:`~ncgdesk.scalars.minimal_field`: lowest terms, least N), so
  equal matrices have equal fields.  Exact operations work on the planes
  with the field tables of :mod:`ncgdesk.scalars`; a product takes every
  pair of planes in one integer matmul and folds them into the power basis.
- :class:`FloatMatrix`: a read-only ``complex`` numpy array; each float
  operation is numpy on it (SVD ranks and kernels, inverses).

Exact entries become scalars (``Fraction`` or
:class:`~ncgdesk.scalars.Cyclotomic`) only in :func:`entries`,
:func:`trace` and elimination: ``pivot_columns``, ``kernel_basis`` and
``invert`` hand the tagged columns of den x the matrix to
:func:`~ncgdesk.scalars.eliminate` once, and the kernel vectors and column
combinations (those of the reduced row echelon form) that the residues'
tags give are packed straight back into planes.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

from .errors import ValidationError
from .scalars import (
    Cyclotomic,
    _cyclotomic,
    _fold,
    _galois,
    _mul_table,
    _operand,
    _phi,
    _promotion,
    _spread,
    _table,
    eliminate,
    get_epsilon,
    is_exact_scalar,
    minimal_field,
    np,
    tagged,
    tags,
    to_complex,
)


# ---------------------------------------------------------------------------
# the packed types

class _Rows:
    """The repr gives the rows of :func:`entries`."""

    __slots__ = ()

    def __repr__(self):
        return f"{type(self).__name__}({entries(self)})"


class ExactMatrix(_Rows):
    """An exact r x c matrix: entry (i, j) is sum_k nums[k, i, j] zeta^k / den,
    ``nums`` of shape (phi(order), r, c).  Treated as immutable; the module
    functions keep the form canonical."""

    __slots__ = ("shape", "order", "nums", "den")

    def __init__(self, order: int, nums: np.ndarray, den: int):
        self.order = order
        self.nums = nums
        self.den = den
        self.shape = nums.shape[1:]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # list equality is several times faster than an object-array compare
        return (self.shape == other.shape and self.order == other.order
                and self.den == other.den
                and self.nums.ravel().tolist() == other.nums.ravel().tolist())

    def __hash__(self):
        return hash((self.shape, self.order, self.den,
                     tuple(self.nums.ravel().tolist())))


class FloatMatrix(_Rows):
    """A float r x c matrix: ``arr``, a ``complex`` array of shape (r, c),
    made read-only here."""

    __slots__ = ("shape", "arr")

    def __init__(self, arr: np.ndarray):
        arr.flags.writeable = False
        self.arr = arr
        self.shape = arr.shape

    def __eq__(self, other):
        if not isinstance(other, FloatMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self.arr == other.arr).all())

    def __hash__(self):
        return hash((self.shape, tuple(self.arr.ravel().tolist())))


_PACKED = (ExactMatrix, FloatMatrix)


def _one_backend(*mats):
    """ValidationError unless each operand has the first one's backend."""
    for m in mats[1:]:
        if type(m) is not type(mats[0]):
            raise ValidationError("operation mixes exact and float matrices")


def _make(order: int, nums: np.ndarray, den: int) -> ExactMatrix:
    """Canonical matrix from any numerators/denominator at ``order``."""
    return ExactMatrix(*minimal_field(order, nums, den))


def _at(a: ExactMatrix, order: int) -> np.ndarray:
    """Numerators of ``a`` in the power basis of Q(zeta_order)."""
    if a.order == order:
        return a.nums
    return _fold(_promotion(a.order, order), a.nums)


def _common(mats):
    """(order, den, numerator stacks) of exact matrices over one field and
    one denominator."""
    order = math.lcm(*(m.order for m in mats))
    den = math.lcm(*(m.den for m in mats))
    stacks = []
    for m in mats:
        x = _at(m, order)
        stacks.append(x if m.den == den else x * (den // m.den))
    return order, den, stacks


def _scalar(order: int, coeffs, den: int):
    """The scalar sum_k coeffs[k] zeta_order^k / den: a Fraction when it is
    rational, else a Cyclotomic."""
    if not any(coeffs[1:]):
        return Fraction(coeffs[0], den)
    return _cyclotomic(order, coeffs, den)


def _pack(cells: dict, r: int, c: int, scale: int = 1) -> ExactMatrix:
    """The r x c matrix with entry (i, j) = scale * cells[i, j], exact
    scalars (already validated); absent cells are 0."""
    parts = [(i * c + j, *_operand(x)) for (i, j), x in cells.items()]
    order = math.lcm(1, *(o for _, o, _, _ in parts))
    den = math.lcm(1, *(d for _, _, _, d in parts))
    phi = _phi(order)
    flat = [0] * (phi * r * c)  # plane-major, then row-major
    for at, o, cs, d in parts:
        if o != order:
            cs = (_promotion(o, order) @ _table(cs)).tolist()
        k = den // d * scale
        for t, x in enumerate(cs):
            flat[t * r * c + at] = x * k
    return _make(order, np.array(flat, dtype=object).reshape(phi, r, c), den)


# ---------------------------------------------------------------------------
# construction and conversion

def as_matrix(rows):
    """Normalize a nested sequence into a packed matrix, fixing the backend.

    Exact entries (``int``, ``Fraction``, ``Cyclotomic``) give an
    :class:`ExactMatrix`; float entries give a :class:`FloatMatrix`, as
    does a sequence with no entries at all.  A packed matrix is returned
    unchanged.  Mixing exact and float entries is an error.
    """
    if type(rows) in _PACKED:
        return rows
    out = []
    saw_exact = saw_float = False
    width = None
    for row in rows:
        r = tuple(row)
        for x in r:
            if isinstance(x, bool):
                raise ValidationError("bool is not a scalar")
            if isinstance(x, (int, Fraction, Cyclotomic)):
                saw_exact = True
            elif isinstance(x, (float, complex)):
                saw_float = True
            else:
                raise ValidationError(f"unsupported matrix entry {x!r}")
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValidationError("ragged matrix rows")
        out.append(r)
    if saw_exact and saw_float:
        raise ValidationError("matrix mixes exact and float entries")
    if saw_exact:
        return _pack({(i, j): x for i, r in enumerate(out) for j, x in enumerate(r)},
                     len(out), width)
    return FloatMatrix(np.array(out, dtype=complex).reshape(len(out), width or 0))


def entries(a):
    """Rows of scalars: ``Fraction`` for rational entries of an exact
    matrix, ``Cyclotomic`` for the others, ``complex`` for a float one."""
    if type(a) is FloatMatrix:
        return tuple(map(tuple, a.arr.tolist()))
    den = a.den
    if a.order == 1:
        return tuple(tuple(Fraction(x, den) for x in row) for row in a.nums[0].tolist())
    return tuple(tuple(_scalar(a.order, cs, den) for cs in row)
                 for row in a.nums.transpose(1, 2, 0).tolist())


def shape(m):
    return m.shape


def zeros(r: int, c: int, exact: bool = True):
    if exact:
        return ExactMatrix(1, np.zeros((1, r, c), dtype=object), 1)
    return FloatMatrix(np.zeros((r, c), dtype=complex))


def identity(n: int, exact: bool = True):
    if not exact:
        return FloatMatrix(np.eye(n, dtype=complex))
    return ExactMatrix(1, np.eye(n, dtype=object)[None], 1)


def from_numerators(order: int, nums, den: int) -> ExactMatrix:
    """The exact matrix sum_k nums[k] zeta_order^k / den in canonical form:
    ``nums`` holds phi(order) equal-shaped planes of Python ints (nested
    lists or an object array), ``den`` is a positive int."""
    return _make(order, np.array(nums, dtype=object), den)


def scalar_matrix(c, n: int) -> ExactMatrix:
    """The exact scalar c times the n x n identity, written on the diagonal
    (``scalar_mul`` would multiply every plane of the identity)."""
    order, coeffs, den = _operand(c)
    return _make(order, _table(coeffs)[:, None, None] * np.eye(n, dtype=object), den)


def to_numpy(a) -> np.ndarray:
    """The entries as a ``complex`` array (a float matrix's own, read-only)."""
    if type(a) is FloatMatrix:
        return a.arr
    out = np.zeros(a.shape, dtype=complex)
    zeta = cmath.exp(2j * math.pi / a.order)
    for k, plane in enumerate(a.nums):
        out += (plane / a.den).astype(complex) * zeta ** k
    return out


# ---------------------------------------------------------------------------
# arithmetic

def _entrywise(a, b, op, name):
    _one_backend(a, b)
    if a.shape != b.shape:
        raise ValidationError(f"{name} shape mismatch {a.shape} vs {b.shape}")
    if type(a) is FloatMatrix:
        return FloatMatrix(op(a.arr, b.arr))
    order, den, (x, y) = _common((a, b))
    return _make(order, op(x, y), den)


def mat_add(a, b):
    return _entrywise(a, b, operator.add, "add")


def mat_sub(a, b):
    return _entrywise(a, b, operator.sub, "sub")


def mat_neg(a):
    return scalar_mul(-1, a)


def scalar_mul(c, a):
    """c * a; a float scalar or matrix makes the product float."""
    if type(a) is FloatMatrix or not is_exact_scalar(c):
        return FloatMatrix(to_complex(c) * to_numpy(a))
    order, coeffs, den = _operand(c)
    if order == 1:
        return _make(a.order, a.nums * coeffs[0], den * a.den)
    big = math.lcm(order, a.order)
    if big != order:
        coeffs = _spread(coeffs, big // order, big)
    phi = _phi(big)
    # c's multiplication table: column j is c zeta^j in the power basis
    table = _table(coeffs) @ _mul_table(big).reshape(phi, phi, phi)
    return _make(big, _fold(table, _at(a, big)), den * a.den)


def combine(terms):
    """sum c * m over the (c, m) pairs of ``terms`` (at least one) in one
    pass: exact, on one field and denominator, canonical once; float if any c
    or m is, each to_complex(c) * m added in order to 0, as scalar_mul's are."""
    _one_backend(*(m for _, m in terms))
    scalars = [_operand(c) for c, _ in terms]  # None for a float
    if type(terms[0][1]) is FloatMatrix or None in scalars:
        return FloatMatrix(sum(to_complex(c) * to_numpy(m) for c, m in terms))
    big = math.lcm(*(o for o, _, _ in scalars), *(m.order for _, m in terms))
    den = math.lcm(*(d * m.den for (_, _, d), (_, m) in zip(scalars, terms)))
    phi, total = _phi(big), None
    for (o, coeffs, d), (_, m) in zip(scalars, terms):
        k = den // (d * m.den)  # onto the common denominator
        if o == 1:  # a rational c k, multiplied in unless it is 1
            x = _at(m, big) if coeffs[0] * k == 1 else _at(m, big) * (coeffs[0] * k)
        else:  # c's coefficients at big
            cs = _table(coeffs if o == big else _spread(coeffs, big // o, big)) * k
            if m.order == 1:  # each plane of c times m's one plane
                x = np.multiply.outer(cs, m.nums[0])
            else:  # by c's multiplication table, as in scalar_mul
                x = _fold(cs @ _mul_table(big).reshape(phi, phi, phi), _at(m, big))
        total = x if total is None else total + x
    return _make(big, total, den)


def mat_mul(a, b):
    _one_backend(a, b)
    (r, k), (kb, c) = a.shape, b.shape
    if k != kb:
        raise ValidationError(f"matmul shape mismatch {a.shape} x {b.shape}")
    if type(a) is FloatMatrix:
        return FloatMatrix(a.arr @ b.arr)
    den = a.den * b.den
    if b.order == 1:
        return _make(a.order, a.nums @ b.nums[0], den)
    if a.order == 1:
        return _make(b.order, a.nums[0] @ b.nums, den)
    order = math.lcm(a.order, b.order)
    x, y = _at(a, order), _at(b, order)
    # every plane product A_i B_j in one broadcast matmul, then fold i + j mod Phi
    prod = (x[:, None] @ y[None]).reshape(len(x) ** 2, r, c)
    return _make(order, _fold(_mul_table(order), prod), den)


def kron(a, b):
    """The Kronecker product: block (i, j) is a[i][j] * b."""
    _one_backend(a, b)
    (r, c), (s, t) = a.shape, b.shape
    if type(a) is FloatMatrix:
        return FloatMatrix(np.kron(a.arr, b.arr))
    order = math.lcm(a.order, b.order)
    x, y = _at(a, order), _at(b, order)
    # every plane product A_i (x) B_j at once, then fold i + j mod Phi
    prod = x[:, None, :, None, :, None] * y[None, :, None, :, None, :]
    prod = prod.reshape(len(x) ** 2, r * s, c * t)
    return _make(order, _fold(_mul_table(order), prod), a.den * b.den)


def conj_transpose(a):
    if type(a) is FloatMatrix:
        return FloatMatrix(a.arr.conj().T)
    nums = a.nums.transpose(0, 2, 1)
    if a.order > 2:
        nums = _fold(_galois(a.order, a.order - 1), nums)
    return ExactMatrix(a.order, nums, a.den)


def transpose(a):
    if type(a) is FloatMatrix:
        return FloatMatrix(a.arr.T)
    return ExactMatrix(a.order, a.nums.transpose(0, 2, 1), a.den)


def trace(a):
    if type(a) is FloatMatrix:
        return sum(a.arr.diagonal().tolist(), start=0j)
    return _scalar(*trace_numerators(a))


def trace_numerators(a: ExactMatrix):
    """(order, nums, den): the trace of the exact matrix ``a`` as the integer
    power-basis numerators of its planes' traces over ``a``'s denominator,
    not reduced; it is rational exactly when every nums[1:] is 0."""
    return a.order, np.trace(a.nums, axis1=1, axis2=2).tolist(), a.den


def block_traces(mats):
    """The matrix whose column t holds, in order, the traces of the square
    blocks side by side in the r x (n r) matrix mats[t]: exact, one trace
    per (phi, r, n, r) view packed once from numerators; float, each block's
    diagonal added in :func:`trace`'s order, so the traces are bit for bit."""
    _one_backend(*mats)
    if type(mats[0]) is FloatMatrix:  # entry (i, i) of block b: row i, b r + i
        return FloatMatrix(np.stack(
            [sum((row[i::len(m.arr)] for i, row in enumerate(m.arr)), 0j)
             for m in mats], axis=1))
    order = math.lcm(*(m.order for m in mats))
    den = math.lcm(*(m.den for m in mats))
    cols = []
    for m in mats:
        phi, r, c = m.nums.shape
        col = m.nums.reshape(phi, r, c // r, r).trace(axis1=1, axis2=3)
        cols.append(_at(ExactMatrix(m.order, col, m.den), order) * (den // m.den))
    return _make(order, np.stack(cols, axis=2), den)


# ---------------------------------------------------------------------------
# assembling and slicing

def block_diag(*mats):
    """Block-diagonal matrix; with no arguments, the exact 0 x 0 matrix."""
    _one_backend(*mats)
    mats = mats or [zeros(0, 0)]
    if len(mats) == 1:
        return mats[0]
    exact = type(mats[0]) is ExactMatrix
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    if not exact:
        out, stacks = np.zeros((rows, cols), dtype=complex), [m.arr for m in mats]
    else:
        order, den, stacks = _common(mats)
        out = np.zeros((_phi(order), rows, cols), dtype=object)
    r0 = c0 = 0
    for m, stack in zip(mats, stacks):
        mr, mc = m.shape
        out[..., r0:r0 + mr, c0:c0 + mc] = stack
        r0, c0 = r0 + mr, c0 + mc
    # a lowest-terms block sets every prime power of den, so out is canonical
    return ExactMatrix(order, out, den) if exact else FloatMatrix(out)


def _concat(mats, axis: int):
    _one_backend(*mats)
    other = 1 - axis
    if not mats or len({m.shape[other] for m in mats}) > 1:
        raise ValidationError("matrices to stack are missing or differ in size")
    if len(mats) == 1:
        return mats[0]
    if type(mats[0]) is FloatMatrix:
        return FloatMatrix(np.concatenate([m.arr for m in mats], axis=axis))
    order, den, stacks = _common(mats)
    return ExactMatrix(order, np.concatenate(stacks, axis=axis + 1), den)


def stack_rows(*mats):
    """The rows of every matrix, in order, as one matrix."""
    return _concat(mats, 0)


def block_matrix(grid):
    """Assemble a block matrix from a grid (list of rows) of matrices."""
    return _concat([_concat(row, 1) for row in grid], 0)


def grid_cell(a, size: int, s: int, t: int):
    """Cell (s, t) of ``a`` viewed as a grid of size x size cells."""
    if a.shape == (size, size) and s == t == 0:
        return a  # the one cell is the whole matrix, already canonical
    rs, cs = slice(s * size, (s + 1) * size), slice(t * size, (t + 1) * size)
    if type(a) is FloatMatrix:
        return FloatMatrix(a.arr[rs, cs])
    return _make(a.order, a.nums[:, rs, cs], a.den)


def permute_column_blocks(a, perm):
    """[B_0 | B_1 | ...] = ``a``, square blocks side by side, as [B_perm[0] |
    B_perm[1] | ...]; every entry stays, so an exact form stays canonical."""
    r, c = a.shape
    if type(a) is FloatMatrix:
        return FloatMatrix(a.arr.reshape(r, c // r, r)[:, perm].reshape(r, c))
    nums = a.nums.reshape(-1, r, c // r, r)[:, :, perm].reshape(-1, r, c)
    return ExactMatrix(a.order, nums, a.den)


def select_rows(a: ExactMatrix, rows) -> ExactMatrix:
    """The rows of the exact matrix ``a`` at the indices ``rows``, in order."""
    return _make(a.order, a.nums[:, list(rows)], a.den)


# ---------------------------------------------------------------------------
# comparison and norms

def mat_equal(a, b) -> bool:
    _one_backend(a, b)
    if a.shape != b.shape:
        return False
    if type(a) is ExactMatrix:
        return a == b
    return is_zero_matrix(mat_sub(a, b))


def is_zero_matrix(a) -> bool:
    if type(a) is ExactMatrix:
        return not np.count_nonzero(a.nums)
    return bool((np.abs(a.arr) <= get_epsilon()).all())


def op_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(to_numpy(a), 2))


# ---------------------------------------------------------------------------
# elimination

def _eliminate(a: ExactMatrix):
    """:func:`~ncgdesk.scalars.eliminate` on the tagged columns of den * ``a``.

    den * a has the pivots and kernel of ``a``, and its solutions are those
    of ``a`` divided by den.  A rational matrix enters as Python ints, so
    the reducer's rows stay fraction-free.
    """
    if a.order == 1:
        cols = a.nums[0].T.tolist()
    else:
        cols = [[_scalar(a.order, cs, 1) for cs in col]
                for col in a.nums.transpose(2, 1, 0).tolist()]
    return eliminate(tagged({i: x for i, x in enumerate(col) if x}
                            for col in cols))


def _float_tol(m: np.ndarray) -> float:
    return get_epsilon() * max(1.0, float(np.linalg.norm(m, 2)))


def rank(a) -> int:
    if type(a) is FloatMatrix and 0 not in a.shape:
        return int(np.linalg.matrix_rank(a.arr, tol=_float_tol(a.arr)))
    return len(pivot_columns(a))


def pivot_columns(a):
    """Indices of a maximal independent column subset, leftmost-greedy."""
    if 0 in a.shape:
        return []
    if type(a) is ExactMatrix:
        return _eliminate(a)[1]
    m = a.arr
    tol = _float_tol(m)
    pivots = []
    for j in range(a.shape[1]):
        if np.linalg.matrix_rank(m[:, pivots + [j]], tol=tol) > len(pivots):
            pivots.append(j)
    return pivots


def kernel_basis(a):
    """The c x k matrix of a basis of the right kernel of the r x c matrix ``a``:
    reduced row echelon kernel vectors, or orthonormal singular vectors."""
    if type(a) is ExactMatrix:
        kernel = _eliminate(a)[2]
        return _pack({(i, j): x for j, vec in enumerate(kernel)
                      for i, x in vec.items()}, a.shape[1], len(kernel))
    u, s, vh = np.linalg.svd(a.arr)
    tol = get_epsilon() * max(1.0, float(s[0]) if len(s) else 1.0)
    return FloatMatrix(vh[int(np.sum(s > tol)):].conj().T)


def invert(a):
    """Inverse of a square matrix; column j of an exact inverse is den
    times the combination of den * a's columns that gives e_j."""
    r, c = a.shape
    if r != c:
        raise ValidationError("invert: matrix not square")
    if type(a) is FloatMatrix:
        return FloatMatrix(np.linalg.inv(a.arr))
    red, pivots, _ = _eliminate(a)
    if len(pivots) != r:
        raise ValidationError("invert: singular matrix")
    # the residue of e_j holds minus its combination as tags
    combos = (tags(red.reduce({j: 1})) for j in range(r))
    return _pack({(i, j): -x for j, combo in enumerate(combos)
                  for i, x in combo.items()}, r, r, a.den)


def from_columns(cols, nrows=None):
    """Matrix with the given column tuples; ``nrows`` sizes an empty list."""
    if not cols:
        return zeros(nrows or 0, 0)
    rows = list(zip(*cols))
    return as_matrix(rows) if rows else zeros(0, len(cols))


def projection_onto_columns(n):
    """Orthogonal projection onto the span of the independent columns of
    ``n``, w.r.t. the standard inner product: n (n* n)^-1 n*."""
    if not n.shape[1]:
        raise ValidationError("projection_onto_columns: empty basis")
    nh = conj_transpose(n)
    return mat_mul(mat_mul(n, invert(mat_mul(nh, n))), nh)
