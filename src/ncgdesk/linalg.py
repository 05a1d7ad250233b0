"""Dense matrix helpers over either scalar backend.

Exact matrices are :class:`ExactMatrix` values.  An r x c matrix over the
cyclotomic field Q(zeta_N) is stored as its shape, the order N, phi(N)
numpy ``object`` arrays of Python-int numerators (the coefficients of
1, zeta, ..., zeta^(phi(N)-1)) and one positive common denominator.  The
form is canonical: the denominator is in lowest terms against every
numerator and N is the smallest order whose field holds every entry, so
equal matrices have equal fields.  Every exact operation works on the
numerator arrays; a product takes all phi(N)^2 products of numerator
planes in one integer matmul and folds them back into the power basis.
The field tables, the canonical form (:func:`~ncgdesk.scalars.minimal_field`)
and the exact eliminator (:func:`~ncgdesk.scalars.eliminate`) are those
of :mod:`ncgdesk.scalars`, where a :class:`~ncgdesk.scalars.Cyclotomic` is
the 1 x 1 case.

Entries become scalars (``Fraction`` when rational,
:class:`~ncgdesk.scalars.Cyclotomic` otherwise) only at the edges:
:func:`entries` (and indexing or iterating a matrix), :func:`trace`, and
exact elimination: ``rank``, ``pivot_columns``, ``nullspace`` and
``invert`` hand the columns of den x the matrix (Python ints when it is
rational) to ``eliminate`` once per call, and the pivots, kernel vectors
and column combinations it returns are those of the reduced row echelon
form.  :func:`as_matrix`
packs a nested sequence once and returns a packed matrix unchanged.

Float matrices are tuples of row tuples of ``complex`` and go through
numpy (SVD ranks, least-squares solves).  An operation given one exact
and one float matrix raises ValidationError.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .scalars import (
    Cyclotomic,
    _fold,
    _galois,
    _mul_table,
    _phi,
    _promotion,
    _table,
    eliminate,
    get_epsilon,
    is_exact_scalar,
    minimal_field,
    scalar_is_zero,
    to_complex,
)


# ---------------------------------------------------------------------------
# the packed exact matrix

class ExactMatrix:
    """An exact r x c matrix: entry (i, j) is sum_k nums[k, i, j] zeta^k / den.

    ``nums`` has shape (phi(order), r, c).  Values are treated as
    immutable; build them with the module functions, which keep the form
    canonical (see the module docstring).
    """

    __slots__ = ("shape", "order", "nums", "den")

    def __init__(self, order: int, nums: np.ndarray, den: int):
        self.order = order
        self.nums = nums
        self.den = den
        self.shape = nums.shape[1:]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.shape == other.shape and self.order == other.order
                and self.den == other.den
                and bool((self.nums == other.nums).all()))

    def __hash__(self):
        return hash((self.shape, self.order, self.den, tuple(self.nums.flat)))

    def __iter__(self):
        return iter(entries(self))

    def __getitem__(self, i):
        return entries(self)[i]

    def __repr__(self):
        return f"ExactMatrix(order={self.order}, den={self.den}, rows={entries(self)})"


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


def _scalar_coeffs(x):
    """(order, integer coefficients, denominator) of an exact scalar."""
    if isinstance(x, Cyclotomic):
        order, cs = x.order, x.coeffs
    else:
        order, cs = 1, (Fraction(x),)
    den = math.lcm(*(c.denominator for c in cs))
    return order, [c.numerator * (den // c.denominator) for c in cs], den


def _scalar(order: int, coeffs, den: int):
    """The scalar sum_k coeffs[k] zeta_order^k / den."""
    if not any(coeffs[1:]):
        return Fraction(coeffs[0], den)
    return Cyclotomic._from_planes(order, _table(coeffs), den)


def _pack(rows, width: int) -> ExactMatrix:
    """Pack rows of exact scalars (already validated) into a matrix."""
    parts = [[_scalar_coeffs(x) for x in row] for row in rows]
    order = math.lcm(1, *(o for row in parts for o, _, _ in row))
    den = math.lcm(1, *(d for row in parts for _, _, d in row))
    phi = _phi(order)
    planes = [[[0] * width for _ in parts] for _ in range(phi)]
    for i, row in enumerate(parts):
        for j, (o, cs, d) in enumerate(row):
            if o != order:
                cs = (_promotion(o, order) @ _table(cs)).tolist()
            scale = den // d
            for k, c in enumerate(cs):
                if c:
                    planes[k][i][j] = c * scale
    nums = np.array(planes, dtype=object).reshape(phi, len(parts), width)
    return _make(order, nums, den)


# ---------------------------------------------------------------------------
# construction and conversion

def as_matrix(rows):
    """Normalize a nested sequence into a matrix, fixing the backend.

    Exact entries (``int``, ``Fraction``, ``Cyclotomic``) are packed into
    an :class:`ExactMatrix`; float entries give a tuple of ``complex`` row
    tuples, as does a sequence with no entries at all.  A packed matrix
    is returned unchanged.  Mixing exact and float entries is an error.
    """
    if isinstance(rows, ExactMatrix):
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
        return _pack(out, width)
    return tuple(tuple(complex(x) for x in r) for r in out)


def entries(a):
    """Rows of scalars: ``Fraction`` for rational entries of an exact
    matrix, ``Cyclotomic`` for the others, ``complex`` for a float one."""
    a = as_matrix(a)
    if not isinstance(a, ExactMatrix):
        return a
    den = a.den
    if a.order == 1:
        return tuple(tuple(Fraction(x, den) for x in row) for row in a.nums[0].tolist())
    return tuple(tuple(_scalar(a.order, cs, den) for cs in row)
                 for row in a.nums.transpose(1, 2, 0).tolist())


def shape(m):
    if isinstance(m, ExactMatrix):
        return m.shape
    return (len(m), len(m[0]) if m else 0)


def is_exact_matrix(m) -> bool:
    """True for packed matrices and for nested sequences of exact scalars;
    a sequence with no entries is float."""
    return isinstance(as_matrix(m), ExactMatrix)


def zeros(r: int, c: int, exact: bool = True):
    if exact:
        return ExactMatrix(1, np.zeros((1, r, c), dtype=object), 1)
    return tuple((0j,) * c for _ in range(r))


def identity(n: int, exact: bool = True):
    if not exact:
        return from_numpy(np.eye(n, dtype=complex))
    nums = np.zeros((1, n, n), dtype=object)
    np.fill_diagonal(nums[0], 1)
    return ExactMatrix(1, nums, 1)


def to_numpy(a) -> np.ndarray:
    if isinstance(a, ExactMatrix):
        out = np.zeros(a.shape, dtype=complex)
        zeta = cmath.exp(2j * math.pi / a.order)
        for k, plane in enumerate(a.nums):
            out += (plane / a.den).astype(complex) * zeta ** k
        return out
    return np.array(a, dtype=complex).reshape(shape(a))


def from_numpy(a: np.ndarray):
    return tuple(tuple(complex(x) for x in row) for row in a)


def _kind(*mats):
    """Normalize the operands; True when exact, ValidationError if mixed."""
    mats = [as_matrix(m) for m in mats]
    exact = {isinstance(m, ExactMatrix) for m in mats}
    if len(exact) > 1:
        raise ValidationError("operation mixes exact and float matrices")
    return exact != {False}, mats


# ---------------------------------------------------------------------------
# arithmetic

def _entrywise(a, b, op, name):
    exact, (a, b) = _kind(a, b)
    if shape(a) != shape(b):
        raise ValidationError(f"{name} shape mismatch {shape(a)} vs {shape(b)}")
    if not exact:
        return from_numpy(op(to_numpy(a), to_numpy(b)))
    order, den, (x, y) = _common((a, b))
    return _make(order, op(x, y), den)


def mat_add(a, b):
    return _entrywise(a, b, operator.add, "add")


def mat_sub(a, b):
    return _entrywise(a, b, operator.sub, "sub")


def mat_neg(a):
    a = as_matrix(a)
    if not isinstance(a, ExactMatrix):
        return from_numpy(-to_numpy(a))
    return ExactMatrix(a.order, -a.nums, a.den)


def scalar_mul(c, a):
    """c * a; a float scalar or matrix makes the product float."""
    a = as_matrix(a)
    if not (isinstance(a, ExactMatrix) and is_exact_scalar(c)):
        return from_numpy(to_complex(c) * to_numpy(a))
    c_order, coeffs, c_den = _scalar_coeffs(c)
    den = c_den * a.den
    if c_order == 1:
        return _make(a.order, a.nums * coeffs[0], den)
    order = math.lcm(c_order, a.order)
    cvec = _table(coeffs)
    if c_order != order:
        cvec = _promotion(c_order, order) @ cvec
    x = _at(a, order)
    prod = np.multiply.outer(cvec, x).reshape((len(x) ** 2,) + a.shape)
    return _make(order, _fold(_mul_table(order), prod), den)


def mat_mul(a, b):
    exact, (a, b) = _kind(a, b)
    (r, k), (kb, c) = shape(a), shape(b)
    if k != kb:
        raise ValidationError(f"matmul shape mismatch {shape(a)} x {shape(b)}")
    if not exact:
        return from_numpy(to_numpy(a) @ to_numpy(b))
    den = a.den * b.den
    if b.order == 1:
        phi = len(a.nums)
        nums = (a.nums.reshape(phi * r, k) @ b.nums[0]).reshape(phi, r, c)
        return _make(a.order, nums, den)
    if a.order == 1:
        phi = len(b.nums)
        wide = b.nums.transpose(1, 0, 2).reshape(k, phi * c)
        nums = (a.nums[0] @ wide).reshape(r, phi, c).transpose(1, 0, 2)
        return _make(b.order, nums, den)
    order = math.lcm(a.order, b.order)
    x, y = _at(a, order), _at(b, order)
    phi = len(x)
    # every plane product A_i B_j in one matmul, then fold i + j mod Phi
    prod = x.reshape(phi * r, k) @ y.transpose(1, 0, 2).reshape(k, phi * c)
    prod = prod.reshape(phi, r, phi, c).transpose(0, 2, 1, 3).reshape(phi * phi, r, c)
    return _make(order, _fold(_mul_table(order), prod), den)


def conj_transpose(a):
    a = as_matrix(a)
    if not isinstance(a, ExactMatrix):
        return from_numpy(to_numpy(a).conj().T)
    nums = a.nums.transpose(0, 2, 1)
    if a.order > 2:
        nums = _fold(_galois(a.order, a.order - 1), nums)
    return ExactMatrix(a.order, nums, a.den)


def transpose(a):
    a = as_matrix(a)
    if not isinstance(a, ExactMatrix):
        return tuple(zip(*a))
    return ExactMatrix(a.order, a.nums.transpose(0, 2, 1), a.den)


def trace(a):
    a = as_matrix(a)
    if not isinstance(a, ExactMatrix):
        return sum((a[i][i] for i in range(len(a))), start=0j)
    return _scalar(a.order, np.trace(a.nums, axis1=1, axis2=2).tolist(), a.den)


def trace_product(a, b):
    """tr(a b) = sum_ij a_ij b_ji, without forming the product a b."""
    exact, (a, b) = _kind(a, b)
    if shape(a) != shape(b)[::-1]:
        raise ValidationError(f"trace_product shape mismatch {shape(a)} x {shape(b)}")
    if not exact:
        return complex(np.sum(to_numpy(a) * to_numpy(b).T))
    order = math.lcm(a.order, b.order)
    x, y = _at(a, order), _at(b, order)
    phi = len(x)
    # every plane pairing sum_ij A_k[i, j] B_l[j, i] in one matmul, then fold
    pairs = x.reshape(phi, -1) @ y.transpose(0, 2, 1).reshape(phi, -1).T
    coeffs = _mul_table(order) @ pairs.reshape(phi * phi)
    return _scalar(order, coeffs.tolist(), a.den * b.den)


# ---------------------------------------------------------------------------
# assembling and slicing

def block_diag(*mats):
    """Block-diagonal matrix; with no arguments, the exact 0 x 0 matrix."""
    exact, mats = _kind(*mats)
    rows = sum(shape(m)[0] for m in mats)
    cols = sum(shape(m)[1] for m in mats)
    if not exact:
        out = np.zeros((rows, cols), dtype=complex)
    else:
        order, den, stacks = _common(mats) if mats else (1, 1, [])
        out = np.zeros((_phi(order), rows, cols), dtype=object)
    r0 = c0 = 0
    for i, m in enumerate(mats):
        mr, mc = shape(m)
        if exact:
            out[:, r0:r0 + mr, c0:c0 + mc] = stacks[i]
        else:
            out[r0:r0 + mr, c0:c0 + mc] = to_numpy(m)
        r0 += mr
        c0 += mc
    # a lowest-terms block sets every prime power of den, so out is canonical
    return ExactMatrix(order, out, den) if exact else from_numpy(out)


def _concat(mats, axis: int):
    exact, mats = _kind(*mats)
    other = 1 - axis
    if not mats or len({shape(m)[other] for m in mats}) > 1:
        raise ValidationError("matrices to stack are missing or differ in size")
    if len(mats) == 1:
        return mats[0]
    if not exact:
        return from_numpy(np.concatenate([to_numpy(m) for m in mats], axis=axis))
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
    a = as_matrix(a)
    rs, cs = slice(s * size, (s + 1) * size), slice(t * size, (t + 1) * size)
    if not isinstance(a, ExactMatrix):
        return tuple(row[cs] for row in a[rs])
    return _make(a.order, a.nums[:, rs, cs], a.den)


# ---------------------------------------------------------------------------
# comparison and norms

def mat_equal(a, b) -> bool:
    exact, (a, b) = _kind(a, b)
    if shape(a) != shape(b):
        return False
    if exact:
        return a == b
    return is_zero_matrix(mat_sub(a, b))


def is_zero_matrix(a) -> bool:
    a = as_matrix(a)
    if isinstance(a, ExactMatrix):
        return not np.count_nonzero(a.nums)
    return all(scalar_is_zero(x) for row in a for x in row)


def op_norm(a) -> float:
    """Largest singular value; empty matrices have norm 0."""
    r, c = shape(a)
    if r == 0 or c == 0:
        return 0.0
    return float(np.linalg.norm(to_numpy(a), 2))


# ---------------------------------------------------------------------------
# exact elimination

def _eliminate(a: ExactMatrix):
    """:func:`~ncgdesk.scalars.eliminate` on the columns of den * ``a``.

    den * a has the pivots and kernel of ``a``, and its solutions are those
    of ``a`` divided by den.  A rational matrix enters as Python ints, so
    the reducer's +-1 fast path applies.
    """
    cols = a.nums[0].T.tolist() if a.order == 1 \
        else columns(ExactMatrix(a.order, a.nums, 1))
    return eliminate({i: x for i, x in enumerate(col) if x} for col in cols)


def _float_tol(m: np.ndarray) -> float:
    return get_epsilon() * max(1.0, float(np.linalg.norm(m, 2)))


def rank(a) -> int:
    r, c = shape(a)
    if r == 0 or c == 0:
        return 0
    exact, (a,) = _kind(a)
    if exact:
        return len(_eliminate(a)[1])
    m = to_numpy(a)
    return int(np.linalg.matrix_rank(m, tol=_float_tol(m)))


def pivot_columns(a):
    """Indices of a maximal independent column subset, leftmost-greedy."""
    r, c = shape(a)
    if r == 0 or c == 0:
        return []
    exact, (a,) = _kind(a)
    if exact:
        return _eliminate(a)[1]
    m = to_numpy(a)
    tol = _float_tol(m)
    pivots = []
    basis = np.zeros((r, 0), dtype=complex)
    for j in range(c):
        cand = np.column_stack([basis, m[:, j]])
        if np.linalg.matrix_rank(cand, tol=tol) > basis.shape[1]:
            basis = cand
            pivots.append(j)
    return pivots


def nullspace(a):
    """Basis of the right kernel, as a list of column tuples."""
    exact, (a,) = _kind(a)
    c = shape(a)[1]
    if exact:
        return [tuple(vec.get(j, 0) for j in range(c)) for vec in _eliminate(a)[2]]
    if c == 0:
        return []
    m = to_numpy(a)
    u, s, vh = np.linalg.svd(m)
    tol = get_epsilon() * max(1.0, float(s[0]) if len(s) else 1.0)
    nz = int(np.sum(s > tol))
    return [tuple(complex(x) for x in vh[i, :].conjugate()) for i in range(nz, c)]


def invert(a):
    """Inverse of a square matrix; exact ones solve against each identity
    column."""
    r, c = shape(a)
    if r != c:
        raise ValidationError("invert: matrix not square")
    exact, (a,) = _kind(a)
    if not exact:
        return from_numpy(np.linalg.inv(to_numpy(a)))
    red, pivots, _ = _eliminate(a)
    if len(pivots) != r:
        raise ValidationError("invert: singular matrix")
    cols = [red.reduce({i: 1}, want_combo=True)[1] for i in range(r)]
    return _pack([[a.den * col.get(i, 0) for col in cols] for i in range(r)],
                 r)


def columns(a):
    return [tuple(col) for col in entries(transpose(a))]


def from_columns(cols, nrows=None):
    """Matrix with the given column tuples; ``nrows`` sizes an empty list."""
    if not cols:
        return zeros(nrows or 0, 0)
    rows = list(zip(*cols))
    return as_matrix(rows) if rows else zeros(0, len(cols))


def projection_onto_columns(cols):
    """Orthogonal projection onto span(cols) w.r.t. the standard inner product."""
    if not cols:
        raise ValidationError("projection_onto_columns: empty basis")
    n = from_columns(cols)
    nh = conj_transpose(n)
    gram = mat_mul(nh, n)
    return mat_mul(mat_mul(n, invert(gram)), nh)
