"""Scalar backends.

Two kinds of scalars flow through the package:

* exact scalars -- elements of cyclotomic fields Q(zeta_n), represented by
  :class:`Cyclotomic`.  Gaussian rationals live in Q(zeta_4); roots of unity
  of any small order are exact, which is what the Lefschetz machinery needs.
* float scalars -- plain Python ``complex``.  One global tolerance eps
  (default 1e-9, set by :func:`set_epsilon` or the CLI's ``--epsilon``)
  decides every float comparison: :func:`scalar_is_zero` and
  :func:`scalars_equal` accept |x| <= eps and |x - y| <= eps.  Two rules
  are derived from it.  One grouping rule, bounded single linkage within
  2*eps, merges float eigenvalue clusters, N0 keys and the values of a
  direct sum; a chain of values wider than 2*eps raises NumericalError.
  Float ranks and kernels drop singular values at most
  eps * max(1, ||m||_2).

Plain ``int`` / ``Fraction`` values interoperate with :class:`Cyclotomic`
through the usual arithmetic operators, so exact matrices may freely store
rationals without wrapping.

This module is also the one implementation of the field Q(zeta_n): the
integer tables of x^k mod Phi_n, products, Galois automorphisms and
promotion to a larger field, and :func:`minimal_field`, which puts a stack
of integer numerator planes over one denominator into canonical form.
:class:`Cyclotomic` is the case of one scalar per plane;
:mod:`ncgdesk.linalg` stores whole matrices the same way.

It also holds the one exact eliminator, :func:`eliminate`, behind the
subfield tables, :mod:`ncgdesk.linalg` and :mod:`ncgdesk.cyclic`.  It keeps
rows only; a caller that needs combinations eliminates :func:`tagged` columns.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .budget import check_budget
from .errors import ValidationError

_EPSILON = 1e-9


def get_epsilon() -> float:
    return _EPSILON


def set_epsilon(eps: float) -> None:
    global _EPSILON
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError("epsilon must be a positive finite number")
    _EPSILON = eps


# ---------------------------------------------------------------------------
# the field tables, cached per cyclotomic order
#
# An element of Q(zeta_n) is a stack of phi(n) integer numerator planes
# (the coefficients of 1, zeta, ..., zeta^(phi(n)-1)) over one positive
# denominator; a plane is a scalar for Cyclotomic and a matrix in linalg.

@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> tuple:
    """Integer coefficients (low -> high) of the n-th cyclotomic polynomial."""
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1, the product of Phi_d over d | n
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_poly(d)
            quo = [0] * (len(num) - len(div) + 1)
            for k in reversed(range(len(quo))):  # every Phi_d is monic
                quo[k] = c = num[k + len(div) - 1]
                for i, y in enumerate(div):
                    num[k + i] -= c * y
            num = quo
    return tuple(num)


def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=256)
def _powers(n: int):
    """Row k holds the integer coefficients of x^k mod Phi_n, for k < n."""
    phi = _phi(n)
    low = cyclotomic_poly(n)[:phi]
    vec = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple(vec))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * c for v, c in zip(vec, low)]
    return tuple(rows)


def _table(rows) -> np.ndarray:
    return np.array(rows, dtype=object)


def _fold(table: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Apply a (p x q) table to a stack of q coefficient planes."""
    q = len(planes)
    return (table @ planes.reshape(q, -1)).reshape((len(table),) + planes.shape[1:])


@lru_cache(maxsize=256)
def _mul_table(n: int) -> np.ndarray:
    """(phi, phi^2) table: plane t of a product gets sum_ij M[t, i*phi+j] A_i B_j."""
    phi, pw = _phi(n), _powers(n)
    return _table([[pw[(i + j) % n][t] for i in range(phi) for j in range(phi)]
                   for t in range(phi)])


@lru_cache(maxsize=256)
def _galois(n: int, k: int) -> np.ndarray:
    """Table of the automorphism zeta -> zeta^k of Q(zeta_n), gcd(k, n) = 1.

    Complex conjugation is k = n - 1.
    """
    phi, pw = _phi(n), _powers(n)
    return _table([[pw[j * k % n][t] for j in range(phi)] for t in range(phi)])


@lru_cache(maxsize=256)
def _promotion(n: int, big: int) -> np.ndarray:
    """Coordinates at order ``big`` of zeta_n^j (n | big), as rows t x cols j."""
    step, pw = big // n, _powers(big)
    return _table([[pw[step * j][t] for j in range(_phi(n))]
                   for t in range(_phi(big))])


@lru_cache(maxsize=256)
def _subfields(n: int):
    """Test data for each proper subfield Q(zeta_d), smallest d first.

    With E the embedding of Q(zeta_d) and ``inv`` = scale * (E[rows])^-1
    for some invertible square row selection, a plane stack v lies in
    Q(zeta_d) iff E @ inv @ v[rows] == scale * v, and inv @ v[rows] / scale
    are then its coordinates there.
    """
    out = []
    for d in range(2, n):
        if n % d or d % 4 == 2:  # Q(zeta_d) = Q(zeta_{d/2}) when d = 2 mod 4
            continue
        embed = _promotion(d, n)
        red, rows, _ = eliminate(tagged({j: x for j, x in enumerate(row) if x}
                                        for row in embed.tolist()))
        # minus the tags of e_j's residue: e_j as a combination of the rows
        # E[rows[k]], which is row j of (E[rows])^-1
        combos = [tags(red.reduce({j: 1})) for j in range(embed.shape[1])]
        inv = [[-combo.get(t, 0) for t in rows] for combo in combos]
        scale = math.lcm(*(x.denominator for row in inv for x in row))
        inv = _table([[int(x * scale) for x in row] for row in inv])
        out.append((d, rows, inv, embed, scale))
    return tuple(out)


def minimal_field(order: int, nums: np.ndarray, den: int):
    """Canonical (order, nums, den) of the stack nums / den over Q(zeta_order).

    The denominator ends in lowest terms against every numerator, and the
    order is the smallest whose field holds every plane of the stack.
    """
    if den != 1:
        g = math.gcd(den, *nums.ravel().tolist())
        if g != 1:
            nums, den = nums // g, den // g
    if order == 1:
        return 1, nums, den
    if not np.count_nonzero(nums[1:]):
        return 1, nums[:1], den
    for d, rows, inv, embed, scale in _subfields(order):
        coords = _fold(inv, nums[rows])
        if (_fold(embed, coords) == nums * scale).all():
            den *= scale
            g = math.gcd(den, *coords.flat)
            return d, coords // g, den // g
    return order, nums, den


class Cyclotomic:
    """Exact element of Q(zeta_n), normalized to its minimal cyclotomic field.

    ``order == 1`` means a plain rational; ``order == 4`` covers the Gaussian
    rationals.  Values are immutable and hashable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs, _normalized=False):
        if not _normalized:
            coeffs = [Fraction(c) for c in coeffs]
            den = math.lcm(1, *(c.denominator for c in coeffs))
            nums = [0] * _phi(order)
            for k, c in enumerate(coeffs):
                c = c.numerator * (den // c.denominator)
                for t, p in enumerate(_powers(order)[k % order]):
                    nums[t] += c * p
            value = Cyclotomic._from_planes(order, _table(nums), den)
            order, coeffs = value.order, value.coeffs
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),), _normalized=True)

    @staticmethod
    def gaussian(re, im) -> "Cyclotomic":
        re, im = Fraction(re), Fraction(im)
        if not im:
            return Cyclotomic.from_rational(re)
        return Cyclotomic(4, (re, im), _normalized=True)  # no field between Q and Q(i)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic(n, [0] * (k % n) + [1])

    @staticmethod
    def _from_planes(order, nums, den) -> "Cyclotomic":
        """The scalar sum_k nums[k] zeta_order^k / den."""
        order, nums, den = minimal_field(order, nums, den)
        coeffs = tuple(Fraction(x, den) for x in nums)
        return Cyclotomic(order, coeffs, _normalized=True)

    # -- ring/field structure ----------------------------------------------
    def _planes(self, n):
        """(integer numerators at order n, denominator); self.order | n."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = _table([c.numerator * (den // c.denominator) for c in self.coeffs])
        if n != self.order:
            nums = _fold(_promotion(self.order, n), nums)
        return nums, den

    def _sigma(self, k: int) -> "Cyclotomic":
        """The Galois conjugate zeta -> zeta^k, gcd(k, order) = 1."""
        nums, den = self._planes(self.order)
        n = self.order
        return Cyclotomic._from_planes(n, _fold(_galois(n, k), nums), den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(1, (self.coeffs[0] + other.coeffs[0],), _normalized=True)
        if self.order == 4 and other.order == 4:
            re = self.coeffs[0] + other.coeffs[0]
            im = self.coeffs[1] + other.coeffs[1]
            if not im:
                return Cyclotomic(1, (re,), _normalized=True)
            return Cyclotomic(4, (re, im), _normalized=True)
        if {self.order, other.order} == {1, 4}:
            g, q = (self, other) if self.order == 4 else (other, self)
            return Cyclotomic(4, (g.coeffs[0] + q.coeffs[0], g.coeffs[1]),
                              _normalized=True)
        n = math.lcm(self.order, other.order)
        (a, da), (b, db) = self._planes(n), other._planes(n)
        return Cyclotomic._from_planes(n, a * db + b * da, da * db)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs), _normalized=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(1, (self.coeffs[0] * other.coeffs[0],), _normalized=True)
        if self.order == 1:
            q = self.coeffs[0]
            return Cyclotomic(other.order, tuple(q * c for c in other.coeffs),
                              _normalized=True) if q else _ZERO
        if other.order == 1:
            q = other.coeffs[0]
            return Cyclotomic(self.order, tuple(q * c for c in self.coeffs),
                              _normalized=True) if q else _ZERO
        if self.order == 4 and other.order == 4:
            a, b = self.coeffs
            c, d = other.coeffs
            re, im = a * c - b * d, a * d + b * c
            if not im:
                return Cyclotomic(1, (re,), _normalized=True)
            return Cyclotomic(4, (re, im), _normalized=True)
        n = math.lcm(self.order, other.order)
        (a, da), (b, db) = self._planes(n), other._planes(n)
        prod = np.multiply.outer(a, b).reshape(-1)
        return Cyclotomic._from_planes(n, _fold(_mul_table(n), prod), da * db)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.order == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],), _normalized=True)
        if self.order == 4:  # conj(z) / |z|^2
            re, im = self.coeffs
            norm = re * re + im * im
            return Cyclotomic(4, (re / norm, -im / norm), _normalized=True)
        # self times the product of its other Galois conjugates is its norm
        n = self.order
        rest = reduce(operator.mul, (
            self._sigma(k) for k in range(2, n) if math.gcd(k, n) == 1))
        return rest * (1 / (self * rest).rational_value())

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Cyclotomic":
        if self.order <= 2:
            return self
        if self.order == 4:
            return Cyclotomic(4, (self.coeffs[0], -self.coeffs[1]),
                              _normalized=True)
        return self._sigma(self.order - 1)

    # -- predicates / views -------------------------------------------------
    def is_zero(self) -> bool:
        return self.order == 1 and not self.coeffs[0]

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational scalar")
        return self.coeffs[0]

    def is_gaussian(self) -> bool:
        return self.order in (1, 2, 4)

    def gaussian_parts(self):
        """(re, im) as Fractions; only valid for Gaussian rationals."""
        if self.order == 1:
            return self.coeffs[0], Fraction(0)
        if self.order == 4:
            return self.coeffs[0], self.coeffs[1]
        raise ValueError("scalar is not a Gaussian rational")

    def __complex__(self):
        z = cmath.exp(2j * math.pi / self.order)
        acc = 0j
        p = 1 + 0j
        for c in self.coeffs:
            acc += float(c) * p
            p *= z
        return acc

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational hashes as the Fraction it equals
        return hash(self.coeffs[0]) if self.order == 1 else \
            hash((self.order, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.order == 1:
            return f"Cyc({self.coeffs[0]})"
        if self.order == 4:
            return f"Cyc({self.coeffs[0]}+{self.coeffs[1]}i)"
        return f"Cyc(order={self.order}, coeffs={self.coeffs})"


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic(1, (Fraction(x),), _normalized=True)
    return NotImplemented


_ZERO = Cyclotomic.from_rational(0)
_ONE = Cyclotomic.from_rational(1)


# ---------------------------------------------------------------------------
# generic scalar helpers (exact Cyclotomic/Fraction/int vs float complex)

def is_exact_scalar(x) -> bool:
    return isinstance(x, (Cyclotomic, Fraction, int))


def ensure_exact(x) -> Cyclotomic:
    c = _coerce(x)
    if c is NotImplemented:
        raise TypeError(f"not an exact scalar: {x!r}")
    return c


def to_complex(x) -> complex:
    if isinstance(x, Cyclotomic):
        return complex(x)
    return complex(x)


def conj_scalar(x):
    if isinstance(x, Cyclotomic):
        return x.conjugate()
    if isinstance(x, (int, Fraction)):
        return x
    return complex(x).conjugate()


def scalar_is_zero(x) -> bool:
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    return abs(complex(x)) <= _EPSILON


def scalars_equal(x, y) -> bool:
    if is_exact_scalar(x) and is_exact_scalar(y):
        return ensure_exact(x) == ensure_exact(y)
    return abs(to_complex(x) - to_complex(y)) <= _EPSILON


def sort_key(x):
    """Deterministic (re, im)-lexicographic key; works for both backends."""
    z = to_complex(x)
    tie = repr(x) if isinstance(x, Cyclotomic) else ""
    return (round(z.real, 12), round(z.imag, 12), tie)


# ---------------------------------------------------------------------------
# the one exact eliminator: sparse echelon form

class _SparseReducer:
    """Incremental row space in echelon form over sparse {index: scalar} rows.

    Each stored row has a pivot (its smallest index >= 0) normalized to 1;
    rows may overlap on non-pivot indices, which still yields canonical
    residues because any row-space element has a pivot as smallest index
    >= 0.  Negative indices are tags and are never pivots.  Inserted
    vectors are exact (int, Fraction or Cyclotomic entries); a row stays in
    Python ints while its pivot is +-1.
    """

    def __init__(self):
        self.rows = {}  # pivot index -> row dict

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, is_zero=scalar_is_zero) -> dict:
        """Residue of vec modulo the rows.  Its tags are minus the
        combination of tagged columns it subtracted.

        Pivots are cleared in increasing order; past its pivot a row only
        reaches larger indices and tags, so a heap of the pivots present
        suffices.
        """
        rows = self.rows
        vec = {k: v for k, v in vec.items() if not is_zero(v)}
        hits = [k for k in vec if k in rows]
        heapq.heapify(hits)
        while hits:
            hit = heapq.heappop(hits)
            f = vec.get(hit)
            if f is None:
                continue
            for k, v in rows[hit].items():
                acc = vec.get(k, 0) - f * v
                if is_zero(acc):
                    vec.pop(k, None)
                else:
                    if k not in vec and k in rows:
                        heapq.heappush(hits, k)
                    vec[k] = acc
        return vec


def tagged(columns):
    """The columns of [A; I]: column j with the tag -1 - j set to 1."""
    return ({**col, -1 - j: 1} for j, col in enumerate(columns))


def tags(residue: dict) -> dict:
    """The tags of a residue, as {column position: coefficient}."""
    return {-1 - k: v for k, v in residue.items() if k < 0}


def eliminate(columns):
    """Insert sparse exact columns in order.

    Returns the reducer, the positions of the independent columns (the
    leftmost-greedy pivot columns) and, for tagged columns, the kernel
    vector e_j - combo of each dependent column j, read from its residue's
    tags: combo is column j in the earlier pivot columns, the column j of
    the reduced row echelon form.  Untagged columns give no kernel vector.
    """
    red = _SparseReducer()
    independent, kernel = [], []
    for j, col in enumerate(columns):
        vec = red.reduce(col, operator.not_)
        pivot = min((k for k in vec if k >= 0), default=None)
        if pivot is not None:
            pv = vec[pivot]
            inv = pv if pv in (1, -1) else Fraction(1) / pv
            red.rows[pivot] = {k: v * inv for k, v in vec.items()}
            independent.append(j)
        elif vec:  # the tags of a dependent tagged column
            kernel.append(tags(vec))
    return red, independent, kernel


# ---------------------------------------------------------------------------
# JSON-facing parse/format: numbers are floats, strings "p/q" are exact

def parse_real(v):
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, (str, int)):
        return Fraction(v)
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number: {v!r}")
    return x


def parse_scalar(v):
    """[re, im] pair or bare number -> exact or float scalar."""
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"scalar pair must have two entries: {v!r}")
        re, im = parse_real(v[0]), parse_real(v[1])
        if isinstance(re, Fraction) and isinstance(im, Fraction):
            return Cyclotomic.gaussian(re, im)
        return complex(float(re), float(im))
    if isinstance(v, dict):
        order = v["order"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError(f"cyclotomic order must be an integer: {order!r}")
        if order < 1:
            raise ValueError(f"cyclotomic order must be positive: {order}")
        # the field tables of order N hold about N^2 integers
        check_budget(order * order,
                     f"field-table entries for cyclotomic order {order}")
        coeffs = [Fraction(parse_real(c)) for c in v["coeffs"]]
        return Cyclotomic(order, coeffs)
    re = parse_real(v)
    if isinstance(re, Fraction):
        return Cyclotomic.from_rational(re)
    return complex(re)


def format_scalar(x):
    if isinstance(x, (int, Fraction)):
        x = ensure_exact(x)
    if isinstance(x, Cyclotomic):
        if x.is_gaussian():
            re, im = x.gaussian_parts()
            return [str(re), str(im)]
        return {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}
    z = complex(x)
    return [z.real, z.imag]
