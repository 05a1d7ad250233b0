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
through the usual arithmetic operators, which read them as (numerator,
denominator) pairs, so exact matrices may freely store rationals unwrapped.
An exact value meeting a float or complex in +, -, * or / gives the complex
result, as a ``Fraction`` does (a :class:`Cyclotomic` beyond float range
raises NumericalError); equality and hashing stay exact, so a mixed
comparison goes through :func:`scalars_equal`.

Where a value sits in the plane is read here only: :func:`real_imag` reads
its (re, im), and :func:`sort_key` is the one order of values.

This module is also the one implementation of the field Q(zeta_n): the
integer tables of x^k mod Phi_n, products, Galois automorphisms and
promotion to a larger field, and :func:`minimal_field`, which puts a stack
of integer numerator planes over one denominator into canonical form.  A
:class:`Cyclotomic` is the one-plane case, a tuple of Python-int numerators
over one int whose arithmetic needs no numpy; :mod:`ncgdesk.linalg` stores
whole matrices as numpy planes.

It also holds the one exact eliminator, :func:`eliminate`, behind the
subfield tables, :mod:`ncgdesk.linalg` and :mod:`ncgdesk.cyclic`.  It keeps
rows only; a caller that needs combinations eliminates :func:`tagged` columns.
"""

from __future__ import annotations

import cmath
import heapq
import importlib.util
import math
import operator
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .budget import check_budget
from .errors import NumericalError, ResourceError, ValidationError


def _lazy_import(name: str):
    """The module ``name``, whose own import runs on its first attribute
    read.  A missing module raises ModuleNotFoundError here, as ``import``
    does.  LazyLoader is not thread-safe on first access before Python
    3.12; ncgdesk starts no threads."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# the one binding of numpy, which linalg and algebra import: ``import
# ncgdesk`` and cyclic homology on rational or Gaussian tensors never
# run numpy's import
np = _lazy_import("numpy")

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

    With E = _promotion(d, n) and ``inv`` = scale * (E[rows])^-1
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
        out.append((d, rows, [[int(x * scale) for x in row] for row in inv], scale))
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
    for d, rows, inv, scale in _subfields(order):
        coords = _fold(_table(inv), nums[rows])
        if (_fold(_promotion(d, order), coords) == nums * scale).all():
            den *= scale
            g = math.gcd(den, *coords.flat)
            return d, coords // g, den // g
    return order, nums, den


class Cyclotomic:
    """Exact element sum_k nums[k] zeta^k / den of Q(zeta_order): phi(order)
    Python ints over a positive int, in the canonical form
    :func:`minimal_field` gives a matrix (lowest terms, least order), so
    ``order == 1`` is a rational and ``order == 4`` a non-real Gaussian one.
    Arithmetic runs on the ints with the field tables and one gcd per
    result, reading ``int`` and ``Fraction`` operands as (numerator,
    denominator); a sum or product of two Q or Q(i) operands skips the
    tables.  Values are immutable and hashable."""

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order, coeffs):
        """The element sum_k coeffs[k] zeta_order^k, for any exact coefficients."""
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(1, *(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        return _cyclotomic(order, _spread(nums, 1, order), den)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (q,))

    @staticmethod
    def gaussian(re, im) -> "Cyclotomic":
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        return _cyclotomic(4, [re.numerator * (den // re.denominator),
                               im.numerator * (den // im.denominator)], den)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic(n, [0] * (k % n) + [1])

    # -- ring/field structure ----------------------------------------------
    def _sigma(self, k: int) -> "Cyclotomic":
        """zeta -> zeta^k, gcd(k, order) = 1, which keeps the canonical form."""
        return _new(self.order, _spread(self.nums, k, self.order), self.den)

    # x + 0, x - 0, x * 1 and x * 0 build nothing: accumulators start at 0,
    # and ranks multiply by 0 or 1
    def __add__(self, other):
        b = _operand(other)
        if b is None or b[1] == (0,):
            return self if b else _inexact(operator.add, self, other)
        return _add(self.order, self.nums, self.den, *b)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self + -other if _operand(other) else \
            _inexact(operator.sub, self, other)

    def __rsub__(self, other):
        return (-self).__add__(other) if _operand(other) else \
            _inexact(operator.sub, other, self)

    def __mul__(self, other):
        b = _operand(other)
        if b is None or b[1] == (0,):
            return _ZERO if b else _inexact(operator.mul, self, other)
        if b[1:] == ((1,), 1):
            return self
        return _mul(self.order, self.nums, self.den, *b)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        return _cyclotomic(*_reciprocal(self.order, self.nums, self.den))

    def __truediv__(self, other):
        b = _operand(other)
        return self * _cyclotomic(*_reciprocal(*b)) if b else \
            _inexact(operator.truediv, self, other)

    def __rtruediv__(self, other):
        b = _operand(other)
        return _mul(*b, *_reciprocal(*_operand(self))) if b else \
            _inexact(operator.truediv, other, self)

    def __pow__(self, k: int):
        out, base, k = _ONE, self if k >= 0 else self.inverse(), abs(k)
        while k:
            out, base, k = out * base if k & 1 else out, base * base, k >> 1
        return out

    def conjugate(self) -> "Cyclotomic":
        return self._sigma(self.order - 1)

    # -- predicates / views -------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        """The coefficients of 1, zeta, ..., as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self) -> bool:
        return self.order == 1 and not self.nums[0]

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational scalar")
        return Fraction(self.nums[0], self.den)

    def is_gaussian(self) -> bool:
        return self.order in (1, 2, 4)

    def gaussian_parts(self):
        """(re, im) as Fractions; only valid for Gaussian rationals."""
        if not self.is_gaussian():
            raise ValueError("scalar is not a Gaussian rational")
        return (*self.coeffs, Fraction(0))[:2]

    def __complex__(self):
        # each term is an int true division, rounded as float(Fraction) is
        if self.order in (1, 4):  # the parts real_imag reads, rounded once
            return complex(*(x / self.den for x in real_imag(self)[:2]))
        z = cmath.exp(2j * math.pi / self.order)
        acc, p = 0j, 1 + 0j
        for x in self.nums:
            acc += x / self.den * p
            p *= z
        return acc

    def __eq__(self, other):
        b = _operand(other)
        return (self.order, self.nums, self.den) == b if b else NotImplemented

    def __hash__(self):
        # a rational hashes as the Fraction it equals
        return hash(self.rational_value()) if self.order == 1 else \
            hash((self.order, self.nums, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.order not in (1, 4):
            return f"Cyc(order={self.order}, coeffs={self.coeffs})"
        # the strings of the Gaussian parts' Fractions, written from the ints
        parts = [f"{x // g}" if g == self.den else f"{x // g}/{self.den // g}"
                 for x in self.nums for g in [math.gcd(x, self.den)]]
        return f"Cyc({'+'.join(parts)}{'i' * (self.order == 4)})"


# the slots' own setters, past the immutability guard
_set_order, _set_nums, _set_den = (
    vars(Cyclotomic)[name].__set__ for name in Cyclotomic.__slots__)


def _new(order: int, nums: tuple, den: int) -> Cyclotomic:
    """A Cyclotomic from a canonical (order, nums, den), unchecked."""
    x = object.__new__(Cyclotomic)
    _set_order(x, order)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _cyclotomic(order: int, nums, den: int) -> Cyclotomic:
    """The canonical Cyclotomic sum_k nums[k] zeta_order^k / den, den > 0:
    :func:`minimal_field` of one scalar, on Python ints."""
    if den != 1:
        g = math.gcd(den, *nums)
        nums, den = [x // g for x in nums], den // g
    if not any(nums[1:]):
        return _new(1, (nums[0],), den)
    for d, rows, inv, scale in _subfields(order):
        coords = [sum(c * nums[r] for c, r in zip(row, rows)) for row in inv]
        if _spread(coords, order // d, order) == tuple(x * scale for x in nums):
            g = math.gcd(den * scale, *coords)
            return _new(d, tuple(x // g for x in coords), den * scale // g)
    return _new(order, tuple(nums), den)


def _spread(nums, k: int, n: int) -> tuple:
    """sum_j nums[j] zeta_n^(j k) in the power basis: the Galois map
    zeta -> zeta^k, or with k = n / m the promotion from Q(zeta_m)."""
    pw = _powers(n)
    out = [0] * len(pw[0])
    for j, x in enumerate(nums):
        for t, p in enumerate(pw[j * k % n]):
            out[t] += x * p
    return tuple(out)


def _common_field(n: int, a, m: int, b):
    """(lcm(n, m), a, b), promoting every tuple but a rational's one int."""
    order = math.lcm(n, m)
    if n != order and len(a) > 1:
        a = _spread(a, order // n, order)
    if m != order and len(b) > 1:
        b = _spread(b, order // m, order)
    return order, a, b


def _gaussian(re: int, im: int, den: int) -> Cyclotomic:
    """The canonical (re + im i) / den, den > 0: what :func:`_cyclotomic`
    gives at order 4, as Q(i) has no proper subfield but Q."""
    g = math.gcd(den, re, im)
    if g != 1:
        re, im, den = re // g, im // g, den // g
    return _new(4, (re, im), den) if im else _new(1, (re,), den)


# Q and Q(i) operands, orders 1 and 4, skip the field tables
def _add(n: int, a, da: int, m: int, b, db: int) -> Cyclotomic:
    if n in (1, 4) and m in (1, 4):
        a1, b1 = a[1] if n == 4 else 0, b[1] if m == 4 else 0
        return _gaussian(a[0] * db + b[0] * da, a1 * db + b1 * da, da * db)
    n, a, b = _common_field(n, a, m, b)
    return _cyclotomic(n, [x * db + y * da for x, y in
                           zip_longest(a, b, fillvalue=0)], da * db)


def _mul(n: int, a, da: int, m: int, b, db: int) -> Cyclotomic:
    if n in (1, 4) and m in (1, 4):
        a1, b1 = a[1] if n == 4 else 0, b[1] if m == 4 else 0
        return _gaussian(a[0] * b[0] - a1 * b1, a[0] * b1 + a1 * b[0], da * db)
    n, a, b = _common_field(n, a, m, b)
    return _cyclotomic(n, _times(a, b, n), da * db)


def _times(a, b, n: int) -> tuple:
    """The product of numerator tuples at order n, reduced mod Phi_n."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _spread(conv, 1, n)


def _reciprocal(n: int, nums, den: int):
    """(n, R * den, N) for 1 / (nums / den): R, the product of the other
    Galois conjugates of nums, makes nums * R the rational integer N."""
    rest = (1,)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            rest = _times(rest, _spread(nums, k, n), n)
    norm = _times(nums, rest, n)[0]
    if not norm:
        raise ZeroDivisionError("division by zero scalar")
    return n, [x * den * (1 if norm > 0 else -1) for x in rest], abs(norm)


def _operand(x):
    """(order, nums, den) of an exact scalar, else None."""
    if isinstance(x, Cyclotomic):
        return x.order, x.nums, x.den
    if isinstance(x, (int, Fraction)):
        return 1, (x.numerator,), x.denominator


def _inexact(op, x, y):
    """op(x, y) for a Cyclotomic and a float or complex, on the Cyclotomic's
    :func:`to_complex`, as a Fraction computes; else NotImplemented."""
    if isinstance(x, Cyclotomic) and isinstance(y, (float, complex)):
        return op(to_complex(x), y)
    if isinstance(y, Cyclotomic) and isinstance(x, (float, complex)):
        return op(x, to_complex(y))
    return NotImplemented


_ZERO = Cyclotomic.from_rational(0)
_ONE = Cyclotomic.from_rational(1)


# ---------------------------------------------------------------------------
# generic scalar helpers (exact Cyclotomic/Fraction/int vs float complex)

def is_exact_scalar(x) -> bool:
    return isinstance(x, (Cyclotomic, Fraction, int))


def to_complex(x) -> complex:
    """complex(x); an exact value beyond float range raises NumericalError."""
    try:
        return complex(x)
    except OverflowError:
        raise NumericalError("an exact value is beyond float range") from None


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
        return x == y
    return abs(to_complex(x) - to_complex(y)) <= _EPSILON


def real_imag(x):
    """(re, im, den): an exact Gaussian value's integer numerators over its
    denominator, else float parts (:func:`to_complex`) and den None."""
    b = _operand(x)
    if b is not None and b[0] in (1, 4):
        order, nums, den = b
        return nums[0], nums[1] if order == 4 else 0, den
    z = to_complex(x)
    return z.real, z.imag, None


def sort_key(x):
    """The one order of values, lexicographic in (re, im): (re, im, tie).
    An exact Gaussian value's parts are Fractions, exact against each
    other and against floats; a float's are its own, any other exact
    value's :func:`to_complex`'s.  Equal parts order by ``tie``: (-1,
    signs) for a float (-0.0 first), (0,) for an exact Gaussian value and
    the canonical (1, order, nums, den) for any other."""
    re, im, den = real_imag(x)
    if den is not None:
        return Fraction(re, den), Fraction(im, den), (0,)
    b = _operand(x)
    if b is None:
        return re, im, (-1, math.copysign(1, re), math.copysign(1, im))
    return re, im, (1, *b)


# ---------------------------------------------------------------------------
# the one exact eliminator: sparse echelon form

class _SparseReducer:
    """Incremental row space in echelon form over sparse {index: scalar} rows.

    Each stored row has a pivot (its smallest index >= 0); rows may overlap
    on non-pivot indices, which still yields canonical residues because any
    row-space element has a pivot as smallest index >= 0.  Negative indices
    are tags and are never pivots.  Inserted vectors are exact (int,
    Fraction or Cyclotomic entries).  Rational rows are fraction-free
    (Bareiss, Math. Comp. 22, 1968): an int row is kept divided by the gcd
    of its entries, its pivot p positive.  A rational vector, cleared of its
    denominators, is multiplied by p / gcd(f, p), f its entry at p, before
    that row clears p, so it ends as s times its residue for an int s,
    divided out once at the end.  A vector with a Cyclotomic or float entry,
    or a rational one from the first Cyclotomic row it meets, is reduced
    against ``rows``: each row normalized to pivot 1, built on first use and
    kept.
    """

    def __init__(self):
        self._pivots = set()
        self._ints = {}  # pivot -> int row with gcd 1 and pivot entry > 0
        self._units = {}  # pivot -> row normalized to pivot 1

    rank = property(lambda self: len(self._pivots))
    rows = property(lambda self: {p: self._unit(p) for p in self._pivots})

    def _unit(self, p) -> dict:
        row = self._units.get(p) or _over(self._ints[p], self._ints[p][p])
        return self._units.setdefault(p, row)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the rows.  Its tags are minus the
        combination of tagged columns it subtracted."""
        return _over(*self._reduce(vec))

    def _reduce(self, vec: dict):
        """(s * residue, s) for an int s if vec and every row it meets are
        rational, else (residue, None).  Pivots are cleared in increasing
        order; past its pivot a row only reaches larger indices and tags, so
        a heap of the pivots present suffices."""
        pivots, ints = self._pivots, self._ints
        kinds = set(map(type, vec.values()))
        if kinds <= {int}:
            s, vec = 1, {k: v for k, v in vec.items() if v}
        elif kinds <= {int, Fraction}:
            s = math.lcm(*(v.denominator for v in vec.values()))
            vec = {k: int(v * s) for k, v in vec.items() if v}
        else:
            s, vec = None, {k: v for k, v in vec.items() if not scalar_is_zero(v)}
        hits = [k for k in vec if k in pivots]
        heapq.heapify(hits)
        while hits:
            hit = heapq.heappop(hits)
            f = vec.get(hit)
            if f is None:
                continue
            row = None if s is None else ints.get(hit)
            if row is None:
                vec, s = _over(vec, s), None
                f, row = vec[hit], self._unit(hit)
            elif row[hit] != 1:  # vec times p / g, then f / g times the row
                g = math.gcd(f, row[hit])
                a = row[hit] // g
                s, f = s * a, f // g
                vec = {k: v * a for k, v in vec.items()}
            for k, v in row.items():
                acc = vec.get(k, 0) - f * v
                if not acc or s is None and scalar_is_zero(acc):
                    vec.pop(k, None)
                else:
                    if k not in vec and k in pivots:
                        heapq.heappush(hits, k)
                    vec[k] = acc
        return vec, s


def _over(vec: dict, s) -> dict:
    """vec / s, for s an int or None (vec as it is)."""
    return vec if s in (None, 1) else {k: Fraction(v, s) for k, v in vec.items()}


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
    A rational column is stored as its int residue over the gcd of its
    entries, a Cyclotomic one over its pivot (see :class:`_SparseReducer`).
    """
    red = _SparseReducer()
    independent, kernel = [], []
    for j, col in enumerate(columns):
        vec, s = red._reduce(col)
        pivot = min((k for k in vec if k >= 0), default=None)
        if pivot is not None:
            pv = vec[pivot]
            if s is None:
                inv = pv if pv in (1, -1) else Fraction(1) / pv
                red._units[pivot] = {k: v * inv for k, v in vec.items()}
            else:  # over the gcd, with the sign of the pivot
                g = pv if pv in (1, -1) else math.gcd(*vec.values()) * (pv // abs(pv))
                red._ints[pivot] = vec if g == 1 else {
                    k: v // g for k, v in vec.items()}
            red._pivots.add(pivot)
            independent.append(j)
        elif vec:  # the tags of a dependent tagged column
            kernel.append(tags(_over(vec, s)))
    return red, independent, kernel


# ---------------------------------------------------------------------------
# JSON-facing parse/format: numbers are floats, strings "p/q" are exact

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_real(v):
    """A JSON number or numeric string; a string whose exponent gives more
    digits than ``int`` parses from a digit string is refused before
    ``Fraction`` builds its power of ten."""
    if isinstance(v, bool):
        raise ValueError(f"not a number: {v!r}")
    if isinstance(v, str) and (exp := _EXPONENT.search(v)):
        limit = sys.get_int_max_str_digits()
        digits = sum(map(str.isdigit, v[:exp.start()])) + abs(int(exp[1]))
        if limit and digits > limit:
            raise ValueError(f"Exceeds the limit ({limit} digits): "
                             f"its exponent gives {digits} digits")
    if isinstance(v, (str, int)):
        return Fraction(v)
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number: {v!r}")
    return x


def parse_scalar(v):
    """[re, im] pair, {"order", "coeffs"} record or bare number -> exact
    or float scalar; a float part makes the whole value a float."""
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
        coeffs = v["coeffs"]
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"cyclotomic coeffs must be a list: {coeffs!r}")
        parts = [parse_real(c) for c in coeffs]
        if all(isinstance(c, Fraction) for c in parts):
            return Cyclotomic(order, parts)
        # a float coefficient makes the value complex, as a float operand does
        return sum((c * Cyclotomic.root_of_unity(order, k)
                    for k, c in enumerate(parts)), 0j)
    re = parse_real(v)
    if isinstance(re, Fraction):
        return Cyclotomic.from_rational(re)
    return complex(re)


def format_scalar(x):
    if isinstance(x, (int, Fraction)):
        x = Cyclotomic.from_rational(x)
    if isinstance(x, Cyclotomic):
        gaussian = x.is_gaussian()
        try:
            parts = [str(c) for c in
                     (x.gaussian_parts() if gaussian else x.coeffs)]
        except ValueError as exc:  # more digits than str(int) prints
            raise ResourceError(f"cannot print an exact value: {exc}") from None
        return parts if gaussian else {"order": x.order, "coeffs": parts}
    z = complex(x)
    return [z.real, z.imag]
