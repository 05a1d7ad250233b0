"""Multi-matrix algebras and their spectral calculus.

An algebra is a finite direct sum of complex matrix blocks.  Elements of the
amplification M_m(A) are stored per factor in outer-major layout: the block
for factor j (size m*r_j) is an m x m grid of r_j x r_j cells, cell (s, t)
being the (s, t) entry of the m x m matrix over A.

The public constructors validate: ``AlgebraElement(...)`` (one block per
factor, each of its factor's size, one backend throughout), ``diagonal``,
and through them the serializer and the generators.  Results built
inside the module are trusted and skip that check, because ``la``
already guarantees their shapes and backend: sums, differences,
negations, products, ``scale``, ``star``, ``direct_sum``, ``zero``,
``identity``, and the blocks of ``apply_hom`` and of the spectral path.

An exact spectral decomposition takes its candidate eigenvalues from
numpy, snapped to 0 and roots of unity where they lie close to those, and
to Gaussian rationals; block-local Lagrange idempotents and two exact
checks per factor decide them (see :func:`spectral_decompose`).
Epsilon decides float comparisons only: no exact answer depends on it.  An
exact decomposition is kept per element, for at most 256 inputs: an equal
exact input returns the form that was built and checked for the earlier
one.  ``ncgdesk.clear_caches`` empties that cache.  Kept outside the
fields, so that equality, hashing and repr ignore them: a form's sum
lam * p, a homomorphism's adjoint unitaries, and on each element each image
``apply_hom`` built from it, per homomorphism object.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import linalg as la
from .errors import DomainError, NumericalError, ValidationError
from .scalars import (
    _ZERO,
    Cyclotomic,
    _cyclotomic,
    get_epsilon,
    is_exact_scalar,
    np,
    scalar_is_zero,
    scalars_equal,
    sort_key,
    to_complex,
)

_SNAP_DENOMINATOR = 10**6
_ROOT_ORDER = 24  # the largest common order of root-of-unity candidates
_NOT_NORMAL = "spectral_decompose requires a normal element"


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """A = M_{r_1}(C) + ... + M_{r_k}(C)."""

    block_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError(f"invalid block dims {self.block_dims!r}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_factors(self) -> int:
        return len(self.block_dims)

    def ambient_dims(self, m: int = 1) -> tuple:
        return tuple(m * r for r in self.block_dims)

    def dimension(self, m: int = 1) -> int:
        return sum(d * d for d in self.ambient_dims(m))


@dataclass(frozen=True)
class AlgebraElement:
    algebra: MultiMatrixAlgebra
    amplification: int
    blocks: tuple

    def __post_init__(self):
        if self.amplification < 1:
            raise ValidationError("amplification must be >= 1")
        if len(self.blocks) != self.algebra.num_factors:
            raise ValidationError("one block per algebra factor required")
        blocks = tuple(la.as_matrix(b) for b in self.blocks)
        for b, d in zip(blocks, self.algebra.ambient_dims(self.amplification)):
            if b.shape != (d, d):
                raise ValidationError(
                    f"block of shape {b.shape} does not match dimension {d}")
        if len({type(b) for b in blocks}) > 1:
            raise ValidationError("element mixes exact and float blocks")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _trusted(cls, algebra, amplification: int, blocks: tuple) -> "AlgebraElement":
        """A result built inside the library from ``la`` matrices of the
        right shapes over one backend: nothing is rechecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "amplification", amplification)
        object.__setattr__(out, "blocks", blocks)
        return out

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(algebra, m=1, exact=True):
        return AlgebraElement._trusted(algebra, m, tuple(
            la.zeros(d, d, exact) for d in algebra.ambient_dims(m)))

    @staticmethod
    def identity(algebra, m=1, exact=True):
        return AlgebraElement._trusted(algebra, m, tuple(
            la.identity(d, exact) for d in algebra.ambient_dims(m)))

    @staticmethod
    def diagonal(algebra, diagonals, m=1):
        """Element with the given per-factor diagonal entries."""
        blocks = []
        for d, diag in zip(algebra.ambient_dims(m), diagonals):
            if len(diag) != d:
                raise ValidationError("diagonal length mismatch")
            zero = 0 * diag[0]  # float for a float diagonal, exact otherwise
            blocks.append(tuple(tuple(diag[i] if i == j else zero for j in range(d))
                                for i in range(d)))
        return AlgebraElement(algebra, m, tuple(blocks))

    # -- algebra operations -------------------------------------------------
    def _check_compatible(self, other):
        if self.algebra != other.algebra or self.amplification != other.amplification:
            raise ValidationError("algebra/amplification mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return AlgebraElement._trusted(self.algebra, self.amplification, tuple(
            map(la.mat_add, self.blocks, other.blocks)))

    def __sub__(self, other):
        self._check_compatible(other)
        return AlgebraElement._trusted(self.algebra, self.amplification, tuple(
            map(la.mat_sub, self.blocks, other.blocks)))

    def __neg__(self):
        return AlgebraElement._trusted(self.algebra, self.amplification,
                                       tuple(la.mat_neg(b) for b in self.blocks))

    def __mul__(self, other):
        self._check_compatible(other)
        return AlgebraElement._trusted(self.algebra, self.amplification, tuple(
            map(la.mat_mul, self.blocks, other.blocks)))

    def scale(self, c):
        return AlgebraElement._trusted(self.algebra, self.amplification,
                                       tuple(la.scalar_mul(c, b) for b in self.blocks))

    def star(self):
        return AlgebraElement._trusted(self.algebra, self.amplification,
                                       tuple(la.conj_transpose(b) for b in self.blocks))

    def direct_sum(self, other):
        """a + b in M_{m1+m2}(A); outer-major layout makes this block-diagonal."""
        if self.algebra != other.algebra:
            raise ValidationError("algebra mismatch in direct sum")
        return AlgebraElement._trusted(
            self.algebra, self.amplification + other.amplification,
            tuple(la.block_diag(a, b) for a, b in zip(self.blocks, other.blocks)))

    def equals(self, other) -> bool:
        if self.algebra != other.algebra or self.amplification != other.amplification:
            return False
        return all(map(la.mat_equal, self.blocks, other.blocks))

    def is_zero(self) -> bool:
        return all(map(la.is_zero_matrix, self.blocks))

    def is_exact(self) -> bool:
        return type(self.blocks[0]) is la.ExactMatrix

    def is_projection(self) -> bool:
        return self.equals(self.star()) and (self * self).equals(self)

    def norm(self) -> float:
        """Operator norm: max over factors of the largest singular value."""
        return max(la.op_norm(b) for b in self.blocks)


@dataclass(frozen=True)
class Projection:
    """An AlgebraElement validated to satisfy p^2 = p = p*."""

    element: AlgebraElement

    def __post_init__(self):
        if not self.element.is_projection():
            raise DomainError("element is not a projection")

    @classmethod
    def _trusted(cls, element: AlgebraElement) -> "Projection":
        """Wrap a projection by construction: a certified self-adjoint
        Lagrange product, a sum of orthogonal ones, a direct sum or a
        *-image."""
        out = object.__new__(cls)
        object.__setattr__(out, "element", element)
        return out

    @property
    def algebra(self):
        return self.element.algebra

    @property
    def amplification(self):
        return self.element.amplification

    @staticmethod
    def zero(algebra, m=1, exact=True):
        return Projection(AlgebraElement.zero(algebra, m, exact))

    @staticmethod
    def identity(algebra, m=1, exact=True):
        return Projection(AlgebraElement.identity(algebra, m, exact))

    @staticmethod
    def diagonal_unit(algebra, factor, index=0):
        """Rank-one diagonal matrix unit in the given factor."""
        diags = []
        for f, d in enumerate(algebra.ambient_dims()):
            diags.append([Fraction(1) if (f == factor and i == index) else Fraction(0)
                          for i in range(d)])
        return Projection(AlgebraElement.diagonal(algebra, diags))

    def rank_vector(self):
        """Per-factor rank; the trace of a projection counts its eigenvalue-1 space."""
        out = []
        for b in self.element.blocks:
            if type(b) is la.FloatMatrix:
                out.append(int(round(la.trace(b).real)))
                continue
            _, nums, den = la.trace_numerators(b)
            if any(nums[1:]):
                raise ValueError("not a rational scalar")
            rank, rest = divmod(nums[0], den)
            if rest:
                raise DomainError("projection trace is not an integer")
            out.append(rank)
        return tuple(out)

    def orthogonal_to(self, other) -> bool:
        return (self.element * other.element).is_zero()

    def direct_sum(self, other):
        return Projection._trusted(self.element.direct_sum(other.element))


@dataclass(frozen=True)
class BorelSetModel:
    """Finite point model of a Borel subset of the plane."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple(sorted(self.points, key=sort_key)))

    def contains(self, value) -> bool:
        return any(scalars_equal(value, p) for p in self.points)


def _by_value(pairs) -> tuple:
    return tuple(sorted(pairs, key=lambda kv: sort_key(kv[0])))


@dataclass(frozen=True)
class SpectralForm:
    """Distinct nonzero eigenvalues paired with orthogonal projections."""

    algebra: MultiMatrixAlgebra
    amplification: int
    pairs: tuple  # ((eigenvalue, Projection), ...), eigenvalues nonzero

    def __post_init__(self):
        object.__setattr__(self, "pairs", _by_value(self.pairs))
        self._validate()

    @classmethod
    def _trusted(cls, algebra, amplification: int, pairs) -> "SpectralForm":
        """Pairs that are a spectral form by construction, sorted as the
        constructor sorts them: the nonzero distinct exact values and
        nonzero certified idempotents of an exact decomposition, whose
        certificate proves what the constructor would check."""
        out = object.__new__(cls)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "amplification", amplification)
        object.__setattr__(out, "pairs", _by_value(pairs))
        return out

    def _validate(self):
        projs = [p for _, p in self.pairs]
        for p in projs:
            if p.algebra != self.algebra or p.amplification != self.amplification:
                raise ValidationError("spectral projection over wrong algebra")
        if any(scalar_is_zero(v) for v, _ in self.pairs):
            raise ValidationError("zero eigenvalue must go to the kernel projection")
        # values are distinct under the one grouping rule; a chain raises
        if any(len(ps) > 1 for _, ps in _merge_values(self.pairs)):
            raise ValidationError("repeated eigenvalue in spectral form")
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if not p.orthogonal_to(q):
                    raise ValidationError("spectral projections are not orthogonal")

    def _exact_projections(self) -> bool:  # the padding follows it
        return all(p.element.is_exact() for _, p in self.pairs)

    def _sum(self, terms) -> AlgebraElement:
        """sum c * x over the (c, AlgebraElement) pairs of ``terms``, a block
        per factor in one ``la.combine``; 0 when there are none."""
        terms = [(c, x.blocks) for c, x in terms]
        if not terms:
            return AlgebraElement.zero(self.algebra, self.amplification,
                                       self._exact_projections())
        return AlgebraElement._trusted(self.algebra, self.amplification, tuple(
            la.combine([(c, blocks[f]) for c, blocks in terms])
            for f in range(self.algebra.num_factors)))

    @staticmethod
    def from_pairs(algebra, amplification, pairs):
        """The spectral form of the pairs whose value and projection are nonzero."""
        return SpectralForm(algebra, amplification, tuple(
            (v, p) for v, p in pairs if not (scalar_is_zero(v) or p.element.is_zero())))

    @staticmethod
    def zero(algebra, m=1):
        return SpectralForm(algebra, m, ())

    @staticmethod
    def scaled_projection(value, p: Projection):
        """The element value * p as a spectral form."""
        return SpectralForm.from_pairs(p.algebra, p.amplification, ((value, p),))

    def element(self) -> AlgebraElement:
        """sum lam * p, built on the first call and kept on the form
        (outside the fields, so equality, hashing and repr ignore it)."""
        acc = self.__dict__.get("_element")
        if acc is None:
            acc = self._sum((v, p.element) for v, p in self.pairs)
            object.__setattr__(self, "_element", acc)
        return acc

    def eigenvalues(self):
        return tuple(v for v, _ in self.pairs)

    def direct_sum(self, other: "SpectralForm") -> "SpectralForm":
        if self.algebra != other.algebra:
            raise ValidationError("algebra mismatch in direct sum")
        m1, m2 = self.amplification, other.amplification
        exact = self._exact_projections() and other._exact_projections()
        zero1 = AlgebraElement.zero(self.algebra, m1, exact)
        zero2 = AlgebraElement.zero(self.algebra, m2, exact)
        embedded = [(v, p.element.direct_sum(zero2)) for v, p in self.pairs] + \
            [(v, zero1.direct_sum(p.element)) for v, p in other.pairs]
        pairs = tuple((v, Projection._trusted(reduce(operator.add, es)))
                      for v, es in _merge_values(embedded))
        return SpectralForm.from_pairs(self.algebra, m1 + m2, pairs)


# ---------------------------------------------------------------------------
# operations

def is_normal(x: AlgebraElement) -> bool:
    return (x * x.star() - x.star() * x).is_zero()


def _cluster(values, radius, bounded=True):
    """Single-linkage clusters of complex values; returns lists of indices.

    A chain of values, each within ``radius`` of the next, links values
    farther apart than ``radius``; when ``bounded``, a cluster that wide
    raises NumericalError instead of passing as one value.
    """
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    groups = list(groups.values())
    if bounded and any(abs(values[i] - values[j]) > radius
                       for g in groups for i in g for j in g):
        raise NumericalError(
            f"values chain into a cluster wider than {radius:g}; "
            "lower the epsilon or use exact input")
    return groups


def _merge_values(pairs):
    """Group (value, item) pairs by value: [(key, [item, ...]), ...], each
    group's items in input order.

    Exact values group by equality.  Otherwise every value groups by
    bounded single linkage within 2*eps, as float eigenvalues do, so a
    chain wider than that raises NumericalError; a group's key is its
    first value by ``sort_key``, and the groups do not depend on the order.
    """
    pairs = list(pairs)
    if all(is_exact_scalar(v) for v, _ in pairs):
        groups = {}
        for v, item in pairs:
            groups.setdefault(v, []).append(item)
        return list(groups.items())
    zs = [to_complex(v) for v, _ in pairs]
    return [(min((pairs[i][0] for i in idx), key=sort_key),
             [pairs[i][1] for i in idx])
            for idx in _cluster(zs, 2 * get_epsilon())]


def _best_rational(x: float, bound: int = _SNAP_DENOMINATOR):
    """(p, q) in lowest terms, q > 0: the closest p/q to x with q at most
    ``bound``, ``Fraction(x).limit_denominator(bound)`` computed on ints.

    The continued fraction of x gives its last convergent p1/q1 and the
    semiconvergent (p0 + k p1)/(q0 + k q1) within the bound; x lies
    between them, d/(q1 den) from p1/q1, and they lie 1/(q1 (q0 + k q1))
    apart, so one product picks the closer (a tie goes to p1/q1).  A
    non-finite x raises as ``Fraction(x)`` does.
    """
    n, d = x.as_integer_ratio()
    if d <= bound:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _snap_gaussian(z: complex) -> Cyclotomic:
    """The Gaussian rational whose parts are the best rational
    approximations of z's with denominator at most _SNAP_DENOMINATOR."""
    (p, q), (r, s) = _best_rational(z.real), _best_rational(z.imag)
    den = math.lcm(q, s)
    return _cyclotomic(4, [p * (den // q), r * (den // s)], den)


def _snap_root(z: complex):
    """(0, 1) if |z| < 1/2, else (zeta_q^p, q) for the best approximation
    p/q of z's angle over 2 pi with q <= _ROOT_ORDER; None if z lies
    farther than 1/_SNAP_DENOMINATOR from that candidate, which is then
    never built."""
    if abs(z) < 0.5:
        return (_ZERO, 1) if abs(z) <= 1 / _SNAP_DENOMINATOR else None
    if abs(abs(z) - 1) > 1 / _SNAP_DENOMINATOR:
        return None
    p, q = _best_rational(cmath.phase(z) / (2 * math.pi), _ROOT_ORDER)
    if abs(z - cmath.rect(1, 2 * math.pi * p / q)) <= 1 / _SNAP_DENOMINATOR:
        return Cyclotomic.root_of_unity(q, p % q), q
    return None


def _split(part, basis, bounded):
    """Bases of the eigenvalue clusters of the Hermitian ``part`` on span(basis).

    span(basis) must be invariant under ``part``; the bases are orthonormal.
    """
    try:
        vals, vecs = np.linalg.eigh(basis.conj().T @ part @ basis)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return [basis @ vecs[:, idx]
            for idx in _cluster(list(vals), 2 * get_epsilon(), bounded)]


def _float_eigensystem(block):
    """(eigenvalues, orthogonal eigenprojections) for a normal matrix.

    The Hermitian part (m + m*)/2 and the skew part (m - m*)/2i commute and
    carry the real and imaginary parts of the eigenvalues.  Splitting by
    the first, then each piece by the second and again by the first gives
    the joint eigenspaces.  The first split may merge a chain of real parts
    whose imaginary parts differ, which the later, bounded splits separate.
    """
    m = la.to_numpy(block)
    herm, skew = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
    spaces = [np.eye(len(m), dtype=complex)]
    for part, bounded in ((herm, False), (skew, True), (herm, True)):
        spaces = [piece for basis in spaces for piece in _split(part, basis, bounded)]
    vals = [complex(np.trace(b.conj().T @ m @ b)) / b.shape[1] for b in spaces]
    return vals, [la.FloatMatrix(b @ b.conj().T) for b in spaces]


def spectral_decompose(x: AlgebraElement) -> SpectralForm:
    """Split a normal element into eigenvalue/eigenprojection pairs.

    Exact elements are decomposed exactly when their eigenvalues are Gaussian
    rationals, or 0 and roots of unity.  Each float eigenvalue of each
    block is snapped on its own twice: to a Gaussian rational, and to 0 if
    |z| < 1/2, else to the nearest zeta_q^p, q <= 24.  A block whose values
    all lie within 10^-6 of their second snaps tries those first, if the
    lcm of their orders over all such blocks is at most 24, which keeps
    every field at Q(zeta_t), t <= 24; the certificate (below) picks the
    first set it holds on.  Each factor keeps its distinct snapped values.
    A factor's idempotent for lam is the Lagrange product over its own
    values only, formed from each b - mu once and scaled once by
    prod (lam - mu)^-1; a factor without lam gets the zero block.

    Each fact is checked once, and two are checked per factor b: the
    certificate prod (b - mu) = 0 over its distinct values, and e = e* for
    each Lagrange idempotent e.  The certificate alone makes the
    idempotents orthogonal (prod (x - mu) divides the product of any two),
    with sum 1 and sum mu * e_mu = b; so b is normal exactly when each e is
    self-adjoint, and then each e is b's orthogonal eigenprojection for its
    value, or 0, and the kernel 1 - sum p is a projection.  On a normal
    element the certificate fails, raising NumericalError, exactly where
    p = p* = p^2 on every candidate and sum lam * p = x would.  Only a
    failed certificate tests normality (two products per factor), so a
    non-normal element raises DomainError on either route.  A normal one
    whose float candidates cannot be computed (entries beyond float range)
    raises NumericalError.  Epsilon decides float comparisons only, so no
    exact decomposition depends on it.  Float elements go through Hermitian
    eigensolvers with 2*eps eigenvalue clustering; eigenvalues that chain
    into a cluster wider than 2*eps raise NumericalError.

    An exact input equal to one decomposed before returns the form built
    and checked then (at most 256 are kept); an input that raised raises
    again.  Float inputs are not kept.
    """
    if x.is_exact():
        return _spectral_decompose_exact(x)
    return _spectral_decompose_float(x)


def _spectral_decompose_float(x):
    if not is_normal(x):
        raise DomainError(_NOT_NORMAL)
    dims = x.algebra.ambient_dims(x.amplification)
    found = [(f, v, p) for f, b in enumerate(x.blocks)
             for v, p in zip(*_float_eigensystem(b))]
    pairs = []
    for idx in _cluster([v for _, v, _ in found], 2 * get_epsilon()):
        blocks = [la.zeros(d, d, exact=False) for d in dims]
        for f, _, p in (found[i] for i in idx):
            blocks[f] = la.mat_add(blocks[f], p)
        rep = complex(np.mean([found[i][1] for i in idx]))
        proj = AlgebraElement._trusted(x.algebra, x.amplification, tuple(blocks))
        pairs.append((rep, Projection(proj)))
    return SpectralForm.from_pairs(x.algebra, x.amplification, pairs)


def _lagrange_idempotents(b, values):
    """{lam: prod_{mu != lam} (b - mu) / (lam - mu)} over one factor's values.

    Each difference b - mu is formed once, mu written on the diagonal; each
    product stays unscaled until one multiplication by the scalar
    prod (lam - mu)^-1.  The Lagrange products sum to 1 for every b, so the
    last value's is 1 minus the others.  The certificate prod_mu (b - mu),
    lam_0's product times b - lam_0, must be zero, else None.
    """
    n = b.shape[0]
    shifted = {mu: la.mat_sub(b, la.scalar_matrix(mu, n)) for mu in values}
    out, certificate = {}, shifted[values[0]]
    for i, lam in enumerate(values[:-1]):
        others = [mu for mu in values if mu != lam]
        prod = reduce(la.mat_mul, (shifted[mu] for mu in others))
        if i == 0:
            certificate = la.mat_mul(certificate, prod)
        denom = reduce(operator.mul, (lam - mu for mu in others))
        out[lam] = la.scalar_mul(denom.inverse(), prod)
    out[values[-1]] = reduce(la.mat_sub, out.values(), la.identity(n))
    if not la.is_zero_matrix(certificate):
        return None
    return out


@functools.lru_cache(maxsize=256)
def _spectral_decompose_exact(x):
    """Cached on x alone: no step reads epsilon.  The certificate and
    e = e* are the only checks; the form is trusted."""
    try:
        zs = [np.linalg.eigvals(la.to_numpy(b)) for b in x.blocks]
        # each factor's distinct snapped candidates, by first appearance: 0
        # and roots of unity first where every value snaps to one, if their
        # orders over all factors have an lcm <= 24; else Gaussian rationals
        roots = [[_snap_root(z) for z in zf] for zf in zs]
        tries = [[list(dict.fromkeys(map(_snap_gaussian, z)))] for z in zs]
        if math.lcm(*(q for rs in roots if all(rs) for _, q in rs)) <= _ROOT_ORDER:
            for t, rs in zip(tries, roots):
                if all(rs) and (r := list(dict.fromkeys(w for w, _ in rs))) != t[0]:
                    t.insert(0, r)
        local, idempotents = [], []
        for b, t in zip(x.blocks, tries):
            for values in t:
                if (idem := _lagrange_idempotents(b, values)) is not None:
                    break
            local.append(values)  # then all values, by first appearance
            idempotents.append(idem)
        if None in idempotents:
            raise NumericalError(
                f"factor {idempotents.index(None)}: prod (b - mu) is not zero "
                "over its snapped candidates mu, Gaussian rationals or 0 and "
                f"roots of unity of common order <= {_ROOT_ORDER}; use the "
                "float backend or provide the element as a spectral form")
    except (NumericalError, ArithmeticError, ValueError) as exc:
        # an uncertified factor, a float overflow or a failed eigensolver:
        # a non-normal input is named as such whatever stopped it
        if not is_normal(x):
            raise DomainError(_NOT_NORMAL) from None
        if isinstance(exc, NumericalError):
            raise
        raise NumericalError("eigenvalue candidates cannot be computed in "
                             f"floating point ({type(exc).__name__})") from None
    # certified idempotents are orthogonal and sum to 1: b = sum mu * e_mu
    # is normal exactly when every e_mu is self-adjoint
    for idem in idempotents:
        if any(not la.mat_equal(e, la.conj_transpose(e)) for e in idem.values()):
            raise DomainError(_NOT_NORMAL)
    pairs = []  # as from_pairs keeps them: nonzero values and projections
    for lam in dict.fromkeys(z for values in local for z in values):
        blocks = tuple(idem[lam] if lam in idem else la.zeros(*b.shape)
                       for idem, b in zip(idempotents, x.blocks))
        if not (lam.is_zero() or all(map(la.is_zero_matrix, blocks))):
            pairs.append((lam, Projection._trusted(AlgebraElement._trusted(
                x.algebra, x.amplification, blocks))))
    return SpectralForm._trusted(x.algebra, x.amplification, pairs)


def spectral_projection(a: SpectralForm, e: BorelSetModel) -> Projection:
    """P_a(E): the sum of eigenprojections whose eigenvalue lies in E."""
    # a sum of the form's pairwise orthogonal projections
    return Projection._trusted(a._sum((1, p.element) for v, p in a.pairs
                                      if e.contains(v)))


# ---------------------------------------------------------------------------
# *-homomorphisms

@dataclass(frozen=True)
class StarHomomorphism:
    """Unital *-homomorphism given by Bratteli multiplicities and unitaries.

    ``multiplicities[i][j]`` counts the copies of source factor j inside
    target factor i; ``unitaries`` optionally conjugates each target block.
    """

    source: MultiMatrixAlgebra
    target: MultiMatrixAlgebra
    multiplicities: tuple
    unitaries: tuple | None = None

    def __post_init__(self):
        mult = tuple(tuple(int(m) for m in row) for row in self.multiplicities)
        if len(mult) != self.target.num_factors or any(
                len(row) != self.source.num_factors for row in mult):
            raise ValidationError("multiplicity matrix has wrong shape")
        if any(m < 0 for row in mult for m in row):
            raise ValidationError("negative multiplicity")
        for i, row in enumerate(mult):
            total = sum(m * r for m, r in zip(row, self.source.block_dims))
            if total != self.target.block_dims[i]:
                raise ValidationError(
                    f"homomorphism is not unital on target factor {i}")
        object.__setattr__(self, "multiplicities", mult)
        if self.unitaries is not None:
            us = tuple(la.as_matrix(u) for u in self.unitaries)
            adjoints = tuple(map(la.conj_transpose, us))
            for u, u_star, d in zip(us, adjoints, self.target.block_dims):
                if u.shape != (d, d):
                    raise ValidationError("embedding unitary has wrong size")
                if not la.mat_equal(la.mat_mul(u, u_star),
                                    la.identity(d, type(u) is la.ExactMatrix)):
                    raise ValidationError("embedding matrix is not unitary")
            object.__setattr__(self, "unitaries", us)
            # kept for apply_hom, outside the fields: equality and hashing
            # ignore it
            object.__setattr__(self, "_adjoints", adjoints)


def apply_hom(phi: StarHomomorphism, x: AlgebraElement) -> AlgebraElement:
    """Entrywise application of phi to an element of M_m(source).  The image
    is kept on x, outside the fields, per homomorphism object: the same phi
    gets it again, an equal phi that is another object builds its own."""
    if x.algebra != phi.source:
        raise ValidationError("element is not over the homomorphism source")
    images = x.__dict__.setdefault("_images", {})  # id(phi): (phi, image)
    if images.get(id(phi), (None,))[0] is phi:
        return images[id(phi)][1]
    m = x.amplification
    out_blocks = []
    for i in range(phi.target.num_factors):
        u = phi.unitaries[i] if phi.unitaries is not None else None
        u_star = phi._adjoints[i] if u is not None else None
        grid = []
        for s in range(m):
            row = []
            for t in range(m):
                # unital, so the copies fill the target block exactly
                sub = la.block_diag(*(
                    la.grid_cell(x.blocks[j], rj, s, t)
                    for j, rj in enumerate(phi.source.block_dims)
                    for _ in range(phi.multiplicities[i][j])))
                if u is not None:
                    sub = la.mat_mul(la.mat_mul(u, sub), u_star)
                row.append(sub)
            grid.append(row)
        out_blocks.append(la.block_matrix(grid))
    image = AlgebraElement._trusted(phi.target, m, tuple(out_blocks))
    images[id(phi)] = (phi, image)  # phi is held, so its id is not reused
    return image


def check_hom_spectral_commute(phi: StarHomomorphism, a: SpectralForm,
                               e: BorelSetModel) -> bool:
    """Does taking spectral projections commute with applying phi?"""
    lhs = spectral_projection(spectral_decompose(apply_hom(phi, a.element())), e)
    rhs = apply_hom(phi, spectral_projection(a, e).element)
    return lhs.element.equals(rhs)
