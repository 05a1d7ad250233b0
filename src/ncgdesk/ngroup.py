"""K0 and N0 groups of multi-matrix algebras.

Equivalence classes of normal elements are finitely supported maps from
nonzero spectral values to integer rank vectors; all group arithmetic
happens on those supports.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
    _merge_values,
)
from .errors import ValidationError
from .scalars import is_exact_scalar, scalar_is_zero, scalars_equal, sort_key


@dataclass(frozen=True)
class K0Class:
    """Formal difference of projections, recorded as per-factor ranks."""

    ranks: tuple

    def __post_init__(self):
        ranks = tuple(self.ranks)
        if any(isinstance(r, bool) or not isinstance(r, numbers.Rational)
               or r.denominator != 1 for r in ranks):
            raise ValidationError(f"K0 ranks must be integers, got {ranks!r}")
        object.__setattr__(self, "ranks", tuple(map(int, ranks)))

    def __add__(self, other):
        if len(self.ranks) != len(other.ranks):
            raise ValidationError("K0 classes over different algebras")
        return K0Class(tuple(a + b for a, b in zip(self.ranks, other.ranks)))

    def __neg__(self):
        return K0Class(tuple(-a for a in self.ranks))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)


@dataclass(frozen=True)
class N0Class:
    """Finitely supported map from nonzero spectral values to K0 classes."""

    algebra: MultiMatrixAlgebra
    support: tuple  # ((value, K0Class), ...)

    def __post_init__(self):
        k = self.algebra.num_factors
        support = []
        for value, cls in self.support:
            if not isinstance(cls, K0Class):
                cls = K0Class(tuple(cls))
            if len(cls.ranks) != k:
                raise ValidationError("K0 class length does not match algebra")
            if scalar_is_zero(value):
                raise ValidationError("N0 support keys must be nonzero")
            support.append((value, cls))
        merged = ((v, sum(cs[1:], cs[0])) for v, cs in _merge_values(support))
        object.__setattr__(self, "support", tuple(sorted(
            ((v, c) for v, c in merged if not c.is_zero()),
            key=lambda kv: sort_key(kv[0]))))

    @classmethod
    def _trusted(cls, algebra, support: tuple) -> "N0Class":
        """A support that is canonical by construction: distinct nonzero
        values in ``sort_key`` order, each with a nonzero K0Class."""
        out = object.__new__(cls)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "support", support)
        return out

    @staticmethod
    def zero(algebra):
        return N0Class(algebra, ())

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other):
        if self.algebra != other.algebra:
            raise ValidationError("N0 classes over different algebras")
        return N0Class(self.algebra, self.support + other.support)

    def __neg__(self):
        return N0Class(self.algebra, tuple((v, -c) for v, c in self.support))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        """p - q is the zero class: for exact keys, which merge by equality,
        equal supports as maps, with no difference built.  Symmetric, but
        with float keys not transitive: {1} == {1 + 1.5 eps} == {1 + 3 eps}
        != {1}."""
        if not isinstance(other, N0Class) or self.algebra != other.algebra:
            return NotImplemented
        if all(is_exact_scalar(v) for v, _ in self.support + other.support):
            return dict(self.support) == dict(other.support)
        return (self - other).is_zero()

    def __hash__(self):
        # merging keeps the summed ranks, and equal classes have equal sums
        zero = K0Class((0,) * self.algebra.num_factors)
        return hash((self.algebra, sum((c for _, c in self.support), zero)))


def n_class(a: SpectralForm) -> N0Class:
    """The N0 class of a normal element: lambda -> [P_a({lambda})], read
    off the form, whose values are already distinct, nonzero and sorted;
    a zero projection, which ``SpectralForm(...)`` accepts, is dropped."""
    support = []
    for v, p in a.pairs:
        ranks = p.rank_vector()
        if any(ranks):
            cls = object.__new__(K0Class)
            object.__setattr__(cls, "ranks", ranks)
            support.append((v, cls))
    return N0Class._trusted(a.algebra, tuple(support))


@dataclass(frozen=True)
class K0TensorC:
    """Element of K0(A) tensor C in the per-factor rank basis."""

    coeffs: tuple

    def _pairs(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise ValidationError("K0 tensor C elements over different algebras")
        return zip(self.coeffs, other.coeffs)

    def __add__(self, other):
        return K0TensorC(tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other):
        return K0TensorC(tuple(a - b for a, b in self._pairs(other)))

    def __eq__(self, other):
        if not isinstance(other, K0TensorC):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(scalars_equal(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(len(self.coeffs))

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.coeffs)


def h_map(x: N0Class) -> K0TensorC:
    """Collapse an N0 class to K0(A) tensor C: sum of value * ranks."""
    k = x.algebra.num_factors
    coeffs = [Fraction(0)] * k
    for v, cls in x.support:
        for i, r in enumerate(cls.ranks):
            if r:
                coeffs[i] = coeffs[i] + v * r
    return K0TensorC(tuple(coeffs))


def generator_h(lam, mu, p: Projection) -> N0Class:
    """[(lam+mu) p] - [lam p + mu p] as an N0 class."""
    plus = n_class(SpectralForm.scaled_projection(lam + mu, p))
    split = n_class(SpectralForm.scaled_projection(lam, p).direct_sum(
        SpectralForm.scaled_projection(mu, p)))
    return plus - split


def generator_g(n: int, lam, p: Projection) -> N0Class:
    """[lam p^(n-fold sum)] - [(n lam) p] as an N0 class."""
    if n < 1:
        raise ValidationError("generator index must be positive")
    stacked = p
    for _ in range(n - 1):
        stacked = stacked.direct_sum(p)
    first = n_class(SpectralForm.scaled_projection(lam, stacked))
    second = n_class(SpectralForm.scaled_projection(n * lam, p))
    return first - second


def reduce_g_to_h(n: int, lam, p: Projection):
    """Write the n-th stacking generator as a signed sum of pair generators.

    Unrolling the induction g^(n) = g^(n-1) - h_{(n-1)lam, lam; p} gives a
    list of n-1 (sign, lam, mu, p) tuples, each sign -1.
    """
    if n < 1:
        raise ValidationError("generator index must be positive")
    return [(-1, k * lam, lam, p) for k in range(1, n)]


def evaluate_h_list(algebra, gens) -> N0Class:
    """The sum of sign * h_{lam, mu; p} over the (sign, lam, mu, p) tuples."""
    acc = N0Class.zero(algebra)
    for sign, lam, mu, p in gens:
        h = generator_h(lam, mu, p)
        acc = acc + (h if sign > 0 else -h)
    return acc


def t_map(v: K0TensorC, algebra: MultiMatrixAlgebra) -> N0Class:
    """Canonical coset representative splitting h: c_i goes to c_i times
    the unit rank vector of factor i (the class of a rank-one projection)."""
    k = algebra.num_factors
    if len(v.coeffs) != k:
        raise ValidationError(
            f"t_map needs one coefficient per factor: {k}, got {len(v.coeffs)}")
    return N0Class(algebra, tuple(
        (c, K0Class(tuple(int(j == i) for j in range(k))))
        for i, c in enumerate(v.coeffs) if not scalar_is_zero(c)))


def functorial_map(phi: StarHomomorphism, x: N0Class) -> N0Class:
    """Push an N0 class through a *-homomorphism via its multiplicity matrix."""
    if x.algebra != phi.source:
        raise ValidationError("class is not over the homomorphism source")
    support = []
    for v, cls in x.support:
        pushed = tuple(sum(m * r for m, r in zip(row, cls.ranks))
                       for row in phi.multiplicities)
        support.append((v, K0Class(pushed)))
    return N0Class(phi.target, tuple(support))
