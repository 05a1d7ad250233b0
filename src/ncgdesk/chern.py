"""Chern character on projections and its extension to normal elements.

The extension T is computed two ways: directly from the spectral form, and
as the limit over refining dyadic square covers of the spectrum, which is
the class of the first cover whose cells each isolate one spectral point
(every finer cover has the same cells and tags).  That depth is found on
the cell keys floor(x * 2^n) of the points' :func:`~ncgdesk.scalars.real_imag`
parts, integer for exact Gaussian points, and cover points are ordered by
:func:`~ncgdesk.scalars.sort_key`.  Both must agree, and the mixed-tensor
obstruction eta is checked to vanish.

Classes are read by the trace cocycles of :mod:`ncgdesk.cyclic`, building
no homology space and no matrix-unit tensor: sum of c * p x ... x p stays
a ``DecompositionRep``, phi_f of a summand is tr_f(p^(2l+1)), and its
cycle check sees b(p^(2l+1)) = p^(2l) die in odd degree since p^2 = p.
The obstruction eta = (sum p_j)^(2l+1) - sum p_j^(2l+1) is such a sum,
with coefficients 1, -1, ..., -1; only its witness route expands it.
Each distinct set of terms is read once, and charged on every call.
The generalized character needs no tensor: rank vector r has phi_f = r_f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiMatrixAlgebra, Projection, SpectralForm
from .cyclic import (DecompositionRep, HCClass, charge_read, hc_class,
                     is_boundary, read_class, zero_class)
from .errors import DomainError, NumericalError, ValidationError
from .ngroup import K0TensorC, N0Class, h_map
from .scalars import get_epsilon, real_imag, scalar_is_zero, sort_key


def _degree(l: int) -> int:
    if l < 0:
        raise ValidationError("degree parameter l must be >= 0")
    return 2 * l


def _power_class(algebra: MultiMatrixAlgebra, terms, l: int) -> HCClass:
    """Class in HC_2l(A) of sum c * Tr(p^tensor(2l+1)) over (c, p) in terms,
    read from the factored tensor, charged before its 2l+1 factors exist,
    hit or miss.  The read is keyed by the coefficients' types too (1 and
    1.0 are equal keys, yet a float one reads a float class) and epsilon
    (a float cycle check reads it)."""
    n = _degree(l)
    if not terms:
        return zero_class(algebra, n)
    charge_read(algebra, terms[0][1].amplification, n, len(terms))
    return _read_terms(tuple(terms), tuple(type(c) for c, _ in terms), l,
                       get_epsilon())


@functools.lru_cache(maxsize=256)
def _read_terms(terms: tuple, types: tuple, l: int, epsilon) -> HCClass:
    return hc_class(DecompositionRep(
        tuple((p.element,) * (2 * l + 1) for _, p in terms),
        tuple(c for c, _ in terms)))


def chern_projection(p: Projection, l: int) -> HCClass:
    """Class of (-1)^l Tr(p tensor ... tensor p), 2l+1 factors, in HC_2l(A)."""
    return _power_class(p.algebra, [((-1) ** l, p)], l)


@functools.lru_cache(maxsize=256)
def _unit_class(algebra: MultiMatrixAlgebra, i: int, l: int) -> HCClass:
    """``chern_projection`` of the diagonal unit e_i, built once per
    (algebra, i, l); a hit builds nothing and is charged nothing, and a
    ResourceError is raised again on the next call (it is not cached)."""
    return chern_projection(Projection.diagonal_unit(algebra, i), l)


def k0c_chern(v: K0TensorC, algebra: MultiMatrixAlgebra, l: int) -> HCClass:
    """Chern character on K0(A) x C: sum of v_i ch_l(e_i) over the factors,
    e_i the diagonal units; a zero coefficient reads no class."""
    out = zero_class(algebra, _degree(l))
    for i, coeff in enumerate(v.coeffs):
        if not scalar_is_zero(coeff):
            out = out + _unit_class(algebra, i, l).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# dyadic covers

@dataclass(frozen=True)
class CoverCell:
    """Half-open dyadic square [corner, corner + side)^2 with a tag point."""

    level: int
    corner: tuple  # (Fraction re, Fraction im)
    points: tuple  # spectrum points inside the cell
    tag: object


def _cell_key(re, im, level: int, den=None) -> tuple:
    """The level-n cell (floor(re * 2^n), floor(im * 2^n)), of a float on
    its exact ratio (re * 2^n may overflow); for integer numerators over
    ``den``, (num << n) // den is floor(num / den * 2^n)."""
    if den is None:
        return tuple(math.floor(Fraction(t) * 2 ** level) for t in (re, im))
    return (re << level) // den, (im << level) // den


def _cover_cells(points, level: int, policy: str):
    """Level-n cells of (z, re, im, den) points; each cell keeps their order."""
    buckets = {}
    for z, re, im, den in points:
        buckets.setdefault(_cell_key(re, im, level, den), []).append(z)
    side = Fraction(1, 2 ** level)
    return [CoverCell(level, (i * side, j * side), tuple(pts),
                      pts[0] if policy == "smallest" else pts[-1])
            for (i, j), pts in sorted(buckets.items())]


def _check_policy(policy: str):
    if policy not in ("smallest", "largest"):
        raise ValidationError(f"unknown tag policy {policy!r}")


def dyadic_cover(spectrum, level: int, policy: str = "smallest"):
    """Level-n dyadic squares meeting the spectrum, each with a tag point:
    the least or greatest of its points by ``sort_key``."""
    if level < 0:
        raise ValidationError("cover level must be >= 0")
    _check_policy(policy)
    return _cover_cells([(z, *real_imag(z)) for z in
                         sorted(spectrum, key=sort_key)], level, policy)


# ---------------------------------------------------------------------------
# the mixed-tensor obstruction

def _eta_rep(ps, l: int) -> DecompositionRep:
    """(sum p_j)^(2l+1) - sum p_j^(2l+1), factored: coefficients 1, -1, ..."""
    if not ps:
        raise DomainError("need at least one projection")
    if any(not p.orthogonal_to(q)
           for i, p in enumerate(ps) for q in ps[i + 1:]):
        raise DomainError("projections are not pairwise orthogonal")
    xs = [p.element for p in ps]
    return DecompositionRep(tuple((x,) * (2 * l + 1)
                                  for x in [sum(xs[1:], xs[0])] + xs),
                            (1,) + (-1,) * len(ps))


@dataclass(frozen=True)
class EtaReport:
    trivial: bool
    is_cycle: bool
    trace_class_zero: bool
    witness_found: bool | None

    @property
    def ok(self) -> bool:
        return self.trivial or (
            self.is_cycle and self.trace_class_zero
            and self.witness_found is not False)


def verify_eta_vanishes(ps, l: int, witness: bool = False) -> EtaReport:
    """Check the obstruction is a cycle with zero class (read in HC(A)
    through the trace).  It is zero exactly when at most one p_j is nonzero:
    cross terms of nonzero orthogonal projections are independent.  With
    ``witness`` a boundary preimage is solved for in the amplified complex.
    """
    ps = list(ps)
    rep = _eta_rep(ps, l)
    if sum(not p.element.is_zero() for p in ps) <= 1:
        return EtaReport(True, True, True, True if witness else None)
    try:
        traced_zero = hc_class(rep).is_zero()
    except DomainError:  # not a cycle
        return EtaReport(False, False, False, False if witness else None)
    found = is_boundary(rep.expand()) is not None if witness else None
    return EtaReport(False, True, traced_zero, found)


# ---------------------------------------------------------------------------
# the extension T and the generalized character

def T_direct(a: SpectralForm, l: int) -> HCClass:
    """Sum over spectrum of lambda * class(Tr(P^(2l+1)))."""
    return _power_class(a.algebra, a.pairs, l)


def T_cover(a: SpectralForm, l: int, max_depth: int = 12,
            policy: str = "smallest") -> HCClass:
    """T by dyadic refinement of spectral covers, read at the first depth
    up to ``max_depth`` whose cover gives every spectral point its own cell.

    A cover's class is the sum of tag * class(merged projection) over its
    cells.  Once each cell holds one point, its tag is that point and its
    merged projection is that point's eigenprojection, and every finer
    cover has the same cells and tags: the first separated cover's class
    is the limit, and its terms are the form's pairs.  So the depth is
    found on the points' cell keys, no cover is built, and the read is
    the one T_direct memoized (charged again); ``policy`` does not enter
    it.  An empty spectrum separates at depth 0.
    """
    if max_depth < 0:
        raise ValidationError("cover depth must be >= 0")
    _check_policy(policy)
    points = [real_imag(z) for z in a.eigenvalues()]
    for depth in range(max_depth + 1):
        if len({_cell_key(re, im, depth, den)
                for re, im, den in points}) == len(points):
            return _power_class(a.algebra, a.pairs, l)
    raise NumericalError(
        f"cover refinement did not separate the spectrum by depth {max_depth}")


def generalized_chern(x: N0Class, l: int) -> HCClass:
    """(-1)^l sum over support of lambda * (rank-determined Chern class).

    A projection of rank vector r has phi_f(p, ..., p) = tr_f(p) = r_f, so
    the class is read from phi_f = sum of lambda * r_f.
    """
    n = _degree(l)
    phi = [0] * x.algebra.num_factors
    for value, cls in x.support:
        for i, r in enumerate(cls.ranks):
            phi[i] += (-1) ** l * value * r
    return read_class(n, phi)


def verify_th7(p: Projection, l: int) -> bool:
    """Restriction to projection classes recovers the projection character."""
    ranks = p.rank_vector()
    x = N0Class(p.algebra, ((Fraction(1), ranks),)) \
        if any(ranks) else N0Class.zero(p.algebra)
    lhs = generalized_chern(x, l)
    rhs = chern_projection(p, l)  # composed with the identity comparison map
    return lhs == rhs


def verify_th8(x: N0Class, l: int) -> bool:
    """The generalized character factors through the collapse to K0 x C."""
    return generalized_chern(x, l) == k0c_chern(h_map(x), x.algebra, l)
