"""Cyclic chain complex of a multi-matrix algebra and its homology.

Tensors over M_m(A) are sparse linear combinations of matrix-unit tuples.
The quotient by the image of (1 - cyclic operator) is realized by orbit
canonicalization: each basis tuple is replaced by the lexicographically
smallest rotation, carrying the accumulated sign; orbits whose stabilizer
flips the sign die in the quotient.  Homology comes from sparse exact
Gaussian elimination with combination tracking, which also yields boundary
witnesses and canonical quotient coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .algebra import AlgebraElement, MultiMatrixAlgebra
from .budget import check_budget
from .errors import DomainError, ValidationError
from .scalars import is_exact_scalar, scalar_is_zero, scalars_equal, to_complex

# A basis unit of M_m(A) is (factor index j, row a, col b) with a, b < m*r_j.
Unit = tuple


def _unit_mul(u: Unit, v: Unit):
    """Product of two matrix units: another unit, or None when it vanishes."""
    j, a, b = u
    j2, c, d = v
    if j != j2 or b != c:
        return None
    return (j, a, d)


class TensorElement:
    """Sparse element of C_n(M_m(A)) = M_m(A)^tensor(n+1)."""

    __slots__ = ("algebra", "amplification", "degree", "coeffs")

    def __init__(self, algebra: MultiMatrixAlgebra, amplification: int,
                 degree: int, coeffs: dict):
        if degree < 0:
            raise ValidationError("tensor degree must be >= 0")
        dims = algebra.ambient_dims(amplification)
        clean = {}
        for key, c in coeffs.items():
            key = tuple(tuple(u) for u in key)
            if len(key) != degree + 1:
                raise ValidationError("index tuple length does not match degree")
            for j, a, b in key:
                if not (0 <= j < algebra.num_factors
                        and 0 <= a < dims[j] and 0 <= b < dims[j]):
                    raise ValidationError(f"unit index {(j, a, b)} out of range")
            if scalar_is_zero(c):
                continue
            if key in clean:
                c = clean[key] + c
                if scalar_is_zero(c):
                    del clean[key]
                    continue
            clean[key] = c
        self.algebra = algebra
        self.amplification = amplification
        self.degree = degree
        self.coeffs = clean

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(algebra, m: int, degree: int) -> "TensorElement":
        return TensorElement(algebra, m, degree, {})

    @staticmethod
    def basis(algebra, m: int, key) -> "TensorElement":
        return TensorElement(algebra, m, len(key) - 1, {tuple(key): Fraction(1)})

    @staticmethod
    def from_summand(elements) -> "TensorElement":
        """Expand x_0 tensor ... tensor x_n into the sparse unit basis."""
        elements = tuple(elements)
        if not elements:
            raise ValidationError("empty tensor summand")
        first = elements[0]
        per_factor = []
        for x in elements:
            if x.algebra != first.algebra or x.amplification != first.amplification:
                raise ValidationError("tensor factors over different algebras")
            entries = []
            for j, block in enumerate(x.blocks):
                for a, row in enumerate(la.entries(block)):
                    for b, c in enumerate(row):
                        if not scalar_is_zero(c):
                            entries.append(((j, a, b), c))
            per_factor.append(entries)
        coeffs = {}
        for combo in itertools.product(*per_factor):
            key = tuple(u for u, _ in combo)
            c = combo[0][1]
            for _, cc in combo[1:]:
                c = c * cc
            coeffs[key] = coeffs.get(key, 0) + c if key in coeffs else c
        return TensorElement(first.algebra, first.amplification,
                             len(elements) - 1, coeffs)

    # -- linear structure ---------------------------------------------------
    def _check(self, other):
        if (self.algebra != other.algebra
                or self.amplification != other.amplification
                or self.degree != other.degree):
            raise ValidationError("tensor space mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TensorElement(self.algebra, self.amplification, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "TensorElement":
        return TensorElement(self.algebra, self.amplification, self.degree,
                             {k: c * v for k, v in self.coeffs.items()})

    def is_zero(self, eps=None) -> bool:
        return all(scalar_is_zero(c, eps) for c in self.coeffs.values())

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs.values())

    def equals(self, other, eps=None) -> bool:
        try:
            self._check(other)
        except ValidationError:
            return False
        return (self - other).is_zero(eps)

    def __repr__(self):
        return (f"TensorElement(degree={self.degree}, "
                f"terms={len(self.coeffs)})")


def cyclic_op(xi: TensorElement) -> TensorElement:
    """tau_n: a_0 x...x a_n -> (-1)^n a_n x a_0 x...x a_{n-1}, extended linearly."""
    n = xi.degree
    sign = -1 if n % 2 else 1
    out = {}
    for key, c in xi.coeffs.items():
        rk = key[-1:] + key[:-1]
        out[rk] = out.get(rk, 0) + sign * c
    return TensorElement(xi.algebra, xi.amplification, n, out)


def face_op(xi: TensorElement) -> TensorElement:
    """b_n = sum of signed multiplications of adjacent factors (last wraps)."""
    n = xi.degree
    if n < 1:
        raise DomainError("face operator needs degree >= 1")
    out = {}
    for key, c in xi.coeffs.items():
        for i in range(n + 1):
            if i < n:
                u = _unit_mul(key[i], key[i + 1])
                if u is None:
                    continue
                nk = key[:i] + (u,) + key[i + 2:]
            else:
                u = _unit_mul(key[n], key[0])
                if u is None:
                    continue
                nk = (u,) + key[1:n]
            s = c if i % 2 == 0 else -c
            out[nk] = out.get(nk, 0) + s
    return TensorElement(xi.algebra, xi.amplification, n - 1, out)


# ---------------------------------------------------------------------------
# cyclic-orbit canonicalization (the CC quotient)

def _cc_canonical(key, n):
    """(canonical rotation, sign) for a basis tuple; sign 0 when the orbit dies.

    Rotating by k applies tau k times and multiplies by (-1)^(n*k); a
    rotation fixing the tuple with sign -1 forces the class to zero.
    """
    best = key
    best_k = 0
    for k in range(1, n + 1):
        rot = key[-k:] + key[:-k]
        if rot < best:
            best, best_k = rot, k
    sign = 1 if (n * best_k) % 2 == 0 else -1
    if n % 2:
        # only odd degrees can produce sign-flipping stabilizers
        for k in range(1, n + 1):
            if k != best_k and key[-k:] + key[:-k] == best \
                    and (n * k) % 2 != (n * best_k) % 2:
                return best, 0
    return best, sign


def cc_reduce(xi: TensorElement) -> dict:
    """Coordinates of the class of xi in CC_n, keyed by canonical tuples."""
    n = xi.degree
    out = {}
    for key, c in xi.coeffs.items():
        rep, sign = _cc_canonical(key, n)
        if sign == 0:
            continue
        acc = out.get(rep, 0) + sign * c
        if scalar_is_zero(acc) and is_exact_scalar(acc):
            out.pop(rep, None)
        else:
            out[rep] = acc
    return {k: v for k, v in out.items() if not (is_exact_scalar(v) and scalar_is_zero(v))}


@dataclass(frozen=True)
class CyclicSpace:
    """Basis of CC_n(M_m(A)) by canonical cyclic-orbit representatives."""

    algebra: MultiMatrixAlgebra
    amplification: int
    degree: int
    basis: tuple
    index: dict

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates(self, xi: TensorElement) -> dict:
        """Sparse CC coordinates {basis position: coefficient}."""
        if (xi.algebra != self.algebra
                or xi.amplification != self.amplification
                or xi.degree != self.degree):
            raise ValidationError("tensor does not live in this space")
        return {self.index[k]: c for k, c in cc_reduce(xi).items()}


_CYCLIC_CACHE: dict = {}


def _all_units(algebra, m):
    units = []
    for j, d in enumerate(algebra.ambient_dims(m)):
        units.extend((j, a, b) for a in range(d) for b in range(d))
    return units


def build_cyclic_space(algebra: MultiMatrixAlgebra, n: int,
                       amplification: int = 1) -> CyclicSpace:
    key = (algebra.block_dims, amplification, n)
    cached = _CYCLIC_CACHE.get(key)
    if cached is not None:
        return cached
    dim = algebra.dimension(amplification)
    check_budget(dim ** (n + 1), f"CC basis at degree {n}")
    units = _all_units(algebra, amplification)
    basis = []
    for key_tuple in itertools.product(units, repeat=n + 1):
        rep, sign = _cc_canonical(key_tuple, n)
        if rep == key_tuple and sign == 1:
            basis.append(key_tuple)
    basis.sort()
    space = CyclicSpace(algebra, amplification, n, tuple(basis),
                        {k: i for i, k in enumerate(basis)})
    _CYCLIC_CACHE[key] = space
    return space


# ---------------------------------------------------------------------------
# sparse exact elimination with combination tracking

class _SparseReducer:
    """Incremental row space in echelon form over sparse {index: scalar} rows.

    Each stored row has a pivot (its smallest index) normalized to 1; rows
    may overlap on non-pivot indices, which still yields canonical residues
    because any row-space element has a pivot as smallest index.  When
    ``track`` is set, each row remembers its expression in the originally
    inserted vectors, so reductions can report preimage combinations.
    """

    def __init__(self, track: bool = False):
        self.rows = {}  # pivot index -> row dict
        self.combos = {} if track else None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, want_combo: bool = False):
        vec = {k: v for k, v in vec.items() if not scalar_is_zero(v)}
        combo = {} if want_combo else None
        while True:
            candidates = [k for k in vec if k in self.rows]
            if not candidates:
                break
            hit = min(candidates)
            f = vec[hit]
            row = self.rows[hit]
            for k, v in row.items():
                acc = vec.get(k, 0) - f * v
                if is_exact_scalar(acc) and scalar_is_zero(acc):
                    vec.pop(k, None)
                else:
                    vec[k] = acc
            vec.pop(hit, None)
            vec = {k: v for k, v in vec.items() if not scalar_is_zero(v)}
            if want_combo:
                for cid, cv in self.combos[hit].items():
                    combo[cid] = combo.get(cid, 0) + f * cv
        if want_combo:
            combo = {k: v for k, v in combo.items() if not scalar_is_zero(v)}
            return vec, combo
        return vec

    def insert(self, vec: dict, tag=None) -> bool:
        """Add a vector; returns True when it enlarges the row space."""
        if self.combos is not None:
            vec, combo = self.reduce(vec, want_combo=True)
        else:
            vec = self.reduce(vec)
        if not vec:
            self._last_combo = combo if self.combos is not None else None
            return False
        pivot = min(vec)
        pv = vec[pivot]
        row = {k: v / pv for k, v in vec.items()}
        self.rows[pivot] = row
        if self.combos is not None:
            combo = {k: -v / pv for k, v in combo.items()}
            combo[tag] = combo.get(tag, 0) + 1 / pv if tag in combo else 1 / pv
            self.combos[pivot] = combo
            self._last_combo = None
        return True


# ---------------------------------------------------------------------------
# homology

@dataclass(frozen=True)
class HCClass:
    """Coordinates of a cyclic homology class in a space's quotient basis."""

    degree: int
    coords: tuple

    def __add__(self, other):
        if self.degree != other.degree or len(self.coords) != len(other.coords):
            raise ValidationError("homology class mismatch")
        return HCClass(self.degree, tuple(a + b for a, b in
                                          zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return HCClass(self.degree, tuple(c * x for x in self.coords))

    def is_zero(self, eps=None) -> bool:
        return all(scalar_is_zero(c, eps) for c in self.coords)

    def equals(self, other, eps=None) -> bool:
        return (self.degree == other.degree
                and len(self.coords) == len(other.coords)
                and all(scalars_equal(a, b) if eps is None else
                        abs(to_complex(a) - to_complex(b)) <= eps
                        for a, b in zip(self.coords, other.coords)))

    def __eq__(self, other):
        if not isinstance(other, HCClass):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return hash((self.degree, len(self.coords)))


class HomologySpace:
    """HC_n of an amplified multi-matrix algebra, with solve machinery.

    At finite dimension images are closed, so this space simultaneously
    realizes the Banach variant and the comparison map between them is the
    identity on coordinates.
    """

    def __init__(self, algebra: MultiMatrixAlgebra, n: int,
                 amplification: int = 1):
        self.algebra = algebra
        self.amplification = amplification
        self.degree = n
        self.cc = build_cyclic_space(algebra, n, amplification)
        self.cc_above = build_cyclic_space(algebra, n + 1, amplification)

        # image of the boundary from one degree up, with witness tracking
        self._image = _SparseReducer(track=True)
        for pos, key in enumerate(self.cc_above.basis):
            col = self.cc.coordinates(face_op(
                TensorElement.basis(algebra, amplification, key)))
            self._image.insert(col, tag=pos)

        # kernel of the boundary out of degree n
        kernel = []
        if n == 0:
            kernel = [{i: Fraction(1)} for i in range(self.cc.dimension)]
            rank_b = 0
        else:
            below = build_cyclic_space(algebra, n - 1, amplification)
            red = _SparseReducer(track=True)
            for pos, key in enumerate(self.cc.basis):
                col = below.coordinates(face_op(
                    TensorElement.basis(algebra, amplification, key)))
                if not red.insert(col, tag=pos):
                    vec = {pos: Fraction(1)}
                    for cid, cv in red._last_combo.items():
                        vec[cid] = vec.get(cid, 0) - cv
                    kernel.append({k: v for k, v in vec.items()
                                   if not scalar_is_zero(v)})
            rank_b = red.rank
        self.cycle_basis = kernel
        self.boundary_rank = self._image.rank

        # quotient basis: kernel vectors surviving modulo the image
        self._quotient = _SparseReducer(track=True)
        self.quotient_tags = []
        for i, vec in enumerate(kernel):
            residue = self._image.reduce(dict(vec))
            if self._quotient.insert(residue, tag=i):
                self.quotient_tags.append(i)
        self.dimension = len(self.quotient_tags)
        assert self.dimension == (self.cc.dimension - rank_b) - self.boundary_rank

    # -- queries ------------------------------------------------------------
    def is_cycle(self, xi: TensorElement, eps=None) -> bool:
        if self.degree == 0:
            return True
        return not any(not scalar_is_zero(v, eps)
                       for v in cc_reduce(face_op(xi)).values())

    def hc_class(self, xi: TensorElement) -> HCClass:
        if not self.is_cycle(xi):
            raise DomainError("tensor is not a cycle in CC coordinates")
        residue = self._image.reduce(self.cc.coordinates(xi))
        rest, combo = self._quotient.reduce(residue, want_combo=True)
        if any(not scalar_is_zero(v) for v in rest.values()):
            raise DomainError("cycle does not reduce into the quotient basis")
        # full reduction leaves residue = sum combo[tag] * (inserted kernel
        # residue), so combo is the coordinate vector in the quotient basis
        pos = {t: i for i, t in enumerate(self.quotient_tags)}
        coords = [Fraction(0) if xi.is_exact() else 0j] * self.dimension
        for tag, f in combo.items():
            coords[pos[tag]] = f
        return HCClass(self.degree, tuple(coords))

    def zero_class(self, exact: bool = True) -> HCClass:
        z = Fraction(0) if exact else 0j
        return HCClass(self.degree, (z,) * self.dimension)

    def boundary_witness(self, xi: TensorElement):
        """A preimage of xi under the boundary from one degree up, or None."""
        residue, combo = self._image.reduce(self.cc.coordinates(xi),
                                            want_combo=True)
        if any(not scalar_is_zero(v) for v in residue.values()):
            return None
        out = TensorElement.zero(self.algebra, self.amplification,
                                 self.degree + 1)
        for tag, f in combo.items():
            out = out + TensorElement.basis(
                self.algebra, self.amplification,
                self.cc_above.basis[tag]).scale(f)
        return out


_HC_CACHE: dict = {}


def hc_space(algebra: MultiMatrixAlgebra, n: int,
             amplification: int = 1) -> HomologySpace:
    key = (algebra.block_dims, amplification, n)
    cached = _HC_CACHE.get(key)
    if cached is None:
        cached = HomologySpace(algebra, n, amplification)
        _HC_CACHE[key] = cached
    return cached


def hc_class(xi: TensorElement) -> HCClass:
    return hc_space(xi.algebra, xi.degree, xi.amplification).hc_class(xi)


def is_boundary(xi: TensorElement):
    """Witness tensor eta with b(eta) = xi in CC coordinates, or None."""
    return hc_space(xi.algebra, xi.degree,
                    xi.amplification).boundary_witness(xi)


def hc_dims(algebra: MultiMatrixAlgebra, max_degree: int,
            amplification: int = 1):
    return [hc_space(algebra, n, amplification).dimension
            for n in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# trace map

def trace_map(xi: TensorElement) -> TensorElement:
    """Collapse the amplification by contracting outer indices cyclically.

    A unit of M_m(A) in factor j splits as (outer m x m position, inner
    unit of the j-th block); a pure tensor survives iff the outer indices
    chain around the cycle, leaving the tensor of inner units over A.
    """
    m = xi.amplification
    if m == 1:
        return xi
    dims = xi.algebra.block_dims
    out = {}
    for key, c in xi.coeffs.items():
        ok = True
        inner = []
        outers = []
        for j, a, b in key:
            r = dims[j]
            inner.append((j, a % r, b % r))
            outers.append((a // r, b // r))
        for t in range(len(key)):
            if outers[t][1] != outers[(t + 1) % len(key)][0]:
                ok = False
                break
        if not ok:
            continue
        nk = tuple(inner)
        out[nk] = out.get(nk, 0) + c
    return TensorElement(xi.algebra, 1, xi.degree, out)


# ---------------------------------------------------------------------------
# decomposition representatives and norm bounds

@dataclass(frozen=True)
class DecompositionRep:
    """A sum of elementary tensors with remembered factorizations."""

    summands: tuple  # tuple of tuples of AlgebraElement

    def __post_init__(self):
        if not self.summands:
            raise DomainError("empty decomposition")
        lengths = {len(s) for s in self.summands}
        if len(lengths) != 1 or 0 in lengths:
            raise ValidationError("summands must be nonempty and equal length")

    @property
    def degree(self) -> int:
        return len(self.summands[0]) - 1

    def expand(self) -> TensorElement:
        out = TensorElement.from_summand(self.summands[0])
        for s in self.summands[1:]:
            out = out + TensorElement.from_summand(s)
        return out


def decomposition_norm(rep: DecompositionRep) -> float:
    """Sum over summands of the product of factor operator norms."""
    total = 0.0
    for s in rep.summands:
        prod = 1.0
        for x in s:
            prod *= x.norm()
        total += prod
    return total


def _face_of_rep(rep: DecompositionRep, i: int) -> DecompositionRep:
    n = rep.degree
    if not 0 <= i <= n:
        raise DomainError(f"face index {i} out of range for degree {n}")
    out = []
    for s in rep.summands:
        if i < n:
            out.append(s[:i] + (s[i] * s[i + 1],) + s[i + 2:])
        else:
            out.append((s[n] * s[0],) + s[1:n])
    return DecompositionRep(tuple(out))


def check_face_bound(rep: DecompositionRep, i: int, tol: float = 1e-9) -> bool:
    """Canonical representative of d_i(rep) has norm <= norm(rep)."""
    return decomposition_norm(_face_of_rep(rep, i)) \
        <= decomposition_norm(rep) + tol


def _entry_elements(x: AlgebraElement):
    """The m x m grid of A-valued entries of an element of M_m(A)."""
    m = x.amplification
    grid = [[None] * m for _ in range(m)]
    for s in range(m):
        for t in range(m):
            blocks = tuple(la.grid_cell(x.blocks[j], r, s, t)
                           for j, r in enumerate(x.algebra.block_dims))
            grid[s][t] = AlgebraElement(x.algebra, 1, blocks)
    return grid


def trace_rep(rep: DecompositionRep) -> DecompositionRep:
    """The expanded index-chain representative of the traced tensor."""
    m = rep.summands[0][0].amplification
    n = rep.degree
    out = []
    for s in rep.summands:
        grids = [_entry_elements(x) for x in s]
        for chain in itertools.product(range(m), repeat=n + 1):
            out.append(tuple(grids[t][chain[t]][chain[(t + 1) % (n + 1)]]
                             for t in range(n + 1)))
    return DecompositionRep(tuple(out))


def check_trace_bound(rep: DecompositionRep, tol: float = 1e-9) -> bool:
    """Expanded trace representative obeys the r^(n+1) norm inflation bound."""
    m = rep.summands[0][0].amplification
    bound = float(m) ** (rep.degree + 1) * decomposition_norm(rep)
    return decomposition_norm(trace_rep(rep)) <= bound + tol
