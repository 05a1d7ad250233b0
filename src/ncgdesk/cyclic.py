"""Cyclic chain complex of a multi-matrix algebra and its homology.

Tensors over M_m(A) are sparse linear combinations of matrix-unit tuples.
The quotient by the image of (1 - cyclic operator) is realized by orbit
canonicalization: each basis tuple is replaced by the lexicographically
smallest rotation, carrying the accumulated sign; orbits whose stabilizer
flips the sign die in the quotient.  A basis is enumerated as necklaces,
words that are their own least rotation: the walk extends prenecklaces
letter by letter, carrying the period (Fredricksen-Kessler-Maiorana;
Ruskey, Savage and Wang, J. Algorithms 13, 1992), so it reaches each
orbit once and canonicalizes nothing.  A boundary build canonicalizes
each distinct face once.

A break of a word is a position k where letter k does not chain to letter
k + 1, the last wrapping to the first; faces and rotation keep the number
of breaks.  The break-free words are the closed walks e_{v_0 v_1} x ... x
e_{v_n v_0} of one factor, the only words the generalized trace keeps; it
kills the rest and is injective on HC, so the rest is acyclic (Loday,
Cyclic Homology, 1992, 1.2.1 and 2.2.9).  Only closed walks are enumerated
and eliminated; a witness contracts the broken words by the break
homotopy.  b: CC_n -> CC_{n-1}, on words of integer letters, is eliminated
(:func:`~ncgdesk.scalars.eliminate`) once per (size, n), for its rank, by
rows; a witness eliminates its columns, tagged.

M_m(A) is the sum of the M_{m r_f}, and a closed walk stays in one factor,
so HC of M_m(A) is the sum of theirs: a space is checked, ``hc_dims``
summed and a witness or class solved size by size, each build (letters,
bases, boundaries, spaces) keyed by its block sizes.

HC_2l = C^k has a fixed basis, the classes of e_{f,00} x ... x e_{f,00}
(2l+1 factors), one per factor f, and HC is 0 in odd degree.  The trace
cocycles (Connes, Publ. IHES 62, 1985; Loday, Cyclic Homology, 1992, 1.2
and ch. 8) phi_f(a_0, ..., a_n) = tr_f(a_0 ... a_n), cyclic in even
degree, are its dual basis, so a cycle's coordinates are phi(xi);
``reduced_class``, reduction modulo the boundaries, finds them without
phi.  phi commutes with the generalized trace, so a tensor over M_m(A)
is read in HC(A) directly.  A ``DecompositionRep`` (sum of c * x_0 x ...
x x_n) is read unexpanded: phi_f of a summand is tr_f of one product,
and its cycle check sums the face products by cyclic orbit, expanding
into matrix units only when they do not visibly cancel.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .algebra import AlgebraElement, MultiMatrixAlgebra
from .budget import check_budget, get_budget
from .errors import ConsistencyError, DomainError, ValidationError
from .scalars import (eliminate, get_epsilon, is_exact_scalar,
                      scalar_is_zero, scalars_equal, tagged, tags, to_complex)

# A basis unit of M_m(A) is (factor index j, row a, col b) with a, b < m*r_j.
Unit = tuple


def _unit_mul(u: Unit, v: Unit):
    """Product of two matrix units: another unit, or None when it vanishes."""
    j, a, b = u
    j2, c, d = v
    if j != j2 or b != c:
        return None
    return (j, a, d)


def _nonzero_entries(x: AlgebraElement) -> list:
    """(unit, coefficient) for each nonzero entry of x."""
    return [((j, a, b), c) for j, block in enumerate(x.blocks)
            for a, row in enumerate(la.entries(block))
            for b, c in enumerate(row) if not scalar_is_zero(c)]


class TensorElement:
    """Sparse element of C_n(M_m(A)) = M_m(A)^tensor(n+1)."""

    __slots__ = ("algebra", "amplification", "degree", "coeffs")

    def __init__(self, algebra: MultiMatrixAlgebra, amplification: int,
                 degree: int, coeffs: dict):
        if degree < 0:
            raise ValidationError("tensor degree must be >= 0")
        if amplification < 1:
            raise ValidationError("amplification must be >= 1")
        dims = algebra.ambient_dims(amplification)
        clean = {}
        for key, c in coeffs.items():
            key = tuple(tuple(u) for u in key)
            if len(key) != degree + 1:
                raise ValidationError("index tuple length does not match degree")
            for u in key:
                if len(u) != 3:
                    raise ValidationError(f"unit index {u} is not a "
                                          "(factor, row, column) triple")
                j, a, b = u
                if not (0 <= j < algebra.num_factors
                        and 0 <= a < dims[j] and 0 <= b < dims[j]):
                    raise ValidationError(f"unit index {u} out of range")
            if not scalar_is_zero(c):
                clean[key] = c
        self.algebra = algebra
        self.amplification = amplification
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def _trusted(cls, algebra, amplification: int, degree: int,
                 coeffs: dict) -> "TensorElement":
        """A result built inside the library, whose keys are valid unit
        tuples, each once: only zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.amplification = amplification
        out.degree = degree
        out.coeffs = {k: c for k, c in coeffs.items() if not scalar_is_zero(c)}
        return out

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
        for x in elements:
            if x.algebra != first.algebra or x.amplification != first.amplification:
                raise ValidationError("tensor factors over different algebras")
        coeffs = {tuple(u for u, _ in combo):
                  functools.reduce(operator.mul, (c for _, c in combo))
                  for combo in itertools.product(*map(_nonzero_entries, elements))}
        return TensorElement._trusted(first.algebra, first.amplification,
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
        return TensorElement._trusted(self.algebra, self.amplification,
                                      self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElement":
        return TensorElement._trusted(self.algebra, self.amplification,
                                      self.degree,
                                      {k: c * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return all(map(scalar_is_zero, self.coeffs.values()))

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs.values())

    def equals(self, other) -> bool:
        try:
            self._check(other)
        except ValidationError:
            return False
        return (self - other).is_zero()

    # -- cycles and the trace cocycles ------------------------------------
    def is_cycle(self) -> bool:
        """b xi = 0 in CC_{n-1}, decided on the matrix units."""
        return self.degree == 0 or all(
            map(scalar_is_zero, cc_reduce(face_op(self)).values()))

    def trace_values(self) -> list:
        """(phi_f(xi))_f: e_{a_0 b_0} ... e_{a_n b_n} is a unit e_{a_0 b_n}
        of factor f, or 0, and its trace is 1 when a_0 = b_n."""
        phi = [0] * self.algebra.num_factors
        for key, c in self.coeffs.items():
            u = functools.reduce(lambda u, v: u and _unit_mul(u, v), key)
            if u and u[1] == u[2]:
                phi[u[0]] += c
        return phi

    def __repr__(self):
        return (f"TensorElement(degree={self.degree}, "
                f"terms={len(self.coeffs)})")


def _face(word, i: int, mul):
    """d_i(word): letters i and i + 1 multiplied, the last wrapping around;
    None when the product vanishes (mul returns None)."""
    n = len(word) - 1
    u = mul(word[i], word[(i + 1) % (n + 1)])
    if u is not None:
        return word[:i] + (u,) + word[i + 2:] if i < n else (u,) + word[1:n]


def _face_terms(terms, mul):
    """The terms (d_i(word), (-1)^i c) of b(sum of c * word)."""
    for word, c in terms:
        for i in range(len(word)):
            face = _face(word, i, mul)
            if face is not None:
                yield face, (c if i % 2 == 0 else -c)


def face_op(xi: TensorElement) -> TensorElement:
    """b_n = sum of signed multiplications of adjacent factors (last wraps)."""
    if xi.degree < 1:
        raise DomainError("face operator needs degree >= 1")
    out = {}
    for key, c in _face_terms(xi.coeffs.items(), _unit_mul):
        out[key] = out.get(key, 0) + c
    return TensorElement._trusted(xi.algebra, xi.amplification,
                                  xi.degree - 1, out)


# ---------------------------------------------------------------------------
# cyclic-orbit canonicalization (the CC quotient)

def _cc_canonical(key, n):
    """(canonical rotation, sign) for a basis tuple; sign 0 when the orbit dies.

    Rotating by k applies tau k times and multiplies by (-1)^(n*k); a
    rotation fixing the tuple with sign -1 forces the class to zero.
    """
    twice = key + key  # rots[k] = key[-k:] + key[:-k], one slice each
    rots = [twice[n + 1 - k:2 * n + 2 - k] for k in range(n + 1)]
    best = min(rots)
    k = rots.index(best)
    # only odd degrees have sign-flipping stabilizers: a later rotation of
    # the other parity that also gives ``best``
    if n % 2 and best in rots[k + 1::2]:
        return best, 0
    return best, -1 if n * k % 2 else 1


def _cc_sum(terms, n: int) -> dict:
    """The sum of c * word over (word, c) in CC_n, keyed by canonical words;
    each distinct word is canonicalized once, and exact zeros are dropped."""
    canonical = functools.cache(lambda key: _cc_canonical(key, n))
    out = {}
    for key, c in terms:
        rep, sign = canonical(key)
        if sign:
            out[rep] = out.get(rep, 0) + sign * c
    return {k: v for k, v in out.items()
            if not (is_exact_scalar(v) and scalar_is_zero(v))}


def cc_reduce(xi: TensorElement) -> dict:
    """Coordinates of the class of xi in CC_n, keyed by canonical tuples."""
    return _cc_sum(xi.coeffs.items(), xi.degree)


def _breaks(key) -> list:
    """The positions k where unit k does not chain to unit k + 1, the last
    wrapping to the first; none for a closed walk."""
    return [k for k, u in enumerate(key)
            if _unit_mul(u, key[k + 1 - len(key)]) is None]


def _break_homotopy(terms) -> dict:
    """The sum of c * S(word) / r over (word, c) in ``terms``, r the number
    of breaks of the word; closed walks give nothing.  S inserts e_vv
    after each break k, v the row of unit k + 1, with sign (-1)^(k+1):
    each insertion contracts the run it starts, so b S + S b = r on the
    r-break summand of CC (Loday, Cyclic Homology, 1992, 1.2 and 4.1)."""
    out = {}
    for key, c in terms:
        breaks = _breaks(key)
        for k in breaks:
            f = c * Fraction(1, len(breaks))
            j, a, _ = key[k + 1 - len(key)]
            word = key[:k + 1] + ((j, a, a),) + key[k + 1:]
            out[word] = out.get(word, 0) + (f if k % 2 else -f)
    return out


@dataclass(frozen=True)
class CyclicSpace:
    """Basis of the closed walks of CC_n(M_m(A)): canonical cyclic-orbit
    representatives as sorted words of :func:`_letters`.  No broken word
    is built: a witness reads those parts from the break homotopy."""

    dims: tuple
    degree: int
    words: tuple
    index: dict

    @property
    def dimension(self) -> int:
        return len(self.words)

    def key(self, i: int) -> tuple:
        """Word i as a unit tuple."""
        units = _letters(self.dims)[0]
        return tuple(units[x] for x in self.words[i])

    basis = property(lambda self: tuple(map(self.key, range(self.dimension))))


@functools.lru_cache(maxsize=256)
def _letters(dims: tuple) -> tuple:
    """(units, letter, moves, mul): letter i is units[i], letter[units[i]] = i;
    moves[i] numbers its row and column among the (factor, index) pairs,
    and mul(x, y), nonzero iff col x = row y, has x's row and y's column."""
    units = [(j, a, b) for j, d in enumerate(dims)
             for a in range(d) for b in range(d)]
    pos = {p: i for i, p in enumerate(dict.fromkeys(u[:2] for u in units))}
    moves = [(pos[j, a], pos[j, b]) for j, a, b in units]

    def mul(x, y):
        if moves[x][1] == moves[y][0]:
            return x + moves[y][1] - moves[x][1]
    return units, {u: i for i, u in enumerate(units)}, moves, mul


def _all_units(algebra, m: int) -> list:
    return _letters(algebra.ambient_dims(m))[0]


def _orbit_basis(dims: tuple, n: int) -> list:
    """Canonical orbit representatives of the closed walks
    e_{v_0 v_1} x ... x e_{v_n v_0} in CC_n, sorted.

    Walks prenecklaces, the prefixes of least rotations, depth-first in
    lexicographic order (Fredricksen-Kessler-Maiorana; Ruskey, Savage and
    Wang, J. Algorithms 13, 1992).  The prefix's period p is carried down:
    letter t is at least letter t - p, equal to it keeps p, and larger sets
    p = t + 1.  A word of length n + 1 is then its own least rotation iff p
    divides n + 1, and each orbit is reached once; the rotations fixing it
    are the multiples of p, so in odd degree it dies iff p is odd.  Each
    letter starts where the prefix ends, and the last letter ends where the
    first starts.  Each node visited is charged to the budget, a node's
    children at once.
    """
    budget = get_budget()
    visited = 1  # the root
    moves = _letters(dims)[2]
    basis = []
    prefix = []

    def walk(t, p):
        nonlocal visited
        if t == n + 1:
            if (n + 1) % p == 0 and not (n % 2 and p % 2):
                basis.append(tuple(prefix))
            return
        first = prefix[t - p] if t else 0
        visited += len(moves) - first
        if visited > budget:
            check_budget(visited, f"nodes walked so far for the CC_{n} basis")
        row = moves[prefix[-1]][1] if t else None
        start = moves[prefix[0]][0] if t else None
        for i in range(first, len(moves)):
            r, c = moves[i]
            if t and r != row or t == n and c != (start if t else r):
                continue
            prefix.append(i)
            walk(t + 1, p if i == first else t + 1)
            prefix.pop()

    walk(0, 1)
    return basis


# the caches are keyed by the block sizes, passed positionally, so that
# each complex has one entry whichever algebra and amplification it serves
@functools.lru_cache(maxsize=256)
def _cyclic_space(dims: tuple, n: int) -> CyclicSpace:
    words = _orbit_basis(dims, n)
    return CyclicSpace(dims, n, tuple(words),
                       {w: i for i, w in enumerate(words)})


def _boundary_column(word, mul, index: dict, canonical) -> dict:
    """b(word) in CC_{n-1} coordinates {position in index: int}, letters
    multiplied by ``mul``, each face put in canonical form by ``canonical``."""
    col = {}
    for i in range(len(word)):
        face = _face(word, i, mul)
        if face is None:
            continue
        rep, sign = canonical(face)
        if sign == 0:
            continue
        p = index[rep]
        c = col.get(p, 0) + (sign if i % 2 == 0 else -sign)
        if c:
            col[p] = c
        else:
            del col[p]
    return col


def _boundary_columns(source: CyclicSpace, target: CyclicSpace):
    """b of each source word, each distinct face canonicalized once; b_0 = 0."""
    if not source.degree:
        return [{}] * source.dimension
    mul = _letters(source.dims)[3]
    canonical = functools.cache(lambda face: _cc_canonical(face, target.degree))
    return (_boundary_column(w, mul, target.index, canonical)
            for w in source.words)


@dataclass(frozen=True)
class _Boundary:
    """b: CC_n -> CC_{n-1} on the closed walks, and its rank."""

    source: CyclicSpace
    target: CyclicSpace
    rank: int

    @functools.cached_property
    def tracked(self):
        """:func:`eliminate` on the columns, tagged."""
        return eliminate(tagged(_boundary_columns(self.source, self.target)))


@functools.lru_cache(maxsize=256)
def _boundary(dims: tuple, n: int) -> _Boundary:
    target = _cyclic_space(dims, n - 1)
    source = _cyclic_space(dims, n)
    rows = [{} for _ in range(target.dimension)]
    for j, col in enumerate(_boundary_columns(source, target)):
        for p, c in col.items():
            rows[p][j] = c
    red, _, _ = eliminate(rows)
    return _Boundary(source, target, red.rank)


# ---------------------------------------------------------------------------
# homology

@dataclass(frozen=True)
class HCClass:
    """Coordinates of a cyclic homology class in the fixed basis of HC_n."""

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

    def is_zero(self) -> bool:
        return all(map(scalar_is_zero, self.coords))

    def equals(self, other) -> bool:
        return (self.degree == other.degree
                and len(self.coords) == len(other.coords)
                and all(map(scalars_equal, self.coords, other.coords)))

    def __eq__(self, other):
        if not isinstance(other, HCClass):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return hash((self.degree, len(self.coords)))


class HomologySpace:
    """HC_n of M_m(A), over its block sizes ``dims``, with solve machinery.

    ``basis`` holds the unit tuples (f, 0, 0) x ... x (f, 0, 0), one per
    factor in even degree and none in odd degree.  Construction checks,
    per distinct size d, that the ranks of the closed walks of M_d give
    1 in even degree and 0 in odd; ``reduced_class`` and witnesses solve
    the closed walks of each factor f in the complex of M_{d_f} alone.  At
    finite dimension images are closed, so this space simultaneously
    realizes the Banach variant and the comparison map between them is the
    identity on coordinates.
    """

    def __init__(self, dims: tuple, n: int):
        self.dims = dims
        self.degree = n
        self.basis = () if n % 2 else tuple(
            ((f, 0, 0),) * (n + 1) for f in range(len(dims)))
        self.dimension = len(self.basis)
        for d in set(self.dims):  # dim CC_n - rank b_n - rank b_{n+1}
            above = _boundary((d,), n + 1)
            found = above.target.dimension - above.rank - (
                _boundary((d,), n).rank if n else 0)
            if found != 1 - n % 2:
                raise ConsistencyError(
                    f"HC_{n} has dimension {found}, not {1 - n % 2}")

    # read by perfbench's tracer only: the closed walks of M_m(A), with no
    # elimination
    cc = property(lambda self: _cyclic_space(self.dims, self.degree))
    # read by perfbench's tracer only: b is block-diagonal by factor
    boundary_rank = property(lambda self: sum(
        _boundary((d,), self.degree + 1).rank for d in self.dims))

    @functools.cached_property
    def cycle_basis(self) -> list:
        """Kernel vectors {position in cc: coefficient} of b out of CC_n."""
        return _boundary(self.dims, self.degree).tracked[2]

    # -- queries ------------------------------------------------------------
    def _parts(self, xi: TensorElement) -> dict:
        """{f: (above, coordinates)} over the factors f that the closed
        walks of xi meet: b into CC_n of M_{d_f} from one degree up, and the
        part's coordinates in its target, unit (f, a, b) spelt (0, a, b)."""
        if (xi.algebra.ambient_dims(xi.amplification) != self.dims
                or xi.degree != self.degree):
            raise ValidationError("tensor does not live in this space")
        parts = {}
        for key, c in cc_reduce(xi).items():
            if not _breaks(key):
                parts.setdefault(key[0][0], {})[key] = c
        for f, part in parts.items():
            above = _boundary((self.dims[f],), self.degree + 1)
            letter = _letters((self.dims[f],))[1]
            # a closed walk missing from the index is a bug: KeyError
            parts[f] = above, {above.target.index[tuple(
                letter[0, a, b] for _, a, b in k)]: c for k, c in part.items()}
        return parts

    def reduced_class(self, xi: TensorElement) -> HCClass:
        """The class of a cycle by reduction modulo the boundaries, solved
        in the span of the reduced basis tuples: the oracle for
        :func:`hc_class`, which does not use the trace cocycles."""
        if not xi.is_cycle():
            raise DomainError("tensor is not a cycle in CC coordinates")
        factors = len(self.dims)

        # tags never pivot, so the untagged part is b's residue; position p
        # of factor f is p * factors + f
        def reduce(xi):
            return {p * factors + f: v
                    for f, (above, coords) in self._parts(xi).items()
                    for p, v in above.tracked[0].reduce(coords).items()
                    if p >= 0}
        basis, _, _ = eliminate(tagged(reduce(TensorElement.basis(
            xi.algebra, xi.amplification, key)) for key in self.basis))
        rest = basis.reduce(reduce(xi))
        if any(k >= 0 for k in rest):
            raise ConsistencyError("cycle does not reduce into the basis")
        zero = Fraction(0) if xi.is_exact() else 0j
        minus = tags(rest)  # minus the coordinates
        return HCClass(self.degree, tuple(zero - minus.get(i, 0)
                                          for i in range(self.dimension)))

    def boundary_witness(self, xi: TensorElement):
        """A preimage eta of xi under the boundary from one degree up, with
        b(eta) = xi in CC, or None: a non-cycle fails that one check.

        The closed walks in factor f are reduced against the tagged
        elimination of the boundary into CC_n of M_{d_f}, built on the
        first call, and the preimage is read back in factor f; the broken
        words are contracted by :func:`_break_homotopy`.
        """
        out = _break_homotopy(cc_reduce(xi).items())
        for f, (above, coords) in self._parts(xi).items():
            for j, c in tags(above.tracked[0].reduce(coords)).items():
                out[tuple((f, a, b) for _, a, b in above.source.key(j))] = -c
        eta = TensorElement._trusted(xi.algebra, xi.amplification,
                                     self.degree + 1, out)
        miss = cc_reduce(face_op(eta) - xi)
        return eta if all(map(scalar_is_zero, miss.values())) else None


def hc_space(algebra: MultiMatrixAlgebra, n: int,
             amplification: int = 1) -> HomologySpace:
    _check_degree(n, amplification)
    return _hc_space(algebra.ambient_dims(amplification), n)


_hc_space = functools.lru_cache(maxsize=256)(HomologySpace)


def _check_degree(n: int, amplification: int = 1) -> None:
    if n < 0:
        raise ValidationError(f"homology degree must be >= 0, not {n}")
    if amplification < 1:
        raise ValidationError(f"amplification must be >= 1, not {amplification}")


def read_class(n: int, phi) -> HCClass:
    """The class in HC_n(A) with trace-cocycle values phi: empty in odd
    degree, and one float value makes every coordinate complex."""
    _check_degree(n)
    if n % 2:
        return HCClass(n, ())
    zero = Fraction(0) if all(map(is_exact_scalar, phi)) else 0j
    return HCClass(n, tuple(zero + v for v in phi))


def zero_class(algebra: MultiMatrixAlgebra, n: int) -> HCClass:
    return read_class(n, [Fraction(0)] * algebra.num_factors)


def charge_read(algebra: MultiMatrixAlgebra, m: int, n: int, words: int):
    """Charge a read of ``words`` words of degree n over M_m(A): n + 1 faces
    per word, and n + 1 letters or products of size up to dim M_m(A)."""
    check_budget(words * (n + 1) * max(n + 1, algebra.dimension(m)),
                 "letters read for a class")


def hc_class(xi) -> HCClass:
    """The class phi(xi) in HC_n(A) of a cycle xi, a TensorElement or a
    DecompositionRep over any M_m(A); no homology space is built."""
    # a tensor's coeffs hold its terms, a decomposition's its summands
    charge_read(xi.algebra, xi.amplification, xi.degree, len(xi.coeffs))
    if not xi.is_cycle():
        raise DomainError("tensor is not a cycle in CC coordinates")
    return read_class(xi.degree, xi.trace_values())


def is_boundary(xi: TensorElement):
    """Witness tensor eta with b(eta) = xi in CC coordinates, or None."""
    return hc_space(xi.algebra, xi.degree,
                    xi.amplification).boundary_witness(xi)


def hc_dims(algebra: MultiMatrixAlgebra, max_degree: int,
            amplification: int = 1):
    """dim HC_n(M_m(A)) for n <= max_degree, summed over the sizes m r_f."""
    _check_degree(max_degree, amplification)
    return [sum(hc_space(MultiMatrixAlgebra((d,)), n).dimension
                for d in algebra.ambient_dims(amplification))
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
        inner = []
        outers = []
        for j, a, b in key:
            r = dims[j]
            inner.append((j, a % r, b % r))
            outers.append((a // r, b // r))
        if any(outers[t - 1][1] != outers[t][0] for t in range(len(key))):
            continue
        nk = tuple(inner)
        out[nk] = out.get(nk, 0) + c
    return TensorElement._trusted(xi.algebra, 1, xi.degree, out)


# ---------------------------------------------------------------------------
# decomposition representatives and norm bounds

@dataclass(frozen=True)
class DecompositionRep:
    """A sum of scaled elementary tensors with remembered factorizations:
    sum over s of coeffs[s] * summands[s][0] x ... x summands[s][n]."""

    summands: tuple  # tuple of tuples of AlgebraElement
    coeffs: tuple = None  # one scalar per summand; None means all 1

    def __post_init__(self):
        if not self.summands:
            raise DomainError("empty decomposition")
        lengths = {len(s) for s in self.summands}
        if len(lengths) != 1 or 0 in lengths:
            raise ValidationError("summands must be nonempty and equal length")
        if self.coeffs is None:
            object.__setattr__(self, "coeffs", (1,) * len(self.summands))
        elif len(self.coeffs) != len(self.summands):
            raise ValidationError("one coefficient per summand required")

    @property
    def degree(self) -> int:
        return len(self.summands[0]) - 1

    @property
    def algebra(self) -> MultiMatrixAlgebra:
        return self.summands[0][0].algebra

    @property
    def amplification(self) -> int:
        return self.summands[0][0].amplification

    def expand(self) -> TensorElement:
        """The sum in matrix units.  Its term count, the sum over summands of
        the product of the factors' nonzero entry counts, is charged first."""
        words, _, elements = self._spelling
        sizes = [len(_nonzero_entries(x)) for x in elements]
        check_budget(sum(math.prod(sizes[i] for i in w) for w, _ in words),
                     f"matrix-unit terms expanded at degree {self.degree}")
        out = TensorElement.zero(self.algebra, self.amplification, self.degree)
        for c, s in zip(self.coeffs, self.summands):
            out = out + TensorElement.from_summand(s).scale(c)
        return out

    @functools.cached_property
    def _spelling(self):
        """(words, product, elements): the summands as (word, coefficient),
        a word numbering its factors by value (equal elements share a
        number), and the memoized product of two numbers."""
        elements = []

        def letter(x):
            if x not in elements:
                elements.append(x)
            return elements.index(x)

        @functools.cache
        def product(i, j):
            return letter(elements[i] * elements[j])

        return ([(tuple(map(letter, s)), c)
                 for c, s in zip(self.coeffs, self.summands)],
                product, elements)

    def is_cycle(self) -> bool:
        """b xi = 0 in CC_{n-1}, decided on the factored form when it can be.

        The face products are summed by cyclic orbit, with rotation signs;
        an orbit fixed by a rotation of sign -1 dies, so b(p x ... x p) =
        p x ... x p vanishes when p^2 = p.  If a sum is left (a float sum is
        kept even when it cancels), xi is expanded into matrix units and
        checked there.
        """
        if self.degree == 0:
            return True
        words, product, _ = self._spelling
        return not _cc_sum(_face_terms(words, product), self.degree - 1) \
            or self.expand().is_cycle()

    def trace_values(self) -> list:
        """(phi_f(xi))_f: phi_f of a summand is tr_f of the product
        x_0 x_1 ... x_n, over the f-block of M_m(A)."""
        words, product, elements = self._spelling
        phi = [0] * self.algebra.num_factors
        for word, c in words:
            x = elements[functools.reduce(product, word)]
            for f, block in enumerate(x.blocks):
                phi[f] += c * la.trace(block)
        return phi


def decomposition_norm(rep: DecompositionRep) -> float:
    """Sum over summands of |coefficient| times the product of factor
    operator norms."""
    total = 0.0
    for c, s in zip(rep.coeffs, rep.summands):
        prod = abs(to_complex(c))
        for x in s:
            prod *= x.norm()
        total += prod
    return total


def _face_of_rep(rep: DecompositionRep, i: int) -> DecompositionRep:
    return DecompositionRep(tuple(_face(s, i, operator.mul)
                                  for s in rep.summands), rep.coeffs)


def check_face_bound(rep: DecompositionRep, i: int) -> bool:
    """Canonical representative of d_i(rep) has norm <= norm(rep), up to eps."""
    return decomposition_norm(_face_of_rep(rep, i)) \
        <= decomposition_norm(rep) + get_epsilon()


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
    out, coeffs = [], []
    for c, s in zip(rep.coeffs, rep.summands):
        grids = [_entry_elements(x) for x in s]
        for chain in itertools.product(range(m), repeat=n + 1):
            out.append(tuple(grids[t][chain[t]][chain[(t + 1) % (n + 1)]]
                             for t in range(n + 1)))
            coeffs.append(c)
    return DecompositionRep(tuple(out), tuple(coeffs))


def check_trace_bound(rep: DecompositionRep) -> bool:
    """Expanded trace representative obeys the r^(n+1) norm inflation bound,
    up to eps."""
    m = rep.summands[0][0].amplification
    bound = float(m) ** (rep.degree + 1) * decomposition_norm(rep)
    return decomposition_norm(trace_rep(rep)) <= bound + get_epsilon()
