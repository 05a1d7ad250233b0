"""Equivariant chain complexes over multi-matrix algebras and their
Lefschetz numbers.

A complex is a finite chain of projective modules q_j * A^(n_j) with
A-linear differentials and a commuting unitary action of a finite group.
Finite-dimensional Hodge theory supplies the harmonic decomposition, built
once per complex and kept on it (``GAComplex.harmonic``).  The isotypic
projections p_chi = (dim chi/|G|) sum_g chi(g)* rho(g) do not depend on g,
so each (complex, table) pair keeps the alternating multiplicities
M_chi = sum_j (-1)^j m_chi,j in Z^k, and the numbers are short reads:
L1(g) = sum_chi chi(g) M_chi, L2(g) = sum_i L1(g)_i ch_l(e_i) for the
diagonal units e_i, and the refined number takes exact spectral
resolutions of finite-order unitaries on the stored harmonic projections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .algebra import AlgebraElement, MultiMatrixAlgebra, Projection, \
    spectral_decompose
from .chern import chern_projection, generalized_chern
from .cyclic import HCClass, zero_class
from .errors import ConsistencyError, DomainError, NumericalError, \
    ValidationError
from .ngroup import K0TensorC, N0Class, h_map, k0_of_projection, n_class
from .scalars import Cyclotomic, conj_scalar, scalar_is_zero, scalars_equal


# ---------------------------------------------------------------------------
# finite groups and their irreducible representations

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    table: tuple

    def __post_init__(self):
        table = tuple(tuple(int(x) for x in row) for row in self.table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        if any(not 0 <= x < n for row in table for x in row):
            raise ValidationError("table entries out of range")
        e = None
        for g in range(n):
            if all(table[g][h] == h and table[h][g] == h for h in range(n)):
                e = g
                break
        if e is None:
            raise ValidationError("no identity element")
        inv = []
        for g in range(n):
            gi = [h for h in range(n) if table[g][h] == e and table[h][g] == e]
            if len(gi) != 1:
                raise ValidationError(f"element {g} has no unique inverse")
            inv.append(gi[0])
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValidationError("multiplication is not associative")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_identity", e)
        object.__setattr__(self, "_inverses", tuple(inv))

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self._inverses[g]

    def elements(self):
        return range(self.order)

    @staticmethod
    def cyclic_group(n: int) -> "FiniteGroup":
        return FiniteGroup(tuple(tuple((i + j) % n for j in range(n))
                                 for i in range(n)))

    @staticmethod
    def symmetric_group_3() -> "FiniteGroup":
        # element (a, b) = r^a s^b with r^3 = s^2 = e and s r = r^2 s,
        # indexed as a + 3b
        def mul(x, y):
            a1, b1 = x % 3, x // 3
            a2, b2 = y % 3, y // 3
            a = (a1 + (a2 if b1 == 0 else -a2)) % 3
            return a + 3 * ((b1 + b2) % 2)
        return FiniteGroup(tuple(tuple(mul(x, y) for y in range(6))
                                 for x in range(6)))


@dataclass(frozen=True)
class Irrep:
    """One irreducible unitary representation: a matrix per group element."""

    name: str
    dim: int
    matrices: tuple  # exact matrices, one per group element

    def __post_init__(self):
        mats = tuple(la.as_matrix(m) for m in self.matrices)
        for m in mats:
            if la.shape(m) != (self.dim, self.dim):
                raise ValidationError(f"irrep {self.name}: matrix size mismatch")
            if not la.is_exact_matrix(m):
                raise ValidationError(f"irrep {self.name}: matrices must be exact")
        object.__setattr__(self, "matrices", mats)

    def character(self, g: int):
        return la.trace(self.matrices[g])


@dataclass(frozen=True)
class IrrepTable:
    group: FiniteGroup
    irreps: tuple

    def __post_init__(self):
        irreps = tuple(self.irreps)
        n = self.group.order
        if sum(p.dim ** 2 for p in irreps) != n:
            raise ValidationError("squared dimensions do not sum to the group order")
        for p in irreps:
            if len(p.matrices) != n:
                raise ValidationError(f"irrep {p.name}: wrong number of matrices")
            for g in range(n):
                for h in range(n):
                    prod = la.mat_mul(p.matrices[g], p.matrices[h])
                    if not la.mat_equal(prod, p.matrices[self.group.mul(g, h)]):
                        raise ValidationError(
                            f"irrep {p.name}: not a representation at ({g},{h})")
        for i, p in enumerate(irreps):
            for j, q in enumerate(irreps):
                acc = Fraction(0)
                for g in range(n):
                    acc = acc + p.character(g) * conj_scalar(q.character(g))
                want = Fraction(n) if i == j else Fraction(0)
                if not scalars_equal(acc, want):
                    raise ValidationError(
                        f"character orthogonality fails for ({p.name},{q.name})")
        object.__setattr__(self, "irreps", irreps)

    @staticmethod
    def cyclic(n: int) -> "IrrepTable":
        group = FiniteGroup.cyclic_group(n)
        irreps = []
        for k in range(n):
            mats = tuple(((Cyclotomic.root_of_unity(n, (k * j) % n),),)
                         for j in range(n))
            irreps.append(Irrep(f"chi{k}", 1, mats))
        return IrrepTable(group, tuple(irreps))

    @staticmethod
    def symmetric_3() -> "IrrepTable":
        group = FiniteGroup.symmetric_group_3()
        one = Fraction(1)
        triv = Irrep("trivial", 1, tuple(((one,),) for _ in range(6)))
        sign = Irrep("sign", 1, tuple((((one if g < 3 else -one),),)
                                      for g in range(6)))
        w = Cyclotomic.root_of_unity(3, 1)
        zero = Cyclotomic.from_rational(0)
        rho_r = ((w, zero), (zero, w * w))
        rho_s = ((zero, Cyclotomic.from_rational(1)),
                 (Cyclotomic.from_rational(1), zero))
        mats = []
        for g in range(6):
            a, b = g % 3, g // 3
            m = la.identity(2)
            for _ in range(a):
                m = la.mat_mul(m, rho_r)
            if b:
                m = la.mat_mul(m, rho_s)
            mats.append(m)
        std = Irrep("standard", 2, tuple(mats))
        return IrrepTable(group, (triv, sign, std))


# ---------------------------------------------------------------------------
# A-linear maps between amplified free modules

@dataclass(frozen=True)
class ModuleMap:
    """Left multiplication by a rectangular matrix over A.

    Maps A^source_size -> A^target_size; per-factor blocks are plain
    matrices in outer-major layout, which is exactly the matrix algebra
    over A, so A-linearity is automatic.
    """

    algebra: MultiMatrixAlgebra
    target_size: int
    source_size: int
    blocks: tuple

    def __post_init__(self):
        if self.target_size < 1 or self.source_size < 1:
            raise ValidationError("module sizes must be positive")
        blocks = tuple(la.as_matrix(b) for b in self.blocks)
        if len(blocks) != self.algebra.num_factors:
            raise ValidationError("one block per algebra factor required")
        for b, r in zip(blocks, self.algebra.block_dims):
            if la.shape(b) != (self.target_size * r, self.source_size * r):
                raise ValidationError("module map block has wrong shape")
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def zero(algebra, target_size, source_size, exact=True):
        return ModuleMap(algebra, target_size, source_size, tuple(
            la.zeros(target_size * r, source_size * r, exact)
            for r in algebra.block_dims))

    @staticmethod
    def from_element(x: AlgebraElement) -> "ModuleMap":
        return ModuleMap(x.algebra, x.amplification, x.amplification, x.blocks)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        if self.algebra != other.algebra or self.source_size != other.target_size:
            raise ValidationError("module map composition mismatch")
        return ModuleMap(self.algebra, self.target_size, other.source_size,
                         tuple(la.mat_mul(a, b)
                               for a, b in zip(self.blocks, other.blocks)))

    def star(self) -> "ModuleMap":
        return ModuleMap(self.algebra, self.source_size, self.target_size,
                         tuple(la.conj_transpose(b) for b in self.blocks))

    def __add__(self, other):
        return ModuleMap(self.algebra, self.target_size, self.source_size,
                         tuple(la.mat_add(a, b)
                               for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        return ModuleMap(self.algebra, self.target_size, self.source_size,
                         tuple(la.mat_sub(a, b)
                               for a, b in zip(self.blocks, other.blocks)))

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.algebra, self.target_size, self.source_size,
                         tuple(la.scalar_mul(c, b) for b in self.blocks))

    def is_zero(self) -> bool:
        return all(map(la.is_zero_matrix, self.blocks))

    def equals(self, other) -> bool:
        return all(map(la.mat_equal, self.blocks, other.blocks))


# ---------------------------------------------------------------------------
# the complexes

@dataclass(frozen=True)
class GAComplex:
    """Chain complex of projective modules with a unitary group action.

    ``modules[j]`` is the range projection in M_{n_j}(A); ``diffs[i]`` maps
    module i+1 to module i; ``action[g][j]`` is the unitary of g on module j.
    The harmonic decomposition and, per irrep table, the alternating
    isotypic multiplicities are built on first use and kept.
    """

    algebra: MultiMatrixAlgebra
    group: FiniteGroup
    modules: tuple  # of Projection
    diffs: tuple    # of ModuleMap, len = len(modules) - 1
    action: tuple   # action[g][j]: AlgebraElement

    def __post_init__(self):
        mods = tuple(self.modules)
        if not mods:
            raise ValidationError("complex needs at least one module")
        for q in mods:
            if q.algebra != self.algebra:
                raise ValidationError("module projection over wrong algebra")
        diffs = tuple(self.diffs)
        if len(diffs) != len(mods) - 1:
            raise ValidationError("need one differential per adjacent pair")
        for i, d in enumerate(diffs):
            if (d.algebra != self.algebra
                    or d.target_size != mods[i].amplification
                    or d.source_size != mods[i + 1].amplification):
                raise ValidationError(f"differential {i} has wrong shape")
        action = tuple(tuple(row) for row in self.action)
        if len(action) != self.group.order or any(
                len(row) != len(mods) for row in action):
            raise ValidationError("action table has wrong shape")
        for row in action:
            for u, q in zip(row, mods):
                if (u.algebra != self.algebra
                        or u.amplification != q.amplification):
                    raise ValidationError("action matrix has wrong shape")
        object.__setattr__(self, "modules", mods)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_multiplicities", {})  # IrrepTable -> M

    @property
    def length(self) -> int:
        return len(self.modules)

    @functools.cached_property
    def harmonic(self) -> list:
        """``harmonic_modules(self)``, built once."""
        return harmonic_modules(self)

    def unitary(self, g: int):
        """The action of g as one AlgebraElement per module."""
        return list(self.action[g])


def validate_complex(c: GAComplex) -> list:
    """All structural invariants; returns the list of violations."""
    problems = []
    qmaps = [ModuleMap.from_element(m.element) for m in c.modules]
    for i, d in enumerate(c.diffs):
        if not qmaps[i].compose(d).compose(qmaps[i + 1]).equals(d):
            problems.append(f"differential {i} does not respect the ranges")
    for i in range(len(c.diffs) - 1):
        if not c.diffs[i].compose(c.diffs[i + 1]).is_zero():
            problems.append(f"d{i} o d{i + 1} is not zero")
    e = c.group.identity
    for j, m in enumerate(c.modules):
        if not c.action[e][j].equals(m.element):
            problems.append(f"identity does not act as the projection on module {j}")
    for g in c.group.elements():
        problems += _map_problems(c, c.action[g], f"action of {g}")
        for h in c.group.elements():
            gh = c.group.mul(g, h)
            for j in range(c.length):
                if not (c.action[g][j] * c.action[h][j]).equals(c.action[gh][j]):
                    problems.append(
                        f"action is not multiplicative at ({g},{h}) on module {j}")
    return problems


def _map_problems(c: GAComplex, maps, who: str) -> list:
    """Where the per-module maps leave their module, fail to be unitary on
    it, or fail to commute with the differentials."""
    problems = []
    for j, (u, q) in enumerate(zip(maps, c.modules)):
        if not (q.element * u * q.element).equals(u):
            problems.append(f"{who} leaves module {j}")
        if not (u.star() * u).equals(q.element):
            problems.append(f"{who} is not unitary on module {j}")
    for i, d in enumerate(c.diffs):
        if not ModuleMap.from_element(maps[i]).compose(d).equals(
                d.compose(ModuleMap.from_element(maps[i + 1]))):
            problems.append(f"{who} does not commute with d{i}")
    return problems


def _nullspace_projection(stacked_blocks):
    """Per-factor orthogonal projection onto the joint kernel."""
    out = []
    for rows in stacked_blocks:
        basis = la.nullspace(rows)
        d = la.shape(rows)[1]
        out.append(la.projection_onto_columns(basis) if basis else la.zeros(d, d))
    return tuple(out)


def kernel_projection(d: ModuleMap, q: Projection) -> AlgebraElement:
    """Projection onto Ker d intersected with the range of q."""
    comp = _range_complement(q)
    stacked = [la.stack_rows(b, cb) for b, cb in zip(d.blocks, comp.blocks)]
    return AlgebraElement(d.algebra, d.source_size,
                          _nullspace_projection(stacked))


def _range_complement(q: Projection) -> AlgebraElement:
    ident = AlgebraElement.identity(q.algebra, q.amplification,
                                    exact=q.element.is_exact())
    return ident - q.element


def harmonic_modules(c: GAComplex):
    """Per module: the harmonic projection and the restricted action.

    The harmonic submodule of module j is Ker(outgoing d) intersected with
    Ker(incoming d adjoint) inside the range of q_j; its projection
    commutes with the group action.  Every Lefschetz number reads the copy
    kept as ``c.harmonic``.
    """
    out = []
    for j, q in enumerate(c.modules):
        stacked = []
        comp = _range_complement(q)
        for f in range(c.algebra.num_factors):
            parts = []
            if j >= 1:
                parts.append(c.diffs[j - 1].blocks[f])
            if j < c.length - 1:
                parts.append(la.conj_transpose(c.diffs[j].blocks[f]))
            parts.append(comp.blocks[f])
            stacked.append(la.stack_rows(*parts))
        h = AlgebraElement(c.algebra, q.amplification,
                           _nullspace_projection(stacked))
        restricted = [h * c.action[g][j] * h for g in c.group.elements()]
        out.append((Projection(h), restricted))
    return out


# ---------------------------------------------------------------------------
# isotypic decomposition and the Lefschetz numbers

def isotypic_decompose(c: GAComplex, irreps: IrrepTable) -> tuple:
    """Per irreducible chi, (chi, M_chi): M_chi = sum_j (-1)^j m_chi,j in
    Z^k, m_chi,j the multiplicity K0 class of chi in harmonic module j.

    Built once per (complex, table) and kept on the complex.
    """
    if irreps.group != c.group:
        raise ValidationError("irrep table is for a different group")
    found = c._multiplicities.get(irreps)
    if found is not None:
        return found
    order = Fraction(c.group.order)
    out = []
    for irr in irreps.irreps:
        total = [0] * c.algebra.num_factors
        for j, (h, restricted) in enumerate(c.harmonic):
            acc = AlgebraElement.zero(h.algebra, h.amplification)
            for g in c.group.elements():
                acc = acc + restricted[g].scale(conj_scalar(irr.character(g)))
            proj = Projection(acc.scale(Fraction(irr.dim) / order))
            for i, r in enumerate(proj.rank_vector()):
                if r % irr.dim != 0:
                    raise ConsistencyError(
                        f"isotypic rank {r} not divisible by dim {irr.dim}")
                total[i] += (-1) ** j * (r // irr.dim)
        out.append((irr, tuple(total)))
    c._multiplicities[irreps] = out = tuple(out)
    return out


def lefschetz_first(c: GAComplex, g: int, irreps: IrrepTable) -> K0TensorC:
    """sum over irreducibles chi of chi(g) M_chi."""
    coeffs = [Fraction(0)] * c.algebra.num_factors
    for irr, mult in isotypic_decompose(c, irreps):
        chi = irr.character(g)
        for i, m in enumerate(mult):
            if m:
                coeffs[i] = coeffs[i] + m * chi
    return K0TensorC(tuple(coeffs))


def lefschetz_second(c: GAComplex, g: int, irreps: IrrepTable,
                     l: int) -> HCClass:
    """sum over factors i of L1(g)_i ch_l(e_i), e_i the diagonal units."""
    out = zero_class(c.algebra, 2 * l)
    for i, coeff in enumerate(lefschetz_first(c, g, irreps).coeffs):
        if not scalar_is_zero(coeff):
            unit = Projection.diagonal_unit(c.algebra, i)
            out = out + chern_projection(unit, l).scale(coeff)
    return out


def _finite_order(v: AlgebraElement, h: AlgebraElement, cap: int = 24):
    power = v
    for t in range(1, cap + 1):
        if power.equals(h):
            return t
        power = power * v
    return None


def _restricted_n_class(h: Projection, u: AlgebraElement) -> N0Class:
    """N0 class of a unitary restricted to the range of h.

    Finite-order restrictions get exact root-of-unity spectral projections
    via the Fourier resolution; otherwise the element is diagonalized
    directly (exactly when its eigenvalues allow, in floats as a fallback).
    """
    v = h.element * u * h.element
    algebra = h.algebra
    if v.is_zero():
        return N0Class.zero(algebra)
    if v.is_exact():
        t = _finite_order(v, h.element)
        if t is not None:
            support = []
            powers = [h.element]
            for _ in range(t - 1):
                powers.append(powers[-1] * v)
            inv_t = Fraction(1, t)
            for k in range(t):
                acc = AlgebraElement.zero(algebra, h.amplification)
                for s in range(t):
                    root = Cyclotomic.root_of_unity(t, (-k * s) % t)
                    acc = acc + powers[s].scale(root)
                proj = acc.scale(inv_t)
                if proj.is_zero():
                    continue
                support.append((Cyclotomic.root_of_unity(t, k),
                                k0_of_projection(Projection(proj))))
            return N0Class(algebra, tuple(support))
    try:
        return n_class(spectral_decompose(v))
    except NumericalError:
        blocks = tuple(la.from_numpy(la.to_numpy(b)) for b in v.blocks)
        v_float = AlgebraElement(algebra, v.amplification, blocks)
        return n_class(spectral_decompose(v_float))


@dataclass(frozen=True)
class GeneralizedLefschetz:
    value: N0Class


def generalized_lefschetz(c: GAComplex, unitaries) -> GeneralizedLefschetz:
    """Alternating sum of spectral classes of U on the harmonic modules.

    ``unitaries`` is one AlgebraElement per module; it must be unitary on
    each module and commute with the differentials, but need not come from
    the group action.
    """
    unitaries = list(unitaries)
    if len(unitaries) != c.length:
        raise ValidationError("one unitary per module required")
    problems = _map_problems(c, unitaries, "endomorphism")
    if problems:
        raise DomainError(problems[0])
    total = N0Class.zero(c.algebra)
    for j, (h, _) in enumerate(c.harmonic):
        part = _restricted_n_class(h, unitaries[j])
        total = total + (part if j % 2 == 0 else -part)
    return GeneralizedLefschetz(total)


def verify_th4(c: GAComplex, g: int, irreps: IrrepTable) -> bool:
    """Collapsing the refined number recovers the character-valued one."""
    refined = generalized_lefschetz(c, c.unitary(g))
    return h_map(refined.value) == lefschetz_first(c, g, irreps)


def verify_th5(c: GAComplex, g: int, irreps: IrrepTable, l: int) -> bool:
    """The homology-valued number is the character of the refined one."""
    lhs = lefschetz_second(c, g, irreps, l)
    rhs = generalized_chern(generalized_lefschetz(c, c.unitary(g)).value, l)
    return lhs == rhs
