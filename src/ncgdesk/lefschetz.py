"""Equivariant chain complexes over multi-matrix algebras and their
Lefschetz numbers.

A complex is a finite chain of projective modules q_j * A^(n_j) with
A-linear differentials and a commuting action of a finite group.
A differential is its tuple of per-factor blocks, whose shapes the
complex checks against its modules.  Each structural fact is checked once
per complex, on first use, and the list of its failures kept: that each d
respects the ranges and d o d = 0, and that g -> U_g is a representation
on each module whose generators commute with d and are unitary.
``validate_complex`` returns those lists; a number that needs a fact
raises DomainError naming its first failure.

Every Lefschetz number is read on the chain modules themselves.  A map
that commutes with d splits the complex into its eigenvalue and isotypic
subcomplexes, and each has the same alternating sum of ranks on chains as
on homology (the Hopf trace formula), so no harmonic projection is built.
On either backend the blocks of every U_g stand side by side in one stack
per module and factor, and one product U_s [U_g0 | U_g1 | ...] per
generator s proves U_s U_g = U_sg for every g.  Once the action facts
hold, the complex keeps its character table tr_i(U_g)
(``GAComplex.characters``), the block traces of the same stacks, and the
multiplicity m_chi,j,i =
(1/|G|) sum_g conj chi(g) tr_i(U_g) on module j is the trace of the
idempotent (dim chi/|G|) sum_g conj chi(g) U_g over dim chi.  Each
(complex, irrep table) keeps M_chi = sum_j (-1)^j m_chi,j in Z^k, so
L1(g) = sum_chi chi(g) M_chi and L2(g) = sum_i L1(g)_i ch_l(e_i), e_i the
diagonal units, are short reads.  The refined number of U_g reads on
module j the zeta_t^k eigenspace rank (1/t) sum_s zeta_t^(-ks) tr_i(U_g^s),
t = ord(g), one Fourier read of the rows g^s of the character table
(``_fourier_read``); ``spectral_decompose`` splits any other u_j.
If that raises NumericalError on any module, every module is read on
homology (h_j u_j h_j, h_j the harmonic projection, ``GAComplex.harmonic``),
as the trace formula holds for an all-chain or an all-homology sum only.
The number is kept on the complex per g or per tuple of unitaries, so
Theorems 4 and 5 share one computation.  Multiplicities and ranks that are
not natural numbers raise ConsistencyError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from .algebra import AlgebraElement, MultiMatrixAlgebra, Projection, \
    spectral_decompose
from .budget import check_budget
from .chern import generalized_chern, k0c_chern
from .cyclic import HCClass
from .errors import ConsistencyError, DomainError, NumericalError, \
    ValidationError
from .ngroup import K0Class, K0TensorC, N0Class, h_map, n_class
from .scalars import Cyclotomic, conj_scalar, scalars_equal


# ---------------------------------------------------------------------------
# finite groups and their irreducible representations

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    table: tuple

    def __post_init__(self):
        check_budget(len(self.table) ** 3, "group associativity checks")
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
        gens, reached = [], {e}
        for g in range(n):
            if g not in reached:  # g is outside the subgroup generated so far
                gens.append(g)
                while not reached.issuperset(
                        grown := {table[x][s] for x in reached for s in gens}):
                    reached |= grown
        object.__setattr__(self, "_generators", tuple(gens))

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

    @property
    def generators(self) -> tuple:
        """A generating set: each element not generated by the earlier ones."""
        return self._generators

    def elements(self):
        return range(self.order)

    @staticmethod
    def cyclic_group(n: int) -> "FiniteGroup":
        if n < 1:
            raise ValidationError(f"cyclic group order must be >= 1: {n}")
        check_budget(n ** 3, "group associativity checks")
        return FiniteGroup(tuple(tuple((i + j) % n for j in range(n))
                                 for i in range(n)))

    @staticmethod
    def symmetric_group_3() -> "FiniteGroup":
        """S_3 with element a + 3b = r^a s^b (see ``IrrepTable.symmetric_3``)."""
        return IrrepTable.symmetric_3().group


@dataclass(frozen=True)
class Irrep:
    """One irreducible unitary representation: a matrix per group element."""

    name: str
    dim: int
    matrices: tuple  # exact matrices, one per group element

    def __post_init__(self):
        mats = tuple(la.as_matrix(m) for m in self.matrices)
        for m in mats:
            if m.shape != (self.dim, self.dim):
                raise ValidationError(f"irrep {self.name}: matrix size mismatch")
            if type(m) is not la.ExactMatrix:
                raise ValidationError(f"irrep {self.name}: matrices must be exact")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_characters", tuple(map(la.trace, mats)))

    def character(self, g: int):
        return self._characters[g]


@dataclass(frozen=True)
class IrrepTable:
    group: FiniteGroup
    irreps: tuple

    def __post_init__(self):
        irreps = tuple(self.irreps)
        n = self.group.order
        if sum(p.dim ** 2 for p in irreps) != n:
            raise ValidationError("squared dimensions do not sum to the group order")
        # rho(e) = 1 and rho(s) rho(g) = rho(sg) on generators s: each g is a word in S
        for p in irreps:
            if len(p.matrices) != n:
                raise ValidationError(f"irrep {p.name}: wrong number of matrices")
            if not la.mat_equal(p.matrices[self.group.identity], la.identity(p.dim)):
                raise ValidationError(f"irrep {p.name}: the identity does not act as 1")
            for s in self.group.generators:
                for g in range(n):
                    prod = la.mat_mul(p.matrices[s], p.matrices[g])
                    if not la.mat_equal(prod, p.matrices[self.group.mul(s, g)]):
                        raise ValidationError(
                            f"irrep {p.name}: not a representation at ({s},{g})")
        duals = la.as_matrix([[conj_scalar(x) for x in p._characters]
                              for p in irreps])  # row chi: conj chi(g)
        gram = la.entries(la.mat_mul(la.as_matrix(
            [p._characters for p in irreps]), la.transpose(duals)))
        for i, p in enumerate(irreps):
            for j, q in enumerate(irreps):
                if not scalars_equal(gram[i][j], n if i == j else 0):
                    raise ValidationError(
                        f"character orthogonality fails for ({p.name},{q.name})")
        object.__setattr__(self, "irreps", irreps)
        object.__setattr__(self, "_duals", duals)
        # each complex keeps its multiplicities keyed by table: hash it once
        object.__setattr__(self, "_hash", hash((self.group, irreps)))

    def __hash__(self):
        return self._hash

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
        """S_3 with element a + 3b = r^a s^b, where the standard irrep sends
        r to diag(zeta_3, zeta_3^2) and s to the swap.  That irrep is
        faithful, so the group table is read from its matrices."""
        w = Cyclotomic.root_of_unity(3, 1)
        zero, one = Cyclotomic.from_rational(0), Cyclotomic.from_rational(1)
        rho_r = la.as_matrix(((w, zero), (zero, w * w)))
        rho_s = la.as_matrix(((zero, one), (one, zero)))
        mats = []
        for g in range(6):
            m = la.identity(2)
            for _ in range(g % 3):
                m = la.mat_mul(m, rho_r)
            mats.append(la.mat_mul(m, rho_s) if g >= 3 else m)
        group = FiniteGroup(tuple(tuple(mats.index(la.mat_mul(x, y))
                                        for y in mats) for x in mats))
        triv = Irrep("trivial", 1, tuple(((one,),) for _ in range(6)))
        sign = Irrep("sign", 1, tuple((((one if g < 3 else -one),),)
                                      for g in range(6)))
        std = Irrep("standard", 2, tuple(mats))
        return IrrepTable(group, (triv, sign, std))


# ---------------------------------------------------------------------------
# the complexes

def _chain_problems(c: GAComplex) -> list:
    """Where a differential leaves the ranges or d o d is not zero."""
    problems = []
    qs = [m.element.blocks for m in c.modules]
    for i, d in enumerate(c.diffs):
        if not all(map(la.mat_equal, compose(qs[i], d, qs[i + 1]), d)):
            problems.append(f"differential {i} does not respect the ranges")
    for i in range(len(c.diffs) - 1):
        if not all(map(la.is_zero_matrix, compose(c.diffs[i], c.diffs[i + 1]))):
            problems.append(f"d{i} o d{i + 1} is not zero")
    return problems


def _generator_unitary_problems(c: GAComplex) -> list:
    """Where a generator's action fails U_s* U_s = q_j; with the action
    facts, that decides every U_g (see :func:`_action_problems`)."""
    return [p for s in c.group.generators
            for p in _unitary_problems(c, c.action[s], f"action of {s}")]


def _action_problems(c: GAComplex) -> list:
    """Where g -> U_g fails to be a representation on a module, or a
    generator's action fails to commute with d.

    Checked on the generators S: U_e = q_j and U_s U_g = U_sg for every s
    and g.  Then U_s^m = q_j (m the order of s) puts the range of U_s on
    that of q_j, so q_j U_g = U_g = U_g q_j and U_a U_b = U_ab for all a,
    b; each (dim chi/|G|) sum_g conj chi(g) U_g is an idempotent, and its
    rank is its trace.  Each U_g is a product of generator maps, so it
    commutes with d, and is unitary if they are.  On either backend one
    stacked product per (generator, module, factor) proves U_s U_g = U_sg
    for every g at once (:func:`_stacked_products_match`); the products
    are taken one by one only for a generator where it fails, to name
    each (s, g, module) that does.
    """
    group = c.group
    problems = [f"identity does not act as the projection on module {j}"
                for j, (u, q) in enumerate(zip(c.action[group.identity], c.modules))
                if not u.equals(q.element)]
    for s in group.generators:
        if not _stacked_products_match(c, s):
            problems += [f"action is not multiplicative at ({s},{g}) on module {j}"
                         for g in group.elements()
                         for j, (u, v) in enumerate(zip(c.action[s], c.action[g]))
                         if not (u * v).equals(c.action[group.mul(s, g)][j])]
    for s in group.generators:
        problems += _commute_problems(c, c.action[s], f"action of {s}")
    return problems


def _stacked_products_match(c: GAComplex, s: int) -> bool:
    """Whether U_s W = W with column block g replaced by block s g, for
    each stack W = [U_g0 | U_g1 | ...] of ``c._stacks``: then U_s U_g =
    U_sg on every module for every g.  Each entry is compared as the
    per-product check compares it (:func:`~ncgdesk.linalg.mat_equal`)."""
    moved = [c.group.mul(s, g) for g in c.group.elements()]  # g -> sg
    k = c.algebra.num_factors
    return all(la.mat_equal(la.mat_mul(c.action[s][t // k].blocks[t % k], w),
                            la.permute_column_blocks(w, moved))
               for t, w in enumerate(c._stacks))


@dataclass(frozen=True)
class GAComplex:
    """Chain complex of projective modules with a unitary group action.

    ``modules[j]`` is the range projection in M_{n_j}(A).  ``diffs[i]``
    maps module i+1 to module i by left multiplication by a matrix over A,
    so it is A-linear; it is kept as that matrix's per-factor blocks,
    factor f's of shape (n_i r_f, n_(i+1) r_f), which the complex checks.
    ``action[g][j]`` is the unitary of g on module j.  The chain, action
    and generator unitarity problems, the character table, the alternating
    isotypic multiplicities per irrep table, the refined number per element
    or tuple of unitaries and, where a refined read needs them, the
    harmonic projections are made on first use and kept.  The action's
    stacks [U_g0 | U_g1 | ...], on which one product per generator proves
    the representation and whose block traces are the character table,
    are kept only until the table is read, on either backend.
    """

    algebra: MultiMatrixAlgebra
    group: FiniteGroup
    modules: tuple  # of Projection
    diffs: tuple    # of per-factor block tuples, len = len(modules) - 1
    action: tuple   # action[g][j]: AlgebraElement

    def __post_init__(self):
        mods = tuple(self.modules)
        if not mods:
            raise ValidationError("complex needs at least one module")
        for q in mods:
            if q.algebra != self.algebra:
                raise ValidationError("module projection over wrong algebra")
        diffs = tuple(tuple(map(la.as_matrix, d)) for d in self.diffs)
        if len(diffs) != len(mods) - 1:
            raise ValidationError("need one differential per adjacent pair")
        for i, d in enumerate(diffs):
            n, m = mods[i].amplification, mods[i + 1].amplification
            if [b.shape for b in d] != [(n * r, m * r)
                                        for r in self.algebra.block_dims]:
                raise ValidationError(f"differential {i} has wrong shape")
        action = tuple(tuple(row) for row in self.action)
        if len(action) != self.group.order or any(
                len(row) != len(mods) for row in action):
            raise ValidationError("action table has wrong shape")
        if any(u.algebra != self.algebra or u.amplification != q.amplification
               for row in action for u, q in zip(row, mods)):
            raise ValidationError("action matrix has wrong shape")
        object.__setattr__(self, "modules", mods)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_multiplicities", {})  # IrrepTable -> M
        object.__setattr__(self, "_refined", {})  # g or unitaries -> number

    @property
    def length(self) -> int:
        return len(self.modules)

    # each fact is checked once per complex; an empty list means it holds
    _chain_verdict = functools.cached_property(_chain_problems)
    _action_verdict = functools.cached_property(_action_problems)
    _unitary_verdict = functools.cached_property(_generator_unitary_problems)

    @functools.cached_property
    def harmonic(self) -> list:
        """Per module, the harmonic projection, built once: Ker(outgoing d)
        intersected with Ker(incoming d adjoint) inside the range of q_j.
        The refined number reads it only where the chain read of some
        module raises NumericalError."""
        out = []
        for j, q in enumerate(self.modules):
            maps = [self.diffs[j - 1]] if j >= 1 else []
            if j < self.length - 1:
                maps.append([la.conj_transpose(b) for b in self.diffs[j]])
            out.append(Projection(kernel_projection(q, maps)))
        return out

    @functools.cached_property
    def _stacks(self):
        """Per module j and factor f, in the order j * k + f of the
        character table's columns (k factors), the blocks U_g of every g
        side by side: W = [U_g0 | U_g1 | ...].  Kept only until
        ``characters`` reads the table from them."""
        return [la.block_matrix([[row[j].blocks[f] for row in self.action]])
                for j in range(self.length)
                for f in range(self.algebra.num_factors)]

    @functools.cached_property
    def characters(self):
        """The chain character table, built once: tr_i(U_g) on module j in
        row g, column j * k + i (k factors), read once the complex has no
        chain or action problem: the block traces of the stacks that
        proved the action, which are then let go."""
        _require(self._chain_verdict or self._action_verdict)
        stacks = self._stacks
        del self.__dict__["_stacks"]
        return la.block_traces(stacks)

    def unitary(self, g: int) -> tuple:
        """Row g of ``action``: the unitary of g on each module."""
        return self.action[g]


def compose(*maps) -> tuple:
    """The blockwise product of per-factor block tuples, each an element's
    ``.blocks`` or a differential."""
    return tuple(functools.reduce(la.mat_mul, blocks) for blocks in zip(*maps))


def _require(problems: list):
    """DomainError naming the first of ``problems``, if there is one."""
    if problems:
        raise DomainError(problems[0])


def validate_complex(c: GAComplex) -> list:
    """All structural invariants; returns the list of violations: the
    chain and action problems, then where a generator is not unitary."""
    return c._chain_verdict + c._action_verdict + c._unitary_verdict


def _unitary_problems(c: GAComplex, maps, who: str) -> list:
    """Where the per-module maps fail u* u = q_j."""
    return [f"{who} is not unitary on module {j}"
            for j, (u, q) in enumerate(zip(maps, c.modules))
            if not (u.star() * u).equals(q.element)]


def _map_problems(c: GAComplex, maps, who: str) -> list:
    """Where the per-module maps leave their module, fail to be unitary on
    it, or fail to commute with the differentials."""
    return [f"{who} leaves module {j}"
            for j, (u, q) in enumerate(zip(maps, c.modules))
            if not (q.element * u * q.element).equals(u)] \
        + _unitary_problems(c, maps, who) + _commute_problems(c, maps, who)


def _commute_problems(c: GAComplex, maps, who: str) -> list:
    """Where the per-module maps fail to commute with the differentials."""
    problems = []
    for i, d in enumerate(c.diffs):
        left, right = compose(maps[i].blocks, d), compose(d, maps[i + 1].blocks)
        if not all(map(la.mat_equal, left, right)):
            problems.append(f"{who} does not commute with d{i}")
    return problems


def kernel_projection(q: Projection, maps) -> AlgebraElement:
    """Projection onto the joint kernel of ``maps`` (per-factor blocks on
    q's module) inside the range of q.  The elimination of each factor's
    stacked r x d matrix is charged r d^2 before any starts."""
    dims = q.algebra.ambient_dims(q.amplification)
    check_budget(sum((sum(m[f].shape[0] for m in maps) + d) * d * d
                     for f, d in enumerate(dims)), "kernel elimination steps")
    comp = AlgebraElement.identity(q.algebra, q.amplification,
                                   exact=q.element.is_exact()) - q.element
    out = []
    for f, cb in enumerate(comp.blocks):
        basis = la.kernel_basis(la.stack_rows(*(m[f] for m in maps), cb))
        d, k = basis.shape
        out.append(la.projection_onto_columns(basis) if k
                   else la.zeros(d, d, type(basis) is la.ExactMatrix))
    return AlgebraElement(q.algebra, q.amplification, tuple(out))


def _natural(x, what: str) -> int:
    """x as a natural number (a float within epsilon of one), else
    ConsistencyError."""
    if isinstance(x, complex):
        n = round(x.real)
        if n >= 0 and scalars_equal(x, n):
            return n
    elif isinstance(x, Fraction) and x.denominator == 1 and x >= 0:
        return int(x)
    raise ConsistencyError(f"{what} {x} is not a natural number")


def _naturals(m, scale: int, what: str) -> list:
    """Rows of the entries of m / scale as natural numbers.  A rational
    matrix whose numerators are all non-negative multiples of den * scale
    is read on those ints; any other goes entry by entry through
    :func:`_natural`, which names the first that is not one."""
    if type(m) is la.ExactMatrix and m.order == 1:
        step, rows = m.den * scale, m.nums[0].tolist()
        if all(x >= 0 and not x % step for row in rows for x in row):
            return [[x // step for x in row] for row in rows]
    return [[_natural(x, what) for x in row]
            for row in la.entries(la.scalar_mul(Fraction(1, scale), m))]


# ---------------------------------------------------------------------------
# isotypic decomposition and the Lefschetz numbers

def isotypic_decompose(c: GAComplex, irreps: IrrepTable) -> tuple:
    """Per irreducible chi, (chi, M_chi): M_chi = sum_j (-1)^j m_chi,j in
    Z^k, m_chi,j the multiplicity K0 class of chi in chain module j.

    m_chi,j,i = (1/|G|) sum_g conj chi(g) tr_i(U_g) on module j: one
    product of the table's dual characters with ``c.characters``.  The
    alternating sum is that of the homology (the Hopf trace formula).
    Built once per (complex, table) and kept on the complex.
    """
    if irreps.group != c.group:
        raise ValidationError("irrep table is for a different group")
    found = c._multiplicities.get(irreps)
    if found is not None:
        return found
    table, duals = c.characters, irreps._duals
    if type(table) is la.FloatMatrix:
        duals = la.FloatMatrix(la.to_numpy(duals))
    k = c.algebra.num_factors
    sums = _naturals(la.mat_mul(duals, table), c.group.order,
                     "isotypic multiplicity")
    out = []
    for irr, row in zip(irreps.irreps, sums):
        total = [0] * k
        for col, m in enumerate(row):
            j, i = divmod(col, k)
            total[i] += (-1) ** j * m
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
    return k0c_chern(lefschetz_first(c, g, irreps), c.algebra, l)


@functools.lru_cache(maxsize=64)  # the default budget admits orders <= 46
def _fourier(t: int):
    """(zeta_t^k for k < t, the t x t matrix zeta_t^(-ks)): row k over t
    maps (tr v^s)_s to the rank of the zeta_t^k eigenspace of v when
    v^t = 1."""
    roots = tuple(Cyclotomic.root_of_unity(t, k) for k in range(t))
    return roots, la.as_matrix(
        [[roots[-k * s % t] for s in range(t)] for k in range(t)])


def _fourier_read(traces, k: int) -> list:
    """Per module, the (zeta_t^m, K0 class) pairs of v, v^t = 1, from t
    rows s of traces tr_i(v^s) whose columns are (module, factor i), k
    factors: the zeta_t^m eigenspace has ranks (1/t) sum_s zeta_t^(-ms)
    tr_i(v^s), the traces of its Fourier spectral projection."""
    t = traces.shape[0]
    roots, fourier = _fourier(t)
    ranks = list(zip(roots, _naturals(la.mat_mul(fourier, traces), t,
                                      "eigenspace rank")))
    return [[(root, K0Class(row[j:j + k])) for root, row in ranks if any(row[j:j + k])]
            for j in range(0, traces.shape[1], k)]


def _table_read(c: GAComplex, g: int) -> list:
    """Per module, the (eigenvalue, K0 class) pairs of U_g, read from rows
    g^s, s < ord(g), of ``c.characters`` (U_g^s = U_(g^s)).  The table
    proves the complex, the representation and that it commutes with d;
    the generators' kept unitarity verdict makes every U_g unitary."""
    table, powers = c.characters, [c.group.identity]
    _require(c._unitary_verdict)
    while (x := c.group.mul(powers[-1], g)) != c.group.identity:
        powers.append(x)
    return _fourier_read(la.select_rows(table, powers), c.algebra.num_factors)


@dataclass(frozen=True)
class GeneralizedLefschetz:
    value: N0Class


def generalized_lefschetz(c: GAComplex, unitaries) -> GeneralizedLefschetz:
    """Alternating sum of spectral classes of U on the chain modules,
    which is that on homology (the Hopf trace formula).

    ``unitaries`` is one AlgebraElement per module; it must be unitary on
    each module and commute with the differentials, but need not come from
    the group action.  An exact row g of the action is read from the
    character table (``_table_read``), others module by module.  The result
    is kept on the complex, keyed by g or the unitaries; a call that raises
    keeps nothing.
    """
    unitaries = tuple(unitaries)
    if len(unitaries) != c.length:
        raise ValidationError("one unitary per module required")
    rows = enumerate(c.action) if unitaries[0].is_exact() else ()  # exact tables only
    key = next((g for g, row in rows if row == unitaries), unitaries)  # g, or the maps
    if key in c._refined:
        return c._refined[key]
    if key is not unitaries:
        parts = _table_read(c, key)
    else:
        _require(c._chain_verdict
                 or _map_problems(c, unitaries, "endomorphism"))
        try:
            forms = [spectral_decompose(u) for u in unitaries]
        except NumericalError:
            # the trace formula needs every module read on chains or every one
            # on homology, so one undecidable chain read sends all to homology,
            # unless homology is the chains and would raise the same again
            hs = c.harmonic
            if all(h.element.equals(q.element) for h, q in zip(hs, c.modules)):
                raise
            forms = [spectral_decompose(h.element * u * h.element)
                     for h, u in zip(hs, unitaries)]
        parts = [n_class(a).support for a in forms]
    result = GeneralizedLefschetz(N0Class(c.algebra, tuple(
        (v, cls if j % 2 == 0 else -cls)
        for j, part in enumerate(parts) for v, cls in part)))
    c._refined[key] = result
    return result


def verify_th4(c: GAComplex, g: int, irreps: IrrepTable) -> bool:
    """Collapsing the refined number recovers the character-valued one."""
    refined = generalized_lefschetz(c, c.unitary(g))
    return h_map(refined.value) == lefschetz_first(c, g, irreps)


def verify_th5(c: GAComplex, g: int, irreps: IrrepTable, l: int) -> bool:
    """The homology-valued number is the character of the refined one."""
    lhs = lefschetz_second(c, g, irreps, l)
    rhs = generalized_chern(generalized_lefschetz(c, c.unitary(g)).value, l)
    return lhs == rhs
