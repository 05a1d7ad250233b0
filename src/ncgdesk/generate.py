"""Seeded random instances: exact unitaries, normal elements, projections,
homomorphisms, and equivariant complexes.

Everything is exact by construction: rotations use Pythagorean cosines,
phases are fourth roots of unity, and complex generation builds the group
action first so that averaging makes the differentials equivariant and a
kernel projection forces d o d = 0.  A d x d unitary is built on d integer
columns over one denominator, about d^3 integer operations, and each
generator charges those d^3 per unitary to the budget before it builds
anything.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import linalg as la
from .algebra import (
    AlgebraElement,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
)
from .budget import check_budget
from .errors import ValidationError
from .lefschetz import GAComplex, IrrepTable, compose, kernel_projection
from .ngroup import K0Class, N0Class
from .scalars import Cyclotomic

_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
# the phases 1, -1, i, -i as (plane, sign): a column's real or imaginary plane
_PHASES = ((0, 1), (0, -1), (1, 1), (1, -1))


def _charge_unitaries(dims) -> None:
    """Charge one random unitary per d in ``dims`` at d^3, the integer
    operations of its build: d rotations, each rewriting d columns of d."""
    check_budget(sum(d ** 3 for d in dims), "random unitary products")


def _rotated_columns(d: int, rng: random.Random):
    """(cols, den, phases) of a random d x d unitary: the integer columns
    of a product of d Pythagorean plane rotations over their one
    denominator, and the quarter-turn phase of each column."""
    cols = [[int(s == t) for s in range(d)] for t in range(d)]
    den = 1
    for _ in range(d if d >= 2 else 0):
        i, j = rng.sample(range(d), 2)
        a, b, c = rng.choice(_TRIPLES)
        x, y = cols[i], cols[j]
        # columns i, j become (a x + b y) / c and (a y - b x) / c; the
        # others stay, as c times themselves over the new denominator
        cols = [[c * v for v in col] for col in cols]
        cols[i] = [a * p + b * q for p, q in zip(x, y)]
        cols[j] = [a * q - b * p for p, q in zip(x, y)]
        den *= c
    return cols, den, [rng.choice(_PHASES) for _ in range(d)]


def random_exact_unitary(d: int, rng: random.Random):
    """Product of Pythagorean plane rotations and quarter-turn phases."""
    _charge_unitaries((d,))
    cols, den, phases = _rotated_columns(d, rng)
    planes = [[[0] * d for _ in range(d)] for _ in range(2)]
    for t, ((plane, sign), col) in enumerate(zip(phases, cols)):
        for s, v in enumerate(col):
            planes[plane][s][t] = sign * v
    return la.from_numerators(4, planes, den)


def _span_projections(cols, den: int, parts) -> list:
    """u_S u_S* for each column set S in ``parts``, u the unitary whose
    rotation part has the columns cols / den.  The phases cancel, so u_S u_S*
    is r_S r_S^T for the rotation part r, that is v* v for v the rows S of
    r^T, whose rows are ``cols``."""
    d = len(cols)
    rows = la.from_numerators(1, [cols], den)
    out = []
    for keep in parts:
        v = la.select_rows(rows, keep)
        out.append(la.mat_mul(la.conj_transpose(v), v) if keep
                   else la.zeros(d, d))
    return out


def random_projection(algebra: MultiMatrixAlgebra, rng: random.Random,
                      m: int = 1, nonzero: bool = False) -> Projection:
    _charge_unitaries(algebra.ambient_dims(m))
    while True:
        blocks = []
        total = 0
        for d in algebra.ambient_dims(m):
            keep = [s for s in range(d) if rng.randint(0, 1)]
            total += len(keep)
            cols, den, _ = _rotated_columns(d, rng)
            blocks += _span_projections(cols, den, [keep])
        if total or not nonzero:
            return Projection(AlgebraElement(algebra, m, tuple(blocks)))


def random_gaussian_rational(rng: random.Random, span: int = 2) -> Cyclotomic:
    """Real and imaginary parts in quarters between -span and span."""
    def part():
        return Fraction(rng.randint(-4 * span, 4 * span), 4)
    return Cyclotomic.gaussian(part(), part())


def random_spectrum(rng: random.Random, count: int,
                    near_gap: Fraction | None = None):
    """Distinct nonzero spectral values, optionally with one tight pair."""
    values = []
    while len(values) < count:
        z = random_gaussian_rational(rng)
        if not z.is_zero() and all(not (z - w).is_zero() for w in values):
            values.append(z)
    if near_gap is not None and values:
        twin = values[0] + Cyclotomic.from_rational(near_gap)
        if not twin.is_zero() and all(not (twin - w).is_zero() for w in values):
            values.append(twin)
    return values


def random_orthogonal_family(algebra: MultiMatrixAlgebra, rng: random.Random,
                             parts: int, m: int = 1):
    """Pairwise orthogonal projections from one conjugated diagonal split."""
    dims = algebra.ambient_dims(m)
    _charge_unitaries(dims)
    bases = [_rotated_columns(d, rng)[:2] for d in dims]
    assignment = [[rng.randrange(parts) for _ in range(d)] for d in dims]
    per_factor = [_span_projections(cols, den, [
        [s for s, part in enumerate(split) if part == k] for k in range(parts)])
        for (cols, den), split in zip(bases, assignment)]
    return [Projection(AlgebraElement(algebra, m, blocks))
            for blocks in zip(*per_factor)]


def random_normal(algebra: MultiMatrixAlgebra, rng: random.Random,
                  m: int = 1, near_gap: Fraction | None = None) -> SpectralForm:
    """A normal element as an exact spectral form with one to three values
    (plus a near twin of the first for ``near_gap``) and random projections."""
    values = random_spectrum(rng, rng.randint(1, 3), near_gap)
    family = random_orthogonal_family(algebra, rng, len(values) + 1, m)
    pairs = tuple((v, p) for v, p in zip(values, family[:-1]))
    return SpectralForm.from_pairs(algebra, m, pairs)


def random_n0class(algebra: MultiMatrixAlgebra, rng: random.Random) -> N0Class:
    """A class of up to four values, each of rank -3 to 3 on every factor."""
    values = random_spectrum(rng, rng.randint(0, 4))
    k = algebra.num_factors
    support = tuple(
        (v, K0Class(tuple(rng.randint(-3, 3) for _ in range(k))))
        for v in values)
    return N0Class(algebra, support)


def random_hom(rng: random.Random, max_factors: int = 2):
    """A unital embedding with random multiplicities and a random unitary."""
    src = MultiMatrixAlgebra(tuple(
        rng.randint(1, 2) for _ in range(rng.randint(1, max_factors))))
    mult = []
    target_dims = []
    for _ in range(rng.randint(1, max_factors)):
        row = [rng.randint(0, 2) for _ in src.block_dims]
        if not any(row):
            row[rng.randrange(len(row))] = 1
        mult.append(tuple(row))
        target_dims.append(sum(m * r for m, r in zip(row, src.block_dims)))
    target = MultiMatrixAlgebra(tuple(target_dims))
    unitaries = tuple(random_exact_unitary(d, rng) for d in target_dims)
    return StarHomomorphism(src, target, tuple(mult), unitaries)


# ---------------------------------------------------------------------------
# equivariant complexes

def _module_action(algebra, rep_matrices, p: Projection):
    """Action matrices rho(g) kron p on the module p-stacked-dim(rho) times."""
    out = []
    for rho in map(la.as_matrix, rep_matrices):
        blocks = tuple(la.kron(rho, b) for b in p.element.blocks)
        out.append(AlgebraElement(algebra, rho.shape[0], blocks))
    return out


def _random_module_rep(irreps: IrrepTable, rng: random.Random, max_dim: int):
    """Direct sum of irreps with total dimension within the cap."""
    pool = [p for p in irreps.irreps if p.dim <= max_dim]
    chosen = [rng.choice(pool)]
    total = chosen[0].dim
    while total < max_dim and rng.random() < 0.5:
        # never empty: a complete table holds the 1-dimensional trivial irrep
        more = [p for p in irreps.irreps if p.dim <= max_dim - total]
        nxt = rng.choice(more)
        chosen.append(nxt)
        total += nxt.dim
    return [la.block_diag(*[p.matrices[g] for p in chosen])
            for g in irreps.group.elements()], total


def _random_a_matrix(algebra, target_size, source_size, rng):
    """Per-factor blocks of a random target_size x source_size matrix over A."""
    return tuple(la.as_matrix([[random_gaussian_rational(rng, span=1)
                                for _ in range(source_size * r)]
                               for _ in range(target_size * r)])
                 for r in algebra.block_dims)


def random_ga_complex(algebra: MultiMatrixAlgebra, irreps: IrrepTable,
                      rng: random.Random, length: int = 3) -> GAComplex:
    """A valid complex: modules carrying representations of dimension at
    most 2, averaged equivariant differentials, and a kernel projection
    enforcing d o d = 0."""
    group = irreps.group
    length = max(1, length)
    modules = []
    actions = []  # per module, list over g
    for _ in range(length):
        rep, dim = _random_module_rep(irreps, rng, 2)
        p = random_projection(algebra, rng, nonzero=True)
        act = _module_action(algebra, rep, p)
        modules.append(Projection(act[group.identity]))
        actions.append(act)
    diffs = []
    for i in range(length - 1):
        raw = _random_a_matrix(algebra, modules[i].amplification,
                               modules[i + 1].amplification, rng)
        terms = [compose(actions[i][g].blocks, raw,
                         actions[i + 1][group.inverse(g)].blocks)
                 for g in group.elements()]
        avg = tuple(la.scalar_mul(Fraction(1, group.order),
                                  functools.reduce(la.mat_add, blocks))
                    for blocks in zip(*terms))
        if i >= 1:
            avg = compose(kernel_projection(modules[i], [diffs[i - 1]]).blocks,
                          avg)
        diffs.append(avg)
    action_table = tuple(tuple(actions[j][g] for j in range(length))
                         for g in group.elements())
    return GAComplex(algebra, group, tuple(modules), tuple(diffs),
                     action_table)


def acyclic_augmentation(c: GAComplex, rng: random.Random) -> GAComplex:
    """c plus an equivariant acyclic two-term summand 0 -> M -> M -> 0."""
    if c.length < 2:
        raise ValidationError("need at least two modules to augment")
    p = random_projection(c.algebra, rng, nonzero=True)
    trivial_rep = [((Fraction(1),),) for _ in c.group.elements()]
    act = _module_action(c.algebra, trivial_rep, p)
    q = Projection(act[c.group.identity])
    modules = list(c.modules)
    diffs = list(c.diffs)
    actions = [list(row) for row in c.action]
    # append the summand to degrees 0 and 1 via direct sums
    new_modules = [modules[0].direct_sum(q), modules[1].direct_sum(q)] \
        + modules[2:]
    new_diffs = [tuple(map(la.block_diag, diffs[0], q.element.blocks))]
    if len(diffs) > 1:
        new_diffs.append(_pad_target_rows(diffs[1], q))
        new_diffs.extend(diffs[2:])
    new_action = []
    for g in c.group.elements():
        row = [
            actions[g][0].direct_sum(act[g]),
            actions[g][1].direct_sum(act[g]),
        ] + actions[g][2:]
        new_action.append(tuple(row))
    return GAComplex(c.algebra, c.group, tuple(new_modules), tuple(new_diffs),
                     tuple(new_action))


def _pad_target_rows(d, q: Projection) -> tuple:
    """Extend the target of d by zero rows for an appended summand."""
    return tuple(la.stack_rows(b, la.zeros(qb.shape[0], b.shape[1]))
                 for b, qb in zip(d, q.element.blocks))
