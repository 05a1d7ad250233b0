"""The four benchmark workloads, written against the public ncgdesk API.

Every workload exposes:

- ``generate(seed, i)``: instance ``i`` for ``seed`` (set-up, untimed);
- ``warm()``: set-up work users pay once per process (untimed); returns
  the homology spaces it built;
- ``run(instance)``: the timed work; returns ``(ok, answer)``;
- ``canonical(instance, answer)``: a JSON-able form of the exact answers
  for the digest, computed after the timed phase.

Each workload cycles through a fixed schedule of instance *structures*
(homomorphism and spectrum size; algebra, degree and gap; group, algebra
and complex length).  Instance cost is set mostly by structure and is
heavy-tailed, so a fixed schedule gives every run and every seed the same
mix of cheap and costly instances.  The seed draws every other value:
eigenvalues, eigenprojections, Borel sets, module maps and group
elements.

Library calls go through module attributes (``algebra.apply_hom``), so
that the tracer's wrappers, installed after import, see them.
"""

import random
from fractions import Fraction

from ncgdesk import algebra, chern, cyclic, generate as gen, lefschetz, \
    ngroup, serialize

from plan import CYCLIC_ALGEBRAS


def _rng(workload, seed, i):
    # str seeds go through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{i}")


def _normal(alg, rng, count, near_gap=None):
    """generate.random_normal with a set spectrum size.

    ``count`` eigenvalues (as many as the diagonal allows), plus the 1/512
    twin when ``near_gap`` is given, each with a nonzero eigenprojection:
    random_normal may leave an eigenvalue's part of the diagonal empty,
    which changes the instance's cost by up to 10x.
    """
    count = max(1, min(count, sum(alg.block_dims) - bool(near_gap)))
    values = gen.random_spectrum(rng, count, near_gap)
    while True:
        family = gen.random_orthogonal_family(alg, rng, len(values) + 1)
        if not any(p.element.is_zero() for p in family[:len(values)]):
            return algebra.SpectralForm.from_pairs(alg, 1,
                                                   tuple(zip(values, family)))


class Spectral:
    """Spectral projections and N0 functoriality under *-homomorphisms."""

    name = "spectral"

    def generate(self, seed, i):
        # the homomorphism stream ignores the seed: the target size and the
        # entry sizes of its unitaries set most of the cost
        phi = gen.random_hom(random.Random(f"spectral-hom:{i}"),
                             max_factors=3)
        rng = _rng(self.name, seed, i)
        a = _normal(phi.source, rng, 1 + i % 3)
        points = [v for v in a.eigenvalues() if rng.random() < 0.6]
        points.append(gen.random_gaussian_rational(rng))
        e = algebra.BorelSetModel(tuple(p for p in points if not p.is_zero()))
        return phi, a, e

    def warm(self):
        return ()

    def run(self, instance):
        phi, a, e = instance
        commute = algebra.check_hom_spectral_commute(phi, a, e)
        pushed = ngroup.n_class(algebra.spectral_decompose(
            algebra.apply_hom(phi, a.element())))
        return commute and pushed == ngroup.functorial_map(
            phi, ngroup.n_class(a)), pushed

    def canonical(self, instance, answer):
        return serialize.n0_to_json(answer)


class CyclicBuild:
    """Cold hc_dims over a fixed list, checked against HC = C^k, 0, C^k...

    hc_dims(A, n) for n = 0, 1, ... in one process: each call builds degree
    n and finds the lower ones cached, so together they do the work of one
    cold hc_dims(A, maximal degree), and the machine-speed probes between
    them time its degrees one by one.  The list is fixed, so the seed is
    unused.
    """

    name = "cyclic_build"

    def generate(self, seed, i):
        n = i % sum(degree + 1 for _, degree in CYCLIC_ALGEBRAS)
        for blocks, degree in CYCLIC_ALGEBRAS:
            if n <= degree:
                return algebra.MultiMatrixAlgebra(blocks), n
            n -= degree + 1

    def warm(self):
        return ()

    def run(self, instance):
        alg, degree = instance
        dims = cyclic.hc_dims(alg, degree)
        k = alg.num_factors
        return dims == [k if n % 2 == 0 else 0
                        for n in range(degree + 1)], dims

    def canonical(self, instance, answer):
        return {"blocks": list(instance[0].block_dims), "dims": answer}


_CHERN_ALGEBRAS = ((1, 1), (2,), (1, 2))
# (algebra, l) schedule.  C+M_2 stops at l = 1: there one near-gap instance
# at l = 2 takes up to 7 s, so a run's time would follow whether its seed
# drew one.  M_2 at l = 2 (about 0.4-1 s) still gives the tail.
_CHERN_SCHEDULE = (((1, 1), 0), ((2,), 0), ((1, 2), 0), ((1, 1), 1),
                   ((2,), 1), ((1, 2), 1), ((1, 1), 2), ((2,), 2))


class ChernQuery:
    """T_direct against both cover policies, and Theorem 8, on warm spaces."""

    name = "chern_query"

    def generate(self, seed, i):
        blocks, l = _CHERN_SCHEDULE[i % len(_CHERN_SCHEDULE)]
        # two instances in five get a 1/512 twin pair, the near-gap share
        # battery_th6 draws; 5 and 8 are coprime, so every 40 instances
        # give each (algebra, l) the same share
        gap = Fraction(1, 512) if i % 5 < 2 else None
        rng = _rng(self.name, seed, i)
        a = _normal(algebra.MultiMatrixAlgebra(blocks), rng, 1 + i % 3, gap)
        return a, l

    def warm(self):
        return [cyclic.hc_space(algebra.MultiMatrixAlgebra(blocks), 2 * l)
                for blocks in _CHERN_ALGEBRAS for l in range(3)]

    def run(self, instance):
        a, l = instance
        direct = chern.T_direct(a, l)
        ok = chern.T_cover(a, l, policy="smallest") == direct \
            and chern.T_cover(a, l, policy="largest") == direct \
            and chern.verify_th8(ngroup.n_class(a), l)
        return ok, direct

    def canonical(self, instance, answer):
        return serialize.hc_class_to_json(answer)


class Lefschetz:
    """Theorems 4 and 5 at l = 0, plus invariance under acyclic summands."""

    name = "lefschetz"

    def __init__(self):
        self.tables = (lefschetz.IrrepTable.cyclic(2),
                       lefschetz.IrrepTable.cyclic(3),
                       lefschetz.IrrepTable.symmetric_3())

    def generate(self, seed, i):
        table = self.tables[i % 3]
        blocks = ((1, 1), (2,))[i // 3 % 2]
        length = 1 + i // 6 % 3
        rng = _rng(self.name, seed, i)
        c = gen.random_ga_complex(algebra.MultiMatrixAlgebra(blocks), table,
                                  rng, length=length)
        g = rng.randrange(table.group.order)
        # one instance in three: C+C complexes of length 2 and 3
        aug = gen.acyclic_augmentation(c, rng) \
            if blocks == (1, 1) and length >= 2 else None
        return c, g, table, aug

    def warm(self):
        return ()

    def run(self, instance):
        c, g, table, aug = instance
        ok = lefschetz.verify_th4(c, g, table) \
            and lefschetz.verify_th5(c, g, table, 0)
        if ok and aug is not None:
            ok = lefschetz.lefschetz_first(c, g, table) \
                == lefschetz.lefschetz_first(aug, g, table) \
                and lefschetz.generalized_lefschetz(c, c.unitary(g)).value \
                == lefschetz.generalized_lefschetz(aug, aug.unitary(g)).value \
                and lefschetz.lefschetz_second(c, g, table, 0) \
                == lefschetz.lefschetz_second(aug, g, table, 0)
        return ok, None

    def canonical(self, instance, answer):
        c, g, table, _ = instance
        return {
            "first": serialize.k0c_to_json(
                lefschetz.lefschetz_first(c, g, table)),
            "refined": serialize.n0_to_json(
                lefschetz.generalized_lefschetz(c, c.unitary(g)).value),
            "second": serialize.hc_class_to_json(
                lefschetz.lefschetz_second(c, g, table, 0)),
        }


WORKLOADS = {w.name: w for w in (Spectral, CyclicBuild, ChernQuery,
                                 Lefschetz)}
