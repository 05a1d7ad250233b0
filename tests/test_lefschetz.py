import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import lefschetz, linalg as la, serialize
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection, \
    spectral_decompose
from ncgdesk.errors import ConsistencyError, DomainError, NumericalError, \
    ResourceError, ValidationError
from ncgdesk.generate import acyclic_augmentation, random_ga_complex
from ncgdesk.lefschetz import (
    FiniteGroup,
    GAComplex,
    Irrep,
    IrrepTable,
    generalized_lefschetz,
    lefschetz_first,
    lefschetz_second,
    validate_complex,
    verify_th4,
    verify_th5,
)
from ncgdesk.chern import chern_projection
from ncgdesk.cyclic import zero_class
from ncgdesk.ngroup import K0Class, K0TensorC, N0Class, h_map, n_class
from ncgdesk.scalars import Cyclotomic, conj_scalar, scalar_is_zero

C = MultiMatrixAlgebra((1,))
A = MultiMatrixAlgebra((1, 1))
M2 = MultiMatrixAlgebra((2,))
seeds = st.integers(0, 10 ** 6)
TABLES = [IrrepTable.cyclic(2), IrrepTable.cyclic(3), IrrepTable.symmetric_3()]


class TestFiniteGroup:
    def test_order_is_charged_to_the_budget(self):
        # n^3 associativity checks: the default budget admits order 46
        assert FiniteGroup.cyclic_group(46).order == 46
        table = tuple(tuple((i + j) % 47 for j in range(47)) for i in range(47))
        for build in (lambda: FiniteGroup.cyclic_group(47),
                      lambda: FiniteGroup(table),
                      lambda: IrrepTable.cyclic(10 ** 9)):
            with pytest.raises(ResourceError, match="group associativity checks"):
                build()

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup(((0, 1), (0, 1)))  # second row is not a bijection

    def test_cyclic_structure(self):
        g = FiniteGroup.cyclic_group(4)
        assert g.order == 4
        assert g.mul(3, 2) == 1
        assert g.inverse(3) == 1

    def test_s3_is_nonabelian(self):
        g = FiniteGroup.symmetric_group_3()
        assert any(g.mul(a, b) != g.mul(b, a)
                   for a in g.elements() for b in g.elements())

    def test_irrep_tables_validate(self):
        for table in TABLES:
            assert sum(p.dim ** 2 for p in table.irreps) == table.group.order

    def test_s3_table(self):
        # element a + 3b = r^a s^b, read from the standard irrep's matrices
        assert FiniteGroup.symmetric_group_3().table == (
            (0, 1, 2, 3, 4, 5),
            (1, 2, 0, 4, 5, 3),
            (2, 0, 1, 5, 3, 4),
            (3, 5, 4, 0, 2, 1),
            (4, 3, 5, 1, 0, 2),
            (5, 4, 3, 2, 1, 0))
        table = IrrepTable.symmetric_3()
        assert table.group == FiniteGroup.symmetric_group_3()
        std = table.irreps[2].matrices
        assert all(std[table.group.mul(x, y)] == la.mat_mul(std[x], std[y])
                   for x in range(6) for y in range(6))

    def test_generators(self):
        assert FiniteGroup.cyclic_group(1).generators == ()
        assert FiniteGroup.cyclic_group(4).generators == (1,)
        assert FiniteGroup.symmetric_group_3().generators == (1, 3)
        klein = FiniteGroup(tuple(tuple(a ^ b for b in range(4))
                                  for a in range(4)))
        assert klein.generators == (1, 2)

    def test_character_orthogonality_enforced(self):
        g = FiniteGroup.cyclic_group(2)
        one = Fraction(1)
        # two copies of the trivial representation are not orthogonal
        bad = (Irrep("a", 1, (((one,),), ((one,),))),
               Irrep("b", 1, (((one,),), ((one,),))))
        with pytest.raises(ValidationError):
            IrrepTable(g, bad)

    def test_irreps_checked_as_representations(self):
        w = Cyclotomic.root_of_unity(3)
        one = Cyclotomic.from_rational(1)
        bad = (Irrep("chi0", 1, (((one,),),) * 3),
               Irrep("chi1", 1, (((one,),), ((w,),), ((w,),))),  # 2 -> w, not w^2
               Irrep("chi2", 1, (((one,),), ((w * w,),), ((w,),))))
        with pytest.raises(ValidationError,
                           match="chi1: not a representation at"):
            IrrepTable(FiniteGroup.cyclic_group(3), bad)
        with pytest.raises(ValidationError, match="identity does not act as 1"):
            IrrepTable(FiniteGroup.cyclic_group(1),
                       (Irrep("two", 1, (((Fraction(2),),),)),))

    def test_irreps_checked_on_generators(self, monkeypatch):
        # |S| * n products per irrep and one for the orthogonality check
        calls = []
        real = la.mat_mul
        monkeypatch.setattr(la, "mat_mul",
                            lambda a, b: calls.append(1) or real(a, b))
        IrrepTable.cyclic(12)
        assert len(calls) <= 12 ** 2 + 1


def two_term_complex(algebra, n=1):
    """0 -> A -> A -> 0 with the identity differential and trivial action."""
    q = Projection.identity(algebra, n)
    group = FiniteGroup.cyclic_group(2)
    action = tuple((q.element, q.element) for _ in group.elements())
    return GAComplex(algebra, group, (q, q), (q.element.blocks,), action)


class TestComplexes:
    def test_two_term_identity_is_valid_and_acyclic(self):
        c = two_term_complex(A)
        assert validate_complex(c) == []
        for h in c.harmonic:
            assert h.element.is_zero()

    def test_lefschetz_of_acyclic_is_zero(self):
        c = two_term_complex(A)
        table = IrrepTable.cyclic(2)
        for g in (0, 1):
            assert h_map(generalized_lefschetz(c, c.unitary(g)).value) \
                == lefschetz_first(c, g, table)
            assert lefschetz_first(c, g, table).is_zero()

    def test_single_module_counts_fixed_space(self):
        # one module A with the sign action of Z/2: L1(e) = dim, L1(g) = -dim
        q = Projection.identity(C)
        group = FiniteGroup.cyclic_group(2)
        action = ((q.element, ), (q.element.scale(-1),))
        c = GAComplex(C, group, (q,), (), action)
        assert validate_complex(c) == []
        table = IrrepTable.cyclic(2)
        assert lefschetz_first(c, 0, table).coeffs == (Fraction(1),)
        assert lefschetz_first(c, 1, table).coeffs == (Fraction(-1),)

    def test_refined_number_records_eigenvalues(self):
        q = Projection.identity(C)
        group = FiniteGroup.cyclic_group(2)
        action = ((q.element, ), (q.element.scale(-1),))
        c = GAComplex(C, group, (q,), (), action)
        x = generalized_lefschetz(c, c.unitary(1)).value
        assert x.support == ((-1, K0Class((1,))),)

    def test_differential_shape_validated(self):
        q = Projection.identity(A)
        d = q.element.blocks
        group = FiniteGroup.cyclic_group(2)
        action = tuple((q.element,) for _ in group.elements())
        with pytest.raises(ValidationError):
            GAComplex(A, group, (q,), (d,), action)  # too many differentials

    @pytest.mark.parametrize("d", [
        (((1,),), ((1,), (0,))),  # factor 1's block is 2 x 1, not 1 x 1
        (((1,),),) * 3,           # three blocks over two factors
        (((1,),),),               # one block over two factors
    ], ids=["wrong block shape", "too many blocks", "too few blocks"])
    def test_differential_blocks_checked_by_the_complex(self, d):
        q = Projection.identity(A)
        action = tuple((q.element, q.element) for _ in range(2))
        with pytest.raises(ValidationError, match="differential 0 has wrong shape"):
            GAComplex(A, FiniteGroup.cyclic_group(2), (q, q), (d,), action)

    def _rotation_on_c(self):
        """C with a trivial action, and the infinite-order unitary (3+4i)/5."""
        q = Projection.identity(C)
        c = GAComplex(C, FiniteGroup.cyclic_group(1), (q,), (), ((q.element,),))
        phase = Cyclotomic.gaussian(Fraction(3, 5), Fraction(4, 5))
        return c, AlgebraElement(C, 1, (((phase,),),))

    def _fail_exact(self, monkeypatch, error):
        """Make every exact decomposition raise ``error``; returns the
        list of the elements decomposed, in call order."""
        real, seen = lefschetz.spectral_decompose, []

        def decompose(x):
            seen.append(x)
            if x.is_exact():
                raise error("exact decomposition failed")
            return real(x)
        monkeypatch.setattr(lefschetz, "spectral_decompose", decompose)
        return seen

    def test_numerical_error_is_not_retried_in_floats(self, monkeypatch):
        seen = self._fail_exact(monkeypatch, NumericalError)
        c, u = self._rotation_on_c()
        with pytest.raises(NumericalError, match="exact decomposition failed"):
            generalized_lefschetz(c, [u])
        assert [x.is_exact() for x in seen] == [True]

    def test_undecidable_exact_unitary_raises(self):
        # as the action of 1 in Z/25, zeta_25 is read from the character
        # table; passed on its own it has order 25, beyond the chain's
        # Fourier read, and is not a Gaussian rational: no exact class is
        # found, and none in floats
        q = Projection.identity(C)
        z = q.element.scale(Cyclotomic.root_of_unity(25, 1))
        c = GAComplex(C, FiniteGroup.cyclic_group(25), (q,), (), tuple(
            (q.element.scale(Cyclotomic.root_of_unity(25, g)),)
            for g in range(25)))
        assert validate_complex(c) == []
        first = generalized_lefschetz(c, c.unitary(1))
        assert first.value.support == (
            (Cyclotomic.root_of_unity(25, 1), K0Class((1,))),)
        assert generalized_lefschetz(c, [z]) is first  # a row, by value
        x = generalized_lefschetz(c, c.unitary(5)).value  # zeta_5: order 5
        assert x.support == ((Cyclotomic.root_of_unity(5, 1), K0Class((1,))),)
        trivial = GAComplex(C, FiniteGroup.cyclic_group(1), (q,), (),
                            ((q.element,),))
        for _ in range(2):
            with pytest.raises(NumericalError):
                generalized_lefschetz(trivial, [z])

    def test_other_errors_are_not_retried_in_floats(self, monkeypatch):
        self._fail_exact(monkeypatch, TypeError)
        c, u = self._rotation_on_c()
        with pytest.raises(TypeError):
            generalized_lefschetz(c, [u])

    def test_non_invariant_endomorphism_rejected(self):
        c = two_term_complex(A)
        bad = [AlgebraElement.identity(A),
               AlgebraElement.identity(A).scale(-1)]
        with pytest.raises(DomainError):
            generalized_lefschetz(c, bad)  # does not commute with d

    def test_rejected_endomorphism_raises_on_every_call(self):
        c = two_term_complex(A)
        bad = [AlgebraElement.identity(A),
               AlgebraElement.identity(A).scale(-1)]
        for _ in range(3):
            with pytest.raises(DomainError, match="does not commute with d0"):
                generalized_lefschetz(c, bad)

    def test_distinct_unitaries_never_share_a_memo_entry(self):
        c, u = self._rotation_on_c()
        first = generalized_lefschetz(c, [u])
        assert generalized_lefschetz(c, (u,)) is first
        twin = AlgebraElement(C, 1, u.blocks)  # another object, equal value
        assert generalized_lefschetz(c, [twin]) is first
        other = generalized_lefschetz(c, [u.star()])
        assert other is not first and other != first
        assert generalized_lefschetz(c, [u.star()]) is other

    def _i_on_c(self):
        """C with Z/2 acting by i: i * i = -1 is not the identity's action."""
        one = AlgebraElement.identity(C)
        return GAComplex(C, FiniteGroup.cyclic_group(2), (Projection(one),),
                         (), ((one,), (one.scale(Cyclotomic.gaussian(0, 1)),)))

    def _swap_against_d(self):
        """0 -> C -> C^2 -> 0 with d = e1, and Z/2 swapping e1 and e2: a
        representation, but one that does not commute with d."""
        q0, q1 = Projection.identity(C, 2), Projection.identity(C)
        swap = AlgebraElement(C, 2, (((0, 1), (1, 0)),))
        return GAComplex(C, FiniteGroup.cyclic_group(2), (q0, q1),
                         ((((1,), (0,)),),),
                         ((q0.element, q1.element), (swap, q1.element)))

    def _zero_on_c(self):
        """C with Z/2 acting by 0: multiplicative, but e does not act as 1."""
        zero = AlgebraElement.zero(C)
        return GAComplex(C, FiniteGroup.cyclic_group(2),
                         (Projection.identity(C),), (), ((zero,), (zero,)))

    @pytest.mark.parametrize("build",
                             ["_i_on_c", "_swap_against_d", "_zero_on_c"])
    def test_non_representation_rejected(self, build):
        c = getattr(self, build)()
        message = {"_i_on_c": r"action is not multiplicative at \(1,1\) on module 0",
                   "_swap_against_d": "action of 1 does not commute with d0",
                   "_zero_on_c": "identity does not act as the projection "
                                 "on module 0"}[build]
        assert validate_complex(c)
        for _ in range(2):
            with pytest.raises(DomainError, match=message):
                lefschetz_first(c, 1, IrrepTable.cyclic(2))
            with pytest.raises(DomainError, match=message):
                generalized_lefschetz(c, c.unitary(1))

    def test_unitary_generators_of_a_non_representation(self):
        # i is unitary although i * i is not the identity's action: only
        # the multiplicativity problem is listed, none of unitarity
        assert validate_complex(self._i_on_c()) == [
            "action is not multiplicative at (1,1) on module 0"]

    def test_harmonic_check_needs_a_representation_on_the_module(self):
        # Z/2 acts by 2 on C and by diag(1, 2) on C^2, d0 = (0 1): not a
        # representation on either module, although its compression to the
        # harmonic part e1 of C^2 is one
        q0, q1 = Projection.identity(C), Projection.identity(C, 2)
        two = Fraction(2)
        c = GAComplex(C, FiniteGroup.cyclic_group(2), (q0, q1),
                      ((((0, 1),),),),
                      ((q0.element, q1.element),
                       (q0.element.scale(two),
                        AlgebraElement.diagonal(C, [[Fraction(1), two]], 2))))
        assert "action of 1 is not unitary on module 0" in validate_complex(c)
        with pytest.raises(DomainError, match="action is not multiplicative "
                                              r"at \(1,1\) on module 0"):
            lefschetz_first(c, 1, IrrepTable.cyclic(2))

    def test_non_unitary_representation_has_multiplicities(self):
        # C^2 with Z/2 acting by the involution [[1, 1], [0, -1]]: a
        # representation, so its isotypic idempotents have ranks, although
        # they are not self-adjoint
        q = Projection.identity(C, 2)
        flip = AlgebraElement(C, 2, (((1, 1), (0, -1)),))
        c = GAComplex(C, FiniteGroup.cyclic_group(2), (q,), (),
                      ((q.element,), (flip,)))
        assert validate_complex(c) == ["action of 1 is not unitary on module 0"]
        table = IrrepTable.cyclic(2)
        assert lefschetz_first(c, 0, table).coeffs == (2,)
        assert lefschetz_first(c, 1, table).coeffs == (0,)
        with pytest.raises(DomainError, match="of 1 is not unitary on module 0"):
            generalized_lefschetz(c, c.unitary(1))
        # the verdict is on the generators, so every row g raises, e too
        with pytest.raises(DomainError, match="of 1 is not unitary on module 0"):
            generalized_lefschetz(c, c.unitary(0))

    def test_non_unitary_equivariant_representation_has_homology_multiplicities(self):
        # 0 -> C^2 -> C -> 0 with d0 = (2 1) and Z/2 acting by the
        # involution [[1, 1], [0, -1]] on C^2 and trivially on C: d0 is
        # onto, so H_0 = 0, and H_1 = Ker d0 = span (1, -2), which the
        # involution negates; L1(g) = -sign(g) on one factor
        q0, q1 = Projection.identity(C), Projection.identity(C, 2)
        flip = AlgebraElement(C, 2, (((1, 1), (0, -1)),))
        c = GAComplex(C, FiniteGroup.cyclic_group(2), (q0, q1),
                      ((((2, 1),),),),
                      ((q0.element, q1.element), (q0.element, flip)))
        assert validate_complex(c) == ["action of 1 is not unitary on module 1"]
        table = IrrepTable.cyclic(2)
        assert lefschetz.isotypic_decompose(c, table) == (
            (table.irreps[0], (0,)), (table.irreps[1], (-1,)))
        assert lefschetz_first(c, 0, table).coeffs == (-1,)
        assert lefschetz_first(c, 1, table).coeffs == (1,)

    def _chain_c(self, diffs):
        """C -> C -> C with the given scalar differentials, trivial Z/2."""
        q = Projection.identity(C)
        return GAComplex(C, FiniteGroup.cyclic_group(2), (q, q, q),
                         tuple((((Fraction(x),),),) for x in diffs),
                         ((q.element,) * 3,) * 2)

    def _leaves_range(self):
        """C^2 -> C with d = (1 1) on the module e1 of C^2: d maps e2, so
        d q != d."""
        q0, q1 = Projection.identity(C), Projection(
            AlgebraElement.diagonal(C, [[Fraction(1), Fraction(0)]], 2))
        return GAComplex(C, FiniteGroup.cyclic_group(2), (q0, q1),
                         ((((1, 1),),),),
                         ((q0.element, q1.element),) * 2)

    @pytest.mark.parametrize("build, message", [
        (lambda self: self._chain_c((1, 1)), "d0 o d1 is not zero"),
        (lambda self: self._leaves_range(),
         "differential 0 does not respect the ranges")],
        ids=["d o d != 0", "d leaves its range"])
    def test_non_complex_rejected(self, build, message):
        c = build(self)
        assert validate_complex(c)[0] == message
        for _ in range(2):
            with pytest.raises(DomainError, match=message):
                lefschetz_first(c, 0, IrrepTable.cyclic(2))
            with pytest.raises(DomainError, match=message):
                generalized_lefschetz(c, c.unitary(0))

    def _harmonic_read(self, c, g):
        """The refined number of c's action of g on the same chain with
        Z/1 acting trivially, where no character table reads it; checks
        that the harmonic projections answered."""
        trivial = GAComplex(c.algebra, FiniteGroup.cyclic_group(1), c.modules,
                            c.diffs, (tuple(q.element for q in c.modules),))
        x = generalized_lefschetz(trivial, list(c.unitary(g))).value
        assert "harmonic" in vars(trivial)
        return x

    def test_acyclic_pair_beyond_the_fourier_read(self):
        # Z/25 acting by zeta_25 on C -(1)-> C: the table reads g = 1; as
        # unitaries alone, neither module has an exact read, and their
        # harmonic parts are zero
        q = Projection.identity(C)
        c = GAComplex(C, FiniteGroup.cyclic_group(25), (q, q),
                      (q.element.blocks,), tuple(
                          (u, u) for u in (q.element.scale(
                              Cyclotomic.root_of_unity(25, g))
                              for g in range(25))))
        assert validate_complex(c) == []
        assert generalized_lefschetz(c, c.unitary(1)).value.is_zero()
        assert lefschetz_first(c, 1, IrrepTable.cyclic(25)).is_zero()
        assert self._harmonic_read(c, 1).is_zero()

    def test_mixed_decidable_and_undecidable_modules(self):
        # the acyclic C -(0,1)^T-> C^2 -(1 0)-> C with Z/25 acting by
        # (zeta^g, diag(1, zeta^g), 1), top module to bottom: module 0 has
        # a chain read and modules 1 and 2 have none, so a sum that mixed
        # chain and homology reads would answer [1], not zero
        q0, q1 = Projection.identity(C), Projection.identity(C, 2)
        action = tuple(
            (q0.element, AlgebraElement.diagonal(C, [[Fraction(1), z]], 2),
             q0.element.scale(z))
            for z in (Cyclotomic.root_of_unity(25, g) for g in range(25)))
        c = GAComplex(C, FiniteGroup.cyclic_group(25), (q0, q1, q0),
                      ((((1, 0),),), (((0,), (1,)),)), action)
        assert validate_complex(c) == []
        spectral_decompose(c.unitary(1)[0])
        with pytest.raises(NumericalError):
            spectral_decompose(c.unitary(1)[1])
        table = IrrepTable.cyclic(25)
        assert generalized_lefschetz(c, c.unitary(1)).value.is_zero()
        assert lefschetz_first(c, 1, table).is_zero()
        assert verify_th4(c, 1, table)
        assert self._harmonic_read(c, 1).is_zero()

    def test_float_complex_matches_exact(self):
        def floated(blocks):
            return tuple(la.as_matrix(la.to_numpy(b)) for b in blocks)

        def element(x):
            return AlgebraElement(x.algebra, x.amplification, floated(x.blocks))
        for seed, table in enumerate(TABLES):
            c = random_ga_complex(A, table, random.Random(seed), length=3)
            f = GAComplex(A, c.group,
                          tuple(Projection(element(q.element)) for q in c.modules),
                          tuple(map(floated, c.diffs)),
                          tuple(tuple(map(element, row)) for row in c.action))
            for g in table.group.elements():
                assert lefschetz_first(f, g, table) \
                    == lefschetz_first(c, g, table)
                assert generalized_lefschetz(f, f.unitary(g)).value \
                    == generalized_lefschetz(c, c.unitary(g)).value

    def test_multiplicities_and_ranks_must_be_natural(self):
        assert lefschetz._natural(Fraction(3), "rank") == 3
        assert lefschetz._natural(complex(2, 1e-12), "rank") == 2
        for bad in (Fraction(1, 2), Fraction(-1), Cyclotomic.gaussian(0, 1),
                    0.5 + 0j, -1 + 0j):
            with pytest.raises(ConsistencyError, match="not a natural number"):
                lefschetz._natural(bad, "rank")


class TestTheorems:
    @settings(max_examples=12, deadline=None)
    @given(seeds)
    def test_character_collapse(self, seed):
        rng = random.Random(seed)
        table = rng.choice(TABLES)
        c = random_ga_complex(rng.choice([A, M2]), table, rng,
                              length=rng.randint(1, 3))
        g = rng.randrange(table.group.order)
        assert verify_th4(c, g, table)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_homology_valued_collapse(self, seed):
        rng = random.Random(seed)
        table = rng.choice(TABLES)
        c = random_ga_complex(rng.choice([A, M2]), table, rng,
                              length=rng.randint(1, 3))
        g = rng.randrange(table.group.order)
        assert verify_th5(c, g, table, 0)

    def test_every_element_of_z25(self):
        # 20 elements have order 25, beyond the power search of 24, and
        # the table reads every order
        table = IrrepTable.cyclic(25)
        c = random_ga_complex(A, table, random.Random(3), length=2)
        for g in table.group.elements():
            assert verify_th4(c, g, table)
            assert verify_th5(c, g, table, 0)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_acyclic_summand_invariance(self, seed):
        rng = random.Random(seed)
        table = rng.choice(TABLES)
        c = random_ga_complex(A, table, rng, length=2)
        aug = acyclic_augmentation(c, rng)
        assert validate_complex(aug) == []
        for g in table.group.elements():
            assert lefschetz_first(c, g, table) \
                == lefschetz_first(aug, g, table)
            assert generalized_lefschetz(c, c.unitary(g)).value \
                == generalized_lefschetz(aug, aug.unitary(g)).value
            assert lefschetz_second(c, g, table, 0) \
                == lefschetz_second(aug, g, table, 0)


# ---------------------------------------------------------------------------
# the per-g path: harmonic modules, isotypic and Fourier projections and
# Chern classes rebuilt for every group element, ranks read from checked
# projections

def per_g_harmonic(c):
    out = []
    for j, q in enumerate(c.modules):
        maps = []
        if j >= 1:
            maps.append(c.diffs[j - 1])
        if j < c.length - 1:
            maps.append(tuple(map(la.conj_transpose, c.diffs[j])))
        h = lefschetz.kernel_projection(q, maps)
        restricted = [h * c.action[g][j] * h for g in c.group.elements()]
        out.append((Projection(h), restricted))
    return out


def per_g_isotypic(h, restricted, group, irreps):
    out = []
    for irr in irreps.irreps:
        acc = AlgebraElement.zero(h.algebra, h.amplification)
        for g in group.elements():
            acc = acc + restricted[g].scale(conj_scalar(irr.character(g)))
        ranks = Projection(acc.scale(Fraction(irr.dim, group.order))) \
            .rank_vector()
        assert all(r % irr.dim == 0 for r in ranks)
        out.append((irr, K0Class(tuple(r // irr.dim for r in ranks))))
    return out


def per_g_first(c, g, irreps):
    coeffs = [Fraction(0)] * c.algebra.num_factors
    for j, (h, restricted) in enumerate(per_g_harmonic(c)):
        sign = 1 if j % 2 == 0 else -1
        for irr, mult in per_g_isotypic(h, restricted, c.group, irreps):
            chi = irr.character(g)
            for i, m in enumerate(mult.ranks):
                if m:
                    coeffs[i] = coeffs[i] + sign * m * chi
    return K0TensorC(tuple(coeffs))


def per_g_tau(h, restricted, group, irreps, g, l):
    algebra = h.algebra
    out = zero_class(algebra, 2 * l)
    units = [Projection.diagonal_unit(algebra, f)
             for f in range(algebra.num_factors)]
    for irr, mult in per_g_isotypic(h, restricted, group, irreps):
        chi = irr.character(g)
        if scalar_is_zero(chi):
            continue
        for i, m in enumerate(mult.ranks):
            if m:
                out = out + chern_projection(units[i], l).scale(m * chi)
    return out


def per_g_second(c, g, irreps, l):
    out = zero_class(c.algebra, 2 * l)
    for j, (h, restricted) in enumerate(per_g_harmonic(c)):
        term = per_g_tau(h, restricted, c.group, irreps, g, l)
        out = out + (term if j % 2 == 0 else -term)
    return out


def per_g_restricted(h, u, cap=24):
    """Fourier spectral projections of v = h u h when v^t = h, t <= cap;
    spectral_decompose otherwise."""
    v = h.element * u * h.element
    powers = [h.element]
    while len(powers) <= cap and not (powers[-1] * v).equals(h.element):
        powers.append(powers[-1] * v)
    if len(powers) > cap:
        return n_class(spectral_decompose(v))
    t = len(powers)
    support = []
    for k in range(t):
        acc = AlgebraElement.zero(h.algebra, h.amplification)
        for s in range(t):
            acc = acc + powers[s].scale(Cyclotomic.root_of_unity(t, -k * s % t))
        proj = acc.scale(Fraction(1, t))
        if not proj.is_zero():
            support.append((Cyclotomic.root_of_unity(t, k),
                            K0Class(Projection(proj).rank_vector())))
    return N0Class(h.algebra, tuple(support))


def per_g_refined(c, unitaries):
    total = N0Class.zero(c.algebra)
    for j, (h, _) in enumerate(per_g_harmonic(c)):
        part = per_g_restricted(h, unitaries[j])
        total = total + (part if j % 2 == 0 else -part)
    return total


def seeded_complexes():
    """Complexes over C+C and M2 for every table and length 1-3, and the
    acyclic augmentations of those of length 2-3."""
    for seed in range(18):
        rng = random.Random(4100 + seed)
        table = TABLES[seed % 3]
        algebra = (A, M2)[seed // 3 % 2]
        c = random_ga_complex(algebra, table, rng, length=1 + seed // 6)
        yield c, table
        if c.length >= 2:
            yield acyclic_augmentation(c, rng), table


class TestOneDecomposition:
    def test_same_numbers_as_per_g_path(self):
        for c, table in seeded_complexes():
            assert validate_complex(c) == []
            for g in table.group.elements():
                assert lefschetz_first(c, g, table) \
                    == per_g_first(c, g, table)
                for l in (0, 1):
                    assert lefschetz_second(c, g, table, l) \
                        == per_g_second(c, g, table, l)
                assert generalized_lefschetz(c, c.unitary(g)).value \
                    == per_g_refined(c, c.unitary(g))

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_projection_route_equals_trace_route(self, seed):
        rng = random.Random(seed)
        for table in TABLES:
            algebra = rng.choice([A, M2])
            c = random_ga_complex(algebra, table, rng,
                                  length=rng.randint(1, 3))
            totals = {irr: K0Class((0,) * algebra.num_factors)
                      for irr in table.irreps}
            for j, (h, restricted) in enumerate(per_g_harmonic(c)):
                for irr, mult in per_g_isotypic(h, restricted, c.group, table):
                    totals[irr] += mult if j % 2 == 0 else -mult
            assert lefschetz.isotypic_decompose(c, table) == tuple(
                (irr, totals[irr].ranks) for irr in table.irreps)
            for g in table.group.elements():
                assert lefschetz_first(c, g, table) \
                    == per_g_first(c, g, table)

    def test_decomposition_built_once_per_complex(self, monkeypatch):
        complexes = list(seeded_complexes())
        calls = []
        real = lefschetz.kernel_projection

        def counted(q, maps):
            calls.append(1)
            return real(q, maps)
        monkeypatch.setattr(lefschetz, "kernel_projection", counted)
        for c, table in complexes:
            for g in table.group.elements():
                assert verify_th4(c, g, table)
                assert verify_th5(c, g, table, 0)
                lefschetz_first(c, g, table)
                lefschetz_second(c, g, table, 1)
                generalized_lefschetz(c, c.unitary(g))
        assert calls == []

    def test_each_fact_checked_once(self, monkeypatch):
        # a JSON load, then L1 and the refined number at g = 1 of a
        # length-3 S3 complex over C+M2: the representation check takes
        # each stacked product U_s [U_g0 | U_g1 | ...] once per generator,
        # module and factor and no product U_s U_g, and the whole path at
        # most 45 element products (the table read reuses the generators'
        # unitarity verdict)
        table = IrrepTable.symmetric_3()
        doc = serialize.complex_to_json(random_ga_complex(
            MultiMatrixAlgebra((1, 2)), table, random.Random(5), length=3))
        products, real = [], AlgebraElement.__mul__
        monkeypatch.setattr(AlgebraElement, "__mul__",
                            lambda a, b: products.append((a, b)) or real(a, b))
        stacked, real_mul = Counter(), la.mat_mul

        def mat_mul(a, b):
            rows, cols = la.shape(b)
            if cols == table.group.order * rows:
                stacked[id(a), id(b)] += 1
            return real_mul(a, b)
        monkeypatch.setattr(la, "mat_mul", mat_mul)
        c = serialize.complex_from_json(doc)
        lefschetz_first(c, 1, table)
        generalized_lefschetz(c, c.unitary(1))
        entries = {id(u) for row in c.action for u in row}
        assert not [(a, b) for a, b in products
                    if id(a) in entries and id(b) in entries]
        assert len(stacked) == len(c.group.generators) * c.length \
            * c.algebra.num_factors
        assert set(stacked.values()) == {1}
        assert len(products) <= 45

    def test_group_elements_read_from_the_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("read module by module")
        monkeypatch.setattr(lefschetz, "spectral_decompose", fail)
        monkeypatch.setattr(lefschetz, "_map_problems", fail)
        for c, table in seeded_complexes():
            for g in table.group.elements():
                assert verify_th4(c, g, table)
                assert verify_th5(c, g, table, 0)
                generalized_lefschetz(c, c.unitary(g))
        # unitaries that are no row of the action are still checked and read
        turn = [u.scale(Cyclotomic.root_of_unity(8, 1)) for u in c.unitary(0)]
        with pytest.raises(AssertionError, match="read module by module"):
            generalized_lefschetz(c, turn)

    def test_multiplicities_kept_per_table(self):
        c, table = next(seeded_complexes())
        mult = lefschetz.isotypic_decompose(c, table)
        assert lefschetz.isotypic_decompose(c, table) is mult
        assert [irr for irr, _ in mult] == list(table.irreps)
        # a second table for the same group is kept apart
        swapped = IrrepTable(table.group, tuple(reversed(table.irreps)))
        assert lefschetz.isotypic_decompose(c, swapped) == mult[::-1]
        other = next(t for t in TABLES if t.group != table.group)
        with pytest.raises(ValidationError):
            lefschetz.isotypic_decompose(c, other)

    def test_action_maps_checked_on_generators(self, monkeypatch):
        table = IrrepTable.symmetric_3()
        c = random_ga_complex(A, table, random.Random(0), length=2)
        calls = []
        real = lefschetz._unitary_problems
        monkeypatch.setattr(lefschetz, "_unitary_problems",
                            lambda *args: calls.append(1) or real(*args))
        assert validate_complex(c) == []
        # the table read at every g reuses the generators' verdict
        for g in table.group.elements():
            generalized_lefschetz(c, c.unitary(g))
        assert len(calls) == len(table.group.generators) == 2

    def test_endomorphism_checks_shared_with_validation(self):
        c = two_term_complex(A)
        flip = [AlgebraElement.identity(A),
                AlgebraElement.identity(A).scale(-1)]
        problems = lefschetz._map_problems(c, flip, "endomorphism")
        assert problems == ["endomorphism does not commute with d0"]
        with pytest.raises(DomainError, match="does not commute with d0"):
            generalized_lefschetz(c, flip)
        half = [AlgebraElement.identity(A).scale(Fraction(1, 2))] * 2
        with pytest.raises(DomainError, match="not unitary on module 0"):
            generalized_lefschetz(c, half)
        bad = GAComplex(A, c.group, c.modules, c.diffs,
                        (c.action[0], tuple(flip)))
        assert "action of 1 does not commute with d0" in validate_complex(bad)


# The reference the stacked action check must reproduce: one product per
# (generator, element, module), and the character table read one block
# trace at a time.
def per_product_action_problems(c):
    group = c.group
    problems = [f"identity does not act as the projection on module {j}"
                for j, (u, q) in enumerate(zip(c.action[group.identity], c.modules))
                if not u.equals(q.element)]
    problems += [f"action is not multiplicative at ({s},{g}) on module {j}"
                 for s in group.generators for g in group.elements()
                 for j, (u, v) in enumerate(zip(c.action[s], c.action[g]))
                 if not (u * v).equals(c.action[group.mul(s, g)][j])]
    for s in group.generators:
        problems += lefschetz._commute_problems(c, c.action[s], f"action of {s}")
    return problems


def per_product_validation(c):
    return lefschetz._chain_problems(c) + per_product_action_problems(c) \
        + lefschetz._generator_unitary_problems(c)


def per_block_characters(c):
    return la.as_matrix([[la.trace(b) for u in row for b in u.blocks]
                         for row in c.action])


def with_action(c, action):
    return GAComplex(c.algebra, c.group, c.modules, c.diffs,
                     tuple(map(tuple, action)))


def corrupted(c):
    """Copies of c whose action may be no representation: on the last
    module U_s is swapped for U_(s^2) (s the first generator), U_e is -q_0,
    and g acts by U_(g^-1)."""
    group, j = c.group, c.length - 1
    s = group.generators[0]
    swapped = [list(row) for row in c.action]
    swapped[s][j] = c.action[group.mul(s, s)][j]
    negated = [list(row) for row in c.action]
    negated[group.identity][0] = c.action[group.identity][0].scale(-1)
    right = [c.action[group.inverse(g)] for g in group.elements()]
    return [with_action(c, a) for a in (swapped, negated, right)]


def floated(c):
    """c with every matrix a float copy of its values."""
    def blocks(bs):
        return tuple(la.as_matrix(la.to_numpy(b)) for b in bs)

    def element(x):
        return AlgebraElement(x.algebra, x.amplification, blocks(x.blocks))
    return GAComplex(c.algebra, c.group,
                     tuple(Projection(element(q.element)) for q in c.modules),
                     tuple(map(blocks, c.diffs)),
                     tuple(tuple(map(element, row)) for row in c.action))


class TestStackedAction:
    def _same_as_per_product(self, c):
        problems = per_product_validation(c)
        assert validate_complex(c) == problems
        first = (lefschetz._chain_problems(c)
                 + per_product_action_problems(c))[:1]
        if first:
            with pytest.raises(DomainError) as caught:
                c.characters
            assert str(caught.value) == first[0]
        else:
            table = per_block_characters(c)
            assert type(c.characters) is type(table)
            if type(table) is la.FloatMatrix:  # bit for bit
                assert c.characters.arr.tobytes() == table.arr.tobytes()
            else:
                assert c.characters == table
        return problems

    def test_exact_verdicts_and_tables_match_the_per_product_check(self):
        broken = 0
        for c, table in seeded_complexes():
            assert self._same_as_per_product(c) == []
            for bad in corrupted(c):
                broken += bool(self._same_as_per_product(bad))
        assert broken >= 30

    def test_float_verdicts_and_tables_match_the_per_product_check(self):
        from ncgdesk.scalars import get_epsilon
        broken = 0
        for c, table in seeded_complexes():
            assert self._same_as_per_product(floated(c)) == []
            for bad in corrupted(c):
                broken += bool(self._same_as_per_product(floated(bad)))
        assert broken == 56
        c = floated(random_ga_complex(A, TABLES[2], random.Random(3),
                                      length=3))
        assert self._same_as_per_product(c) == []
        s = c.group.generators[0]
        u = c.action[s][0]
        nudge = np.zeros(u.blocks[0].shape, dtype=complex)
        nudge[0, 0] = 10 * get_epsilon()
        bumped = AlgebraElement(u.algebra, u.amplification, (
            la.as_matrix(la.to_numpy(u.blocks[0]) + nudge), *u.blocks[1:]))
        action = [list(row) for row in c.action]
        action[s][0] = bumped
        assert self._same_as_per_product(with_action(c, action))

    def test_stacks_are_let_go_once_the_table_is_read(self):
        c, _ = next(seeded_complexes())
        assert validate_complex(c) == []
        assert "_stacks" in vars(c)
        c.characters
        assert "_stacks" not in vars(c)

    def test_one_stacked_product_per_generator_module_and_factor(
            self, monkeypatch):
        c = random_ga_complex(A, TABLES[2], random.Random(8), length=3)
        calls, real = [], la.mat_mul
        monkeypatch.setattr(la, "mat_mul",
                            lambda a, b: calls.append(1) or real(a, b))
        assert lefschetz._action_problems(c) == []
        gens, k = len(c.group.generators), c.algebra.num_factors
        # U_s [U_g0 | U_g1 | ...], then U_s d and d U_s per differential
        assert len(calls) == gens * c.length * k \
            + gens * 2 * k * (c.length - 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                    min_size=2, max_size=2),
           st.sampled_from([1, 2, 3, 6]),
           st.sampled_from([None, Fraction(1, 2), -1, Cyclotomic.gaussian(0, 1),
                            Cyclotomic.root_of_unity(3, 1)]),
           st.booleans())
    def test_naturals_read_as_natural_reads_each_entry(self, rows, scale,
                                                       flaw, floats):
        cells = [[x * scale for x in row] for row in rows]
        if flaw is not None:
            cells[1][2] = flaw * scale
        m = la.as_matrix(cells)
        if floats:
            m = la.as_matrix(la.to_numpy(m))

        def read(f):
            try:
                return f()
            except ConsistencyError as exc:
                return str(exc)
        each = read(lambda: [[lefschetz._natural(x, "rank") for x in row]
                             for row in la.entries(la.scalar_mul(
                                 Fraction(1, scale), m))])
        assert read(lambda: lefschetz._naturals(m, scale, "rank")) == each
        if flaw is None:
            assert each == rows


def _trivial_complex(module, action_element):
    """One module of C acted on by Z/2 through the given element."""
    return GAComplex(C, FiniteGroup.cyclic_group(2), (module,), (),
                     ((action_element,), (action_element,)))


REFUSALS = {
    "module over another algebra": (
        lambda: _trivial_complex(Projection.identity(M2),
                                 AlgebraElement.identity(C)),
        "module projection over wrong algebra"),
    "action of another amplification": (
        lambda: _trivial_complex(Projection.identity(C),
                                 AlgebraElement.identity(C, 2)),
        "action matrix has wrong shape"),
    "a unitary too many": (
        lambda: generalized_lefschetz(
            _trivial_complex(Projection.identity(C), AlgebraElement.identity(C)),
            (AlgebraElement.identity(C),) * 2),
        "one unitary per module required"),
    "augmenting a one-module complex": (
        lambda: acyclic_augmentation(_trivial_complex(
            Projection.identity(C), AlgebraElement.identity(C)),
            random.Random(0)),
        "need at least two modules to augment"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_complexes_are_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
