import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import lefschetz
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection
from ncgdesk.errors import ConsistencyError, DomainError, NumericalError, \
    ValidationError
from ncgdesk.generate import acyclic_augmentation, random_ga_complex
from ncgdesk.lefschetz import (
    FiniteGroup,
    GAComplex,
    Irrep,
    IrrepTable,
    ModuleMap,
    generalized_lefschetz,
    harmonic_modules,
    lefschetz_first,
    lefschetz_second,
    validate_complex,
    verify_th4,
    verify_th5,
)
from ncgdesk.ngroup import h_map
from ncgdesk.scalars import Cyclotomic

C = MultiMatrixAlgebra((1,))
A = MultiMatrixAlgebra((1, 1))
M2 = MultiMatrixAlgebra((2,))
seeds = st.integers(0, 10 ** 6)
TABLES = [IrrepTable.cyclic(2), IrrepTable.cyclic(3), IrrepTable.symmetric_3()]


class TestFiniteGroup:
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

    def test_character_orthogonality_enforced(self):
        g = FiniteGroup.cyclic_group(2)
        one = Fraction(1)
        # two copies of the trivial representation are not orthogonal
        bad = (Irrep("a", 1, (((one,),), ((one,),))),
               Irrep("b", 1, (((one,),), ((one,),))))
        with pytest.raises(ValidationError):
            IrrepTable(g, bad)


def two_term_complex(algebra, n=1):
    """0 -> A -> A -> 0 with the identity differential and trivial action."""
    q = Projection.identity(algebra, n)
    d = ModuleMap.from_element(q.element)
    group = FiniteGroup.cyclic_group(2)
    action = tuple((q.element, q.element) for _ in group.elements())
    return GAComplex(algebra, group, (q, q), (d,), action)


class TestComplexes:
    def test_two_term_identity_is_valid_and_acyclic(self):
        c = two_term_complex(A)
        validate_complex(c)
        for h, _ in harmonic_modules(c):
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
        validate_complex(c)
        table = IrrepTable.cyclic(2)
        assert lefschetz_first(c, 0, table).coeffs == (Fraction(1),)
        assert lefschetz_first(c, 1, table).coeffs == (Fraction(-1),)

    def test_refined_number_records_eigenvalues(self):
        q = Projection.identity(C)
        group = FiniteGroup.cyclic_group(2)
        action = ((q.element, ), (q.element.scale(-1),))
        c = GAComplex(C, group, (q,), (), action)
        x = generalized_lefschetz(c, c.unitary(1)).value
        assert x.value_at(Cyclotomic.from_rational(-1)).ranks == (1,)

    def test_differential_shape_validated(self):
        q = Projection.identity(A)
        d = ModuleMap.from_element(q.element)
        group = FiniteGroup.cyclic_group(2)
        action = tuple((q.element,) for _ in group.elements())
        with pytest.raises(ValidationError):
            GAComplex(A, group, (q,), (d,), action)  # too many differentials

    def _rotation_on_c(self):
        """C with a trivial action, and the infinite-order unitary (3+4i)/5."""
        q = Projection.identity(C)
        c = GAComplex(C, FiniteGroup.cyclic_group(1), (q,), (), ((q.element,),))
        phase = Cyclotomic.gaussian(Fraction(3, 5), Fraction(4, 5))
        return c, AlgebraElement(C, 1, (((phase,),),))

    def _fail_exact(self, monkeypatch, error):
        real = lefschetz.spectral_decompose

        def decompose(x):
            if x.is_exact():
                raise error("exact decomposition failed")
            return real(x)
        monkeypatch.setattr(lefschetz, "spectral_decompose", decompose)

    def test_numerical_error_falls_back_to_floats(self, monkeypatch):
        self._fail_exact(monkeypatch, NumericalError)
        c, u = self._rotation_on_c()
        (value, cls), = generalized_lefschetz(c, [u]).value.support
        assert isinstance(value, complex) and abs(value - (0.6 + 0.8j)) < 1e-9
        assert cls.ranks == (1,)

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

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_acyclic_summand_invariance(self, seed):
        rng = random.Random(seed)
        table = rng.choice(TABLES)
        c = random_ga_complex(A, table, rng, length=2)
        aug = acyclic_augmentation(c, rng)
        validate_complex(aug)
        for g in table.group.elements():
            assert lefschetz_first(c, g, table) \
                == lefschetz_first(aug, g, table)
            assert generalized_lefschetz(c, c.unitary(g)).value \
                == generalized_lefschetz(aug, aug.unitary(g)).value
            assert lefschetz_second(c, g, table, 0) \
                == lefschetz_second(aug, g, table, 0)
