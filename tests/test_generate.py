import random

import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.algebra import MultiMatrixAlgebra, is_normal
from ncgdesk.cli import main
from ncgdesk.errors import ResourceError
from ncgdesk.generate import (
    acyclic_augmentation,
    random_exact_unitary,
    random_ga_complex,
    random_hom,
    random_normal,
    random_orthogonal_family,
    random_projection,
    random_spectrum,
)
from ncgdesk.lefschetz import IrrepTable, validate_complex

A = MultiMatrixAlgebra((1, 2))
seeds = st.integers(0, 10 ** 6)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 4))
def test_exact_unitaries(seed, d):
    u = random_exact_unitary(d, random.Random(seed))
    assert la.is_exact_matrix(u)
    assert la.mat_equal(la.mat_mul(u, la.conj_transpose(u)), la.identity(d))


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_orthogonal_family_resolves_identity(seed):
    rng = random.Random(seed)
    family = random_orthogonal_family(A, rng, rng.randint(1, 4))
    total = family[0].element
    for p in family[1:]:
        total = total + p.element
    from ncgdesk.algebra import AlgebraElement
    assert total.equals(AlgebraElement.identity(A))
    for i, p in enumerate(family):
        for q in family[i + 1:]:
            assert p.orthogonal_to(q)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_normal_elements_are_normal(seed):
    a = random_normal(A, random.Random(seed))
    assert is_normal(a.element())
    assert a.is_exact()


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_spectrum_distinct_nonzero(seed):
    values = random_spectrum(random.Random(seed), 4)
    assert len(values) == 4
    for i, v in enumerate(values):
        assert not v.is_zero()
        for w in values[i + 1:]:
            assert not (v - w).is_zero()


def test_determinism():
    a = random_normal(A, random.Random(42)).element()
    b = random_normal(A, random.Random(42)).element()
    assert a.equals(b)
    p = random_projection(A, random.Random(9)).element
    q = random_projection(A, random.Random(9)).element
    assert p.equals(q)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_homs_are_unital(seed):
    phi = random_hom(random.Random(seed))
    from ncgdesk.algebra import AlgebraElement, apply_hom
    image = apply_hom(phi, AlgebraElement.identity(phi.source))
    assert image.equals(AlgebraElement.identity(phi.target))


@settings(max_examples=8, deadline=None)
@given(seeds)
def test_generated_complexes_validate(seed):
    rng = random.Random(seed)
    table = rng.choice([IrrepTable.cyclic(2), IrrepTable.cyclic(3),
                        IrrepTable.symmetric_3()])
    c = random_ga_complex(A, table, rng, length=rng.randint(1, 3))
    assert validate_complex(c) == []


@settings(max_examples=6, deadline=None)
@given(seeds)
def test_augmented_complexes_validate(seed):
    rng = random.Random(seed)
    c = random_ga_complex(A, IrrepTable.cyclic(2), rng, length=2)
    aug = acyclic_augmentation(c, rng)
    assert validate_complex(aug) == []
    assert aug.length == c.length
    assert aug.modules[0].amplification > c.modules[0].amplification


def test_generators_are_charged_before_building(monkeypatch, capsys):
    # a d x d unitary costs about d^4 products: the default budget admits
    # M_17 and refuses M_18, two M_17 blocks at once, and the CLI's
    # M_300 with one error line, before any product is taken
    for kind in ("normal-element", "projection-family", "ga-complex"):
        assert main(["generate", "--kind", kind, "--blocks", "300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: random unitary products: ")
    rng, table = random.Random(0), IrrepTable.cyclic(2)
    assert is_normal(random_normal(MultiMatrixAlgebra((17,)), rng).element())

    def refuse(*args):
        raise AssertionError("built before the charge")
    monkeypatch.setattr(la, "mat_mul", refuse)
    for build in (
            lambda: random_exact_unitary(18, rng),
            lambda: random_projection(MultiMatrixAlgebra((17, 17)), rng),
            lambda: random_orthogonal_family(MultiMatrixAlgebra((120,)), rng, 2),
            lambda: random_ga_complex(MultiMatrixAlgebra((46,)), table, rng)):
        with pytest.raises(ResourceError, match="random unitary products"):
            build()
