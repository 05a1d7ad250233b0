import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.algebra import (
    AlgebraElement,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
    apply_hom,
    is_normal,
)
from ncgdesk.budget import set_budget
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
from ncgdesk.lefschetz import GAComplex, IrrepTable, validate_complex
from ncgdesk.scalars import Cyclotomic

A = MultiMatrixAlgebra((1, 2))
# sha256 of _pinned_instances(), below, as the dense construction gave it
PINNED = "7b10af794556106e3e767e898304d44775ded2b1a947d7966c52f44a389791a6"
seeds = st.integers(0, 10 ** 6)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 8))
def test_exact_unitaries(seed, d):
    u = random_exact_unitary(d, random.Random(seed))
    assert type(u) is la.ExactMatrix
    assert la.mat_equal(la.mat_mul(u, la.conj_transpose(u)), la.identity(d))


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_orthogonal_family_resolves_identity(seed):
    rng = random.Random(seed)
    family = random_orthogonal_family(A, rng, rng.randint(1, 4))
    total = family[0].element
    for p in family[1:]:
        total = total + p.element
    assert total.equals(AlgebraElement.identity(A))
    for i, p in enumerate(family):
        for q in family[i + 1:]:
            assert p.orthogonal_to(q)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_normal_elements_are_normal(seed):
    a = random_normal(A, random.Random(seed))
    assert is_normal(a.element())
    assert a.element().is_exact()


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
    # a d x d unitary is charged the d^3 integer operations of its build:
    # the default budget admits M_46 and refuses M_47, two M_37 blocks at
    # once (101,306), and the CLI's M_300 with one error line, before any
    # product is taken
    for kind in ("normal-element", "projection-family", "ga-complex"):
        assert main(["generate", "--kind", kind, "--blocks", "300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: random unitary products: ")
    rng, table = random.Random(0), IrrepTable.cyclic(2)
    assert is_normal(random_normal(MultiMatrixAlgebra((46,)), rng).element())

    def refuse(*args):
        raise AssertionError("built before the charge")
    monkeypatch.setattr(la, "mat_mul", refuse)
    for build in (
            lambda: random_exact_unitary(47, rng),
            lambda: random_projection(MultiMatrixAlgebra((37, 37)), rng),
            lambda: random_orthogonal_family(MultiMatrixAlgebra((120,)), rng, 2),
            lambda: random_ga_complex(MultiMatrixAlgebra((47,)), table, rng)):
        with pytest.raises(ResourceError, match="random unitary products"):
            build()


def test_kernel_eliminations_are_charged_before_eliminating(monkeypatch, capsys):
    # each factor's kernel elimination of a stacked r x d matrix is charged
    # r d^2 before any starts: the CLI's M_46 complex is refused at its first
    # kernel projection, about 0.6 s in, and the default complex prints the
    # pinned bytes
    assert main(["generate", "--kind", "ga-complex"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a70a53d992afcfed1d838b9bfc26c680832623150fd367568fec40fda38f9bcd")

    def refuse(*args):
        raise AssertionError("eliminated before the charge")
    monkeypatch.setattr(la, "kernel_basis", refuse)
    start = time.perf_counter()
    assert main(["generate", "--kind", "ga-complex", "--blocks", "46",
                 "--seed", "0"]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: kernel elimination steps: ")
    # GAComplex.harmonic projects through the same charge
    c = random_ga_complex(A, IrrepTable.cyclic(2), random.Random(0), length=2)
    set_budget(1)
    try:
        with pytest.raises(ResourceError, match="kernel elimination steps"):
            c.harmonic
    finally:
        set_budget(100_000)


# ---------------------------------------------------------------------------
# the generator streams, pinned and against the dense construction

def _canon(x):
    """A JSON form of a generated object: each exact matrix and scalar as
    its canonical (order, den, nums)."""
    if isinstance(x, la.ExactMatrix):
        return [x.order, x.den, x.nums.tolist()]
    if isinstance(x, Cyclotomic):
        return [x.order, x.den, list(x.nums)]
    if isinstance(x, Fraction):
        return [1, x.denominator, [x.numerator]]
    if isinstance(x, int):
        return x
    if isinstance(x, (tuple, list)):
        return [_canon(y) for y in x]
    if isinstance(x, MultiMatrixAlgebra):
        return list(x.block_dims)
    if isinstance(x, AlgebraElement):
        return [_canon(x.algebra), x.amplification, _canon(x.blocks)]
    if isinstance(x, Projection):
        return _canon(x.element)
    if isinstance(x, SpectralForm):
        return _canon(x.pairs)
    if isinstance(x, StarHomomorphism):
        return _canon([x.source, x.target, x.multiplicities, x.unitaries])
    if isinstance(x, GAComplex):
        return _canon([x.modules, x.diffs, x.action])
    raise TypeError(type(x))


def _pinned_instances():
    """(name, canonical output, next rng.random()) on fixed seeds."""
    B = MultiMatrixAlgebra((3, 1))
    builds = [(f"unitary {d}", lambda rng, d=d: random_exact_unitary(d, rng))
              for d in range(1, 7)]
    builds += [
        ("projection", lambda rng: random_projection(A, rng)),
        ("projection m=2", lambda rng: random_projection(B, rng, 2)),
        ("nonzero projection", lambda rng: random_projection(
            MultiMatrixAlgebra((1,)), rng, nonzero=True)),
        ("family", lambda rng: random_orthogonal_family(A, rng, 3)),
        ("family m=2", lambda rng: random_orthogonal_family(B, rng, 4, 2)),
        ("normal", lambda rng: random_normal(A, rng)),
        ("normal near gap", lambda rng: random_normal(
            B, rng, near_gap=Fraction(1, 512))),
        ("hom", lambda rng: random_hom(rng, max_factors=3)),
        ("complex", lambda rng: random_ga_complex(
            A, IrrepTable.symmetric_3(), rng, length=3)),
        ("augmented", lambda rng: acyclic_augmentation(random_ga_complex(
            A, IrrepTable.cyclic(3), rng, length=2), rng)),
    ]
    out = []
    for name, build in builds:
        for seed in range(3):
            rng = random.Random(f"{name}:{seed}")
            out.append([name, _canon(build(rng)), rng.random()])
    return out


def test_generated_instances_are_pinned():
    # a digest of the outputs and rng streams of every generator; it
    # changes only when a generator's output or its draws do
    doc = json.dumps(_pinned_instances()).encode()
    assert hashlib.sha256(doc).hexdigest() == PINNED


# The dense construction the generators replace: d rotation matrices of
# Fractions multiplied in turn, then the phases; a projection u diag u*.
ORACLE_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
ORACLE_PHASES = (1, -1, Cyclotomic.gaussian(0, 1), Cyclotomic.gaussian(0, -1))


def _diagonal(values):
    d = len(values)
    return [[values[s] if s == t else 0 for t in range(d)] for s in range(d)]


def _oracle_unitary(d, rng):
    u = la.identity(d)
    for _ in range(d):
        if d >= 2:
            i, j = rng.sample(range(d), 2)
            a, b, c = rng.choice(ORACLE_TRIPLES)
            rot = _diagonal([Fraction(1)] * d)
            rot[i][i] = rot[j][j] = Fraction(a, c)
            rot[i][j], rot[j][i] = Fraction(-b, c), Fraction(b, c)
            u = la.mat_mul(u, la.as_matrix(rot))
    return la.mat_mul(u, la.as_matrix(_diagonal([rng.choice(ORACLE_PHASES)
                                                 for _ in range(d)])))


def _conjugated(u, diag):
    return la.mat_mul(la.mat_mul(u, la.as_matrix(_diagonal(diag))),
                      la.conj_transpose(u))


def _oracle_projection(algebra, rng, m=1, nonzero=False):
    while True:
        blocks, total = [], 0
        for d in algebra.ambient_dims(m):
            pattern = [rng.randint(0, 1) for _ in range(d)]
            total += sum(pattern)
            blocks.append(_conjugated(_oracle_unitary(d, rng), pattern))
        if total or not nonzero:
            return tuple(blocks)


def _oracle_family(algebra, rng, parts, m=1):
    dims = algebra.ambient_dims(m)
    units = [_oracle_unitary(d, rng) for d in dims]
    split = [[rng.randrange(parts) for _ in range(d)] for d in dims]
    return [tuple(_conjugated(u, [int(k == part) for k in row])
                  for u, row in zip(units, split))
            for part in range(parts)]


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 3), st.integers(1, 2))
def test_builders_match_the_dense_construction(seed, d, parts, m):
    # the same canonical (order, nums, den), and the same draws after
    algebra = MultiMatrixAlgebra((d, 1))
    builders = (
        (lambda rng: random_exact_unitary(d, rng),
         lambda rng: _oracle_unitary(d, rng)),
        (lambda rng: random_projection(algebra, rng, m).element.blocks,
         lambda rng: _oracle_projection(algebra, rng, m)),
        (lambda rng: random_projection(MultiMatrixAlgebra((1,)), rng,
                                       nonzero=True).element.blocks,
         lambda rng: _oracle_projection(MultiMatrixAlgebra((1,)), rng,
                                        nonzero=True)),
        (lambda rng: [p.element.blocks for p in
                      random_orthogonal_family(algebra, rng, parts, m)],
         lambda rng: _oracle_family(algebra, rng, parts, m)),
    )
    for build, oracle in builders:
        rng, twin = random.Random(seed), random.Random(seed)
        assert _canon(build(rng)) == _canon(oracle(twin))
        assert rng.random() == twin.random()
