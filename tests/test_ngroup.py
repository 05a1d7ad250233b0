import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection, \
    SpectralForm, StarHomomorphism, apply_hom, spectral_decompose
from ncgdesk.cyclic import HCClass
from ncgdesk.errors import NumericalError, ValidationError
from ncgdesk.generate import (
    random_hom,
    random_n0class,
    random_normal,
    random_projection,
)
from ncgdesk.ngroup import (
    K0Class,
    K0TensorC,
    N0Class,
    evaluate_h_list,
    functorial_map,
    generator_g,
    generator_h,
    h_map,
    n_class,
    reduce_g_to_h,
    t_map,
)
from ncgdesk.scalars import Cyclotomic, get_epsilon, to_complex

A = MultiMatrixAlgebra((1, 2))
seeds = st.integers(0, 10 ** 6)


def rand_class(seed):
    return random_n0class(A, random.Random(seed))


class TestGroupLaws:
    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds, seeds)
    def test_abelian_group_axioms(self, s1, s2, s3):
        x, y, z = rand_class(s1), rand_class(s2), rand_class(s3)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + N0Class.zero(A) == x
        assert (x - x).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds, seeds)
    def test_cancellation(self, s1, s2, s3):
        x, y, z = rand_class(s1), rand_class(s2), rand_class(s3)
        if x + z == y + z:
            assert x == y

    def test_support_merges_equal_keys(self):
        v = Cyclotomic.from_rational(Fraction(1, 2))
        x = N0Class(A, ((v, K0Class((1, 0))), (v, K0Class((2, 1)))))
        assert x.support == ((v, K0Class((3, 1))),)

    def test_zero_ranks_pruned(self):
        v = Cyclotomic.from_rational(1)
        x = N0Class(A, ((v, K0Class((1, -1))), (v, K0Class((-1, 1)))))
        assert x.is_zero()

    def test_zero_key_rejected(self):
        with pytest.raises(ValidationError):
            N0Class(A, ((Cyclotomic.from_rational(0), K0Class((1, 0))),))

    def test_ranks_must_be_integers(self):
        assert K0Class((Fraction(4, 2), -3)).ranks == (2, -3)
        assert type(K0Class((Fraction(4, 2),)).ranks[0]) is int
        for rank in (Fraction(5, 2), 2.7, 2.0, True, "3"):
            with pytest.raises(ValidationError):
                K0Class((1, rank))
        v = Cyclotomic.from_rational(1)
        with pytest.raises(ValidationError):
            N0Class(A, ((v, (1, Fraction(1, 2))),))


@pytest.mark.parametrize("q", [1, -2, Fraction(3, 4), Fraction(-5, 9)])
def test_classes_from_either_rational_type_hash_alike(q):
    """A rational Cyclotomic hashes as the Fraction it equals, so classes
    built from either are one set element."""
    made = [(N0Class(A, ((r, (1, 2)),)), HCClass(0, (r, 2 * r)),
             K0TensorC((r, r)))
            for r in (Fraction(q), Cyclotomic.from_rational(q))]
    for a, b in zip(*made):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_k0_tensor_c_adds_and_subtracts_coordinatewise():
    a = K0TensorC((Fraction(1, 2), Cyclotomic.gaussian(0, 1)))
    b = K0TensorC((Fraction(3), Fraction(-1, 4)))
    assert a + b == K0TensorC((Fraction(7, 2),
                               Cyclotomic.gaussian(Fraction(-1, 4), 1)))
    assert a - b == K0TensorC((Fraction(-5, 2),
                               Cyclotomic.gaussian(Fraction(1, 4), 1)))


def test_k0_tensor_c_lengths_must_agree():
    for op in (operator.add, operator.sub):
        with pytest.raises(ValidationError, match="different algebras"):
            op(K0TensorC((1, 2)), K0TensorC((1,)))


# Exact keys: rational, Gaussian, in Q(zeta_3) and in Q(zeta_8).  Each
# non-Gaussian value has a twin 10^-30 away with the same float parts, so
# their sort keys tie up to the canonical tie (F3).
_TINY = Fraction(1, 10 ** 30)
EXACT_KEYS = (Fraction(1), Fraction(-1, 2), Cyclotomic.gaussian(Fraction(1, 2), 1),
              Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(3) + _TINY,
              Cyclotomic.root_of_unity(8, 3), Cyclotomic.root_of_unity(8, 3) + _TINY)
exact_supports = st.lists(st.tuples(
    st.sampled_from(EXACT_KEYS), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
    max_size=5)


@settings(max_examples=80, deadline=None)
@given(exact_supports, exact_supports, exact_supports, st.randoms(use_true_random=False))
def test_exact_equality_is_the_difference_being_zero(s1, s2, s3, rnd):
    x, y, z = (N0Class(A, tuple(s)) for s in (s1, s2, s3))
    shuffled = list(s1)
    rnd.shuffle(shuffled)
    pairs = [(x, y), (x, N0Class(A, tuple(shuffled))), (x + y, y + x),
             (x + y, z), (-x, y), ((x - y) + y, x), (x - y, z - y), (x + z, y)]
    for p, q in pairs:
        assert (p == q) is (p - q).is_zero() is (q == p)
        if p == q:
            assert hash(p) == hash(q)


# A drawn key is a center, exact when its offset is None, else the float
# center + offset * eps / 2; keys near one center may merge or chain.
CENTERS = (Fraction(1), Fraction(-2), Cyclotomic.gaussian(Fraction(1, 2), 1))
offsets = st.none() | st.integers(-3, 3)
supports = st.lists(st.tuples(st.sampled_from(CENTERS), offsets,
                              st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
                    max_size=5)


def _support(drawn):
    eps = get_epsilon()
    return tuple((c if k is None else to_complex(c) + k * eps / 2, r)
                 for c, k, r in drawn)


def _built(support):
    """The class of the support, or None where its keys chain too wide."""
    try:
        return N0Class(A, support)
    except NumericalError:
        return None


def _equal(p, q):
    try:
        return p == q
    except NumericalError:
        return None


class TestFloatKeys:
    """N0 keys merge by bounded single linkage within 2 eps."""

    @settings(max_examples=60, deadline=None)
    @given(supports, st.randoms(use_true_random=False))
    def test_key_order_does_not_matter(self, drawn, rnd):
        support = _support(drawn)
        first = _built(support)
        for _ in range(4):
            shuffled = list(support)
            rnd.shuffle(shuffled)
            got = _built(tuple(shuffled))
            if first is None:
                assert got is None
            else:
                assert got == first and got.support == first.support

    @settings(max_examples=60, deadline=None)
    @given(supports, st.data())
    def test_equality_is_symmetric_and_agrees_with_the_hash(self, drawn, data):
        moved = [(c, data.draw(offsets), r) for c, _, r in drawn]
        p, q = _built(_support(drawn)), _built(_support(moved))
        assume(p is not None and q is not None)
        assert _equal(p, q) == _equal(q, p)
        if _equal(p, q):
            assert hash(p) == hash(q)

    def test_a_chain_wider_than_two_eps_raises_in_every_order(self):
        eps = get_epsilon()
        keys = (1.0, 1 + 1.5 * eps, 1 + 3 * eps)
        for order in itertools.permutations(keys):
            with pytest.raises(NumericalError, match="chain"):
                N0Class(A, tuple((v, (1, 0)) for v in order))

    def test_a_chain_within_two_eps_is_one_key_in_every_order(self):
        eps = get_epsilon()
        keys = (1.0, 1 + 0.5 * eps, 1 + 1.5 * eps)
        for order in itertools.permutations(keys):
            x = N0Class(A, tuple((v, (1, 0)) for v in order))
            assert x.support == ((1.0, K0Class((3, 0))),)

    def test_equality_is_symmetric_across_a_chain(self):
        eps = get_epsilon()
        p = N0Class(A, ((1 + 1.5 * eps, (3, 0)),))
        q = N0Class(A, ((1.0, (2, 0)), (1 + 3 * eps, (1, 0))))
        for a, b in ((p, q), (q, p)):
            with pytest.raises(NumericalError):
                a == b
        near = N0Class(A, ((1.0, (3, 0)),))
        assert p == near and near == p

    def test_equal_classes_hash_alike(self):
        x = N0Class(A, ((1.0, (1, 0)),))
        y = N0Class(A, ((1.0 + get_epsilon(), (1, 0)),))
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1

    @pytest.mark.parametrize("offset", [0.5, 1.5])
    def test_float_direct_sum_is_symmetric(self, offset):
        a = SpectralForm.scaled_projection(1.0, Projection.diagonal_unit(A, 1))
        b = SpectralForm.scaled_projection(
            1.0 + offset * get_epsilon(), Projection.diagonal_unit(A, 0))
        assert a.direct_sum(b).eigenvalues() == b.direct_sum(a).eigenvalues() \
            == (1.0,)


# Float keys far apart under the grouping rule, a root of unity among them
FLOAT_KEYS = (1.0, 1.0 + 1e-6, -0.5, 0.5 + 1j, 0.5 - 1j, to_complex(Cyclotomic.root_of_unity(3)))


@st.composite
def diagonal_forms(draw):
    """A public SpectralForm over A at amplification 1 or 2: exact keys
    with exact diagonal projections, or float keys with float ones.  Each
    diagonal slot goes to one key or to the kernel, so a key may get the
    zero projection."""
    exact = draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(EXACT_KEYS if exact else FLOAT_KEYS),
                         unique=True, max_size=4))
    m = draw(st.integers(1, 2))
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    owners = [[draw(st.integers(-1, len(keys) - 1)) for _ in range(d)]
              for d in A.ambient_dims(m)]
    pairs = [(v, Projection(AlgebraElement.diagonal(
        A, [[one if o == j else zero for o in factor] for factor in owners], m)))
        for j, v in enumerate(keys)]
    return SpectralForm(A, m, tuple(draw(st.permutations(pairs))))


forms = diagonal_forms() | seeds.map(lambda s: random_normal(A, random.Random(s)))


class TestClassesOfElements:
    @settings(max_examples=150, deadline=None)
    @given(forms)
    def test_n_class_is_the_constructor_class(self, a):
        got = n_class(a)
        built = N0Class(a.algebra, tuple((v, K0Class(p.rank_vector()))
                                         for v, p in a.pairs))
        assert got.support == built.support
        assert repr(got.support) == repr(built.support)  # the same key types
        assert hash(got) == hash(built)

    def test_a_zero_projection_leaves_no_value(self):
        a = SpectralForm(A, 1, ((Fraction(1), Projection.zero(A)),
                                (Fraction(2), Projection.identity(A))))
        assert len(a.pairs) == 2
        assert n_class(a).support == ((Fraction(2), K0Class((1, 2))),)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_class_ranks_match_spectral_projections(self, seed):
        a = random_normal(A, random.Random(seed))
        assert [(v, c.ranks) for v, c in n_class(a).support] \
            == [(v, p.rank_vector()) for v, p in a.pairs]

    def test_equivalence_ignores_projection_position(self):
        p = Projection.diagonal_unit(A, 1, index=0)
        q = Projection.diagonal_unit(A, 1, index=1)
        a = SpectralForm.scaled_projection(Fraction(2), p)
        b = SpectralForm.scaled_projection(Fraction(2), q)
        assert n_class(a) == n_class(b)

    def test_equivalence_sees_eigenvalues(self):
        p = Projection.diagonal_unit(A, 1)
        a = SpectralForm.scaled_projection(Fraction(2), p)
        b = SpectralForm.scaled_projection(Fraction(3), p)
        assert n_class(a) != n_class(b)


class TestHAndT:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_h_kills_pair_generators(self, seed):
        rng = random.Random(seed)
        p = random_projection(A, rng, nonzero=True)
        lam = Cyclotomic.gaussian(Fraction(rng.randint(-4, 4), 2),
                                  Fraction(rng.randint(-4, 4), 2))
        mu = Cyclotomic.gaussian(1, Fraction(rng.randint(0, 3)))
        assert h_map(generator_h(lam, mu, p)).is_zero()

    def test_h_is_additive(self):
        x, y = rand_class(1), rand_class(2)
        assert h_map(x + y) == h_map(x) + h_map(y)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_h_after_t_is_identity(self, seed):
        rng = random.Random(seed)
        v = K0TensorC((Cyclotomic.gaussian(Fraction(rng.randint(-6, 6), 3), 1),
                       Cyclotomic.from_rational(rng.randint(-3, 3))))
        assert h_map(t_map(v, algebra=A)) == v

    def test_t_sends_each_coefficient_to_a_unit_rank(self):
        half, i = Fraction(1, 2), Cyclotomic.gaussian(0, 1)
        x = t_map(K0TensorC((half, i)), A)
        assert dict(x.support) == {half: K0Class((1, 0)), i: K0Class((0, 1))}
        assert t_map(K0TensorC((half, 0)), A).support == (
            (half, K0Class((1, 0))),)

    @pytest.mark.parametrize("coeffs", [(1,), (1, 2, 3)])
    def test_t_needs_one_coefficient_per_factor(self, coeffs):
        with pytest.raises(ValidationError, match="one coefficient per factor"):
            t_map(K0TensorC(tuple(map(Fraction, coeffs))), A)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 20))
    def test_stack_generator_reduces_to_pair_generators(self, seed, n):
        rng = random.Random(seed)
        p = random_projection(A, rng, nonzero=True)
        lam = Cyclotomic.gaussian(Fraction(1, 2), Fraction(rng.randint(1, 3)))
        gens = reduce_g_to_h(n, lam, p)
        assert len(gens) == n - 1
        assert evaluate_h_list(A, gens) == generator_g(n, lam, p)


class TestFunctoriality:
    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_push_commutes_with_class(self, seed):
        rng = random.Random(seed)
        phi = random_hom(rng)
        a = random_normal(phi.source, rng)
        lhs = functorial_map(phi, n_class(a))
        rhs = n_class(spectral_decompose(apply_hom(phi, a.element())))
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(seeds, seeds)
    def test_push_is_additive(self, s1, s2):
        rng = random.Random(s1)
        phi = random_hom(rng)
        x = random_n0class(phi.source, random.Random(s2))
        y = random_n0class(phi.source, random.Random(s2 + 1))
        assert functorial_map(phi, x + y) \
            == functorial_map(phi, x) + functorial_map(phi, y)


C = MultiMatrixAlgebra((1,))
P_C = Projection.identity(C)
REFUSALS = {
    "K0 sum over different algebras": (
        lambda: K0Class((1,)) + K0Class((1, 0)),
        "K0 classes over different algebras"),
    "N0 sum over different algebras": (
        lambda: N0Class.zero(C) + N0Class.zero(A),
        "N0 classes over different algebras"),
    "stacking generator of index 0": (
        lambda: generator_g(0, 1, P_C), "generator index must be positive"),
    "reduction of index 0": (
        lambda: reduce_g_to_h(0, 1, P_C), "generator index must be positive"),
    "push off the source": (
        lambda: functorial_map(StarHomomorphism(C, A, ((1,), (2,))),
                               N0Class.zero(A)),
        "class is not over the homomorphism source"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_mismatched_operands_are_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_classes_compare_unequal_across_algebras_and_types():
    assert N0Class.zero(C) != N0Class.zero(A)
    assert N0Class.zero(C) != 0
    assert K0TensorC((1,)) != K0TensorC((1, 0))
    assert K0TensorC((1,)) != (1,)
