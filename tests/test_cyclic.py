import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from ncgdesk import cyclic, scalars, serialize as sz
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection
from ncgdesk.cyclic import (
    CyclicSpace,
    DecompositionRep,
    HCClass,
    TensorElement,
    cc_reduce,
    check_face_bound,
    check_trace_bound,
    decomposition_norm,
    face_op,
    hc_class,
    hc_dims,
    hc_space,
    is_boundary,
    trace_map,
    trace_rep,
)
from ncgdesk.budget import set_budget
from ncgdesk.errors import ConsistencyError, DomainError, ResourceError, \
    ValidationError
from ncgdesk.chern import _eta_rep, verify_eta_vanishes
from ncgdesk.generate import random_orthogonal_family
from ncgdesk.scalars import Cyclotomic, eliminate, scalar_is_zero, tagged, tags

C = MultiMatrixAlgebra((1,))
A = MultiMatrixAlgebra((1, 1))
M2 = MultiMatrixAlgebra((2,))
CM2 = MultiMatrixAlgebra((1, 2))
seeds = st.integers(0, 10 ** 6)


@pytest.fixture
def cold_cyclic():
    """Empty cyclic caches for the test, emptied again after it, so that no
    structure built under a patch outlives the patch."""
    cached = (cyclic._cyclic_space, cyclic._boundary, cyclic._hc_space)
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


def cyclic_op(xi):
    """tau_n: a_0 x...x a_n -> (-1)^n a_n x a_0 x...x a_{n-1}, extended
    linearly: a reference operator for the CC quotient."""
    sign = -1 if xi.degree % 2 else 1
    return TensorElement(xi.algebra, xi.amplification, xi.degree, {
        key[-1:] + key[:-1]: sign * c for key, c in xi.coeffs.items()})


def random_tensor(algebra, m, degree, rng, terms=4):
    units = [(j, a, b)
             for j, d in enumerate(algebra.ambient_dims(m))
             for a in range(d) for b in range(d)]
    out = TensorElement.zero(algebra, m, degree)
    for _ in range(terms):
        key = tuple(rng.choice(units) for _ in range(degree + 1))
        out = out + TensorElement.basis(algebra, m, key).scale(
            Fraction(rng.randint(-3, 3)))
    return out


class TestOperators:
    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(0, 3))
    def test_cyclic_has_full_period(self, seed, degree):
        xi = random_tensor(A, 1, degree, random.Random(seed))
        out = xi
        for _ in range(degree + 1):
            out = cyclic_op(out)
        assert out.equals(xi)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(2, 3))
    def test_face_squares_to_zero(self, seed, degree):
        xi = random_tensor(M2, 1, degree, random.Random(seed))
        assert face_op(face_op(xi)).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 3))
    def test_face_descends_to_cyclic_quotient(self, seed, degree):
        # b applied to (1 - tau)xi must die in CC coordinates
        xi = random_tensor(M2, 1, degree, random.Random(seed))
        image = face_op(xi - cyclic_op(xi))
        assert cc_reduce(image) == {}

    def test_face_rejects_degree_zero(self):
        xi = TensorElement.from_summand((AlgebraElement.identity(C),))
        with pytest.raises(DomainError):
            face_op(xi)

    def test_from_summand_expands_products(self):
        x = AlgebraElement.diagonal(A, [[Fraction(2)], [Fraction(3)]])
        xi = TensorElement.from_summand((x, x))
        assert len(xi.coeffs) == 4  # all cross terms of (2e0 + 3e1) x same
        assert xi.coeffs[((0, 0, 0), (0, 0, 0))] == Fraction(4)
        assert xi.coeffs[((0, 0, 0), (1, 0, 0))] == Fraction(6)
        assert xi.coeffs[((1, 0, 0), (1, 0, 0))] == Fraction(9)


class TestHomology:
    def test_dims_of_scalars(self):
        assert hc_dims(C, 4) == [1, 0, 1, 0, 1]

    def test_dims_of_two_by_two(self):
        assert hc_dims(M2, 2) == [1, 0, 1]

    def test_dims_of_direct_sum_add(self):
        assert hc_dims(A, 2) == [2, 0, 2]

    def test_class_of_identity_generates_degree_zero(self):
        xi = TensorElement.from_summand((AlgebraElement.identity(C),))
        cls = hc_class(xi)
        assert cls.degree == 0 and not cls.is_zero()
        assert (cls - cls).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(0, 2))
    def test_boundaries_have_zero_class(self, seed, degree):
        eta = random_tensor(M2, 1, degree + 1, random.Random(seed))
        xi = face_op(eta)
        assert xi.is_cycle()
        assert hc_class(xi).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_boundary_witness_reproduces_the_cycle(self, seed):
        eta = random_tensor(M2, 1, 2, random.Random(seed))
        xi = face_op(eta)
        witness = is_boundary(xi)
        assert witness is not None
        assert cc_reduce(face_op(witness)) == cc_reduce(xi)

    def test_non_cycle_rejected(self):
        # e00 x e01 has boundary e01, which survives in degree 0
        xi = TensorElement.basis(M2, 1, ((0, 0, 0), (0, 0, 1)))
        assert not xi.is_cycle()
        with pytest.raises(DomainError):
            hc_class(xi)


class TestTraceMap:
    def test_identity_at_no_amplification(self):
        xi = random_tensor(A, 1, 2, random.Random(4))
        assert trace_map(xi).equals(xi)

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 2))
    def test_chain_map_property(self, seed, degree):
        xi = random_tensor(C, 2, degree, random.Random(seed))
        assert trace_map(face_op(xi)).equals(face_op(trace_map(xi)))

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(0, 2))
    def test_commutes_with_cyclic(self, seed, degree):
        xi = random_tensor(C, 2, degree, random.Random(seed))
        assert trace_map(cyclic_op(xi)).equals(cyclic_op(trace_map(xi)))

    def test_amplified_homology_matches_base(self):
        # HC_n(M_m(A)) has the dimensions of HC_n(A)
        assert hc_dims(C, 2, amplification=2) == hc_dims(C, 2)


def random_rep(rng, algebra=C, m=2, degree=1, summands=2):
    out = []
    for _ in range(summands):
        out.append(tuple(
            AlgebraElement(algebra, m, tuple(
                tuple(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(d)) for _ in range(d))
                for d in algebra.ambient_dims(m)))
            for _ in range(degree + 1)))
    return DecompositionRep(tuple(out))


class TestNormBounds:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_face_bound(self, seed):
        rep = random_rep(random.Random(seed))
        for i in range(rep.degree + 1):
            assert check_face_bound(rep, i)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_trace_bound(self, seed):
        rep = random_rep(random.Random(seed))
        assert check_trace_bound(rep)

    def test_trace_rep_expands_to_traced_tensor(self):
        rep = random_rep(random.Random(1))
        lhs = trace_rep(rep).expand()
        rhs = trace_map(rep.expand())
        assert lhs.equals(rhs)

    def test_norm_is_subadditive_over_summands(self):
        rng = random.Random(2)
        rep = random_rep(rng, summands=2)
        one = DecompositionRep(rep.summands[:1])
        two = DecompositionRep(rep.summands[1:])
        assert decomposition_norm(rep) \
            <= decomposition_norm(one) + decomposition_norm(two) + 1e-9


# ---------------------------------------------------------------------------
# the weight grading, kept here as the oracle for the closed-walk complex

def weight(key) -> tuple:
    """Per (factor, index): row uses minus column uses, as sorted pairs with
    a nonzero count; () is weight 0.  Faces and rotation keep it."""
    w = {}
    for j, a, b in key:
        w[j, a] = w.get((j, a), 0) + 1
        w[j, b] = w.get((j, b), 0) - 1
    return tuple(sorted((p, c) for p, c in w.items() if c))


def weight_zero_part(xi):
    return TensorElement(xi.algebra, xi.amplification, xi.degree,
                         {k: c for k, c in xi.coeffs.items() if not weight(k)})


def brute_force_orbits(algebra, m, n):
    """Every canonical orbit of CC_n: the smallest rotation of its tuple,
    kept unless a rotation by k fixes it with sign (-1)^(nk) = -1."""
    units = sorted((j, a, b) for j, d in enumerate(algebra.ambient_dims(m))
                   for a in range(d) for b in range(d))
    out = []
    for key in itertools.product(units, repeat=n + 1):
        rotations = [key[k:] + key[:k] for k in range(n + 1)]
        if key == min(rotations) and not any(
                rotations[k] == key and (n * k) % 2
                for k in range(1, n + 1)):
            out.append(key)
    return out


def power(x, k):
    return TensorElement.from_summand((x,) * k)


# tensors of nonzero weight over M_2, by degree, whose boundaries survive
# in CC
OFF_WEIGHT = {
    2: TensorElement.basis(M2, 1, ((0, 0, 0), (0, 0, 1), (0, 1, 1))),
    3: TensorElement.basis(M2, 1, ((0, 0, 1), (0, 1, 0), (0, 0, 1),
                                   (0, 1, 1))),
}
HALF = Fraction(1, 2)
P_CM2 = AlgebraElement(CM2, 1, (((Fraction(1),),),
                                ((HALF, HALF), (HALF, HALF))))
Q_CM2 = AlgebraElement(CM2, 1, (((Fraction(0),),),
                                ((Fraction(1, 5), Fraction(2, 5)),
                                 (Fraction(2, 5), Fraction(4, 5)))))
P_M2 = AlgebraElement(M2, 1, (((Fraction(1, 5), Fraction(2, 5)),
                               (Fraction(2, 5), Fraction(4, 5))),))
I = Cyclotomic.gaussian(0, 1)
P_GAUSS = AlgebraElement(M2, 1, (((HALF, I * HALF), (-I * HALF, HALF)),))
P_AMP = AlgebraElement(C, 2, (((Fraction(1, 5), Fraction(2, 5)),
                               (Fraction(2, 5), Fraction(4, 5))),))


def golden_cycles():
    """Fixed cycles: projection powers plus boundaries of mixed weight."""
    return {
        "cm2_deg2": power(P_CM2, 3).scale(Fraction(2, 3))
        + power(Q_CM2, 3).scale(Fraction(-5, 4))
        + face_op(random_tensor(CM2, 1, 3, random.Random(11), 6)),
        "cm2_deg2_float": power(P_CM2, 3).scale(0.25 + 0.5j)
        + power(Q_CM2, 3).scale(-1.5)
        + face_op(random_tensor(CM2, 1, 3, random.Random(15), 6)).scale(0.1),
        "cm2_deg0": power(P_CM2, 1),
        "m2_deg4": power(P_M2, 5).scale(Fraction(3, 7))
        + face_op(random_tensor(M2, 1, 5, random.Random(12), 5)),
        "gauss_deg2": power(P_GAUSS, 3).scale(I * Fraction(3, 2))
        + face_op(random_tensor(M2, 1, 3, random.Random(13), 5)),
        "amp_deg2": power(P_AMP, 3)
        + face_op(random_tensor(C, 2, 3, random.Random(14), 5)),
    }


def golden_boundaries():
    return {
        "m2_deg1": face_op(random_tensor(M2, 1, 2, random.Random(21), 8)),
        "m2_deg2": face_op(random_tensor(M2, 1, 3, random.Random(22), 8)),
        "cm2_deg1": face_op(random_tensor(CM2, 1, 2, random.Random(23), 8)),
        "amp_deg2": face_op(random_tensor(C, 2, 3, random.Random(24), 6)),
        # closed walks, whose part the elimination solves
        "m2_deg2_walks": face_op(TensorElement(M2, 1, 3, {
            ((0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 0, 0)): Fraction(2),
            ((0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 0, 0)): Fraction(-1, 3),
            ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 1)): Fraction(1)})),
    }


# Recorded from the ungraded complex, which eliminated every weight block.
GOLDEN_COORDS = {
    "cm2_deg2": [["2/3", "0"], ["-7/12", "0"]],
    "cm2_deg2_float": [[0.25, 0.5], [-1.25, 0.5]],
    "cm2_deg0": [["1", "0"], ["1", "0"]],
    "m2_deg4": [["3/7", "0"]],
    "gauss_deg2": [["0", "3/2"]],
    "amp_deg2": [["1", "0"]],
}
# Each witness in full: the closed-walk terms from the elimination of the
# closed walks, the broken ones from the break homotopy.
GOLDEN_WITNESSES = {
    "m2_deg1": [
        [[[0, 0, 0], [0, 0, 1], [0, 0, 0]], ["-3", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 0, 0]], ["2", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1]], ["-2", "0"]],
        [[[0, 0, 1], [0, 1, 1], [0, 0, 0]], ["3", "0"]]],
    "m2_deg2": [
        [[[0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], ["-3/2", "0"]],
        [[[0, 0, 0], [0, 1, 0], [0, 1, 1], [0, 1, 0]], ["-1", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 0], [0, 0, 1]], ["-3/2", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 0], [0, 1, 0]], ["1", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 0, 0]], ["3/2", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 1]], ["3/2", "0"]],
        [[[0, 1, 0], [0, 1, 0], [0, 1, 1], [0, 1, 1]], ["1", "0"]],
        [[[0, 1, 0], [0, 1, 1], [0, 1, 0], [0, 1, 1]], ["-1", "0"]]],
    "cm2_deg1": [
        [[[0, 0, 0], [1, 0, 0], [1, 0, 1]], ["-1/2", "0"]],
        [[[0, 0, 0], [1, 0, 1], [0, 0, 0]], ["1/2", "0"]],
        [[[0, 0, 0], [1, 1, 0], [0, 0, 0]], ["-3/2", "0"]],
        [[[0, 0, 0], [1, 1, 1], [0, 0, 0]], ["1", "0"]],
        [[[0, 0, 0], [1, 1, 1], [1, 1, 0]], ["3/2", "0"]],
        [[[0, 0, 0], [1, 1, 1], [1, 1, 1]], ["-1", "0"]],
        [[[1, 0, 0], [1, 1, 1], [1, 1, 0]], ["-1", "0"]],
        [[[1, 1, 0], [1, 1, 1], [1, 1, 1]], ["1", "0"]]],
    "amp_deg2": [
        [[[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], ["-2", "0"]],
        [[[0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 0, 0]], ["-3/2", "0"]],
        [[[0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 0]], ["-1", "0"]],
        [[[0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 1]], ["3/2", "0"]],
        [[[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 0, 0]], ["2", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 0, 0]], ["-3/2", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 0]], ["-1", "0"]],
        [[[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 1]], ["-3/2", "0"]],
        [[[0, 0, 1], [0, 0, 0], [0, 0, 1], [0, 0, 1]], ["-2/3", "0"]],
        [[[0, 0, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0]], ["2", "0"]],
        [[[0, 0, 1], [0, 0, 1], [0, 0, 0], [0, 0, 1]], ["2/3", "0"]],
        [[[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 0]], ["-2/3", "0"]],
        [[[0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 0]], ["1", "0"]]],
    "m2_deg2_walks": [
        [[[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 0]], ["2", "0"]],
        [[[0, 0, 1], [0, 1, 1], [0, 1, 1], [0, 0, 0]], ["-1", "0"]]],
}


class TestWeightGrading:
    @pytest.mark.parametrize("blocks, m, max_degree", [
        ((2,), 1, 4), ((1, 2), 1, 3), ((2, 2), 1, 2), ((1, 1), 2, 3)])
    def test_basis_is_the_weight_zero_orbits(self, blocks, m, max_degree):
        algebra = MultiMatrixAlgebra(blocks)
        for n in range(max_degree + 1):
            expected = [k for k in brute_force_orbits(algebra, m, n)
                        if not weight(k)]
            assert leaf_canonical_orbit_basis(algebra, m, n, ()) == expected

    def test_missing_weight_zero_key_fails_loudly(self, monkeypatch):
        # the split spells the closed walks of factor 1 of C + M_2 in the
        # index of M_2's CC_2; one missing from it is a bug: KeyError
        space = hc_space(CM2, 2)
        above = cyclic._boundary((2,), 3)
        short = above.target.words[1:]
        broken = CyclicSpace((2,), 2, short,
                             {k: i for i, k in enumerate(short)})
        monkeypatch.setattr(cyclic, "_boundary", lambda dims, n: (
            cyclic._Boundary(above.source, broken, above.rank)))

        def lifted(key):
            return TensorElement.basis(CM2, 1, tuple((1, a, b)
                                                     for _, a, b in key))
        assert {f: coords for f, (_, coords) in space._parts(
            lifted(above.target.basis[1])).items()} == {1: {0: 1}}
        with pytest.raises(KeyError):
            space._parts(lifted(above.target.basis[0]))

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 2))
    def test_class_ignores_nonzero_weights(self, seed, degree):
        rng = random.Random(seed)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        # integer random terms cannot cancel the sevenths of weight != 0
        xi = power(P_M2, degree + 1).scale(c) \
            + face_op(random_tensor(M2, 1, degree + 1, rng, terms=6)) \
            + face_op(OFF_WEIGHT[degree + 1]).scale(Fraction(1, 7))
        assert any(weight(k) for k in cc_reduce(xi))
        assert hc_class(xi) == hc_class(weight_zero_part(xi))

    def test_golden_classes(self):
        got = {name: sz.hc_class_to_json(hc_class(xi))["coords"]
               for name, xi in golden_cycles().items()}
        assert got == GOLDEN_COORDS

    def test_golden_witnesses(self):
        witnesses = {name: is_boundary(xi)
                     for name, xi in golden_boundaries().items()}
        got = {name: [[t["indices"], t["coeff"]]
                      for t in sz.tensor_to_json(w)["terms"]]
               for name, w in witnesses.items()}
        assert got == GOLDEN_WITNESSES
        for name, xi in golden_boundaries().items():
            assert cc_reduce(face_op(witnesses[name])) == cc_reduce(xi)

    @pytest.mark.parametrize("eta", [
        *OFF_WEIGHT.values(),
        TensorElement.basis(C, 2, ((0, 0, 0),) * 3 + ((0, 0, 1),)),
        TensorElement.basis(CM2, 1, ((0, 0, 0), (0, 0, 0), (1, 0, 1)))])
    def test_witness_for_a_boundary_of_nonzero_weight(self, eta):
        xi = face_op(eta)
        reduced = cc_reduce(xi)
        assert reduced and all(weight(k) for k in reduced)
        witness = is_boundary(xi)
        assert witness is not None
        assert cc_reduce(face_op(witness)) == reduced


# ---------------------------------------------------------------------------
# key validation where a tensor enters the library

class TestKeyValidation:
    def test_constructor_rejects_out_of_range_keys(self):
        for key in [((0, 0, 2), (0, 0, 0)), ((1, 0, 0), (0, 0, 0)),
                    ((0, -1, 0), (0, 0, 0))]:
            with pytest.raises(ValidationError):
                TensorElement(M2, 1, 1, {key: Fraction(1)})

    def test_basis_rejects_out_of_range_keys(self):
        with pytest.raises(ValidationError):
            TensorElement.basis(M2, 1, ((0, 0, 0), (0, 2, 0)))
        with pytest.raises(ValidationError):
            TensorElement.basis(C, 1, ((0, 0, 0), (1, 0, 0)))

    @pytest.mark.parametrize("unit", [(0, 0), (0, 0, 0, 0)])
    def test_constructor_rejects_non_triple_units(self, unit):
        with pytest.raises(ValidationError, match="is not a .* triple"):
            TensorElement(C, 1, 0, {(unit,): Fraction(1)})

    def test_serializer_rejects_out_of_range_keys(self):
        doc = sz.tensor_to_json(TensorElement.basis(C, 2, ((0, 0, 1),)))
        doc["terms"][0]["indices"] = [[0, 0, 2]]
        with pytest.raises(ValidationError):
            sz.tensor_from_json(doc)

    def test_internal_results_keep_valid_keys(self):
        xi = random_tensor(CM2, 2, 2, random.Random(5), terms=6)
        for out in (xi + xi, xi.scale(Fraction(1, 3)), face_op(xi),
                    cyclic_op(xi), trace_map(xi)):
            again = TensorElement(out.algebra, out.amplification, out.degree,
                                  out.coeffs)
            assert again.coeffs == out.coeffs

    @pytest.mark.parametrize("n, m", [(-1, 1), (2, 0), (2, -1)])
    def test_spaces_reject_bad_degree_and_amplification(self, n, m):
        with pytest.raises(ValidationError):
            hc_space(M2, n, m)
        with pytest.raises(ValidationError):
            hc_dims(M2, n, m)


def _cc_canonical_two_loops(key, n):
    """Reference for ``_cc_canonical`` in two scans: one for the least
    rotation, then, in odd degree, one for a stabilizer of the other
    sign."""
    best, best_k = key, 0
    for k in range(1, n + 1):
        rot = key[-k:] + key[:-k]
        if rot < best:
            best, best_k = rot, k
    sign = 1 if (n * best_k) % 2 == 0 else -1
    if n % 2:
        for k in range(1, n + 1):
            if k != best_k and key[-k:] + key[:-k] == best \
                    and (n * k) % 2 != (n * best_k) % 2:
                return best, 0
    return best, sign


def test_cc_canonical_matches_the_two_loop_form():
    words = [w for length in range(1, 8)
             for w in itertools.product(range(3), repeat=length)]
    assert len(words) == 3279
    for w in words:
        assert cyclic._cc_canonical(w, len(w) - 1) \
            == _cc_canonical_two_loops(w, len(w) - 1), w


# ---------------------------------------------------------------------------
# the orbit walk is charged the nodes it visits

class TestWalkBudget:
    @pytest.mark.parametrize("blocks, n, nodes", [((2,), 3, 55),
                                                  ((3,), 4, 966)])
    def test_walk_is_charged_its_nodes(self, cold_cyclic, blocks, n, nodes):
        try:
            set_budget(nodes - 1)
            with pytest.raises(ResourceError, match=f"CC_{n} basis"):
                cyclic._cyclic_space(blocks, n)
            set_budget(nodes)
            cyclic._cyclic_space(blocks, n)
        finally:
            set_budget(100_000)

    @staticmethod
    def reaches(size, top):
        """hc_dims of M_size answers to degree ``top`` and no further."""
        algebra = MultiMatrixAlgebra((size,))
        assert hc_dims(algebra, top) == [1 - n % 2 for n in range(top + 1)]
        with pytest.raises(ResourceError,
                           match=f"nodes walked so far for the CC_{top + 2} "):
            hc_dims(algebra, top + 1)

    def test_default_budget_reaches_hc7_of_m3(self):
        self.reaches(3, 7)

    def test_default_budget_reaches_hc5_of_m4(self):
        self.reaches(4, 5)

    @pytest.mark.parametrize("size, top", [(2, 14), (3, 7), (4, 5)])
    def test_default_budget_witnesses_reach_the_dims(self, cold_cyclic, size,
                                                     top):
        # a cold witness builds the closed walks hc_dims builds, one degree
        # up, and nothing more
        algebra = MultiMatrixAlgebra((size,))
        rng = random.Random(size)

        def boundary(n):
            walk = ((0, 0, 1), (0, 1, 1), (0, 1, 0), (0, 0, 1),
                    (0, 1, 0)) + ((0, 0, 0),) * (n - 3)
            return face_op(random_tensor(algebra, 1, n + 1, rng)
                           + TensorElement.basis(algebra, 1, walk))
        xi = boundary(top)
        assert not all(map(cyclic._breaks, cc_reduce(xi)))
        assert is_witness(is_boundary(xi), xi)
        with pytest.raises(ResourceError,
                           match=f"nodes walked so far for the CC_{top + 2} "):
            is_boundary(boundary(top + 1))


# ---------------------------------------------------------------------------
# the prenecklace walk against a walk that canonicalizes every leaf

def leaf_canonical_orbit_basis(algebra, m, n, weight):
    """Reference walk: every unit tuple whose letters are all at least its
    first letter, cut by the weight gap, kept when ``_cc_canonical`` gives
    it back with sign 1."""
    units = cyclic._all_units(algebra, m)
    pos = {}
    for j, a, _ in units:
        pos.setdefault((j, a), len(pos))
    moves = [(u, pos[u[0], u[1]], pos[u[0], u[2]]) for u in units]
    gap = [0] * len(pos)
    for p, c in weight:
        gap[pos[p]] -= c
    basis = []
    prefix = []

    def walk(first, dist, left):
        if dist > 2 * left:
            return
        if not left:
            key = tuple(prefix)
            rep, sign = cyclic._cc_canonical(key, n)
            if sign == 1 and rep == key:
                basis.append(key)
            return
        for i in range(first, len(moves)):
            u, r, c = moves[i]
            prefix.append(u)
            nxt = i if left == n + 1 else first
            if r == c:
                walk(nxt, dist, left - 1)
            else:
                gr, gc = gap[r], gap[c]
                gap[r], gap[c] = gr + 1, gc - 1
                walk(nxt, dist - abs(gr) - abs(gc) + abs(gr + 1)
                     + abs(gc - 1), left - 1)
                gap[r], gap[c] = gr, gc
            prefix.pop()

    walk(0, sum(abs(g) for g in gap), n + 1)
    return basis


# (blocks, amplification, degree, a word of the weight to walk)
WALK_CASES = [
    ((1, 1), 1, 3, ()), ((1, 1), 1, 4, ()),
    ((1, 1), 2, 2, ((0, 0, 1),)), ((1, 1), 2, 3, ((1, 1, 0),)),
    ((2,), 1, 4, ((0, 0, 1), (0, 0, 1))), ((2,), 1, 5, ((0, 1, 0),)),
    ((2,), 2, 1, ((0, 0, 3),)), ((2,), 2, 2, ()),
    ((1, 2), 1, 3, ((1, 0, 1),)), ((1, 2), 1, 4, ()),
    ((1, 2), 2, 1, ()), ((1, 2), 2, 2, ((0, 1, 0), (1, 2, 3))),
    ((2, 2), 1, 2, ((0, 0, 1), (1, 1, 0))), ((2, 2), 1, 3, ()),
    ((2, 2), 2, 1, ((1, 3, 0),)), ((2, 2), 2, 2, ()),
]


class TestPrenecklaceWalk:
    @pytest.mark.parametrize("blocks, m, n, word", WALK_CASES)
    def test_basis_equals_both_references(self, blocks, m, n, word):
        algebra = MultiMatrixAlgebra(blocks)
        w = weight(word)
        brute = [k for k in brute_force_orbits(algebra, m, n)
                 if weight(k) == w]
        assert brute, "a case with an empty basis shows nothing"
        assert leaf_canonical_orbit_basis(algebra, m, n, w) == brute
        # only the closed walks, of weight 0, are built; every case checks
        # the bases that the elimination oracle below walks
        if not w:
            space = cyclic._cyclic_space(algebra.ambient_dims(m), n)
            assert list(space.basis) == list(filter(closes, brute))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 2), min_size=1, max_size=3),
           st.integers(0, 4))
    def test_random_algebras_match_the_leaf_walk(self, blocks, n):
        algebra = MultiMatrixAlgebra(tuple(blocks))
        assert list(cyclic._cyclic_space(algebra.block_dims, n).basis) \
            == list(filter(closes, leaf_canonical_orbit_basis(algebra, 1, n,
                                                              ())))

    def test_walk_canonicalizes_no_leaf(self, monkeypatch, cold_cyclic):
        cases = [(M2, 1, 5), (CM2, 1, 4), (A, 2, 3)]
        expected = [list(filter(closes, leaf_canonical_orbit_basis(
            algebra, m, n, ()))) for algebra, m, n in cases]

        def refuse(key, n):
            raise AssertionError("the walk canonicalized a leaf")
        monkeypatch.setattr(cyclic, "_cc_canonical", refuse)
        assert [list(cyclic._cyclic_space(algebra.ambient_dims(m), n).basis)
                for algebra, m, n in cases] == expected


# ---------------------------------------------------------------------------
# witnesses of broken words from the break homotopy, against elimination

def block_boundary(algebra, m, n, w):
    """b: CC_n -> CC_{n-1} on the block of weight w, both bases from the
    leaf walk: (source words, encode, target index by encoded word, the
    columns b(word) in target positions).  Words are encoded in the
    library's letters and multiplied as their units are."""
    units, letter, _, _ = cyclic._letters(algebra.ambient_dims(m))

    def encode(key):
        return tuple(letter[u] for u in key)

    def mul(x, y):
        u = cyclic._unit_mul(units[x], units[y])
        return None if u is None else letter[u]

    source = leaf_canonical_orbit_basis(algebra, m, n, w)
    index = {encode(k): i for i, k in enumerate(
        leaf_canonical_orbit_basis(algebra, m, n - 1, w))}
    columns = [cyclic._boundary_column(
        encode(k), mul, index, lambda face: cyclic._cc_canonical(face, n - 1))
        for k in source]
    return source, encode, index, columns


def elimination_witness(xi):
    """The per-weight elimination route: each weight block of xi, weight 0
    included, is solved against the boundary of its own block, broken
    words and closed walks together.  A witness, or None."""
    reduced = cc_reduce(xi)
    out = {}
    for w in {()} | {weight(k) for k in reduced}:
        source, encode, index, columns = block_boundary(
            xi.algebra, xi.amplification, xi.degree + 1, w)
        reducer, _, _ = eliminate(tagged(columns))
        residue = reducer.reduce({index[encode(k)]: c
                                  for k, c in reduced.items()
                                  if weight(k) == w})
        if any(k >= 0 for k in residue):
            return None
        # the residue's tags are minus the preimage combination
        out.update((source[j], -f) for j, f in tags(residue).items())
    return TensorElement(xi.algebra, xi.amplification, xi.degree + 1, out)


def is_witness(eta, xi):
    """b(eta) = xi in CC, exactly or within epsilon."""
    return all(map(scalar_is_zero, cc_reduce(face_op(eta) - xi).values()))


# (blocks, amplification, largest degree of xi): at most 2 factors of size
# at most 2, m <= 2, n <= 3, within the default budget
ORACLE_SPACES = [((1,), 1, 3), ((2,), 1, 3), ((1, 1), 1, 3), ((1, 2), 1, 3),
                 ((2, 2), 1, 2), ((1,), 2, 3), ((2,), 2, 1), ((1, 1), 2, 2),
                 ((1, 2), 2, 1), ((2, 2), 2, 0)]


class TestBreakHomotopy:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from([CM2, MultiMatrixAlgebra((1, 1, 1)),
                                   MultiMatrixAlgebra((3,))]),
           st.integers(1, 2), st.integers(0, 4))
    def test_contracts_each_broken_part_of_a_boundary(self, seed, algebra,
                                                       m, n):
        # no complex is built: S is read off each word, over any size
        xi = face_op(random_tensor(algebra, m, n + 1, random.Random(seed),
                                   terms=6))
        parts = {}
        for key, c in cc_reduce(xi).items():
            parts.setdefault(len(cyclic._breaks(key)), {})[key] = c
        for r, part in parts.items():
            xi_r = TensorElement(algebra, m, n, part)
            assert xi_r.is_cycle()
            assert (r == 0) == all(map(closes, part))
            if r:
                eta = TensorElement(algebra, m, n + 1,
                                    cyclic._break_homotopy(part.items()))
                assert cc_reduce(face_op(eta)) == part

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from(ORACLE_SPACES),
           st.sampled_from(["boundary", "float boundary", "noisy"]),
           st.data())
    def test_agrees_with_elimination(self, seed, case, kind, data):
        blocks, m, top = case
        algebra = MultiMatrixAlgebra(blocks)
        n = data.draw(st.integers(0, top))
        rng = random.Random(seed)
        xi = face_op(random_tensor(algebra, m, n + 1, rng, terms=6))
        if kind == "float boundary":
            xi = xi.scale(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        elif kind == "noisy":  # often not a cycle, or not a boundary
            xi = xi + random_tensor(algebra, m, n, rng, terms=2)
        witness, oracle = is_boundary(xi), elimination_witness(xi)
        assert (witness is None) == (oracle is None)
        if kind != "noisy":
            assert witness is not None
        for eta in (witness, oracle):
            assert eta is None or is_witness(eta, xi)

    def test_broken_non_cycle_has_no_witness(self):
        # e00 x e01 has two breaks and boundary e01: only the final check
        # b(eta) = xi tells it from a boundary
        xi = TensorElement.basis(M2, 1, ((0, 0, 0), (0, 0, 1)))
        assert not xi.is_cycle() and all(map(cyclic._breaks, cc_reduce(xi)))
        assert is_boundary(xi) is None

    @staticmethod
    def criterion_7_families(count):
        """The witness families of acceptance criterion 7, in order."""
        rng = random.Random(1070)
        while count:
            ps = random_orthogonal_family(C, rng, 2, m=2)
            if not any(p.element.is_zero() for p in ps):
                count -= 1
                yield ps

    def test_criterion_7_builds_only_closed_walks(self, monkeypatch,
                                                   cold_cyclic):
        built = []
        boundary = cyclic._boundary
        monkeypatch.setattr(cyclic, "_boundary", lambda dims, n: (
            built.append(n) or boundary(dims, n)))
        ps, = self.criterion_7_families(1)
        assert verify_eta_vanishes(ps, 1, witness=True).witness_found
        # the boundaries into and out of CC_2 on the closed walks of M_2,
        # built for the space; the witness reads b_3 again
        assert sorted(built) == [2, 3, 3]
        assert boundary.cache_info().misses == 2

    def test_criterion_7_families_agree_with_elimination(self):
        for ps in self.criterion_7_families(10):
            xi = _eta_rep(ps, 1).expand()  # the obstruction in matrix units
            witness = is_boundary(xi)
            assert witness is not None and is_witness(witness, xi)
            assert elimination_witness(xi) is not None


class TestFaceMemo:
    """A boundary build canonicalizes each distinct face once."""

    @staticmethod
    def count_canonicalizations(monkeypatch, algebra, n):
        calls = []
        canonical = cyclic._cc_canonical
        monkeypatch.setattr(cyclic, "_cc_canonical",
                            lambda key, n: calls.append(1) or canonical(key, n))
        cyclic._boundary(algebra.ambient_dims(), n)
        return len(calls)

    def test_one_call_over_c(self, monkeypatch, cold_cyclic):
        assert self.count_canonicalizations(monkeypatch, C, 40) == 1

    def test_one_call_per_distinct_face(self, monkeypatch, cold_cyclic):
        calls = self.count_canonicalizations(monkeypatch, M2, 7)
        faces = {face for key in cyclic._cyclic_space((2,), 7).basis
                 for i in range(len(key))
                 if (face := cyclic._face(key, i, cyclic._unit_mul))
                 is not None}
        assert len(faces) == 75
        assert calls == len(faces)


# ---------------------------------------------------------------------------
# words on integer letters, and ranks from the rows of b

# the algebras of the benchmark's cold builds, and C + M_2 amplified twice
LETTER_CASES = [((2,), 1), ((3,), 1), ((1, 2), 1), ((2, 2), 1),
                ((1, 1, 1), 1), ((1, 2), 2)]


class TestLetters:
    @pytest.mark.parametrize("blocks, m", LETTER_CASES)
    def test_letters_sort_and_multiply_as_their_units(self, blocks, m):
        algebra = MultiMatrixAlgebra(blocks)
        units, letter, _, mul = cyclic._letters(algebra.ambient_dims(m))
        assert units == sorted(
            (j, a, b) for j, d in enumerate(algebra.ambient_dims(m))
            for a in range(d) for b in range(d))
        assert [letter[u] for u in units] == list(range(len(units)))
        for x, y in itertools.product(range(len(units)), repeat=2):
            u = cyclic._unit_mul(units[x], units[y])
            assert mul(x, y) == (None if u is None else letter[u])


class TestRanksFromRows:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.integers(1, 2), st.integers(1, 4))
    def test_rank_equals_the_column_elimination(self, blocks, m, n):
        algebra = MultiMatrixAlgebra(tuple(blocks))
        try:
            boundary = cyclic._boundary(algebra.ambient_dims(m), n)
        except ResourceError:
            reject()  # beyond the default budget
        columns = cyclic._boundary_columns(boundary.source, boundary.target)
        assert boundary.rank == eliminate(columns)[0].rank

    def test_rank_of_b7_over_m2_inserts_its_rows(self, monkeypatch,
                                                 cold_cyclic):
        inserted = []

        def counting(vectors):
            vectors = list(vectors)
            inserted.append(len(vectors))
            return eliminate(vectors)
        monkeypatch.setattr(cyclic, "eliminate", counting)
        boundary = cyclic._boundary((2,), 7)
        assert boundary.source.dimension == 34
        assert inserted == [boundary.target.dimension] == [20]

    @staticmethod
    def int_rows(monkeypatch, dims, n):
        """(rank, reducer, Fractions built) of the row elimination of b_n."""
        reducers, built = [], []

        class Counting(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        def keeping(vectors):
            out = eliminate(vectors)
            reducers.append(out[0])
            return out
        monkeypatch.setattr(scalars, "Fraction", Counting)
        monkeypatch.setattr(cyclic, "eliminate", keeping)
        rank = cyclic._boundary(dims, n).rank
        [red] = reducers
        assert len(red._ints) == red.rank == rank
        assert {type(v) for row in red._ints.values() for v in row.values()} == {int}
        return rank, red, built

    def test_rows_of_b7_over_m2_stay_in_ints(self, monkeypatch, cold_cyclic):
        rank, red, built = self.int_rows(monkeypatch, (2,), 7)
        assert rank == 15 and built == []
        assert {row[p] for p, row in red._ints.items()} == {1}

    def test_pivots_of_2_stay_in_ints(self, monkeypatch, cold_cyclic):
        # some pivots of b5 over M_3 are 2: the rows keep them, and no
        # Fraction is built
        rank, red, built = self.int_rows(monkeypatch, (3,), 5)
        assert rank == 38 and built == []
        assert {row[p] for p, row in red._ints.items()} == {1, 2}


# ---------------------------------------------------------------------------
# HC of M_m(A) as the sum over factors f of HC of M_{m r_f}

# the leaf walk of CC_{n+1} visits at most letters^(n+2) tuples; below this
# bound an example takes well under a second, and larger sums of factors are
# left to TestClosedWalks' fixed cases
LEAF_WALK_LIMIT = 10 ** 6


class TestFactorSum:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.integers(1, 2), st.integers(0, 4))
    def test_factor_sum_equals_the_full_block(self, blocks, m, n):
        # the full weight-0 block holds the words that mix factors: HC of a
        # sum is the sum of HC of its factors only if they are acyclic
        algebra = MultiMatrixAlgebra(tuple(blocks))
        if len(cyclic._all_units(algebra, m)) ** (n + 2) > LEAF_WALK_LIMIT:
            reject()
        full = [full_block_dimension(algebra, m, k) for k in range(n + 1)]
        with mock.patch.object(cyclic, "hc_space",
                               wraps=cyclic.hc_space) as spy:
            assert hc_dims(algebra, n, m) == full
        # the spaces read are those of the M_{m r_f}, at amplification 1
        assert {c.args for c in spy.call_args_list} == {
            (MultiMatrixAlgebra((m * r,)), k) for r in blocks
            for k in range(n + 1)}

    def test_cold_dims_build_one_factor_blocks_only(self, monkeypatch,
                                                    cold_cyclic):
        built = []
        boundary = cyclic._boundary
        monkeypatch.setattr(cyclic, "_boundary", lambda dims, n: (
            built.append(dims) or boundary(dims, n)))
        assert hc_dims(CM2, 4) == [2, 0, 2, 0, 2]
        # b_1, ..., b_5 on the closed walks over C and over M_2; no complex
        # of C + M_2
        assert set(built) == {(1,), (2,)}
        assert boundary.cache_info().currsize == 10


# ---------------------------------------------------------------------------
# HC of M_d on the closed walks, the words the generalized trace keeps

def closes(key):
    """Each unit's column is the next unit's row, the last wrapping to the
    first: a closed walk e_{v_0 v_1} x ... x e_{v_n v_0} of one factor."""
    return all(u[0] == v[0] and u[2] == v[1]
               for u, v in zip(key, key[1:] + key[:1]))


def closed_walk_dimension(dims, n):
    """dim HC_n from the ranks of the closed walks alone."""
    ranks = [cyclic._boundary(dims, k).rank for k in (n, n + 1) if k]
    return cyclic._cyclic_space(dims, n).dimension - sum(ranks)


def full_block_dimension(algebra, m, n):
    """dim HC_n from the ranks of the full weight-0 block of M_m(A), broken
    words included, built from the leaf walk."""
    ranks = [eliminate(block_boundary(algebra, m, k, ())[3])[0].rank
             for k in (n, n + 1) if k]
    return len(leaf_canonical_orbit_basis(algebra, m, n, ())) - sum(ranks)


# (size d, the top degree to which the full weight-0 block of M_d is
# checked; over C every degree is one word)
FULL_REACH = [(1, 14), (2, 7), (3, 4)]


class TestClosedWalks:
    @pytest.mark.parametrize("size, top", FULL_REACH)
    def test_closed_walk_ranks_equal_full_block_ranks(self, size, top):
        algebra = MultiMatrixAlgebra((size,))
        closed = [closed_walk_dimension((size,), n) for n in range(top + 1)]
        assert closed == [full_block_dimension(algebra, 1, n)
                          for n in range(top + 1)]
        assert closed == [1 - n % 2 for n in range(top + 1)]

    # sums of factors: the full block holds the words that mix factors, and
    # HC still has one class per factor in each even degree
    @pytest.mark.parametrize("dims, top", [((1, 2), 4), ((1, 1, 1), 4),
                                           ((2, 2), 3), ((1, 3), 3)])
    def test_mixed_words_add_nothing_to_the_factor_sum(self, dims, top):
        algebra = MultiMatrixAlgebra(dims)
        full = [full_block_dimension(algebra, 1, n) for n in range(top + 1)]
        assert full == [closed_walk_dimension(dims, n)
                        for n in range(top + 1)]
        assert full == [len(dims) * (1 - n % 2) for n in range(top + 1)]

    # each size to its full reach, and sums of factors and amplifications,
    # whose closed walks stay inside one factor
    @pytest.mark.parametrize("dims, top", [((d,), top) for d, top in FULL_REACH]
                             + [((1, 2), 3), ((2, 2), 2), ((1, 1, 1), 3),
                                ((2, 4), 2)])
    def test_basis_is_the_full_basis_filtered_to_closed_walks(self, dims,
                                                              top):
        dropped = 0
        algebra = MultiMatrixAlgebra(dims)
        for n in range(top + 1):
            full = leaf_canonical_orbit_basis(algebra, 1, n, ())
            closed = cyclic._cyclic_space(dims, n).basis
            assert closed == tuple(filter(closes, full))
            dropped += len(full) - len(closed)
        assert (dropped > 0) == (dims != (1,))


class TestBlockSizeKeys:
    """M_m(A) is the sum of the M_{m r_f}: equal block sizes share one build."""

    def test_equal_sizes_share_one_space(self):
        for n in range(5):
            assert hc_space(C, n, 2) is hc_space(M2, n)

    def test_sizes_built_once_are_not_built_again(self, cold_cyclic):
        assert hc_dims(M2, 3, 2) == [1, 0, 1, 0]
        size = cyclic._boundary.cache_info().currsize
        hc_space(MultiMatrixAlgebra((4,)), 3)
        assert cyclic._boundary.cache_info().currsize == size
        # reading the closed walks of CC_3 of M_4 builds nothing more
        assert hc_space(M2, 3, 2).cc.dimension > 0
        assert hc_space(MultiMatrixAlgebra((4,)), 3).cc.dimension > 0
        assert cyclic._boundary.cache_info().currsize == size

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (1, 1, 1)])
    def test_queries_build_one_size_complexes_only(self, monkeypatch,
                                                    cold_cyclic, dims):
        # a closed walk stays in one factor: spaces, witnesses and reduced
        # classes read the complexes of M_d alone, for each size d
        keys = []
        for name in ("_boundary", "_cyclic_space"):
            monkeypatch.setattr(cyclic, name, lambda d, n, cached=getattr(
                cyclic, name): keys.append(d) or cached(d, n))
        algebra = MultiMatrixAlgebra(dims)
        rng = random.Random(7)
        walks = 0
        for n in range(4):
            space = hc_space(algebra, n)
            eta = random_tensor(algebra, 1, n + 1, rng)
            f = len(dims) - 1
            if dims[f] > 1:  # e00 x ... x e00 x e01 x e10 in the last factor
                eta = eta + TensorElement.basis(
                    algebra, 1, ((f, 0, 0),) * n + ((f, 0, 1), (f, 1, 0)))
            xi = face_op(eta)
            walks += any(not cyclic._breaks(k) for k in cc_reduce(xi))
            assert is_witness(is_boundary(xi), xi)
            for key in space.basis:
                xi = xi + TensorElement.basis(algebra, 1, key).scale(
                    Fraction(rng.randint(1, 5)))
            assert space.reduced_class(xi) == hc_class(xi)
        # C + C + C has no boundary of a closed walk in CC
        assert (walks > 0) == (dims != (1, 1, 1))
        assert keys and all(len(d) == 1 for d in keys)

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2)])
    def test_tracer_accessors_read_the_factor_sum(self, cold_cyclic, dims):
        # cc, boundary_rank and cycle_basis are read by perfbench's tracer
        algebra = MultiMatrixAlgebra(dims)
        for n in range(4):
            space = hc_space(algebra, n)
            assert space.cc.dimension == sum(
                cyclic._cyclic_space((d,), n).dimension for d in dims)
            assert space.boundary_rank == sum(
                cyclic._boundary((d,), n + 1).rank for d in dims) \
                == cyclic._boundary(dims, n + 1).rank
            ranks = sum(cyclic._boundary((d,), n).rank for d in dims) if n \
                else 0
            assert len(space.cycle_basis) == space.cc.dimension - ranks

    def test_answers_come_back_over_the_tensors_algebra(self, cold_cyclic):
        hc_space(M2, 1)
        hc_space(M2, 2)  # the spaces of C at m = 2, built over M_2
        eta = TensorElement(C, 2, 2, {
            ((0, 0, 1), (0, 1, 0), (0, 1, 1)): Fraction(2),
            ((0, 0, 0), (0, 0, 1), (0, 1, 1)): Fraction(1, 3)})
        witness = is_boundary(face_op(eta))
        assert (witness.algebra, witness.amplification) == (C, 2)
        third = Fraction(1, 3)
        assert witness.coeffs == {
            ((0, 0, 0), (0, 0, 1), (0, 0, 0)): -third,
            ((0, 0, 0), (0, 1, 1), (0, 0, 0)): 1,
            ((0, 0, 0), (0, 1, 1), (0, 1, 1)): -1,
            ((0, 0, 1), (0, 1, 1), (0, 0, 0)): third}
        cycle = TensorElement.basis(C, 2, ((0, 0, 0),) * 3).scale(3) \
            + face_op(TensorElement.basis(
                C, 2, ((0, 0, 1), (0, 1, 0), (0, 0, 1), (0, 1, 1))))
        assert hc_space(C, 2, 2).reduced_class(cycle) \
            == HCClass(2, (Fraction(3),))


# ---------------------------------------------------------------------------
# the trace-cocycle readout against the reducer

# (blocks, amplification, largest degree) within the default budget
READOUT_SPACES = [((1, 1), 1, 4), ((2,), 1, 4), ((1, 2), 1, 4),
                  ((1, 1), 2, 3), ((2,), 2, 2), ((1, 2), 2, 1)]


def random_scalar(rng, order, exact):
    if not exact:
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return Cyclotomic(order, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(1, order))])


class TestReadout:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.sampled_from(READOUT_SPACES), st.sampled_from([1, 4, 12]),
           st.booleans(), st.data())
    def test_readout_equals_reducer(self, seed, case, order, exact, data):
        blocks, m, top = case
        algebra = MultiMatrixAlgebra(blocks)
        n = data.draw(st.integers(0, top))
        rng = random.Random(seed)
        space = hc_space(algebra, n, m)
        xi = TensorElement.zero(algebra, m, n)
        for key in space.basis:
            xi = xi + TensorElement.basis(algebra, m, key).scale(
                random_scalar(rng, order, exact))
        # general cycles: random combinations of kernel vectors
        for vec in rng.sample(space.cycle_basis,
                              min(3, len(space.cycle_basis))):
            cycle = {space.cc.basis[p]: c for p, c in vec.items()}
            xi = xi + TensorElement(algebra, m, n, cycle).scale(
                random_scalar(rng, order, exact))
        for _ in range(3):
            xi = xi + face_op(random_tensor(algebra, m, n + 1, rng)).scale(
                random_scalar(rng, order, exact))
        readout, reduced = hc_class(xi), space.reduced_class(xi)
        assert readout.equals(reduced)
        assert len(readout.coords) == (algebra.num_factors if n % 2 == 0
                                       else 0)

    @pytest.mark.parametrize("case", READOUT_SPACES)
    def test_basis_reads_as_unit_vectors(self, case):
        blocks, m, top = case
        algebra = MultiMatrixAlgebra(blocks)
        k = algebra.num_factors
        for n in range(top + 1):
            space = hc_space(algebra, n, m)
            assert len(space.basis) == space.dimension \
                == (k if n % 2 == 0 else 0)
            for i, key in enumerate(space.basis):
                xi = TensorElement.basis(algebra, m, key)
                unit = HCClass(n, tuple(Fraction(int(i == j))
                                        for j in range(k)))
                assert hc_class(xi) == unit
                assert space.reduced_class(xi) == unit

    @pytest.mark.parametrize("blocks, m, n", [
        ((1, 1), 1, 0), ((1, 1), 1, 2), ((2,), 1, 1), ((2,), 1, 2),
        ((1, 2), 1, 1), ((1,), 2, 2)])
    def test_cold_space_eliminates_once_per_boundary(self, monkeypatch,
                                                     cold_cyclic, blocks, m, n):
        calls = []
        monkeypatch.setattr(cyclic, "eliminate",
                            lambda cols: calls.append(1) or eliminate(cols))
        hc_space(MultiMatrixAlgebra(blocks), n, m)
        assert len(calls) == cyclic._boundary.cache_info().currsize \
            == (1 if n == 0 else 2) * len({m * r for r in blocks})

    def test_witness_elimination_is_built_once(self, monkeypatch, cold_cyclic):
        # ranks need one elimination per boundary on the closed walks; the
        # first witness with a closed-walk part eliminates the one above
        # once more, tagged, and keeps it; broken words need none
        calls = []
        monkeypatch.setattr(cyclic, "eliminate",
                            lambda cols: calls.append(1) or eliminate(cols))
        # e00 x e11 - e01 x e11 in CC_1, broken words only
        broken = face_op(TensorElement.basis(
            M2, 1, ((0, 0, 1), (0, 1, 0), (0, 1, 1))))
        # e00 x e00 x e00 - e00 x e01 x e10 in CC_2, closed walks only
        walks = face_op(TensorElement.basis(
            M2, 1, ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0))))
        assert cc_reduce(broken) and all(map(cyclic._breaks,
                                             cc_reduce(broken)))
        assert cc_reduce(walks) and not any(map(cyclic._breaks,
                                                cc_reduce(walks)))
        hc_space(M2, 1)
        hc_space(M2, 2)
        assert len(calls) == 3
        assert is_boundary(broken) is not None
        assert len(calls) == 3
        assert is_boundary(walks) is not None
        assert len(calls) == 4
        assert is_boundary(walks) is not None
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [0, 1])
    def test_wrong_dimension_raises(self, monkeypatch, cold_cyclic, n):
        # a zero boundary leaves every closed walk as a class
        monkeypatch.setattr(cyclic, "_boundary_column", lambda *args: {})
        with pytest.raises(ConsistencyError):
            hc_space(M2, n)

    def test_cycle_outside_a_boundary_basis_fails_loudly(self):
        # a checked space's basis spans HC; a basis replaced by the
        # boundary word e01 = b(e00 x e01) leaves the class of e00 outside
        space = cyclic.HomologySpace((2,), 0)
        space.basis = (((0, 0, 1),),)
        with pytest.raises(ConsistencyError,
                           match="^cycle does not reduce into the basis$"):
            space.reduced_class(TensorElement.basis(M2, 1, ((0, 0, 0),)))

    def test_base_space_reads_the_trace(self):
        xi = golden_cycles()["amp_deg2"]
        assert hc_class(xi) == hc_class(trace_map(xi))


# ---------------------------------------------------------------------------
# the cycle check on factored tensors

def unit_element(algebra, j, a, b, m=1):
    blocks = [[[Fraction(0)] * d for _ in range(d)]
              for d in algebra.ambient_dims(m)]
    blocks[j][a][b] = Fraction(1)
    return AlgebraElement(algebra, m, tuple(blocks))


class TestFactoredCycles:
    def test_projection_powers_are_visibly_cycles(self, monkeypatch):
        monkeypatch.setattr(DecompositionRep, "expand", None)
        rep = DecompositionRep(((P_CM2,) * 5, (Q_CM2,) * 5),
                               (Fraction(2, 3), I))
        assert rep.is_cycle()
        assert hc_class(rep) \
            == hc_class(power(P_CM2, 5).scale(Fraction(2, 3))
                        + power(Q_CM2, 5).scale(I))

    def test_non_cycle_raises_through_the_expansion(self, monkeypatch):
        expanded = []
        expand = DecompositionRep.expand
        monkeypatch.setattr(DecompositionRep, "expand",
                            lambda rep: expanded.append(rep) or expand(rep))
        # b(e00 x e01 x e11) = e01 x e11 - e00 x e01 survives in CC_1
        rep = DecompositionRep(((unit_element(M2, 0, 0, 0),
                                 unit_element(M2, 0, 0, 1),
                                 unit_element(M2, 0, 1, 1)),))
        assert not rep.is_cycle()
        with pytest.raises(DomainError):
            hc_class(rep)
        assert expanded

    def test_cancellation_seen_only_after_expansion(self):
        # x(y + z) is a new element, so the faces do not visibly cancel,
        # but x y + x z - x (y + z) = 0
        x, y, z = P_M2, unit_element(M2, 0, 0, 1), unit_element(M2, 0, 1, 1)
        rep = DecompositionRep(((x, y), (x, z), (x, y + z)),
                               (1, 1, -1))
        assert rep.is_cycle()
        assert hc_class(rep).coords == ()

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.sampled_from([(CM2, 1), (M2, 1), (C, 2)]),
           st.integers(0, 3))
    def test_trace_values_equal_the_expanded_ones(self, seed, case, degree):
        algebra, m = case
        rng = random.Random(seed)

        def element():
            return AlgebraElement(algebra, m, tuple(
                tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                            for _ in range(d)) for _ in range(d))
                for d in algebra.ambient_dims(m)))

        rep = DecompositionRep(
            tuple(tuple(element() for _ in range(degree + 1))
                  for _ in range(2)),
            (Fraction(rng.randint(-3, 3)), I))
        assert rep.trace_values() == rep.expand().trace_values()

    def test_trace_values_of_amplified_summands(self):
        rep = DecompositionRep(((P_AMP,) * 3,), (Fraction(5),))
        assert rep.trace_values() \
            == power(P_AMP, 3).scale(Fraction(5)).trace_values() \
            == trace_map(power(P_AMP, 3).scale(Fraction(5))).trace_values()

    def test_float_coefficient_makes_the_class_complex(self):
        # as in read_class, one float value makes every coordinate complex;
        # an exact coefficient keeps the exact value
        x = AlgebraElement(C, 1, (((I,),),))
        (got,) = hc_class(DecompositionRep(((x,),), (0.5,))).coords
        assert isinstance(got, complex) and got == 0.5j
        assert hc_class(DecompositionRep(((x,),), (Fraction(1, 2),))).coords \
            == (I * Fraction(1, 2),)


E11 = (0, 0, 0)
ONE_C = AlgebraElement.identity(C)
REFUSALS = {
    "empty summand": (lambda: TensorElement.from_summand(()),
                      ValidationError, "empty tensor summand"),
    "summand over two algebras": (
        lambda: TensorElement.from_summand((ONE_C, AlgebraElement.identity(M2))),
        ValidationError, "tensor factors over different algebras"),
    "tensor of amplification 0": (
        lambda: TensorElement(C, 0, 0, {}),
        ValidationError, "amplification must be >= 1"),
    "sum of two degrees": (
        lambda: TensorElement.basis(C, 1, (E11,))
        + TensorElement.basis(C, 1, (E11, E11)),
        ValidationError, "tensor space mismatch"),
    "coordinates of another degree": (
        lambda: hc_space(C, 2).reduced_class(TensorElement.basis(C, 1, (E11,))),
        ValidationError, "tensor does not live in this space"),
    "reduced class of a non-cycle": (
        # b(e11 x e12) = e12 - 0
        lambda: hc_space(M2, 1).reduced_class(
            TensorElement.basis(M2, 1, (E11, (0, 0, 1)))),
        DomainError, "tensor is not a cycle in CC coordinates"),
    "sum of classes of two degrees": (
        lambda: HCClass(0, (1,)) + HCClass(2, (1,)),
        ValidationError, "homology class mismatch"),
    "empty decomposition": (lambda: DecompositionRep(()),
                            DomainError, "empty decomposition"),
    "summands of two lengths": (
        lambda: DecompositionRep(((ONE_C,), (ONE_C, ONE_C))),
        ValidationError, "summands must be nonempty and equal length"),
    "two coefficients for one summand": (
        lambda: DecompositionRep(((ONE_C,),), (1, 2)),
        ValidationError, "one coefficient per summand required"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_malformed_operands_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_tensors_and_classes_of_other_spaces_are_not_equal():
    xi = TensorElement.basis(C, 1, (E11,))
    assert not xi.equals(TensorElement.basis(C, 1, (E11, E11)))
    assert not xi.equals(TensorElement.basis(C, 2, ((0, 0, 0),)))
    assert HCClass(0, (1,)) != 1 and HCClass(0, (1,)) != (1,)
    assert repr(TensorElement.basis(C, 1, (E11, E11))) \
        == "TensorElement(degree=1, terms=1)"
