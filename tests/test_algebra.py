import math
import random
import time
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import assume, given, settings, strategies as st

import ncgdesk
from ncgdesk import algebra, linalg as la, scalars, serialize
from ncgdesk.algebra import (
    AlgebraElement,
    BorelSetModel,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
    _cluster,
    _snap_gaussian,
    apply_hom,
    check_hom_spectral_commute,
    is_normal,
    spectral_decompose,
    spectral_projection,
)
from ncgdesk.errors import DomainError, NumericalError, ValidationError
from ncgdesk.generate import (
    random_exact_unitary,
    random_hom,
    random_normal,
    random_projection,
)
from ncgdesk.ngroup import K0Class, N0Class, n_class
from ncgdesk.scalars import Cyclotomic, get_epsilon, set_epsilon

A = MultiMatrixAlgebra((1, 2))
seeds = st.integers(0, 10 ** 6)


class TestAlgebraElement:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            AlgebraElement(A, 1, (((Fraction(1),),),))  # one block missing
        with pytest.raises(ValidationError):
            AlgebraElement(A, 1, (((Fraction(1),),), ((Fraction(1),),)))

    def test_mixed_backend_rejected(self):
        with pytest.raises(ValidationError):
            AlgebraElement(A, 1, (((Fraction(1),),),
                                  ((0.0, 0.0), (0.0, 0.0))))

    def test_identity_is_unitary_projection(self):
        e = AlgebraElement.identity(A)
        assert e.is_projection() and (e * e.star()).equals(e)

    def test_star_reverses_products(self):
        rng = random.Random(0)
        x = random_normal(A, rng).element()
        y = random_normal(A, rng).element()
        assert (x * y).star().equals(y.star() * x.star())

    def test_direct_sum_block_diagonal(self):
        x = AlgebraElement.identity(A)
        s = x.direct_sum(x.scale(2))
        assert s.amplification == 2
        assert tuple(map(la.trace, s.blocks)) == (Fraction(3), Fraction(6))

    def test_norm_of_scaled_identity(self):
        x = AlgebraElement.identity(A).scale(Fraction(-3, 2))
        assert abs(x.norm() - 1.5) < 1e-12


class TestProjection:
    def test_rejects_non_projection(self):
        with pytest.raises(DomainError):
            Projection(AlgebraElement.identity(A).scale(2))

    def test_rank_vector_diagonal_unit(self):
        p = Projection.diagonal_unit(A, 1)
        assert p.rank_vector() == (0, 1)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_random_projection_is_projection(self, seed):
        p = random_projection(A, random.Random(seed))
        assert p.element.is_projection()
        assert all(0 <= r <= d for r, d in zip(p.rank_vector(), A.block_dims))

    def test_conjugated_rank_is_stable(self):
        rng = random.Random(3)
        p = random_projection(A, rng)
        u = AlgebraElement(A, 1, tuple(
            random_exact_unitary(d, rng) for d in A.ambient_dims(1)))
        q = Projection(u * p.element * u.star())
        assert q.rank_vector() == p.rank_vector()

    def test_rank_vector_errors(self):
        # traces are read as integer numerators over the denominator; an
        # element that is not a projection can break either fact
        m2 = MultiMatrixAlgebra((2,))
        half = Projection._trusted(AlgebraElement.identity(A).scale(Fraction(1, 2)))
        with pytest.raises(DomainError, match="^projection trace is not an integer$"):
            half.rank_vector()
        gaussian = Projection._trusted(AlgebraElement.diagonal(
            m2, [[Cyclotomic.gaussian(0, 1), Fraction(1)]]))
        with pytest.raises(ValueError, match="^not a rational scalar$"):
            gaussian.rank_vector()
        # i and -i cancel in the trace, and 5/2 + 5/2 is an integer
        cancel = Projection._trusted(AlgebraElement.diagonal(
            m2, [[Cyclotomic.gaussian(Fraction(5, 2), 1),
                  Cyclotomic.gaussian(Fraction(5, 2), -1)]]))
        assert cancel.rank_vector() == (5,)
        floats = Projection._trusted(AlgebraElement.diagonal(
            m2, [[0.9999999999, 1.0000000001j]]))
        assert floats.rank_vector() == (1,)


class TestSpectralForm:
    def test_from_pairs_prunes_zero_terms(self):
        p = Projection.diagonal_unit(A, 0)
        z = Projection.zero(A)
        a = SpectralForm.from_pairs(A, 1, ((Fraction(2), p), (Fraction(3), z)))
        assert a.eigenvalues() == (Fraction(2),)

    def test_kernel_is_one_minus_the_pairs(self):
        # 1 - P(all eigenvalues) is a projection orthogonal to every pair
        zero = SpectralForm.zero(A)
        assert AlgebraElement.identity(A) - spectral_projection(
            zero, BorelSetModel(())).element == Projection.identity(A).element
        p = Projection.diagonal_unit(A, 0)
        a = SpectralForm.from_pairs(A, 1, ((Fraction(2), p),))
        kernel = Projection(AlgebraElement.identity(A) - spectral_projection(
            a, BorelSetModel(a.eigenvalues())).element)
        assert kernel.element.equals(AlgebraElement.identity(A) - p.element)
        assert kernel.orthogonal_to(p)

    def test_padding_follows_the_projections(self):
        # a float eigenvalue with an exact projection: the spectral
        # projections and the direct sum stay exact
        p = Projection.diagonal_unit(A, 0)
        a = SpectralForm.from_pairs(A, 1, ((0.5, p),))
        assert not a.element().is_exact()
        assert spectral_projection(a, BorelSetModel((0.5,))).element.is_exact()
        assert spectral_projection(a, BorelSetModel(())).element.is_exact()
        s = a.direct_sum(SpectralForm.zero(A))
        assert spectral_projection(s, BorelSetModel(())).element.is_exact()
        assert all(q.element.is_exact() for _, q in s.pairs)

    def test_values_are_distinct_under_the_grouping_rule(self):
        # values within 2 eps are one N0 key, so the form may not hold both;
        # a chain wider than 2 eps has no N0 class, so the form raises too
        eps = get_epsilon()
        m3 = MultiMatrixAlgebra((3,))
        units = [Projection.diagonal_unit(m3, 0, i) for i in range(3)]
        with pytest.raises(ValidationError, match="repeated eigenvalue"):
            SpectralForm(m3, 1, ((1.0, units[0]), (1 + 1.5 * eps, units[1])))
        with pytest.raises(NumericalError):
            SpectralForm(m3, 1, tuple(zip((1.0, 1 + 1.5 * eps, 1 + 3 * eps),
                                          units)))

    def test_element_reconstruction(self):
        diag = AlgebraElement.diagonal(
            A, [[Fraction(2)], [Fraction(0), Fraction(-1)]])
        a = spectral_decompose(diag)
        assert a.element().equals(diag)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_decompose_round_trip(self, seed):
        a = random_normal(A, random.Random(seed))
        x = a.element()
        assert is_normal(x)
        again = spectral_decompose(x)
        assert again.element().equals(x)
        assert sorted(map(str, again.eigenvalues())) \
            == sorted(map(str, a.eigenvalues()))

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_float_sums_are_the_sums_one_term_at_a_time(self, seed):
        # bit for bit: sum lam p from 0, and the selected projections added
        # from 0
        rng = random.Random(seed)
        alg = MultiMatrixAlgebra((3, 2))
        x = random_normal(alg, rng).element()
        a = spectral_decompose(AlgebraElement(alg, 1, tuple(
            la.as_matrix(la.to_numpy(b).tolist()) for b in x.blocks)))
        assume(a.pairs)  # an empty form pads with exact blocks
        e = BorelSetModel(tuple(v for v, _ in a.pairs if rng.random() < 0.6))
        zero = AlgebraElement.zero(alg, 1, exact=False)
        total, selected = zero, zero
        for v, p in a.pairs:
            total = total + p.element.scale(v)
            if e.contains(v):
                selected = selected + p.element

        def bits(y):
            return [b.arr.tobytes() for b in y.blocks]

        assert bits(a.element()) == bits(total)
        assert bits(spectral_projection(a, e).element) == bits(selected)

    def test_decompose_float_backend(self):
        x = AlgebraElement(MultiMatrixAlgebra((2,)), 1,
                           (((1.0, 0.0), (0.0, 0.5)),))
        a = spectral_decompose(x)
        assert a.element().equals(x)

    def test_non_normal_rejected(self):
        x = AlgebraElement(MultiMatrixAlgebra((2,)), 1,
                           (((Fraction(0), Fraction(1)),
                             (Fraction(0), Fraction(0))),))
        assert not is_normal(x)
        with pytest.raises(DomainError):
            spectral_decompose(x)

    def test_spectral_projection_selects_points(self):
        diag = AlgebraElement.diagonal(
            A, [[Fraction(2)], [Fraction(2), Fraction(5)]])
        a = spectral_decompose(diag)
        p = spectral_projection(a, BorelSetModel((Fraction(2),)))
        assert p.rank_vector() == (1, 1)
        q = spectral_projection(a, BorelSetModel((Fraction(7),)))
        assert q.rank_vector() == (0, 0)

    def test_direct_sum_merges_common_eigenvalues(self):
        p = Projection.identity(A)
        a = SpectralForm.scaled_projection(Fraction(2), p)
        s = a.direct_sum(a)
        assert s.eigenvalues() == (Fraction(2),)
        assert s.amplification == 2


class TestStarHomomorphism:
    def test_unital_embedding_preserves_products(self):
        rng = random.Random(5)
        phi = random_hom(rng)
        x = random_normal(phi.source, rng).element()
        y = random_normal(phi.source, rng).element()
        assert apply_hom(phi, x * y).equals(
            apply_hom(phi, x) * apply_hom(phi, y))
        assert apply_hom(phi, x.star()).equals(apply_hom(phi, x).star())

    def test_dimension_bookkeeping_validated(self):
        src = MultiMatrixAlgebra((2,))
        tgt = MultiMatrixAlgebra((3,))
        with pytest.raises(ValidationError):
            StarHomomorphism(src, tgt, ((2,),), None)  # 2*2 != 3

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_spectral_projections_commute(self, seed):
        rng = random.Random(seed)
        phi = random_hom(rng)
        a = random_normal(phi.source, rng)
        e = BorelSetModel(a.eigenvalues()[:1] or (Fraction(1),))
        assert check_hom_spectral_commute(phi, a, e)

    def test_adjoints_kept_outside_the_fields(self, monkeypatch):
        rng = random.Random(5)
        phi = random_hom(rng)
        twin = StarHomomorphism(phi.source, phi.target, phi.multiplicities,
                                phi.unitaries)
        assert twin == phi and hash(twin) == hash(phi)
        assert repr(twin) == repr(phi)
        x = random_normal(phi.source, rng).element()
        expected = apply_hom(phi, x)
        monkeypatch.setattr(la, "conj_transpose", None)  # apply_hom reads the kept ones
        # a fresh element equal to x, which has no kept image of its own
        fresh = AlgebraElement(x.algebra, x.amplification, x.blocks)
        assert apply_hom(phi, fresh) is not expected
        assert apply_hom(phi, fresh).equals(expected)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_images_kept_per_element_and_homomorphism_object(self, exact):
        rng = random.Random(6)  # x is not 0, and psi moves it elsewhere than phi
        phi = random_hom(rng)
        psi = StarHomomorphism(phi.source, phi.target, phi.multiplicities, tuple(
            random_exact_unitary(d, rng) for d in phi.target.block_dims))
        x = random_normal(phi.source, rng).element()
        if not exact:
            def floats(hom):
                return StarHomomorphism(hom.source, hom.target, hom.multiplicities,
                                        tuple(la.as_matrix(la.to_numpy(u).tolist())
                                              for u in hom.unitaries))
            phi, psi = floats(phi), floats(psi)
            x = AlgebraElement(x.algebra, x.amplification, tuple(
                la.as_matrix(la.to_numpy(b).tolist()) for b in x.blocks))
        twin = StarHomomorphism(phi.source, phi.target, phi.multiplicities,
                                phi.unitaries)
        assert x.is_exact() is exact and twin == phi
        fresh = AlgebraElement(x.algebra, x.amplification, x.blocks)
        image = apply_hom(phi, x)
        assert apply_hom(phi, x) is image
        again = apply_hom(twin, x)  # equal, but another object: built again
        assert again is not image and again.equals(image)
        other = apply_hom(psi, x)
        assert other.equals(apply_hom(psi, fresh)) and not other.equals(image)
        assert apply_hom(phi, x) is image and apply_hom(psi, x) is other
        # the kept images are outside the fields
        assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)

    def test_pushforward_spectrum_is_preserved(self):
        rng = random.Random(9)
        phi = random_hom(rng)
        a = random_normal(phi.source, rng)
        b = spectral_decompose(apply_hom(phi, a.element()))
        assert set(map(str, b.eigenvalues())) <= set(map(str, a.eigenvalues()))


def _limit_denominator_snap(z):
    """The snap as Fractions: each part's limit_denominator(10^6)."""
    return Cyclotomic.gaussian(Fraction(z.real).limit_denominator(10 ** 6),
                               Fraction(z.imag).limit_denominator(10 ** 6))


@st.composite
def _near(draw, x):
    """x, or one of the floats up to three steps from it."""
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([math.inf, -math.inf])))
    return x


_bounded = st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6)
snap_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormal to huge
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    # denominators near the bound, and values near halfway between two
    # candidates
    st.builds(Fraction, st.integers(-10 ** 8, 10 ** 8),
              st.integers(10 ** 6 - 64, 10 ** 6 + 64)).map(float).flatmap(_near),
    st.tuples(_bounded, _bounded).map(lambda ab: float(sum(ab) / 2)).flatmap(_near),
)


class TestSnap:
    @settings(max_examples=300, deadline=None)
    @given(snap_parts, snap_parts, st.booleans())
    def test_equals_limit_denominator(self, re, im, numpy_scalar):
        z = np.complex128(complex(re, im)) if numpy_scalar else complex(re, im)
        got, want = _snap_gaussian(z), _limit_denominator_snap(complex(re, im))
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)

    @pytest.mark.parametrize("z, error", [
        (complex(math.inf, 0), OverflowError), (complex(1, -math.inf), OverflowError),
        (complex(math.nan, 0), ValueError), (complex(0, math.nan), ValueError)])
    def test_non_finite_parts_raise_as_fractions_do(self, z, error):
        with pytest.raises(error):
            _limit_denominator_snap(z)
        with pytest.raises(error):
            _snap_gaussian(z)


class TestFloatSpectrum:
    @pytest.mark.parametrize("blocks", [(4,), (1, 1, 1, 1)])
    def test_chain_of_close_eigenvalues_is_rejected(self, blocks):
        # each value is within 2 eps of the next, the ends 4.5 eps apart;
        # merged into one cluster the decomposition would not rebuild x
        eps = get_epsilon()
        values = [1.0, 1 + 1.5 * eps, 1 + 3 * eps, 1 + 4.5 * eps]
        alg = MultiMatrixAlgebra(blocks)
        parts = [values] if len(blocks) == 1 else [[v] for v in values]
        with pytest.raises(NumericalError):
            spectral_decompose(AlgebraElement.diagonal(alg, parts))

    def test_chain_of_real_parts_with_distinct_imaginary_parts(self):
        eps = get_epsilon()
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((3,)),
                                    [[0j, 1.5 * eps + 1j, 3 * eps + 2j]])
        a = spectral_decompose(x)
        assert len(a.pairs) == 2 and a.element().equals(x)

    def test_float_diagonal_is_the_explicit_float_matrix(self):
        x = AlgebraElement.diagonal(A, [[2.0], [0.5, -1j]])
        explicit = AlgebraElement(A, 1, (((2.0,),), ((0.5, 0.0), (0.0, -1j))))
        assert not x.is_exact() and x.equals(explicit)
        assert spectral_decompose(x).element().equals(x)


def _global_lagrange_decompose(x):
    """The exact spectral path before block-local idempotents: every
    factor's idempotent is the Lagrange product over all snapped values,
    each term scaled on its own, and every kept pair is checked again."""
    if not is_normal(x):
        raise DomainError("spectral_decompose requires a normal element")
    candidates = []
    for b in x.blocks:
        candidates.extend(np.linalg.eigvals(la.to_numpy(b)))
    snapped = []
    for c in _cluster([complex(v) for v in candidates], 2 * get_epsilon(),
                      bounded=False):
        z = _snap_gaussian(complex(np.mean([candidates[i] for i in c])))
        if z not in snapped:
            snapped.append(z)
    pairs = []
    for lam in snapped:
        blocks = []
        for b, d in zip(x.blocks, x.algebra.ambient_dims(x.amplification)):
            proj = la.identity(d)
            for mu in snapped:
                if mu != lam:
                    diff = la.mat_sub(b, la.scalar_mul(mu, la.identity(d)))
                    proj = la.mat_mul(proj, la.scalar_mul((lam - mu).inverse(), diff))
            blocks.append(proj)
        elem = AlgebraElement(x.algebra, x.amplification, tuple(blocks))
        if not elem.is_projection():
            raise NumericalError("eigenvalues are not Gaussian rational")
        pairs.append((lam, elem))
    recon = AlgebraElement.zero(x.algebra, x.amplification)
    for lam, p in pairs:
        recon = recon + p.scale(lam)
    if not recon.equals(x):
        raise NumericalError("exact spectral reconstruction failed")
    kept = [(lam, Projection(p)) for lam, p in pairs if not p.is_zero()]
    return SpectralForm.from_pairs(x.algebra, x.amplification, tuple(kept))


def _pushed_elements(count):
    """Seeded normal elements pushed through random homomorphisms."""
    for seed in range(count):
        rng = random.Random(f"block-local:{seed}")
        phi = random_hom(rng, max_factors=3)
        x = random_normal(phi.source, rng, m=1 + seed % 2).element()
        yield apply_hom(phi, x)


class TestBlockLocalIdempotents:
    def test_equals_global_lagrange_product(self):
        partial = 0  # eigenvalues whose projection vanishes on some factor
        for y in _pushed_elements(200):
            new, old = spectral_decompose(y), _global_lagrange_decompose(y)
            assert new.eigenvalues() == old.eigenvalues()
            assert new == old  # pairs and kernel, value for value
            partial += sum(any(map(la.is_zero_matrix, p.element.blocks))
                           for _, p in new.pairs)
        assert partial > 0

    @pytest.mark.parametrize("decompose", [spectral_decompose,
                                           _global_lagrange_decompose])
    def test_error_parity(self, decompose):
        m2 = MultiMatrixAlgebra((2,))
        one = Fraction(1)
        irrational = AlgebraElement(m2, 1, (((one, one), (one, -one)),))  # +-sqrt 2
        with pytest.raises(NumericalError):
            decompose(irrational)
        nilpotent = AlgebraElement(m2, 1, (((0 * one, one), (0 * one, 0 * one)),))
        with pytest.raises(DomainError):
            decompose(nilpotent)
        # both values snap to 1
        with pytest.raises(NumericalError):
            decompose(AlgebraElement.diagonal(
                m2, [[one, one + Fraction(1, 10 ** 10)]]))

    def test_a_wrong_candidate_fails_the_certificate(self, monkeypatch):
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((2,)),
                                    [[Fraction(2), Fraction(5)]])
        snap = algebra._snap_gaussian

        def off(z):
            c = snap(z)
            return c + Fraction(1, 1000) if c == 5 else c

        ncgdesk.clear_caches()
        monkeypatch.setattr(algebra, "_snap_gaussian", off)
        with pytest.raises(NumericalError, match="factor 0"):
            spectral_decompose(x)
        monkeypatch.undo()
        assert spectral_decompose(x).eigenvalues() == (2, 5)

    @staticmethod
    def _counted(monkeypatch):
        """Calls of is_normal and Projection.orthogonal_to, by name."""
        calls = {"is_normal": 0, "orthogonal_to": 0}
        normal, orthogonal = algebra.is_normal, Projection.orthogonal_to

        def counted_normal(x):
            calls["is_normal"] += 1
            return normal(x)

        def counted_orthogonal(p, q):
            calls["orthogonal_to"] += 1
            return orthogonal(p, q)

        ncgdesk.clear_caches()
        monkeypatch.setattr(algebra, "is_normal", counted_normal)
        monkeypatch.setattr(Projection, "orthogonal_to", counted_orthogonal)
        return calls

    def test_diagonalizable_non_normal_fails_self_adjointness(self, monkeypatch):
        # distinct eigenvalues 1 and 2: the certificate holds, and the
        # idempotent (b - 2)/(1 - 2) = [[1, -1], [0, 0]] is not self-adjoint
        one = Fraction(1)
        x = AlgebraElement(MultiMatrixAlgebra((2,)), 1,
                           (((one, one), (0 * one, 2 * one)),))
        calls = self._counted(monkeypatch)
        with pytest.raises(DomainError,
                           match="^spectral_decompose requires a normal element$"):
            spectral_decompose(x)
        assert calls["is_normal"] == 0

    def test_conjugated_gaussian_triangular_block_is_refused(self):
        rng = random.Random(12)
        g = Cyclotomic.gaussian
        t = AlgebraElement(A, 1, (((g(3, -1),),),
                                  ((g(1, 1), g(Fraction(2, 3), 5)),
                                   (g(0, 0), g(-2, Fraction(1, 2))))))
        u = AlgebraElement(A, 1, tuple(random_exact_unitary(d, rng)
                                       for d in A.ambient_dims()))
        x = u * t * u.star()
        assert not is_normal(x)
        with pytest.raises(DomainError, match="requires a normal element"):
            spectral_decompose(x)

    def test_non_normal_beyond_float_range_is_refused(self):
        # the float eigensolver cannot take the entries; the input is
        # still named non-normal
        big, one = Fraction(10 ** 400), Fraction(1)
        x = AlgebraElement(MultiMatrixAlgebra((2,)), 1,
                           (((big, big), (0 * one, one)),))
        with pytest.raises(DomainError, match="requires a normal element"):
            spectral_decompose(x)

    def test_normal_beyond_float_range_is_a_numerical_error(self):
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((2,)),
                                    [[Fraction(10 ** 400), Fraction(1)]])
        with pytest.raises(NumericalError, match="^eigenvalue candidates "
                           "cannot be computed in floating point"):
            spectral_decompose(x)

    def test_normality_is_tested_only_on_a_failed_certificate(self, monkeypatch):
        calls = self._counted(monkeypatch)
        x = AlgebraElement.diagonal(
            A, [[Fraction(2)], [Fraction(2), Cyclotomic.gaussian(1, 5)]])
        assert spectral_decompose(x).element().equals(x)
        assert calls == {"is_normal": 0, "orthogonal_to": 0}
        one = Fraction(1)
        with pytest.raises(NumericalError, match="factor 0"):  # +-sqrt 2
            spectral_decompose(AlgebraElement(MultiMatrixAlgebra((2,)), 1,
                                              (((one, one), (one, -one)),)))
        assert calls == {"is_normal": 1, "orthogonal_to": 0}

    @pytest.mark.parametrize("decompose, checks", [(spectral_decompose, 0),
                                                   (_global_lagrange_decompose, 4)])
    def test_each_projection_checked_once(self, monkeypatch, decompose, checks):
        ncgdesk.clear_caches()  # an earlier test may have decomposed this input
        calls = []
        original = AlgebraElement.is_projection

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(AlgebraElement, "is_projection", counted)
        # two snapped values, 2 and 5: the exact path certifies each factor
        # once and checks no candidate; the oracle checks each candidate, then
        # wraps it in a validated Projection; the kernel is derived
        decompose(AlgebraElement.diagonal(
            A, [[Fraction(2)], [Fraction(2), Fraction(5)]]))
        assert len(calls) == checks

    def test_spectral_projection_trusts_the_form(self, monkeypatch):
        rng = random.Random(9)
        cases = []
        for _ in range(20):
            a = random_normal(A, rng, m=rng.randint(1, 2))
            e = BorelSetModel(tuple(v for v in a.eigenvalues()
                                    if rng.random() < 0.6))
            cases.append((a, e))
        calls = []
        original = AlgebraElement.is_projection
        monkeypatch.setattr(AlgebraElement, "is_projection",
                            lambda self: calls.append(self) or original(self))
        got = [spectral_projection(a, e) for a, e in cases]
        assert not calls
        monkeypatch.undo()
        for p in got:
            assert p == Projection(p.element)

    def test_internal_results_equal_their_validated_rebuild(self):
        rng = random.Random(3)
        phi = random_hom(rng, max_factors=3)
        x = random_normal(phi.source, rng, m=2).element()
        y = random_normal(phi.source, rng, m=2).element()
        f = AlgebraElement.diagonal(A, [[2.0], [0.5, -1j]])
        alg = phi.source
        results = [x + y, x - y, -x, x * y, x.scale(Fraction(1, 3)),
                   x.scale(Cyclotomic.gaussian(1, 2)), x.scale(0.5), x.star(),
                   x.direct_sum(y), f + f, f * f.star(), f.direct_sum(f),
                   AlgebraElement.zero(alg, 2), AlgebraElement.identity(alg, 2),
                   AlgebraElement.zero(alg, 1, exact=False),
                   AlgebraElement.identity(alg, 1, exact=False),
                   apply_hom(phi, x)]
        results += [p.element for form in (spectral_decompose(apply_hom(phi, y)),
                                           spectral_decompose(f))
                    for p in (*(p for _, p in form.pairs), spectral_projection(
                        form, BorelSetModel(form.eigenvalues())))]
        for r in results:
            assert r == AlgebraElement(r.algebra, r.amplification, r.blocks)


class TestRootsOfUnity:
    """A factor that fails its Gaussian candidates is tried on 0 and the
    roots of unity its eigenvalues snap to, if the orders of all such
    candidates have an lcm of at most 24."""

    @pytest.mark.parametrize("order", [3, 8])
    def test_root_and_one_over_m2(self, order):
        w = Cyclotomic.root_of_unity(order, 1)
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((2,)), [[w, Fraction(1)]])
        a = spectral_decompose(x)
        assert set(a.eigenvalues()) == {w, 1}
        assert a.element().equals(x)

    def test_conjugated_orders_3_and_8(self):
        # lcm 24, on one M_3 block with a kernel
        m3, z = MultiMatrixAlgebra((3,)), Cyclotomic.root_of_unity
        u = AlgebraElement(m3, 1, (random_exact_unitary(3, random.Random(2)),))
        x = u * AlgebraElement.diagonal(m3, [[z(3, 1), z(8, 3), Fraction(0)]]) \
            * u.star()
        a = spectral_decompose(x)
        assert set(a.eigenvalues()) == {z(3, 1), z(8, 3)}
        assert a.element().equals(x)

    def test_roots_on_the_unit_circle_are_tried_first(self, monkeypatch):
        # the Gaussian candidates of zeta_23, zeta_23^5 and 1 would fail, and
        # cost most of the call: one Lagrange pass, on the roots, decides
        m3, z = MultiMatrixAlgebra((3,)), Cyclotomic.root_of_unity
        u = AlgebraElement(m3, 1, (random_exact_unitary(3, random.Random(5)),))
        x = u * AlgebraElement.diagonal(m3, [[z(23), z(23, 5), Fraction(1)]]) \
            * u.star()
        tried, real = [], algebra._lagrange_idempotents
        monkeypatch.setattr(algebra, "_lagrange_idempotents",
                            lambda b, values: tried.append(values) or real(b, values))
        algebra._spectral_decompose_exact.cache_clear()
        a = spectral_decompose(x)
        assert len(tried) == 1 and set(tried[0]) == {z(23), z(23, 5), 1}
        assert a.element().equals(x)

    def test_common_order_beyond_24_is_refused(self, monkeypatch):
        # zeta_5 and zeta_7 on two factors: their lcm is 35, so no root
        # candidate is tried, and no table of Q(zeta_35) is built
        z = Cyclotomic.root_of_unity
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((1, 1)), [[z(5)], [z(7)]])
        ncgdesk.clear_caches()
        orders, real = set(), scalars.cyclotomic_poly
        monkeypatch.setattr(scalars, "cyclotomic_poly",
                            lambda n: orders.add(n) or real(n))
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="^factor 0: .*Gaussian "
                           "rationals or 0 and roots of unity"):
            spectral_decompose(x)
        assert time.perf_counter() - start < 5
        assert 35 not in orders and {5, 7} <= orders

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(1, 24))
    def test_conjugated_roots_decompose_to_their_class(self, seed, t):
        rng = random.Random(seed)
        dims = A.ambient_dims()
        u = AlgebraElement(A, 1, tuple(random_exact_unitary(d, rng) for d in dims))
        diags = [[Cyclotomic.root_of_unity(t, rng.randrange(t)) for _ in range(d)]
                 for d in dims]
        x = u * AlgebraElement.diagonal(A, diags) * u.star()
        units = (K0Class((1, 0)), K0Class((0, 1)))
        assert n_class(spectral_decompose(x)) == N0Class(A, tuple(
            (w, units[f]) for f, diag in enumerate(diags) for w in diag))


class TestExactAnswersIgnoreEpsilon:
    """Epsilon decides float comparisons only: no exact form depends on it."""

    def test_pushed_forms_equal_at_every_epsilon(self):
        elements = list(_pushed_elements(200))
        old = get_epsilon()
        forms = []
        try:
            for eps in (1e-12, 1e-9, 1e-3, 0.1):
                set_epsilon(eps)
                ncgdesk.clear_caches()
                forms.append([spectral_decompose(y) for y in elements])
        finally:
            set_epsilon(old)
            ncgdesk.clear_caches()
        for other in forms[1:]:
            for a, b in zip(forms[0], other):
                assert a.pairs == b.pairs
                assert a == b

    def test_values_closer_than_two_epsilon_stay_apart(self):
        # 1 and 21/20 are 0.05 apart, within 2 * 0.1
        x = AlgebraElement.diagonal(MultiMatrixAlgebra((2,)),
                                    [[Fraction(1), Fraction(21, 20)]])
        old = get_epsilon()
        try:
            set_epsilon(0.1)
            ncgdesk.clear_caches()
            a = spectral_decompose(x)
        finally:
            set_epsilon(old)
            ncgdesk.clear_caches()
        assert a.eigenvalues() == (1, Fraction(21, 20))
        assert a.element().equals(x)


class TestSpectralCache:
    M2 = MultiMatrixAlgebra((2,))

    def test_warm_equals_cold(self):
        elements = list(_pushed_elements(200))
        ncgdesk.clear_caches()
        cold = [spectral_decompose(y) for y in elements]
        hits = algebra._spectral_decompose_exact.cache_info().hits
        warm = [spectral_decompose(y) for y in elements]
        assert algebra._spectral_decompose_exact.cache_info().hits \
            == hits + len(elements)
        for c, w in zip(cold, warm):
            assert c.pairs == w.pairs
            assert c == w

    def test_epsilon_is_not_part_of_the_key(self):
        x = AlgebraElement.diagonal(A, [[Fraction(2)], [Fraction(2), Fraction(5)]])
        ncgdesk.clear_caches()
        first = spectral_decompose(x)
        old = get_epsilon()
        try:
            set_epsilon(old / 10)
            again = spectral_decompose(x)
        finally:
            set_epsilon(old)
        info = algebra._spectral_decompose_exact.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert again is first

    def test_float_elements_are_not_kept(self):
        ncgdesk.clear_caches()
        x = AlgebraElement(self.M2, 1, (((1.0, 0.0), (0.0, 0.5)),))
        spectral_decompose(x)
        spectral_decompose(x)
        assert algebra._spectral_decompose_exact.cache_info().currsize == 0

    def test_errors_are_raised_on_every_call(self):
        one = Fraction(1)
        irrational = AlgebraElement(self.M2, 1, (((one, one), (one, -one)),))
        nilpotent = AlgebraElement(self.M2, 1, (((0 * one, one),
                                                 (0 * one, 0 * one)),))
        ncgdesk.clear_caches()
        for _ in range(2):
            with pytest.raises(NumericalError):
                spectral_decompose(irrational)
            with pytest.raises(DomainError):
                spectral_decompose(nilpotent)
        info = algebra._spectral_decompose_exact.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 0)

    def test_bounded(self):
        ncgdesk.clear_caches()
        line = MultiMatrixAlgebra((1,))
        for k in range(1, 258):
            spectral_decompose(AlgebraElement.diagonal(line, [[Fraction(k)]]))
        assert algebra._spectral_decompose_exact.cache_info().currsize == 256


class TestElementMemo:
    def test_memo_is_invisible(self):
        rng = random.Random(5)
        phi = random_hom(rng, max_factors=3)
        y = apply_hom(phi, random_normal(phi.source, rng, m=2).element())
        ncgdesk.clear_caches()
        a = spectral_decompose(y)
        ncgdesk.clear_caches()
        b = spectral_decompose(y)  # equal to a, built apart
        assert a is not b

        def seen(form):
            return (form == b, b == form, hash(form), repr(form),
                    serialize.dumps(serialize.spectral_to_json(form)))
        before = seen(a)
        assert before[:2] == (True, True) and before[2] == hash(b)
        x = a.element()
        assert a.element() is x
        assert seen(a) == before
        assert x.equals(b.element())


# Refusals of the public operations on elements, forms and homomorphisms
# given operands over different algebras or shapes.
C, M2 = MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((2,))
ONE_C, ONE_M2 = AlgebraElement.identity(C), AlgebraElement.identity(M2)
FORM_C = SpectralForm.scaled_projection(1, Projection.identity(C))
FORM_M2 = SpectralForm.scaled_projection(1, Projection.identity(M2))
REFUSALS = {
    "diagonal of the wrong length": (
        lambda: AlgebraElement.diagonal(M2, [[Fraction(1)]]),
        "diagonal length mismatch"),
    "sum over different algebras": (
        lambda: ONE_C + ONE_M2, "algebra/amplification mismatch"),
    "product over different amplifications": (
        lambda: ONE_C * AlgebraElement.identity(C, 2),
        "algebra/amplification mismatch"),
    "element direct sum over different algebras": (
        lambda: ONE_C.direct_sum(ONE_M2), "algebra mismatch in direct sum"),
    "form direct sum over different algebras": (
        lambda: FORM_C.direct_sum(FORM_M2), "algebra mismatch in direct sum"),
    "projection over another algebra": (
        lambda: SpectralForm(C, 1, ((1, Projection.identity(M2)),)),
        "spectral projection over wrong algebra"),
    "zero eigenvalue": (
        lambda: SpectralForm(C, 1, ((0, Projection.identity(C)),)),
        "zero eigenvalue must go to the kernel projection"),
    "homomorphism applied off its source": (
        lambda: apply_hom(StarHomomorphism(C, M2, ((2,),)), ONE_M2),
        "element is not over the homomorphism source"),
    "diagonal unit of a factor past the last": (
        lambda: Projection.diagonal_unit(A, 5),
        "no diagonal unit 0 in factor 5"),
    "diagonal unit of a negative factor": (
        lambda: Projection.diagonal_unit(A, -1),
        "no diagonal unit 0 in factor -1"),
    "diagonal unit past its factor's size": (
        lambda: Projection.diagonal_unit(A, 1, 7),
        "no diagonal unit 7 in factor 1"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_mismatched_operands_are_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_elements_over_different_algebras_are_not_equal():
    assert not ONE_C.equals(ONE_M2)
    assert not ONE_C.equals(AlgebraElement.identity(C, 2))


def test_eigensolver_failure_is_a_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("no convergence")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    x = AlgebraElement.diagonal(M2, [[1.0, 2.0]])
    with pytest.raises(NumericalError, match="^eigensolver failed: no convergence$"):
        spectral_decompose(x)
