import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgdesk import linalg as la
from ncgdesk.algebra import (AlgebraElement, BorelSetModel, MultiMatrixAlgebra,
                             Projection, SpectralForm)
from ncgdesk.budget import set_budget
from ncgdesk import chern
from ncgdesk.chern import (
    EtaReport,
    T_cover,
    T_direct,
    _power_class,
    chern_projection,
    dyadic_cover,
    eta_cycle,
    generalized_chern,
    verify_eta_vanishes,
    verify_th7,
    verify_th8,
)
from ncgdesk.cyclic import DecompositionRep, TensorElement, hc_space, \
    read_class, trace_map
from ncgdesk.errors import DomainError, NumericalError, ResourceError, \
    ValidationError
from ncgdesk.generate import (
    random_n0class,
    random_normal,
    random_orthogonal_family,
    random_projection,
    random_spectrum,
)
from ncgdesk.ngroup import K0Class, N0Class
from ncgdesk.scalars import Cyclotomic, get_epsilon, real_imag, set_epsilon

C = MultiMatrixAlgebra((1,))
A = MultiMatrixAlgebra((1, 1))
M2 = MultiMatrixAlgebra((2,))
CM2 = MultiMatrixAlgebra((1, 2))
seeds = st.integers(0, 10 ** 6)


class TestProjectionCharacter:
    def test_zero_projection_maps_to_zero(self):
        assert chern_projection(Projection.zero(A), 0).is_zero()

    def test_identity_has_full_rank_class(self):
        cls = chern_projection(Projection.identity(A), 0)
        assert cls.coords == (Fraction(1), Fraction(1))

    def test_unitary_invariance(self):
        rng = random.Random(8)
        from ncgdesk.generate import random_exact_unitary
        from ncgdesk.algebra import AlgebraElement
        p = random_projection(M2, rng, nonzero=True)
        u = AlgebraElement(M2, 1, (random_exact_unitary(2, rng),))
        q = Projection(u * p.element * u.star())
        for l in (0, 1):
            assert chern_projection(p, l) == chern_projection(q, l)

    def test_additive_on_orthogonal_sums(self):
        rng = random.Random(11)
        p, q, _ = random_orthogonal_family(M2, rng, 3)
        s = Projection(p.element + q.element)
        for l in (0, 1):
            lhs = chern_projection(s, l)
            rhs = chern_projection(p, l) + chern_projection(q, l)
            assert lhs == rhs

    def test_budget_guard(self):
        set_budget(10)
        try:
            with pytest.raises(ResourceError):
                chern_projection(Projection.identity(M2), 1)
        finally:
            set_budget(100_000)


class TestDyadicCovers:
    def test_cells_partition_spectrum(self):
        rng = random.Random(1)
        spectrum = random_spectrum(rng, 5)
        for level in (0, 3, 6):
            cells = dyadic_cover(spectrum, level)
            covered = [z for c in cells for z in c.points]
            assert sorted(map(str, covered)) == sorted(map(str, spectrum))
            for c in cells:
                assert c.tag in c.points

    def test_tag_policies_differ_only_in_choice(self):
        spectrum = [Cyclotomic.from_rational(Fraction(1, 8)),
                    Cyclotomic.from_rational(Fraction(3, 8))]
        lo = dyadic_cover(spectrum, 0, "smallest")
        hi = dyadic_cover(spectrum, 0, "largest")
        assert len(lo) == len(hi) == 1
        assert str(lo[0].tag) != str(hi[0].tag)

    def test_deep_cover_separates(self):
        spectrum = [Cyclotomic.from_rational(1),
                    Cyclotomic.from_rational(1 + Fraction(1, 512))]
        assert len(dyadic_cover(spectrum, 9)) == 2

    def test_bad_policy_rejected(self):
        with pytest.raises(ValidationError):
            dyadic_cover([Cyclotomic.from_rational(1)], 0, "median")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(*[st.fractions(-2, 2, max_denominator=16)] * 2),
                    min_size=1, max_size=5, unique=True),
           st.integers(0, 3))
    def test_cells_hold_their_points(self, parts, level):
        """corner <= (re, im) < corner + side in each part, exactly."""
        side = Fraction(1, 2 ** level)
        spectrum = [Cyclotomic.gaussian(re, im) for re, im in parts]
        for cell in dyadic_cover(spectrum, level):
            for z in cell.points:
                re, im, den = real_imag(z)
                for low, x in zip(cell.corner, (Fraction(re, den),
                                                Fraction(im, den))):
                    assert low <= x < low + side


class TestExtension:
    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_cover_refinement_agrees_with_direct(self, seed):
        a = random_normal(A, random.Random(seed))
        for policy in ("smallest", "largest"):
            assert T_cover(a, 0, policy=policy) == T_direct(a, 0)

    def test_near_degenerate_pair_needs_depth(self):
        from ncgdesk.algebra import AlgebraElement, spectral_decompose
        diag = AlgebraElement.diagonal(
            M2, [[Fraction(1), Fraction(1) + Fraction(1, 512)]])
        a = spectral_decompose(diag)
        assert len(a.eigenvalues()) == 2
        for policy in ("smallest", "largest"):
            assert T_cover(a, 0, policy=policy) == T_direct(a, 0)

    def test_zero_element(self):
        a = SpectralForm.zero(A)
        assert T_direct(a, 0).is_zero()
        assert T_cover(a, 0).is_zero()

    def test_scaled_projection_reduces_to_projection_character(self):
        p = Projection.diagonal_unit(A, 0)
        a = SpectralForm.scaled_projection(Fraction(5), p)
        assert T_direct(a, 0) == chern_projection(p, 0).scale(Fraction(5))


def _merge_cells(a, cover):
    """Pairs (tag, merged projection) following the cover's cells: the
    terms whose class is the cover's."""
    index = {z: cell for cell in cover for z in cell.points}
    merged = {}
    for value, proj in a.pairs:
        cell = index[value]
        if cell.corner not in merged:
            merged[cell.corner] = (cell.tag, proj)
        else:  # the form's projections are pairwise orthogonal
            tag, acc = merged[cell.corner]
            merged[cell.corner] = (tag, Projection._trusted(
                acc.element + proj.element))
    return list(merged.values())


def per_depth_T_cover(a, l, max_depth=12, policy="smallest"):
    """T_cover as a loop that builds, merges and reads the cover at every
    depth: the first separated cover's class, which every later depth up to
    max_depth must read again."""
    spectrum = a.eigenvalues()
    if not spectrum:
        return T_direct(a, l)
    first = None
    for depth in range(max_depth + 1):
        cover = dyadic_cover(spectrum, depth, policy)
        cls = _power_class(a.algebra, _merge_cells(a, cover), l)
        if first is not None:
            assert cls.equals(first), f"depth {depth} reads another class"
        elif all(len(c.points) == 1 for c in cover):
            first = cls
    if first is None:
        raise NumericalError("cover refinement did not separate the "
                             f"spectrum by depth {max_depth}")
    return first


def cover_outcome(cover, a, l, max_depth, policy):
    """The class coordinates, or the NumericalError message."""
    try:
        return cover(a, l, max_depth, policy).coords
    except NumericalError as err:
        return str(err)


class TestCoverReads:
    def test_one_read_per_call(self, monkeypatch):
        from ncgdesk.algebra import spectral_decompose
        a = spectral_decompose(AlgebraElement.diagonal(
            M2, [[Fraction(1), Fraction(1) + Fraction(1, 512)]]))
        direct, reads = T_direct(a, 0), []
        monkeypatch.setattr(chern, "_power_class",
                            lambda *args: reads.append(1) or _power_class(*args))
        for policy in ("smallest", "largest"):
            reads.clear()
            assert T_cover(a, 0, policy=policy) == direct
            # depths 0-8 share one cell; depth 9 splits the pair
            assert len(reads) == 1

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from([A, M2, CM2]), st.booleans(),
           st.booleans(), st.integers(0, 1))
    def test_same_classes_as_per_depth_reads(self, seed, algebra, twin,
                                             exact, l):
        gap = Fraction(1, 512) if twin else None
        a = random_normal(algebra, random.Random(seed), near_gap=gap)
        if not exact:
            a = to_float(a)
        for policy in ("smallest", "largest"):
            for depth in (0, 5, 12):
                assert cover_outcome(T_cover, a, l, depth, policy) \
                    == cover_outcome(per_depth_T_cover, a, l, depth, policy)

    def test_pair_separated_at_the_depth_bound_answers(self):
        from ncgdesk.algebra import spectral_decompose
        a = spectral_decompose(AlgebraElement.diagonal(
            M2, [[Fraction(1), Fraction(1) + Fraction(1, 4096)]]))
        for policy in ("smallest", "largest"):
            assert T_cover(a, 0, policy=policy) == T_direct(a, 0)

    def test_pair_past_the_depth_bound_raises(self):
        from ncgdesk.algebra import spectral_decompose
        a = spectral_decompose(AlgebraElement.diagonal(
            M2, [[Fraction(1), Fraction(1) + Fraction(1, 8192)]]))
        with pytest.raises(NumericalError, match="^cover refinement did not "
                           "separate the spectrum by depth 12$"):
            T_cover(a, 0)

    def test_one_eigenvalue_at_depth_zero(self):
        a = SpectralForm.scaled_projection(Fraction(5),
                                           Projection.diagonal_unit(A, 1))
        for policy in ("smallest", "largest"):
            assert T_cover(a, 1, max_depth=0, policy=policy) == T_direct(a, 1)

    def test_negative_depth_rejected(self):
        a = random_normal(M2, random.Random(3))
        with pytest.raises(ValidationError, match="cover depth must be >= 0"):
            T_cover(a, 0, max_depth=-1)


def near_gap_form():
    from ncgdesk.algebra import spectral_decompose
    return spectral_decompose(AlgebraElement.diagonal(
        M2, [[Fraction(1), Fraction(1) + Fraction(1, 512)]]))


class TestSharedRead:
    def test_direct_and_both_covers_read_once(self, monkeypatch):
        reads = []
        hc_class = chern.hc_class
        monkeypatch.setattr(chern, "hc_class",
                            lambda rep: reads.append(1) or hc_class(rep))
        for a in (near_gap_form(), random_normal(CM2, random.Random(5))):
            chern._read_terms.cache_clear()
            reads.clear()
            direct = T_direct(a, 1)
            for policy in ("smallest", "largest"):
                assert T_cover(a, 1, policy=policy) == direct
            assert len(reads) == 1

    def test_a_hit_is_charged(self):
        a = near_gap_form()
        T_direct(a, 1)
        set_budget(1)
        try:
            with pytest.raises(ResourceError, match="letters read"):
                T_cover(a, 1)
        finally:
            set_budget(100_000)

    def test_epsilon_keys_the_read(self):
        a = to_float(random_normal(CM2, random.Random(6)))
        before = get_epsilon()
        try:
            T_direct(a, 1)
            set_epsilon(1e-7)
            misses = chern._read_terms.cache_info().misses
            warm = T_cover(a, 1)
            assert chern._read_terms.cache_info().misses == misses + 1
            chern._read_terms.cache_clear()
            assert warm == T_cover(a, 1)
        finally:
            set_epsilon(before)

    def test_a_float_coefficient_reads_apart(self):
        p = Projection.diagonal_unit(A, 0)
        floated = T_direct(SpectralForm.scaled_projection(1.0, p), 0)
        assert floated.coords == (1 + 0j, 0j)
        exact = chern_projection(p, 0)
        assert [type(c) for c in exact.coords] == [Fraction, Fraction]


def spectral_values():
    """One to three distinct nonzero values: Fractions of both signs,
    Gaussian rationals or floats, or a pair 2^-j apart, j <= 14."""
    fractions = st.fractions(-2, 2, max_denominator=10 ** 9)
    kinds = st.sampled_from([
        fractions, st.builds(Cyclotomic.gaussian, fractions, fractions),
        st.floats(-2, 2, allow_nan=False)])
    twins = st.builds(lambda v, j: [v, v + Fraction(1, 2 ** j)],
                      fractions, st.integers(0, 14))
    return st.one_of(kinds.flatmap(lambda values: st.lists(
        values, min_size=1, max_size=3, unique=True)), twins).filter(all)


class TestCellKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.fractions(max_denominator=10 ** 9),
                     st.floats(-1e6, 1e6, allow_nan=False)),
           st.fractions(max_denominator=10 ** 9), st.integers(0, 12))
    def test_key_is_the_floor(self, re, im, level):
        assert chern._cell_key(re, im, level) \
            == (math.floor(re * 2 ** level), math.floor(im * 2 ** level))

    def test_float_keys_near_the_top_of_float_range(self):
        # 0.1 and 0.3 share the unit cell, and 1e308 * 2 overflows a float:
        # the keys are floored on the exact ratios
        three = MultiMatrixAlgebra((1, 1, 1))
        a = SpectralForm.from_pairs(three, 1, tuple(
            (v, Projection.diagonal_unit(three, i))
            for i, v in enumerate((1e308, 0.1, 0.3))))
        assert T_cover(a, 0) == T_direct(a, 0)
        assert [cell.points for cell in dyadic_cover(a.eigenvalues(), 2)] \
            == [(0.1,), (0.3,), (1e308,)]

    @settings(max_examples=100, deadline=None)
    @given(spectral_values(), st.data())
    def test_read_depth_is_the_first_separating_depth(self, values, data):
        three = MultiMatrixAlgebra((1, 1, 1))
        try:
            a = SpectralForm.from_pairs(three, 1, tuple(
                (v, Projection.diagonal_unit(three, i))
                for i, v in enumerate(values)))
        except ValidationError:  # float values within 2 epsilon
            assume(False)
        spectrum = a.eigenvalues()
        assume(len(spectrum) == len(values))  # a float within epsilon of 0
        max_depth = data.draw(st.integers(0, 14))
        depth = next((d for d in range(max_depth + 1) if all(
            len(cell.points) == 1 for cell in dyadic_cover(spectrum, d))),
            None)
        built = []
        cover_cells = chern._cover_cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chern, "_cover_cells", lambda *args:
                       built.append(args) or cover_cells(*args))
            if depth is None:
                with pytest.raises(NumericalError,
                                   match=f"by depth {max_depth}$"):
                    T_cover(a, 0, max_depth)
            else:
                assert T_cover(a, 0, max_depth) == T_direct(a, 0)
        assert built == []


@st.composite
def close_gaussians(draw):
    """Two to four distinct nonzero exact Gaussian values, as close as
    10^-20, each paired with its (re, im) as Fractions; a real one is a
    Fraction or a Cyclotomic.  Listed in a drawn order."""
    tiny = Fraction(1, 10 ** 20)
    re0 = draw(st.fractions(-2, 2, max_denominator=8))
    im0 = draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))
    offsets = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
                            min_size=2, max_size=4, unique=True))
    parts = [(re0 + i * tiny, im0 + j * tiny) for i, j in offsets]
    assume(all(re or im for re, im in parts))  # no zero value
    values = [(Cyclotomic.gaussian(re, im) if im or draw(st.booleans())
               else re, (re, im)) for re, im in parts]
    return draw(st.permutations(values))


class TestExactOrder:
    """Every listing of spectral values is ascending in exact (re, im),
    whatever the input order."""

    @staticmethod
    def assert_ascending(listed, values):
        parts = dict(values)
        listed = [parts[z] for z in listed]
        assert listed == sorted(listed)

    @settings(max_examples=100, deadline=None)
    @given(close_gaussians())
    def test_supports_pairs_and_points(self, values):
        zs = [z for z, _ in values]
        n0 = N0Class(C, tuple((z, (1,)) for z in zs))
        assert len(n0.support) == len(zs)
        self.assert_ascending([z for z, _ in n0.support], values)
        blocks = MultiMatrixAlgebra((1,) * len(zs))
        a = SpectralForm.from_pairs(blocks, 1, tuple(
            (z, Projection.diagonal_unit(blocks, i)) for i, z in enumerate(zs)))
        self.assert_ascending(a.eigenvalues(), values)
        self.assert_ascending(BorelSetModel(tuple(zs)).points, values)

    @settings(max_examples=100, deadline=None)
    @given(close_gaussians(), st.integers(0, 2))
    def test_cover_points_and_tags(self, values, level):
        zs = [z for z, _ in values]
        for policy, end in (("smallest", 0), ("largest", -1)):
            for cell in dyadic_cover(zs, level, policy):
                self.assert_ascending(cell.points, values)
                assert cell.tag is cell.points[end]


class TestUnitClassCache:
    def test_each_unit_built_once(self, monkeypatch):
        from ncgdesk import lefschetz
        from ncgdesk.generate import random_ga_complex
        rng = random.Random(21)
        table = lefschetz.IrrepTable.cyclic(2)
        c = random_ga_complex(CM2, table, rng)
        xs = [random_n0class(CM2, rng) for _ in range(4)]
        # the uncached route, before the counter is installed
        units = {(i, l): chern_projection(Projection.diagonal_unit(CM2, i), l)
                 for i in range(2) for l in (0, 1)}
        seconds = {}
        for g in range(2):
            for l in (0, 1):
                out = read_class(2 * l, [0, 0])
                for i, v in enumerate(
                        lefschetz.lefschetz_first(c, g, table).coeffs):
                    out = out + units[i, l].scale(v)
                seconds[g, l] = out
        built = []
        diagonal_unit = Projection.diagonal_unit
        monkeypatch.setattr(Projection, "diagonal_unit", staticmethod(
            lambda *args: built.append(args[:2]) or diagonal_unit(*args)))
        chern._unit_class.cache_clear()
        for _ in range(3):
            for l in (0, 1):
                assert all(verify_th8(x, l) for x in xs)
                for g in range(2):
                    assert lefschetz.lefschetz_second(c, g, table, l) \
                        == seconds[g, l]
        assert sorted(built) == [(CM2, 0), (CM2, 0), (CM2, 1), (CM2, 1)]
        for (i, l), cls in units.items():
            assert chern._unit_class(CM2, i, l) == cls

    def test_hit_is_not_charged_and_errors_are_not_cached(self):
        chern._unit_class.cache_clear()
        cls = chern._unit_class(M2, 0, 2)
        set_budget(1)
        try:
            assert chern._unit_class(M2, 0, 2) is cls
            with pytest.raises(ResourceError):
                chern._unit_class(M2, 0, 3)
        finally:
            set_budget(100_000)
        with pytest.raises(ResourceError):
            chern._unit_class(M2, 0, 10 ** 6)
        assert chern._unit_class.cache_info().currsize == 1
        assert chern._unit_class(M2, 0, 3) \
            == chern_projection(Projection.diagonal_unit(M2, 0), 3)


def test_clear_caches_empties_every_cache():
    import ncgdesk
    from ncgdesk import algebra, cyclic, lefschetz
    from ncgdesk.algebra import spectral_decompose
    from ncgdesk.cyclic import hc_dims
    x = random_n0class(CM2, random.Random(4))
    y = random_normal(CM2, random.Random(4)).element()

    def answers():
        roots, fourier = lefschetz._fourier(3)
        return (hc_dims(CM2, 3), hc_space(M2, 2).dimension, verify_th8(x, 1),
                spectral_decompose(y), roots, la.entries(fourier))
    before = answers()
    cached = (cyclic._cyclic_space, cyclic._boundary, cyclic._hc_space,
              chern._unit_class, algebra._spectral_decompose_exact,
              lefschetz._fourier)
    assert all(f.cache_info().currsize for f in cached)
    ncgdesk.clear_caches()
    assert not any(f.cache_info().currsize for f in cached)
    assert answers() == before


class TestObstruction:
    def test_eta_requires_orthogonality(self):
        p = Projection.identity(A)
        with pytest.raises(DomainError):
            eta_cycle([p, p], 1)

    def test_eta_zero_for_single_projection(self):
        p = Projection.identity(A)
        assert eta_cycle([p], 1).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_eta_class_vanishes(self, seed):
        rng = random.Random(seed)
        ps = random_orthogonal_family(A, rng, rng.randint(2, 4))
        assert verify_eta_vanishes(ps, 1).ok

    def test_eta_witness_small_instance(self):
        rng = random.Random(3)
        ps = random_orthogonal_family(C, rng, 2, m=2)
        report = verify_eta_vanishes(ps, 1, witness=True)
        assert report.ok and report.witness_found in (True, None)


def expanded_eta(ps, l):
    """(sum p_j)^(2l+1) and each p_j^(2l+1) expanded and subtracted."""
    total = ps[0].element
    for p in ps[1:]:
        total = total + p.element
    eta = TensorElement.from_summand((total,) * (2 * l + 1))
    for p in ps:
        eta = eta - TensorElement.from_summand((p.element,) * (2 * l + 1))
    return eta


def expanded_eta_report(ps, l, witness=False):
    """The obstruction checked on matrix units: expanded, traced, and read
    by the trace cocycles; the witness is solved for in the amplified
    complex."""
    eta = expanded_eta(ps, l)
    if eta.is_zero():
        return EtaReport(True, True, True, True if witness else None)
    algebra, m = ps[0].algebra, ps[0].amplification
    traced = trace_map(eta)
    cycle = traced.is_cycle()
    traced_zero = cycle and read_class(
        2 * l, traced.trace_values()).is_zero()
    found = None
    if witness:
        found = eta.is_cycle() \
            and hc_space(algebra, 2 * l, m).boundary_witness(eta) is not None
    return EtaReport(False, cycle, traced_zero, found)


class TestFactoredObstruction:
    def _families(self):
        """Seeded orthogonal families over C and C+C, m = 1-3, 1-4 members,
        some with zero members inserted; witnesses where the budget of the
        amplified complex allows (not C+C at m = 3)."""
        for seed in range(24):
            rng = random.Random(7000 + seed)
            algebra = (C, A)[seed % 2]
            m = 1 + seed // 2 % 3
            ps = random_orthogonal_family(algebra, rng, rng.randint(1, 4), m)
            if seed % 3 == 0:
                ps.insert(rng.randrange(len(ps) + 1), Projection.zero(algebra, m))
            yield ps, not (algebra is A and m == 3) and seed % 4 < 2

    def test_same_reports_as_expanded_path(self):
        kinds = set()
        for ps, witness in self._families():
            report = verify_eta_vanishes(ps, 1, witness=witness)
            assert report == expanded_eta_report(ps, 1, witness)
            kinds.add((report.trivial, report.witness_found))
        assert kinds == {(True, True), (True, None), (False, True),
                         (False, None)}

    def test_eta_cycle_is_the_expanded_difference(self):
        for ps, _ in list(self._families())[:12]:
            assert eta_cycle(ps, 1).equals(expanded_eta(ps, 1))

    def test_no_expansion_without_witness(self, monkeypatch):
        def refuse(self):
            raise AssertionError("expanded")
        monkeypatch.setattr(DecompositionRep, "expand", refuse)
        rng = random.Random(5)
        for m in (1, 2, 3):
            ps = random_orthogonal_family(A, rng, 3, m)
            report = verify_eta_vanishes(ps, 1)
            assert report.ok and report.witness_found is None


class TestCommutingSquares:
    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(0, 1))
    def test_projection_route(self, seed, l):
        p = random_projection(A, random.Random(seed))
        assert verify_th7(p, l)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_collapse_route(self, seed):
        x = random_n0class(A, random.Random(seed))
        assert verify_th8(x, 0)

    def test_generalized_character_is_additive(self):
        x = random_n0class(A, random.Random(1))
        y = random_n0class(A, random.Random(2))
        assert generalized_chern(x + y, 0) \
            == generalized_chern(x, 0) + generalized_chern(y, 0)

    def test_generalized_character_weights_by_value(self):
        v = Cyclotomic.gaussian(Fraction(1, 2), Fraction(3))
        x = N0Class(A, ((v, K0Class((1, 0))),))
        cls = generalized_chern(x, 0)
        from ncgdesk.scalars import scalar_is_zero
        assert cls.coords[0] == v and scalar_is_zero(cls.coords[1])


# ---------------------------------------------------------------------------
# the expanded Chern path: matrix-unit tensors, trace_map, the reducer

def expanded_class(algebra, m, terms, l):
    """Class of sum c * Tr(p^(2l+1)) over (c, p): expanded into matrix
    units, traced, and reduced modulo the boundaries."""
    xi = TensorElement.zero(algebra, m, 2 * l)
    for c, p in terms:
        xi = xi + TensorElement.from_summand(
            (p.element,) * (2 * l + 1)).scale(c)
    return hc_space(algebra, 2 * l).reduced_class(trace_map(xi))


def expanded_T_cover(a, l, policy):
    prev = None
    for depth in range(13):
        cover = dyadic_cover(a.eigenvalues(), depth, policy)
        cls = expanded_class(a.algebra, a.amplification,
                             _merge_cells(a, cover), l)
        if prev is not None and all(len(c.points) == 1 for c in cover) \
                and cls.equals(prev):
            return cls
        prev = cls
    raise AssertionError("expanded cover refinement did not stabilize")


def to_float(a):
    """The spectral form a over the float backend."""
    def element(x):
        return AlgebraElement(x.algebra, x.amplification, tuple(
            la.as_matrix(la.to_numpy(b)) for b in x.blocks))
    return SpectralForm.from_pairs(a.algebra, a.amplification, tuple(
        (complex(v), Projection(element(p.element))) for v, p in a.pairs))


EXPANDED_CASES = [(A, 1, 0), (M2, 1, 1), (CM2, 1, 1), (A, 2, 1), (M2, 2, 0),
                  (C, 2, 2), (CM2, 1, 2)]


class TestAgainstExpandedPath:
    @pytest.mark.parametrize("algebra, m, l", EXPANDED_CASES)
    def test_projection_and_spectral_classes(self, algebra, m, l):
        rng = random.Random(hash((algebra.block_dims, m, l)) % 1000)
        for _ in range(2):
            p = random_projection(algebra, rng, m=m)
            sign = 1 if l % 2 == 0 else -1
            assert chern_projection(p, l) \
                == expanded_class(algebra, m, [(sign, p)], l)
            gap = Fraction(1, 512) if rng.random() < 0.5 else None
            a = random_normal(algebra, rng, m=m, near_gap=gap)
            assert T_direct(a, l) \
                == expanded_class(algebra, m, a.pairs, l)
            assert T_cover(a, l, policy="largest") \
                == expanded_T_cover(a, l, "largest")

    @pytest.mark.parametrize("algebra, l", [(A, 1), (M2, 2), (CM2, 1)])
    def test_generalized_character(self, algebra, l):
        rng = random.Random(l)
        units = [Projection.diagonal_unit(algebra, f)
                 for f in range(algebra.num_factors)]
        for _ in range(3):
            x = random_n0class(algebra, rng)
            terms = [((-1) ** l * value * r, units[f])
                     for value, cls in x.support
                     for f, r in enumerate(cls.ranks)]
            assert generalized_chern(x, l) \
                == expanded_class(algebra, 1, terms, l)

    @pytest.mark.parametrize("algebra, m, l", [(A, 1, 1), (M2, 2, 0),
                                               (CM2, 1, 1)])
    def test_float_backend(self, algebra, m, l):
        rng = random.Random(7)
        a = to_float(random_normal(algebra, rng, m=m))
        assert T_direct(a, l).equals(
            expanded_class(algebra, m, a.pairs, l))
        assert T_cover(a, l).equals(expanded_T_cover(a, l, "smallest"))

    def test_near_gap_c_plus_m2_at_l2(self):
        rng = random.Random(2)
        while True:  # values 0 and 2 are 1/512 apart, each with support
            values = random_spectrum(rng, 2, Fraction(1, 512))
            family = random_orthogonal_family(CM2, rng, len(values) + 1)
            if not any(p.element.is_zero() for p in family[:3]):
                break
        a = SpectralForm.from_pairs(CM2, 1, tuple(zip(values, family)))
        direct = T_direct(a, 2)
        assert direct == expanded_class(CM2, 1, a.pairs, 2)
        assert T_cover(a, 2) == expanded_T_cover(a, 2, "smallest") == direct


# ---------------------------------------------------------------------------
# reads build no homology space, and the budget charges what is built

class TestReadsBuildNoSpace:
    def test_every_read_gives_the_space_built_values(self, monkeypatch, capsys,
                                                     tmp_path):
        from ncgdesk import cyclic, lefschetz, serialize as sz
        from ncgdesk.cli import main
        from ncgdesk.cyclic import face_op, hc_class
        from ncgdesk.generate import random_ga_complex
        rng = random.Random(12)
        p = random_projection(CM2, rng, nonzero=True)
        a = random_normal(CM2, rng)
        x = random_n0class(CM2, rng)
        ps = random_orthogonal_family(A, rng, 3, 2)
        table = lefschetz.IrrepTable.cyclic(2)
        c = random_ga_complex(A, table, rng)
        xi = face_op(TensorElement.basis(M2, 1, ((0, 0, 1), (0, 1, 0),
                                                 (0, 0, 0), (0, 0, 1)))) \
            + TensorElement.from_summand((random_projection(
                M2, rng, nonzero=True).element,) * 3).scale(Fraction(3))
        rep = DecompositionRep(((p.element,) * 5, (Projection.identity(
            CM2).element,) * 5), (Fraction(2, 3), Fraction(-1)))
        path = tmp_path / "xi.json"
        path.write_text(sz.dumps(sz.tensor_to_json(xi)))
        # the values of the path that builds each space and reduces in it
        l1 = lefschetz.lefschetz_first(c, 1, table).coeffs
        expected = {
            "chern": expanded_class(CM2, 1, [(-1, p)], 1),
            "direct": expanded_class(CM2, 1, a.pairs, 1),
            "general": read_class(2, [-sum(v * k.ranks[f] for v, k in
                                           x.support)
                                      for f in range(2)]),
            "eta": expanded_eta_report(ps, 1),
            "second": read_class(2, [-v for v in l1]),
            "tensor": hc_space(M2, 2).reduced_class(xi),
            "rep": hc_space(CM2, 4).reduced_class(rep.expand()),
        }

        def refuse(*args):
            raise AssertionError("a read built a homology space")
        cyclic._hc_space.cache_clear()
        monkeypatch.setattr(cyclic, "HomologySpace", refuse)
        assert chern_projection(p, 1) == expected["chern"]
        assert T_direct(a, 1) == expected["direct"]
        for policy in ("smallest", "largest"):
            assert T_cover(a, 1, policy=policy) == expected["direct"]
        assert generalized_chern(x, 1) == expected["general"]
        assert verify_th7(p, 1) and verify_th8(x, 1)
        assert verify_eta_vanishes(ps, 1) == expected["eta"]
        assert lefschetz.lefschetz_second(c, 1, table, 1) == expected["second"]
        assert hc_class(xi) == expected["tensor"]
        assert hc_class(rep) == expected["rep"]
        assert main(["hc", "class", "--tensor", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) \
            == sz.hc_class_to_json(expected["tensor"])


class TestBudgetCharges:
    def test_high_degree_reads_answer_or_raise(self):
        p = Projection.diagonal_unit(M2, 0)
        assert verify_th7(p, 50)
        assert chern_projection(p, 50).coords == (Fraction(1),)
        for l in (10 ** 6, 10 ** 2200):
            with pytest.raises(ResourceError, match="letters read"):
                chern_projection(p, l)

    def test_factored_cycle_check_canonicalizes_each_face_once(
            self, monkeypatch):
        from ncgdesk import cyclic
        calls = []
        canonical = cyclic._cc_canonical
        monkeypatch.setattr(cyclic, "_cc_canonical",
                            lambda key, n: calls.append(1) or canonical(key, n))
        p, q = Projection.diagonal_unit(CM2, 0), Projection.diagonal_unit(CM2, 1)
        rep = DecompositionRep(((p.element,) * 201, (q.element,) * 201))
        assert rep.is_cycle()
        assert len(calls) == 2

    def test_expansion_is_charged_before_it_is_built(self, monkeypatch):
        def refuse(elements):
            raise AssertionError("expanded before the charge")
        monkeypatch.setattr(TensorElement, "from_summand", refuse)
        full = AlgebraElement(M2, 1, (((Fraction(1), Fraction(2)),
                                       (Fraction(3), Fraction(4))),))
        set_budget(2 * 4 ** 3 - 1)
        try:
            with pytest.raises(ResourceError, match="matrix-unit terms"):
                DecompositionRep(((full,) * 3, (full,) * 3)).expand()
        finally:
            set_budget(100_000)


def test_negative_level_and_empty_family_are_refused():
    with pytest.raises(ValidationError, match="^cover level must be >= 0$"):
        dyadic_cover([Fraction(1)], -1)
    with pytest.raises(DomainError, match="^need at least one projection$"):
        eta_cycle([], 1)


def test_float_family_orthogonal_within_epsilon_may_not_be_a_cycle():
    # p q = diag(0, d) passes the orthogonality test, but b of the cross
    # terms sums to about 3d > epsilon: the family is reported, not refused
    d = 0.9 * get_epsilon()
    p = Projection(AlgebraElement(M2, 1, (((1.0, 0.0), (0.0, d)),)))
    q = Projection(AlgebraElement(M2, 1, (((0.0, 0.0), (0.0, 1.0)),)))
    assert p.orthogonal_to(q)
    report = verify_eta_vanishes([p, q], 1, witness=True)
    assert report == EtaReport(False, False, False, False) and not report.ok
