"""Seed-deterministic randomized verification batteries.

Each battery draws instances from the generators, evaluates both sides of
one theorem's identity, and reports pass counts plus reproducible failure
records.  A battery may also check, once per run, that fixed inputs
outside the theorem's domain are rejected; a miss there is a failure
record too.  All identities are checked exactly on the exact backend.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    BorelSetModel,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    apply_hom,
    check_hom_spectral_commute,
    spectral_decompose,
)
from .budget import check_budget
from .chern import T_cover, T_direct, dyadic_cover, verify_eta_vanishes, \
    verify_th7, verify_th8
from .cyclic import (DecompositionRep, TensorElement, _all_units, cc_reduce,
                     check_face_bound, check_trace_bound, face_op, hc_class,
                     hc_space, is_boundary)
from .errors import DomainError, NumericalError, ResourceError, ValidationError
from .generate import (
    random_exact_unitary,
    random_ga_complex,
    random_gaussian_rational,
    random_hom,
    random_n0class,
    random_normal,
    random_orthogonal_family,
    random_projection,
    random_spectrum,
)
from .lefschetz import FiniteGroup, GAComplex, IrrepTable, \
    generalized_lefschetz, lefschetz_first, verify_th4, verify_th5
from .ngroup import (
    N0Class,
    evaluate_h_list,
    functorial_map,
    generator_g,
    generator_h,
    h_map,
    n_class,
    reduce_g_to_h,
    t_map,
    K0Class,
    K0TensorC,
)
from .scalars import Cyclotomic, scalar_is_zero, sort_key


@dataclass
class VerificationReport:
    theorem: str
    instances: int
    passes: int
    failures: list = field(default_factory=list)
    # the battery's wall time, emitted by the CLI beside to_json(); not
    # compared, so the reports of one seed are equal
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.passes == self.instances and not self.failures

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "instances": self.instances,
                "passes": self.passes, "failures": self.failures}


def _small_algebras():
    return [MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((2,)),
            MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((1, 2))]


def _run(theorem, seed, count, one, rejected=()):
    """``count`` instances of ``one``, charged to the budget before the
    first; then each (name, call) in ``rejected`` must raise DomainError,
    else a failure is recorded.  A ResourceError is a refusal, not a
    failure: it ends the run, as a refused construction does elsewhere."""
    if count < 1:
        raise ValidationError(f"battery count must be >= 1, not {count}")
    check_budget(count, "battery instances")
    started = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport(theorem, count, 0)
    for i in range(count):
        try:
            ok, detail = one(rng)
        except ResourceError:
            raise
        except Exception as exc:
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        if ok:
            report.passes += 1
        else:
            detail = dict(detail or {})
            detail["instance"] = i
            report.failures.append(detail)
    for name, call in rejected:
        try:
            call()
        except DomainError:
            continue
        except ResourceError:
            raise
        except Exception as exc:
            got = f"{type(exc).__name__}: {exc}"
        else:
            got = "an answer"
        report.failures.append({"check": f"{name} is rejected", "got": got})
    report.elapsed_s = time.perf_counter() - started
    return report


# -- the group isomorphism --------------------------------------------------

def _realize_support(algebra, values_ranks):
    """Diagonal element whose class is the given finite map (needs ranks >= 0)."""
    totals = [sum(ranks[i] for _, ranks in values_ranks)
              for i in range(algebra.num_factors)]
    m = max(1, *((t + r - 1) // r for t, r in zip(totals, algebra.block_dims)))
    used = [0] * algebra.num_factors
    pairs = []
    for value, ranks in values_ranks:
        diags = [[Fraction(1) if u <= s < u + k else Fraction(0)
                  for s in range(d)]
                 for u, k, d in zip(used, ranks, algebra.ambient_dims(m))]
        used = [u + k for u, k in zip(used, ranks)]
        pairs.append((value, Projection(
            AlgebraElement.diagonal(algebra, diags, m))))
    return SpectralForm.from_pairs(algebra, m, tuple(pairs))


def _non_normal(algebra, rng):
    """u T u*, T upper triangular with distinct diagonal entries and a
    nonzero entry above them on one factor of size >= 2: diagonalizable,
    so its spectral certificate holds, but not normal."""
    m = 1 if max(algebra.block_dims) > 1 else 2
    dims = algebra.ambient_dims(m)
    f = rng.choice([i for i, d in enumerate(dims) if d > 1])
    blocks = []
    for i, d in enumerate(dims):
        rows = [[Fraction(0)] * d for _ in range(d)]
        for s, z in enumerate(random_spectrum(rng, d)):
            rows[s][s] = z
        if i == f:
            s = rng.randrange(d - 1)
            rows[s][rng.randrange(s + 1, d)] = random_spectrum(rng, 1)[0]
        blocks.append(rows)
    u = AlgebraElement(algebra, m, tuple(random_exact_unitary(d, rng) for d in dims))
    return u * AlgebraElement(algebra, m, tuple(blocks)) * u.star()


def battery_th1(seed: int, count: int) -> VerificationReport:
    algebras = _small_algebras() + [MultiMatrixAlgebra((3,))]
    # orders 3 and 8 (lcm 24) under one conjugation per run, decomposed once
    m3, z = algebras[-1], Cyclotomic.root_of_unity
    v = AlgebraElement(m3, 1, (random_exact_unitary(3, random.Random(seed)),))
    roots = v * AlgebraElement.diagonal(m3, [[z(3), z(8, 3), z(1)]]) * v.star()

    def one(rng):
        algebra = rng.choice(algebras)
        # invariance under unitary conjugation
        a = random_normal(algebra, rng)
        u = AlgebraElement(algebra, a.amplification, tuple(
            random_exact_unitary(d, rng)
            for d in algebra.ambient_dims(a.amplification)))
        conj = SpectralForm.from_pairs(algebra, a.amplification, tuple(
            (v, Projection(u * p.element * u.star())) for v, p in a.pairs))
        if n_class(a) != n_class(conj):
            return False, {"check": "conjugation invariance"}
        # separation: moving an eigenvalue with support changes the class
        movable = [(i, v, p) for i, (v, p) in enumerate(a.pairs)
                   if any(p.rank_vector())]
        if movable:
            i0, v0, p0 = movable[0]
            taken = a.eigenvalues()
            shift = 1
            while any((v0 + Fraction(shift) - w).is_zero() for w in taken) \
                    or (v0 + Fraction(shift)).is_zero():
                shift += 1
            moved = list(a.pairs)
            moved[i0] = (v0 + Fraction(shift), p0)
            shifted = SpectralForm.from_pairs(algebra, a.amplification,
                                              tuple(moved))
            if n_class(a) == n_class(shifted):
                return False, {"check": "separation"}
        # surjectivity: realize a random finite map
        values = random_spectrum(rng, rng.randint(1, 4))
        wanted = [(v, tuple(rng.randint(0, 2) for _ in algebra.block_dims))
                  for v in values]
        wanted = [(v, r) for v, r in wanted if any(r)]
        realized = _realize_support(algebra, wanted)
        target = N0Class(algebra, tuple(
            (v, K0Class(r)) for v, r in wanted))
        if n_class(realized) != target:
            return False, {"check": "surjectivity"}
        # an eigenvalue p/q off the snap grid (10^6 < q <= 10^7) is
        # decomposed right or refused
        while True:
            off = Fraction(rng.randint(-2 * 10 ** 7, 2 * 10 ** 7),
                           rng.randint(10 ** 6 + 1, 10 ** 7))
            if off.denominator > 10 ** 6:
                break
        diags = [[rng.choice(values) for _ in range(d)]
                 for d in algebra.ambient_dims()]
        diags[rng.randrange(len(diags))][0] = Cyclotomic.from_rational(off)
        x = u * AlgebraElement.diagonal(algebra, diags) * u.star()
        try:
            if not spectral_decompose(x).element().equals(x):
                return False, {"check": "off-grid decomposition",
                               "eigenvalue": str(off)}
        except NumericalError:
            pass
        if not spectral_decompose(roots).element().equals(roots):
            return False, {"check": "roots of unity of common order 24"}
        # a diagonalizable element that is not normal is refused
        try:
            spectral_decompose(_non_normal(algebra, rng))
        except DomainError:
            return True, None
        return False, {"check": "non-normal element refused"}

    return _run("th1", seed, count, one)


def battery_lem2(seed: int, count: int) -> VerificationReport:
    def one(rng):
        phi = random_hom(rng)
        a = random_normal(phi.source, rng)
        points = [v for v in a.eigenvalues() if rng.random() < 0.6]
        points.append(random_gaussian_rational(rng))
        e = BorelSetModel(tuple(p for p in points if not p.is_zero()))
        ok = check_hom_spectral_commute(phi, a, e)
        return ok, None if ok else {"hom": str(phi.multiplicities)}

    return _run("lem2", seed, count, one)


def battery_functoriality(seed: int, count: int) -> VerificationReport:
    """Decomposing phi(a) again gives the class that phi's multiplicity
    matrix pushes forward, over homomorphisms of up to three factors."""
    def one(rng):
        phi = random_hom(rng, max_factors=3)
        a = random_normal(phi.source, rng)
        pushed = n_class(spectral_decompose(apply_hom(phi, a.element())))
        ok = pushed == functorial_map(phi, n_class(a))
        return ok, None if ok else {"hom": str(phi.multiplicities)}

    return _run("functoriality", seed, count, one)


def battery_kernel_h(seed: int, count: int) -> VerificationReport:
    """h kills the pair generators, splits via t, and g reduces to h."""
    algebras = _small_algebras()

    def one(rng):
        algebra = rng.choice(algebras)
        p = random_projection(algebra, rng, nonzero=True)
        lam = random_gaussian_rational(rng)
        mu = random_gaussian_rational(rng)
        if not h_map(generator_h(lam, mu, p)).is_zero():
            return False, {"check": "h(generator) = 0"}
        v = K0TensorC(tuple(random_gaussian_rational(rng)
                            for _ in algebra.block_dims))
        if h_map(t_map(v, algebra)) != v:
            return False, {"check": "h o t = id"}
        n = rng.randint(1, 20)
        if lam.is_zero():
            lam = lam + Fraction(1)
        if evaluate_h_list(algebra, reduce_g_to_h(n, lam, p)) \
                != generator_g(n, lam, p):
            return False, {"check": "g reduces to h", "n": n}
        return True, None

    return _run("kernel_h", seed, count, one)


def battery_hc(seed: int, count: int) -> VerificationReport:
    """A random boundary b(eta), of mixed weight, reads class 0 and has a
    witness; a projection power plus that boundary reads the class that
    reduction modulo the boundaries finds."""
    algebras = _small_algebras()

    def one(rng):
        algebra = rng.choice(algebras)
        m = rng.randint(1, 2) if max(algebra.block_dims) == 1 else 1
        n = rng.randint(0, 2)
        units = _all_units(algebra, m)
        eta = TensorElement(algebra, m, n + 1, {
            tuple(rng.choice(units) for _ in range(n + 2)):
            random_gaussian_rational(rng) for _ in range(4)})
        xi = face_op(eta)
        where = {"blocks": list(algebra.block_dims), "m": m, "n": n}
        if not hc_class(xi).is_zero():
            return False, {"check": "boundary class", **where}
        witness = is_boundary(xi)
        if witness is None or not all(map(
                scalar_is_zero, cc_reduce(face_op(witness) - xi).values())):
            return False, {"check": "witness", **where}
        p = random_projection(algebra, rng, m)
        cycle = TensorElement.from_summand((p.element,) * (n + 1)).scale(
            random_gaussian_rational(rng)) + xi
        if hc_class(cycle) != hc_space(algebra, n, m).reduced_class(cycle):
            return False, {"check": "trace read", **where}
        return True, None

    return _run("hc", seed, count, one)


def battery_th2(seed: int, count: int) -> VerificationReport:
    algebras = [MultiMatrixAlgebra((1,)), MultiMatrixAlgebra((1, 1))]

    def one(rng):
        algebra = rng.choice(algebras)
        m = rng.randint(1, 3)
        parts = rng.randint(1, 4)
        ps = random_orthogonal_family(algebra, rng, parts, m)
        report = verify_eta_vanishes(ps, 1)
        return report.ok, None if report.ok else {"m": m, "parts": parts}

    return _run("th2", seed, count, one)


def battery_th6(seed: int, count: int) -> VerificationReport:
    algebras = _small_algebras()

    def one(rng):
        algebra = rng.choice(algebras)
        gap = Fraction(1, 512) if rng.random() < 0.4 else None
        a = random_normal(algebra, rng, near_gap=gap)
        l = 1 if (max(algebra.block_dims) == 1 and rng.random() < 0.3) else 0
        spectrum = a.eigenvalues()
        where = {"spectrum": [str(v) for v in spectrum], "l": l}
        direct = T_direct(a, l)
        for policy, end in (("smallest", 0), ("largest", -1)):
            if T_cover(a, l, policy=policy) != direct:
                return False, {"check": f"T_cover {policy}", **where}
            # T reads no tag, so the cells' order and tags are checked on
            # the cover itself, built from the spectrum in a random order
            # and reversed: the form lists its values ascending, so a cell
            # with two points is out of order in one of them
            shuffled = rng.sample(spectrum, len(spectrum))
            for points in (shuffled, spectrum[::-1]):
                for cell in dyadic_cover(points, 0, policy):
                    if list(cell.points) != sorted(cell.points, key=sort_key):
                        return False, {"check": f"{policy} cell order", **where}
                    if cell.tag != cell.points[end]:
                        return False, {"check": f"{policy} tags", **where}
        return True, None

    return _run("th6", seed, count, one)


def battery_th7(seed: int, count: int) -> VerificationReport:
    algebras = _small_algebras()

    def one(rng):
        algebra = rng.choice(algebras)
        p = random_projection(algebra, rng)
        l = rng.randint(0, 1)
        ok = verify_th7(p, l)
        return ok, None if ok else {"ranks": p.rank_vector(), "l": l}

    return _run("th7", seed, count, one)


def battery_th8(seed: int, count: int) -> VerificationReport:
    algebras = _small_algebras()

    def one(rng):
        algebra = rng.choice(algebras)
        x = random_n0class(algebra, rng)
        l = rng.randint(0, 1) if max(algebra.block_dims) <= 2 else 0
        ok = verify_th8(x, l)
        return ok, None if ok else {"support": len(x.support), "l": l}

    return _run("th8", seed, count, one)


def _irrep_tables():
    return (IrrepTable.cyclic(2), IrrepTable.cyclic(3),
            IrrepTable.symmetric_3())


def _non_complexes():
    """Four inputs over C with Z/2 that no Lefschetz number may answer:
    0 -> C -(e1)-> C^2 -> 0 with the swap of C^2, a representation that
    does not commute with d; C -(1)-> C -(1)-> C acted on trivially,
    where d o d = 1; and C with 1 acting by i, whose square is not the
    identity's action, or with both elements acting by 0."""
    C = MultiMatrixAlgebra((1,))
    group = FiniteGroup.cyclic_group(2)
    q1, q2 = Projection.identity(C), Projection.identity(C, 2)
    swap = AlgebraElement(C, 2, (((0, 1), (1, 0)),))
    swapped = GAComplex(C, group, (q2, q1), ((((1,), (0,)),),),
                        ((q2.element, q1.element), (swap, q1.element)))
    chain = GAComplex(C, group, (q1,) * 3, (q1.element.blocks,) * 2,
                      ((q1.element,) * 3,) * 2)
    by_i = GAComplex(C, group, (q1,), (), (
        (q1.element,), (q1.element.scale(Cyclotomic.gaussian(0, 1)),)))
    zero = AlgebraElement.zero(C)
    by_zero = GAComplex(C, group, (q1,), (), ((zero,), (zero,)))
    return (("a d that the action does not commute with", swapped),
            ("d o d != 0", chain),
            ("Z/2 acting by i", by_i),
            ("Z/2 acting by 0", by_zero))


def _complex_battery(theorem, seed, count, holds, rejected=()):
    """``holds(c, g, table)`` on random complexes of length 1 to 3 over
    C + C or M_2, with each irrep table and a random group element g."""
    algebras = [MultiMatrixAlgebra((1, 1)), MultiMatrixAlgebra((2,))]
    tables = _irrep_tables()

    def one(rng):
        table = rng.choice(tables)
        algebra = rng.choice(algebras)
        c = random_ga_complex(algebra, table, rng, length=rng.randint(1, 3))
        g = rng.randrange(table.group.order)
        ok = holds(c, g, table)
        return ok, None if ok else {"group": table.group.order, "g": g}

    return _run(theorem, seed, count, one, rejected)


def battery_th4(seed: int, count: int) -> VerificationReport:
    tables = _irrep_tables()
    rejected = []
    for what, c in _non_complexes():
        rejected += [(f"L1 of a complex with {what}",
                      lambda c=c: lefschetz_first(c, 1, tables[0])),
                     (f"the refined number of a complex with {what}",
                      lambda c=c: generalized_lefschetz(c, c.unitary(1)))]
    q = Projection.identity(MultiMatrixAlgebra((1,)), 2)  # Z/2 by an involution
    skew = GAComplex(q.algebra, tables[0].group, (q,), (), (
        (q.element,), (AlgebraElement(q.algebra, 2, (((1, 1), (0, -1)),)),)))
    rejected.append(("the refined number of a non-unitary representation",
                     lambda: generalized_lefschetz(skew, skew.unitary(1))))
    s3, std = tables[2], tables[2].irreps[2]  # S3 by g -> rho(g^-1): U_s U_g = U_gs
    right = GAComplex(q.algebra, s3.group, (q,), (), tuple(
        (AlgebraElement(q.algebra, 2, (std.matrices[s3.group.inverse(g)],)),)
        for g in s3.group.elements()))
    rejected.append(("L1 of S3 acting on the right",
                     lambda: lefschetz_first(right, 1, s3)))
    return _complex_battery("th4", seed, count, verify_th4, rejected)


def battery_th5(seed: int, count: int) -> VerificationReport:
    return _complex_battery("th5", seed, count,
                            lambda c, g, table: verify_th5(c, g, table, 0))


def battery_norm_bounds(seed: int, count: int) -> VerificationReport:
    """Representative-level continuity bounds for faces and the trace."""
    def one(rng):
        algebra = MultiMatrixAlgebra((rng.randint(1, 2),))
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        summands = []
        for _ in range(rng.randint(1, 2)):
            summands.append(tuple(
                AlgebraElement(algebra, m, tuple(
                    tuple(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(d)) for _ in range(d))
                    for d in algebra.ambient_dims(m)))
                for _ in range(n + 1)))
        rep = DecompositionRep(tuple(summands))
        for i in range(n + 1):
            if not check_face_bound(rep, i):
                return False, {"check": f"face {i}"}
        if not check_trace_bound(rep):
            return False, {"check": "trace"}
        return True, None

    return _run("norm_bounds", seed, count, one)


BATTERIES = {
    "th1": battery_th1,
    "lem2": battery_lem2,
    "functoriality": battery_functoriality,
    "kernel_h": battery_kernel_h,
    "hc": battery_hc,
    "th2": battery_th2,
    "th4": battery_th4,
    "th5": battery_th5,
    "th6": battery_th6,
    "th7": battery_th7,
    "th8": battery_th8,
    "norm_bounds": battery_norm_bounds,
}


def run_batteries(names, seed: int, count: int):
    reports = []
    for name in names:
        if name not in BATTERIES:
            raise KeyError(name)
        reports.append(BATTERIES[name](seed, count))
    return reports
