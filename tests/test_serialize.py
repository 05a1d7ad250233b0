import json
import random
from fractions import Fraction

import pytest

from ncgdesk import linalg as la, serialize as sz
from ncgdesk.algebra import MultiMatrixAlgebra, apply_hom
from ncgdesk.cyclic import TensorElement, trace_map
from ncgdesk.errors import ValidationError
from ncgdesk.generate import (
    random_ga_complex,
    random_hom,
    random_n0class,
    random_normal,
    random_projection,
)
from ncgdesk.lefschetz import IrrepTable, validate_complex
from ncgdesk.ngroup import K0TensorC

A = MultiMatrixAlgebra((1, 2))


def reparse(doc):
    return json.loads(sz.dumps(doc))


def test_schema_version_checked():
    with pytest.raises(ValidationError):
        sz.algebra_from_json({"schema_version": 99, "blocks": [1]})


def test_algebra_roundtrip():
    assert sz.algebra_from_json({"schema_version": 1, "blocks": [1, 2]}) == A


def test_spectral_roundtrip():
    a = random_normal(A, random.Random(0))
    b = sz.spectral_from_json(reparse(sz.spectral_to_json(a)))
    assert a.element().equals(b.element())
    assert a.eigenvalues() == b.eigenvalues()


def test_projection_roundtrip():
    p = random_projection(A, random.Random(1))
    q = sz.projection_from_json(reparse(sz.projection_to_json(p)))
    assert p.element.equals(q.element)


def test_n0_roundtrip():
    x = random_n0class(A, random.Random(2))
    assert sz.n0_from_json(reparse(sz.n0_to_json(x))) == x


def test_k0c_roundtrip():
    v = K0TensorC((Fraction(1, 3), Fraction(-2)))
    assert sz.k0c_from_json(reparse(sz.k0c_to_json(v))) == v


def test_tensor_roundtrip_and_canonical_order():
    p = random_projection(A, random.Random(3))
    xi = trace_map(TensorElement.from_summand((p.element,) * 3))
    doc = sz.tensor_to_json(xi)
    keys = [tuple(tuple(u) for u in t["indices"]) for t in doc["terms"]]
    assert keys == sorted(keys)
    assert sz.tensor_from_json(reparse(doc)).equals(xi)


def test_tensor_repeated_terms_are_summed():
    def doc(*coeffs):
        return {"schema_version": 1, "algebra": {"blocks": [1]}, "degree": 0,
                "terms": [{"indices": [[0, 0, 0]], "coeff": c} for c in coeffs]}
    assert sz.tensor_from_json(doc("1", "1")).coeffs == {((0, 0, 0),): 2}
    assert sz.tensor_from_json(doc("1", "1/2", "-3/2")).coeffs == {}


def test_hom_roundtrip():
    rng = random.Random(4)
    phi = random_hom(rng)
    psi = sz.hom_from_json(reparse({
        "source": {"blocks": list(phi.source.block_dims)},
        "target": {"blocks": list(phi.target.block_dims)},
        "multiplicities": [list(row) for row in phi.multiplicities],
        "unitaries": [sz.matrix_to_json(u) for u in phi.unitaries]}))
    x = random_normal(phi.source, rng).element()
    assert apply_hom(phi, x).equals(apply_hom(psi, x))


def test_complex_roundtrip_still_validates():
    rng = random.Random(5)
    c = random_ga_complex(A, IrrepTable.cyclic(3), rng, length=2)
    c2 = sz.complex_from_json(reparse(sz.complex_to_json(c)))
    assert validate_complex(c2) == []
    assert c2.length == c.length
    for d1, d2 in zip(c.diffs, c2.diffs):
        assert len(d1) == len(d2)
        assert all(map(la.mat_equal, d1, d2))


@pytest.mark.parametrize("edit", [lambda d: d[1].pop(), lambda d: d.pop()],
                         ids=["block missing a row", "missing block"])
def test_complex_diff_shape_checked_by_the_complex(edit):
    c = random_ga_complex(A, IrrepTable.cyclic(2), random.Random(5), length=2)
    doc = reparse(sz.complex_to_json(c))
    edit(doc["diffs"][0])
    with pytest.raises(ValidationError, match="differential 0 has wrong shape"):
        sz.complex_from_json(doc)


def test_irreps_builtin_kinds():
    assert sz.irreps_from_json({"kind": "cyclic", "n": 4}).group.order == 4
    assert sz.irreps_from_json({"kind": "s3"}).group.order == 6
    with pytest.raises(ValidationError):
        sz.irreps_from_json({"kind": "dihedral", "n": 4})


def test_irreps_full_table_roundtrip():
    table = IrrepTable.symmetric_3()
    t2 = sz.irreps_from_json(reparse({
        "group": sz.group_table_to_json(table.group),
        "irreps": [{"name": p.name, "dim": p.dim,
                    "matrices": [sz.matrix_to_json(m) for m in p.matrices]}
                   for p in table.irreps]}))
    assert [p.dim for p in t2.irreps] == [p.dim for p in table.irreps]
