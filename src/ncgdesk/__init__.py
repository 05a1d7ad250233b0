"""Exact noncommutative geometry over finite-dimensional multi-matrix
algebras: spectral invariants of normal elements, cyclic homology, the
Chern character and its extension to normal elements, and equivariant
Lefschetz numbers.
"""

from .algebra import (
    AlgebraElement,
    BorelSetModel,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
    apply_hom,
    is_normal,
    spectral_decompose,
    spectral_projection,
)
from .budget import get_budget, set_budget
from .chern import (
    T_cover,
    T_direct,
    chern_projection,
    dyadic_cover,
    eta_cycle,
    generalized_chern,
    verify_eta_vanishes,
)
from .cyclic import (
    HCClass,
    TensorElement,
    cyclic_op,
    face_op,
    hc_class,
    hc_dims,
    hc_space,
    is_boundary,
    read_class,
    trace_map,
    zero_class,
)
from .errors import (
    ConsistencyError,
    DomainError,
    NcgError,
    NumericalError,
    ResourceError,
    ValidationError,
)
from .lefschetz import (
    FiniteGroup,
    GAComplex,
    IrrepTable,
    generalized_lefschetz,
    lefschetz_first,
    lefschetz_second,
    validate_complex,
)
from .ngroup import (
    K0Class,
    K0TensorC,
    N0Class,
    functorial_map,
    h_map,
    n_class,
    t_map,
)
from .scalars import Cyclotomic, get_epsilon, set_epsilon
from . import (algebra as _algebra, chern as _chern, cyclic as _cyclic,
               lefschetz as _lefschetz, scalars as _scalars)

__version__ = "0.1.0"

# taken at import, since a tracer may rebind the public names to wrappers
_CACHED = (
    _cyclic._letters, _cyclic._cyclic_space, _cyclic._boundary,
    _cyclic._hc_space, _chern._unit_class, _chern._read_terms,
    _algebra._spectral_decompose_exact,
    _lefschetz._fourier, _scalars.cyclotomic_poly, _scalars._powers,
    _scalars._mul_table, _scalars._galois, _scalars._promotion,
    _scalars._subfields)


def clear_caches() -> None:
    """Empty every module cache, the field tables included.  Answers do not
    change; the next call that needs a structure builds it again."""
    for cached in _CACHED:
        cached.cache_clear()


__all__ = [
    "AlgebraElement", "BorelSetModel", "MultiMatrixAlgebra", "Projection",
    "SpectralForm", "StarHomomorphism", "apply_hom", "is_normal",
    "spectral_decompose", "spectral_projection",
    "get_budget", "set_budget",
    "T_cover", "T_direct", "chern_projection", "dyadic_cover", "eta_cycle",
    "generalized_chern", "verify_eta_vanishes",
    "HCClass", "TensorElement", "cyclic_op", "face_op", "hc_class",
    "hc_dims", "hc_space", "is_boundary", "read_class", "trace_map",
    "zero_class",
    "ConsistencyError", "DomainError", "NcgError", "NumericalError",
    "ResourceError", "ValidationError",
    "FiniteGroup", "GAComplex", "IrrepTable", "generalized_lefschetz",
    "lefschetz_first", "lefschetz_second", "validate_complex",
    "K0Class", "K0TensorC", "N0Class", "functorial_map", "h_map", "n_class",
    "t_map",
    "Cyclotomic", "get_epsilon", "set_epsilon",
    "clear_caches",
]
