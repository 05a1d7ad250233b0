import importlib
import pkgutil
import random
import sys

import ncgdesk
from ncgdesk.algebra import MultiMatrixAlgebra, spectral_decompose
from ncgdesk.cyclic import hc_dims, hc_space
from ncgdesk.generate import random_normal
from ncgdesk.verify import battery_th4, battery_th5

CM2 = MultiMatrixAlgebra((1, 2))


def module_caches():
    """Every object with ``cache_info`` bound in an ncgdesk module namespace,
    after importing every ncgdesk module."""
    for info in pkgutil.iter_modules(ncgdesk.__path__):
        importlib.import_module(f"ncgdesk.{info.name}")
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "ncgdesk" or name.startswith("ncgdesk."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info"):
                    found.setdefault(id(value), (f"{name}.{attr}", value))
    return list(found.values())


def test_every_module_cache_is_bounded_and_cleared():
    def answers():
        y = random_normal(CM2, random.Random(4)).element()
        return (hc_dims(CM2, 3), spectral_decompose(y), battery_th4(1, 4),
                battery_th5(1, 4))

    caches = module_caches()
    assert caches
    assert [name for name, f in caches if f.cache_info().maxsize is None] == []
    ncgdesk.clear_caches()
    before = answers()
    assert [name for name, f in caches if not f.cache_info().currsize] == []
    ncgdesk.clear_caches()
    assert [name for name, f in caches if f.cache_info().currsize] == []
    assert answers() == before


def test_one_cache_entry_per_value():
    ncgdesk.clear_caches()
    first = hc_space(CM2, 2)
    assert hc_space(CM2, 2, 1) is first
    assert hc_space(CM2, n=2, amplification=1) is first
    assert hc_space(algebra=CM2, n=2) is first
    assert hc_space(CM2, 2, 2) is not first
