"""Every functools cache in the package keeps a bounded number of entries.

A cache without a bound grows for the life of the process. Only the caches
listed in UNBOUNDED may have none, each for the reason given there.
functools.cached_property is not counted: it stores one value on each
instance and goes with it.
"""

import importlib
import inspect
import pkgutil
import re

import trigrid
from trigrid.metric import HOP_TABLE_CACHE_SIZE
from trigrid.tessellation import Tessellation

UNBOUNDED = {
    "trigrid.metric._origin_walk": (
        "keyed by corner displacement, so it grows only with the largest window extent in use"
    ),
}

_DECORATOR = re.compile(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", re.MULTILINE)


def package_caches():
    """(qualified name, cached function) of every functools cache the package defines,
    and the number of cache decorators in each module's source."""
    caches, decorators = {}, {}
    for info in pkgutil.iter_modules(trigrid.__path__, "trigrid."):
        module = importlib.import_module(info.name)
        decorators[info.name] = len(_DECORATOR.findall(inspect.getsource(module)))
        scopes = [(info.name, vars(module))] + [
            (f"{info.name}.{name}", vars(obj))
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == info.name
        ]
        for prefix, names in scopes:
            for name, obj in names.items():
                fn = getattr(obj, "__func__", obj)
                if hasattr(fn, "cache_parameters") and fn.__module__ == info.name:
                    caches[f"{prefix}.{name}"] = fn
    return caches, decorators


def test_every_package_cache_has_a_finite_maxsize():
    caches, decorators = package_caches()
    # every decorator in the source is a cache found here, so none hides in a function body
    for module, count in decorators.items():
        assert count == sum(name.startswith(module + ".") for name in caches), module
    assert set(UNBOUNDED) <= set(caches)
    for name, fn in caches.items():
        maxsize = fn.cache_parameters()["maxsize"]
        if name in UNBOUNDED:
            assert maxsize is None, f"{name} is bounded; drop it from UNBOUNDED"
        else:
            assert maxsize is not None, f"{name} has no bound"
    assert len(caches) >= 6


def test_every_per_shape_cache_shares_the_hop_table_bound():
    # a cache keyed by window shape holds one entry per shape, as the hop
    # tables do, so every such cache keeps as many shapes as they do; and
    # there are just three of them, so the window's edges have one layout
    caches, _ = package_caches()
    per_shape = {
        name
        for name, fn in caches.items()
        if next(iter(inspect.signature(fn).parameters.values())).annotation is Tessellation
    }
    assert per_shape == {
        "trigrid.grid_paths._lattice",
        "trigrid.metric.corner_hop_table",
        "trigrid.oracle._window_support",
    }
    for name in per_shape:
        assert caches[name].cache_parameters()["maxsize"] == HOP_TABLE_CACHE_SIZE, name
