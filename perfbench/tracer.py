"""Out-of-package tracing of globfun's layers.

`install()` wraps the public functions and the main methods of every globfun
module.  Each wrapper records one span: (name, parent span index, start, end,
op id), where the name is "<layer>.<function>" and the layer is the module
the function lives in.  Spans stay in memory until `snapshot()` hands them,
together with counters gathered at the same boundaries, to the process's
launcher, which writes them out at exit.

The package imports names across modules (`from .linalg import solve_exact`),
so every wrapper is rebound in each `globfun.*` namespace that holds the
original object, not only in the defining module.  `unwrapped_aliases()`
reports any namespace still holding an original, which the benchmark treats
as a failed check rather than a layer that costs nothing.
"""

import sys
from time import perf_counter

LAYERS = (
    "perms",
    "subgroups",
    "characters",
    "functors",
    "burnside",
    "repring",
    "linalg",
    "splitting",
    "burncat",
    "cache",
    "cli",
)

# Public functions left unwrapped: a wrapper on these would cost more than
# the call itself.  mn_character is counted through its lru_cache instead.
SKIP = {
    "characters.mn_character",
    "characters.partitions",
    "characters.partition_count",
    "characters.cycle_type_class_size",
    "linalg.zeros",
    "linalg.identity_matrix",
    "linalg.transpose",
    "linalg.mat_eq",
    "linalg.mat_vec",
    "linalg.mat_add",
    "linalg.mat_sub",
}

# (layer, class, method) pairs wrapped in addition to the public functions.
METHODS = (
    ("perms", "PermGroup", "__init__"),
    ("perms", "PermGroup", "from_elements"),
    ("perms", "PermGroup", "conjugacy_classes"),
    ("perms", "GroupHom", "__init__"),
    ("subgroups", "SubgroupLattice", "class_of"),
    ("functors", "GlobalFunctor", "value"),
    ("functors", "GlobalFunctor", "res"),
    ("functors", "GlobalFunctor", "tr"),
    ("burnside", "BurnsideFunctor", "_value"),
    ("burnside", "BurnsideFunctor", "_res_matrix"),
    ("burnside", "BurnsideFunctor", "_tr_matrix"),
    ("repring", "RepRingFunctor", "_value"),
    ("repring", "RepRingFunctor", "_res_matrix"),
    ("repring", "RepRingFunctor", "_tr_matrix"),
    ("burncat", "RepresentedFunctor", "_value"),
    ("burncat", "RepresentedFunctor", "_res_matrix"),
    ("burncat", "RepresentedFunctor", "_tr_matrix"),
    ("burncat", "BurnsideCatMorphism", "compose"),
    ("cache", "Cache", "get"),
    ("cache", "Cache", "put"),
)

COUNTERS = (
    "perms.groups_built",
    "perms.elements_closed",
    "perms.homs_built",
    "perms.hom_map_entries",
    "subgroups.subgroups_found",
    "functors.res_builds",
    "functors.tr_builds",
    "linalg.max_entry_bits",
    "cache.hits",
    "cache.misses",
    "cache.puts",
    "cache.bytes_read",
    "cache.bytes_written",
)


class _State:
    spans = []
    stack = []
    op = 0
    counters = dict.fromkeys(COUNTERS, 0)
    wrapped = {}  # id(original) -> (qualified name, original, wrapper)
    memo_base = None


def _span_wrapper(fn, name, after=None):
    spans, stack = _State.spans, _State.stack

    def wrapper(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (name, parent, t0, t1, _State.op)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _entry_bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, (list, tuple)):
        return max((_entry_bits(v) for v in value), default=0)
    return 0


def _count(name, amount=1):
    _State.counters[name] += amount


def _bits_after(args, result):
    bits = _entry_bits(result)
    if bits > _State.counters["linalg.max_entry_bits"]:
        _State.counters["linalg.max_entry_bits"] = bits


def _memo_grew(attr, counter):
    def before_after(fn, name):
        def call(self, *args, **kwargs):
            memo = getattr(self, attr)
            size = len(memo)
            result = fn(self, *args, **kwargs)
            if len(memo) > size:
                _count(counter)
            return result

        return _span_wrapper(call, name)

    return before_after


def _cache_get_after(args, result):
    cache = args[0]
    if not cache.enabled:
        return
    if result is None:
        _count("cache.misses")
        return
    _count("cache.hits")
    _count("cache.bytes_read", cache._path(args[1], args[2]).stat().st_size)


def _cache_put_after(args, result):
    cache = args[0]
    if not cache.enabled:
        return
    _count("cache.puts")
    path = cache._path(args[1], args[2])
    if path.exists():
        _count("cache.bytes_written", path.stat().st_size)


AFTER = {
    "perms.close_generators": lambda a, r: _count("perms.elements_closed", len(r)),
    "perms.PermGroup.__init__": lambda a, r: _count("perms.groups_built"),
    "perms.PermGroup.from_elements": lambda a, r: _count("perms.groups_built"),
    "perms.GroupHom.__init__": lambda a, r: (
        _count("perms.homs_built"),
        _count("perms.hom_map_entries", len(a[3] if len(a) > 3 else ())),
    ),
    "linalg.hermite_normal_form": _bits_after,
    "linalg.integer_kernel": _bits_after,
    "linalg.solve_exact": _bits_after,
    "linalg.det_exact": _bits_after,
    "cache.Cache.get": _cache_get_after,
    "cache.Cache.put": _cache_put_after,
}

# wrappers that need the instance before and after the call
AROUND = {
    "functors.GlobalFunctor.res": _memo_grew("_res_memo", "functors.res_builds"),
    "functors.GlobalFunctor.tr": _memo_grew("_tr_memo", "functors.tr_builds"),
}


def _modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "globfun" or name.startswith("globfun."))
    }


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every globfun namespace holding it."""
    for mod in _modules().values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _wrap_function(layer, mod, attr):
    name = f"{layer}.{attr}"
    original = getattr(mod, attr)
    wrapper = _span_wrapper(original, name, AFTER.get(name))
    _State.wrapped[id(original)] = (name, original, wrapper)
    _rebind(original, wrapper)


def _wrap_method(layer, cls, attr):
    name = f"{layer}.{cls.__name__}.{attr}"
    raw = cls.__dict__[attr]
    is_static = isinstance(raw, staticmethod)
    original = raw.__func__ if is_static else raw
    if name in AROUND:
        wrapper = AROUND[name](original, name)
    else:
        wrapper = _span_wrapper(original, name, AFTER.get(name))
    _State.wrapped[id(original)] = (name, original, wrapper)
    setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)


def _memo_sizes():
    import globfun.characters as characters
    import globfun.subgroups as subgroups

    return {
        "lattices": set(subgroups._lattice_memo),
        "tables": len(characters._table_memo),
        "fusions": len(characters._fusion_memo),
        "mn": characters.mn_character.cache_info(),
    }


def install():
    """Wrap every layer of the already importable globfun package."""
    import importlib

    if _State.wrapped:
        return
    for layer in LAYERS:
        mod = importlib.import_module(f"globfun.{layer}")
        for attr, value in sorted(vars(mod).items()):
            if (
                attr.startswith("_")
                or f"{layer}.{attr}" in SKIP
                or not callable(value)
                or isinstance(value, type)
                or getattr(value, "__module__", None) != mod.__name__
            ):
                continue
            _wrap_function(layer, mod, attr)
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"globfun.{layer}"), cls_name)
        _wrap_method(layer, cls, attr)
    reset()


def unwrapped_aliases():
    """Names in globfun namespaces still bound to an original, unwrapped callable."""
    missed = []
    for mod_name, mod in _modules().items():
        for attr, value in vars(mod).items():
            hit = _State.wrapped.get(id(value))
            if hit is not None and hit[1] is value:
                missed.append(f"{mod_name}.{attr} ({hit[0]})")
    return sorted(missed)


def reset():
    """Forget spans and counters; memo growth is measured from here."""
    _State.spans.clear()
    _State.counters = dict.fromkeys(COUNTERS, 0)
    _State.memo_base = _memo_sizes()


def set_op(op: int):
    _State.op = op


def snapshot(extra=None):
    """Spans, counters and missed aliases, as one JSON-ready dict."""
    import globfun.characters as characters
    import globfun.subgroups as subgroups

    base = _State.memo_base
    counters = dict(_State.counters)
    new_lattices = [
        lat for key, lat in subgroups._lattice_memo.items() if key not in base["lattices"]
    ]
    counters["subgroups.lattice_builds"] = len(new_lattices)
    counters["subgroups.subgroups_found"] = sum(
        c.class_size for lat in new_lattices for c in lat.classes
    )
    counters["characters.table_builds"] = len(characters._table_memo) - base["tables"]
    counters["characters.fusion_builds"] = len(characters._fusion_memo) - base["fusions"]
    mn = characters.mn_character.cache_info()
    counters["characters.mn_hits"] = mn.hits - base["mn"].hits
    counters["characters.mn_misses"] = mn.misses - base["mn"].misses
    counters.update(extra or {})
    return {"counters": counters, "unwrapped": unwrapped_aliases(), "spans": _State.spans}
