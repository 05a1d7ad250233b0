"""A call tracer for ncgdesk that sits outside the library.

``Tracer.install`` replaces

- every public function bound in any ``ncgdesk`` module namespace (each
  binding: ``from .cyclic import hc_class`` makes a second one), and
- every public method of every public ncgdesk class,

with a wrapper that records a span: name, start, end and the enclosing
span.  Spans are folded into per-name call counts, inclusive time (outermost
span of a name only) and self time (duration minus the time covered by
child spans) as they close, so memory stays flat however many calls run.
A few wrappers also read their arguments or result to count work the
spans alone do not show (see ``_hooks``).  ``uninstall`` restores every
binding.
"""

import functools
import inspect
import sys
import time

# Methods whose cost is negligible and that run inside hashing and printing.
_SKIP_METHODS = frozenset({
    "__repr__", "__str__", "__hash__", "__setattr__", "__getattr__",
    "__delattr__", "__getattribute__", "__init_subclass__",
    "__class_getitem__"})

# linalg's exact eliminators, reported together as linalg.elim.*
ELIM = ("linalg.rref", "linalg.rank", "linalg.pivot_columns",
        "linalg.nullspace", "linalg.solve", "linalg.invert")
# construction-time checks of Projection and SpectralForm
VALIDATION = ("algebra.Projection.__post_init__",
              "algebra.SpectralForm.__post_init__")


def _short(module_name):
    return module_name[len("ncgdesk."):] if module_name.startswith(
        "ncgdesk.") else module_name


def _public(name):
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__"))


class Tracer:
    """Spans over ncgdesk calls.  ``known_spaces`` are homology spaces built
    before tracing began, so that returning one counts as a cache hit."""

    def __init__(self, known_spaces=()):
        self.stats = {}      # span name -> [calls, inclusive s, self s]
        self.counters = {}   # hook counters; "*_max" keys merge by max
        self._stack = []     # open spans: [name, start, child s, extra]
        self._depth = {}     # span name -> open spans of that name
        self._patches = []   # (owner, attribute, original value)
        # id -> space; holding the space keeps its id unique
        self._seen_spaces = {id(s): s for s in known_spaces}

    # -- spans ------------------------------------------------------------
    def _wrap(self, fn, name, hook=None):
        stack, depth, stats = self._stack, self._depth, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0, 0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                depth[name] -= 1
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[2] += dur - frame[2]
                if not depth[name]:
                    entry[1] += dur
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(args, result, dur, frame)
            return result

        return traced

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hooks(self, modules):
        """Per-span extras, keyed by (binding module or None, span name)."""
        linalg = modules["ncgdesk.linalg"]
        element_is_exact = modules["ncgdesk.algebra"].AlgebraElement.is_exact
        shape = linalg.shape

        def mat_mul(args, result, dur, frame):
            (r, k), (_, c) = shape(args[0]), shape(args[1])
            self._count("mat_mul_scalar_mults", r * k * c)

        def hc_space(args, result, dur, frame):
            # a hit returns an object some earlier call already returned
            if id(result) in self._seen_spaces:
                self._count("hc_space_hits")
                return
            self._seen_spaces[id(result)] = result
            self._count("hc_space_build_s", dur)
            self._count("cc_basis_size", result.cc.dimension)
            self._count("boundary_rank", result.boundary_rank)
            self._count("cycle_dim", len(result.cycle_basis))

        def dyadic_cover(args, result, dur, frame):
            for open_frame in reversed(self._stack):
                if open_frame[0] == "chern.T_cover":
                    open_frame[3] += 1
                    break

        def t_cover(args, result, dur, frame):
            self._count("cover_levels_sum", frame[3])
            self.counters["cover_levels_max"] = max(
                self.counters.get("cover_levels_max", 0), frame[3])

        def lefschetz_decompose(args, result, dur, frame):
            if not element_is_exact(args[0]):
                self._count("lefschetz_float_fallbacks")

        return {
            (None, "linalg.mat_mul"): mat_mul,
            (None, "cyclic.hc_space"): hc_space,
            (None, "chern.dyadic_cover"): dyadic_cover,
            (None, "chern.T_cover"): t_cover,
            ("ncgdesk.lefschetz", "algebra.spectral_decompose"):
                lefschetz_decompose,
        }

    # -- patching ---------------------------------------------------------
    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ncgdesk" or name.startswith("ncgdesk.")}
        hooks = self._hooks(modules)
        classes = {}
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                if inspect.isclass(value):
                    if (value.__module__.startswith("ncgdesk.")
                            and _public(value.__name__)
                            and not issubclass(value, BaseException)):
                        classes[id(value)] = value
                    continue
                if attr.startswith("_") \
                        or not (inspect.isfunction(value)
                                or hasattr(value, "cache_info")) \
                        or not getattr(value, "__module__", "").startswith(
                            "ncgdesk."):
                    continue
                name = f"{_short(value.__module__)}.{value.__qualname__}"
                hook = hooks.get((mod_name, name), hooks.get((None, name)))
                self._patch(mod, attr, self._wrap(value, name, hook))
        for cls in classes.values():
            prefix = f"{_short(cls.__module__)}.{cls.__qualname__}"
            for attr, value in list(vars(cls).items()):
                if attr in _SKIP_METHODS or not _public(attr):
                    continue
                name = f"{prefix}.{attr}"
                if isinstance(value, (staticmethod, classmethod)):
                    wrapped = type(value)(self._wrap(value.__func__, name))
                elif inspect.isfunction(value):
                    wrapped = self._wrap(value, name)
                else:
                    continue
                self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._seen_spaces = {}

    def snapshot(self):
        return {"stats": self.stats, "counters": self.counters}


# -- per-layer metrics ------------------------------------------------------

def merge(snapshots):
    """Sum snapshots from several processes ("*_max" counters by max)."""
    stats, counters = {}, {}
    for snap in snapshots:
        for name, (calls, total, own) in snap["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key, value in snap["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def layer_metrics(snap):
    """Per-layer metric name -> (value, unit) from a merged snapshot."""
    stats, counters = snap["stats"], snap["counters"]

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def layer_calls(prefix):
        return sum(v[0] for n, v in stats.items() if n.startswith(prefix))

    def layer_self(prefix):
        return sum((v[2] for n, v in stats.items() if n.startswith(prefix)),
                   0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    mults = counters.get("mat_mul_scalar_mults", 0)
    space_calls = calls("cyclic.hc_space")
    t_covers = calls("chern.T_cover")
    out = {
        "scalars.self_s": (layer_self("scalars."), "s"),
        "scalars.cyclotomic.calls": (layer_calls("scalars.Cyclotomic."),
                                     "count"),
        "scalars.minimalize.hit_ratio": (ratio(
            counters.get("minimalize_hits", 0),
            counters.get("minimalize_calls", 0)), "ratio"),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul.scalar_mults": (mults, "count"),
        "linalg.mat_mul.self_s": (own("linalg.mat_mul"), "s"),
        "linalg.mat_mul.ns_per_mult": (
            ratio(own("linalg.mat_mul") * 1e9, mults), "ns"),
        "linalg.elim.calls": (calls(*ELIM), "count"),
        "linalg.elim.self_s": (own(*ELIM), "s"),
        "linalg.self_s": (layer_self("linalg."), "s"),
        "algebra.spectral_decompose.calls": (
            calls("algebra.spectral_decompose"), "count"),
        "algebra.spectral_decompose.self_s": (
            own("algebra.spectral_decompose"), "s"),
        "algebra.apply_hom.self_s": (own("algebra.apply_hom"), "s"),
        "algebra.validation.total_s": (total(*VALIDATION), "s"),
        "algebra.self_s": (layer_self("algebra."), "s"),
        "ngroup.n_class.self_s": (own("ngroup.n_class"), "s"),
        "ngroup.functorial_map.self_s": (own("ngroup.functorial_map"), "s"),
        "ngroup.self_s": (layer_self("ngroup."), "s"),
        "cyclic.hc_space.calls": (space_calls, "count"),
        "cyclic.hc_space.hit_ratio": (ratio(
            counters.get("hc_space_hits", 0), space_calls), "ratio"),
        "cyclic.hc_space.build_s": (counters.get("hc_space_build_s", 0.0),
                                    "s"),
        "cyclic.cc_basis_size": (counters.get("cc_basis_size", 0), "count"),
        "cyclic.boundary_rank": (counters.get("boundary_rank", 0), "count"),
        "cyclic.cycle_dim": (counters.get("cycle_dim", 0), "count"),
        "cyclic.face_op.calls": (calls("cyclic.face_op"), "count"),
        "cyclic.face_op.self_s": (own("cyclic.face_op"), "s"),
        "cyclic.hc_class.calls": (calls("cyclic.hc_class"), "count"),
        "cyclic.hc_class.self_s": (
            own("cyclic.hc_class", "cyclic.HomologySpace.hc_class"), "s"),
        "cyclic.trace_map.self_s": (own("cyclic.trace_map"), "s"),
        "cyclic.self_s": (layer_self("cyclic."), "s"),
        "chern.T_direct.self_s": (own("chern.T_direct"), "s"),
        "chern.T_cover.self_s": (own("chern.T_cover"), "s"),
        "chern.cover_levels.mean": (ratio(
            counters.get("cover_levels_sum", 0), t_covers), "count"),
        "chern.cover_levels.max": (counters.get("cover_levels_max", 0),
                                   "count"),
        "chern.generalized_chern.self_s": (
            own("chern.generalized_chern"), "s"),
        "chern.self_s": (layer_self("chern."), "s"),
        "lefschetz.harmonic_modules.calls": (
            calls("lefschetz.harmonic_modules"), "count"),
        "lefschetz.harmonic_modules.self_s": (
            own("lefschetz.harmonic_modules"), "s"),
        "lefschetz.isotypic_decompose.self_s": (
            own("lefschetz.isotypic_decompose"), "s"),
        "lefschetz.generalized_lefschetz.self_s": (
            own("lefschetz.generalized_lefschetz"), "s"),
        "lefschetz.float_fallbacks": (
            counters.get("lefschetz_float_fallbacks", 0), "count"),
        "lefschetz.self_s": (layer_self("lefschetz."), "s"),
    }
    return out
