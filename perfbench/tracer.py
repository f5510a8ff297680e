"""Per-layer tracing of ``cmtype`` from outside the package.

``install`` replaces the functions named in ``LAYERS`` with timing wrappers,
both on their defining module or class and in every ``cmtype`` module that
imported them by name (``from .typecalc import classify`` binds a second
reference, and only patching that reference catches the call).  A name that
is missing raises ``TracingError`` before anything is patched, so a refactor
that moves a function makes the benchmark fail instead of silently reporting
zero calls.

A layer's self time is the duration of each wrapped call minus the time of
the wrapped calls it made.  The per-bit and per-cell accessors (``contains``,
``members_mask``, ``coefficient``, ``FieldSpec.element``/``zero``/``one``,
and the ``__eq__``/``__hash__`` of semigroups and series) are deliberately not
wrapped: they run millions of times and their cost belongs to the caller.
"""

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, module-level functions, {class: methods})
LAYERS = {
    "cli": ("cmtype.cli", ["main"], {}),
    "semigroup": (
        "cmtype.semigroup",
        [],
        {
            "NumericalSemigroup": [
                "__init__", "members", "gaps", "apery", "pseudo_frobenius", "type",
                "is_symmetric", "invariants", "canonical_exponents",
                "canonical_relative_ideal",
            ]
        },
    ),
    "constructions": (
        "cmtype.constructions",
        ["sup_search", "enumerate_monomial_ideals", "blowup_ring", "pf_family_ideal",
         "med_family_ideal", "dual_family_ideal"],
        {},
    ),
    "relideal": (
        "cmtype.relideal",
        ["_unit", "_canonical", "_maximal"],
        {
            "RelativeIdeal": [
                "__init__", "from_exponents", "minimal_generators", "mu", "is_principal",
                "add", "multiply", "colon", "intersect", "shift", "quotient_length",
                "contains_ideal", "unit_ideal", "canonical_ideal", "maximal_ideal",
                "canonical_dual", "find_reduction", "describe", "__eq__",
            ]
        },
    ),
    "typecalc": (
        "cmtype.typecalc",
        ["module_type", "quotient_type", "socle_formula", "cokernel_formula",
         "idealization_type", "is_closed", "is_trace", "is_residually_faithful",
         "is_ulrich_ideal", "is_ulrich_module_wrt", "classify"],
        {},
    ),
    "fracideal": (
        "cmtype.fracideal",
        ["_unit", "_canonical_ideal", "_maximal"],
        {
            "FractionalIdeal": [
                "from_generators", "from_relative", "support_ideal", "is_monomial",
                "describe", "module_generators", "mu", "is_principal", "add", "multiply",
                "colon", "intersect", "shift", "contains_ideal", "quotient_length",
                "unit_ideal", "canonical_ideal", "maximal_ideal", "find_reduction",
                "__eq__", "__hash__",
            ]
        },
    ),
    "series": (
        "cmtype.series",
        ["parse_series", "parse_generators", "series_mul"],
        {
            "TruncatedSeries": [
                "__init__", "zero", "monomial", "from_window", "window_vector", "add",
                "scale", "shift", "mul", "truncate",
            ]
        },
    ),
    "linalg": (
        "cmtype.linalg",
        ["_rref", "_reduce_rows", "reduce_echelon", "member", "sum_spaces", "intersect",
         "nullspace"],
        {"CoeffMatrix": ["__init__"]},
    ),
    "kernels": ("cmtype.kernels", ["rref_fp", "reduce_rows_fp", "rref_qq", "reduce_rows_qq"], {}),
}

# Module-level companion caches: a lookup that makes no wrapped call is a hit.
COMPANIONS = {
    ("relideal", "_unit"), ("relideal", "_canonical"), ("relideal", "_maximal"),
    ("fracideal", "_unit"), ("fracideal", "_canonical_ideal"), ("fracideal", "_maximal"),
}
ENGINES = ("relideal", "fracideal")


class TracingError(RuntimeError):
    """A function named in LAYERS is no longer where the tracer expects it."""


def _matrix_cells(rows):
    return len(rows) * (len(rows[0]) if rows else 0)


def _count_relideal_bits(tr, args):
    tr.counts["relideal.bits"] += args[1].conductor


def _count_window(tr, args):
    tr.counts["series.window_cells"] += args[2]


def _count_rref(tr, args):
    rows = args[1]
    tr.counts["linalg.rref.cells"] += _matrix_cells(rows)
    if rows:
        tr.max_cols = max(tr.max_cols, len(rows[0]))


def _count_matrix(tr, args):
    tr.max_cols = max(tr.max_cols, args[2])


def _count_kernel(tr, args):
    tr.counts["kernels.cells"] += _matrix_cells(args[0])


# Work counters fed from the positional arguments of a wrapped call.
COUNT_HOOKS = {
    ("relideal", "RelativeIdeal.__init__"): _count_relideal_bits,
    ("series", "TruncatedSeries.window_vector"): _count_window,
    ("linalg", "_rref"): _count_rref,
    ("linalg", "CoeffMatrix.__init__"): _count_matrix,
    ("kernels", "rref_fp"): _count_kernel,
    ("kernels", "rref_qq"): _count_kernel,
    ("kernels", "reduce_rows_fp"): _count_kernel,
    ("kernels", "reduce_rows_qq"): _count_kernel,
}


class Tracer:
    """Call counts and self time per layer and per wrapped function."""

    def __init__(self):
        self.calls = Counter()  # (layer, name) -> calls
        self.self_s = defaultdict(float)  # (layer, name) -> self seconds
        self.incl_s = defaultdict(float)  # (layer, name) -> inclusive seconds
        self.counts = Counter()
        self.max_cols = 0
        self.companion_hits = Counter()  # layer -> hits
        self.companion_calls = Counter()  # layer -> calls
        self.yielded = Counter()  # (layer, name) -> items yielded by a generator
        self.engine_calls_from_typecalc = 0
        self._ncalls = 0
        # Each frame is [layer, seconds in wrapped children, calls made before it].
        self._stack = [[None, 0.0]]
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def _enter(self, layer):
        parent = self._stack[-1]
        if parent[0] == "typecalc" and layer in ENGINES:
            self.engine_calls_from_typecalc += 1
        frame = [layer, 0.0, self._ncalls]
        self._stack.append(frame)
        return parent, frame

    def _exit(self, key, parent, frame, dt, count=True):
        self._stack.pop()
        parent[1] += dt
        self.self_s[key] += dt - frame[1]
        self.incl_s[key] += dt
        if count:
            self.calls[key] += 1
            self._ncalls += 1

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)
        hook = COUNT_HOOKS.get(key)
        companion = key in COMPANIONS
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            parent, frame = self._enter(layer)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if companion:
                    self.companion_calls[layer] += 1
                    if self._ncalls == frame[2]:
                        self.companion_hits[layer] += 1
                self._exit(key, parent, frame, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key, fn):
        """One call per generator created; each resumption is a span of its layer."""
        layer = key[0]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self._ncalls += 1
            gen = fn(*args, **kwargs)
            while True:
                parent, frame = self._enter(layer)
                t0 = perf()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(key, parent, frame, perf() - t0, count=False)
                self.yielded[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS; raise TracingError if one is missing."""
        targets = resolve_targets()
        modules = cmtype_modules()
        try:
            for layer, name, owner, attr, raw in targets:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(layer, name, raw.__func__))
                    self._patch(owner, attr, new)
                elif isinstance(owner, type):
                    self._patch(owner, attr, self._wrap(layer, name, raw))
                else:
                    wrapped = self._wrap(layer, name, raw)
                    for mod in modules:
                        for ref, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, ref, wrapped)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def layer_calls(self, layer):
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def layer_self_s(self, layer):
        return sum(s for (lay, _), s in self.self_s.items() if lay == layer)

    def fn_calls(self, layer, name):
        return self.calls[(layer, name)]

    def hit_ratio(self, layer):
        n = self.companion_calls[layer]
        return self.companion_hits[layer] / n if n else 0.0


def cmtype_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "cmtype" or name.startswith("cmtype.")]


def resolve_targets():
    """(layer, name, owner, attribute, raw object) for everything in LAYERS."""
    out = []
    for layer, (module_name, functions, classes) in LAYERS.items():
        module = importlib.import_module(module_name)
        for fname in functions:
            fn = vars(module).get(fname)
            if not callable(fn):
                raise TracingError(f"{module_name}.{fname} is gone; update perfbench/tracer.py")
            out.append((layer, fname, module, fname, fn))
        for cname, methods in classes.items():
            cls = vars(module).get(cname)
            if not isinstance(cls, type):
                raise TracingError(f"{module_name}.{cname} is gone; update perfbench/tracer.py")
            for mname in methods:
                if mname not in vars(cls):
                    raise TracingError(
                        f"{module_name}.{cname}.{mname} is gone; update perfbench/tracer.py"
                    )
                out.append((layer, f"{cname}.{mname}", cls, mname, vars(cls)[mname]))
    return out


class ItemTimer:
    """Times every call of ``module.name``, patched where it is called.

    Used for ``monomial-sweep``, whose item is one ``idealization_type`` call
    inside ``sup_search``: ``constructions`` binds the name at import, so the
    reference in ``constructions`` is the one to patch.
    """

    def __init__(self, module_name, name, durations):
        self.module = importlib.import_module(module_name)
        self.name = name
        if not callable(vars(self.module).get(name)):
            raise TracingError(f"{module_name}.{name} is gone; update perfbench/run.py")
        self.durations = durations  # appended to: a list or an array("d")
        self._original = None

    def __enter__(self):
        fn = self._original = vars(self.module)[self.name]
        durations = self.durations
        perf = time.perf_counter

        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(perf() - t0)

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self._original)
