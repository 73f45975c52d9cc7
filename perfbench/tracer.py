"""Outside-in layer tracing for the benchmark.

The tracer never edits ``src/``: while installed, it replaces the public
functions of each orbitforge module with wrappers that record a span
(name, parent, start, end) and, for some layers, work counts.  Modules copy
functions into each other with ``from .x import y``, so every module binding
that holds a wrapped function is replaced, not only the defining one.
``uninstall`` puts every original back.

Spans stay in memory.  A layer's self time is its span's duration minus the
durations of its direct child spans.  Counting work (for example the support
overlap of ``inner``) runs outside the timed interval: the tracer's clock
stops while it counts, so neither the spans nor the traced pass time include
the counting.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, metric name).  "Class.method" names a method and
# "*.method" that method on every class of the module that defines it.
SPANS = (
    ("vectors", "inner", "vectors.inner"),
    ("vectors", "add_scaled", "vectors.add_scaled"),
    ("vectors", "WindowVector.translate", "vectors.translate"),
    ("operators", "*.apply", "operators.apply"),
    ("operators", "apply_power", "operators.apply_power"),
    ("operators", "compress", "operators.compress"),
    ("operators", "Subspace.span", "operators.Subspace.span"),
    ("operators", "*.phases", "operators.phases"),
    ("operators", "QuadraticIrrationalRotation.find_index", "operators.find_index"),
    ("spectra", "approx_eigenvector_family", "spectra.approx_eigenvector_family"),
    ("spectra", "orbit_to_approx_eigenvector", "spectra.orbit_to_approx_eigenvector"),
    ("nrange", "numerical_radius", "nrange.numerical_radius"),
    ("nrange", "radius_norm_bounds", "nrange.radius_norm_bounds"),
    ("nrange", "diagonal_compression_subspace", "nrange.diagonal_compression_subspace"),
    ("nrange", "we_membership_witness", "nrange.we_membership_witness"),
    ("moments", "circle_moment_match", "moments.circle_moment_match"),
    ("moments", "_match_exact", "moments.match_exact"),
    ("moments", "_match_float", "moments.match_float"),
    ("witness", "almost_orthogonal_orbit", "witness.almost_orthogonal_orbit"),
    ("witness", "rokhlin_tower", "witness.rokhlin_tower"),
    ("witness", "zero_tuple_vector", "witness.zero_tuple_vector"),
    ("witness", "zero_iteration_step", "witness.zero_iteration_step"),
    ("flatten", "flat_subspace", "flatten.flat_subspace"),
    ("harness", "run_check", "harness.run_check"),
)

# Spans that build a certificate.  The rest of a harness.run_check span is
# the harness re-measuring the certificate from its raw vectors.
BUILDERS = frozenset(
    (
        "witness.almost_orthogonal_orbit",
        "witness.rokhlin_tower",
        "witness.zero_tuple_vector",
        "flatten.flat_subspace",
        "nrange.diagonal_compression_subspace",
        "moments.circle_moment_match",
        "spectra.orbit_to_approx_eigenvector",
    )
)

COUNTS = (
    "vectors.inner.entries",
    "vectors.inner.same_support_calls",
    "vectors.inner.disjoint_calls",
    "vectors.add_scaled.entries",
    "vectors.budget.entries_charged",
    "operators.find_index.bsgs_calls",
    "nrange.eigvalsh.calls",
    "nrange.eigvalsh.matrices",
)

# find_index switches from a float scan to baby-step giant-step below this
# tolerance in turns
BSGS_TOL_TURN = 1e-6


def _count_inner(counts, u, v):
    # overlap_ratio: the share of the smaller support that the other one holds
    a, b = u.indices, v.indices
    counts["vectors.inner.entries"] += len(a) + len(b)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0 or small[-1] < large[0] or large[-1] < small[0]:
        common = 0
    elif a is b or (len(a) == len(b) and np.array_equal(a, b)):
        common = len(a)
        counts["vectors.inner.same_support_calls"] += 1
    else:
        pos = np.searchsorted(large, small)
        pos[pos == len(large)] = 0
        common = int(np.count_nonzero(large[pos] == small))
    if common == 0:
        counts["vectors.inner.disjoint_calls"] += 1
    counts["inner.common"] += common
    counts["inner.smaller"] += len(small)


def _count_add_scaled(counts, u, v, *args, **kwargs):
    counts["vectors.add_scaled.entries"] += len(u) + len(v)


def _count_charge(counts, meter, entries):
    counts["vectors.budget.entries_charged"] += int(entries)


def _count_eigvalsh(counts, a, *args, **kwargs):
    counts["nrange.eigvalsh.calls"] += 1
    counts["nrange.eigvalsh.matrices"] += int(np.prod(np.shape(a)[:-2], dtype=np.int64))


COUNTERS = {"vectors.inner": _count_inner, "vectors.add_scaled": _count_add_scaled}


def _classes(mod, owner, attr):
    """Classes of ``mod`` whose own ``attr`` a "Class.attr" or "*.attr" path names."""
    if mod is None or not owner:
        return []
    if owner == "*":
        candidates = [c for c in vars(mod).values() if isinstance(c, type) and c.__module__ == mod.__name__]
    else:
        candidates = [getattr(mod, owner, None)]
    return [c for c in candidates if c is not None and attr in c.__dict__]


class _Proxy:
    """Stands in for a module, overriding a few of its names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans and counts of one orbitforge package, kept in memory."""

    def __init__(self, package):
        prefix = package.__name__ + "."
        self._modules = {
            name[len(prefix):]: mod
            for name, mod in sys.modules.items()
            if name.startswith(prefix)
        }
        # every namespace that may hold a copy of a traced function
        self._namespaces = [package, *self._modules.values()]
        self.spans = []  # [name, parent index, start, end]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._paused = 0.0
        self._undo = []

    def now(self):
        """perf_counter minus the time spent counting."""
        return time.perf_counter() - self._paused

    def _count(self, fn, args, kwargs):
        t = time.perf_counter()
        fn(self.counts, *args, **kwargs)
        self._paused += time.perf_counter() - t

    def _span(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self._count(count, args, kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = self.now()
                self._stack.pop()

        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(count, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, orig, wrapper):
        for ns in self._namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    self._set(ns, attr, wrapper)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _find_index_count(self, find_index):
        signature = inspect.signature(find_index)

        def count(counts, *args, **kwargs):
            tol = signature.bind(*args, **kwargs).arguments["tol_turn"]
            if float(tol) < BSGS_TOL_TURN:
                counts["operators.find_index.bsgs_calls"] += 1

        return count

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for mod_name, path, name in SPANS:
            mod = self._modules.get(mod_name)
            owner, _, attr = path.rpartition(".")
            if mod is not None and not owner and hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._patch_function(orig, self._span(name, orig, COUNTERS.get(name)))
                continue
            classes = _classes(mod, owner, attr)
            if not classes:
                self.missing.append(name)
            for cls in classes:
                count = self._find_index_count(cls.find_index) if attr == "find_index" else None
                self._patch_method(cls, attr, lambda f: self._span(name, f, count))

        self._patch_method(
            self._modules["vectors"].BudgetMeter, "charge", lambda f: self._counter(f, _count_charge)
        )
        # nrange reaches eigvalsh through its module global ``np``
        nrange = self._modules["nrange"]
        eigvalsh = self._counter(np.linalg.eigvalsh, _count_eigvalsh)
        self._set(nrange, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigvalsh=eigvalsh)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes):
        """Calls, self time and counts of every layer, per traced pass."""
        duration = [end - start for _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[1] >= 0:
                child[span[1]] += duration[i]
        calls = Counter()
        self_s = defaultdict(float)
        built = defaultdict(float)  # run_check span -> time in its outermost builders
        for i, (name, parent, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += duration[i] - child[i]
            if name in BUILDERS:
                while parent >= 0 and self.spans[parent][0] not in BUILDERS:
                    if self.spans[parent][0] == "harness.run_check":
                        built[parent] += duration[i]
                        break
                    parent = self.spans[parent][1]
        remeasure = sum(
            duration[i] - built[i]
            for i, span in enumerate(self.spans)
            if span[0] == "harness.run_check"
        )
        out = {}
        for _, _, name in SPANS:
            out[name + ".calls"] = calls[name] / passes
            out[name + ".self_s"] = self_s[name] / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        smaller = self.counts["inner.smaller"]
        out["vectors.inner.overlap_ratio"] = self.counts["inner.common"] / smaller if smaller else 0.0
        out["harness.remeasure_s"] = remeasure / passes
        return out
