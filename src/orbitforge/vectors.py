"""Windowed vectors over an integer index set.

A :class:`WindowVector` stores a finitely supported vector on the index set
``Z`` (or a subset of it) as a strictly increasing int64 index array plus a
complex128 value array.  Shift, diagonal and dense operators act on these
exactly: a shift translates the index array, nothing is ever truncated to a
finite box.  Truncating a shift silently turns it into a nilpotent matrix and
falsifies every spectral statement downstream, which is why the lazy
representation is load-bearing and not an optimization.

Inner products are linear in the FIRST slot: ``inner(u, v) = sum u_i *
conj(v_i)``.  All stored arrays are frozen (``writeable=False``).

``inner`` answers disjoint index ranges and equal supports at once;
otherwise it merges the two supports, cut to each other's range, with one
stable in-place sort of their concatenation, a linear two-run merge, and
looks up only the shared indices.  Every Gram and compression matrix goes
through :func:`cross_gram`: a family whose joint index span is at most twice
its largest support is scattered into dense column blocks, one BLAS product
each (a Gram scatters each block once); a sparser family falls back to
pairwise ``inner``.  Every vector sum, two-term ``add_scaled`` included, goes
through :func:`combine`: the terms are added in order into one accumulator
that starts at -0.0, on the joint index span when that is at most twice the
summed support, else on the distinct indices of the same merge ``inner``
uses.  A term goes in one slice per run of consecutive indices, one slice
when it fills a stretch of the merged indices, or one fancy index when its
runs are many and short; every entry gets the same additions in the same
order whichever way, so the sum's bits do not depend on the placement.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    WindowBudgetError,
)

WINDOW_BUDGET_ENV = "ORBITFORGE_WINDOW_BUDGET"
DEFAULT_WINDOW_BUDGET = 50_000_000

# translate() guards against int64 wraparound well before it could happen
_INDEX_LIMIT = np.int64(2) ** 62


def _as_indices(indices):
    try:
        return np.asarray(indices, dtype=np.int64)
    except OverflowError:
        raise DimensionMismatchError("indices must lie strictly within +-2**62") from None


def window_budget(override=None):
    """Resolve the stored-entry budget: explicit override, else env var, else default.

    A budget that is not an integer (``abc``, ``1e6``) or not positive is
    refused with the name of the setting it came from."""
    source, raw = "window_budget", override
    if raw is None:
        source, raw = WINDOW_BUDGET_ENV, os.environ.get(WINDOW_BUDGET_ENV) or DEFAULT_WINDOW_BUDGET
    try:
        budget = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise DegenerateInputError(f"{source} must be an integer, got {raw!r}") from None
    if budget <= 0:
        raise DegenerateInputError(f"{source} must be positive, got {budget}")
    return budget


class BudgetMeter:
    """Counts stored entries across a construction and enforces a hard cap."""

    def __init__(self, limit=None):
        self.limit = window_budget(limit)
        self.used = 0

    def charge(self, entries):
        entries = int(entries)
        if self.used + entries > self.limit:
            raise WindowBudgetError(
                f"construction needs {self.used + entries} stored entries, "
                f"budget is {self.limit}",
                required=self.used + entries,
                budget=self.limit,
            )
        self.used += entries


def _freeze(arr):
    arr.setflags(write=False)
    return arr


class WindowVector:
    """Finitely supported complex vector indexed by integers.

    ``indices`` must be strictly increasing; use :meth:`from_pairs` when the
    input may contain duplicates or be unsorted.  Exact zeros are kept out of
    storage so that superpositions of disjoint windows stay compact; inexact
    small values are never pruned.
    """

    __slots__ = ("indices", "values")

    # keep numpy scalars from absorbing us elementwise: a bare complex128
    # times a WindowVector must dispatch to __rmul__, not np.asarray(self)
    __array_ufunc__ = None

    def __init__(self, indices, values, _checked=False):
        indices = _as_indices(indices)
        values = np.asarray(values, dtype=np.complex128)
        if not _checked:
            if indices.ndim != 1 or values.ndim != 1 or len(indices) != len(values):
                raise DegenerateInputError("indices and values must be 1-d and equal length")
            # before the order check: the int64 difference wraps past 2**62
            if len(indices) and (indices.min() <= -_INDEX_LIMIT or indices.max() >= _INDEX_LIMIT):
                raise DimensionMismatchError("indices must lie strictly within +-2**62")
            if len(indices) > 1 and not np.all(np.diff(indices) > 0):
                raise DegenerateInputError("indices must be strictly increasing")
            keep = values != 0
            if not keep.all():
                indices = indices[keep]
                values = values[keep]
        self.indices = _freeze(indices if indices.flags.owndata else indices.copy())
        self.values = _freeze(values if values.flags.owndata else values.copy())

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(np.empty(0, np.int64), np.empty(0, np.complex128), _checked=True)

    @classmethod
    def basis(cls, index):
        return cls(np.array([index], np.int64), np.array([1.0 + 0j]), _checked=True)

    @classmethod
    def from_pairs(cls, pairs):
        """Build from an iterable of (index, value), summing duplicates."""
        items = list(pairs)
        if not items:
            return cls.zero()
        idx = _as_indices([p[0] for p in items])
        val = np.array([p[1] for p in items], np.complex128)
        order = np.argsort(idx, kind="stable")
        idx, val = idx[order], val[order]
        uniq, start = np.unique(idx, return_index=True)
        summed = np.add.reduceat(val, start)
        return cls(uniq, summed)

    @classmethod
    def from_dense(cls, array, offset=0):
        array = np.asarray(array, np.complex128).ravel()
        idx = np.arange(offset, offset + len(array), dtype=np.int64)
        return cls(idx, array.copy())

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.indices)

    @property
    def nnz(self):
        return len(self.indices)

    def support_range(self):
        """(min_index, max_index) of the support; raises on the zero vector."""
        if len(self.indices) == 0:
            raise DegenerateInputError("zero vector has no support")
        return int(self.indices[0]), int(self.indices[-1])

    def norm(self):
        """sqrt of numpy's pairwise sum of |v_i|^2, whose order is fixed by the
        code; a BLAS dot would add in an order set by the thread count."""
        v = self.values
        return float(np.sqrt(np.sum(v.real * v.real + v.imag * v.imag)))

    def __getitem__(self, index):
        pos = np.searchsorted(self.indices, index)
        if pos < len(self.indices) and self.indices[pos] == index:
            return complex(self.values[pos])
        return 0j

    def to_dense(self, n, offset=0):
        """Dense length-n array; support must sit inside [offset, offset+n)."""
        out = np.zeros(n, np.complex128)
        if len(self.indices):
            lo, hi = self.support_range()
            if lo < offset or hi >= offset + n:
                raise DimensionMismatchError(
                    f"support [{lo}, {hi}] does not fit in [{offset}, {offset + n})"
                )
            out[self.indices - offset] = self.values
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add_scaled(self, other, 1.0, 1.0)

    def __sub__(self, other):
        return add_scaled(self, other, 1.0, -1.0)

    def __mul__(self, scalar):
        if len(self.values) == 0 or scalar == 1:
            return self
        if scalar == 0:  # keep exact zeros out of storage
            return WindowVector.zero()
        return WindowVector(self.indices, self.values * scalar, _checked=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def __neg__(self):
        return self * (-1.0)

    def translate(self, k):
        """Shift every index by k (exact; the value array is shared)."""
        if len(self.indices) == 0 or k == 0:
            return self
        if abs(int(self.indices[0]) + k) >= _INDEX_LIMIT or abs(int(self.indices[-1]) + k) >= _INDEX_LIMIT:
            raise DimensionMismatchError("index translation would overflow the index set")
        return WindowVector(self.indices + np.int64(k), self.values, _checked=True)

    def restrict(self, keep_mask_fn):
        """Keep only indices where keep_mask_fn(indices) is True (vectorized)."""
        mask = keep_mask_fn(self.indices)
        return WindowVector(self.indices[mask], self.values[mask], _checked=True)

    def scale_by(self, factor_fn):
        """Multiply each value by factor_fn(indices) (vectorized, exact length).

        Exact zeros are dropped; when none are, the index array is shared.
        """
        values = self.values * np.asarray(factor_fn(self.indices), np.complex128)
        keep = values != 0
        if keep.all():
            return WindowVector(self.indices, values, _checked=True)
        return WindowVector(self.indices[keep], values[keep], _checked=True)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WindowVector):
            return NotImplemented
        return (
            len(self) == len(other)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.indices.tobytes(), self.values.tobytes()))

    def __repr__(self):
        if len(self) == 0:
            return "WindowVector(zero)"
        lo, hi = self.support_range()
        return f"WindowVector({len(self)} entries on [{lo}, {hi}], norm={self.norm():.6g})"

    # -- serialization ----------------------------------------------------

    def to_entries(self):
        return [
            [int(i), float(v.real), float(v.imag)]
            for i, v in zip(self.indices, self.values)
        ]

    @classmethod
    def from_entries(cls, entries):
        return cls.from_pairs((int(i), complex(re, im)) for i, re, im in entries)


def add_scaled(u, v, alpha, beta):
    """alpha*u + beta*v: the two-term :func:`combine`."""
    return combine(((alpha, u), (beta, v)))


def combine(terms):
    """sum_k c_k v_k over an iterable of (c_k, v_k) pairs, in order.

    A lone nonzero term is ``c * v`` (``v`` itself when c == 1).  Otherwise
    every term, times its coefficient (1 included: x*(1+0j) may turn a -0.0
    component into +0.0, and the two-term merge always multiplied), is added
    in order into one accumulator that starts at -0.0, so an entry written
    by one term keeps that term's bits.  The accumulator's coordinates are the joint index
    span when that is at most twice the summed support, else the distinct
    indices of the merged supports.  Either way exact zeros are dropped.

    Each term is added by :func:`_placements`: one slice per run of
    consecutive indices (a term that fills a stretch of the merged indices
    is one slice), or one fancy index for a term whose runs average fewer
    than ``_RUN_SLICE_MIN`` entries.  Every entry gets the same additions in
    the same order either way, so the placement never changes a bit.
    """
    terms = [(c, v) for c, v in terms if len(v)]
    if not terms:
        return WindowVector.zero()
    if len(terms) == 1:
        out = terms[0][1] * terms[0][0]
        nonzero = out.values != 0
        return out if nonzero.all() else out.restrict(lambda idx: nonzero)
    # Python ints: indices reach +-2^62, so the span may not fit in int64
    lo = min(int(v.indices[0]) for _, v in terms)
    span = max(int(v.indices[-1]) for _, v in terms) - lo + 1
    keys = None
    if span > 2 * sum(len(v) for _, v in terms):
        merged = _merged([v.indices for _, v in terms])
        keys = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    acc = np.full(span if keys is None else len(keys), complex(-0.0, -0.0))
    for c, v in terms:
        scaled = v.values * c
        for slot, part in _placements(v.indices, lo, keys):
            acc[slot] += scaled[part]
        # drop this copy before the next term's: two alive raise peak memory
        del scaled
    # nonzero on the bool mask: np.flatnonzero of a complex array is ~5x slower
    keep = np.flatnonzero(acc != 0)
    indices = keep + np.int64(lo) if keys is None else keys[keep]
    return WindowVector(indices, acc[keep], _checked=True)


# a slice add pays about a microsecond of call overhead and a fancy index up
# to tens of nanoseconds per entry: runs of a few hundred entries break even
_RUN_SLICE_MIN = 256


def _placements(indices, lo, keys):
    """Where one term of :func:`combine` lands in its accumulator.

    A list of (accumulator slot, slice of the term's entries) pairs; the
    accumulator is the span from ``lo``, or the distinct ``keys`` when given.
    """
    n = len(indices)
    if keys is not None:
        first = int(np.searchsorted(keys, indices[0]))
        # the term's indices are distinct keys, so they fill keys[first:first + n]
        # exactly when its last index sits at the end of that stretch
        if keys[first + n - 1] == indices[-1]:
            return [(slice(first, first + n), slice(None))]
        return [(np.searchsorted(keys, indices), slice(None))]
    edges = [0, n]
    if int(indices[-1]) - int(indices[0]) + 1 != n:
        breaks = np.flatnonzero(np.diff(indices) != 1) + 1
        if (len(breaks) + 1) * _RUN_SLICE_MIN > n:
            return [(indices - np.int64(lo), slice(None))]
        edges = [0, *breaks.tolist(), n]
    return [
        (slice(int(indices[a]) - lo, int(indices[a]) - lo + b - a), slice(a, b))
        for a, b in zip(edges, edges[1:])
    ]


def _merged(supports):
    """The concatenated index arrays, sorted in place so equal indices meet.

    A sorted copy would hold a second full-size array; numpy's stable sort,
    timsort for int64, finds the ascending runs of sorted supports and merges
    them in linear passes."""
    merged = np.concatenate(supports)
    merged.sort(kind="stable")
    return merged


def _shared(a, b):
    """Ascending positions (in a, in b) of the indices two sorted arrays share.

    A shared index shows up as two equal neighbours of their merge; only the
    shared indices are then looked up in each array."""
    merged = _merged([a, b])
    common = merged[np.flatnonzero(merged[1:] == merged[:-1])]
    return np.searchsorted(a, common), np.searchsorted(b, common)


def inner(u, v):
    """<u, v> = sum_i u_i * conj(v_i)  (linear in the first slot).

    Disjoint index ranges give 0j at once and equal supports one direct sum.
    Otherwise each support is cut to the other's index range before the
    merge of :func:`_shared`.  Terms are summed in increasing index order.
    """
    a, b = u.indices, v.indices
    if len(a) == 0 or len(b) == 0 or a[-1] < b[0] or b[-1] < a[0]:
        return 0j
    if a is b or (
        len(a) == len(b) and a[0] == b[0] and a[-1] == b[-1] and np.array_equal(a, b)
    ):
        return complex(np.sum(u.values * np.conj(v.values)))
    cut_a = slice(np.searchsorted(a, b[0]), np.searchsorted(a, b[-1], "right"))
    cut_b = slice(np.searchsorted(b, a[0]), np.searchsorted(b, a[-1], "right"))
    sel_a, sel_b = _shared(a[cut_a], b[cut_b])
    return complex(np.sum(u.values[cut_a][sel_a] * np.conj(v.values[cut_b][sel_b])))


# entries per dense block of cross_gram (4 MB): 2^14 columns for 16 rows
_BLOCK_ENTRIES = 1 << 18


def _dense_block(vectors, lo, width):
    """Rows of ``vectors`` restricted to the columns [lo, lo + width)."""
    block = np.zeros((len(vectors), width), np.complex128)
    for row, v in zip(block, vectors):
        start, stop = np.searchsorted(v.indices, (lo, lo + width))
        row[v.indices[start:stop] - lo] = v.values[start:stop]
    return block


def cross_gram(us, vs):
    """G[i, j] = <u_i, v_j> for two finite families.

    When the joint index span is at most twice the largest support the
    vectors are scattered into dense blocks of a few MB each, the right block
    conjugated in place, and G accumulates one BLAS product per block; when
    both families are one object (as :func:`gram` passes them) each block is
    scattered once and its conjugate is the right block.  Otherwise G is
    filled with pairwise :func:`inner`.
    """
    same = us is vs
    us = list(us)
    vs = us if same else list(vs)
    out = np.zeros((len(us), len(vs)), np.complex128)
    supports = [v.indices for v in us + vs if len(v)]
    if not supports:
        return out
    # Python ints: indices reach +-2^62, so the span may not fit in int64
    lo = min(int(idx[0]) for idx in supports)
    span = max(int(idx[-1]) for idx in supports) - lo + 1
    if span <= 2 * max(map(len, supports)):
        step = max(1, _BLOCK_ENTRIES // max(len(us), len(vs)))
        for start in range(lo, lo + span, step):
            width = min(step, lo + span - start)
            left = _dense_block(us, start, width)
            right = left if same else _dense_block(vs, start, width)
            # conjugated in place unless it is the left block; .T is a view
            # BLAS reads as a transpose
            out += left @ np.conj(right, out=None if same else right).T
        return out
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            out[i, j] = inner(u, v)
    return out


def gram(vectors):
    """Gram matrix G[i, j] = <v_i, v_j> of a finite family."""
    vectors = list(vectors)
    return cross_gram(vectors, vectors)


def normalize(v):
    n = v.norm()
    if n == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector")
    return v * (1.0 / n)


def vector_to_json(v, kind="raw", params=None):
    return {"kind": kind, "params": dict(params or {}), "entries": v.to_entries()}


def vector_from_json(obj):
    try:
        entries = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise DegenerateInputError(f"not a vector object: {exc}") from exc
    return WindowVector.from_entries(entries)
