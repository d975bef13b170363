"""In-memory span tracer that wraps sentinel's public functions from outside.

A wrapped function records one span per call: its name, start and end
(CPU time of the thread, thread_time_ns) and the span that was open when
it was called. Spans live in flat arrays until the run ends; self times
are derived from them afterwards. Functions are replaced at every module attribute that binds
them (for example both ``sentinel.ddmodel.predict`` and
``sentinel.identify.predict``), so calls made inside the package are seen
the same way as calls made by a library user.
"""

import importlib
from array import array
from time import thread_time_ns

import numpy as np

LAYERS = ("linalg", "plant", "datamat", "attacks", "ddmodel", "identify", "cli")


def _length(obj) -> int:
    return int(obj.length) if hasattr(obj, "length") else int(np.shape(obj)[-1])


# (layer, function, sample count of one call or None).  The sample count
# feeds the per-sample metrics: it is read from the argument or result
# that carries the time axis.
SPANNED = (
    ("linalg", "numerical_rank", None),
    ("plant", "simulate", lambda args, result: _length(args[2])),
    ("datamat", "generate_pe_input", None),
    ("datamat", "is_persistently_exciting", None),
    ("datamat", "build_subset_matrices", None),
    ("datamat", "load_trajectory", lambda args, result: _length(result)),
    ("datamat", "save_trajectory", lambda args, result: _length(args[0])),
    ("attacks", "apply_attack", lambda args, result: _length(result)),
    ("ddmodel", "rank_condition", None),
    ("ddmodel", "learn_lambda", None),
    ("ddmodel", "predict", None),
    ("ddmodel", "save_learned_model", None),
    ("ddmodel", "load_learned_model", None),
    ("identify", "injection_bootstrap", None),
    ("identify", "injection_step", None),
    ("identify", "identify_replay", None),
    ("identify", "identify_delay", None),
)
# Called so often that a span per call would swamp what it measures: these
# are only counted.
COUNTED = (("linalg", "as_matrix"),)


class Tracer:
    """Span and call-count recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(thread_time_ns())
        return index

    def close(self, index: int, size: int = 0) -> None:
        self.end[index] = thread_time_ns()
        self.size[index] = size
        self._stack.pop()

    def _spanned(self, name, fn, sizer):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                tracer.close(index, sizer(args, result) if sizer and done else 0)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in the sentinel modules."""
        modules = [importlib.import_module("sentinel")] + [
            importlib.import_module(f"sentinel.{layer}") for layer in LAYERS]
        wanted = [(layer, fn, sizer, True) for layer, fn, sizer in SPANNED]
        wanted += [(layer, fn, None, False) for layer, fn in COUNTED]
        for layer, fn_name, sizer, spanned in wanted:
            original = getattr(importlib.import_module(f"sentinel.{layer}"), fn_name)
            name = f"{layer}.{fn_name}"
            wrapper = (self._spanned(name, original, sizer) if spanned
                       else self._counted(name, original))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()


class SpanTable:
    """Columnar view of the recorded spans with derived self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.size = np.frombuffer(tracer.size, dtype=np.int64).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur = (end - start).astype(float) * 1e-9
        child = self.parent >= 0
        covered = np.zeros_like(self.dur)
        np.add.at(covered, self.parent[child], self.dur[child])
        self.self_time = self.dur - covered
        root = np.where(child, self.parent, np.arange(self.parent.size))
        while True:
            up = self.parent[root]
            if not np.any(up >= 0):
                break
            root = np.where(up >= 0, up, root)
        self.root = root

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans called `name`."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def under(self, name: str, root_name: str) -> np.ndarray:
        """Indices of the `name` spans whose outermost span is `root_name`."""
        idx = self.ids(name)
        return idx[np.isin(self.root[idx], self.ids(root_name))]

    def per_root(self, name: str, root_name: str, values=None) -> np.ndarray:
        """Sum of `values` (default: durations) of `name` spans, per `root_name` span."""
        values = self.dur if values is None else values
        roots = self.ids(root_name)
        idx = self.under(name, root_name)
        position = np.searchsorted(roots, self.root[idx])
        return np.bincount(position, weights=values[idx], minlength=roots.size)
