"""Layer spans recorded from outside flowinv by wrapping its functions.

``Tracer.install()`` replaces each traced function in every flowinv
namespace that holds it, including the names one module imports from
another (``check_pair`` as seen by ``enumeration``), so each binding gets
its own wrapper and its own counts.  A wrapper records one span per call
(name, start, end, parent span) in flat arrays kept in memory.  A
generator function gets one span per ``next``.  The benchmark's own code
can open spans too (``Tracer.region``).

``layer_metrics()`` turns the spans into the per-layer metrics: self
time (a span's duration minus the part covered by its child spans), call
counts, and sizes taken from arguments and results.  A traced name that
no longer exists is listed in ``Tracer.absent`` and the metrics built on
it come out as None, instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

# (module, qualified name, optional size hook) of every traced function.
# The hook maps (args, result) to a number summed into a size counter.
TRACED = (
    ("model_io", "parse_model", lambda args, result: len(args[0])),
    ("model_io", "serialize_model", None),
    ("graph", "validate_pair", None),
    ("graph", "check_pair", None),
    ("graph", "assembly_components", None),
    ("diagram", "trace_faces", None),
    ("diagram", "faces_by_component", None),
    ("isomorphism", "canonical_form", None),
    ("isomorphism", "_canonical_blob", None),
    ("isomorphism", "canonical_diagram", None),
    ("isomorphism", "_CanonicalEngine.refine", None),
    ("isomorphism", "_CanonicalEngine.serialize", None),
    ("isomorphism", "pair_isomorphic", None),
    ("enumeration", "enumerate_diagrams", None),
    ("enumeration", "enumerate_pairs", None),
    ("reconstruction", "reconstruct", None),
    ("reconstruction", "realize_multigraph", None),
    ("multigraph", "Multigraph.from_poset", None),
    ("multigraph", "multigraph_isomorphic", None),
    ("topology", "alexandroff_space", lambda args, result: len(result.opens)),
    ("topology", "specialization_order", None),
    ("topology", "separation_axioms", None),
)

# Modules whose lru caches are counted as one layer's cache entries.
CACHE_LAYERS = ("diagram", "isomorphism")

PACKAGE = "flowinv"
CONSUMER_REGION = "bench.enum_consumer"


class _Stats:
    """Aggregated spans of one traced binding: calls, self seconds, sizes."""

    __slots__ = ("calls", "self_s", "size")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.size = 0


class Tracer:
    def __init__(self):
        self.keys = []          # span kind -> (home module, name, seen by)
        self.kind = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.stack = []
        self.absent = []
        self.caches = {}        # layer -> list of lru-cached functions
        self.regions = {}       # region name -> span kind
        self.stopped_at = None
        self.cache_entries = {}

    # -- recording ---------------------------------------------------------

    def _kind(self, key) -> int:
        self.keys.append(key)
        return len(self.keys) - 1

    def _open(self, kind: int) -> int:
        sid = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.size.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, kind: int, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = self._open(kind)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    self.size[sid] = 1  # one item came out of this span
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.size[sid] = hook(args, result)
            return result
        return traced

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself around calls into flowinv."""
        if name not in self.regions:
            self.regions[name] = self._kind(("bench", name, "bench"))
        sid = self._open(self.regions[name])
        try:
            yield
        finally:
            self._close(sid)

    def reset(self) -> None:
        """Forget spans recorded so far (input generation, for instance)."""
        for buf in (self.kind, self.parent, self.start, self.end, self.size):
            del buf[:]
        self.stack.clear()
        self.stopped_at = None

    def stop(self) -> None:
        """Mark the end of the timed phase; later spans are not reported."""
        self.stopped_at = len(self.kind)
        self.cache_entries = {
            layer: sum(f.cache_info().currsize for f in funcs)
            for layer, funcs in self.caches.items()
        }

    # -- installation ------------------------------------------------------

    def install(self, *extra_namespaces) -> None:
        """Wrap every function of ``TRACED`` wherever flowinv binds it.

        ``extra_namespaces`` are further modules (the benchmark's own)
        whose imported flowinv names are wrapped as well.
        """
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None
        ] + list(extra_namespaces)
        for home, qualname, hook in TRACED:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{home}")
            except ImportError:
                self.absent.append(f"{home}.{qualname}")
                continue
            if "." in qualname:
                self._install_method(mod, home, qualname, hook)
                continue
            fn = getattr(mod, qualname, None)
            if fn is None:
                self.absent.append(f"{home}.{qualname}")
                continue
            for where in modules:
                seen_by = where.__name__.rpartition(".")[2]
                for attr, value in list(vars(where).items()):
                    if value is fn:
                        kind = self._kind((home, qualname, seen_by))
                        setattr(where, attr, self._wrap(fn, kind, hook))
        for layer in CACHE_LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            self.caches[layer] = [
                value for value in vars(mod).values()
                if hasattr(value, "cache_info")
                and value.__module__ == mod.__name__
            ] if mod is not None else []

    def _install_method(self, mod, home, qualname, hook) -> None:
        cls_name, meth = qualname.split(".")
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            self.absent.append(f"{home}.{qualname}")
            return
        kind = self._kind((home, qualname, home))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(raw.__func__, kind, hook)))
        else:
            setattr(cls, meth, self._wrap(raw, kind, hook))

    # -- aggregation -------------------------------------------------------

    def stats(self) -> dict:
        """(home, name, seen by) -> _Stats over the spans of the timed phase."""
        n = self.stopped_at if self.stopped_at is not None else len(self.kind)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {key: _Stats() for key in self.keys}
        for sid in range(n):
            st = out[self.keys[self.kind[sid]]]
            dur = self.end[sid] - self.start[sid]
            st.calls += 1
            st.self_s += dur - child[sid]
            st.size += self.size[sid]
        return out

    def region_children(self, region: str, home: str, name: str) -> float:
        """Seconds spent in ``home.name`` called directly inside ``region``."""
        n = self.stopped_at if self.stopped_at is not None else len(self.kind)
        kind = self.regions.get(region)
        total = 0.0
        for sid in range(n):
            p = self.parent[sid]
            key = self.keys[self.kind[sid]]
            if p >= 0 and self.kind[p] == kind and key[:2] == (home, name):
                total += self.end[sid] - self.start[sid]
        return total


def _sum(stats: dict, home: str, names, field: str, seen_by=None):
    """Sum a field over traced names; None when none of them is traced."""
    total, found = 0, False
    for (h, name, by), st in stats.items():
        if h == home and name in names and (seen_by is None or by == seen_by):
            total += getattr(st, field)
            found = True
    return total if found else None


def _int(count):
    return None if count is None else int(count)


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of one traced repetition: name -> value or None."""
    st = tracer.stats()
    canon = ("canonical_form", "_canonical_blob", "canonical_diagram",
             "_CanonicalEngine.refine", "_CanonicalEngine.serialize")
    parse_s = _sum(st, "model_io", ("parse_model",), "self_s")
    parse_chars = _sum(st, "model_io", ("parse_model",), "size")
    validate_calls = _sum(st, "graph", ("validate_pair",), "calls")
    offered = _sum(st, "graph", ("check_pair",), "calls", "enumeration")
    blobs = _sum(st, "isomorphism", ("_canonical_blob",), "calls", "enumeration")
    classes = _sum(st, "enumeration", ("enumerate_pairs",), "size")
    caches = tracer.cache_entries
    consumer = tracer.region_children(CONSUMER_REGION, "isomorphism",
                                      "canonical_form")
    return {
        "model_io.parse_calls": _sum(st, "model_io", ("parse_model",), "calls"),
        "model_io.parse_ms": _ms(parse_s),
        "model_io.parse_kb_per_s": (
            None if parse_s is None
            else parse_chars / 1e3 / parse_s if parse_s else 0.0),
        "model_io.serialize_ms": _ms(
            _sum(st, "model_io", ("serialize_model",), "self_s")),
        "graph.validate_calls": validate_calls,
        "graph.validate_calls_per_op": _ratio(validate_calls, ops),
        "graph.validate_ms": _ms(
            _sum(st, "graph", ("validate_pair", "check_pair"), "self_s")),
        "graph.assembly_ms": _ms(
            _sum(st, "graph", ("assembly_components",), "self_s")),
        "diagram.faces_calls": _sum(
            st, "diagram", ("faces_by_component",), "calls"),
        "diagram.faces_ms": _ms(
            _sum(st, "diagram", ("trace_faces", "faces_by_component"), "self_s")),
        "diagram.cache_entries": caches.get("diagram"),
        "isomorphism.canon_calls": _sum(
            st, "isomorphism", ("canonical_form",), "calls"),
        "isomorphism.canon_ms": _ms(_sum(st, "isomorphism", canon, "self_s")),
        "isomorphism.search_nodes": _sum(
            st, "isomorphism", ("_CanonicalEngine.refine",), "calls"),
        "isomorphism.search_leaves": _sum(
            st, "isomorphism", ("_CanonicalEngine.serialize",), "calls"),
        "isomorphism.iso_calls": _sum(
            st, "isomorphism", ("pair_isomorphic",), "calls"),
        "isomorphism.iso_ms": _ms(
            _sum(st, "isomorphism", ("pair_isomorphic",), "self_s")),
        "isomorphism.cache_entries": caches.get("isomorphism"),
        "enumeration.diagrams_ms": _ms(
            _sum(st, "enumeration", ("enumerate_diagrams",), "self_s")),
        "enumeration.candidates_offered": offered,
        "enumeration.disconnected": (
            None if offered is None or blobs is None else offered - blobs),
        "enumeration.duplicates": (
            None if blobs is None or classes is None else _int(blobs - classes)),
        "enumeration.classes": _int(classes),
        "enumeration.kept_ratio": _ratio(classes, offered),
        "enumeration.consumer_canon_ms": consumer * 1e3,
        "reconstruction.reconstruct_ms": _ms(
            _sum(st, "reconstruction", ("reconstruct",), "self_s")),
        "reconstruction.realize_ms": _ms(
            _sum(st, "reconstruction", ("realize_multigraph",), "self_s")),
        "multigraph.from_poset_ms": _ms(
            _sum(st, "multigraph", ("Multigraph.from_poset",), "self_s")),
        "multigraph.iso_ms": _ms(
            _sum(st, "multigraph", ("multigraph_isomorphic",), "self_s")),
        "topology.alexandroff_ms": _ms(
            _sum(st, "topology", ("alexandroff_space",), "self_s")),
        "topology.opens_built": _int(_sum(
            st, "topology", ("alexandroff_space",), "size")),
        "topology.specialization_ms": _ms(
            _sum(st, "topology", ("specialization_order",), "self_s")),
        "topology.separation_ms": _ms(
            _sum(st, "topology", ("separation_axioms",), "self_s")),
    }
