"""Outside-in per-layer tracing of the hypersachs layers.

`Tracer.install` wraps each layer's public functions at every module attribute
of the ``hypersachs`` package that binds them (``canonical_form`` is bound in
``canon``, ``veblen_enum``, ``rooting``, ``traces`` and the package root, and
each binding is wrapped), so calls made inside a module are seen as well.  A
target that no longer exists is skipped, and the metrics derived from it are
left out of the report.

Each wrapped call records a span (id, parent id, job id, name, start, end) in
memory; spans are written out once, when the pass ends.  A layer's self time
is the duration of its spans minus the time their child spans cover.  The
hypergraph predicates and ``MultiHypergraph.build`` are far hotter than the
layers above them, so they are only counted, and their time stays in the
caller's self time.

Everything runs in one thread, so no layer ever waits on another: there is no
wait metric, only busy (self) time and work counts.
"""

from __future__ import annotations

import importlib
import sys
import time
from math import comb

# (layer, module, function) for every wrapped target that records spans
SPAN_TARGETS = (
    ("canon", "canon", "canonical_form"),
    ("canon", "canon", "automorphisms"),
    ("veblen_enum.host", "veblen_enum", "connected_infragraph_classes"),
    ("veblen_enum.host", "veblen_enum", "count_infragraph"),
    ("veblen_enum.free", "veblen_enum", "enumerate_connected_veblen"),
    ("veblen_enum.free", "veblen_enum", "count_all_veblen"),
    ("rooting", "rooting", "assoc_coeff"),
    ("rooting", "rooting", "assoc_coeff_connected"),
    ("rooting", "rooting", "euler_orientations"),
    ("digraph", "digraph", "arborescence_count"),
    ("digraph", "digraph", "is_eulerian"),
    ("digraph", "digraph", "euler_circuit_count"),
    ("linalg", "linalg", "bareiss_det"),
    ("linalg", "linalg", "charpoly_int"),
    ("traces", "traces", "codegree_coefficients"),
    ("traces", "traces", "trace_d"),
    ("traces", "traces", "trace_bruteforce"),
    ("simplex", "simplex", "simplex_Ck"),
    ("classical", "classical", "charpoly_graph"),
    ("formats", "formats", "parse_document"),
    ("formats", "formats", "emit_table"),
)

# (layer, module, function) for targets that are only counted
COUNT_TARGETS = (
    ("hypergraph", "hypergraph", "components"),
    ("hypergraph", "hypergraph", "is_connected"),
)

# module memos read at the end of a pass: metric -> [(module, attribute)]
CACHES = {
    "cache.canon.entries": [("canon", "_aut_memo")],
    "cache.rooting.entries": [("rooting", "_coeff_memo")],
    "cache.veblen_enum.entries": [("veblen_enum", "_infra_memo"), ("veblen_enum", "_free_memo")],
}

LAYERS = (
    "canon", "veblen_enum.host", "veblen_enum.free", "rooting", "digraph",
    "linalg", "traces", "simplex", "classical", "hypergraph", "formats",
)

# per-layer metric -> unit; the traced report lists exactly these
PER_LAYER = {
    "canon.calls": "count",
    "canon.self_s": "s",
    "canon.max_call_s": "s",
    "canon.aut_calls": "count",
    "canon.calls_per_class": "ratio",
    "veblen_enum.host.calls": "count",
    "veblen_enum.host.self_s": "s",
    "veblen_enum.host.veblen_vectors": "count",
    "veblen_enum.host.connected_vectors": "count",
    "veblen_enum.host.useful_ratio": "ratio",
    "veblen_enum.host.compositions_computed": "count",
    "veblen_enum.free.calls": "count",
    "veblen_enum.free.self_s": "s",
    "veblen_enum.free.sequences": "count",
    "veblen_enum.free.classes": "count",
    "rooting.weight_calls": "count",
    "rooting.orientations": "count",
    "rooting.self_s": "s",
    "rooting.weights_per_class": "ratio",
    "digraph.arborescence_calls": "count",
    "digraph.self_s": "s",
    "linalg.det_calls": "count",
    "linalg.charpoly_calls": "count",
    "linalg.self_s": "s",
    "traces.assembly_self_s": "s",
    "traces.trace_calls": "count",
    "traces.walk_s": "s",
    "traces.walk_space_computed": "count",
    "simplex.calls": "count",
    "simplex.self_s": "s",
    "classical.charpoly_s": "s",
    "hypergraph.components_calls": "count",
    "hypergraph.is_connected_calls": "count",
    "formats.parse_s": "s",
    "formats.emit_s": "s",
    **{name: "count" for name in CACHES},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bindings(fn):
    """(module, attribute) pairs of the hypersachs package bound to fn."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hypersachs" or mod_name.startswith("hypersachs.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Tracer:
    """Span recorder for one pass.  `job` is set by the caller before each
    job so that spans carry the job id."""

    def __init__(self):
        self.job = ""
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end)
        self.calls: dict[str, int] = {}  # calls of the counted targets
        self.errors: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.present: set[str] = set()  # "module.function" targets found
        self.build_in_host_scan = 0
        self.code_set: set = set()
        self.free_sequences = 0
        self.host_keys: set = set()
        self.connected_vectors = 0
        self.compositions = 0
        self.free_keys: set = set()
        self.free_classes = 0
        self.orientations = 0
        self.walk_space = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, mod_name, fn_name in SPAN_TARGETS + COUNT_TARGETS:
            try:
                mod = importlib.import_module(f"hypersachs.{mod_name}")
            except ImportError:
                continue
            fn = getattr(mod, fn_name, None)
            if not callable(fn):
                continue
            spanned = (layer, mod_name, fn_name) in SPAN_TARGETS
            wrapper = self._span_wrapper(layer, fn_name, fn) if spanned else self._count_wrapper(layer, fn_name, fn)
            for owner, attr in _bindings(fn):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            self.present.add(f"{mod_name}.{fn_name}")
        self._wrap_build()

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap_build(self) -> None:
        """Count MultiHypergraph.build calls made directly by a host-relative
        enumeration span: one per Veblen multiplicity vector it builds."""
        try:
            cls = importlib.import_module("hypersachs.hypergraph").MultiHypergraph
            build = cls.__dict__["build"]
        except (ImportError, AttributeError, KeyError):
            return
        inner = build.__func__
        stack = self._stack

        def build_wrapper(klass, *args, **kwargs):
            if stack and stack[-1][1] == "connected_infragraph_classes":
                self.build_in_host_scan += 1
            return inner(klass, *args, **kwargs)

        self._restore.append((cls, "build", build))
        cls.build = classmethod(build_wrapper)
        self.present.add("hypergraph.MultiHypergraph.build")

    def _count_wrapper(self, layer, name, fn):
        """Counts calls without a span; the frame pushed on the stack keeps
        the builds made inside `components` out of the host-scan count."""
        calls = self.calls
        calls[name] = 0
        stack = self._stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append((stack[-1][0] if stack else 0, name))
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                stack.pop()

        return wrapper

    def _span_wrapper(self, layer, name, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        on_return = getattr(self, f"_after_{name}", None)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end))
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    # -- work counters taken from arguments and results -------------------

    def _after_canonical_form(self, code, args, kwargs):
        self.code_set.add(code)
        if self._stack and self._stack[-1][1] == "enumerate_connected_veblen":
            self.free_sequences += 1

    def _after_connected_infragraph_classes(self, records, args, kwargs):
        host, d = _arg(args, kwargs, 0, "host"), _arg(args, kwargs, 1, "d")
        if (host, d) in self.host_keys or d <= 0:
            return
        self.host_keys.add((host, d))
        edges = len(host.edges)
        if edges:
            self.compositions += comb(d + edges - 1, edges - 1)
        self.connected_vectors += sum(r.labeled_count or 0 for r in records)

    def _after_enumerate_connected_veblen(self, records, args, kwargs):
        key = (_arg(args, kwargs, 0, "k"), _arg(args, kwargs, 1, "d"))
        if key not in self.free_keys:
            self.free_keys.add(key)
            self.free_classes += len(records)

    def _after_euler_orientations(self, orientations, args, kwargs):
        self.orientations += len(orientations)

    def _after_trace_bruteforce(self, value, args, kwargs):
        host, d = _arg(args, kwargs, 0, "host"), _arg(args, kwargs, 1, "d")
        self.walk_space += len(host.non_isolated) ** (d * (host.k - 1))

    # -- reduction --------------------------------------------------------

    def span_stats(self) -> dict[str, dict]:
        """Per span name: count, total (inclusive) time, self time, max."""
        child_time: dict[int, float] = {}
        for sid, parent, _job, _name, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _parent, _job, name, start, end in self.spans:
            dur = end - start
            s = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0})
            s["count"] += 1
            s["total"] += dur
            s["self"] += dur - child_time.get(sid, 0.0)
            s["max"] = max(s["max"], dur)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass; metrics whose target is missing
        are left out."""
        st = self.span_stats()
        zero = {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0}

        def get(name):
            return st.get(name, zero)

        def has(*targets):
            return all(t in self.present for t in targets)

        def self_of(layer):
            return sum(get(n)["self"] for lay, _m, n in SPAN_TARGETS if lay == layer)

        m: dict[str, float] = {}
        if has("canon.canonical_form", "canon.automorphisms"):
            canon_calls = get("canonical_form")["count"] + get("automorphisms")["count"]
            m["canon.calls"] = canon_calls
            m["canon.self_s"] = self_of("canon")
            m["canon.max_call_s"] = max(get("canonical_form")["max"], get("automorphisms")["max"])
            m["canon.aut_calls"] = get("automorphisms")["count"]
            m["canon.calls_per_class"] = canon_calls / max(1, len(self.code_set))
        if has("veblen_enum.connected_infragraph_classes"):
            m["veblen_enum.host.calls"] = get("connected_infragraph_classes")["count"] + get("count_infragraph")["count"]
            m["veblen_enum.host.self_s"] = self_of("veblen_enum.host")
            m["veblen_enum.host.connected_vectors"] = self.connected_vectors
            m["veblen_enum.host.compositions_computed"] = self.compositions
            if "hypergraph.MultiHypergraph.build" in self.present:
                m["veblen_enum.host.veblen_vectors"] = self.build_in_host_scan
                m["veblen_enum.host.useful_ratio"] = self.connected_vectors / max(1, self.build_in_host_scan)
        if has("veblen_enum.enumerate_connected_veblen"):
            m["veblen_enum.free.calls"] = get("enumerate_connected_veblen")["count"] + get("count_all_veblen")["count"]
            m["veblen_enum.free.self_s"] = self_of("veblen_enum.free")
            m["veblen_enum.free.sequences"] = self.free_sequences
            m["veblen_enum.free.classes"] = self.free_classes
        if has("rooting.assoc_coeff_connected", "rooting.euler_orientations"):
            weights = get("assoc_coeff_connected")["count"]
            m["rooting.weight_calls"] = weights
            m["rooting.orientations"] = self.orientations
            m["rooting.self_s"] = self_of("rooting")
            m["rooting.weights_per_class"] = weights / max(1, len(self.code_set))
        if has("digraph.arborescence_count"):
            m["digraph.arborescence_calls"] = get("arborescence_count")["count"]
            m["digraph.self_s"] = self_of("digraph")
        if has("linalg.bareiss_det", "linalg.charpoly_int"):
            m["linalg.det_calls"] = get("bareiss_det")["count"]
            m["linalg.charpoly_calls"] = get("charpoly_int")["count"]
            m["linalg.self_s"] = self_of("linalg")
        if has("traces.codegree_coefficients", "traces.trace_d", "traces.trace_bruteforce"):
            m["traces.assembly_self_s"] = get("codegree_coefficients")["self"] + get("trace_d")["self"]
            m["traces.trace_calls"] = get("trace_d")["count"]
            m["traces.walk_s"] = get("trace_bruteforce")["total"]
            m["traces.walk_space_computed"] = self.walk_space
        if has("simplex.simplex_Ck"):
            m["simplex.calls"] = get("simplex_Ck")["count"]
            m["simplex.self_s"] = self_of("simplex")
        if has("classical.charpoly_graph"):
            m["classical.charpoly_s"] = get("charpoly_graph")["total"]
        if has("hypergraph.components", "hypergraph.is_connected"):
            m["hypergraph.components_calls"] = self.calls["components"]
            m["hypergraph.is_connected_calls"] = self.calls["is_connected"]
        if has("formats.parse_document", "formats.emit_table"):
            m["formats.parse_s"] = get("parse_document")["total"]
            m["formats.emit_s"] = get("emit_table")["total"]
        for metric, sources in CACHES.items():
            sizes = []
            for mod_name, attr in sources:
                memo = getattr(sys.modules.get(f"hypersachs.{mod_name}"), attr, None)
                if isinstance(memo, dict):
                    sizes.append(len(memo))
            if sizes:
                m[metric] = sum(sizes)
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, job, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\n")
