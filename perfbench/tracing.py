"""The traced run: spans around each layer's public entry points.

A :class:`Tracer` patches the functions named in :data:`FUNCTIONS` and
:data:`METHODS` with wrappers that record one span per call: a name, a
start, an end and a parent.  Span stacks are per thread, so the serving
dispatcher's spans never nest under the generator's.  A wrapper records
only the outermost call of its name on a thread (``from_python``,
``to_python`` and ``VectorEvaluator.call_raw`` recurse), and it is
patched into *every* loaded ``repro`` module that binds the wrapped
object, since ``from x import f`` copies the binding.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

#: (module, attribute, span name) of each wrapped function
FUNCTIONS = (
    ("repro.api", "compile_program", "lang.front"),
    ("repro.vcode.compile", "compile_transformed", "vcode.compile"),
    ("repro.analysis.shapes", "analyze_shapes", "analysis.shapes"),
    ("repro.analysis.vlint", "check_program", "analysis.vlint"),
    ("repro.vector.convert", "from_python", "vector.ingest"),
    ("repro.vector.convert", "to_python", "vector.egress"),
    ("repro.vector.ops", "k_seq_index_segshared", "vector.gather"),
    ("repro.vector.batch", "pack_values", "vector.pack"),
    ("repro.vector.batch", "unpack_values", "vector.unpack"),
)

#: (module, class, method, span name) of each wrapped method
METHODS = (
    ("repro.api", "CompiledProgram", "prepare", "transform.vector"),
    ("repro.api", "CompiledProgram", "prepare_native", "transform.native"),
    ("repro.api", "CompiledProgram", "prepare_batched", "transform.batched"),
    ("repro.api", "CompiledProgram", "cost_certificate", "analysis.cost"),
    ("repro.api", "CompiledProgram", "entry_types", "api.entry_types"),
    ("repro.analysis.cost", "CostCertificate", "predict", "analysis.predict"),
    ("repro.vcode.vm", "VM", "call", "vcode.vm"),
    ("repro.vexec.evaluator", "VectorEvaluator", "call_raw", "exec"),
)

#: modules imported before patching, so that every ``from x import f``
#: binding already exists when the wrappers go in (and is restored after)
PRELOAD = ("repro", "repro.api", "repro.serve", "repro.serve.batcher",
           "repro.serve.cache", "repro.vexec.evaluator", "repro.vexec.apply",
           "repro.vcode.vm", "repro.vcode.compile", "repro.vector",
           "repro.vector.batch", "repro.vector.ops", "repro.analysis",
           "repro.analysis.cost", "repro.analysis.report",
           "repro.native.cache", "repro.native.engine",
           "repro.parallel.engine")

DISPATCHER_PREFIX = "repro-serve"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "children_s")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records spans from wrapped entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        #: batch calls made by the serving dispatcher: (span, payload ids)
        self.exec_calls: list[tuple] = []
        #: kernel builds on native cache misses: (span, kernels built)
        self.builds: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _state(self):
        st = self._local.__dict__
        if "stack" not in st:
            st["stack"] = []
            st["active"] = {}
        return st["stack"], st["active"]

    def _open(self, name):
        stack, active = self._state()
        parent = stack[-1] if stack else None
        sp = Span(name, time.perf_counter(), parent,
                  threading.current_thread().name)
        stack.append(sp)
        active[name] = active.get(name, 0) + 1
        self.spans.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        stack, active = self._state()
        stack.pop()
        active[sp.name] -= 1
        if sp.parent is not None:
            sp.parent.children_s += sp.duration

    @contextmanager
    def span(self, name):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def sample(self, kind):
        """One timed sample: a root span ``sample:<kind>``."""
        return self.span("sample:" + kind)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            _stack, active = tracer._state()
            if active.get(name):
                return fn(*args, **kwargs)      # inner recursive call
            sp = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sp)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod in PRELOAD:
            importlib.import_module(mod)
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is orig):
                    self._set(mod, attr, wrapper)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name))
        self._install_serve_exec()
        self._install_build()

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _install_serve_exec(self):
        """``run``/``run_batched`` called from a serving dispatcher thread:
        one span per executed call, with the payload objects it served."""
        from repro.api import CompiledProgram
        tracer = self
        for meth in ("run", "run_batched"):
            orig = CompiledProgram.__dict__[meth]

            def traced(prog, fname, args, *rest, _orig=orig,
                       _batched=(meth == "run_batched"), **kw):
                if not threading.current_thread().name.startswith(
                        DISPATCHER_PREFIX):
                    return _orig(prog, fname, args, *rest, **kw)
                ids = ([id(a[0]) for a in args] if _batched
                       else [id(args[0])] if args else [])
                sp = tracer._open("serve.exec")
                try:
                    return _orig(prog, fname, args, *rest, **kw)
                finally:
                    tracer._close(sp)
                    tracer.exec_calls.append((sp, ids))
            self._set(CompiledProgram, meth, traced)

    def _install_build(self):
        """Native kernel builds: ``KernelCache.get`` calls that missed."""
        from repro.native.cache import KernelCache
        tracer = self
        orig = KernelCache.__dict__["get"]

        def traced(cache, *args, **kw):
            misses = cache.misses
            t = time.perf_counter()
            try:
                return orig(cache, *args, **kw)
            finally:
                built = cache.misses - misses
                if built:     # a miss: record the build as a leaf span
                    stack, _active = tracer._state()
                    sp = Span("native.build", t,
                              stack[-1] if stack else None,
                              threading.current_thread().name)
                    sp.end = time.perf_counter()
                    if sp.parent is not None:
                        sp.parent.children_s += sp.duration
                    tracer.spans.append(sp)
                    tracer.builds.append((sp, built))
        self._set(KernelCache, "get", traced)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one recorded span: a wrapped no-op against the
        bare one, on a scratch tracer."""
        def noop():
            return None
        scratch = Tracer()
        wrapped = scratch._wrap(noop, "noop")
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, time.perf_counter() - t - bare) / calls

    # -- reading -----------------------------------------------------------

    def root(self, sp: Span) -> Span:
        while sp.parent is not None:
            sp = sp.parent
        return sp

    def write(self, path) -> None:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        rows = [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": index.get(id(sp.parent)), "thread": sp.thread}
                for sp in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

