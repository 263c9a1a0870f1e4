"""In-memory span tracer that wraps qonf functions from outside the package.

Every wrapped call records one span: name, start, end, parent span, job id.
Spans live in flat arrays while the run is going and are written out once,
at the end.  Self time is the span's duration minus the time its child spans
cover; it is accumulated as spans close, so no pass over the spans is needed
to report it.

Wrapping replaces every binding of a target function: the defining module,
each module that re-bound it with ``from .x import y``, and every class
attribute that aliases it (``__radd__ = __add__``).  A call made directly
inside a span of the same name (``__rsub__`` calling ``__add__``, the
module-level ``limit_q_to_1`` calling the method) does not open a second
span, so aliases count once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job_id = -1
        # one row per closed span
        self.span_col = array("q")
        self.name_col = array("i")
        self.parent_col = array("q")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        # per name: calls, inclusive seconds, self seconds
        self.calls: dict[int, int] = {}
        self.total_s: dict[int, float] = {}
        self.self_s: dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[nid] = 0
            self.total_s[nid] = 0.0
            self.self_s[nid] = 0.0
        return nid

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = st
        return st

    def call(self, name: str, fn, args, kwargs):
        st = self._stack()
        if st and st[-1][0] == name:
            return fn(*args, **kwargs)
        nid = self._name_id(name)
        sid = next(self._ids)
        # a pool thread's first span hangs under the main thread's open span
        parent = st[-1] if st else (self._main_stack[-1] if self._main_stack else None)
        frame = [name, sid, 0.0]
        st.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.pop()
            dur = end - start
            with self._lock:
                if parent is not None:
                    parent[2] += dur
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[2]
                self.span_col.append(sid)
                self.name_col.append(nid)
                self.parent_col.append(parent[1] if parent is not None else -1)
                self.job_col.append(self.job_id)
                self.start_col.append(start)
                self.end_col.append(end)

    def wrapper(self, fn, name):
        """``name`` is a string, or a function of the call's arguments that
        returns the span name, or None for a call that is not traced."""
        tracer = self
        if callable(name):
            choose = name

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                n = choose(*args, **kwargs)
                if n is None:
                    return fn(*args, **kwargs)
                return tracer.call(n, fn, args, kwargs)
        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self, targets, package: str = "qonf"):
        """Wrap each target and rebind it wherever the package binds it.

        ``targets`` maps a function object to its span name (or name chooser).
        """
        wrappers = {id(fn): (fn, self.wrapper(fn, name)) for fn, name in targets.items()}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, val, hit[1])
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for cattr, cval in list(vars(val).items()):
                        chit = wrappers.get(id(cval))
                        if chit is not None and chit[0] is cval:
                            self._patch(val, cattr, cval, chit[1])

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict:
        """calls, self seconds and mean inclusive microseconds per call, by name."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = self.calls[nid]
            out[name] = {
                "calls": calls,
                "self_s": self.self_s[nid],
                "us_per_call": self.total_s[nid] / calls * 1e6 if calls else 0.0,
            }
        return out

    def save(self, path, meta: dict):
        """Write the spans as one compressed numpy archive."""
        import json

        import numpy as np

        np.savez_compressed(
            path,
            span=np.frombuffer(self.span_col, dtype=np.int64),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            job=np.frombuffer(self.job_col, dtype=np.int32),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )
