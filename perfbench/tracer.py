"""In-memory span tracer for the su3mag benchmark.

A span is recorded around every call of a wrapped public function: its
name, start, end (``time.perf_counter()``), parent span and run id (the
benchmark pass that caused it).  Spans live in compact arrays while the run
is going and are written out when it ends.  ``Scalar`` multiplication is
only counted: it is called hundreds of thousands of times per build, and a
span per product would cost more than the product.

Waiting time is not recorded: su3mag runs in one thread of one process and
never blocks on a lock, queue or device, so every span is busy time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

NO_PARENT = -1


class Tracer:
    """Span store plus named counters, filled by the wrappers it installs."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counters = {}
        self._open = {}
        self.current_run = 0
        self._stack = [NO_PARENT]
        self._functions = []
        self._methods = []

    # -- recording --------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        idx = len(self.start)
        nid = self._intern(name)
        depth = self._open.get(nid, 0)
        self._open[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run_id.append(self.current_run)
        self.outer.append(depth == 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._open[nid] = depth

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrapping ---------------------------------------------------------

    def wrap_function(self, module, attr, name=None, name_of_call=None,
                      on_result=None):
        """Replace module.attr by a spanning wrapper in every su3mag module.

        A function imported by name (``from .phase import integrate_flow``)
        is bound in several module namespaces; each binding that refers to
        the same object is replaced, so no call path escapes the tracer.
        """
        orig = getattr(module, attr)
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapper = self._spanning(orig, name, name_of_call, on_result)
        _rebind(orig, wrapper)
        self._functions.append((orig, wrapper))
        return wrapper

    def wrap_method(self, cls, attr, name, count_only=False):
        """Replace a method on its class by a spanning or counting wrapper."""
        orig = cls.__dict__[attr]
        if count_only:
            counters = self.counters

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                counters[name] = counters.get(name, 0) + 1
                return orig(*args, **kwargs)
        else:
            wrapper = self._spanning(orig, name, None, None)
        self._methods.append((cls, attr, orig))
        setattr(cls, attr, wrapper)
        return wrapper

    def _spanning(self, orig, name, name_of_call, on_result):
        span = self.span

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name if name_of_call is None else \
                name_of_call(*args, **kwargs)
            out = span(label, orig, *args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out
        return wrapper

    def uninstall(self):
        """Restore every binding the wrappers replaced.

        A module imported after its source was wrapped bound the wrapper
        itself, so every su3mag namespace is searched again.
        """
        for orig, wrapper in reversed(self._functions):
            _rebind(wrapper, orig)
        self._functions.clear()
        for owner, key, orig in reversed(self._methods):
            setattr(owner, key, orig)
        self._methods.clear()

    # -- summaries --------------------------------------------------------

    def arrays(self):
        """The span table as numpy arrays (for aggregation and dumping)."""
        import numpy as np  # not at import: set-up timing includes numpy
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }

    def summary(self):
        return summarize(self.names, self.arrays())

    def dump(self, path):
        """Write every span to a compressed .npz file."""
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def _rebind(old, new):
    """Point every su3mag module binding of ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "su3mag"
                               or mod_name.startswith("su3mag.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def summarize(names, spans, select=None):
    """Per-name calls, inclusive time and self time, in seconds.

    Inclusive time counts a span only when no ancestor has the same name
    (the ``outer`` flag), so recursion is not counted twice.  Self time is
    a span's duration minus the time its direct children cover (children
    of one span never overlap: the program is single-threaded).  ``select``
    restricts the sums to a boolean mask of spans, such as one run id.
    """
    import numpy as np
    nid = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    outer = spans["outer"]
    if select is None:
        select = np.ones(n, dtype=bool)

    out = {}
    for k, name in enumerate(names):
        sel = (nid == k) & select
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel & outer].sum()),
            "self_s": float(self_time[sel].sum()),
        }
    return out


def children_count(names, spans, child, parent_name, select=None):
    """How many spans called child have a direct parent called parent_name."""
    if child not in names or parent_name not in names:
        return 0
    nid = spans["name_id"]
    parent = spans["parent"]
    sel = (nid == names.index(child)) & (parent >= 0)
    if select is not None:
        sel &= select
    return int((nid[parent[sel]] == names.index(parent_name)).sum())
