"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a wrapped public function: a name, a start, an end
and the span that was open when it began.  The tracer keeps the raw spans in
memory (up to a cap, beyond which only aggregates are kept) and aggregates
per name as each span closes:

* calls   -- number of spans,
* total   -- inclusive time, counted only for the outermost span of a name
             so that recursion (e.g. ``fluid.mean_field`` on a list of
             ensembles) is not counted twice,
* self    -- span time minus the time covered by its child spans.

Counters carry the numbers that hooks read off arguments and results
(integration steps, excluded cells, bytes written, minor page faults).

Wrapping replaces a function at every place its callers look it up: module
attributes that refer to the same object (``from .dynamics import
push_lorentz`` in ``analysis`` binds a second name), class attributes for
methods, and explicit dict entries.  ``Tracer.restore`` puts every original
object back.
"""

import functools
import json
import resource
import time
from collections import defaultdict

_clock = time.perf_counter
#: Raw spans kept in memory; beyond this only the aggregates are kept.
MAX_SPANS = 100_000


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans = []                  # (id, name, start, end, parent id)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pairs = defaultdict(int)    # (parent name, name) -> spans
        self.counters = defaultdict(float)
        self._stack = []                 # [id, name, start, child time]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []               # undo callables, oldest first

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        self._depth[name] += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def _close(self):
        end = _clock()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self._depth[name] == 0:
            self.total[name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pid, pname = parent[0], parent[1]
        else:
            pid, pname = None, None
        self.pairs[(pname, name)] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, pid))
        else:
            self.dropped += 1

    def clear_stats(self):
        """Forget aggregates and counters (raw spans are kept for the file)."""
        for d in (self.calls, self.total, self.self_time, self.pairs,
                  self.counters):
            d.clear()

    def wrapper(self, fn, name, hook=None, faults=False):
        """fn wrapped in a span; hook(result, args, kwargs) -> {counter: v}."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            f0 = _minflt() if faults else 0
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if faults:
                tracer.counters[name + ".minflt"] += _minflt() - f0
            if hook is not None:
                for key, value in hook(result, args, kwargs).items():
                    tracer.counters[f"{name}.{key}"] += value
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
            self._patches.append((lambda o=owner, k=key, v=original:
                                  o.__setitem__(k, v)))
        else:
            original = owner.__dict__[key]
            setattr(owner, key, value)
            self._patches.append((lambda o=owner, k=key, v=original:
                                  setattr(o, k, v)))

    def wrap_function(self, module, attr, name, sites=(), dicts=(),
                      hook=None, faults=False):
        """Wrap module.attr and every alias of it in sites and dicts."""
        original = getattr(module, attr)
        traced = self.wrapper(original, name, hook, faults)
        for site in (module, *sites):
            for key, value in list(vars(site).items()):
                if value is original:
                    self._set(site, key, traced)
        for d in dicts:
            for key, value in list(d.items()):
                if value is original:
                    self._set(d, key, traced)
        return traced

    def wrap_method(self, cls, attr, name):
        """Wrap a plain method or classmethod defined on cls."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrapper(raw.__func__, name))
        else:
            traced = self.wrapper(raw, name)
        self._set(cls, attr, traced)
        return traced

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            self._patches.pop()()

    # -- output ------------------------------------------------------------

    def write(self, path, meta=None):
        """Write the raw spans as JSON lines, preceded by one header line."""
        with open(path, "w") as f:
            head = {"spans": len(self.spans), "dropped": self.dropped,
                    **(meta or {})}
            f.write(json.dumps(head) + "\n")
            for sid, name, start, end, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
