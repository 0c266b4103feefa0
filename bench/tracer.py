"""Outside-in call tracer: wraps a package's public callables with recorders.

``Tracer.install(modules)`` replaces every public function and method
defined in the given modules with a recorder, and rebinds each replaced
name in every one of those module namespaces (``from .x import f`` leaves
a second reference that would otherwise escape).  The traced code is not
edited.  What counts as public:

* module-level functions whose names do not start with ``_``;
* methods, static methods and class methods of the module's classes with
  such names, and the arithmetic operators ``__add__`` ... ``__neg__``;
* a class's own ``__init__``, recorded under the class name.

Exception classes and code generated at run time (dataclass ``__init__``)
are left alone.  A function's layer is its module's last name component.

Each recorder either keeps a span ``[fid, start, end, parent, attrs]`` or,
for the names in ``counted``, only counts the call: hot kernels would
otherwise spend more time in the recorder than in the kernel.  Per
function the tracer counts calls, entries (calls from another layer, or
from none) and exceptions escaping entries.  Per layer it keeps self
time on a layer clock: each entry and each return from an entry, counted
or not, charges the time since the previous one to the layer that was
running.  That is span time minus the time covered by calls into other
layers, and it covers the counted kernels too.

``hooks`` maps a traced name to ``(before, after)``: ``before(args,
kwargs)`` runs ahead of the call and returns a token, ``after(token,
result)`` returns the span's ``attrs``.  Hook time falls outside the
span but inside its parent.

One tracer serves one thread; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
import types

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__neg__")

FID, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, counted=(), hooks=None, clock=time.perf_counter):
        self.counted = frozenset(counted)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.entries: list[int] = []
        self.errors: list[int] = []
        self.layer_s: list[float] = []
        self.spans: list[list] = []
        # innermost open span, running layer, time of the last layer switch
        self._cur = [-1, -1, 0.0]
        self._undo: list[tuple] = []

    # -- registration ----------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """Recorder for ``fn`` under ``name`` in ``layer``."""
        fid = len(self.names)
        self.names.append(name)
        if layer not in self.layers:
            self.layers.append(layer)
            self.layer_s.append(0.0)
        self.layer_of.append(self.layers.index(layer))
        for counter in (self.calls, self.entries, self.errors):
            counter.append(0)
        if name in self.counted:
            return self._counter(fn, fid)
        return self._recorder(fn, fid, self.hooks.get(name))

    def _counter(self, fn, fid):
        lid = self.layer_of[fid]
        calls, entries, errors, layer_s, cur, clock = (
            self.calls, self.entries, self.errors, self.layer_s, self._cur,
            self.clock)

        def counted(*args, **kwargs):
            calls[fid] += 1
            outer = cur[1]
            if outer == lid:
                return fn(*args, **kwargs)
            entries[fid] += 1
            now = clock()
            if outer >= 0:
                layer_s[outer] += now - cur[2]
            cur[1], cur[2] = lid, now
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                now = clock()
                layer_s[lid] += now - cur[2]
                cur[1], cur[2] = outer, now

        return _named(counted, fn)

    def _recorder(self, fn, fid, hook):
        lid = self.layer_of[fid]
        calls, entries, errors, layer_s, cur, clock = (
            self.calls, self.entries, self.errors, self.layer_s, self._cur,
            self.clock)
        spans = self.spans
        before, after = hook if hook else (None, None)

        def recorded(*args, **kwargs):
            calls[fid] += 1
            parent, outer, _ = cur
            entry = outer != lid
            token = before(args, kwargs) if before else None
            rec = [fid, 0.0, 0.0, parent, None]
            cur[0] = len(spans)
            spans.append(rec)
            rec[START] = now = clock()
            if entry:
                entries[fid] += 1
                if outer >= 0:
                    layer_s[outer] += now - cur[2]
                cur[1], cur[2] = lid, now
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if entry:
                    errors[fid] += 1
                raise
            finally:
                rec[END] = now = clock()
                cur[0] = parent
                if entry:
                    layer_s[lid] += now - cur[2]
                    cur[1], cur[2] = outer, now
            if after:
                rec[ATTRS] = after(token, result)
            return result

        return _named(recorded, fn)

    # -- installation ----------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public callables of ``modules`` and rebind them in all
        of the modules' namespaces."""
        modules = list(modules)
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._install_class(obj, mod, layer)
                elif (not attr.startswith("_") and id(obj) not in replaced
                      and isinstance(obj, types.FunctionType)):
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def _install_class(self, cls, mod, layer) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ARITHMETIC
            if not (public or attr == "__init__"):
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            code = getattr(fn, "__code__", None)
            if code is None or code.co_filename != mod.__file__:
                continue  # descriptors, generated code
            name = (f"{layer}.{cls.__name__}" if attr == "__init__"
                    else f"{layer}.{cls.__name__}.{attr}")
            wrapped = self.wrap(fn, name, layer)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def restore(self) -> None:
        """Put every replaced attribute back."""
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path: str, header: dict | None = None) -> None:
        """Write a header line (names, layers, counters) and one JSON line
        per span: ``[fid, start, end, parent, attrs]``."""
        head = {"names": self.names, "layer_of": self.layer_of,
                "layers": self.layers, "layer_s": self.layer_s,
                "calls": self.calls, "entries": self.entries,
                "errors": self.errors, **(header or {})}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head) + "\n")
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)


def _named(wrapper, fn):
    return functools.update_wrapper(wrapper, fn, updated=())


# -- reading a trace ------------------------------------------------------

def load(path: str) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        return head, [json.loads(line) for line in fh]


def layer_totals(head: dict, key: str) -> list[int]:
    """Per layer, the sum of a per-function counter (``entries``,
    ``errors``)."""
    out = [0] * len(head["layers"])
    for lid, n in zip(head["layer_of"], head[key]):
        out[lid] += n
    return out


def outer_time(head: dict, spans: list[list], names) -> float:
    """Time inside spans of ``names``, counting only the outermost of any
    nested group (recursion or one entry point calling another)."""
    wanted = set(names)
    fids = {i for i, n in enumerate(head["names"]) if n in wanted}
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        covered = p >= 0 and (inside[p] or spans[p][FID] in fids)
        inside[i] = covered
        if s[FID] in fids and not covered:
            total += s[END] - s[START]
    return total


def attr_values(head: dict, spans: list[list], name: str, key: str) -> list:
    """``attrs[key]`` of every span of ``name`` that has attrs."""
    fid = head["names"].index(name) if name in head["names"] else -1
    return [s[ATTRS][key] for s in spans if s[FID] == fid and s[ATTRS]]


def root_time(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def recorder_cost(n: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Seconds a recorder adds to a call of a two-argument no-op (best of
    ``repeats`` loops of ``n``): a counted call inside its own layer
    (``counted``), a counted entry (``counted_entry``), a span (``span``)."""
    def noop(a, b):
        return None

    t = Tracer(counted={"counted"})
    counted = t.wrap(noop, "counted", "a")
    recorded = t.wrap(noop, "recorded", "b")

    def per_call(fn, layer: int = -1) -> float:
        best = float("inf")
        for _ in range(repeats):
            t.spans.clear()
            t._cur[:] = [-1, layer, 0.0]
            start = time.perf_counter()
            for _ in range(n):
                fn(1, 2)
            best = min(best, time.perf_counter() - start)
        return best / n

    base = per_call(noop)
    return {"counted": per_call(counted, layer=0) - base,
            "counted_entry": per_call(counted) - base,
            "span": per_call(recorded) - base}
