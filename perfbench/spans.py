"""Span recording around the public functions of the ``pieri`` modules.

The tracer replaces, in every module of a freshly imported ``pieri``, each
public plain function defined there (generator functions are left alone,
since their work happens while the caller iterates) plus a few constructors
and methods, with a wrapper that records a span: name, start, end and the
span that was open when it started.  Spans are kept in typed arrays in
memory and written out by ``write``; per-name call counts, self times and
counters are kept as running totals.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

MODULES = ("diagrams", "poset", "cone", "hibi", "polyring", "algebra", "verify", "cli")

# (module, class, attribute, span name) wrapped in addition to public functions
METHODS = (
    ("poset", "GammaPoset", "__init__", "poset.GammaPoset"),
    ("poset", "GammaPoset", "hasse_edges", "poset.hasse_edges"),
    ("polyring", "Polynomial", "__mul__", "polyring.mul"),
    ("polyring", "Polynomial", "__add__", "polyring.add"),
    ("polyring", "Polynomial", "leading_monomial", "polyring.leading_monomial"),
    ("polyring", "PolyRing", "determinant", "polyring.determinant"),
    ("polyring", "PolyRing", "derive", "polyring.derive"),
    ("algebra", "PieriContext", "__init__", "algebra.PieriContext"),
)


def _terms(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


# span name -> ((counter name, increment as a function of (args, result)), ...)
COUNTERS = {
    "diagrams.kostka": (("nonzero", lambda args, r: int(r != 0)),),
    "algebra.multiplicity": (("nonzero", lambda args, r: int(r != 0)),),
    "cone.enumerate_fiber": (("points", lambda args, r: len(r)),
                             ("nonempty", lambda args, r: int(len(r) > 0))),
    "polyring.mul": (("term_pairs", lambda args, r: _terms(args[0]) * _terms(args[1])),),
    "algebra.subduct": (("steps", lambda args, r: len(r[0].terms)),),
}
# counters reported as a share of the calls instead of a total
RATIOS = {"nonzero": "nonzero_ratio", "nonempty": "nonempty_ratio"}


class Tracer:
    """Records spans of one process; counters are totals over every span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[list] = []  # [span id, start, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, dict[str, int]] = {}

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.counters[name] = {}
        return self._name_id[name]

    def wrap(self, name: str, fn, counters=(), emit_bytes: bool = False):
        name_id = self._name(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1][0] if stack else -1)
            before = sys.stdout.tell() if emit_bytes else 0
            start = clock()
            self.starts.append(start)
            self.ends.append(0.0)
            frame = [span, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.ends[span] = end
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
            bucket = self.counters[name]
            for key, inc in counters:
                bucket[key] = bucket.get(key, 0) + inc(args, result)
            if emit_bytes:
                bucket["bytes"] = bucket.get("bytes", 0) + sys.stdout.tell() - before
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and listed methods of a fresh import."""
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                replaced[obj] = self.wrap(name, obj, COUNTERS.get(name, ()),
                                          emit_bytes=(name == "cli.emit"))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[attr]
            wrapper = self.wrap(name, original, COUNTERS.get(name, ()))
            for other, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, other, wrapper)
        # rebind every module-level name and table entry that held an original
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def per_layer(self, rounds: int) -> dict:
        """Per-round totals: ``<name>.calls``, ``.self_s`` and counters."""
        out = {}
        for name in self.names:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
            for key, total in self.counters[name].items():
                if key in RATIOS:
                    out[f"{name}.{RATIOS[key]}"] = total / calls if calls else 0.0
                else:
                    out[f"{name}.{key}"] = total / rounds
        return out

    def write(self, path) -> None:
        """Write every span as ``id parent name start end`` lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
