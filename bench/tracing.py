"""Outside-in spans around dunkl's public functions.

The program is not edited: a wrapper replaces a function at every module
that binds it (``jacobi_rule`` is bound by name in ``quadrature``, ``core``,
``sonine``, ``transform`` and ``fractional``), a class attribute for a
method, or a value of a registry dict.  Each call records one span (name,
start, end, parent, work count) in memory; the trace is written once, as
Chrome trace-event JSON that Perfetto and chrome://tracing read.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# span fields: name, start_ns, end_ns, parent index (-1 at top), work count,
# outermost of its own name, outermost of the builder set
NAME, START, END, PARENT, WORK, OUTER, OUTER_BUILDER = range(7)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``where`` is ``module:attr``, ``module:Class.method`` or ``module:DICT[key]``
    inside the ``dunkl`` package.  ``work`` maps the call arguments to a work
    count, ``key`` to a digest of their values (for distinct-call ratios).
    """

    where: str
    name: str
    work: Optional[Callable] = None
    key: Optional[Callable] = None


class Tracer:
    def __init__(self, builders: frozenset = frozenset()):
        self.builders = builders
        self.spans: list = []
        self.keys: dict = {}
        self._stack: list = []
        self._active: Counter = Counter()
        self._builder_depth = 0
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, work, key = target.name, target.work, target.key
        is_builder = name in self.builders
        spans, stack, active = self.spans, self._stack, self._active
        keys = self.keys.setdefault(name, []) if key is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1,
                    work(*args, **kwargs) if work is not None else 0,
                    active[name] == 0, is_builder and self._builder_depth == 0]
            if keys is not None:
                keys.append(key(*args, **kwargs))
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            self._builder_depth += is_builder
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                self._builder_depth -= is_builder
                active[name] -= 1
                stack.pop()

        return traced

    def install(self, targets) -> None:
        """Wrap every target at every place in ``dunkl`` that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dunkl" or n.startswith("dunkl.")]
        for target in targets:
            module_name, _, attr = target.where.partition(":")
            owner = sys.modules[module_name]
            if "[" in attr:
                table_name, _, entry = attr.rstrip("]").partition("[")
                table = getattr(owner, table_name)
                self._restore.append((table.__setitem__, entry, table[entry]))
                table[entry] = self.wrap(target, table[entry])
            elif "." in attr:
                cls_name, _, method = attr.partition(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((functools.partial(setattr, cls), method, original))
                setattr(cls, method, self.wrap(target, original))
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(target, original)
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((functools.partial(setattr, module), bound_name, original))
                            setattr(module, bound_name, wrapper)

    def uninstall(self) -> None:
        for setter, name, original in reversed(self._restore):
            setter(name, original)
        self._restore.clear()

    # -- summaries -------------------------------------------------------
    def builder_seconds(self) -> float:
        """Time inside builder calls that no other builder call encloses."""
        return sum(s[END] - s[START] for s in self.spans if s[OUTER_BUILDER]) * 1e-9

    def totals(self) -> dict:
        """Per name: calls, work, inclusive seconds (outermost calls of that
        name only) and self seconds (duration minus direct child spans)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s[NAME], {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0})
            dur = s[END] - s[START]
            t["calls"] += 1
            t["work"] += s[WORK]
            t["self_s"] += (dur - child[i]) * 1e-9
            if s[OUTER]:
                t["s"] += dur * 1e-9
        return out

    def distinct_ratio(self, name: str) -> float:
        keys = self.keys.get(name, [])
        return len(set(keys)) / len(keys) if keys else 0.0

    def write_chrome_trace(self, path) -> None:
        base = min((s[START] for s in self.spans), default=0)
        events = [
            {
                "name": s[NAME],
                "cat": s[NAME].split(".")[0],
                "ph": "X",
                "ts": (s[START] - base) / 1000.0,
                "dur": (s[END] - s[START]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": s[PARENT], "work": s[WORK]},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def value_digest(*objs) -> str:
    """Digest of argument values, so equal inputs in distinct objects match.

    A transform plan is identified by the rules it was built from; its kernel
    matrices and spline tables are functions of those."""
    h = hashlib.blake2b(digest_size=16)
    seen: set = set()

    def feed(obj) -> None:
        if obj is None or isinstance(obj, (bool, int, float, complex, str)):
            h.update(repr((type(obj).__name__, obj)).encode())
            return
        if isinstance(obj, np.ndarray):
            h.update(str((obj.dtype.str, obj.shape)).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
            return
        if isinstance(obj, np.generic):
            feed(obj.item())
            return
        if isinstance(obj, (tuple, list)):
            h.update(struct.pack("<q", len(obj)))
            for item in obj:
                feed(item)
            return
        if isinstance(obj, dict):
            feed(sorted(obj.items(), key=lambda kv: repr(kv[0])))
            return
        if id(obj) in seen:
            h.update(b"<cycle>")
            return
        seen.add(id(obj))
        h.update(type(obj).__qualname__.encode())
        if type(obj).__name__ == "TransformPlan":
            feed((obj.alpha, obj.half_width, obj.lambda_max, obj.tolerance, obj.x_nodes, obj.lambda_nodes))
        elif hasattr(obj, "__self__") and hasattr(obj, "__func__"):
            h.update(obj.__func__.__qualname__.encode())
            feed(obj.__self__)
        elif hasattr(obj, "__code__"):
            h.update(obj.__code__.co_code)
            feed(obj.__code__.co_consts)
            feed([c.cell_contents for c in obj.__closure__ or ()])
        elif hasattr(obj, "__dict__"):
            feed(vars(obj))
        else:
            h.update(repr(obj).encode())

    feed(objs)
    return h.hexdigest()
