"""Span tracer for the benchmark, installed by rebinding corrdyn names.

The tracer never edits library source.  `install` wraps each target function
and rebinds *every* module-level binding of that function object across the
loaded ``corrdyn`` modules, because several modules import helpers by name
(``correspondence`` and ``multiplier`` both hold their own reference to
``bareiss_det_poly``).  Methods are wrapped on their class.  A target that no
longer exists is recorded in ``absent`` and its metrics read zero.

Each span records (id, name, start, end, parent id, job id).  Spans stay in
memory until `write_spans`; self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.errors: dict[str, dict[str, int]] = {}  # name -> exception type -> count
        self.absent: list[str] = []
        self.job = None
        self.active = True
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self, targets, on_result=None):
        """Wrap each (owner path, attribute, span name) target.

        The owner path is a module (``corrdyn.resultant``) or a class inside
        one (``corrdyn.forms.BiForm``).  ``on_result`` maps a span name to a
        callback receiving (args, result) after each successful call.
        """
        on_result = on_result or {}
        for owner_path, attr, name in targets:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if f"{owner_path}.{attr}" not in self.absent:
                    self.absent.append(f"{owner_path}.{attr}")
                continue
            self.stats.setdefault(name, [0, 0.0, 0.0])
            wrapper = self._wrap(name, original, on_result.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "corrdyn"]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, after):
        tracer = self
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts = tracer.errors.setdefault(name, {})
                counts[type(exc).__name__] = counts.get(type(exc).__name__, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                spans.append((span_id, name, start, end, parent, tracer.job))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- read-out -----------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_ms(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1] * 1000

    def self_ms(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2] * 1000

    def error_count(self, name, exc_name) -> int:
        return self.errors.get(name, {}).get(exc_name, 0)

    def write_spans(self, path):
        """Write one JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


def _resolve(path):
    """The module, or class inside a module, named by a dotted path; None if gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        obj = module
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None
