"""In-memory spans and counts around rcckit's public functions.

The tracer wraps functions from outside the package: every module of
rcckit that holds a reference to a traced function gets the wrapper in its
place, so calls are seen as each caller module makes them.  Nothing under
``src/`` is edited.  A span's self time is its duration minus the time of
its child spans.  Spans and counts are kept per phase (set-up or timed
operations); raw spans are kept up to a cap and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        # phase -> span name -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts = defaultdict(Counter)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name, fn, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                entry = self.stats[self.phase][name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], parent, name, self.phase,
                                       start, end))
            if on_result is not None:
                on_result(self.counts[self.phase], result)
            return result

        return traced

    def install(self, targets):
        """``targets``: (owner, attribute, span name, result hook) tuples.

        Module-level functions are replaced in every loaded rcckit module
        that refers to them; methods are replaced on their class."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "rcckit"
                                         or name.startswith("rcckit."))]
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self) -> dict:
        return {
            "stats": {phase: {name: {"calls": v[0], "s": v[1], "self_s": v[2]}
                              for name, v in sorted(names.items())}
                      for phase, names in self.stats.items()},
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "phase": s[3], "start": s[4], "end": s[5]}
                      for s in self.spans],
            "span_cap": SPAN_CAP,
        }
