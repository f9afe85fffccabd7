"""In-memory span recording for the traced benchmark pass.

Spans are recorded only from this directory: the benchmark rebinds each
public name where its caller looks it up (a module global, a class
attribute or an instance attribute) to a wrapper that opens a span,
calls the original and closes the span.  :func:`installed` undoes every
rebinding on exit, so untraced passes run the program untouched.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark operation it belongs to.  Self time is a span's duration
minus the part its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Span recorder with an on/off switch for the benchmark's own checks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Work counts recorded at span boundaries (solver iterations...).
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.op = -1
        self.on = False
        self.paused_s = 0.0
        self._paused_at = 0.0

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), -1.0, parent, self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def pause(self) -> None:
        """Stop recording while the benchmark checks an output."""
        self.on = False
        self._paused_at = perf_counter()

    def resume(self) -> None:
        self.paused_s += perf_counter() - self._paused_at
        self.on = True

    def wrap(self, fn: Callable, name: str,
             on_return: Optional[Callable[[Any], Any]] = None) -> Callable:
        """``fn`` inside a span named ``name`` while recording is on."""

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            return on_return(result) if on_return is not None else result

        return spanned

    def self_times(self, start: int = 0) -> Tuple[Dict[str, float],
                                                  Dict[str, int], float]:
        """Per-name self time and call count, and top-level span time,
        over the spans recorded from index ``start`` on."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        top = 0.0
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
            else:
                top += t1 - t0
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, top

    def problems(self, start: int, window: Tuple[float, float]) -> List[str]:
        """What is wrong with the spans from index ``start`` on, which one
        pass recorded between the two times of ``window``: a span left
        open, a span outside its parent or of another op than its parent,
        or a top-level span outside the pass."""
        found = []
        if self._stack:
            found.append(f"{len(self._stack)} spans still open")
        for i, (name, t0, t1, parent, op) in enumerate(self.spans[start:],
                                                        start):
            if t1 < t0:
                found.append(f"span {i} ({name}) never closed")
            elif parent < start and not window[0] <= t0 <= t1 <= window[1]:
                found.append(f"span {i} ({name}) outside its pass")
            elif parent >= start:
                _, p0, p1, _, p_op = self.spans[parent]
                if not (p0 <= t0 and t1 <= p1 and op == p_op):
                    found.append(f"span {i} ({name}) outside its parent")
        return found[:5]

    def write_jsonl(self, path: str, origin: float) -> None:
        """Write every span, times in seconds since ``origin``."""
        with open(path, "w") as out:
            for name, t0, t1, parent, op in self.spans:
                out.write(json.dumps({
                    "name": name, "start": t0 - origin, "end": t1 - origin,
                    "parent": parent, "op": op,
                }) + "\n")


class Rebinder:
    """Records ``setattr`` rebindings so they can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, value: Callable,
                   skip: str = "") -> None:
        """Rebind every ``repro`` module global that is ``original``,
        except in the module named ``skip``."""
        for name, module in list(sys.modules.items()):
            if (module is None or name == skip
                    or not (name == "repro" or name.startswith("repro."))):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        for owner, attr, had, value in reversed(self._saved):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._saved.clear()


@contextlib.contextmanager
def installed(install: Callable[[Rebinder], None]) -> Iterator[Rebinder]:
    """Apply ``install``'s rebindings for the duration of the block."""
    rebinder = Rebinder()
    try:
        install(rebinder)
        yield rebinder
    finally:
        rebinder.undo()
