"""Traced-run instrumentation: spans around the library's entry points.

A :class:`Tracer` patches wrappers around the public calls each layer is
entered through (engine runs, protocol message handlers, policy lookups,
route synthesis, FIB compile/replay, wire codec, live sends and
settles), so the library itself is never edited.  Everything is timed
from outside, around the call.

Two kinds of layer:

* **span layers** record one span per call -- name, start, end, parent
  span, episode id -- in flat in-memory columns, plus the span's self
  time (its duration minus the time its children covered), which the
  wrapper learns from a call stack as the call returns;
* **leaf layers** (``permitting_term``, the ``ADSet`` algebra) are
  entered millions of times per run, so they keep only a call count and
  busy time, credited to the enclosing span as child time.

Wrappers are installed only inside :meth:`Tracer.window` -- the
measured sections of a workload -- so set-up and oracle work never show
up in a layer.  Each window is itself a span, ``benchmark.window``,
whose self time is the part of the measured wall time no layer covers.

:meth:`Tracer.write` stores the spans at exit; :meth:`Tracer.layers`
then derives calls, busy and self time per layer from the span columns
and the leaf totals.

The stack is process-global.  That is sound on the live substrate too:
every wrapped call except :func:`repro.live.runner.settle` is
synchronous, and the benchmark awaits one settle at a time, so handler
and codec spans that run while a settle is suspended nest under it.
"""

from __future__ import annotations

import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_episode = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_self = array("d")
        #: Leaf layer -> [calls, busy seconds].
        self.leaves: Dict[str, List[float]] = {}
        #: Named counters bumped by result hooks (bytes, events, ...).
        self.counts: Dict[str, float] = {}
        #: Episode id stamped on new spans (-1: outside any episode).
        self.episode = -1
        # Open frames: [span id, child seconds].
        self._stack: List[List[float]] = []
        # (owner, attribute, attribute as owner held it, wrapper)
        self._patches: List[Tuple[object, str, object, object]] = []
        self._window_id = self._name_id(WINDOW)

    # ------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int, t0: float) -> List[float]:
        stack = self._stack
        sid = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(int(stack[-1][0]) if stack else -1)
        self.s_episode.append(self.episode)
        self.s_start.append(t0)
        self.s_end.append(t0)
        self.s_self.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: List[float], t1: float) -> None:
        stack = self._stack
        stack.pop()
        sid = int(frame[0])
        duration = t1 - self.s_start[sid]
        self.s_end[sid] = t1
        self.s_self[sid] = duration - frame[1]
        if stack:
            stack[-1][1] += duration

    @contextmanager
    def window(self) -> Iterator[None]:
        """A measured section: wrappers installed, one root span open."""
        self.install()
        frame = self._open(self._window_id, perf_counter())
        try:
            yield
        finally:
            self._close(frame, perf_counter())
            self.uninstall()

    # ---------------------------------------------------------- patching

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record every call of ``owner.attr`` as a span of ``layer``."""
        orig = getattr(owner, attr)
        name_id = self._name_id(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_(name_id, perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                close(frame, perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        self._register(owner, attr, traced)

    def wrap_async(self, owner: object, attr: str, layer: str) -> None:
        """:meth:`wrap` for a coroutine function."""
        orig = getattr(owner, attr)
        name_id = self._name_id(layer)
        open_, close = self._open, self._close

        async def traced(*args, **kwargs):
            frame = open_(name_id, perf_counter())
            try:
                return await orig(*args, **kwargs)
            finally:
                close(frame, perf_counter())

        self._register(owner, attr, traced)

    def wrap_callbacks(self, owner: object, attr: str, layer: str) -> None:
        """Record each callback handed to ``owner.attr(delay, fn, *args)``
        as a span of ``layer`` when it fires (protocol timers)."""
        orig = getattr(owner, attr)
        name_id = self._name_id(layer)
        open_, close = self._open, self._close

        def traced(self_, delay, fn, *args):
            def fire(*fire_args):
                frame = open_(name_id, perf_counter())
                try:
                    return fn(*fire_args)
                finally:
                    close(frame, perf_counter())

            return orig(self_, delay, fire, *args)

        self._register(owner, attr, traced)

    def wrap_leaf(self, owner: object, attr: str, layer: str) -> None:
        """Count calls and busy time of ``owner.attr`` without spans."""
        orig = getattr(owner, attr)
        totals = self.leaves.setdefault(layer, [0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                totals[0] += 1
                totals[1] += duration
                if stack:
                    stack[-1][1] += duration

        self._register(owner, attr, traced)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _register(self, owner: object, attr: str, wrapper: object) -> None:
        # Remember the attribute as ``owner`` itself holds it, so a
        # method inherited from a base class is restored by deletion.
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT), wrapper))

    def install(self) -> None:
        """Put every registered wrapper in place."""
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        for owner, attr, orig, _wrapper in reversed(self._patches):
            if orig is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # ------------------------------------------------------------ output

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``busy_s`` (inclusive), ``self_s``.

        Span layers are derived from the span columns; leaf layers have
        no children, so their self time equals their busy time.
        """
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names = self.names
        for sid, name_id in enumerate(self.s_name):
            row = out[names[name_id]]
            row["calls"] += 1
            row["busy_s"] += self.s_end[sid] - self.s_start[sid]
            row["self_s"] += self.s_self[sid]
        for name, (calls, busy) in self.leaves.items():
            out[name] = {"calls": calls, "busy_s": busy, "self_s": busy}
        return out

    def write(self, path: str) -> None:
        """Store the span columns: a JSON header line, then raw arrays."""
        columns = ("s_name", "s_parent", "s_episode", "s_start", "s_end", "s_self")
        header = {
            "names": self.names,
            "spans": len(self.s_name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "leaves": self.leaves,
            "counts": self.counts,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                getattr(self, column).tofile(fh)


_ABSENT = object()

#: Root span of every measured section.
WINDOW = "benchmark.window"


def load_spans(path: str) -> Tuple[dict, Dict[str, array]]:
    """Read a file written by :meth:`Tracer.write` back into columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns: Dict[str, array] = {}
        for name, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(fh, header["spans"])
            columns[name] = col
    return header, columns
