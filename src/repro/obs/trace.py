"""Trace spans: nested wall/CPU timings with a per-run tree dump.

A run (CLI command, experiment sweep, benchmark) opens a root with
:func:`trace`; instrumented code wraps units of work in :func:`span`.
When no trace is active, ``span()`` is a near-no-op (one contextvar read),
so library hot paths stay instrumented without taxing un-traced callers —
the <3 % overhead budget of the scalability sweep rides on that.

The finished tree serialises to a JSON dict (``Span.to_dict``) that run
manifests embed and ``results/<run>/trace.json`` stores verbatim, and
renders as an indented text profile (:func:`format_tree`) for humans.

Trees also cross process and host boundaries: a worker opens a *detached*
root (``trace(..., register_last=False)`` — it never clobbers the
submitting process's :func:`last_trace`), serialises it with
``Span.to_dict``, and the parent reattaches it with :func:`graft` so one
tree spans coordinator -> worker -> shard.  :func:`annotate` records
zero-duration event spans (retries, rejected stale results) inside
the active trace.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

__all__ = [
    "Span",
    "trace",
    "span",
    "annotate",
    "graft",
    "current_span",
    "last_trace",
    "format_tree",
]

#: hard cap on recorded spans per trace; beyond it spans still run but are
#: not recorded (the root notes how many were dropped)
MAX_SPANS = 50_000

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_trace_span", default=None
)
_last_trace: "Span | None" = None


class Span:
    """One timed region: name, attributes, wall/CPU seconds, children."""

    __slots__ = (
        "name",
        "attrs",
        "wall_s",
        "cpu_s",
        "children",
        "dropped",
        "_root",
        "_count",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, name: str, attrs: dict, root: "Span | None") -> None:
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children: list[Span] = []
        self.dropped = 0
        self._root = root if root is not None else self
        self._count = 1

    # ---------------------------------------------------------------- #
    def _start(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _finish(self) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0

    @property
    def self_wall_s(self) -> float:
        """Wall time not attributed to any recorded child."""
        return self.wall_s - sum(c.wall_s for c in self.children)

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first) with ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
        }
        if self.attrs:
            out["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.dropped:
            out["dropped_spans"] = self.dropped
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a finished span subtree from ``to_dict`` output.

        The inverse of :meth:`to_dict` for *finished* trees — the result
        carries timings and children but no live start state, so it can
        only be grafted (:func:`graft`), never re-entered.
        """
        node = cls(str(data.get("name", "?")), dict(data.get("attrs") or {}), root=None)
        node.wall_s = float(data.get("wall_s", 0.0))
        node.cpu_s = float(data.get("cpu_s", 0.0))
        node.dropped = int(data.get("dropped_spans", 0))
        for child in data.get("children") or ():
            node.children.append(cls.from_dict(child))
        return node

    def size(self) -> int:
        """Number of spans in this subtree (self included)."""
        return 1 + sum(c.size() for c in self.children)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        pass
    return str(value)


@contextlib.contextmanager
def trace(name: str, register_last: bool = True, **attrs):
    """Open a root span, activating span recording inside the block.

    ``register_last=False`` opens a *detached* root: it records exactly
    like a normal trace but never becomes :func:`last_trace` — pool
    workers (and in-thread test workers sharing this process) use it so
    capturing their subtree cannot clobber the submitting run's tree.
    """
    global _last_trace
    root = Span(name, attrs, root=None)
    token = _current.set(root)
    root._start()
    try:
        yield root
    finally:
        root._finish()
        _current.reset(token)
        if register_last:
            _last_trace = root


@contextlib.contextmanager
def span(name: str, **attrs):
    """Record a child span of the active trace; no-op when un-traced."""
    parent = _current.get()
    if parent is None:
        yield None
        return
    root = parent._root
    if root._count >= MAX_SPANS:
        root.dropped += 1
        yield None
        return
    node = Span(name, attrs, root=root)
    root._count += 1
    parent.children.append(node)
    token = _current.set(node)
    node._start()
    try:
        yield node
    finally:
        node._finish()
        _current.reset(token)


def annotate(name: str, **attrs) -> Span | None:
    """Record a zero-duration event span under the active trace.

    Supervision events (a requeue, a rejected stale result) have no
    meaningful duration of their own but must show up in the merged
    tree; this records them without the enter/exit ceremony.  No-op
    outside a trace.
    """
    parent = _current.get()
    if parent is None:
        return None
    root = parent._root
    if root._count >= MAX_SPANS:
        root.dropped += 1
        return None
    node = Span(name, attrs, root=root)
    root._count += 1
    parent.children.append(node)
    return node


def graft(subtree: "Span | dict", **extra_attrs) -> Span | None:
    """Attach a finished span subtree under the active span.

    ``subtree`` is a :class:`Span` or a ``Span.to_dict`` payload — the
    form worker span trees travel in over result frames.  ``extra_attrs``
    (worker id, attempt number) are merged into the grafted root so
    retries stay distinguishable in the merged tree.  Grafted spans count against :data:`MAX_SPANS` like locally
    recorded ones.  No-op outside a trace.
    """
    parent = _current.get()
    if parent is None:
        return None
    if isinstance(subtree, dict):
        subtree = Span.from_dict(subtree)
    root = parent._root
    size = subtree.size()
    if root._count + size > MAX_SPANS:
        root.dropped += size
        return None
    if extra_attrs:
        subtree.attrs = {**subtree.attrs, **extra_attrs}
    root._count += size
    parent.children.append(subtree)
    return subtree


def current_span() -> Span | None:
    """The innermost active span, or None outside any trace."""
    return _current.get()


def last_trace() -> Span | None:
    """The most recently completed root span in this process."""
    return _last_trace


def format_tree(root: Span, min_wall_s: float = 0.0) -> str:
    """Indented text profile of a finished span tree."""
    lines: list[str] = []

    def walk(node: Span, depth: int) -> None:
        if node.wall_s < min_wall_s and depth > 0:
            return
        attrs = ""
        if node.attrs:
            attrs = " " + " ".join(f"{k}={v}" for k, v in node.attrs.items())
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 40 - 2 * depth)}} "
            f"wall={node.wall_s * 1000:10.3f}ms cpu={node.cpu_s * 1000:10.3f}ms"
            f"{attrs}"
        )
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
