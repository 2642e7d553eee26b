"""Shared forward-cone cache keyed by netlist fingerprint.

Fault simulation, exact-stem observability and control-point ranking all
walk the same forward cones, and before this cache each walk recomputed
them from scratch — once per fault per pattern batch in the worst case.
:class:`ConeIndex` memoises each node's cone (topo-sorted, DFF-stopped)
for one netlist *content*; :func:`get_cone_index` keeps a small LRU of
indexes keyed by :meth:`Netlist.fingerprint`, so the cones survive across
`LogicSimulator` instances, pattern batches and OPI iterations as long as
the structure is unchanged.

Mutation safety: any structural edit changes the fingerprint, so stale
indexes simply stop being reachable through the LRU.  Code that mutates a
netlist in place (the OPI flow's :class:`IncrementalDesign`) additionally
calls :func:`invalidate_cone_cache` *before* the edit, which both frees
the memory promptly and guarantees a half-warmed index can never be
poisoned with cones of two different netlist generations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.circuit.cells import GateType
from repro.circuit.levelize import logic_levels, topological_order
from repro.circuit.netlist import Netlist

__all__ = ["ConeIndex", "get_cone_index", "invalidate_cone_cache", "cone_cache_info"]


class ConeIndex:
    """Per-netlist-content cache of forward cones and levelisation.

    The index computes its own topological order and logic levels from the
    netlist (rather than borrowing a simulator's) so it is correct even
    when built lazily, long after any particular simulator instance.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.fingerprint = netlist.fingerprint()
        self.order = topological_order(netlist)
        self.levels = logic_levels(netlist, self.order)
        self._cones: dict[int, tuple[int, ...]] = {}
        self._lock = threading.Lock()

    def cone(self, node: int) -> tuple[int, ...]:
        """Nodes strictly downstream of ``node`` (combinationally), topo-sorted.

        ``DFF`` cells stop the traversal (their value is captured); the
        result is sorted by ``(logic level, node id)`` exactly like
        :meth:`LogicSimulator.forward_cone` always produced.
        """
        hit = self._cones.get(node)
        if hit is not None:
            return hit
        netlist = self.netlist
        levels = self.levels
        seen = {node}
        stack = [node]
        cone: list[int] = []
        while stack:
            v = stack.pop()
            for w in netlist.fanouts(v):
                if w in seen:
                    continue
                if netlist.gate_type(w) is GateType.DFF:
                    continue  # value captured; no further combinational travel
                seen.add(w)
                cone.append(w)
                stack.append(w)
        cone.sort(key=lambda v: (levels[v], v))
        result = tuple(cone)
        with self._lock:
            self._cones[node] = result
        return result

    def union_cone(self, nodes) -> np.ndarray:
        """Union of the forward cones of ``nodes``, sorted by (level, id)."""
        merged: set[int] = set()
        for v in nodes:
            merged.update(self.cone(v))
        if not merged:
            return np.empty(0, dtype=np.int64)
        arr = np.fromiter(merged, dtype=np.int64, count=len(merged))
        return arr[np.lexsort((arr, self.levels[arr]))]

    @property
    def cached_nodes(self) -> int:
        return len(self._cones)


_MAX_INDEXES = 8
_lock = threading.Lock()
_indexes: "OrderedDict[str, ConeIndex]" = OrderedDict()
_stats = {"hits": 0, "misses": 0, "invalidations": 0}


def get_cone_index(netlist: Netlist) -> ConeIndex:
    """Return the (possibly shared) :class:`ConeIndex` for ``netlist``.

    Lookup cost is one cached-fingerprint check when the netlist has not
    mutated since the last call.
    """
    fp = netlist.fingerprint()
    with _lock:
        index = _indexes.get(fp)
        if index is not None:
            # A cached index lazily walks its own netlist reference, so an
            # entry is poison if that object was mutated in place after the
            # build (a copy shares the original's fingerprint until its
            # first edit).  Both fingerprints are memoised, so this guard
            # is two cached-hash compares.
            if index.netlist.fingerprint() != fp:
                del _indexes[fp]
                _stats["invalidations"] += 1
            else:
                _indexes.move_to_end(fp)
                _stats["hits"] += 1
                return index
    index = ConeIndex(netlist)
    with _lock:
        _stats["misses"] += 1
        existing = _indexes.get(fp)
        if existing is not None:
            return existing
        _indexes[fp] = index
        while len(_indexes) > _MAX_INDEXES:
            _indexes.popitem(last=False)
    return index


def invalidate_cone_cache(netlist: Netlist | None = None) -> None:
    """Drop the cached index for ``netlist``'s current content (or all).

    Call *before* mutating a netlist in place; with ``None`` the whole
    cache is cleared (tests, memory pressure).
    """
    with _lock:
        if netlist is None:
            _stats["invalidations"] += len(_indexes)
            _indexes.clear()
            return
        if not _indexes:
            return  # nothing to drop: skip hashing the whole netlist
        fp = netlist.fingerprint()
        if _indexes.pop(fp, None) is not None:
            _stats["invalidations"] += 1


def cone_cache_info() -> dict:
    """Cache observability: entries, per-entry cone counts, hit/miss totals."""
    with _lock:
        return {
            "entries": len(_indexes),
            "cones": {fp[:12]: idx.cached_nodes for fp, idx in _indexes.items()},
            **_stats,
        }
