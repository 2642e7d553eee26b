"""Structure-of-arrays view of a netlist.

:class:`NetlistStructure` is a netlist's wiring as five flat arrays —
gate-type codes plus fan-in and fan-out adjacency in CSR form — and the
read path of every whole-netlist query and analysis (levelization, SCOAP,
validation, the adjacency export, labelling, fault collapsing, statistics,
scan cost).  The parsers and the generator build it with
:meth:`NetlistStructure.from_fanins` and hand it to
:meth:`~repro.circuit.netlist.Netlist.from_structure`, whose columns are
its fan-in arrays; ``Netlist.structure()`` rebuilds it from those columns
once per structural mutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import GateType

__all__ = [
    "NetlistStructure",
    "gate_table",
    "counts_to_ptr",
    "expand_rows",
    "sorted_unique",
]


@dataclass(frozen=True)
class NetlistStructure:
    """Gate types and both adjacency directions of one netlist version.

    Row ``v`` of the fan-in CSR lists the drivers of ``v`` in pin order;
    row ``v`` of the fan-out CSR lists its sinks in ascending id order
    (one entry per pin driven, so a sink wired twice appears twice).
    The arrays are shared with every reader and must not be written to.
    """

    types: np.ndarray  #: ``(n,)`` :class:`~repro.circuit.cells.GateType` codes
    fanin_ptr: np.ndarray  #: ``(n + 1,)`` row bounds into ``fanin_idx``
    fanin_idx: np.ndarray  #: ``(n_edges,)`` driver of every pin
    fanout_ptr: np.ndarray  #: ``(n + 1,)`` row bounds into ``fanout_idx``
    fanout_idx: np.ndarray  #: ``(n_edges,)`` sink of every driven pin

    @classmethod
    def from_fanins(
        cls, types: np.ndarray, fanin_ptr: np.ndarray, fanin_idx: np.ndarray
    ) -> "NetlistStructure":
        """The structure of these fan-in rows, its fan-out rows derived:
        each lists its sinks in ascending id order."""
        n, m = len(types), len(fanin_idx)
        sinks = np.repeat(np.arange(n), np.diff(fanin_ptr))
        # A plain sort of (driver, pin position) keys is a stable sort by
        # driver, at a quarter of the cost of ``argsort(kind="stable")``.
        by_driver = np.sort(fanin_idx * m + np.arange(m)) % max(m, 1)
        fanout_ptr = counts_to_ptr(np.bincount(fanin_idx, minlength=n))
        return cls(types, fanin_ptr, fanin_idx, fanout_ptr, sinks[by_driver])

    @classmethod
    def concatenate(cls, structures: list["NetlistStructure"]) -> "NetlistStructure":
        """The block-diagonal structure of ``structures``, in that order:
        the ids of each are shifted past those of the ones before it."""
        node_offsets = counts_to_ptr([s.num_nodes for s in structures])
        edge_offsets = counts_to_ptr([len(s.fanin_idx) for s in structures])

        def stacked(ptrs, idxs):
            ptr = np.concatenate(
                [p[:-1] + e for p, e in zip(ptrs, edge_offsets.tolist())] + [edge_offsets[-1:]]
            )
            idx = np.concatenate([i + o for i, o in zip(idxs, node_offsets.tolist())])
            return ptr, idx

        fanin = stacked([s.fanin_ptr for s in structures], [s.fanin_idx for s in structures])
        fanout = stacked([s.fanout_ptr for s in structures], [s.fanout_idx for s in structures])
        return cls(np.concatenate([s.types for s in structures]), *fanin, *fanout)

    @property
    def num_nodes(self) -> int:
        return len(self.types)

    def pin_sinks(self) -> np.ndarray:
        """The gate owning each entry of ``fanin_idx``."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.fanin_ptr))

    def pin_drivers(self) -> np.ndarray:
        """The gate owning each entry of ``fanout_idx``."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.fanout_ptr))

    def scan_captured(self) -> np.ndarray:
        """Nodes a scan cell observes directly: the fanin of each DFF and OBS."""
        cells = np.flatnonzero((self.types == GateType.DFF) | (self.types == GateType.OBS))
        return self.fanin_idx[self.fanin_ptr[cells]]


def gate_table(values: dict[GateType, int], default: int = 0) -> np.ndarray:
    """A lookup array indexed by gate-type code (``table[structure.types]``)."""
    table = np.full(len(GateType), default, dtype=np.int64)
    for gate_type, value in values.items():
        table[gate_type] = value
    return table


def counts_to_ptr(counts) -> np.ndarray:
    """CSR row bounds of rows with the given lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def expand_rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of ``rows``, concatenated in that order.

    Returns ``(positions, counts)``: ``idx[positions]`` is the CSR content
    of ``rows[0]``, then ``rows[1]``, ...; ``counts[i]`` is the length of
    ``rows[i]``.
    """
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = counts.cumsum()  # methods: callers loop over hundreds of small levels
    positions = np.arange(ends[-1] if len(ends) else 0)
    positions += (starts - (ends - counts)).repeat(counts)
    return positions, counts


def sorted_unique(a) -> np.ndarray:
    """``np.unique(a)``, by sorting and dropping each entry equal to the
    one before it: the sweeps that dedupe row ids once per hop or level
    call it on a few hundred to a few hundred thousand integers, where
    numpy's hash path for plain ``np.unique`` costs several times more."""
    a = np.sort(a, axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]
