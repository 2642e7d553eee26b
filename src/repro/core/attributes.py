"""Node attribute construction: the ``[LL, C0, C1, O]`` vector.

Section 3.1 of the paper: each node carries its logic level and three SCOAP
measures.  Raw SCOAP values span 1 to ~10^6 (the INF sentinel), so features
are squashed with *fixed* transforms — fixed, not fitted, because the model
must stay inductive: the same transform has to apply to unseen designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.levelize import logic_levels
from repro.circuit.netlist import Netlist
from repro.testability.scoap import ScoapResult, compute_scoap

__all__ = ["AttributeConfig", "build_attributes", "OP_ATTRIBUTES"]

#: Attribute row the paper assigns a freshly inserted observation point
#: before the incremental SCOAP refresh: ``[0, 1, 1, 0]`` (Section 4).
OP_ATTRIBUTES = np.array([0.0, 1.0, 1.0, 0.0])


@dataclass
class AttributeConfig:
    """Feature-squashing configuration.

    ``level_scale`` divides the logic level; SCOAP components go through
    ``log1p`` and are divided by ``scoap_scale``.  Disable with
    ``normalize=False`` to get the raw paper attributes.
    """

    normalize: bool = True
    level_scale: float = 50.0
    scoap_scale: float = 7.0


def build_attributes(
    netlist: Netlist,
    scoap: ScoapResult | None = None,
    levels: np.ndarray | None = None,
    config: AttributeConfig | None = None,
) -> np.ndarray:
    """Return the ``(n_nodes, 4)`` attribute matrix ``[LL, C0, C1, O]``."""
    config = config or AttributeConfig()
    if levels is None:
        levels = logic_levels(netlist)
    if scoap is None:
        scoap = compute_scoap(netlist)
    raw = np.stack(
        [levels.astype(np.float64), scoap.cc0, scoap.cc1, scoap.co], axis=1
    )
    if not config.normalize:
        return raw
    return normalize_attributes(raw, config)


def normalize_attributes(raw: np.ndarray, config: AttributeConfig | None = None) -> np.ndarray:
    """Apply the fixed squashing transform to a raw attribute matrix."""
    config = config or AttributeConfig()
    out = np.empty_like(raw, dtype=np.float64)
    out[:, 0] = raw[:, 0] / config.level_scale
    out[:, 1:] = np.log1p(np.maximum(raw[:, 1:], 0.0)) / config.scoap_scale
    return out
