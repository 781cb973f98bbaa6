"""Simulated distributed-memory communication substrate.

The paper analyses algorithms in the single-ported, full-duplex α–β model
(§2): sending a message of m bits costs ``α + β·m``; collectives cost
``T_coll(k) = O(β·k + α·log p)``.  This package provides

* an in-process *network* of per-(src, dst) mailboxes with a thread-based
  SPMD runtime (:class:`repro.comm.context.Context`),
* per-PE *traffic meters* recording every byte and message — the paper's
  headline claim is about bottleneck communication volume, which is exactly
  countable here,
* *collectives* (broadcast, reduce, all-reduce, gather, all-gather, scan,
  all-to-all) built from real point-to-point messages with binomial-tree /
  recursive-doubling / hypercube schedules, so message counts match the
  textbook algorithms the paper cites [7, 8, 9].
"""

from repro.comm import ops
from repro.comm.backend import BACKEND_ENV, BACKENDS, resolve_backend
from repro.comm.cost import (
    CostModel,
    TrafficMeter,
    bottleneck_volume,
    payload_nbytes,
)
from repro.comm.network import Network, NetworkEndpoint
from repro.comm.communicator import Comm
from repro.comm.context import Context, SPMDError

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "CostModel",
    "TrafficMeter",
    "bottleneck_volume",
    "ops",
    "payload_nbytes",
    "resolve_backend",
    "Network",
    "NetworkEndpoint",
    "Comm",
    "Context",
    "SPMDError",
]
