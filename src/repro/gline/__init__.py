"""The G-line barrier network: the paper's primary contribution."""

from .barrier import GLBarrier
from .controllers import BarRegFile, MasterH, MasterV, SlaveH, SlaveV
from .fabric import BarrierFabric, ReleaseGate
from .gline import GLine
from .hierarchical import HierarchicalGLineBarrier, partition
from .multibarrier import build_contexts, build_submesh_context, total_wires
from .network import GLineBarrierNetwork
from .timemux import SlotContext, build_time_multiplexed, physical_wires

__all__ = [
    "GLBarrier",
    "BarRegFile", "MasterH", "MasterV", "SlaveH", "SlaveV",
    "BarrierFabric", "GLine",
    "HierarchicalGLineBarrier", "partition",
    "build_contexts", "build_submesh_context", "total_wires",
    "GLineBarrierNetwork", "ReleaseGate",
    "SlotContext", "build_time_multiplexed", "physical_wires",
]
