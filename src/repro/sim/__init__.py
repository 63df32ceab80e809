"""Discrete-event simulation substrate: engine, nodes, network, metrics, churn."""

from .engine import Simulator, ScheduledEvent
from .metrics import MetricSink, HopHistogram
from .node import PeerNode, StoredItem, CapacityError
from .network import Network, DeadNodeError
from .linkfaults import LinkFaultPlane, MessageLossError
from .failures import fail_fraction, ChurnProcess, ChurnStats

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "MetricSink",
    "HopHistogram",
    "PeerNode",
    "StoredItem",
    "CapacityError",
    "Network",
    "DeadNodeError",
    "LinkFaultPlane",
    "MessageLossError",
    "fail_fraction",
    "ChurnProcess",
    "ChurnStats",
]
