"""Meteorograph — similarity discovery in structured P2P overlays.

A full reproduction of Hsiao & King, "Similarity Discovery in
Structured P2P Overlays" (ICPP 2003): the Meteorograph similarity
retrieval system, the Tornado-style structured overlay beneath it, a
Chord port, unstructured baselines, the synthetic World Cup workload,
and the paper's complete evaluation harness.

Quickstart::

    import numpy as np
    from repro import Meteorograph, MeteorographConfig, generate_trace

    rng = np.random.default_rng(7)
    trace = generate_trace()
    sample = trace.corpus.subsample(rng.choice(len(trace.corpus), 500, replace=False))
    system = Meteorograph.build(
        1000, trace.corpus.dim, rng=rng, sample=sample,
        config=MeteorographConfig(),
    )
    system.publish_corpus(trace.corpus.subsample(range(5000)), rng)
    result = system.retrieve(system.random_origin(rng), trace.corpus.vector(3), amount=10)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .core import (
    Meteorograph,
    MeteorographConfig,
    PlacementScheme,
    ReplacementPolicy,
    RangeDirectory,
    NotificationService,
    PublishResult,
    RetrieveResult,
    FindResult,
    Discovery,
    ReplicationManager,
    FirstHopSelector,
    CdfEqualizer,
    Knee,
    HotRegion,
    HotRegionNamer,
    absolute_angle,
    absolute_angles,
    angle_to_key,
)
from .overlay import (
    KeySpace,
    TornadoOverlay,
    ChordOverlay,
    Overlay,
    RouteResult,
    Bootstrap,
)
from .sim import (
    Simulator,
    Network,
    PeerNode,
    StoredItem,
    MetricSink,
    HopHistogram,
    fail_fraction,
)
from .vsm import SparseVector, Corpus, Dictionary, LocalVsmIndex
from .workload import (
    WorldCupParams,
    WorldCupTrace,
    generate_trace,
    trace_statistics,
    keyword_query,
    nth_popular_keyword,
    keyword_ground_truth,
)
from .unstructured import GnutellaOverlay, FreenetOverlay, SubOverlayDirectory

__version__ = "1.0.0"

__all__ = [
    "Meteorograph",
    "MeteorographConfig",
    "PlacementScheme",
    "ReplacementPolicy",
    "RangeDirectory",
    "NotificationService",
    "PublishResult",
    "RetrieveResult",
    "FindResult",
    "Discovery",
    "ReplicationManager",
    "FirstHopSelector",
    "CdfEqualizer",
    "Knee",
    "HotRegion",
    "HotRegionNamer",
    "absolute_angle",
    "absolute_angles",
    "angle_to_key",
    "KeySpace",
    "TornadoOverlay",
    "ChordOverlay",
    "Overlay",
    "RouteResult",
    "Bootstrap",
    "Simulator",
    "Network",
    "PeerNode",
    "StoredItem",
    "MetricSink",
    "HopHistogram",
    "fail_fraction",
    "SparseVector",
    "Corpus",
    "Dictionary",
    "LocalVsmIndex",
    "WorldCupParams",
    "WorldCupTrace",
    "generate_trace",
    "trace_statistics",
    "keyword_query",
    "nth_popular_keyword",
    "keyword_ground_truth",
    "GnutellaOverlay",
    "FreenetOverlay",
    "SubOverlayDirectory",
    "__version__",
]
