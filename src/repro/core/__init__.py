"""Meteorograph core: angles, naming, load balance, publish/search, system facade."""

from .angles import (
    RIGHT_ANGLE,
    absolute_angle,
    absolute_angle_from_arrays,
    absolute_angles,
    angle_bounds,
    axis_angles,
)
from .naming import CdfEqualizer, Knee, angle_to_key, corpus_to_keys, vector_to_key
from .knees import (
    PAPER_REMAP_KNEES,
    empirical_cdf,
    equalizer_from_sample,
    fit_knees,
    paper_equalizer,
)
from .loadbalance import (
    PAPER_HOT_REGIONS,
    HotRegion,
    HotRegionNamer,
    detect_hot_regions,
    paper_hot_regions,
    uniform_namer,
)
from .publish import PublishResult, ReplacementPolicy, run_displacement_chain
from .search import (
    Discovery,
    FindResult,
    RetrieveResult,
    find_item,
    retrieve,
    retrieve_with_pointers,
)
from .search_batch import retrieve_many
from .firsthop import FirstHopSelector
from .directory import publish_pointer
from .replication import ReplicaRecord, ReplicationManager
from .meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from .ranges import AttributeSpec, RangeDirectory, RangeQueryResult
from .notify import NotificationService, Subscription, Notification
from .softstate import SoftStateManager, OwnedItem

__all__ = [
    "RIGHT_ANGLE",
    "absolute_angle",
    "absolute_angle_from_arrays",
    "absolute_angles",
    "angle_bounds",
    "axis_angles",
    "CdfEqualizer",
    "Knee",
    "angle_to_key",
    "corpus_to_keys",
    "vector_to_key",
    "PAPER_REMAP_KNEES",
    "empirical_cdf",
    "equalizer_from_sample",
    "fit_knees",
    "paper_equalizer",
    "PAPER_HOT_REGIONS",
    "HotRegion",
    "HotRegionNamer",
    "detect_hot_regions",
    "paper_hot_regions",
    "uniform_namer",
    "PublishResult",
    "ReplacementPolicy",
    "run_displacement_chain",
    "Discovery",
    "FindResult",
    "RetrieveResult",
    "find_item",
    "retrieve",
    "retrieve_many",
    "retrieve_with_pointers",
    "FirstHopSelector",
    "publish_pointer",
    "ReplicaRecord",
    "ReplicationManager",
    "Meteorograph",
    "MeteorographConfig",
    "PlacementScheme",
    "AttributeSpec",
    "RangeDirectory",
    "RangeQueryResult",
    "NotificationService",
    "Subscription",
    "Notification",
    "SoftStateManager",
    "OwnedItem",
]
