"""Meteorograph core: angles, naming, load balance, publish/search, system facade."""

from .angles import (
    RIGHT_ANGLE,
    absolute_angle,
    absolute_angle_from_arrays,
    absolute_angles,
)
from .naming import CdfEqualizer, Knee, angle_to_key, corpus_to_keys
from .knees import empirical_cdf, equalizer_from_sample, fit_knees
from .loadbalance import HotRegion, HotRegionNamer, detect_hot_regions, uniform_namer
from .publish import (
    PublishResult,
    ReplacementPolicy,
    publish_pointer,
    run_displacement_chain,
)
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
from .replication import ReplicationManager
from .meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from .ranges import AttributeSpec, RangeDirectory, RangeQueryResult
from .notify import NotificationService, Subscription, Notification
from .softstate import SoftStateManager, OwnedItem

__all__ = [
    "RIGHT_ANGLE",
    "absolute_angle",
    "absolute_angle_from_arrays",
    "absolute_angles",
    "CdfEqualizer",
    "Knee",
    "angle_to_key",
    "corpus_to_keys",
    "empirical_cdf",
    "equalizer_from_sample",
    "fit_knees",
    "HotRegion",
    "HotRegionNamer",
    "detect_hot_regions",
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
