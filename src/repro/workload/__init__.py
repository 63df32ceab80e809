"""Workload synthesis: the World Cup '98-shaped trace, stats, and queries."""

from .zipf import ZipfSampler, zipf_pmf
from .worldcup import WorldCupParams, WorldCupTrace, generate_trace, PAPER_SCALE
from .stats import TraceStats, trace_statistics, basket_size_profile
from .queries import (
    nth_popular_keyword,
    keyword_query,
    item_query,
    multi_keyword_query,
    GroundTruth,
    keyword_ground_truth,
)

__all__ = [
    "ZipfSampler",
    "zipf_pmf",
    "WorldCupParams",
    "WorldCupTrace",
    "generate_trace",
    "PAPER_SCALE",
    "TraceStats",
    "trace_statistics",
    "basket_size_profile",
    "nth_popular_keyword",
    "keyword_query",
    "item_query",
    "multi_keyword_query",
    "GroundTruth",
    "keyword_ground_truth",
]
