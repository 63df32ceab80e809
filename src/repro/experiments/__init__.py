"""Experiment harnesses — one ``run_*`` per paper table/figure.

See DESIGN.md §4 for the experiment index mapping each ``run_*`` to its
paper artifact and EXPERIMENTS.md for the recorded paper-vs-measured
comparison.
"""

from .common import RowSet, format_table, default_trace, sample_of, build_system, SCHEME_LABELS
from .workload_stats import run_table1, run_fig6
from .key_cdf import run_fig3, run_fig4, occupancy_stats
from .single_item import run_fig7, DEFAULT_NODE_COUNTS
from .load import run_fig8, load_cdf_at
from .capacity import run_fig9
from .similar import run_fig10a, run_fig10b
from .failures import run_failures
from .crossover import run_crossover
from .ablation import run_overlay_ablation, run_design_ablation, run_firsthop_ablation
from .churn import run_churn
from .repairscale import run_repair_scale
from .proximity import run_proximity
from .maintenance import run_join_cost
from .softstate_exp import run_softstate
from .heterogeneous import run_heterogeneous, run_conjunctions
from .queryload import run_query_load
from .overload import run_overload, storm_cell
from .buildscale import run_build_scale
from .qps import run_qps, qps_cell, qps_storm
from .lshfrontier import run_lsh_frontier
from .chaos import run_chaos, chaos_cell

ALL_EXPERIMENTS = {
    "chaos": run_chaos,
    "buildscale": run_build_scale,
    "lsh": run_lsh_frontier,
    "qps": run_qps,
    "queryload": run_query_load,
    "overload": run_overload,
    "softstate": run_softstate,
    "heterogeneous": run_heterogeneous,
    "conjunctions": run_conjunctions,
    "churn": run_churn,
    "repairscale": run_repair_scale,
    "proximity": run_proximity,
    "joincost": run_join_cost,
    "table1": run_table1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10a": run_fig10a,
    "fig10b": run_fig10b,
    "failures": run_failures,
    "crossover": run_crossover,
    "overlays": run_overlay_ablation,
    "ablation": run_design_ablation,
    "firsthop": run_firsthop_ablation,
}

__all__ = [
    "RowSet",
    "format_table",
    "default_trace",
    "sample_of",
    "build_system",
    "SCHEME_LABELS",
    "run_table1",
    "run_fig6",
    "run_fig3",
    "run_fig4",
    "occupancy_stats",
    "run_fig7",
    "DEFAULT_NODE_COUNTS",
    "run_fig8",
    "load_cdf_at",
    "run_fig9",
    "run_fig10a",
    "run_fig10b",
    "run_failures",
    "run_crossover",
    "run_overlay_ablation",
    "run_design_ablation",
    "run_firsthop_ablation",
    "run_churn",
    "run_repair_scale",
    "run_proximity",
    "run_join_cost",
    "run_softstate",
    "run_heterogeneous",
    "run_conjunctions",
    "run_query_load",
    "run_overload",
    "storm_cell",
    "run_build_scale",
    "run_qps",
    "qps_cell",
    "qps_storm",
    "run_lsh_frontier",
    "run_chaos",
    "chaos_cell",
    "ALL_EXPERIMENTS",
]
