"""One experiment module per paper figure/table.

Each module exposes ``run(quick=False, seed=1, ...) -> ExperimentResult``
with defaults matching the paper's configuration (scaled stream lengths
— see EXPERIMENTS.md). ``EXPERIMENTS`` maps CLI names to runners; the
``obs``, ``audit`` and ``trace`` overhead budgets are one module,
``overhead``, bound to each plane.
"""

from functools import partial
from typing import Any, Callable, Dict

from . import (
    ablation_conservative,
    ablation_deferred,
    ablation_model_fit,
    ablation_error_window,
    ablation_hashing,
    fig05_optimal_clock_activeness,
    fig06_accuracy_activeness,
    fig07_stability_activeness,
    fig08_window_activeness,
    fig09_cardinality,
    fig10_timespan,
    fig11_size,
    fig12_throughput_activeness,
    batch_throughput,
    fig13_cache_hitrate,
    fig13x_cache_policies,
    overhead,
    serve_throughput,
    shard_scaling,
    table3_throughput,
)

EXPERIMENTS: "Dict[str, Callable[..., Any]]" = {
    "fig5": fig05_optimal_clock_activeness.run,
    "fig6": fig06_accuracy_activeness.run,
    "fig7": fig07_stability_activeness.run,
    "fig8": fig08_window_activeness.run,
    "fig9": fig09_cardinality.run,
    "fig10": fig10_timespan.run,
    "fig11": fig11_size.run,
    "fig12": fig12_throughput_activeness.run,
    "fig13": fig13_cache_hitrate.run,
    "fig13x": fig13x_cache_policies.run,
    "table3": table3_throughput.run,
    "batch": batch_throughput.run,
    "obs": partial(overhead.run, "obs"),
    "serve": serve_throughput.run,
    "shard": shard_scaling.run,
    "audit": partial(overhead.run, "audit"),
    "trace": partial(overhead.run, "trace"),
    "ablation1": ablation_error_window.run,
    "ablation2": ablation_hashing.run,
    "ablation3": ablation_deferred.run,
    "ablation4": ablation_model_fit.run,
    "ablation5": ablation_conservative.run,
}

__all__ = ["EXPERIMENTS"]
