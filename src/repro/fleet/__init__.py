"""Fleet-scale device-population simulation.

The paper's harness replays traces for *one* device; the north star is
millions of users.  This package samples a whole *population* of devices —
each a (platform variant × regime × app mix × thermal curve × ambient ×
optional fault condition) draw from configurable weighted distributions —
and answers population-level questions: per-scheme energy/QoS percentiles
(p50/p95/p99), tail throttle residency, and which slice of the fleet a
scheme helps or hurts.

Sampling is deterministic and worker-count independent: every device is an
independent :func:`repro.utils.stable_seed`-derived draw, so device ``i``
of fleet ``(name, seed)`` is the same device on any machine, for any
``--jobs`` value, in any sampling order.  Evaluation shards devices across
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` workers,
reads each device's per-scheme cells, and merges their overall
:class:`~repro.runtime.metrics.StreamingAggregator` folds into population
aggregates via the first-class ``merge`` op, which is bit-identical to a
single sequential fold for any shard boundaries.
"""

from repro.fleet.metrics import percentile, percentile_block
from repro.fleet.population import (
    DevicePopulation,
    FleetSpec,
    get_fleet_preset,
    list_fleet_presets,
)
from repro.fleet.runner import (
    FleetRunner,
    fleet_to_payload,
    load_fleet_results,
    write_fleet_results,
)

__all__ = [
    "DevicePopulation",
    "FleetRunner",
    "FleetSpec",
    "fleet_to_payload",
    "get_fleet_preset",
    "list_fleet_presets",
    "load_fleet_results",
    "percentile",
    "percentile_block",
    "write_fleet_results",
]
