"""Evaluate a device population and fold it into population aggregates.

:class:`FleetRunner` turns each sampled :class:`~repro.fleet.population.Device`
into one scenario cell and fans every (device × scheme × trace) job through
the :class:`~repro.scenarios.runner.ScenarioRunner` /
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` machinery
(with setup sharing, so a 200-device fleet builds one simulator per distinct
hardware configuration).  Each device's per-scheme aggregate is the overall
:class:`~repro.runtime.metrics.StreamingAggregator` of its matrix cell.
Population aggregates are the first-class ``merge`` of those cells in device
order — bit-identical to a single sequential fold for any sharding, which
is what keeps ``FLEET_*.json`` byte-identical across ``--jobs`` values.

Crash tolerance rides the same :class:`~repro.scenarios.checkpoint.ShardJournal`
machinery as the fault search: every session is journaled the moment it
folds, and ``resume=True`` restores journaled sessions instead of
re-simulating them — artefact and journal stay byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.fleet.metrics import mean_or_none, percentile_block, win_loss
from repro.fleet.population import Device, DevicePopulation, FleetSpec
from repro.runtime.metrics import StreamingAggregator
from repro.scenarios.checkpoint import ArtefactError, ShardJournal
from repro.scenarios.runner import ScenarioRunner
from repro.utils import write_json_atomic
from repro.webapp.apps import AppCatalog


@dataclass
class FleetResult:
    """Everything one fleet evaluation produced.

    ``device_aggregates`` holds one streaming aggregator per (device
    index, scheme): the overall fold of that device's matrix cell;
    ``population`` holds their in-order merge per scheme.
    """

    fleet: FleetSpec
    devices: list[Device]
    device_aggregates: dict[tuple[int, str], StreamingAggregator]
    population: dict[str, StreamingAggregator]

    def device_metrics(self, index: int, scheme: str) -> dict:
        """One device's per-scheme metric row (``None`` = untracked/n-a)."""
        agg = self.device_aggregates[(index, scheme)]
        metrics = agg.finalize()
        thermal = agg.finalize_thermal()
        base = self.device_aggregates[(index, self.fleet.baseline)].total_energy_mj
        return {
            "energy_mj": metrics.total_energy_mj,
            "qos_violation_rate": metrics.qos_violation_rate,
            "mean_latency_ms": metrics.mean_latency_ms,
            "throttle_residency": None if thermal is None else thermal.throttle_residency,
            "peak_temperature_c": None if thermal is None else thermal.peak_temperature_c,
            "normalised_energy": (
                metrics.total_energy_mj / base if base > 0 else None
            ),
        }


@dataclass
class FleetRunner:
    """Samples a fleet and evaluates it with sharded, mergeable aggregation."""

    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int = 1
    train_traces_per_app: int = 4
    train_seed: int = 0

    def run(
        self,
        fleet: FleetSpec,
        *,
        learner: EventSequenceLearner | None = None,
        shards: ShardJournal | None = None,
        resume: bool = False,
    ) -> FleetResult:
        """Evaluate every device of the fleet under every scheme.

        Any ``jobs`` value produces bit-identical aggregates: sessions fold
        into their device's cells in deterministic global order, and the
        population merge runs in device order over exact-sum
        accumulators.  With a ``shards`` journal the run is
        resumable mid-device (see :class:`~repro.scenarios.checkpoint.ShardJournal`).
        """
        population = DevicePopulation(fleet)
        devices = population.devices()
        specs = [device.to_scenario_spec(fleet) for device in devices]
        runner = ScenarioRunner(
            catalog=self.catalog,
            jobs=self.jobs,
            train_traces_per_app=self.train_traces_per_app,
            train_seed=self.train_seed,
            share_setups=True,
        )
        cells = runner.run_cells(specs, learner=learner, shards=shards, resume=resume)
        device_aggregates = {
            (index, scheme): cells[spec.name][scheme].overall
            for index, spec in enumerate(specs)
            for scheme in fleet.schemes
        }
        population_aggregates = {scheme: StreamingAggregator() for scheme in fleet.schemes}
        for (_, scheme), aggregate in device_aggregates.items():
            population_aggregates[scheme].merge(aggregate)
        return FleetResult(
            fleet=fleet,
            devices=devices,
            device_aggregates=device_aggregates,
            population=population_aggregates,
        )


# -- result artefacts ------------------------------------------------------------------


def fleet_to_payload(result: FleetResult) -> dict:
    """The JSON payload of a fleet run (schema of ``FLEET_*.json``).

    A pure function of the results — like the scenario artefacts, the
    worker count is deliberately not recorded (``"jobs": null``), so
    ``--jobs 1`` and ``--jobs 4`` write byte-identical files.
    """
    fleet = result.fleet
    metric_names = (
        "energy_mj",
        "qos_violation_rate",
        "mean_latency_ms",
        "throttle_residency",
    )
    # (device index, scheme) -> metric row, built once for the device rows,
    # the population percentiles and the slice blocks.
    metric_rows = {
        (device.index, scheme): result.device_metrics(device.index, scheme)
        for device in result.devices
        for scheme in fleet.schemes
    }

    def values(indices: Sequence[int], scheme: str, name: str) -> list[float]:
        """One metric of these devices under ``scheme``, in device order, n/a left out."""
        rows = (metric_rows[(index, scheme)] for index in indices)
        return [row[name] for row in rows if row[name] is not None]

    device_rows: list[dict] = []
    # slice -> device indices, first-seen (device-order) slices.
    slice_members: dict[str, list[int]] = {}
    for device in result.devices:
        slice_label = device.slice_key(fleet.slice_by)
        slice_members.setdefault(slice_label, []).append(device.index)
        row = device.to_dict()
        row["slice"] = slice_label
        row["schemes"] = {scheme: metric_rows[(device.index, scheme)] for scheme in fleet.schemes}
        device_rows.append(row)

    def scheme_blocks(indices: Sequence[int]) -> dict[str, dict]:
        blocks: dict[str, dict] = {}
        for scheme in fleet.schemes:
            ratios = values(indices, scheme, "normalised_energy")
            blocks[scheme] = {
                "energy_mj": percentile_block(values(indices, scheme, "energy_mj")),
                "qos_violation_rate": percentile_block(
                    values(indices, scheme, "qos_violation_rate")
                ),
                "throttle_residency": percentile_block(
                    values(indices, scheme, "throttle_residency")
                ),
                "mean_normalised_energy": mean_or_none(ratios),
                **win_loss(ratios),
            }
        return blocks

    every_device = [device.index for device in result.devices]
    population_block: dict[str, dict] = {}
    for scheme, aggregator in result.population.items():
        thermal = aggregator.finalize_thermal()
        faults = aggregator.finalize_faults()
        population_block[scheme] = {
            "overall": asdict(aggregator.finalize()),
            "thermal": thermal.to_dict() if thermal is not None else None,
            "faults": faults.to_dict() if faults is not None else None,
            "percentiles": {
                name: percentile_block(values(every_device, scheme, name))
                for name in metric_names
            },
        }

    return {
        "fleet": fleet.to_dict(),
        "jobs": None,
        "n_devices": len(result.devices),
        "n_sessions": sum(agg.n_sessions for agg in result.population.values()),
        "population": population_block,
        "slices": {
            label: {
                "n_devices": len(indices),
                "schemes": scheme_blocks(indices),
            }
            for label, indices in slice_members.items()
        },
        "devices": device_rows,
    }


def write_fleet_results(result: FleetResult, path: str | Path) -> Path:
    """Atomically write a ``FLEET_*.json`` artefact (fsync + ``os.replace``)."""
    return write_json_atomic(fleet_to_payload(result), path)


def load_fleet_results(path: str | Path) -> dict:
    """Read a ``FLEET_*.json`` artefact back as its payload dict.

    Raises :class:`~repro.scenarios.checkpoint.ArtefactError` naming the
    file when it cannot be read, with the parse position on corrupt or
    truncated files, and naming the first missing top-level key
    ``fleet report`` reads on any other JSON.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ArtefactError(f"fleet artefact {path} cannot be read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtefactError(
            f"fleet artefact {path} is corrupt or truncated: {exc.msg} at "
            f"line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from exc
    for key in ("fleet", "n_devices", "n_sessions", "population", "slices"):
        if not isinstance(payload, dict) or key not in payload:
            raise ArtefactError(f"fleet artefact {path} has no {key!r} key")
    return payload
