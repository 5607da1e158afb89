"""Experiment drivers: single runs, sweeps over config keys, and export."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .config import (ExperimentConfig, ValidationError, build_simulation, config_from_dict,
                     set_keys)
from .protocol import Scheme, run_global_iteration
from .sparsify import q_to_count

CSV_HEADER = ["iter", "time_s", "accuracy", "plane_bits", "cum_bits"]


@dataclass
class MetricsRow:
    iteration: int
    time_s: float
    accuracy: float
    plane_bits: int
    cum_bits: int


def run_experiment(cfg: ExperimentConfig, progress=None) -> list[MetricsRow]:
    """Run `cfg.training.rounds` global iterations of `cfg`, a config from `config_from_dict`,
    and return one row per iteration; `progress(row)`, if given, sees each row as it is logged."""
    planes, hp, w, test_set, size_model = build_simulation(cfg)
    scheme = Scheme[cfg.scheme]
    q_count = q_to_count(cfg.q, size_model.dim)

    rows = []
    t, cum_bits = 0.0, 0
    for n in range(1, hp.rounds + 1):
        w, metrics, t = run_global_iteration(planes, scheme, w, hp, t, n, q_count, test_set)
        cum_bits += metrics.total_bits
        rows.append(MetricsRow(n, t, metrics.accuracy, metrics.total_bits, cum_bits))
        if progress is not None:
            progress(rows[-1])
    return rows


SWEEP_WARMUP = 1  # leading iterations a sweep discards; see run_sweep

# the satellites-per-plane sweep of one ring; cells in product order, last axis fastest
DEFAULT_AXES = {
    "constellation.planes": [1],
    "constellation.sats_per_plane": list(range(8, 29, 2)),
    "q": [0.01, 0.1],
    "scheme": ["CLSIA", "NO_ISL_DIRECT", "SIA"],
}


def run_sweep(base: dict, axes: dict[str, list]) -> list[tuple]:
    """Steady-state data volume per iteration over the product of `axes`.

    `axes` maps dotted config keys to values; each cell is the config
    document `base` with those keys set. Only the cells are validated, every
    one before any cell runs. A row holds the cell's values in axis order,
    then the mean bits per iteration. The first SWEEP_WARMUP iterations are
    discarded: with empty error states the sparse message sizes are not yet
    typical of the steady state.
    """
    cells = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    configs = []
    for cell in cells:
        try:
            cfg = config_from_dict(set_keys(base, cell))
            if cfg.training.rounds <= SWEEP_WARMUP:
                raise ValidationError(f"training.rounds must be at least {SWEEP_WARMUP + 1}: the "
                                      f"mean leaves out the first SWEEP_WARMUP = {SWEEP_WARMUP}")
        except ValidationError as exc:
            named = ", ".join(f"{key}={value!r}" for key, value in cell.items())
            raise ValidationError(f"sweep cell {named}: {exc}") from None
        configs.append(cfg)
    rows = []
    for cell, cfg in zip(cells, configs):
        kept = run_experiment(cfg)[SWEEP_WARMUP:]
        rows.append((*cell.values(), sum(r.plane_bits for r in kept) / len(kept)))
    return rows


def _write_csv(path: Path, header: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export(cfg: ExperimentConfig, rows: list[MetricsRow], out_dir: str | Path,
           name: str = "run") -> tuple[Path, Path]:
    """Write the metrics CSV of the run of `cfg` and a JSON manifest sufficient to reproduce it."""
    out = Path(out_dir)
    csv_path = _write_csv(out / f"{name}.csv", CSV_HEADER, map(dataclasses.astuple, rows))
    manifest_path = out / f"{name}.manifest.json"
    manifest = {
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
        "iterations": len(rows),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return csv_path, manifest_path


def export_sweep(axes: dict, rows: list[tuple], out_dir: str | Path, name: str = "sweep") -> Path:
    """Write the sweep rows, in cell order, under a header of the axis keys."""
    return _write_csv(Path(out_dir) / f"{name}.csv", [*axes, "mean_bits_per_iteration"], rows)
