"""Experiment drivers: single runs, the satellites-per-plane sweep, and export."""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, build_simulation
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


@dataclass
class MetricsLog:
    config: ExperimentConfig
    rows: list[MetricsRow] = field(default_factory=list)


def run_experiment(
    cfg: ExperimentConfig,
    max_rounds: int | None = None,
    progress=None,
) -> MetricsLog:
    """Run the configured number of global iterations and collect metrics; `progress(row)`,
    if given, sees each row as it is logged."""
    cfg.validate()
    planes, hp, w, test_set, size_model = build_simulation(cfg)
    scheme = Scheme[cfg.scheme]
    q_count = q_to_count(cfg.q, size_model.dim)
    rounds = hp.rounds if max_rounds is None else max_rounds

    log = MetricsLog(config=cfg)
    t = 0.0
    cum_bits = 0
    for n in range(1, rounds + 1):
        w, metrics, t = run_global_iteration(
            planes, scheme, w, hp, t, n, q_count, test_set
        )
        cum_bits += metrics.total_bits
        log.rows.append(MetricsRow(n, t, metrics.accuracy, metrics.total_bits, cum_bits))
        if progress is not None:
            progress(log.rows[-1])
    return log


@dataclass
class SweepRow:
    sats_per_plane: int
    q: float
    scheme: str
    mean_bits_per_iteration: float


SWEEP_WARMUP = 1  # leading iterations a sweep discards; see run_sweep


def run_sweep(
    base_cfg: ExperimentConfig,
    kp_values: list[int],
    q_values: list[float],
    iterations: int,
    schemes: tuple[str, ...] = ("SIA", "CLSIA", "NO_ISL_DIRECT"),
) -> list[SweepRow]:
    """Steady-state data volume per iteration for a single-plane constellation.

    The first SWEEP_WARMUP iterations are discarded: with empty error states
    the sparse message sizes are not yet typical of the steady state.
    """
    rows = []
    for kp in kp_values:
        for q in q_values:
            for scheme in schemes:
                cfg = dataclasses.replace(
                    base_cfg,
                    constellation=dataclasses.replace(
                        base_cfg.constellation, planes=1, sats_per_plane=kp
                    ),
                    scheme=scheme,
                    q=q,
                )
                log = run_experiment(cfg, max_rounds=iterations)
                kept = log.rows[SWEEP_WARMUP:]
                mean_bits = sum(r.plane_bits for r in kept) / len(kept)
                rows.append(SweepRow(kp, q, scheme, mean_bits))
    return rows


def export(log: MetricsLog, out_dir: str | Path, name: str = "run") -> tuple[Path, Path]:
    """Write the metrics CSV and a JSON manifest sufficient to reproduce the run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in log.rows:
            writer.writerow(
                [row.iteration, repr(row.time_s), repr(row.accuracy), row.plane_bits, row.cum_bits]
            )
    manifest_path = out / f"{name}.manifest.json"
    manifest = {
        "config": dataclasses.asdict(log.config),
        "seed": log.config.seed,
        "code_version": __version__,
        "iterations": len(log.rows),
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path, manifest_path


def export_sweep(rows: list[SweepRow], out_dir: str | Path, name: str = "sweep") -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    ordered = sorted(rows, key=lambda r: (r.sats_per_plane, r.q, r.scheme))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sats_per_plane", "q", "scheme", "mean_bits_per_iteration"])
        for r in ordered:
            writer.writerow([r.sats_per_plane, r.q, r.scheme, repr(r.mean_bits_per_iteration)])
    return path
