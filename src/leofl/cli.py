"""Command-line interface: run, sweep, windows, validate."""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from .config import (ExperimentConfig, ValidationError, build_ground_station,
                     build_planes_geometry, config_from_dict, load_config, set_keys)
from .data import IngestionError
from .harness import DEFAULT_AXES, export, export_sweep, run_experiment, run_sweep
from .protocol import NoWindowError, WindowCache

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INGESTION = 3


def _document(args) -> dict:
    """The config document (`--config`, else empty) with the key each flag given sets."""
    keys = {key: getattr(args, dest) for dest, (key, _) in _KEY_FLAGS.items()
            if getattr(args, dest, None) is not None}
    return set_keys(load_config(args.config) if args.config else {}, keys)


def _cmd_run(args) -> int:
    cfg = config_from_dict(_document(args))
    def progress(row):
        print(f"iter {row.iteration}: t={row.time_s:.1f} s  acc={row.accuracy:.4f}  "
              f"bits={row.plane_bits}")
    rows = run_experiment(cfg, progress=progress if args.verbose else None)
    csv_path, manifest_path = export(cfg, rows, cfg.output_dir, name=args.name)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base, axes = _document(args), args.axis or DEFAULT_AXES
    rows = run_sweep(base, axes)
    # every cell was valid and no axis sets output_dir, so the document's is valid
    out = base.get("output_dir", ExperimentConfig.output_dir)
    print(f"wrote {export_sweep(axes, rows, out, name=args.name)}")
    return EXIT_OK


def _cmd_windows(args) -> int:
    cfg = config_from_dict(_document(args))
    planes = build_planes_geometry(cfg)
    if not 0 <= args.plane < len(planes):
        raise ValidationError(
            f"--plane {args.plane}: the constellation has planes 0 to {len(planes) - 1}")
    span_s = args.hours * 3600.0
    # the windows a run reads: the plane's cache, searched chunk by chunk past the span
    cache = WindowCache(planes[args.plane], build_ground_station(cfg))
    cache.extend(span_s)
    for sat, windows in enumerate(cache.windows):
        for start, end in [(w.start_s, min(w.end_s, span_s))
                           for w in windows if w.start_s < span_s]:
            print(f"plane {args.plane} sat {sat}: {start/3600:.3f} h -> {end/3600:.3f} h "
                  f"({end - start:.0f} s): {start!r} s -> {end!r} s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config_from_dict(_document(args))
    print("config OK")
    return EXIT_OK


def _hours(text: str) -> float:
    """A positive number of hours, at most the simulator's own window search horizon."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    limit = WindowCache.HORIZON_S / 3600.0
    if not 0 < value <= limit:
        raise argparse.ArgumentTypeError(f"must be in (0, {limit:g}], got {value}")
    return value


def _stem(text: str) -> str:
    """An output file stem: a name in the output directory, not a path into or out of it."""
    if text in ("", ".", "..") or any(sep in text for sep in (os.sep, os.altsep) if sep):
        raise argparse.ArgumentTypeError(f"must be a file name without a directory, got {text!r}")
    return text


class _Axis(argparse.Action):
    """Repeated `--axis KEY=V1,V2,...` as {key: values}, each value read as a YAML scalar."""

    def __call__(self, parser, namespace, text, option_string=None):
        axes = getattr(namespace, self.dest) or {}
        key, eq, values = text.partition("=")
        if not key or not eq:
            raise argparse.ArgumentError(self, f"expected KEY=V1,V2,..., got {text!r}")
        if key in axes:
            raise argparse.ArgumentError(self, f"{key} is given twice")
        if key == "output_dir":
            raise argparse.ArgumentError(self, "output_dir: a sweep writes one file; use --out")
        try:
            axes[key] = [yaml.safe_load(value) for value in values.split(",")]
        except yaml.YAMLError:
            raise argparse.ArgumentError(self, f"{key}: not YAML scalars: {values!r}") from None
        setattr(namespace, self.dest, axes)


# each flag that sets a config key, by argparse dest: the key and the flag's options
_KEY_FLAGS = {
    "scheme": ("scheme", {"help": "aggregation scheme"}),
    "q": ("q", {"type": float, "help": "sparsification ratio in (0, 1]"}),
    "seed": ("seed", {"type": int}),
    "out": ("output_dir", {"help": "output directory"}),
    "rounds": ("training.rounds", {"type": int, "help": "global iterations"}),
    "iterations": ("training.rounds", {"type": int, "default": 11}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leofl")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *dests):
        p.add_argument("--config", help="YAML experiment config")
        for dest in dests:
            p.add_argument(f"--{dest}", **_KEY_FLAGS[dest][1])

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run, "scheme", "q", "seed", "out", "rounds")
    p_run.add_argument("--name", type=_stem, default="run", help="output file stem")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    # scheme and q are axes of the sweep (the default grid sets both), not flags
    p_sweep = sub.add_parser("sweep", help="data-volume sweep over config keys")
    common(p_sweep, "seed", "out", "iterations")
    p_sweep.add_argument("--axis", action=_Axis, metavar="KEY=V1,V2,...", help="a dotted config "
                         "key and its values; repeatable (default: harness.DEFAULT_AXES)")
    p_sweep.add_argument("--name", type=_stem, default="sweep", help="output file stem")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_win = sub.add_parser("windows", help="print visibility windows for debugging")
    common(p_win, "scheme")
    p_win.add_argument("--plane", type=int, default=0)
    p_win.add_argument("--hours", type=_hours, default=24.0)
    p_win.set_defaults(func=_cmd_windows)

    p_val = sub.add_parser("validate", help="check a config file")
    common(p_val, "scheme", "q", "seed")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IngestionError as exc:
        print(f"dataset ingestion failed: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except NoWindowError as exc:
        print("invalid configuration: ground_station.latitude_deg and "
              f"ground_station.min_elevation_deg: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
