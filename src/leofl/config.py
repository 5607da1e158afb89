"""Experiment configuration: YAML schema, validation, and simulator assembly."""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import data, learn
from .link import (LinkParams, data_rate, db_to_linear, dbm_to_watts, ring_neighbor_distance,
                   ring_neighbors_visible, tx_duration)
from .orbital import GroundStation, OrbitPlane, max_slant_range, period_altitude
from .protocol import (SCHEMES, NoWindowError, PlaneState, SatelliteNode, Scheme, WindowCache,
                       _distribution_bits)
from .sparsify import ErrorState, SizeModel


class ValidationError(ValueError):
    """Raised when a configuration document is invalid."""


@dataclass
class ConstellationConfig:
    planes: int = 5
    sats_per_plane: int = 8
    altitude_km: float = 2000.0
    inclination_deg: float = 85.0


@dataclass
class GroundStationConfig:
    latitude_deg: float = 53.08  # Bremen
    longitude_deg: float = 8.80
    min_elevation_deg: float = 10.0


@dataclass
class DatasetConfig:
    source: str = "synthetic"  # "synthetic" | "mnist"
    mnist_dir: str | None = None
    train_samples: int = 20000
    test_samples: int = 4000
    noise_std: float = 0.35


@dataclass
class ExperimentConfig:
    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)
    ground_station: GroundStationConfig = field(default_factory=GroundStationConfig)
    link: LinkParams = field(default_factory=LinkParams)
    training: learn.HyperParams = field(default_factory=learn.HyperParams)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    scheme: str = "SIA"
    q: float = 0.01
    compute_time_s: float = 1.0
    seed: int = 0
    output_dir: str = "runs"


# section name -> the record it builds
_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
                  if f.default_factory is not dataclasses.MISSING}


# annotation -> (accepted types, description); bool is never a number here
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _type_problems(cfg: ExperimentConfig) -> list[str]:
    """One message per field whose value does not have its annotated type or is not finite."""
    problems = []
    for top in dataclasses.fields(cfg):
        value = getattr(cfg, top.name)
        if top.name in _SECTION_TYPES:
            checked = [(f"{top.name}.{f.name}", f.type, getattr(value, f.name))
                       for f in dataclasses.fields(value)]
        else:
            checked = [(top.name, top.type, value)]
        for key, annotation, item in checked:
            accepted, description = _FIELD_TYPES[annotation]
            if isinstance(item, bool) or not isinstance(item, accepted):
                problems.append(f"{key} must be {description}, got {type(item).__name__} {item!r}")
            elif annotation == "float" and not _finite(item):
                problems.append(f"{key} must be finite, got {item!r}")
    return problems


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg` if a run can use it, else a `ValidationError` naming each key it cannot.

    Each satellite's first window is looked up as the run's first round looks it up; a later
    one can still be missing, and a run that meets that stops with `NoWindowError`.
    """
    problems = _type_problems(cfg)
    if problems:
        raise ValidationError("; ".join(problems))
    if cfg.scheme not in Scheme.__members__:
        problems.append(f"scheme must be one of {sorted(Scheme.__members__)}")
    if not 0 < cfg.q <= 1:
        problems.append("q must be in (0, 1]")
    # each ground transfer waits out the compute time and then searches for a
    # window, as the model upload does, so neither may outlast the horizon
    if not 0 <= cfg.compute_time_s <= WindowCache.HORIZON_S:
        problems.append(f"compute_time_s must be in [0, {WindowCache.HORIZON_S:g}] s, "
                        "the window search horizon")
    if cfg.seed < 0:
        problems.append("seed must be non-negative")
    c, gs, t, d = cfg.constellation, cfg.ground_station, cfg.training, cfg.dataset
    if c.planes < 1:
        problems.append("constellation.planes must be at least 1")
    if c.sats_per_plane < 2:
        problems.append("constellation.sats_per_plane must be at least 2")
    positive = {
        "constellation.altitude_km": c.altitude_km,
        "link.bandwidth_hz": cfg.link.bandwidth_hz,
        "link.carrier_hz": cfg.link.carrier_hz,
        "link.noise_temp_k": cfg.link.noise_temp_k,
        "training.local_epochs": t.local_epochs,
        "training.batch_size": t.batch_size,
        "training.rounds": t.rounds,
    }
    problems += [f"{key} must be positive" for key, value in positive.items() if not value > 0]
    # the window search covers several orbital periods at a time, so a
    # period beyond its horizon neither fits in memory nor ends the search
    top_km = period_altitude(WindowCache.HORIZON_S) / 1e3
    if c.altitude_km > top_km:
        problems.append(f"constellation.altitude_km must be at most {top_km:.0f}: a higher "
                        f"orbit's period exceeds the {WindowCache.HORIZON_S:g} s window "
                        "search horizon")
    if not abs(gs.latitude_deg) <= 90:
        problems.append("ground_station.latitude_deg must be in [-90, 90]")
    if not 0 <= gs.min_elevation_deg < 90:
        problems.append("ground_station.min_elevation_deg must be in [0, 90)")
    if not t.learning_rate >= 0:
        problems.append("training.learning_rate must be non-negative")
    if not d.noise_std >= 0:
        problems.append("dataset.noise_std must be non-negative")
    if d.source not in ("synthetic", "mnist"):
        problems.append("dataset.source must be 'synthetic' or 'mnist'")
    out = Path(cfg.output_dir)
    nearest = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        problems.append(f"output_dir {cfg.output_dir!r}: {nearest} is not a writable directory")
    sats = c.planes * c.sats_per_plane
    if d.source == "mnist" and not d.mnist_dir:
        problems.append("dataset.mnist_dir is required for dataset.source=mnist")
    if d.source == "synthetic":
        if d.train_samples < sats:
            problems.append(
                f"dataset.train_samples must be at least planes * sats_per_plane = {sats}, "
                "one sample per satellite shard"
            )
        if d.test_samples < 1:
            problems.append("dataset.test_samples must be positive")
        # a run holds both sets' float64 rows, the bias column included, in memory
        rows, row_bytes = d.train_samples + d.test_samples, (data.FEATURE_DIM + 1) * 8
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # a host that cannot say: no bound
            memory = 0
        if memory > 0 and rows * row_bytes > memory:
            problems.append(f"dataset.train_samples + dataset.test_samples = {rows} rows of "
                            f"{row_bytes} bytes must fit in the {memory} bytes of physical memory")
    if problems:
        raise ValidationError("; ".join(problems))
    # the geometry checks need the values above to be valid
    planes, station = build_planes_geometry(cfg), build_ground_station(cfg)
    for p, geometry in enumerate(planes):
        windows = WindowCache(geometry, station)
        for sat in range(c.sats_per_plane):
            try:
                windows.next_window(sat, 0.0)
            except NoWindowError as exc:
                raise ValidationError(
                    f"ground_station.latitude_deg and ground_station.min_elevation_deg: satellite "
                    f"{sat} of plane {p} never rises {gs.min_elevation_deg:g} deg above a station "
                    f"at latitude {gs.latitude_deg:g} deg in a window search that reached "
                    f"t={exc.reach_s:.0f} s") from None
    plane = planes[0]  # all planes share altitude and inclination
    ring = SCHEMES[Scheme[cfg.scheme]].ring
    if ring and not ring_neighbors_visible(plane):
        raise ValidationError(
            f"constellation.sats_per_plane: ring of {c.sats_per_plane} satellites at "
            f"{c.altitude_km:g} km: neighbor chord intersects the Earth, no ring can form; "
            "use more satellites per plane or a higher constellation.altitude_km"
        )
    _check_link(cfg, plane, ring)
    # the files are read as a run reads them, into the draw its build then reuses;
    # a draw of them under another seed already shows they can be used
    if d.source == "mnist":
        section = dataclasses.astuple(d)
        drawn = [train for (key, _), (train, _) in _drawn.items() if key == section]
        try:
            if drawn:
                _check_shards(cfg, drawn[0])
            else:
                _shared_datasets(cfg)
        except data.IngestionError as exc:
            raise ValidationError(f"dataset.mnist_dir: {exc}") from None
    return cfg


def _check_link(cfg: ExperimentConfig, plane: OrbitPlane, ring: bool):
    """Compute the link budget as a run does and reject, by key, what it cannot use.

    The station rate is taken at the elevation mask: that is the longest range
    a window allows, so the slowest rate any ground transfer sees. At that
    rate the model upload (dense weights plus the sink header) must fit in
    the window search horizon: a slower one stalls the run in the search.
    """
    problems = []
    for key, to_linear in (("tx_power_dbm", dbm_to_watts), ("gain_tx_dbi", db_to_linear),
                           ("gain_rx_dbi", db_to_linear)):
        value = getattr(cfg.link, key)
        try:
            linear = to_linear(value)
        except OverflowError:
            linear = math.inf
        if not 0 < linear < math.inf:
            problems.append(f"link.{key}: {value!r} is {linear!r} as a linear ratio, "
                            "which must be positive and finite")
    if problems:
        raise ValidationError("; ".join(problems))
    station = "the station at the elevation mask"
    ranges = {station: max_slant_range(plane, math.radians(cfg.ground_station.min_elevation_deg))}
    if ring:
        ranges["the ring neighbor"] = ring_neighbor_distance(plane)
    rates = {}
    for what, distance_m in ranges.items():
        try:
            rates[what] = data_rate(cfg.link, distance_m)
        except ArithmeticError:
            rates[what] = math.nan
        if not 0 < rates[what] < math.inf:
            problems.append(f"to {what} ({distance_m / 1e3:.0f} km) is {rates[what]!r} bit/s")
    budget = ", ".join(f"link.{f.name}" for f in dataclasses.fields(LinkParams))
    if problems:
        raise ValidationError(f"link: the rate {' and '.join(problems)}; "
                              f"{budget} must give a positive, finite rate")
    dim = learn.model_dim(data.FEATURE_DIM, data.NUM_CLASSES)
    upload_bits = _distribution_bits(SizeModel(dim), plane.num_sats)
    upload_s = tx_duration(upload_bits, rates[station])
    if upload_s > WindowCache.HORIZON_S:
        raise ValidationError(
            f"link: the rate to {station} is {rates[station]!r} bit/s, so the {upload_bits}-bit "
            f"model upload takes {upload_s:.3g} s, longer than the {WindowCache.HORIZON_S:g} s "
            f"window search horizon; {budget} must give a faster rate")


def _build(cls, raw: dict, keys: str):
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown {keys}: {sorted(unknown, key=str)}")
    return cls(**raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config the document `raw` describes, checked once: the one way to a runnable config."""
    raw = dict(raw or {})
    for key, value in raw.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ValidationError(f"section '{key}' must be a mapping")
            raw[key] = _build(_SECTION_TYPES[key], value, f"keys in {key}")
    return _validate(_build(ExperimentConfig, raw, "top-level keys"))


def load_config(path: str | Path) -> dict:
    """The YAML config document at `path`, not yet validated; `config_from_dict` validates it."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ValidationError(f"cannot read config {path}: {' '.join(str(exc).split())}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ValidationError(f"cannot read config {path}: the document is not a mapping")
    return raw or {}


def set_keys(raw: dict, keys: dict) -> dict:
    """A copy of the config document `raw` with each dotted key (`constellation.planes`) set."""
    raw = dict(raw)
    for key, value in keys.items():
        section, dot, name = key.partition(".")
        if dot:
            table = raw.get(section, {})
            if not isinstance(table, dict):
                raise ValidationError(f"section '{section}' must be a mapping to set {key}")
            value = {**table, name: value}
        raw[section] = value
    return raw


def build_ground_station(cfg: ExperimentConfig) -> GroundStation:
    gs = cfg.ground_station
    return GroundStation(
        latitude_rad=math.radians(gs.latitude_deg),
        longitude_rad=math.radians(gs.longitude_deg),
        min_elevation_rad=math.radians(gs.min_elevation_deg),
    )


def build_planes_geometry(cfg: ExperimentConfig) -> list[OrbitPlane]:
    """Walker-star geometry: ascending nodes evenly spread over 180 degrees."""
    c = cfg.constellation
    return [
        OrbitPlane(
            altitude_m=c.altitude_km * 1e3,
            inclination_rad=math.radians(c.inclination_deg),
            raan_rad=p * math.pi / c.planes,
            num_sats=c.sats_per_plane,
        )
        for p in range(c.planes)
    ]


def load_datasets(cfg: ExperimentConfig) -> tuple[data.Dataset, data.Dataset]:
    d = cfg.dataset
    if d.source == "mnist":
        base = Path(d.mnist_dir)
        train = data.load_mnist(_find_idx(base, "train-images"), _find_idx(base, "train-labels"))
        test = data.load_mnist(_find_idx(base, "t10k-images"), _find_idx(base, "t10k-labels"))
        return train, test
    train = data.synthetic_dataset(
        d.train_samples, seed=cfg.seed, noise_std=d.noise_std, blob_seed=cfg.seed
    )
    test = data.synthetic_dataset(
        d.test_samples, seed=cfg.seed + 1, noise_std=d.noise_std, blob_seed=cfg.seed
    )
    return train, test


# the one (dataset section, seed) whose sets were drawn last, and those sets
_drawn: dict[tuple, tuple[data.Dataset, data.Dataset]] = {}


def _shared_datasets(cfg: ExperimentConfig) -> tuple[data.Dataset, data.Dataset]:
    """The shuffled training set and the test set, built once per (dataset section, seed).

    The training set is shuffled where it was loaded, so a build holds one copy
    of each set. Builds that differ only in the constellation, the scheme or q,
    as the cells of a sweep do, share one read-only draw. The last draw is
    dropped before the next one is made. The sample count depends on the
    constellation, not on the key, so it is checked on every call.
    """
    key = (dataclasses.astuple(cfg.dataset), cfg.seed)
    if key not in _drawn:
        _drawn.clear()
        train, test = load_datasets(cfg)
        data.shuffle(train, cfg.seed)
        for array in (train.rows, train.labels, test.rows, test.labels):
            array.flags.writeable = False
        _drawn[key] = train, test
    train, test = _drawn[key]
    if cfg.dataset.source == "mnist":
        _check_shards(cfg, train)
    return train, test


def _check_shards(cfg: ExperimentConfig, train: data.Dataset):
    """Raise unless the loaded MNIST training set gives every satellite a sample."""
    sats = cfg.constellation.planes * cfg.constellation.sats_per_plane
    if len(train) < sats:
        raise data.IngestionError(
            f"{_find_idx(Path(cfg.dataset.mnist_dir), 'train-images')}: {len(train)} training "
            f"samples, fewer than planes * sats_per_plane = {sats}, one per satellite shard"
        )


def _find_idx(base: Path, stem: str) -> Path:
    for suffix in ("idx3-ubyte", "idx1-ubyte"):
        for ext in ("", ".gz"):
            candidate = base / f"{stem}-{suffix}{ext}"
            if candidate.exists():
                return candidate
    raise data.IngestionError(
        f"no IDX file matching '{stem}-*' under {base}; expected e.g. {stem}-idx3-ubyte[.gz]"
    )


def build_simulation(cfg: ExperimentConfig):
    """Assemble plane states, shards, and hyperparameters from a config.

    The datasets are shared, read-only, with every build of the same dataset
    section and seed in this process. Every node starts from one shared,
    read-only zero residual.
    """
    train, test = _shared_datasets(cfg)
    dim = learn.model_dim(data.FEATURE_DIM, data.NUM_CLASSES)

    total_sats = cfg.constellation.planes * cfg.constellation.sats_per_plane
    shards = data.partition(train, total_sats)
    gs = build_ground_station(cfg)
    size_model = SizeModel(dim)

    start = ErrorState.zeros(dim)  # every node's, until its first step replaces it
    start.residual.flags.writeable = False
    k = cfg.constellation.sats_per_plane
    planes = []
    for plane_id, geometry in enumerate(build_planes_geometry(cfg)):
        nodes = [SatelliteNode(shard, start) for shard in shards[plane_id * k:(plane_id + 1) * k]]
        planes.append(
            PlaneState(
                plane_id=plane_id,
                plane=geometry,
                gs=gs,
                params=cfg.link,
                size_model=size_model,
                nodes=nodes,
                compute_time_s=cfg.compute_time_s,
                seed=cfg.seed,
            )
        )

    w0 = learn.init_weights(data.FEATURE_DIM, data.NUM_CLASSES)
    return planes, cfg.training, w0, test, size_model
