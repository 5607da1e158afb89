"""Experiment configuration: YAML schema, validation, and simulator assembly."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import data, learn
from .link import (LinkParams, data_rate, db_to_linear, dbm_to_watts, ring_neighbor_distance,
                   ring_neighbors_visible, tx_duration)
from .orbital import GroundStation, OrbitPlane, max_slant_range, max_visible_latitude
from .protocol import SCHEMES, PlaneState, SatelliteNode, Scheme, WindowCache, _distribution_bits
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

    def validate(self):
        problems = _type_problems(self)
        if problems:
            raise ValidationError("; ".join(problems))
        if self.scheme not in Scheme.__members__:
            problems.append(f"scheme must be one of {sorted(Scheme.__members__)}")
        if not 0 < self.q <= 1:
            problems.append("q must be in (0, 1]")
        if not self.compute_time_s >= 0:
            problems.append("compute_time_s must be non-negative")
        if self.seed < 0:
            problems.append("seed must be non-negative")
        c, gs, t, d = self.constellation, self.ground_station, self.training, self.dataset
        if c.planes < 1 or c.sats_per_plane < 2:
            problems.append("need at least one plane of at least two satellites")
        positive = {
            "constellation.altitude_km": c.altitude_km,
            "link.bandwidth_hz": self.link.bandwidth_hz,
            "link.carrier_hz": self.link.carrier_hz,
            "link.noise_temp_k": self.link.noise_temp_k,
            "training.local_epochs": t.local_epochs,
            "training.batch_size": t.batch_size,
            "training.rounds": t.rounds,
        }
        problems += [f"{key} must be positive" for key, value in positive.items() if not value > 0]
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
        if d.source == "mnist" and not d.mnist_dir:
            problems.append("dataset.mnist_dir is required for dataset.source=mnist")
        if d.source == "synthetic":
            sats = c.planes * c.sats_per_plane
            if d.train_samples < sats:
                problems.append(
                    f"dataset.train_samples must be at least planes * sats_per_plane = {sats}, "
                    "one sample per satellite shard"
                )
            if d.test_samples < 1:
                problems.append("dataset.test_samples must be positive")
        if problems:
            raise ValidationError("; ".join(problems))
        # the geometry checks need the values above to be valid; all planes
        # share altitude and inclination
        plane = build_planes_geometry(self)[0]
        reach_deg = math.degrees(max_visible_latitude(plane, math.radians(gs.min_elevation_deg)))
        if abs(gs.latitude_deg) > reach_deg:
            raise ValidationError(
                f"ground_station.latitude_deg: a station at {gs.latitude_deg:g} deg never sees a "
                f"satellite of planes inclined {c.inclination_deg:g} deg at {c.altitude_km:g} km "
                f"above {gs.min_elevation_deg:g} deg elevation; |latitude| must be at most "
                f"{reach_deg:.2f} deg"
            )
        ring = SCHEMES[Scheme[self.scheme]].ring
        if ring and not ring_neighbors_visible(plane):
            raise ValidationError(
                f"constellation.sats_per_plane: ring of {c.sats_per_plane} satellites at "
                f"{c.altitude_km:g} km: neighbor chord intersects the Earth, no ring can form; "
                "use more satellites per plane or a higher constellation.altitude_km"
            )
        _check_link(self, plane, ring)
        return self


_SECTION_TYPES = {
    "constellation": ConstellationConfig,
    "ground_station": GroundStationConfig,
    "link": LinkParams,
    "training": learn.HyperParams,
    "dataset": DatasetConfig,
}


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
            if not isinstance(value, _SECTION_TYPES[top.name]):
                problems.append(f"section '{top.name}' must be a mapping")
                continue
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
        raise ValidationError(f"unknown {keys}: {sorted(unknown)}")
    return cls(**raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = dict(raw or {})
    for key, value in raw.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ValidationError(f"section '{key}' must be a mapping")
            raw[key] = _build(_SECTION_TYPES[key], value, f"keys in {key}")
    return _build(ExperimentConfig, raw, "top-level keys").validate()


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read a YAML config; top-level `overrides` replace its values before validation."""
    with open(path) as f:
        raw = yaml.safe_load(f)
    if raw is not None and not isinstance(raw, dict):
        raise ValidationError("config document must be a mapping")
    return config_from_dict({**(raw or {}), **overrides})


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
        train = data.load_mnist(
            _find_idx(base, "train-images"), _find_idx(base, "train-labels")
        )
        test = data.load_mnist(_find_idx(base, "t10k-images"), _find_idx(base, "t10k-labels"))
        return train, test
    train = data.synthetic_dataset(
        d.train_samples, seed=cfg.seed, noise_std=d.noise_std, blob_seed=cfg.seed
    )
    test = data.synthetic_dataset(
        d.test_samples, seed=cfg.seed + 1, noise_std=d.noise_std, blob_seed=cfg.seed
    )
    return train, test


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
    """Assemble plane states, shards, and hyperparameters from a config."""
    train, test = load_datasets(cfg)
    num_classes = data.NUM_CLASSES
    feature_dim = train.features.shape[1]
    dim = learn.model_dim(feature_dim, num_classes)

    total_sats = cfg.constellation.planes * cfg.constellation.sats_per_plane
    shards = data.partition(train, total_sats, seed=cfg.seed)
    gs = build_ground_station(cfg)
    size_model = SizeModel(dim)

    k = cfg.constellation.sats_per_plane
    planes = []
    for plane_id, geometry in enumerate(build_planes_geometry(cfg)):
        nodes = [SatelliteNode(shard, ErrorState.zeros(dim))
                 for shard in shards[plane_id * k:(plane_id + 1) * k]]
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

    w0 = learn.init_weights(feature_dim, num_classes)
    return planes, cfg.training, w0, test, size_model
