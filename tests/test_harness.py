import csv
import dataclasses
import gzip
import itertools
import math
import re
import signal
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from leofl import cli, config, data, harness
from leofl.cli import EXIT_INGESTION, EXIT_OK, EXIT_VALIDATION, build_parser, main
from leofl.config import (
    _SECTION_TYPES,
    ExperimentConfig,
    ValidationError,
    build_simulation,
    config_from_dict,
    load_config,
    load_datasets,
    set_keys,
)
from leofl.data import IngestionError
from leofl.harness import (
    CSV_HEADER,
    SWEEP_WARMUP,
    MetricsRow,
    export,
    run_experiment,
    run_sweep,
)
from leofl.link import LinkParams
from leofl.protocol import Scheme, run_global_iteration
from leofl.sparsify import q_to_count
from test_data import overstate_idx_count, write_idx_images, write_idx_labels


README = Path(__file__).resolve().parents[1] / "README.md"

# each of these passed `leofl validate` and then failed mid-run or trained nothing
NON_FINITE = [
    ({"constellation": {"inclination_deg": float("nan")}}, "constellation.inclination_deg"),
    ({"ground_station": {"longitude_deg": float("nan")}}, "ground_station.longitude_deg"),
    ({"link": {"tx_power_dbm": float("nan")}}, "link.tx_power_dbm"),
    ({"link": {"gain_rx_dbi": float("-inf")}}, "link.gain_rx_dbi"),
    ({"compute_time_s": float("inf")}, "compute_time_s"),
    ({"training": {"learning_rate": float("inf")}}, "training.learning_rate"),
    ({"dataset": {"noise_std": -1.0}}, "dataset.noise_std"),
    ({"dataset": {"noise_std": float("nan")}}, "dataset.noise_std"),
]


# a wrong type and an out-of-range value in the ground_station, link and
# training sections; link and training are the simulator's own records, so
# nothing but validate checks them
SECTION_WRONG_TYPE = [
    ({"ground_station": {"longitude_deg": "x"}}, "ground_station.longitude_deg"),
    ({"link": {"noise_temp_k": "354"}}, "link.noise_temp_k"),
    ({"training": {"local_epochs": "2"}}, "training.local_epochs"),
]
SECTION_OUT_OF_RANGE = [
    ({"ground_station": {"min_elevation_deg": -1.0}}, "ground_station.min_elevation_deg"),
    ({"link": {"carrier_hz": -1.0}}, "link.carrier_hz"),
    ({"training": {"rounds": 0}}, "training.rounds"),
]


# each of these passed `leofl validate` and then failed in the first round:
# a dB value whose linear ratio overflows or underflows, or a link budget
# whose rate is zero
UNUSABLE_LINK = [
    ({"gain_tx_dbi": 1.0e+300}, "link.gain_tx_dbi"),
    ({"gain_rx_dbi": 1.0e+300}, "link.gain_rx_dbi"),
    ({"tx_power_dbm": 1.0e+300}, "link.tx_power_dbm"),
    ({"tx_power_dbm": -1.0e+300}, "link.tx_power_dbm"),
    ({"tx_power_dbm": -300.0}, "link.tx_power_dbm"),
    ({"gain_tx_dbi": -250.0}, "link.gain_tx_dbi"),
    # each gain is finite, their product is not
    ({"gain_tx_dbi": 2000.0, "gain_rx_dbi": 2000.0}, "link.gain_rx_dbi"),
]

# the station rate at the mask range is 1.6e-7 bit/s: the model upload would
# take 1.6e12 s and the window search walked chunk by chunk out to that time
SLOW_LINK = {"scheme": "NO_ISL_DIRECT", "constellation": {"planes": 1},
             "dataset": {"train_samples": 80, "test_samples": 10},
             "link": {"tx_power_dbm": -117.0}}


def write_mnist(directory, n_train, n_test, side=28):
    """The four MNIST IDX files, with blank images and labels counting 0 to 9."""
    for split, n in (("train", n_train), ("t10k", n_test)):
        write_idx_images(directory / f"{split}-images-idx3-ubyte",
                         np.zeros((n, side, side), dtype=np.uint8))
        write_idx_labels(directory / f"{split}-labels-idx1-ubyte", np.arange(n) % 10)


def write_config(cfg, path):
    path.write_text(yaml.safe_dump(dataclasses.asdict(cfg)))


def tiny_config(**overrides):
    cfg = ExperimentConfig()
    cfg = dataclasses.replace(
        cfg,
        constellation=dataclasses.replace(cfg.constellation, planes=1, sats_per_plane=8),
        dataset=dataclasses.replace(cfg.dataset, train_samples=160, test_samples=40),
        **overrides,
    )
    return config_from_dict(dataclasses.asdict(cfg))


def with_rounds(cfg, rounds):
    return config_from_dict(set_keys(dataclasses.asdict(cfg), {"training.rounds": rounds}))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(scheme="CLSIA", q=0.1, seed=7)
        path = tmp_path / "cfg.yaml"
        write_config(cfg, path)
        assert config_from_dict(load_config(path)) == cfg

    def test_set_keys_copies_the_document(self):
        raw = {"q": 0.1, "constellation": {"planes": 2}}
        assert set_keys(raw, {"constellation.sats_per_plane": 6, "seed": 3}) == {
            "q": 0.1, "seed": 3, "constellation": {"planes": 2, "sats_per_plane": 6}}
        assert raw == {"q": 0.1, "constellation": {"planes": 2}}

    @pytest.mark.parametrize("section", [5, None, [1]])
    def test_set_keys_rejects_a_section_that_is_not_a_mapping(self, section):
        with pytest.raises(ValidationError,
                           match=r"^section 'constellation' must be a mapping to set "
                                 r"constellation\.planes"):
            set_keys({"constellation": section}, {"constellation.planes": 1})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            config_from_dict({"schem": "SIA"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys in link"):
            config_from_dict({"link": {"tx_power_mw": 1}})

    @pytest.mark.parametrize("raw, message", [
        ({1: 2, "foo": 3}, "unknown top-level keys: [1, 'foo']"),
        ({"constellation": {1: 2, "x": 1}}, "unknown keys in constellation: [1, 'x']"),
    ])
    def test_unknown_keys_of_mixed_types_listed(self, raw, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            config_from_dict(raw)

    def test_invalid_values_listed(self):
        with pytest.raises(ValidationError, match="q must be"):
            config_from_dict({"q": 3.0})

    def test_defaults_valid(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_mnist_requires_dir(self):
        with pytest.raises(ValidationError, match="mnist_dir"):
            config_from_dict({"dataset": {"source": "mnist"}})

    @pytest.mark.parametrize("raw, key", [
        ({"q": "0.1"}, "q"),
        ({"seed": 1.5}, "seed"),
        ({"training": {"learning_rate": "1e6"}}, "training.learning_rate"),
        ({"constellation": {"sats_per_plane": 8.0}}, "constellation.sats_per_plane"),
        ({"dataset": {"mnist_dir": 3}}, "dataset.mnist_dir"),
    ] + SECTION_WRONG_TYPE)
    def test_wrong_type_names_key(self, raw, key):
        with pytest.raises(ValidationError, match=rf"^{key} must be"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, key", [
        ({"constellation": {"altitude_km": 0.0}}, "constellation.altitude_km"),
        ({"ground_station": {"latitude_deg": 91.0}}, "ground_station.latitude_deg"),
        ({"ground_station": {"min_elevation_deg": 90.0}}, "ground_station.min_elevation_deg"),
        ({"link": {"bandwidth_hz": 0.0}}, "link.bandwidth_hz"),
        ({"training": {"batch_size": 0}}, "training.batch_size"),
        ({"training": {"learning_rate": -0.1}}, "training.learning_rate"),
        ({"dataset": {"test_samples": 0}}, "dataset.test_samples"),
        ({"compute_time_s": float("nan")}, "compute_time_s"),
    ] + SECTION_OUT_OF_RANGE + [({"seed": -1}, "seed")])
    def test_out_of_range_names_key(self, raw, key):
        with pytest.raises(ValidationError, match=rf"{key} must be"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, key", NON_FINITE)
    def test_non_finite_and_negative_noise_name_key(self, raw, key):
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must be"):
            config_from_dict(raw)

    def test_ints_accepted_for_float_fields(self):
        cfg = config_from_dict({"q": 1, "constellation": {"altitude_km": 2000}})
        assert cfg.q == 1 and cfg.constellation.altitude_km == 2000

    def test_ring_chord_checked_at_validate(self):
        with pytest.raises(ValidationError, match="constellation.sats_per_plane.*no ring"):
            config_from_dict({"constellation": {"sats_per_plane": 3}})
        # the no-ISL baseline forms no ring
        config_from_dict({"scheme": "NO_ISL_DIRECT", "constellation": {"sats_per_plane": 3}})

    @pytest.mark.parametrize("scheme", ["SIA", "NO_ISL_DIRECT"])
    @pytest.mark.parametrize("link, key", UNUSABLE_LINK)
    def test_unusable_link_names_key(self, scheme, link, key):
        with pytest.raises(ValidationError, match=re.escape(key)):
            config_from_dict({"scheme": scheme, "link": link})

    def test_isl_rate_checked_for_ring_schemes_only(self):
        raw = {"link": {"tx_power_dbm": -300.0}}
        with pytest.raises(ValidationError) as ring:
            config_from_dict(dict(raw, scheme="SIA"))
        with pytest.raises(ValidationError) as no_isl:
            config_from_dict(dict(raw, scheme="NO_ISL_DIRECT"))
        assert "elevation mask" in str(ring.value) and "ring neighbor" in str(ring.value)
        assert "elevation mask" in str(no_isl.value) and "ring neighbor" not in str(no_isl.value)

    @pytest.mark.parametrize("tx_power_dbm, accepted", [(-117.0, False), (-53.0, False), (-48.0, True)])
    def test_upload_must_fit_the_window_horizon(self, tx_power_dbm, accepted):
        # at -48 dBm the upload takes 2.8e5 s, at -53 dBm 8.8e5 s; the horizon is 4.32e5 s
        raw = dict(SLOW_LINK, link={"tx_power_dbm": tx_power_dbm})
        if accepted:
            config_from_dict(raw)
            return
        with pytest.raises(ValidationError, match="window search horizon") as exc:
            config_from_dict(raw)
        assert all(f"link.{f.name}" in str(exc.value) for f in dataclasses.fields(LinkParams))

    def test_shards_must_fit(self):
        with pytest.raises(ValidationError, match="dataset.train_samples"):
            config_from_dict({"dataset": {"train_samples": 20}})
        config_from_dict({"dataset": {"train_samples": 40}})

    # validate loads the MNIST training set: one sample per satellite is the least
    @pytest.mark.parametrize("n_train, accepted", [(39, False), (40, True)])
    def test_mnist_shards_must_fit(self, tmp_path, n_train, accepted):
        write_mnist(tmp_path, n_train, 3)
        raw = {"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}
        if accepted:
            train, test = load_datasets(config_from_dict(raw))
            assert (len(train), len(test)) == (40, 3)
            return
        with pytest.raises(ValidationError, match=r"^dataset\.mnist_dir: \S+/train-images-idx3-ubyte: "
                                                  r"39 training samples.* 40"):
            config_from_dict(raw)

    def test_mnist_sample_count_checked_on_every_build(self, tmp_path):
        # the second build reuses the first one's draw, and its 40 satellites do not fit
        write_mnist(tmp_path, 10, 3)
        one_plane = dataclasses.replace(tiny_config(), dataset=dataclasses.replace(
            tiny_config().dataset, source="mnist", mnist_dir=str(tmp_path)))
        build_simulation(one_plane)
        five_planes = dataclasses.replace(one_plane, constellation=dataclasses.replace(
            one_plane.constellation, planes=5))
        with pytest.raises(IngestionError, match=r"train-images-idx3-ubyte: 10 training samples.* 40"):
            build_simulation(five_planes)

    def test_station_the_plane_never_sees_rejected(self):
        with pytest.raises(ValidationError, match="^ground_station.latitude_deg"):
            config_from_dict({"constellation": {"planes": 1, "inclination_deg": 30.0},
                              "ground_station": {"latitude_deg": -89.0}})

    @pytest.mark.parametrize("scheme", ["SIA", "NO_ISL_DIRECT"])
    @pytest.mark.parametrize("latitude, visible", [
        (61.25, True), (-61.25, True), (61.65, False), (-61.65, False),
    ])
    def test_station_reach_boundary(self, scheme, latitude, visible):
        # inclination 30 deg at 2000 km above a 10 deg mask reaches 61.45 deg
        raw = {"scheme": scheme, "constellation": {"inclination_deg": 30.0},
               "ground_station": {"latitude_deg": latitude, "min_elevation_deg": 10.0}}
        if visible:
            config_from_dict(raw)
        else:
            with pytest.raises(ValidationError, match="ground_station.latitude_deg"):
                config_from_dict(raw)

    def test_class_count_does_not_depend_on_the_sample(self):
        # 8 samples cannot hold all 10 classes; the model is still 10 x 785
        cfg = config_from_dict({"constellation": {"planes": 1}, "dataset": {"train_samples": 8}})
        planes, hp, w0, test, size_model = build_simulation(cfg)
        assert size_model.dim == len(w0) == 7850


class TestSharedDatasets:
    """Builds of one dataset section and seed share one read-only draw."""

    @staticmethod
    def counting_draws(monkeypatch):
        calls = []
        real = data.synthetic_dataset
        monkeypatch.setattr(data, "synthetic_dataset",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    def test_built_datasets_are_read_only(self):
        planes, _, _, test, _ = build_simulation(tiny_config(seed=11))
        shard = planes[0].nodes[3].dataset
        for array in (shard.rows, shard.labels, test.rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_cells_of_one_ring_size_share_the_arrays(self, monkeypatch):
        calls = self.counting_draws(monkeypatch)
        sia = build_simulation(tiny_config(seed=12, scheme="SIA"))
        clsia = build_simulation(tiny_config(seed=12, scheme="CLSIA", q=0.1))
        assert clsia[3] is sia[3]
        for a, b in zip(sia[0][0].nodes, clsia[0][0].nodes, strict=True):
            assert a.dataset.rows.base is b.dataset.rows.base is not None
        assert len(calls) == 2  # one train and one test set, for both builds

    def test_another_seed_or_dataset_section_misses(self, monkeypatch):
        calls = self.counting_draws(monkeypatch)
        base = tiny_config(seed=13)
        build_simulation(base)
        build_simulation(dataclasses.replace(base, seed=14))
        noisier = dataclasses.replace(base.dataset, noise_std=0.5)
        _, _, _, test, _ = build_simulation(dataclasses.replace(base, dataset=noisier))
        assert len(calls) == 6
        assert len(test) == 40

    def test_one_entry_only(self, monkeypatch):
        calls = self.counting_draws(monkeypatch)
        a, b = tiny_config(seed=15), tiny_config(seed=16)
        first = build_simulation(a)[3]
        build_simulation(b)
        again = build_simulation(a)[3]
        assert len(calls) == 6
        assert again is not first and again.rows.tobytes() == first.rows.tobytes()

    # one copy of each set: a whole-draw noise temporary beside the rows and a
    # shuffled copy of them took the synthetic build to 1.85x
    @pytest.mark.parametrize("source", ["synthetic", "mnist"])
    def test_build_peaks_near_the_bytes_it_keeps(self, tmp_path, source):
        dataset = {"train_samples": 5000, "test_samples": 1000}
        if source == "mnist":
            write_mnist(tmp_path, 2000, 500)
            dataset = {"source": "mnist", "mnist_dir": str(tmp_path)}
        cfg = config_from_dict({"dataset": dataset})
        config._drawn.clear()
        tracemalloc.start()
        try:
            train, test = config._shared_datasets(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (train.rows, train.labels, test.rows, test.labels))
        assert peak <= 1.3 * kept, f"peak {peak} bytes, {peak / kept:.2f}x the {kept} kept"



class TestSharedStartState:
    """Every node of a build starts from one read-only zero residual, replaced by its first step."""

    @staticmethod
    def iterate_once(sim, scheme):
        planes, hp, w, test, m = sim
        run_global_iteration(planes, Scheme[scheme], w, hp, 0.0, 1, q_to_count(0.01, m.dim), test)

    def test_nodes_share_one_read_only_state(self):
        raw = set_keys(dataclasses.asdict(tiny_config(seed=17)), {"constellation.planes": 2})
        planes = build_simulation(config_from_dict(raw))[0]
        nodes = [node for state in planes for node in state.nodes]
        assert len(nodes) == 16
        assert all(node.error is nodes[0].error for node in nodes)
        assert not nodes[0].error.residual.any()
        with pytest.raises(ValueError, match="read-only"):
            nodes[0].error.residual[0] = 1.0

    def test_a_sia_iteration_gives_each_node_its_own_writable_residual(self):
        sim = build_simulation(tiny_config(seed=17, scheme="SIA"))
        start = sim[0][0].nodes[0].error
        self.iterate_once(sim, "SIA")
        errors = [node.error for node in sim[0][0].nodes]
        assert len({id(e.residual) for e in errors}) == len(errors)
        assert all(e is not start and e.residual.flags.writeable for e in errors)

    def test_a_dense_iteration_keeps_the_shared_start_state(self):
        sim = build_simulation(tiny_config(seed=17, scheme="DENSE_IA"))
        start = sim[0][0].nodes[0].error
        self.iterate_once(sim, "DENSE_IA")
        assert all(node.error is start for node in sim[0][0].nodes)
        assert not start.residual.flags.writeable and not start.residual.any()

    def test_memo_hit_default_build_allocates_less_than_a_residual_per_satellite(self):
        cfg = config_from_dict({})
        build_simulation(cfg)  # draws the datasets
        tracemalloc.start()
        try:
            planes = build_simulation(cfg)[0]
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sats = sum(len(state.nodes) for state in planes)
        dim = len(planes[0].nodes[0].error.residual)
        assert (sats, dim) == (40, 7850)
        assert allocated < sats * dim * 8, f"{allocated} bytes for {sats} satellites"

class TestRunExperiment:
    def test_deterministic_logs(self):
        a = run_experiment(with_rounds(tiny_config(), 3))
        b = run_experiment(with_rounds(tiny_config(), 3))
        assert a == b

    def test_q1_schemes_agree(self):
        runs = {
            scheme: run_experiment(with_rounds(tiny_config(scheme=scheme, q=1.0), 3))
            for scheme in ("DENSE_IA", "SIA")
        }
        acc_dense = [r.accuracy for r in runs["DENSE_IA"]]
        acc_sia = [r.accuracy for r in runs["SIA"]]
        assert acc_dense == acc_sia

    def test_rows_strictly_increasing(self):
        rows = run_experiment(with_rounds(tiny_config(), 4))
        times = [r.time_s for r in rows]
        assert times == sorted(times) and len(set(times)) == len(times)


class TestOneValidation:
    """`config_from_dict` checks each config once; nothing downstream checks it again."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        real = config._validate
        monkeypatch.setattr(config, "_validate", lambda cfg: seen.append(cfg) or real(cfg))
        return seen

    # tiny_config's document, with two rounds
    DOC = {"constellation": {"planes": 1, "sats_per_plane": 8}, "training": {"rounds": 2},
           "dataset": {"train_samples": 160, "test_samples": 40}}

    def test_one_check_per_run(self, checks):
        run_experiment(config_from_dict(self.DOC))
        assert len(checks) == 1

    def test_one_check_per_cli_run(self, tmp_path, checks):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(self.DOC))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(checks) == 1

    def test_one_check_per_sweep_cell(self, checks):
        run_sweep(self.DOC, {"constellation.sats_per_plane": [6, 8], "q": [0.1, 1.0]})
        assert len(checks) == 4


class TestExport:
    def test_csv_contents(self, tmp_path):
        cfg = with_rounds(tiny_config(), 3)
        csv_path, manifest_path = export(cfg, run_experiment(cfg), tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 3

    def test_reexport_byte_identical(self, tmp_path):
        cfg = with_rounds(tiny_config(), 2)
        rows = run_experiment(cfg)
        csv_path, manifest_path = export(cfg, rows, tmp_path / "a")
        csv2, manifest2 = export(cfg, rows, tmp_path / "b")
        assert csv_path.read_bytes() == csv2.read_bytes()
        assert manifest_path.read_bytes() == manifest2.read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        import json

        cfg = with_rounds(tiny_config(seed=11), 2)
        rows = run_experiment(cfg)
        _, manifest_path = export(cfg, rows, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert run_experiment(config_from_dict(manifest["config"])) == rows

    def test_manifest_of_a_cli_run_reproduces_it(self, tmp_path):
        import json

        path = tmp_path / "cfg.yaml"
        write_config(tiny_config(seed=11), path)
        argv = ["run", "--config", str(path), "--rounds", "2", "--out", str(tmp_path / "a")]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "a" / "run.manifest.json").read_text())
        assert manifest["config"]["training"]["rounds"] == manifest["iterations"] == 2
        cfg = config_from_dict(manifest["config"])
        csv_path, _ = export(cfg, run_experiment(cfg), tmp_path / "b")
        assert csv_path.read_bytes() == (tmp_path / "a" / "run.csv").read_bytes()


class TestSweep:
    def test_small_sweep_shapes(self):
        axes = {"constellation.planes": [1], "constellation.sats_per_plane": [6, 8],
                "q": [0.1], "scheme": ["CLSIA"]}
        rows = run_sweep(dataclasses.asdict(with_rounds(tiny_config(), 3)), axes)
        assert len(rows) == 2
        by_kp = {kp: bits for _, kp, _, _, bits in rows}
        # constant-length scheme is exactly linear in ring size
        assert by_kp[8] / by_kp[6] == pytest.approx(8 / 6)

    def test_too_small_ring_surfaces_los_error(self):
        axes = {"constellation.planes": [1], "constellation.sats_per_plane": [4],
                "q": [0.1], "scheme": ["SIA"]}
        with pytest.raises(ValidationError, match="constellation.sats_per_plane.*no ring"):
            run_sweep(dataclasses.asdict(with_rounds(tiny_config(), 2)), axes)

    def test_a_rounds_axis_sets_each_cell_s_rounds(self):
        base = dataclasses.asdict(tiny_config())
        rows = run_sweep(base, {"training.rounds": [2, 3, 6]})
        six = run_experiment(config_from_dict(set_keys(base, {"training.rounds": 6})))
        bits = [r.plane_bits for r in six]
        assert rows == [(n, sum(bits[SWEEP_WARMUP:n]) / (n - SWEEP_WARMUP)) for n in (2, 3, 6)]
        assert len({mean for _, mean in rows}) == 3


@pytest.fixture
def cells_run(monkeypatch):
    """Stub every sweep cell's run: record its config and log bits that name the cell."""
    seen = []

    def run(cfg):
        seen.append(cfg)
        c = cfg.constellation
        bits = c.planes * 1000 + c.sats_per_plane
        return [MetricsRow(n, 0.0, 0.0, bits * n, 0) for n in range(1, cfg.training.rounds + 1)]

    monkeypatch.setattr(harness, "run_experiment", run)
    return seen


class TestSweepCli:
    def test_default_grid_is_the_ring_size_sweep(self, tmp_path, cells_run):
        assert main(["sweep", "--iterations", "3", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "sweep.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["constellation.planes", "constellation.sats_per_plane", "q", "scheme",
                          "mean_bits_per_iteration"]
        # rows in sorted (K, q, scheme) order, as sweep.csv has always listed them
        expected = sorted(itertools.product(range(8, 29, 2), [0.01, 0.1],
                                            ["SIA", "CLSIA", "NO_ISL_DIRECT"]))
        assert len(rows) == len(expected) == 66
        assert [tuple(row[1:4]) for row in rows] == [(str(kp), repr(q), scheme)
                                                     for kp, q, scheme in expected]
        assert [(c.constellation.planes, c.constellation.sats_per_plane, c.q, c.scheme)
                for c in cells_run] == [(1, *cell) for cell in expected]
        # the warm-up iteration is left out of the mean
        assert [row[0] for row in rows] == ["1"] * 66
        assert [row[4] for row in rows] == [repr(2.5 * (1000 + kp)) for kp, _, _ in expected]

    def test_bad_cell_exits_2_before_any_cell_runs(self, tmp_path, capsys, cells_run):
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "q=0.01,5", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: sweep cell q=5:")
        assert "q must be in (0, 1]" in err
        assert cells_run == [] and not out.exists()

    def test_axes_replace_the_default_grid_in_the_order_given(self, tmp_path, cells_run):
        argv = ["sweep", "--axis", "scheme=CLSIA", "--axis", "link.tx_power_dbm=0.0,40",
                "--axis", "q=1.0e-2", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "sweep.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["scheme", "link.tx_power_dbm", "q", "mean_bits_per_iteration"]
        assert [row[:3] for row in rows] == [["CLSIA", "0.0", "0.01"], ["CLSIA", "40", "0.01"]]
        assert [(c.scheme, c.link.tx_power_dbm, c.q) for c in cells_run] == [
            ("CLSIA", 0.0, 0.01), ("CLSIA", 40, 0.01)]
        # the rest of each cell is the base config
        assert {(c.constellation.planes, c.constellation.sats_per_plane) for c in cells_run} \
            == {(5, 8)}

    def test_base_is_validated_only_as_its_cells(self, tmp_path, cells_run):
        # a ring of 3 cannot form, so the document alone fails as an SIA run
        path = tmp_path / "k3.yaml"
        path.write_text(yaml.safe_dump({"constellation": {"sats_per_plane": 3}}))
        argv = ["sweep", "--config", str(path), "--axis", "scheme=NO_ISL_DIRECT",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "sweep.csv", newline="") as f:
            assert list(csv.reader(f)) == [["scheme", "mean_bits_per_iteration"],
                                           ["NO_ISL_DIRECT", repr(5003 * 6.5)]]
        assert [(c.scheme, c.constellation.sats_per_plane) for c in cells_run] == [
            ("NO_ISL_DIRECT", 3)]

    def test_a_rounds_axis_overrides_iterations(self, tmp_path, cells_run):
        argv = ["sweep", "--iterations", "5", "--axis", "training.rounds=2,4",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert [c.training.rounds for c in cells_run] == [2, 4]
        with open(tmp_path / "sweep.csv", newline="") as f:
            assert [row[1] for row in csv.reader(f)][1:] == [repr(5008.0 * 2), repr(5008.0 * 3)]

    def test_a_cell_with_no_iteration_past_the_warm_up_exits_2(self, tmp_path, capsys, cells_run):
        out = tmp_path / "out"
        argv = ["sweep", "--axis", "training.rounds=1,3", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: sweep cell training.rounds=1: "
                              "training.rounds must be at least 2")
        assert cells_run == [] and not out.exists()

    @pytest.mark.parametrize("section, command", [
        ("constellation", ["sweep", "--axis", "constellation.planes=1"]),
        ("training", ["run", "--rounds", "1"]),
    ])
    def test_a_dotted_key_into_a_section_that_is_not_a_mapping_exits_2(
            self, tmp_path, capsys, cells_run, section, command):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({section: 5}))
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1
        assert f"section '{section}' must be a mapping" in err
        assert cells_run == [] and not out.exists()

    def test_axis_values_are_yaml_scalars(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "q=1.0e-2,1e-2,0.1", "--axis", "constellation.planes=1,2"])
        assert args.axis == {"q": [0.01, "1e-2", 0.1], "constellation.planes": [1, 2]}


class TestCli:
    def test_validate_ok(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        write_config(tiny_config(), path)
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_validate_bad_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"q": -1}))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION

    # a missing file, a YAML syntax error, a file that is not UTF-8
    @pytest.mark.parametrize("content", [None, b"q: [1\n", b"q: 0.1\nseed: \xff\n"])
    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.yaml"
        if content is not None:
            path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: cannot read config {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw, key", [
        ({"constellation": {"sats_per_plane": 3}}, "constellation.sats_per_plane"),
        ({"constellation": {"planes": 0}}, "constellation.planes"),
        ({"constellation": {"sats_per_plane": 1}}, "constellation.sats_per_plane"),
        ({"dataset": {"train_samples": 20}}, "dataset.train_samples"),
        ({"q": "0.1"}, "q must be a number"),
        ({"constellation": {"planes": 1, "inclination_deg": 30.0},
          "ground_station": {"latitude_deg": -89.0}}, "ground_station.latitude_deg"),
        ({"constellation": {"inclination_deg": 30.0},
          "ground_station": {"latitude_deg": 61.65}}, "ground_station.latitude_deg"),
        # orbital periods beyond the window search horizon; max_slant_range
        # overflowed from about 1.34e151 km
        ({"constellation": {"altitude_km": 117_100.0}}, "constellation.altitude_km"),
        ({"constellation": {"altitude_km": 1.0e+200}}, "constellation.altitude_km"),
        ({"constellation": {"altitude_km": 1.0e+308}}, "constellation.altitude_km"),
    ] + SECTION_WRONG_TYPE + SECTION_OUT_OF_RANGE + [({"seed": -1}, "seed")])
    def test_validate_rejects_unrunnable_config(self, tmp_path, capsys, raw, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and key in err

    def test_validate_accepts_an_orbit_just_inside_the_horizon(self, tmp_path):
        # a period of about 4.99 days; no run is made at this altitude
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"constellation": {"altitude_km": 117_000.0}}))
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("scheme", ["SIA", "NO_ISL_DIRECT"])
    def test_run_with_a_satellite_that_never_sees_the_station_exits_2(self, tmp_path, capsys,
                                                                      scheme):
        # validate cannot see this without searching every plane over the horizon
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"ground_station": {"min_elevation_deg": 88.0},
                                        "dataset": {"train_samples": 400}}))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        argv = ["run", "--rounds", "2", "--config", str(path), "--scheme", scheme, "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and "no window" in err
        assert "ground_station.min_elevation_deg" in err and "ground_station.latitude_deg" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("link, key", UNUSABLE_LINK)
    def test_validate_rejects_unusable_link(self, tmp_path, capsys, link, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"link": link}))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and key in err

    def test_validate_rejects_link_too_slow_for_the_horizon(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(SLOW_LINK))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: link:") and "link.tx_power_dbm" in err

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_validate_accepts_every_scheme(self, scheme):
        assert main(["validate", "--scheme", scheme]) == EXIT_OK

    def test_validate_rejects_unknown_scheme(self, capsys):
        assert main(["validate", "--scheme", "SPARSE"]) == EXIT_VALIDATION
        assert "scheme must be one of" in capsys.readouterr().err

    def test_scheme_override_applies_before_validation(self, tmp_path):
        # a ring of 3 cannot form, but the no-ISL baseline needs none
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"constellation": {"sats_per_plane": 3}}))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert main(["validate", "--config", str(path), "--scheme", "NO_ISL_DIRECT"]) == EXIT_OK

    @pytest.mark.parametrize("raw, key", NON_FINITE)
    def test_validate_rejects_non_finite(self, tmp_path, capsys, raw, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--rounds", "0"], "training.rounds"),
        (["windows", "--plane", "7"], "--plane"),
        (["windows", "--plane", "-1"], "--plane"),
        (["windows", "--hours", "nan"], "--hours"),
        (["windows", "--hours", "0"], "--hours"),
        # the grid flags' cases: a value that is no number, a ring of no
        # satellites, an empty range
        (["sweep", "--axis", "q=abc"], "q='abc': q must be a number"),
        (["sweep", "--axis", "constellation.sats_per_plane=8,0"],
         "constellation.sats_per_plane=0"),
        (["sweep", "--axis", "constellation.sats_per_plane="],
         "constellation.sats_per_plane=None"),
        (["sweep", "--iterations", "1"], "training.rounds"),
        (["sweep", "--axis", "q=0.01", "--axis", "q=0.1"], "--axis: q is given twice"),
        (["sweep", "--axis", "foo.bar=1"], "sweep cell foo.bar=1: unknown top-level keys"),
        (["sweep", "--axis", "constellation.foo=1"], "unknown keys in constellation: ['foo']"),
        (["sweep", "--axis", "q.x=1"], "sweep cell q.x=1: q must be a number"),
        (["sweep", "--axis", "q"], "--axis"),
        (["sweep", "--axis", "=1"], "--axis"),
        (["sweep", "--axis", "q=[1"], "--axis: q"),
        # a sweep writes one file, so no cell may move it
        (["sweep", "--axis", "output_dir=a,b"], "--axis: output_dir"),
        # every sweep cell sets its own scheme and q
        (["sweep", "--scheme", "DENSE_IA"], "--scheme"),
        (["sweep", "--q", "5"], "--q"),
        # the window listing reads neither q, the seed nor the output directory
        (["windows", "--q", "5"], "--q"),
        (["windows", "--seed", "7"], "--seed"),
        (["windows", "--out", "listing"], "--out"),
        # validate writes no file
        (["validate", "--out", "listing"], "--out"),
    ])
    def test_bad_arguments_exit_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        # only the commands that write files take --out
        out = [] if argv[0] in ("windows", "validate") else ["--out", str(tmp_path)]
        try:
            code = main(argv + out)
        except SystemExit as exc:  # argparse rejects at parse time
            code = exc.code
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("compute_time_s, code", [
        (1.0e+11, EXIT_VALIDATION), (1.0e+300, EXIT_VALIDATION), (432000.0, EXIT_OK)])
    def test_compute_time_bounded_by_the_window_search_horizon(self, tmp_path, capsys,
                                                             compute_time_s, code):
        # 1e11 s passed validate, then run searched windows without end; at 1e300 s,
        # t + HORIZON_S == t, and run blamed the ground station
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "constellation": {"planes": 1}, "compute_time_s": compute_time_s,
            "dataset": {"train_samples": 400, "test_samples": 100}}))
        assert main(["validate", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == EXIT_OK else "invalid configuration: compute_time_s must be "
                       "in [0, 432000] s, the window search horizon\n")

    # (train images, test images, image side, a file written over the set's,
    # what the message names); each of these but the negative dimensions once
    # passed `leofl validate`, and `leofl run` failed on it with exit 3; the
    # negative dimensions sized a payload the loader read and then failed to
    # reshape, with a ValueError traceback
    @pytest.mark.parametrize("n_train, n_test, side, replaced, named", [
        (None, None, 28, None, "no IDX file matching 'train-images-*' under"),
        (10, 5, 28, None, "train-images-idx3-ubyte: 10 training samples, fewer than "
                          "planes * sats_per_plane = 40"),
        (40, 0, 28, None, "t10k-images-idx3-ubyte: the file holds no samples"),
        (40, 5, 4, None, "train-images-idx3-ubyte: images are 4 x 4, expected 28 x 28"),
        (40, 5, 32, None, "train-images-idx3-ubyte: images are 32 x 32, expected 28 x 28"),
        (40, 5, 28, ("train-labels-idx1-ubyte", 2049, (40,), bytes([12] * 40)),
         "train-labels-idx1-ubyte: label 12 outside [0, 10)"),
        (40, 5, 28, ("train-labels-idx1-ubyte", 2049, (39,), bytes([1] * 39)),
         "train-labels-idx1-ubyte: image and label counts differ, 40 against 39"),
        *[(40, 5, 28, ("train-images-idx3-ubyte", 2051, dims, bytes(abs(math.prod(dims)))),
           f"train-images-idx3-ubyte: negative IDX dimension in {dims}")
          for dims in [(-40, -28, 28), (0, -28, 28), (-1, 0, 28)]],
    ])
    def test_unusable_mnist_rejected_at_validate(self, tmp_path, capsys,
                                                 n_train, n_test, side, replaced, named):
        mnist_dir = tmp_path / "missing"
        if n_train is not None:
            mnist_dir = tmp_path
            write_mnist(tmp_path, n_train, n_test, side)
        if replaced is not None:
            name, magic, dims, payload = replaced
            (tmp_path / name).write_bytes(struct.pack(f">{1 + len(dims)}i", magic, *dims) + payload)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist",
                                                    "mnist_dir": str(mnist_dir)}}))
        for command in (["validate"], ["run", "--rounds", "1", "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", str(path)]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("invalid configuration: dataset.mnist_dir: ") and named in err
            assert err.count("dataset.mnist_dir") == 1
            assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem", ["train-images", "t10k-labels"])
    def test_missing_or_headless_mnist_file_rejected_at_validate(self, tmp_path, capsys, stem):
        write_mnist(tmp_path, 40, 5)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        run = ["run", "--config", str(path), "--rounds", "1", "--out", str(tmp_path / "out")]
        (file,) = tmp_path.glob(f"{stem}-*")
        file.write_bytes(b"")
        for command in (["validate", "--config", str(path)], run):
            assert main(command) == EXIT_VALIDATION
            assert f"dataset.mnist_dir: {file}: truncated IDX header" in capsys.readouterr().err
        file.unlink()
        for command in (["validate", "--config", str(path)], run):
            assert main(command) == EXIT_VALIDATION
            assert f"no IDX file matching '{stem}-*'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unopenable_mnist_path_rejected_at_validate(self, tmp_path, capsys):
        # a directory where an IDX file belongs died opening it, with an IsADirectoryError traceback
        write_mnist(tmp_path, 40, 5)
        labels = tmp_path / "t10k-labels-idx1-ubyte"
        labels.unlink()
        labels.mkdir()
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        run = ["run", "--config", str(path), "--rounds", "1", "--out", str(tmp_path / "out")]
        for command in (["validate", "--config", str(path)], run):
            assert main(command) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith(f"invalid configuration: dataset.mnist_dir: {labels}: cannot read")
            assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cut", [1, 4, 10, 100, "half"])
    def test_cut_gzip_rejected_at_validate_when_run_fails(self, tmp_path, capsys, cut):
        # a cut that leaves every pixel and only shortens the trailer's CRC and
        # ISIZE was read whole by both until the reader read the trailer; validate
        # passed the 10-byte cut when it screened the trailer alone
        write_mnist(tmp_path, 40, 5)
        (tmp_path / "train-images-idx3-ubyte").unlink()
        gz = tmp_path / "train-images-idx3-ubyte.gz"
        images = np.random.default_rng(0).integers(0, 256, size=(40, 28, 28))
        write_idx_images(gz, images, compress=True)
        blob = gz.read_bytes()
        gz.write_bytes(blob[:len(blob) // 2 if cut == "half" else -cut])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        validated = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        ran = main(["run", "--config", str(path), "--rounds", "1", "--out", str(tmp_path / "out")])
        assert validated == EXIT_VALIDATION
        assert err.startswith(f"invalid configuration: dataset.mnist_dir: {gz}: cannot read")
        assert "Traceback" not in err and err.count("\n") == 1
        assert ran == EXIT_VALIDATION and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem, damage, named", [
        # a stored (level 0) gzip block with one pixel flipped; only its CRC tells
        ("train-images-idx3-ubyte", "flip", "cannot read the IDX file: CRC check failed"),
        ("train-labels-idx1-ubyte", "extra", "bytes past the declared IDX payload"),
    ])
    def test_damaged_mnist_file_rejected_at_validate(self, tmp_path, capsys, stem, damage, named):
        # the flipped byte loaded silently while the reader stopped at the payload
        write_mnist(tmp_path, 40, 5)
        file = tmp_path / stem
        blob = file.read_bytes()
        if damage == "flip":
            file.unlink()
            file = tmp_path / f"{stem}.gz"
            stored = bytearray(gzip.compress(blob, compresslevel=0))
            stored[len(stored) // 2] ^= 0xFF
            file.write_bytes(stored)
        else:
            file.write_bytes(blob + b"\x00")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        run = ["run", "--config", str(path), "--rounds", "1", "--out", str(tmp_path / "out")]
        for command in (["validate", "--config", str(path)], run):
            assert main(command) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith(f"invalid configuration: dataset.mnist_dir: {file}: {named}")
            assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("claimed", [1000, 1 << 26])
    @pytest.mark.parametrize("compress", [False, True])
    def test_overstated_mnist_header_exits_by_key(self, tmp_path, capsys, compress, claimed):
        # training headers claiming more samples than the 40 they hold passed
        # validate; run then died with a MemoryError traceback reading 2^26 of
        # them, and a gzipped file passed validate until its trailer was read
        write_mnist(tmp_path, 40, 5)
        for stem, array in (("train-images-idx3-ubyte", np.zeros((40, 28, 28), dtype=np.uint8)),
                            ("train-labels-idx1-ubyte", np.arange(40) % 10)):
            (tmp_path / stem).unlink()
            name = f"{stem}.gz" if compress else stem
            overstate_idx_count(tmp_path / name, array, claimed, compress)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        run = ["run", "--config", str(path), "--rounds", "1", "--out", str(tmp_path / "out")]
        images = tmp_path / ("train-images-idx3-ubyte" + (".gz" if compress else ""))
        for command in (["validate", "--config", str(path)], run):
            assert main(command) == EXIT_VALIDATION
            err = capsys.readouterr().err
            # the images are read first, so they are the file named
            assert err == (f"invalid configuration: dataset.mnist_dir: {images}: truncated IDX "
                           f"payload, {40 * 784} of {claimed * 784} bytes\n")
        assert not (tmp_path / "out").exists()

    def test_file_cut_after_validation_gives_ingestion_exit(self, tmp_path, capsys, monkeypatch):
        # a sweep validates every cell from one draw, then loads each further
        # seed's draw as it runs; a file cut in between is found only then
        write_mnist(tmp_path, 40, 5)
        images = tmp_path / "train-images-idx3-ubyte"
        real, calls = data.load_mnist, []
        def load_then_cut(*paths):
            calls.append(paths)
            loaded = real(*paths)
            if len(calls) == 2:  # the draw validation reads: train, then test
                images.write_bytes(images.read_bytes()[:-100])
            return loaded
        monkeypatch.setattr(data, "load_mnist", load_then_cut)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"constellation": {"planes": 1, "sats_per_plane": 8},
                                        "dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        assert main(["sweep", "--config", str(path), "--iterations", "2", "--axis", "seed=0,1",
                     "--axis", "scheme=SIA", "--out", str(tmp_path / "out")]) == EXIT_INGESTION
        err = capsys.readouterr().err
        assert err == (f"dataset ingestion failed: {images}: truncated IDX payload, "
                       f"{40 * 784 - 100} of {40 * 784} bytes\n")
        assert len(calls) == 3 and not (tmp_path / "out").exists()

    def test_seed_sweep_loads_each_seed_once(self, tmp_path, monkeypatch):
        # validation reads the files once for every seed, as a run of any one seed does
        write_mnist(tmp_path, 40, 5)
        real, calls = data.load_mnist, []
        monkeypatch.setattr(data, "load_mnist", lambda *paths: calls.append(paths) or real(*paths))
        base = {"constellation": {"planes": 1, "sats_per_plane": 8}, "training": {"rounds": 2},
                "dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}
        rows = run_sweep(base, {"seed": [0, 1, 2], "scheme": ["SIA", "CLSIA"]})
        assert len(rows) == 6
        assert len(calls) == 6  # train and test, for each of the 3 seeds

    @pytest.mark.parametrize("layout", ["two members", "NUL padded"])
    def test_two_member_or_padded_gzip_passes_validate(self, tmp_path, capsys, layout):
        # the trailer's ISIZE counts only the last member, and the reader reads
        # on through both members; NUL bytes after the last member end the
        # stream as its end does, so neither file holds bytes past the payload
        write_mnist(tmp_path, 40, 5)
        plain = tmp_path / "train-images-idx3-ubyte"
        blob = plain.read_bytes()
        plain.unlink()
        gz = tmp_path / "train-images-idx3-ubyte.gz"
        if layout == "two members":
            gz.write_bytes(gzip.compress(blob[:1000]) + gzip.compress(blob[1000:]))
            assert int.from_bytes(gz.read_bytes()[-4:], "little") == len(blob) - 1000
        else:
            gz.write_bytes(gzip.compress(blob) + bytes(8))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"dataset": {"source": "mnist", "mnist_dir": str(tmp_path)}}))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["run", "--config", str(path), "--rounds", "1",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", ["", ".", "..", "afile/run", "sub/run", "../run"])
    @pytest.mark.parametrize("command", [
        ["run", "--rounds", "1"],
        ["sweep", "--iterations", "2", "--axis", "constellation.planes=1", "--axis", "scheme=SIA"],
    ])
    def test_name_must_be_a_file_stem(self, tmp_path, capsys, command, name):
        # `afile/run` under a regular file trained, then died with FileExistsError;
        # "" wrote a hidden ".csv"
        out = tmp_path / "out"
        out.mkdir()
        (out / "afile").write_text("")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out), "--name", name])
        assert exc.value.code == EXIT_VALIDATION
        assert "--name" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["out", "afile"]

    def test_hours_bounded_by_the_window_search_horizon(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["windows", "--hours", "120"]).hours == 120.0
        # never parsed into a run: a huge value allocates hours * 720 samples
        for hours in ("120.5", "1e9", "inf"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["windows", "--hours", hours])
            assert exc.value.code == EXIT_VALIDATION
            assert "--hours" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        write_config(tiny_config(), path)
        rc = main(["run", "--config", str(path), "--rounds", "2",
                   "--out", str(tmp_path / "out"), "--scheme", "CLSIA"])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "run.manifest.json").exists()


def listing(capsys, argv) -> dict[int, list[tuple[str, str]]]:
    """What `leofl windows` prints, as {satellite: [(start, end) as float.hex]}; it must exit 0."""
    assert main(["windows", *argv]) == EXIT_OK
    listed = {}
    for line in capsys.readouterr().out.splitlines():
        sat, start, end = re.fullmatch(r"plane \d+ sat (\d+): .*: (\S+) s -> (\S+) s",
                                       line).groups()
        listed.setdefault(int(sat), []).append((float(start).hex(), float(end).hex()))
    return listed


# (config, the planes whose listings are checked); the few samples move no window
LISTED = {
    "default": ({"dataset": {"train_samples": 40, "test_samples": 10}}, range(5)),
    "k28": ({"constellation": {"sats_per_plane": 28},
             "dataset": {"train_samples": 140, "test_samples": 10}}, range(1)),
}


LISTING_MAX_ITERATIONS = 40


@pytest.fixture(scope="module", params=sorted(LISTED))
def run_caches(request, tmp_path_factory):
    """A config file, the planes to check and each plane's cached windows once a
    NO_ISL_DIRECT run on that config has passed 120 h."""
    raw, planes_checked = LISTED[request.param]
    path = tmp_path_factory.mktemp("listing") / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    cfg = config_from_dict(dict(raw, scheme="NO_ISL_DIRECT"))
    planes, hp, w, test, size_model = build_simulation(cfg)
    q_count = q_to_count(cfg.q, size_model.dim)

    def expired(signum, frame):
        raise TimeoutError("the run did not pass 120 h within 120 s")

    # both configs pass 120 h in 22 to 25 iterations; a clock that stops, or a run
    # that blocks, fails here instead of hanging the suite
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    try:
        t = 0.0
        for n in range(1, LISTING_MAX_ITERATIONS + 1):
            t_before = t
            w, _, t = run_global_iteration(planes, Scheme.NO_ISL_DIRECT, w, hp, t, n, q_count,
                                           test)
            assert t > t_before, f"iteration {n} left the clock at {t_before} s"
            if t > 120 * 3600.0:
                break
        else:
            pytest.fail(f"the run did not pass 120 h in {LISTING_MAX_ITERATIONS} iterations")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return path, planes_checked, [state.windows.windows for state in planes]


class TestWindowListing:
    @pytest.mark.parametrize("hours", [24.0, 120.0])
    def test_lists_the_windows_a_run_uses(self, capsys, run_caches, hours):
        # a search of its own over the whole span listed 213 of the 324 default
        # windows within 24 h with other edges, by up to 0.61 s
        path, planes_checked, caches = run_caches
        span = hours * 3600.0
        for plane in planes_checked:
            want = {sat: [(w.start_s.hex(), min(w.end_s, span).hex())
                          for w in windows if w.start_s < span]
                    for sat, windows in enumerate(caches[plane])}
            argv = ["--config", str(path), "--plane", str(plane), "--hours", str(hours)]
            assert listing(capsys, argv) == {sat: ws for sat, ws in want.items() if ws}

    def test_a_satellite_with_no_window_in_the_span_lists_nothing(self, tmp_path, capsys):
        # inclination 30 deg at 2000 km reaches 61.45 deg above a 10 deg mask, so a
        # station at 61.25 deg sees satellites 0 to 3 only after 24 h
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"constellation": {"planes": 1, "inclination_deg": 30.0},
                                        "ground_station": {"latitude_deg": 61.25}}))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert sorted(listing(capsys, ["--config", str(path), "--hours", "24"])) == [4, 5, 6, 7]
        assert sorted(listing(capsys, ["--config", str(path), "--hours", "120"])) == list(range(8))
        assert main(["windows", "--config", str(path), "--plane", "1"]) == EXIT_VALIDATION
        assert "--plane 1: the constellation has planes 0 to 0" in capsys.readouterr().err


@pytest.fixture
def afile(tmp_path):
    """A regular file where an output directory or one of its parents would go."""
    path = tmp_path / "afile"
    path.write_text("x")
    return path


# output directories that cannot be made: the path itself, its parent or a
# farther ancestor is a regular file
UNUSABLE_OUT = ["", "x", "x/y"]


class TestOutputDir:
    @pytest.mark.parametrize("sub", UNUSABLE_OUT)
    def test_a_directory_that_cannot_be_made_is_rejected(self, tmp_path, afile, sub):
        with pytest.raises(ValidationError, match=rf"^output_dir '{re.escape(str(afile / sub))}'"
                                                  rf": {re.escape(str(afile))} is not a writable"):
            config_from_dict({"output_dir": str(afile / sub)})
        assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "x"

    @pytest.mark.parametrize("out", ["runs", ".", "", "new/nested/dir", "{tmp}/a/b", "{tmp}"])
    def test_a_directory_that_can_be_made_is_accepted_and_not_made(self, tmp_path, monkeypatch,
                                                                   out):
        monkeypatch.chdir(tmp_path)
        out = out.format(tmp=tmp_path)
        assert config_from_dict({"output_dir": out}).output_dir == out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sub", UNUSABLE_OUT)
    def test_run_exits_2_before_training(self, tmp_path, capsys, monkeypatch, afile, sub):
        trained = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: trained.append(a))
        assert main(["run", "--rounds", "1", "--out", str(afile / sub)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: output_dir") and err.count("\n") == 1
        assert trained == [] and list(tmp_path.iterdir()) == [afile]

    @pytest.mark.parametrize("sub", UNUSABLE_OUT)
    def test_sweep_exits_2_before_any_cell_runs(self, tmp_path, capsys, cells_run, afile, sub):
        argv = ["sweep", "--axis", "scheme=SIA", "--out", str(afile / sub)]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: sweep cell scheme='SIA': output_dir")
        assert cells_run == [] and list(tmp_path.iterdir()) == [afile]

    def test_validate_exits_2(self, tmp_path, capsys, afile):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"output_dir": str(afile / "x")}))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        assert "output_dir" in capsys.readouterr().err


def readme_keys(text: str) -> list[str]:
    """Backquoted key names in README text, leaving out parenthesized defaults."""
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", text))


class TestReadme:
    """The README's configuration reference lists exactly the keys config_from_dict accepts."""

    def test_top_level_keys(self):
        text = README.read_text()
        listed = re.search(r"optional top-level keys(.*?)sections:", text, re.S).group(1)
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(readme_keys(listed)) == sorted(set(fields) - set(_SECTION_TYPES))

    def test_section_tables(self):
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M)
        assert sorted(name for name, _ in rows) == sorted(_SECTION_TYPES)
        for name, keys in rows:
            fields = [f.name for f in dataclasses.fields(_SECTION_TYPES[name])]
            assert sorted(readme_keys(keys)) == sorted(fields), name
