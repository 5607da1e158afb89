import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from leofl.cli import EXIT_INGESTION, EXIT_OK, EXIT_VALIDATION, main
from leofl.config import (
    _SECTION_TYPES,
    ExperimentConfig,
    ValidationError,
    build_simulation,
    config_from_dict,
    load_config,
)
from leofl.harness import (
    CSV_HEADER,
    ExportError,
    MetricsLog,
    export,
    run_experiment,
    run_sweep,
)
from leofl.link import LinkParams
from leofl.protocol import Scheme


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
    return cfg


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(scheme="CLSIA", q=0.1, seed=7)
        path = tmp_path / "cfg.yaml"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            config_from_dict({"schem": "SIA"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys in link"):
            config_from_dict({"link": {"tx_power_mw": 1}})

    def test_invalid_values_listed(self):
        with pytest.raises(ValidationError, match="q must be"):
            config_from_dict({"q": 3.0})

    def test_defaults_valid(self):
        ExperimentConfig().validate()

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


class TestRunExperiment:
    def test_deterministic_logs(self):
        a = run_experiment(tiny_config(), max_rounds=3)
        b = run_experiment(tiny_config(), max_rounds=3)
        assert a.rows == b.rows

    def test_q1_schemes_agree(self):
        logs = {
            scheme: run_experiment(tiny_config(scheme=scheme, q=1.0), max_rounds=3)
            for scheme in ("DENSE_IA", "SIA")
        }
        acc_dense = [r.accuracy for r in logs["DENSE_IA"].rows]
        acc_sia = [r.accuracy for r in logs["SIA"].rows]
        assert acc_dense == acc_sia

    def test_rows_strictly_increasing(self):
        log = run_experiment(tiny_config(), max_rounds=4)
        times = [r.time_s for r in log.rows]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_monotone_invariant_enforced(self):
        log = run_experiment(tiny_config(), max_rounds=1)
        with pytest.raises(ValueError):
            log.append(log.rows[0])


class TestExport:
    def test_csv_contents(self, tmp_path):
        log = run_experiment(tiny_config(), max_rounds=3)
        csv_path, manifest_path = export(log, tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 3

    def test_reexport_byte_identical(self, tmp_path):
        log = run_experiment(tiny_config(), max_rounds=2)
        csv_path, manifest_path = export(log, tmp_path / "a")
        csv2, manifest2 = export(log, tmp_path / "b")
        assert csv_path.read_bytes() == csv2.read_bytes()
        assert manifest_path.read_bytes() == manifest2.read_bytes()

    def test_empty_log_rejected(self, tmp_path):
        with pytest.raises(ExportError):
            export(MetricsLog(config=tiny_config()), tmp_path)
        assert not list(tmp_path.iterdir())

    def test_manifest_reproduces_run(self, tmp_path):
        import json

        log = run_experiment(tiny_config(seed=11), max_rounds=2)
        _, manifest_path = export(log, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        cfg2 = config_from_dict(manifest["config"])
        log2 = run_experiment(cfg2, max_rounds=2)
        assert log.rows == log2.rows


class TestSweep:
    def test_small_sweep_shapes(self):
        rows = run_sweep(
            tiny_config(), kp_values=[6, 8], q_values=[0.1],
            schemes=("CLSIA",), iterations=3,
        )
        assert len(rows) == 2
        by_kp = {r.sats_per_plane: r.mean_bits_per_iteration for r in rows}
        # constant-length scheme is exactly linear in ring size
        assert by_kp[8] / by_kp[6] == pytest.approx(8 / 6)

    def test_too_small_ring_surfaces_los_error(self):
        with pytest.raises(ValidationError, match="constellation.sats_per_plane.*no ring"):
            run_sweep(tiny_config(), kp_values=[4], q_values=[0.1],
                      schemes=("SIA",), iterations=2)


class TestCli:
    def test_validate_ok(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        write_config(tiny_config(), path)
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_validate_bad_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"q": -1}))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("raw, key", [
        ({"constellation": {"sats_per_plane": 3}}, "constellation.sats_per_plane"),
        ({"dataset": {"train_samples": 20}}, "dataset.train_samples"),
        ({"q": "0.1"}, "q must be a number"),
        ({"constellation": {"planes": 1, "inclination_deg": 30.0},
          "ground_station": {"latitude_deg": -89.0}}, "ground_station.latitude_deg"),
        ({"constellation": {"inclination_deg": 30.0},
          "ground_station": {"latitude_deg": 61.65}}, "ground_station.latitude_deg"),
    ] + SECTION_WRONG_TYPE + SECTION_OUT_OF_RANGE + [({"seed": -1}, "seed")])
    def test_validate_rejects_unrunnable_config(self, tmp_path, capsys, raw, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and key in err

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
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--scheme", "SPARSE"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--scheme" in capsys.readouterr().err

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
        (["run", "--rounds", "0"], "--rounds"),
        (["windows", "--plane", "7"], "--plane"),
        (["windows", "--plane", "-1"], "--plane"),
        (["windows", "--hours", "nan"], "--hours"),
        (["windows", "--hours", "0"], "--hours"),
        (["sweep", "--q-list", "abc"], "--q-list"),
        (["sweep", "--kp-step", "0"], "--kp-step"),
        (["sweep", "--iterations", "1"], "--iterations"),
        (["sweep", "--kp-min", "10", "--kp-max", "8"], "--kp-min"),
    ])
    def test_bad_arguments_exit_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        try:
            code = main(argv + ["--out", str(tmp_path)])
        except SystemExit as exc:  # argparse rejects at parse time
            code = exc.code
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_mnist_gives_ingestion_exit(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        cfg = tiny_config()
        cfg = dataclasses.replace(
            cfg, dataset=dataclasses.replace(
                cfg.dataset, source="mnist", mnist_dir=str(tmp_path / "missing")
            )
        )
        write_config(cfg, path)
        assert main(["run", "--config", str(path), "--rounds", "1",
                     "--out", str(tmp_path)]) == EXIT_INGESTION

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        write_config(tiny_config(), path)
        rc = main(["run", "--config", str(path), "--rounds", "2",
                   "--out", str(tmp_path / "out"), "--scheme", "CLSIA"])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "run.manifest.json").exists()


def readme_keys(text: str) -> list[str]:
    """Backquoted key names in README text, leaving out parenthesized defaults."""
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", text))


class TestReadme:
    """The README's configuration reference lists exactly the keys load_config accepts."""

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
