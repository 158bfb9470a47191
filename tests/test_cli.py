"""End-to-end command-line tests driven through cli.main in-process."""

import csv
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import vtapred
from vtapred import (
    CVConfig, DatasetError, load_dataset, metrics, prepare_records, run_ablation,
)
from vtapred.cli import (
    SETTINGS, ConfigError, build_configs, build_parser, dataset_checksum, main, parse_config_file,
    read_by, resolve_settings,
)
from vtapred.dataset import LABELS
from vtapred.evaluation import (
    ABLATION_ROWS, INIT_STREAM, ROW_BASELINE, EvalReport, ablation_config, fit_model, format_report_table,
    write_per_seed_csv, write_report_csv,
)
from vtapred.features import build_cohort, extract, feature_names, write_feature_matrix
from vtapred.network import TRAIN_DTYPE, NetworkConfig, backward, init_params, load_checkpoint, loss, objective
from vtapred.synthetic import write_tachogram_dataset

COMMANDS = ("features", "train", "ablate")
README = Path(__file__).resolve().parents[1] / "README.md"

RECENT_HEADER = (
    "record_id,label,mean_rr,lf_power,hf_power,min_rr,max_rr,"
    "delta_mean_rr,delta_ectopic_count"
)


# the keys of the fixed feature recipe, which are constants of vtapred.features, with a value each
FIXED_FEATURE_RECIPE = {
    "recent_beats": "40", "window_beats": "200", "lf_lo": "0.03", "lf_hi": "0.2", "hf_hi": "0.5",
    "ectopic_threshold": "0.3", "ectopic_ref_beats": "8",
}

# the keys of the paper's fixed protocol, which are constants or always on: key -> (its flag, a file value)
FIXED_PROTOCOL = {
    "truncate_controls": (["--no-truncate-controls"], "no"),
    "keep_prob": (["--keep-prob", "0.5"], "0.5"),
    "threshold": (["--threshold", "0.25"], "0.25"),
    "include_windowed": (["--no-include-windowed"], "no"),  # each family has its one matrix
    "min_beats": (["--min-beats", "250"], "250"),  # dataset.MIN_BEATS, the windowed features' floor
    "lam_nyhac": (["--lam-nyhac", "0"], "0"),  # the multi_task switch replaces both weights
    "lam_bmi": (["--lam-bmi", "0"], "0"),
}


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def data(tacho_dataset):
    tacho_dir, metadata = tacho_dataset
    return str(tacho_dir), str(metadata)


class TestFeaturesCommand:
    def test_writes_the_recent_feature_matrix(self, data, tmp_path):
        out = tmp_path / "features.csv"
        rc = run("features", "--data-dir", data[0], "--metadata", data[1], "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == RECENT_HEADER
        assert len(lines) == 25  # 24 usable records + header

    def test_reference_panel_selectable_by_flag(self, data, tmp_path, prepared_records):
        out = tmp_path / "panel.csv"
        rc = run("features", "--data-dir", data[0], "--metadata", data[1], "--out", str(out),
                 "--feature-set", "baseline11")
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("record_id,label,mean_nn,sdnn,rmssd,pnn50")
        assert len(header.split(",")) == 2 + 11
        # the grid's baseline row reads the same panel
        grid_panel = tmp_path / "grid_panel.csv"
        write_feature_matrix(grid_panel, build_cohort(*prepared_records, ablation_config(ROW_BASELINE, CVConfig())[0]))
        assert out.read_bytes() == grid_panel.read_bytes()

    def test_missing_data_dir_fails_cleanly(self, data, tmp_path, capsys):
        rc = run("features", "--data-dir", str(tmp_path / "nowhere"),
                 "--metadata", data[1], "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_changes_the_numbers(self, data, tmp_path):
        default_out = tmp_path / "default.csv"
        tuned_out = tmp_path / "tuned.csv"
        config = tmp_path / "run.conf"
        config.write_text("# a longer horizon\n\nhorizon_ms = 90000\n")
        assert run("features", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(default_out)) == 0
        assert run("features", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(tuned_out), "--config", str(config)) == 0
        assert default_out.read_text() != tuned_out.read_text()

    def test_flag_beats_config_file(self, data, tmp_path):
        default_out = tmp_path / "default.csv"
        overridden = tmp_path / "overridden.csv"
        config = tmp_path / "run.conf"
        config.write_text("horizon_ms = 90000\n")
        assert run("features", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(default_out)) == 0
        assert run("features", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(overridden), "--config", str(config),
                   "--horizon-ms", "60000") == 0
        assert default_out.read_bytes() == overridden.read_bytes()

    def test_unknown_config_key_rejected(self, data, tmp_path, capsys):
        # a file that sets a dropped key, such as the fixed optimizer or feature recipe's, must fail,
        # not be ignored
        config = tmp_path / "bad.conf"
        for line in ("learning_rate_warmup = 5", "clip_mode = norm", "hf_lo = 0.15",
                     "lr = 0.5", "rho = 0.9", "eps = 1e-4", "clip = 0.2",
                     *(f"{key} = {value}" for key, value in FIXED_FEATURE_RECIPE.items())):
            config.write_text(line + "\n")
            rc = run("features", "--data-dir", data[0], "--metadata", data[1],
                     "--out", str(tmp_path / "x.csv"), "--config", str(config))
            assert rc == 1
            assert "unknown key" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_bytes(b"epochs = 5\n# caf\xe9\n")
        # a missing data dir would fail at load time, so this message proves nothing was read
        rc = run("train", "--data-dir", str(tmp_path / "nowhere"), "--metadata", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "x.csv"), "--config", str(config))
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.conf, line 2: not UTF-8 text (byte 0xe9)" in err
        assert "nowhere" not in err

    def test_bad_config_value_rejected(self, data, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        # int() and float() alone read 1_0 as 10 and full-width or Arabic-Indic digits as theirs;
        # a '#' after a value is part of it, not a comment
        for command, line in (("train", "epochs = soon"), ("train", "epochs = 1_0"),
                              ("train", "horizon_ms = \uff10.\uff15"), ("features", "horizon_ms = 2_50"),
                              ("ablate", "k_folds = \u0663"), ("ablate", "horizon_ms = 0.2_5"),
                              ("train", "epochs = 5  # five")):
            config.write_text(line + "\n", encoding="utf-8")
            rc = run(command, "--data-dir", data[0], "--metadata", data[1],
                     "--out", str(tmp_path / "x.csv"), "--config", str(config))
            assert rc == 1, line
            assert "bad value" in capsys.readouterr().err, line

    def test_bogus_feature_set_rejected(self, data, tmp_path, capsys):
        rc = run("features", "--data-dir", data[0], "--metadata", data[1],
                 "--out", str(tmp_path / "x.csv"), "--feature-set", "everything")
        assert rc == 1


# (function, parameter) -> the setting its default stands for
SIGNATURE_DEFAULTS = {
    (build_cohort, "feature_set"): "feature_set",
    (prepare_records, "horizon_ms"): "horizon_ms",
}

# settings that these parameters must be given, because their function cannot see the one default
NO_DEFAULTS = {
    feature_names: ("feature_set",),
    extract: ("feature_set",),
    objective: ("lam_nyhac", "lam_bmi"),
    loss: ("lam_nyhac", "lam_bmi"),
    backward: ("lam_nyhac", "lam_bmi"),
    run_ablation: ("jobs",),
    NetworkConfig: ("use_embedding",),
}


class TestSettings:
    def test_defaults_match_the_library(self):
        settings = {}
        for command in COMMANDS:
            args = build_parser().parse_args([command, "--data-dir", "d", "--metadata", "m", "--out", "o"])
            read = resolve_settings(args)
            assert list(read) == read_by(command)
            assert build_configs(read) == CVConfig()
            settings.update(read)
        assert settings.keys() == SETTINGS.keys()  # every key's default is checked
        assert build_configs(settings) == CVConfig()
        for (fn, name), key in SIGNATURE_DEFAULTS.items():
            default = inspect.signature(fn).parameters[name].default
            assert default == settings[key], (fn.__name__, name)
            assert type(default) is type(settings[key]), (fn.__name__, name)
        for fn, names in NO_DEFAULTS.items():
            parameters = inspect.signature(fn).parameters
            for name in names:
                assert parameters[name].default is inspect.Parameter.empty, (fn.__name__, name)

    def test_fixed_optimizer_recipe_is_not_a_setting(self):
        assert not {"lr", "rho", "eps", "clip"} & SETTINGS.keys()
        assert len(SETTINGS) == 10

    def test_fixed_protocol_is_not_a_setting(self):
        assert not set(FIXED_PROTOCOL) & SETTINGS.keys()
        assert [f.name for f in fields(CVConfig)] == ["epochs", "multi_task", "use_embedding", "k_folds",
                                                      "patient_grouped"]
        assert list(inspect.signature(prepare_records).parameters) == ["records", "horizon_ms"]
        assert list(inspect.signature(metrics).parameters) == ["labels", "probs"]

    def test_each_command_reads_its_own_keys(self):
        # 2 + 6 + 7 = 15 settable (command, key) pairs
        assert read_by("features") == ["feature_set", "horizon_ms"]
        assert set(read_by("train")) == {*read_by("features"), "epochs", "multi_task", "use_embedding", "seed"}
        assert set(read_by("ablate")) == {"horizon_ms", "epochs", "k_folds", "patient_grouped", "seed", "seeds",
                                          "jobs"}

    def test_fixed_feature_recipe_is_not_a_setting(self):
        assert list(inspect.signature(build_cohort).parameters) == ["records", "patients", "feature_set"]
        assert not set(FIXED_FEATURE_RECIPE) & SETTINGS.keys()

    def test_readme_settings_table_lists_every_setting(self):
        # the rows of the table under "Keys:"; a parenthesised note such as (`recent` or `baseline11`) names values
        readme = README.read_text(encoding="utf-8")
        table = readme.split("Keys:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
        read_by_key = {}
        for row in table:
            cells = row.split("|")
            commands = re.findall(r"`(\w+)`", cells[3])
            for key in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cells[2])):
                read_by_key[key] = commands
        assert sorted(read_by_key) == sorted(SETTINGS)
        for key, commands in read_by_key.items():  # the "read by" column, in the table's command order
            assert commands == [command for command in COMMANDS if command in SETTINGS[key][2]], key

    def test_readme_settings_counts_match(self):
        readme = README.read_text(encoding="utf-8")
        counts = {command: int(n) for n, command in re.findall(r"the (\d+) settings `(\w+)`\s+reads", readme)}
        assert sorted(counts) == ["ablate", "train"]
        for command, n in counts.items():
            assert n == len(read_by(command)), command

    def test_readme_command_examples_parse(self):
        readme = README.read_text(encoding="utf-8")
        block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("vtapred ")]
        assert [shlex.split(line)[1] for line in examples] == list(COMMANDS)
        for line in examples:
            build_parser().parse_args(shlex.split(line)[1:])  # an unknown flag exits

    def test_readme_library_use_runs(self, data, capsys):
        readme = README.read_text(encoding="utf-8")
        block = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert block.count('"data/tachograms"') == 1 and block.count('"data/metadata.csv"') == 1
        code = block.replace('"data/tachograms"', repr(data[0])).replace('"data/metadata.csv"', repr(data[1]))
        exec(compile(code, "README.md", "exec"), {})
        printed = capsys.readouterr().out
        assert printed.startswith("{'accuracy': ") and "'no_positive_predictions': " in printed


class TestParseConfigFile:
    def test_reads_flat_key_values(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("# comment\nepochs = 7\nuse_embedding = off\n\nhorizon_ms=0.5\n")
        values = parse_config_file(path, "train")
        assert values == {"epochs": 7, "use_embedding": False, "horizon_ms": 0.5}

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_bytes(b"\xef\xbb\xbfepochs = 7\r\nhorizon_ms=0.5\r\n")
        assert parse_config_file(path, "train") == {"epochs": 7, "horizon_ms": 0.5}
        path.write_bytes(b"\xef\xbb\xbfepochs = 7\n\n# caf\xe9\n")
        with pytest.raises(DatasetError) as info:
            parse_config_file(path, "train")
        assert str(info.value) == f"{path}, line 3: not UTF-8 text (byte 0xe9)"

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("epochs = 7\n# again\nepochs = 8\n")
        with pytest.raises(ConfigError) as info:
            parse_config_file(path, "train")
        assert str(info.value) == f"{path}, line 3: duplicate key 'epochs'"

    def test_ascii_space_around_keys_and_values_is_stripped(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("\tseeds\t=\t3 \v\n  patient_grouped =  yes\f\n \t \n", encoding="utf-8")
        assert parse_config_file(path, "ablate") == {"seeds": 3, "patient_grouped": True}

    # str.strip() would read the first three as seeds = 3, patient_grouped = yes and a blank line;
    # the flag --seeds '3\u00a0' and the tachogram line '800\u00a0' are rejected too
    @pytest.mark.parametrize("line,complaint", [
        ("seeds = 3\u00a0", "bad value for 'seeds': not a number: '3\\xa0'"),
        ("patient_grouped = yes\u00a0", "bad value for 'patient_grouped': not a boolean: 'yes\\xa0'"),
        ("\u00a0", "expected 'key = value'"),
        ("seeds\u3000= 3", "unknown key 'seeds\\u3000'"),
    ])
    def test_non_ascii_space_is_kept(self, tmp_path, line, complaint):
        path = tmp_path / "a.conf"
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_config_file(path, "ablate")
        assert str(info.value) == f"{path}, line 2: {complaint}"

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("epochs\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_file(path, "train")


class TestTrainCommand:
    def test_same_seed_checkpoints_are_byte_identical(self, data, tmp_path):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            rc = run("train", "--data-dir", data[0], "--metadata", data[1],
                     "--out", str(out), "--epochs", "15", "--seed", "3")
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, data, tmp_path):
        blobs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.ckpt"
            assert run("train", "--data-dir", data[0], "--metadata", data[1],
                       "--out", str(out), "--epochs", "15", "--seed", seed) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_zero_epochs_checkpoint_is_the_initialization(self, data, tmp_path):
        out = tmp_path / "init.ckpt"
        assert run("train", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(out), "--epochs", "0", "--seed", "5") == 0
        params, header = load_checkpoint(out)

        _, patients = load_dataset(data[0], data[1])
        decades = {p.birth_decade for p in patients.values()} - {None}
        expected = init_params(
            NetworkConfig(num_features=7, num_decades=max(len(decades), 1), use_embedding=True),
            np.random.default_rng([5, INIT_STREAM, 0]),
        )
        assert params.config == expected.config
        assert params.flat.dtype == TRAIN_DTYPE
        for name in expected:  # the fit's precision: the float64 draw rounded once
            np.testing.assert_array_equal(params[name], expected[name].astype(TRAIN_DTYPE))
        assert list(header["extra"]) == ["settings"]
        assert header["extra"]["settings"]["seed"] == 5

    def test_loss_history_sits_next_to_the_checkpoint(self, data, tmp_path):
        out = tmp_path / "model.ckpt"
        assert run("train", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(out), "--epochs", "12") == 0
        lines = (tmp_path / "model.ckpt.loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,vta_loss,nyhac_loss,bmi_loss"
        assert len(lines) == 13

    def test_single_task_zeroes_auxiliary_losses(self, data, tmp_path):
        out = tmp_path / "single.ckpt"
        assert run("train", "--data-dir", data[0], "--metadata", data[1],
                   "--out", str(out), "--epochs", "10", "--no-multi-task") == 0
        lines = (tmp_path / "single.ckpt.loss.csv").read_text().splitlines()[1:]
        for line in lines:
            epoch, total, vta, nyhac, bmi = line.split(",")
            assert float(nyhac) == 0.0
            assert float(bmi) == 0.0
            assert float(total) == float(vta)

    @pytest.mark.parametrize("row", ABLATION_ROWS)
    def test_flags_reproduce_each_grid_row(self, data, tmp_path, prepared_records, row):
        # train with a row's three flags fits, bit for bit, what fit_model fits for that row on every record
        feature_set, cv = ablation_config(row, CVConfig(epochs=6))
        flags = ["--feature-set", feature_set,
                 "--use-embedding" if cv.use_embedding else "--no-use-embedding",
                 "--multi-task" if cv.multi_task else "--no-multi-task"]
        out = tmp_path / "row.ckpt"
        assert run("train", "--data-dir", data[0], "--metadata", data[1], "--out", str(out),
                   "--epochs", "6", "--seed", "4", *flags) == 0
        cohort = build_cohort(*prepared_records, feature_set)
        want, _, _ = fit_model(cohort, np.arange(len(cohort)), cv, 4, fold=0)
        got, _ = load_checkpoint(out)
        assert got.config == want.config
        assert got.flat.dtype == want.flat.dtype
        assert got.flat.tobytes() == want.flat.tobytes()


@pytest.fixture(scope="module")
def ablate_run(data, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("grid")
    config = out_dir / "quick.conf"
    config.write_text("epochs = 25\nseeds = 2\nk_folds = 3\n")
    rc = run("ablate", "--data-dir", data[0], "--metadata", data[1],
             "--out", str(out_dir / "run"), "--config", str(config))
    return rc, out_dir / "run", config


class TestAblateCommand:
    def test_exit_code_and_stdout_table(self, ablate_run, capsys):
        rc, _, _ = ablate_run
        assert rc == 0

    def test_report_files_exist(self, ablate_run):
        _, out, _ = ablate_run
        assert (out / "report.csv").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "per_seed.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_report_shape(self, ablate_run):
        _, out, _ = ablate_run
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "configuration,accuracy,sensitivity,specificity,precision,auc"
        assert len(lines) == 5
        table = (out / "report.txt").read_text().splitlines()
        assert table[0].startswith("Configuration")
        assert table[4].startswith("+ multi-task optimization")

    def test_per_seed_rows(self, ablate_run):
        _, out, _ = ablate_run
        lines = (out / "per_seed.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2

    def test_predictions_per_row_and_seed(self, ablate_run):
        _, out, _ = ablate_run
        files = sorted(p.name for p in (out / "predictions").iterdir())
        assert files == sorted(
            f"{row}_seed{seed}.csv"
            for row in ("baseline", "windowed", "age_embedding", "multi_task")
            for seed in (0, 1)
        )
        first = (out / "predictions" / files[0]).read_text().splitlines()
        assert first[0] == "record_id,label,probability"
        assert len(first) == 25

    def test_manifest_contents(self, ablate_run, data):
        _, out, _ = ablate_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "vtapred"
        assert manifest["version"] == vtapred.__version__
        assert manifest["seeds"] == [0, 1]
        assert manifest["settings"]["epochs"] == 25
        assert manifest["dataset"]["records_used"] == 24
        assert len(manifest["dataset"]["checksum_sha256"]) == 64
        # the settings are echoed once
        assert sorted(manifest) == ["created", "dataset", "seeds", "settings", "tool", "version"]
        assert sorted(manifest["settings"]) == sorted(read_by("ablate"))

    def test_rerun_reproduces_every_artifact(self, ablate_run, data, tmp_path):
        _, first, config = ablate_run
        second = tmp_path / "again"
        rc = run("ablate", "--data-dir", data[0], "--metadata", data[1],
                 "--out", str(second), "--config", str(config))
        assert rc == 0
        for name in ("report.csv", "report.txt", "per_seed.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        for path in sorted((first / "predictions").iterdir()):
            twin = second / "predictions" / path.name
            assert path.read_bytes() == twin.read_bytes()
        a = json.loads((first / "manifest.json").read_text())
        b = json.loads((second / "manifest.json").read_text())
        a.pop("created"), b.pop("created")
        assert a == b

    def test_reports_are_a_function_of_the_predictions(self, data, tmp_path):
        # two epochs leave the grid unsaturated; at ablate_run's 25 every cell reads 100.00
        out = tmp_path / "grid"
        assert run("ablate", "--data-dir", data[0], "--metadata", data[1], "--out", str(out),
                   "--epochs", "2", "--seeds", "2", "--k-folds", "3") == 0
        seeds = tuple(json.loads((out / "manifest.json").read_text())["seeds"])
        # .17g round-trips a float64, so the parsed probabilities are the ones the grid scored
        probs = {}
        for row in ABLATION_ROWS:
            for seed in seeds:
                rows = read_csv(out / "predictions" / f"{row}_seed{seed}.csv")[1:]
                probs[row, seed] = np.array([float(prob) for _, _, prob in rows])
        # every predictions file lists the records in one order, so the last one names them
        report = EvalReport(ABLATION_ROWS, seeds, tuple(rid for rid, _, _ in rows),
                            np.array([LABELS.index(label) for _, label, _ in rows]), probs)
        write_report_csv(tmp_path / "report.csv", report)
        write_per_seed_csv(tmp_path / "per_seed.csv", report)
        for name in ("report.csv", "per_seed.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
        assert format_report_table(report).encode() == (out / "report.txt").read_bytes()
        # a saturated grid, every cell 0 or 100, would hide a scoring that disagrees
        cells = [float(cell) for line in read_csv(out / "report.csv")[1:] for cell in line[1:]]
        assert any(0.0 < cell < 100.0 for cell in cells)

    def test_patient_grouped_single_class_patients(self, tmp_path):
        # 12 patients of two records of one class each, 6 per class, fill all 10 folds
        tacho_dir, metadata = write_tachogram_dataset(tmp_path, n_event=12, n_control=12, seed=3)
        with open(metadata, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        rows = [[row[0], f"pat{i // 2:03d}", *rows[i - i % 2][2:]] for i, row in enumerate(rows)]
        with open(metadata, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        out = tmp_path / "grouped"
        assert run("ablate", "--data-dir", str(tacho_dir), "--metadata", str(metadata), "--out", str(out),
                   "--patient-grouped", "--k-folds", "10", "--epochs", "2", "--seeds", "1") == 0
        files = sorted((out / "predictions").iterdir())
        assert len(files) == len(ABLATION_ROWS)
        for path in files:
            assert sorted(row[0] for row in read_csv(path)[1:]) == [row[0] for row in rows]

    def test_seed_is_the_first_of_the_seeds(self, data, tmp_path):
        out = tmp_path / "seed5"
        assert run("ablate", "--data-dir", data[0], "--metadata", data[1], "--out", str(out),
                   "--seed", "5", "--seeds", "1", "--epochs", "2", "--k-folds", "3") == 0
        files = sorted(p.name for p in (out / "predictions").iterdir())
        assert files == sorted(f"{row}_seed5.csv" for row in ("baseline", "windowed", "age_embedding", "multi_task"))
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [5]


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "features" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0

    def test_unknown_flag_exits_one(self, data, tmp_path, capsys):
        rc = run("features", "--data-dir", data[0], "--metadata", data[1],
                 "--out", str(tmp_path / "x.csv"), "--frobnicate")
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--lr", "--rho", "--eps", "--clip"])
    def test_fixed_optimizer_recipe_has_no_flag(self, data, tmp_path, flag):
        rc = run("features", "--data-dir", data[0], "--metadata", data[1],
                 "--out", str(tmp_path / "x.csv"), flag, "0.5")
        assert rc == 1

    @pytest.mark.parametrize("command, key", [(c, k) for c in COMMANDS for k in FIXED_PROTOCOL])
    def test_fixed_protocol_has_no_flag(self, data, tmp_path, capsys, command, key):
        # a missing data dir would fail at load time, so the refusal proves nothing was read
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), *FIXED_PROTOCOL[key][0])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(FIXED_PROTOCOL[key][0])}" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("command, key", [(c, k) for c in COMMANDS for k in FIXED_PROTOCOL])
    def test_fixed_protocol_key_in_a_config_file_is_unknown(self, data, tmp_path, capsys, command, key):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {FIXED_PROTOCOL[key][1]}\n")
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), "--config", str(config))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{config}, line 1: unknown key {key!r}" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("key", FIXED_FEATURE_RECIPE)
    def test_fixed_feature_recipe_has_no_flag(self, data, tmp_path, capsys, key):
        flag = "--" + key.replace("_", "-")
        rc = run("features", "--data-dir", data[0], "--metadata", data[1],
                 "--out", str(tmp_path / "x.csv"), flag, FIXED_FEATURE_RECIPE[key])
        assert rc == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [("train", "--epoch", "7"), ("ablate", "--horizon", "5")],
                             ids=["train-epoch", "ablate-horizon"])
    def test_flag_prefix_exits_one_before_reading_data(self, data, tmp_path, capsys, command, flag, value):
        # a missing data dir would fail at load time, so the refusal proves nothing was read
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), flag, value)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exact_flags_still_parse(self, command):
        epochs = [] if command == "features" else ["--epochs", "7"]  # features reads no epochs
        # a third setting the command reads: features reads no bool
        key, flag, value = {"features": ("feature_set", ["--feature-set", "baseline11"], "baseline11"),
                            "train": ("use_embedding", ["--no-use-embedding"], False),
                            "ablate": ("patient_grouped", ["--no-patient-grouped"], False)}[command]
        args = build_parser().parse_args([command, "--data-dir", "d", "--metadata", "m", "--out", "o",
                                          *epochs, "--horizon-ms", "5", *flag])
        assert (vars(args).get("epochs"), args.horizon_ms, getattr(args, key)) == (7 if epochs else None, 5.0, value)

    def test_missing_required_out_exits_one(self, data):
        assert run("features", "--data-dir", data[0], "--metadata", data[1]) == 1

    def test_unknown_command_exits_one(self):
        assert run("explode") == 1

    @pytest.mark.parametrize("command, flag, value, message", [
        ("features", "--horizon-ms", "nan", "horizon_ms must be finite"),
        ("features", "--horizon-ms", "inf", "horizon_ms must be finite"),
        ("features", "--min-beats", "-1", "unrecognized arguments: --min-beats -1"),
        ("ablate", "--seeds", "0", "seeds must be >= 1"),
        ("ablate", "--seeds", "-2", "seeds must be >= 1"),
        ("ablate", "--jobs", "0", "jobs must be >= 1"),
        ("ablate", "--jobs", "-5", "jobs must be >= 1"),
        ("train", "--seed", "-1", "seed must be >= 0"),
        ("train", "--epochs", "-1", "epochs must be >= 0, got -1"),
        ("ablate", "--k-folds", "1", "k_folds must be >= 2, got 1"),
        # the bands are constants now, so an impossible band cannot even be asked for
        ("features", "--lf-hi", "0.047", "unrecognized arguments: --lf-hi 0.047"),
        ("features", "--hf-hi", "inf", "unrecognized arguments: --hf-hi inf"),
        ("features", "--hf-hi", "1e6", "unrecognized arguments: --hf-hi 1e6"),
        ("features", "--hf-hi", "2.6", "unrecognized arguments: --hf-hi 2.6"),
        ("features", "--lf-lo", "-1", "unrecognized arguments: --lf-lo -1"),
        # int() and float() alone read these as 10, 3 and 60000
        ("ablate", "--seeds", "\uff11_0", "argument --seeds: invalid int value: '\uff11_0'"),
        ("ablate", "--k-folds", "\u0663", "argument --k-folds: invalid int value: '\u0663'"),
        ("features", "--horizon-ms", "60_000", "argument --horizon-ms: invalid float value: '60_000'"),
    ], ids=["nan-horizon", "inf-horizon", "negative-min-beats", "zero-seeds", "negative-seeds",
            "zero-jobs", "negative-jobs", "negative-seed", "negative-epochs", "one-fold",
            "one-point-lf-band", "unbounded-hf-band", "huge-hf-edge", "hf-edge-past-limit", "negative-lf-edge",
            "full-width-seeds", "arabic-indic-k-folds", "underscored-horizon"])
    def test_impossible_ingest_setting_exits_one_before_reading_data(
        self, data, tmp_path, capsys, command, flag, value, message,
    ):
        # a missing data dir would fail at load time, so reaching the check proves nothing was read
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), flag, value)
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "nowhere" not in err

    # a missing data dir would fail at load time, so the --out error must come first
    def test_features_out_in_a_missing_directory_exits_one_before_reading_data(self, data, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "x.csv"
        rc = run("features", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1], "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {out}: no directory" in err
        assert "nowhere" not in err

    def test_train_out_that_is_a_directory_exits_one_before_reading_data(self, data, tmp_path, capsys):
        rc = run("train", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {tmp_path} is a directory" in err
        assert "nowhere" not in err

    def test_train_loss_history_that_is_a_directory_exits_one_before_reading_data(self, data, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        losses = tmp_path / "m.ckpt.loss.csv"
        losses.mkdir()
        rc = run("train", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1], "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {out}: {losses} is a directory" in err
        assert "nowhere" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["report.csv", "report.txt", "per_seed.csv", "manifest.json"])
    def test_ablate_report_that_is_a_directory_exits_one_before_reading_data(self, data, tmp_path, capsys, name):
        out = tmp_path / "grid"
        (out / name).mkdir(parents=True)
        rc = run("ablate", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1], "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {out}: {out / name} is a directory" in err
        assert "nowhere" not in err

    def test_ablate_predictions_that_is_a_file_exits_one_before_reading_data(self, data, tmp_path, capsys):
        out = tmp_path / "grid"
        out.mkdir()
        (out / "predictions").write_text("not a directory\n")
        rc = run("ablate", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1], "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {out}: {out / 'predictions'} is not a directory" in err
        assert "nowhere" not in err
        assert sorted(p.name for p in out.iterdir()) == ["predictions"]

    @pytest.mark.parametrize("command", ["features", "train", "ablate"])
    def test_empty_out_exits_one_before_reading_data(self, data, tmp_path, capsys, command):
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1], "--out", "")
        assert rc == 1
        err = capsys.readouterr().err
        assert "--out must not be empty" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("flag", ["--config", "--data-dir", "--metadata"])
    def test_empty_input_path_exits_one_before_reading_data(self, data, tmp_path, capsys, flag):
        argv = {"--data-dir": str(tmp_path / "nowhere"), "--metadata": str(tmp_path / "absent.csv"), flag: ""}
        rc = run("features", *(part for item in argv.items() for part in item), "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{flag} must not be empty" in err
        assert "nowhere" not in err and "absent" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, key", [(c, k) for c in COMMANDS for k in SETTINGS if k not in read_by(c)])
    def test_flag_the_command_does_not_read_exits_one_before_reading_data(self, data, tmp_path, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        value = [] if isinstance(SETTINGS[key][1], bool) else [str(SETTINGS[key][1])]
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), flag, *value)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join([flag, *value])}" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("command, key", [(c, k) for c in COMMANDS for k in SETTINGS if k not in read_by(c)])
    def test_config_key_the_command_does_not_read_exits_one_before_reading_data(
        self, data, tmp_path, capsys, command, key,
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"# the default value\n{key} = {SETTINGS[key][1]}\n")
        rc = run(command, "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(tmp_path / "out"), "--config", str(config))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{config}, line 2: {command} does not read key {key!r}" in err
        assert "nowhere" not in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_settings_echo_holds_exactly_what_the_command_read(self, data, tmp_path, command):
        out = tmp_path / "out"
        assert run(command, "--data-dir", data[0], "--metadata", data[1], "--out", str(out),
                   "--epochs", "1", *(["--seeds", "1", "--k-folds", "2"] if command == "ablate" else [])) == 0
        if command == "train":
            settings = load_checkpoint(out)[1]["extra"]["settings"]
        else:
            settings = json.loads((out / "manifest.json").read_text())["settings"]
        assert sorted(settings) == sorted(read_by(command))
        assert settings["epochs"] == 1

    @pytest.mark.parametrize("below", ["", "grid"], ids=["the-file", "under-the-file"])
    def test_ablate_out_at_a_file_exits_one_before_reading_data(self, data, tmp_path, capsys, below):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = run("ablate", "--data-dir", str(tmp_path / "nowhere"), "--metadata", data[1],
                 "--out", str(out / below))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--out {out / below}: {out} is not a directory" in err
        assert "nowhere" not in err
        assert out.read_text() == "not a directory\n"


def test_importing_the_cli_loads_no_scipy():
    # scipy's import was most of every CLI call's start-up time
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, vtapred.cli; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_importing_the_cli_loads_no_process_pool():
    # only ablate with jobs > 1 needs the pool, so plain calls skip its import
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, vtapred.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_features_command_loads_no_hashlib(data, tmp_path):
    # only ablate's manifest checksums the dataset, so the other commands skip hashlib and OpenSSL
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["features", "--data-dir", data[0], "--metadata", data[1], "--out", str(tmp_path / "f.csv")]
    code = f"import sys, vtapred.cli; rc = vtapred.cli.main({argv!r}); print(rc, 'hashlib' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "0 False"


ODD_IDS = {"r000": "a,b", "r013": 'c"d'}  # an event record and a control record


@pytest.fixture(scope="module")
def odd_id_data(tmp_path_factory):
    """The fixture cohort with two record ids that need CSV quoting."""
    tacho_dir, metadata = write_tachogram_dataset(tmp_path_factory.mktemp("odd_ids"), seed=3)
    for old, new in ODD_IDS.items():
        (tacho_dir / f"{old}.txt").rename(tacho_dir / f"{new}.txt")
    with open(metadata, newline="", encoding="utf-8") as fh:
        rows = [[ODD_IDS.get(row[0], row[0]), *row[1:]] for row in csv.reader(fh)]
    with open(metadata, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return str(tacho_dir), str(metadata)


def read_csv(path) -> list[list[str]]:
    """Every row of a CSV output, each checked to be as wide as the header."""
    data = Path(path).read_bytes()
    assert b"\r" not in data
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    assert all(len(row) == len(rows[0]) for row in rows), path
    return rows


class TestCsvOutputs:
    def test_features_quote_the_ids(self, odd_id_data, tmp_path):
        out = tmp_path / "features.csv"
        assert run("features", "--data-dir", odd_id_data[0], "--metadata", odd_id_data[1], "--out", str(out)) == 0
        ids = [row[0] for row in read_csv(out)[1:]]
        assert set(ODD_IDS.values()) <= set(ids)
        assert ids == sorted(ids)

    def test_loss_history_has_plain_line_ends(self, odd_id_data, tmp_path):
        out = tmp_path / "model.ckpt"
        assert run("train", "--data-dir", odd_id_data[0], "--metadata", odd_id_data[1], "--out", str(out),
                   "--epochs", "3") == 0
        rows = read_csv(f"{out}.loss.csv")
        assert [row[0] for row in rows] == ["epoch", "0", "1", "2"]

    def test_ablate_quotes_the_ids(self, odd_id_data, tmp_path):
        out = tmp_path / "grid"
        assert run("ablate", "--data-dir", odd_id_data[0], "--metadata", odd_id_data[1], "--out", str(out),
                   "--epochs", "2", "--seeds", "1", "--k-folds", "2") == 0
        assert len(read_csv(out / "report.csv")) == 5
        assert len(read_csv(out / "per_seed.csv")) == 5
        with open(odd_id_data[1], newline="", encoding="utf-8") as fh:
            labels = {row[0]: row[2] for row in list(csv.reader(fh))[1:]}
        assert set(ODD_IDS.values()) <= set(labels)
        for path in sorted((out / "predictions").iterdir()):
            assert {row[0]: row[1] for row in read_csv(path)[1:]} == labels  # every record is kept


class TestDatasetChecksum:
    def test_covers_exactly_the_files_load_dataset_reads(self, tmp_path):
        tacho_dir, metadata = write_tachogram_dataset(tmp_path, n_event=2, n_control=2, seed=1)
        before = dataset_checksum(tacho_dir, metadata)
        (tacho_dir / ".notes.txt").write_text("not a tachogram\n")
        (tacho_dir / "archive").mkdir()
        (tacho_dir / "archive" / "r000.txt").write_text("800.0\n")
        assert [rec.record_id for rec in load_dataset(tacho_dir, metadata)[0]] == ["r000", "r001", "r002", "r003"]
        assert dataset_checksum(tacho_dir, metadata) == before

        tachogram = tacho_dir / "r002.txt"
        tachogram.write_bytes(tachogram.read_bytes() + b"800.0\n")
        assert dataset_checksum(tacho_dir, metadata) != before

    def test_ablate_manifest_names_the_bytes_the_grid_read(self, tmp_path, monkeypatch):
        tacho_dir, metadata = write_tachogram_dataset(tmp_path, n_event=4, n_control=4, seed=1)
        before = dataset_checksum(tacho_dir, metadata)
        tachogram = tacho_dir / "r002.txt"

        def run_then_edit(*args, **kwargs):  # a tachogram edited while the grid runs
            report = run_ablation(*args, **kwargs)
            tachogram.write_bytes(tachogram.read_bytes() + b"800.0\n")
            return report

        monkeypatch.setattr("vtapred.cli.run_ablation", run_then_edit)
        out = tmp_path / "grid"
        assert run("ablate", "--data-dir", str(tacho_dir), "--metadata", str(metadata), "--out", str(out),
                   "--epochs", "1", "--seeds", "1", "--k-folds", "2") == 0
        assert dataset_checksum(tacho_dir, metadata) != before
        assert json.loads((out / "manifest.json").read_text())["dataset"]["checksum_sha256"] == before

    def test_name_and_content_boundary_counts(self, tmp_path):
        # r1.txt holding 1800 and r1.txt1 holding 800 run together into the same bytes, yet load as other records
        metadata = tmp_path / "metadata.csv"
        metadata.write_text(f"record_id,patient_id,label,birth_year,nyhac,bmi\nr1,pat1,{LABELS[1]},1950,2,25.0\n")
        checksums, intervals = [], []
        for name, content in (("r1.txt", "1800\n"), ("r1.txt1", "800\n")):
            tacho_dir = tmp_path / name
            tacho_dir.mkdir()
            (tacho_dir / name).write_text(content)
            checksums.append(dataset_checksum(tacho_dir, metadata))
            intervals.append(load_dataset(tacho_dir, metadata)[0][0].intervals_ms.tolist())
        assert intervals == [[1800.0], [800.0]]
        assert checksums[0] != checksums[1]
