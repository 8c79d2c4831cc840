"""CLI subcommands: generate, train, eval, analyze, sweep, ledger; and --log-level."""

import argparse
import csv
import json
import logging
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import fedspan.cli
from fedspan.cli import CONFIG_FLAGS, _add_config_arguments, build_parser, main
from fedspan.config import ExperimentConfig
from fedspan.corpus import parse_corpus, read_corpus_dir, write_corpus_dir, Corpus
from fedspan.synth import default_synth_config

from conftest import OVERFIT_FIXTURE


def small_config(tmp_path, **kw):
    """A config that runs in seconds: tiny model, tiny synthetic corpora."""
    synth = default_synth_config().to_dict()
    synth.update(train_size=16, val_size=6, test_size=6)
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth))
    fields = dict(
        rounds=2,
        local_epochs=1,
        embed_dim=12,
        hidden_dim=12,
        rep_dim=8,
        vocab_size=256,
        synth_config=str(synth_path),
        output_dir=str(tmp_path / "run"),
        track_test_matrix=True,
        seed=5,
    )
    fields.update(kw)
    path = tmp_path / "config.json"
    path.write_text(ExperimentConfig(**fields).to_json())
    return path


def named(*names):
    """A synth config edit that gives its first domains these names."""

    def edit(data):
        domains = [{**domain, "name": name} for domain, name in zip(data["domains"], names)]
        return {**data, "domains": domains}

    return edit


class TestGenerate:
    def test_writes_four_corpus_dirs(self, tmp_path, capsys):
        config = small_config(tmp_path)
        assert main(["generate", "--config", str(config)]) == 0
        corpora_dir = tmp_path / "run" / "corpora"
        names = sorted(p.name for p in corpora_dir.iterdir())
        assert names == ["hotels", "laptops", "phones", "restaurants"]
        for name in names:
            corpus = read_corpus_dir(corpora_dir / name)
            assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (16, 6, 6)

    def test_regeneration_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        main(["generate", "--config", str(config)])
        first = (tmp_path / "run" / "corpora" / "laptops" / "train.txt").read_bytes()
        main(["generate", "--config", str(config)])
        again = (tmp_path / "run" / "corpora" / "laptops" / "train.txt").read_bytes()
        assert first == again

    def test_round_trips_through_parser(self, tmp_path):
        config = small_config(tmp_path)
        main(["generate", "--config", str(config)])
        text = (tmp_path / "run" / "corpora" / "phones" / "test.txt").read_text()
        sentences = parse_corpus(text)
        assert len(sentences) == 6

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSPAN_OUTPUT_ROOT", str(tmp_path / "root"))
        synth = default_synth_config().to_dict()
        synth.update(train_size=4, val_size=2, test_size=2)
        (tmp_path / "synth.json").write_text(json.dumps(synth))
        config_path = tmp_path / "config.json"
        config_path.write_text(
            ExperimentConfig(
                synth_config=str(tmp_path / "synth.json"), output_dir="rel/out"
            ).to_json()
        )
        assert main(["generate", "--config", str(config_path)]) == 0
        assert (tmp_path / "root" / "rel" / "out" / "corpora").is_dir()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda d: {k: v for k, v in d.items() if k != "domains"}, "missing synth config keys"),
            (lambda d: {**d, "domains": [{"name": "x"}]}, "domains[0] needs a name and aspects"),
            (lambda d: [d], "synth config must be an object, got list"),
            (lambda d: {**d, "train_size": "5"}, "train_size must be of type int"),
            (lambda d: {**d, "shared_aspect_rate": "0.1"}, "shared_aspect_rate must be of type float"),
            (
                lambda d: {**d, "domains": [{"name": "laptops", "aspects": "screen"}]},
                "domains[0].aspects must be of type list[str], got 'screen'",
            ),
            (named(5), "domains[0].name must be of type str, got 5"),
            (named("../../escaped"), "domains[0].name must be a distinct file name, got '../../escaped'"),
            (named(""), "domains[0].name must be a distinct file name, got ''"),
            (named("."), "domains[0].name must be a distinct file name, got '.'"),
            (named(".."), "domains[0].name must be a distinct file name, got '..'"),
            (named("a\\b"), "domains[0].name must be a distinct file name, got 'a\\\\b'"),
            (named("x", "y", "x"), "domains[2].name must be a distinct file name, got 'x'"),
            (
                lambda d: {**d, "opinions": [["odd", "XYZ"], *d["opinions"]]},
                "opinions[0]: 'XYZ' is not a valid Polarity",
            ),
        ],
        ids=[
            "no_domains", "domain_without_aspects", "top_level_list", "size_not_an_int",
            "rate_not_a_float", "aspects_a_string", "name_not_a_string", "name_escapes_the_output",
            "name_empty", "name_dot", "name_dot_dot", "name_with_a_backslash", "name_repeated",
            "unknown_polarity",
        ],
    )
    def test_malformed_synth_config_is_an_error(self, tmp_path, capsys, make, message):
        synth = make(default_synth_config().to_dict())
        path = tmp_path / "s.json"
        path.write_text(json.dumps(synth))
        out = tmp_path / "gen"
        assert main(["generate", "--synth-config", str(path), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_synth_config_bad_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        assert main(["generate", "--synth-config", str(path), "--output-dir", str(tmp_path / "gen")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


class TestTrain:
    def test_federated_records_per_round_and_client(self, tmp_path):
        config = small_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        run_dir = tmp_path / "run"
        records = [json.loads(l) for l in (run_dir / "records.jsonl").read_text().splitlines()]
        assert len(records) == 2 * 4
        assert (run_dir / "config.json").is_file()
        assert (run_dir / "dedup_report.json").is_file()
        assert len(list((run_dir / "checkpoints").glob("*.ckpt"))) == 4

    def test_single_mode_emits_k_models(self, tmp_path):
        config = small_config(tmp_path, mode="single")
        assert main(["train", "--config", str(config)]) == 0
        assert len(list((tmp_path / "run" / "checkpoints").glob("*.ckpt"))) == 4

    def test_rerun_byte_identical_records(self, tmp_path):
        config = small_config(tmp_path)
        main(["train", "--config", str(config)])
        first = (tmp_path / "run" / "records.jsonl").read_bytes()
        main(["train", "--config", str(config)])
        assert (tmp_path / "run" / "records.jsonl").read_bytes() == first

    def test_invalid_mode_fails(self, tmp_path):
        config = small_config(tmp_path)
        data = json.loads(config.read_text())
        data["mode"] = "bogus"
        config.write_text(json.dumps(data))
        assert main(["train", "--config", str(config)]) == 1

    @pytest.mark.parametrize("bad", [{"rounds": "5"}, {"rounds": 2.5}])
    def test_wrongly_typed_value_fails_before_writing(self, tmp_path, capsys, bad):
        config = small_config(tmp_path)
        data = json.loads(config.read_text())
        data.update(bad)
        config.write_text(json.dumps(data))
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: rounds must be of type int")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--l-max", "70000", r"l_max must be in [1, 65535]"),
            ("--align-weight", "nan", "align_weight must be in [0, inf), got nan"),
        ],
        ids=["l_max", "align_weight_nan"],
    )
    def test_out_of_range_flag_fails_before_writing(self, tmp_path, capsys, flag, value, message):
        config = small_config(tmp_path)
        assert main(["train", "--config", str(config), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run" / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "val, message",
        [
            (True, "corpus names must be distinct, repeated: ['14lap']"),
            (False, "corpus '14lap' has an empty val split"),
        ],
        ids=["repeated_name", "empty_split"],
    )
    def test_refused_corpora_leave_no_run_directory(self, tmp_path, capsys, val, message):
        """Corpora that ``run_federated`` would refuse are refused before
        the run directory, its config or its dedup report is written."""
        sentences = parse_corpus(OVERFIT_FIXTURE)
        train, test = sentences[:3], sentences[3:]
        dirs = [tmp_path / "v1" / "14lap", tmp_path / "v2" / "14lap"]
        for directory in dirs:
            write_corpus_dir(Corpus("14lap", train, train if val else [], test), directory)
        config = small_config(tmp_path, corpus_dirs=[str(d) for d in dirs[: 2 if val else 1]])
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_flag_overrides_config(self, tmp_path):
        config = small_config(tmp_path)
        assert main(["train", "--config", str(config), "--rounds", "1"]) == 0
        records = [
            json.loads(l)
            for l in (tmp_path / "run" / "records.jsonl").read_text().splitlines()
        ]
        assert {r["round"] for r in records} == {1}


class TestLogLevel:
    def test_debug_lines_on_stderr_and_the_records_unchanged(self, tmp_path, capsys):
        """A one-round shipped run with ``--log-level debug`` prints the
        decoder's debug lines on stderr and writes the records a run without
        the flag writes, byte for byte; the handler goes with the command."""
        plain, logged = tmp_path / "plain", tmp_path / "logged"
        assert main(["train", "--rounds", "1", "--output-dir", str(plain)]) == 0
        assert "fedspan." not in capsys.readouterr().err
        assert main(["--log-level", "debug", "train", "--rounds", "1", "--output-dir", str(logged)]) == 0
        assert re.search(r"^DEBUG fedspan\.decoding: ", capsys.readouterr().err, re.M)
        assert (logged / "records.jsonl").read_bytes() == (plain / "records.jsonl").read_bytes()
        assert not logging.getLogger("fedspan").handlers

    def test_unknown_level_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--log-level", "verbose", "ledger"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'verbose'" in capsys.readouterr().err


class TestEval:
    def prepare_checkpoint(self, tmp_path):
        from fedspan.model import SpanTagger

        sentences = parse_corpus(OVERFIT_FIXTURE)
        corpus = Corpus("fixture", list(sentences), list(sentences), list(sentences))
        write_corpus_dir(corpus, tmp_path / "corpus")
        tagger = SpanTagger(seed=0)
        tagger.fit(sentences, epochs=50)
        ckpt = tmp_path / "model.ckpt"
        tagger.save(ckpt)
        return ckpt

    def test_overfit_checkpoint_scores_one(self, tmp_path, capsys):
        ckpt = self.prepare_checkpoint(tmp_path)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--corpus", str(tmp_path / "corpus"), "--split", "test"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["f1_matrix"] == [[1.0]]

    def test_matrix_shape_multiple_corpora(self, tmp_path, capsys):
        ckpt = self.prepare_checkpoint(tmp_path)
        other = tmp_path / "other.ckpt"
        other.write_bytes(ckpt.read_bytes())
        write_corpus_dir(read_corpus_dir(tmp_path / "corpus"), tmp_path / "corpus2")
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--checkpoint", str(other),
             "--corpus", str(tmp_path / "corpus"), "--corpus", str(tmp_path / "corpus2")]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["f1_matrix"]) == 2
        assert len(result["f1_matrix"][0]) == 2
        assert len(result["metrics"]) == 4

    @pytest.mark.parametrize("repeat", ["corpus", "checkpoint"])
    def test_repeated_names_fail(self, tmp_path, capsys, repeat):
        """The metrics are keyed by checkpoint file name and corpus name, so
        two inputs of one name would share an entry: they are refused."""
        ckpt = self.prepare_checkpoint(tmp_path)
        checkpoints, corpora = [ckpt], [tmp_path / "corpus"]
        if repeat == "corpus":
            corpora = [tmp_path / "v1" / "14lap", tmp_path / "v2" / "14lap"]
            for directory in corpora:
                write_corpus_dir(read_corpus_dir(tmp_path / "corpus", name="14lap"), directory)
            message = "corpus names must be distinct, repeated: ['14lap']"
        else:
            checkpoints = [tmp_path / "a" / "model.ckpt", tmp_path / "b" / "model.ckpt"]
            for path in checkpoints:
                path.parent.mkdir()
                path.write_bytes(ckpt.read_bytes())
            message = "checkpoint file names must be distinct, repeated: ['model.ckpt']"
        args = ["eval"] + [a for p in checkpoints for a in ("--checkpoint", str(p))]
        args += [a for d in corpora for a in ("--corpus", str(d))]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_empty_split_errors(self, tmp_path, capsys):
        ckpt = self.prepare_checkpoint(tmp_path)
        empty = Corpus("empty", parse_corpus(OVERFIT_FIXTURE), [], [])
        write_corpus_dir(empty, tmp_path / "empty")
        code = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(tmp_path / "empty")])
        assert code == 1

    def test_truncated_checkpoint_is_an_error_naming_the_file(self, tmp_path, capsys):
        ckpt = self.prepare_checkpoint(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes()[:-7])
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(tmp_path / "corpus")]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {ckpt}: checkpoint truncated inside parameter blocks\n")


class TestAnalyze:
    def test_exports(self, tmp_path):
        config = small_config(tmp_path)
        main(["train", "--config", str(config)])
        run_dir = tmp_path / "run"
        assert main(["analyze", "--run", str(run_dir)]) == 0
        out = run_dir / "analysis"

        with open(out / "f1_curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "client", "corpus", "val_f1", "test_in_domain_f1"]
        assert len(rows) - 1 == 2 * 4  # rounds x clients

        with open(out / "prototype_similarity.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + 4 clients
        for i in range(4):
            assert float(rows[i + 1][i + 1]) == pytest.approx(1.0)

        with open(out / "prototype_vectors.csv") as fh:
            rows = list(csv.reader(fh))
        payload_dir = run_dir / "payloads"
        from fedspan.prototypes import decode_payload

        total_classes = sum(
            int(decode_payload(p.read_bytes()).prototypes.present.sum())
            for p in sorted(payload_dir.glob("client_*.bin"))
        )
        assert len(rows) - 1 == total_classes

        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["prototype_floats"] == 16 * 8
        assert "per_round" in ledger

    def test_merged_in_domain_is_mean_of_test_row(self, tmp_path):
        config = small_config(tmp_path, mode="merged")
        main(["train", "--config", str(config)])
        run_dir = tmp_path / "run"
        assert main(["analyze", "--run", str(run_dir)]) == 0
        with open(run_dir / "analysis" / "f1_curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        records = [json.loads(line) for line in (run_dir / "records.jsonl").read_text().splitlines()]
        assert len(rows) == len(records) == 2
        for row, rec in zip(rows, records):
            assert row["corpus"] == "merged"
            matrix = rec["test_f1_matrix"]
            assert len(matrix) == 4
            assert float(row["test_in_domain_f1"]) == sum(matrix.values()) / len(matrix)

    def test_clients_with_no_class_in_common(self, tmp_path, capsys):
        """Only the similarity table needs a shared class; the other three
        files are written and the command succeeds."""
        from fedspan.prototypes import PrototypeSet, encode_payload, make_payload

        config = small_config(tmp_path, rounds=1)
        main(["train", "--config", str(config)])
        run_dir = tmp_path / "run"
        payload_dir = run_dir / "payloads"
        for path in payload_dir.glob("client_*.bin"):
            path.unlink()
        for client_id, classes in ((0, (1, 2)), (1, (3, 4))):
            protos = PrototypeSet(8, {c: np.full(8, c, dtype=np.float32) for c in classes})
            blob = encode_payload(make_payload(client_id, 0, 0.5, protos))
            (payload_dir / f"client_{client_id:02d}.bin").write_bytes(blob)
        capsys.readouterr()

        assert main(["analyze", "--run", str(run_dir)]) == 0
        note = capsys.readouterr().err
        assert note.count("\n") == 1 and "prototype_similarity.csv skipped" in note
        out = run_dir / "analysis"
        assert not (out / "prototype_similarity.csv").exists()
        with open(out / "prototype_vectors.csv") as fh:
            rows = list(csv.reader(fh))
        assert [row[:3] for row in rows[1:]] == [
            ["0", "laptops", "1"], ["0", "laptops", "2"], ["1", "restaurants", "3"], ["1", "restaurants", "4"]
        ]
        with open(out / "f1_curves.csv") as fh:
            assert len(list(csv.reader(fh))) - 1 == 4
        assert "per_round" in json.loads((out / "ledger.json").read_text())

    def test_missing_run_dir_fails(self, tmp_path):
        assert main(["analyze", "--run", str(tmp_path / "nope")]) == 1


class TestSweep:
    def test_five_values_give_five_k_rows(self, tmp_path):
        config = small_config(tmp_path, rounds=2, track_test_matrix=True)
        code = main(
            ["sweep", "--config", str(config), "--axis", "align",
             "--values", "0.0,0.001,0.002,0.004,0.008"]
        )
        assert code == 0
        with open(tmp_path / "run" / "sweep_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 5 * 4

    def test_values_with_both_axes_fail_before_training(self, tmp_path, monkeypatch, capsys):
        import fedspan.cli

        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before rejecting its arguments")

        monkeypatch.setattr(fedspan.cli, "run_federated", no_training)
        config = small_config(tmp_path, rounds=1)
        for axis in (["--axis", "both"], []):
            code = main(["sweep", "--config", str(config), *axis, "--values", "0.0,0.001"])
            assert code == 1
            assert "single axis" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"mode": "merged"}, "only in federated mode"),
            ({"mode": "single"}, "only in federated mode"),
            ({"rounds": 1}, "rounds >= 2"),
            ({"proto_weight": 0.0}, "proto_weight > 0"),
        ],
        ids=["merged", "single", "one_round", "no_proto_weight"],
    )
    def test_grid_whose_cells_cannot_differ_fails_before_loading(
        self, tmp_path, monkeypatch, capsys, setting, message
    ):
        import fedspan.cli

        def no_corpus(*args, **kwargs):
            raise AssertionError("sweep loaded corpora before rejecting its config")

        monkeypatch.setattr(fedspan.cli, "_load_corpora", no_corpus)
        config = small_config(tmp_path, **setting)
        code = main(["sweep", "--config", str(config), "--axis", "align", "--values", "0,0.002"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run" / "sweep_summary.csv").exists()

    def test_zero_alignment_matches_no_alignment_run(self, tmp_path):
        import fedspan
        from fedspan.synth import SynthConfig

        config_path = small_config(tmp_path, rounds=2, track_test_matrix=False)
        config = ExperimentConfig.from_file(config_path)
        corpora, _ = fedspan.deduplicate(
            fedspan.generate_synthetic(
                SynthConfig.from_file(config.synth_config), config.corpus_seed
            )
        )
        swept = fedspan.run_federated(corpora, config.override(align_weight=0.0))
        manual = fedspan.run_federated(corpora, config.override(align_weight=0.0))
        assert json.dumps(swept) == json.dumps(manual)


class TestLedgerCommand:
    def test_prints_reference_report(self, capsys):
        assert main(["ledger", "--rep-dim", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["prototype_floats"] == 3200
        assert report["classifier_floats"] == 3216

    RECORD = {
        "round": 1, "client": 0, "corpus": "laptops", "val_f1": 0.5,
        "test_f1_matrix": {}, "uploaded_floats": 10, "downloaded_floats": 20,
    }

    def test_counts_the_floats_of_each_round(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(self.RECORD) + "\n\n" + json.dumps({**self.RECORD, "client": 1}) + "\n")
        assert main(["ledger", "--records", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_round"] == [{"round": 1, "uploaded_floats": 20, "downloaded_floats": 40}]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not JSON"),
            ("[1, 2]", "a record must be a JSON object"),
            (json.dumps({"round": 1}), "record lacks client, corpus, val_f1, test_f1_matrix, uploaded_floats"),
            (json.dumps({k: v for k, v in RECORD.items() if k != "uploaded_floats"}), "record lacks uploaded_floats$"),
            (json.dumps({**RECORD, "uploaded_floats": "12"}), "uploaded_floats must be an int$"),
            (json.dumps({**RECORD, "test_f1_matrix": [0.5]}), "test_f1_matrix must be an object of numbers$"),
            (json.dumps({**RECORD, "test_f1_matrix": {"laptops": "0.5"}}), "test_f1_matrix must be an object of numbers$"),
            (json.dumps({**RECORD, "round": True, "downloaded_floats": 2.0}),
             "round must be an int; downloaded_floats must be an int$"),
            (json.dumps({**RECORD, "client": None, "corpus": 3, "val_f1": "0.5"}),
             "client must be an int; corpus must be a string; val_f1 must be a number$"),
            (b'{"corpus": "\xff"}', r"not UTF-8 \('utf-8' codec can't decode byte 0xff in position 12"),
        ],
        ids=["not_json", "not_an_object", "one_field", "no_uploaded_floats", "text_uploaded_floats",
             "list_test_f1_matrix", "text_test_f1", "bool_round_float_downloads", "null_client_int_corpus_text_f1",
             "not_utf8"],
    )
    @pytest.mark.parametrize("command", ["ledger", "analyze"])
    def test_malformed_record_is_an_error_naming_file_and_line(self, tmp_path, capsys, command, line, message):
        """The bad line is the second; the run directory holds a valid
        config, so only the records can fail."""
        path = tmp_path / "records.jsonl"
        line = line if isinstance(line, bytes) else line.encode()
        path.write_bytes(json.dumps(self.RECORD).encode() + b"\n" + line + b"\n")
        (tmp_path / "config.json").write_text(ExperimentConfig().to_json())
        args = ["ledger", "--records", str(path)] if command == "ledger" else ["analyze", "--run", str(tmp_path)]
        assert main(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {path} line 2: ")
        assert re.search(message, err)

    def test_closed_stdout_is_quiet(self):
        """A reader that goes away, as in ``fedspan ledger | head -1``, gets
        no ``error:`` line and no traceback; the exit status is Python's 1
        for EPIPE."""
        src = str(Path(fedspan.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedspan.cli", "ledger"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # before the child has imported numpy, let alone written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestConfigFlags:
    SAMPLES = {int: "3", float: "0.5", str: "x"}

    def test_each_flag_sets_its_field_with_the_field_type(self):
        hints = typing.get_type_hints(ExperimentConfig)
        parser = argparse.ArgumentParser()
        _add_config_arguments(parser)
        flags = [a for a in parser._actions if a.dest not in ("help", "config")]
        assert [a.dest for a in flags] == list(CONFIG_FLAGS)
        for action in flags:
            assert action.dest in ExperimentConfig.field_names()
            kind = {str | None: str}.get(hints[action.dest], hints[action.dest])
            if typing.get_origin(kind) is typing.Literal:
                assert action.choices == typing.get_args(kind), action.dest
                kind = type(action.choices[0])
            value = action.choices[0] if action.choices else self.SAMPLES[kind]
            args = build_parser().parse_args(["train", action.option_strings[0], value])
            parsed = getattr(args, action.dest)
            assert type(parsed) is kind, action.dest
            ExperimentConfig().override(**{action.dest: parsed})
