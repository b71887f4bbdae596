"""Command-line entry: subcommands, overrides, and exit-code mapping."""

import argparse
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from svdgcl import cli
from svdgcl.errors import NumericalError
from svdgcl.synth import generate_blocks
from tests.util import src_env, svdgcl_logger_state


# every RunConfig field is a train flag; the list is written out so that a
# field added, renamed or dropped shows up here
TRAIN_FIELDS = (
    "train_path", "test_path", "val_path", "embed_dim", "layers", "svd_rank", "dropout_p",
    "temperature", "lambda1", "lambda2", "learning_rate", "batch_size", "epochs", "seed",
    "cl_scope", "eval_every", "eval_ks", "checkpoint_dir", "log_path", "svd_oversample",
    "svd_power_iters", "val_fraction", "patience",
)


def run(argv):
    return cli.main(argv)


class TestSynthCommand:
    def test_writes_files_and_reports(self, tmp_path, capsys):
        code = run(
            [
                "synth",
                "--out-dir", str(tmp_path / "d"),
                "--users-per-block", "6",
                "--items-per-block", "8",
                "--blocks", "2",
                "--noise-p", "0",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("wrote ") == 3
        assert (tmp_path / "d" / "train.txt").exists()

    def test_bad_argument_exits_one(self, tmp_path, capsys):
        code = run(["synth", "--out-dir", str(tmp_path / "d"), "--blocks", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainEvalCommands:
    def synth(self, tmp_path):
        run(
            [
                "synth",
                "--out-dir", str(tmp_path / "d"),
                "--users-per-block", "10",
                "--items-per-block", "10",
                "--blocks", "2",
                "--noise-p", "0",
                "--seed", "2",
            ]
        )
        return tmp_path / "d"

    def args(self, tmp_path, d):
        return [
            "--train-path", str(d / "train.txt"),
            "--test-path", str(d / "test.txt"),
            "--val-path", str(d / "val.txt"),
            "--embed-dim", "8",
            "--epochs", "4",
            "--eval-every", "2",
            "--eval-ks", "3",
            "--batch-size", "128",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]

    def test_full_cycle_exits_zero(self, tmp_path, capsys):
        d = self.synth(tmp_path)
        assert run(["train"] + self.args(tmp_path, d)) == 0
        out = capsys.readouterr().out
        assert "epoch=1 rec=" in out
        assert "eval epoch=" in out
        code = run(
            ["eval", "--checkpoint", str(tmp_path / "ck" / "best.ckpt")]
            + self.args(tmp_path, d)
        )
        assert code == 0
        assert "recall@3=" in capsys.readouterr().out

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        d = self.synth(tmp_path)
        cfg = {
            "train_path": str(d / "train.txt"),
            "test_path": str(d / "test.txt"),
            "val_path": str(d / "val.txt"),
            "embed_dim": 8,
            "epochs": 1,
            "eval_ks": [3],
            "batch_size": 128,
            "checkpoint_dir": str(tmp_path / "ck"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(path), "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "epoch=2 " in out

    def test_train_leaves_process_logging_alone(self, tmp_path, capsys, caplog):
        d = self.synth(tmp_path)
        before = svdgcl_logger_state()
        assert run(["train"] + self.args(tmp_path, d)) == 0
        assert svdgcl_logger_state() == before
        assert "epoch=1 rec=" in capsys.readouterr().out
        with caplog.at_level("WARNING", logger="svdgcl"):
            logging.getLogger("svdgcl.objective").warning("after the run")
        assert "after the run" in caplog.messages

    def test_missing_data_exits_two(self, tmp_path, capsys):
        code = run(
            [
                "train",
                "--train-path", str(tmp_path / "absent.txt"),
                "--test-path", str(tmp_path / "absent2.txt"),
                "--epochs", "1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_train_flag_set_unchanged(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices["train"]._actions for s in a.option_strings} - {"-h", "--help", "--config"}
        assert flags == {"--" + name.replace("_", "-") for name in TRAIN_FIELDS}
        assert len(flags) == 23

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["train", "--mystery-knob", "9"]) == 1
        capsys.readouterr()

    def test_bad_value_exits_one(self, capsys):
        assert run(["train", "--embed-dim", "soon"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_training", boom)
        d = self.synth(tmp_path)
        code = run(["train"] + self.args(tmp_path, d))
        assert code == 3
        assert "synthetic blow-up" in capsys.readouterr().err


class TestSvdReportCommand:
    def test_reports_spectrum(self, tmp_path, capsys):
        d = TestTrainEvalCommands().synth(tmp_path)
        code = run(
            [
                "svd-report",
                "--train-path", str(d / "train.txt"),
                "--test-path", str(d / "test.txt"),
                "--val-path", str(d / "val.txt"),
                "--svd-rank", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "singular_values " in out
        # the residual line holds one number and nothing else
        line = next(line for line in out.splitlines() if line.startswith("residual_rel="))
        assert 0.0 <= float(line.split("=", 1)[1]) <= 1.0


class TestConfigErrorsInAFreshProcess:
    """Bad values that numpy or the factorization would reject end in the
    CLI's one-line error and exit code 1, never a traceback."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cfgerr") / "d"
        # 40 users, 24 items
        code = run(
            [
                "synth",
                "--out-dir", str(d),
                "--users-per-block", "20",
                "--items-per-block", "12",
                "--blocks", "2",
                "--noise-p", "0",
                "--seed", "1",
            ]
        )
        assert code == 0
        return d

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["train", "--seed=-1"], "seed must be non-negative"),
            (["train", "--learning-rate=nan"], "learning_rate must be a finite real number"),
            (["train", "--temperature=inf"], "temperature must be a finite real number"),
            (["train", "--lambda1=1e400"], "lambda1 must be a finite real number"),
            (["synth", "--out-dir", "{d}/neg", "--seed", "-1"], "seed must be non-negative"),
            (["train", "--svd-rank=30"], "svd_rank=30 with svd_oversample=8 does not fit the 40x24 graph"),
            (["svd-report", "--svd-rank=30"], "svd_rank=30 with svd_oversample=8 does not fit the 40x24 graph"),
            # a --config file's values are typed and checked as flags are
            (["train", "--config", '{"embed_dim": 2.5}'], "embed_dim must be an integer"),
            (["train", "--config", '{"batch_size": NaN}'], "batch_size must be an integer"),
            (["train", "--config", '{"layers": "two"}'], "bad value for layers"),
            (["train", "--config", '{"epochs": true}'], "epochs must be an integer"),
            # "\udcff" is written as the lone byte 0xff: the file is not UTF-8
            (["train", "--config", '{"seed": "\udcff"}'], "is not valid JSON"),
        ],
        ids=[
            "train-seed", "train-nan-rate", "train-inf-temperature", "train-huge-lambda1", "synth-seed", "train-rank",
            "svd-report-rank",
            "json-float-dim", "json-nan-batch", "json-junk-layers", "json-bool-epochs", "json-not-utf8",
        ],
    )
    def test_exits_one_with_an_error_line(self, data, tmp_path, argv, message):
        if "--config" in argv:
            # the argument after --config is the file's JSON text
            at = argv.index("--config") + 1
            (tmp_path / "c.json").write_bytes(argv[at].encode("utf-8", "surrogateescape"))
            argv = argv[:at] + [str(tmp_path / "c.json")] + argv[at + 1 :]
        argv = [a.format(d=tmp_path) for a in argv]
        if argv[0] != "synth":
            argv += [
                "--train-path", str(data / "train.txt"),
                "--test-path", str(data / "test.txt"),
                "--val-path", str(data / "val.txt"),
                "--checkpoint-dir", str(tmp_path / "ck"),
            ]
            # the flag would win over a config file's epochs
            argv += [] if "--config" in argv else ["--epochs", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "svdgcl"] + argv, cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 1, done.stderr[-2000:]
        assert done.stderr.startswith("error:")
        assert message in done.stderr
        assert "Traceback" not in done.stderr


class TestDataErrorsInAFreshProcess:
    def test_undecodable_pair_file_exits_two(self, tmp_path):
        (tmp_path / "train.txt").write_bytes(b"u1\ti1\nu\xff\ti2\n")
        (tmp_path / "test.txt").write_text("u1\ti1\n")
        argv = ["train", "--train-path", "train.txt", "--test-path", "test.txt", "--epochs", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "svdgcl"] + argv, cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 2, done.stderr[-2000:]
        assert done.stderr.startswith("error: cannot read interaction file train.txt")
        assert "Traceback" not in done.stderr


class TestPairWorkerInAFreshProcess:
    def test_import_starts_no_thread(self):
        code = "import threading; n = threading.active_count(); import svdgcl; print(threading.active_count() - n)"
        done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "0"

    def test_train_exits_with_the_worker_started(self, tmp_path):
        # spmm_pair's worker is idle once training ends; it must not hold up exit
        paths = generate_blocks(tmp_path / "d", 8, 8, 2, 0.0, 1)
        argv = ["train", "--epochs", "2", "--embed-dim", "8", "--eval-ks", "3", "--checkpoint-dir", "ck"]
        argv += ["--train-path", str(paths["train"]), "--test-path", str(paths["test"]), "--val-path", str(paths["val"])]
        done = subprocess.run(
            [sys.executable, "-m", "svdgcl"] + argv, cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert "epoch=2 rec=" in done.stdout
