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
        assert "residual_rel=" in out
        assert "method=dense" in out


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
            (["train", "--learning-rate=nan"], "learning_rate must be positive"),
            (["synth", "--out-dir", "{d}/neg", "--seed", "-1"], "seed must be non-negative"),
            (["train", "--svd-rank=30"], "svd_rank=30 with svd_oversample=8 does not fit the 40x24 graph"),
            (["svd-report", "--svd-rank=30"], "svd_rank=30 with svd_oversample=8 does not fit the 40x24 graph"),
        ],
        ids=["train-seed", "train-nan-rate", "synth-seed", "train-rank", "svd-report-rank"],
    )
    def test_exits_one_with_an_error_line(self, data, tmp_path, argv, message):
        argv = [a.format(d=tmp_path) for a in argv]
        if argv[0] != "synth":
            argv += [
                "--train-path", str(data / "train.txt"),
                "--test-path", str(data / "test.txt"),
                "--val-path", str(data / "val.txt"),
                "--epochs", "1",
                "--checkpoint-dir", str(tmp_path / "ck"),
            ]
        done = subprocess.run(
            [sys.executable, "-m", "svdgcl"] + argv, cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 1, done.stderr[-2000:]
        assert done.stderr.startswith("error:")
        assert message in done.stderr
        assert "Traceback" not in done.stderr
