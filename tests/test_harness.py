"""Run configuration, logging, and the training/eval pipelines end to end.

Pipeline tests run on small generated datasets so the whole module stays
in the sub-minute range while still exercising early stopping, checkpoint
reload, and the reproducibility contracts.
"""

import dataclasses
import json
import logging
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_array

from svdgcl import harness, losses
from svdgcl.checkpoint import load_checkpoint, save_checkpoint
from svdgcl.errors import ConfigError, DataError, NumericalError
from svdgcl.harness import (
    LOG_ENV_VAR,
    RunConfig,
    TrainResult,
    configure_logging,
    run_eval,
    run_svd_report,
    run_training,
)
from svdgcl.model import HyperParams
from svdgcl.synth import generate_blocks
from tests.util import count_factorizations, src_env, svdgcl_logger_state


def small_config(tmp_path, name="data", **over):
    paths = generate_blocks(tmp_path / name, 12, 12, 2, 0.0, 3)
    base = dict(
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
        val_path=str(paths["val"]),
        embed_dim=8,
        epochs=12,
        eval_every=3,
        patience=3,
        batch_size=256,
        eval_ks=[3],
        checkpoint_dir=str(tmp_path / f"{name}_ck"),
    )
    base.update(over)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_probe_cleanly(self):
        cfg = RunConfig()
        assert isinstance(cfg, HyperParams)

    def test_hyperparams_mirror_run_config_fields(self):
        # a RunConfig is a valid HyperParams with the same defaults
        cfg = RunConfig()
        assert isinstance(cfg, HyperParams)
        for f in dataclasses.fields(HyperParams):
            assert getattr(cfg, f.name) == getattr(HyperParams(), f.name), f.name

    @pytest.mark.parametrize(
        "bad",
        [
            dict(eval_every=0),
            dict(patience=0),
            dict(val_fraction=1.0),
            dict(eval_ks=[0]),
            dict(eval_ks=[]),
            dict(eval_ks=["soon"]),
            dict(embed_dim=0),
            dict(temperature=0.0),
            dict(svd_oversample=-1),
            dict(embed_dim=2.5),
            dict(epochs=True),
            dict(batch_size=float("nan")),
            dict(svd_oversample=float("nan")),
            dict(val_fraction=float("nan")),
            dict(eval_ks=[True]),
            dict(temperature=float("inf")),
            dict(lambda1=float("inf")),
            dict(lambda2=float("inf")),
            dict(learning_rate=float("inf")),
            dict(temperature="inf"),
            dict(lambda1="1e400"),
        ],
    )
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad)

    def test_digest_tracks_content(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        c = RunConfig(seed=2)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        json.dumps(dataclasses.asdict(a))

    def test_digest_names_the_knobs_not_the_files(self):
        a = RunConfig(seed=1, train_path="x/train.txt", test_path="x/test.txt", checkpoint_dir="x/ck")
        b = RunConfig(seed=1, train_path="y/train.txt", test_path="y/test.txt", val_path="y/val.txt", log_path="y.log")
        assert a.digest() == b.digest() == RunConfig(seed=1).digest()

    def test_from_sources_layering(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"embed_dim": 24, "lambda1": 0.4}))
        cfg = RunConfig.from_sources(cfg_file, ["embed-dim=48", "eval_ks=5,20"])
        assert cfg.embed_dim == 48  # override beats the file
        assert cfg.lambda1 == 0.4
        assert cfg.eval_ks == [5, 20]

    def test_one_digest_per_config(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"lambda1": 1}')
        routes = [RunConfig.from_sources(cfg_file), RunConfig.from_sources(None, ["lambda1=1"]), RunConfig(lambda1=1)]
        assert routes[0] == routes[1] == routes[2]
        assert len({cfg.digest() for cfg in routes}) == 1

    def test_default_digest_pinned(self):
        # default-config checkpoints carry this digest in their bytes
        assert RunConfig().digest() == "553e631d82357621e46e250260b773fbbb55013114b815575e70af703720440f"

    def test_from_sources_rejects_unknowns_and_junk(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_sources(None, ["mystery=1"])
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.from_sources(None, ["embed_dim"])
        with pytest.raises(ConfigError, match="bad value"):
            RunConfig.from_sources(None, ["embed_dim=soon"])
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_sources(bad)
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.from_sources(tmp_path / "absent.json")

    def test_optional_paths_accept_none_spelling(self):
        cfg = RunConfig.from_sources(None, ["log-path=none", "val-path="])
        assert cfg.log_path is None
        assert cfg.val_path is None

    def test_path_objects_coerced_to_str(self, tmp_path):
        cfg = RunConfig(train_path=tmp_path / "t.txt", checkpoint_dir=tmp_path, log_path=tmp_path / "r.log")
        assert cfg.train_path == str(tmp_path / "t.txt")
        assert cfg.checkpoint_dir == str(tmp_path)
        assert cfg.log_path == str(tmp_path / "r.log")
        assert cfg.val_path is None

    @pytest.mark.parametrize("field", ["train_path", "test_path", "val_path", "checkpoint_dir", "log_path"])
    def test_non_path_values_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: 3})
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: b"bytes/path"})


# valid values of each field, written out here rather than read off the
# knob rules, so that a rule changed in the source shows up as a failure
_INT_MIN = {"embed_dim": 1, "layers": 1, "svd_rank": 1, "batch_size": 1, "eval_every": 1, "patience": 1,
            "epochs": 0, "seed": 0, "svd_oversample": 0, "svd_power_iters": 0}
_FLOAT_RANGE = {"dropout_p": (0.0, 1.0), "val_fraction": (0.0, 1.0), "temperature": (0.0, None),
                "learning_rate": (0.0, None), "lambda1": (0.0, None), "lambda2": (0.0, None)}
_POSITIVE = ("temperature", "learning_rate")  # 0.0 is out of their range
_PATHS = ("train_path", "test_path", "val_path", "checkpoint_dir", "log_path")
_JUNK = st.sampled_from(["soon", "1x", "--", "3.0.0"])


def _valid_values(name):
    if name in _INT_MIN:
        return st.integers(_INT_MIN[name], 10**6)
    if name in _FLOAT_RANGE:
        low, high = _FLOAT_RANGE[name]
        reals = st.floats(low, 1e6 if high is None else high, exclude_min=name in _POSITIVE, exclude_max=high is not None)
        # an int is a real number too, and is stored as a float
        return reals | (st.integers(1, 100) if high is None else st.just(0))
    if name == "cl_scope":
        return st.sampled_from(["in-batch", "full-population"])
    if name == "eval_ks":
        return st.lists(st.integers(1, 100), min_size=1, max_size=4)
    return st.text("abc/._-", max_size=8) | st.sampled_from(["none", "NULL"])


def _bad_values(name):
    """A bool for a number, a non-integral float for an int, NaN, an infinity
    (as a float or as the text of a number too large for one), junk text,
    or a number out of range. Paths have no bad text, so none are drawn."""
    if name in _INT_MIN:
        return st.booleans() | st.sampled_from([2.5, -0.5, float("nan")]) | _JUNK | st.integers(-100, _INT_MIN[name] - 1)
    if name in _FLOAT_RANGE:
        low, high = _FLOAT_RANGE[name]
        below = st.floats(max_value=low, exclude_max=name not in _POSITIVE, allow_nan=False)
        above = st.floats(min_value=high, allow_nan=False) if high is not None else st.nothing()
        return st.booleans() | st.sampled_from([float("nan"), float("inf"), "1e400"]) | _JUNK | below | above
    if name == "cl_scope":
        return _JUNK | st.booleans()
    return st.sampled_from([[], [0], [True], [2.5], [float("nan")], "soon", "0,5"])


def _as_text(value):
    # str of a float is its shortest round-tripping text
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _three_routes(json_dir, name, value):
    """RunConfig from a Python kwarg, from a JSON file and from --key=value
    text; each route is an exception instead when it raises one."""

    def attempt(build):
        try:
            return build()
        except Exception as exc:  # kept, so that a stray exception type shows in the property
            return exc

    path = json_dir / "run.json"
    path.write_text(json.dumps({name: value}))
    return [
        attempt(lambda: RunConfig(**{name: value})),
        attempt(lambda: RunConfig.from_sources(path)),
        attempt(lambda: RunConfig.from_sources(None, [f"{name.replace('_', '-')}={_as_text(value)}"])),
    ]


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("routes")


class TestOneTypingRule:
    """A Python kwarg, a JSON file and command-line text are typed and
    checked by the same rule, field by field."""

    @given(st.data())
    def test_valid_values_agree_across_routes(self, json_dir, data):
        name = data.draw(st.sampled_from(harness.CONFIG_KEYS))
        value = data.draw(_valid_values(name))
        routes = _three_routes(json_dir, name, value)
        assert all(isinstance(cfg, RunConfig) for cfg in routes), routes
        # repr tells 1 from 1.0, which the digest does too
        assert repr(routes[0]) == repr(routes[1]) == repr(routes[2])

    @given(st.data())
    def test_bad_values_are_config_errors_on_every_route(self, json_dir, data):
        name = data.draw(st.sampled_from([k for k in harness.CONFIG_KEYS if k not in _PATHS]))
        value = data.draw(_bad_values(name))
        for outcome in _three_routes(json_dir, name, value):
            assert type(outcome) is ConfigError, (name, value, outcome)
            assert name in str(outcome)


class TestLogging:
    @pytest.mark.parametrize(
        "level,stdout", [("WARNING", "loud\n"), ("INFO", "quiet\nloud\n"), ("DEBUG", "hidden\nquiet\nloud\n")]
    )
    def test_env_level_and_file_mirror(self, tmp_path, monkeypatch, capsys, level, stdout):
        # the environment sets the stdout level only; the file mirror always
        # holds the INFO stream and never DEBUG
        monkeypatch.setenv(LOG_ENV_VAR, level)
        log_file = tmp_path / "run.log"
        before = svdgcl_logger_state()
        with configure_logging(log_file):
            lg = logging.getLogger("svdgcl")
            lg.debug("hidden")
            lg.info("quiet")
            lg.warning("loud")
            (mirror,) = [h for h in lg.handlers if isinstance(h, logging.FileHandler)]
        assert svdgcl_logger_state() == before
        assert mirror.stream is None  # closed on exit
        # message-only format: no level names or logger names in lines
        assert log_file.read_text() == "quiet\nloud\n"
        assert capsys.readouterr().out == stdout

    def test_log_file_bytes_do_not_depend_on_the_level(self, tmp_path, monkeypatch):
        logs = {}
        for level in ("INFO", "WARNING", "DEBUG"):
            monkeypatch.setenv(LOG_ENV_VAR, level)
            log_file = tmp_path / f"{level}.log"
            run_training(small_config(tmp_path, name=level, epochs=3, log_path=str(log_file)))
            logs[level] = log_file.read_bytes()
        assert b"epoch=3 rec=" in logs["INFO"]
        assert logs["WARNING"] == logs["INFO"] == logs["DEBUG"]

    def test_bad_level_rejected(self, monkeypatch):
        monkeypatch.setenv(LOG_ENV_VAR, "SHOUTING")
        before = svdgcl_logger_state()
        with pytest.raises(ConfigError):
            with configure_logging(None):
                pass
        assert svdgcl_logger_state() == before

    def test_reconfigure_does_not_stack_handlers(self, monkeypatch):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        lg = logging.getLogger("svdgcl")
        before = svdgcl_logger_state()
        with configure_logging(None):
            assert len(lg.handlers) == 1
            with configure_logging(None):
                assert len(lg.handlers) == 1
            assert len(lg.handlers) == 1
        assert svdgcl_logger_state() == before

    def test_earlier_state_restored_after_a_raise(self, monkeypatch):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        lg = logging.getLogger("svdgcl")
        earlier = logging.NullHandler()
        lg.addHandler(earlier)
        lg.setLevel(logging.ERROR)
        try:
            before = svdgcl_logger_state()
            with pytest.raises(RuntimeError):
                with configure_logging(None):
                    assert earlier not in lg.handlers
                    assert lg.level == logging.INFO and not lg.propagate
                    raise RuntimeError("inside the block")
            assert svdgcl_logger_state() == before
        finally:
            lg.removeHandler(earlier)
            lg.setLevel(logging.NOTSET)


class TestRunsLeaveLoggingAlone:
    """Run calls configure logging for their own length and no longer."""

    def test_normal_returns(self, tmp_path, caplog):
        cfg = small_config(tmp_path, epochs=3, log_path=str(tmp_path / "run.log"))
        before = svdgcl_logger_state()
        res = run_training(cfg)
        assert svdgcl_logger_state() == before
        assert "epoch=1 rec=" in (tmp_path / "run.log").read_text()
        run_eval(cfg, res.checkpoint_path)
        assert svdgcl_logger_state() == before
        run_svd_report(cfg)
        assert svdgcl_logger_state() == before
        with caplog.at_level("WARNING", logger="svdgcl"):
            logging.getLogger("svdgcl.objective").warning("after the run")
        assert "after the run" in caplog.messages

    @pytest.mark.parametrize("call", ["train", "eval", "svd-report"])
    @pytest.mark.parametrize("fault", ["missing-path", "absent-file"])
    def test_raising_runs(self, tmp_path, caplog, call, fault):
        if fault == "missing-path":
            cfg, expected = RunConfig(epochs=1), ConfigError
        else:
            cfg = RunConfig(
                train_path=str(tmp_path / "absent.txt"),
                test_path=str(tmp_path / "absent2.txt"),
                epochs=1,
                log_path=str(tmp_path / "run.log"),
            )
            expected = DataError
        runs = {
            "train": run_training,
            "eval": lambda c: run_eval(c, tmp_path / "absent.ckpt"),
            "svd-report": run_svd_report,
        }
        before = svdgcl_logger_state()
        with pytest.raises(expected):
            runs[call](cfg)
        assert svdgcl_logger_state() == before
        with caplog.at_level("WARNING", logger="svdgcl"):
            logging.getLogger("svdgcl.objective").warning("after the run")
        assert "after the run" in caplog.messages


BLAS = harness._blas_threads()


class TestOneBlasThread:
    """Run calls run BLAS on one thread for their own length and no longer."""

    @pytest.mark.skipif(BLAS is None, reason="numpy does not bundle scipy-openblas")
    @pytest.mark.parametrize("call", ["train", "eval", "svd-report"])
    @pytest.mark.parametrize("raises", [False, True])
    def test_pins_one_thread_and_restores_the_count(self, tmp_path, monkeypatch, call, raises):
        get, put = BLAS
        cfg = small_config(tmp_path, epochs=1)
        ckpt = run_training(cfg).checkpoint_path
        runs = {"train": run_training, "eval": lambda c: run_eval(c, ckpt), "svd-report": run_svd_report}
        load, seen = harness._load_graph, []

        def probe(config):
            seen.append(get())
            if raises:
                raise RuntimeError("probe")
            return load(config)

        monkeypatch.setattr(harness, "_load_graph", probe)
        earlier = get()
        put(3)
        try:
            if raises:
                with pytest.raises(RuntimeError, match="probe"):
                    runs[call](cfg)
            else:
                runs[call](cfg)
            assert get() == 3
        finally:
            put(earlier)
        assert seen == [1]

    def test_another_blas_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(harness, "_blas_threads", lambda: None)
        with harness._one_blas_thread():
            pass
        with pytest.raises(RuntimeError):
            with harness._one_blas_thread():
                raise RuntimeError("inside the block")

    def test_bytes_do_not_depend_on_openblas_num_threads(self, tmp_path):
        # on this shape the two counts gave different checkpoints while runs
        # used the environment's count; each child picks its own count, so
        # this process's stays as it is
        paths = generate_blocks(tmp_path / "d", 50, 50, 3, 0.05, 1)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = [
                "train", f"--train-path={paths['train']}", f"--test-path={paths['test']}",
                f"--val-path={paths['val']}", f"--checkpoint-dir={out}", f"--log-path={out / 'run.log'}",
                "--epochs=2", "--eval-every=1", "--eval-ks=5", "--batch-size=512",
            ]
            subprocess.run(
                [sys.executable, "-m", "svdgcl"] + argv, env={**src_env(), "OPENBLAS_NUM_THREADS": threads},
                check=True, capture_output=True, timeout=120,
            )
            outputs.append(((out / "run.log").read_bytes(), (out / "best.ckpt").read_bytes()))
        assert outputs[0] == outputs[1]


class TestTraining:
    def test_result_shape_and_artifacts(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        calls = count_factorizations(monkeypatch)
        res = run_training(cfg)
        assert isinstance(res, TrainResult)
        assert len(res.epoch_seconds) <= cfg.epochs
        assert len(calls) == 1
        assert res.best_epoch is not None
        assert os.path.exists(res.checkpoint_path)
        assert 0.0 <= res.test_result.recall[3] <= 1.0

    def test_branch_off_skips_factorization(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, lambda1=0.0, epochs=4)
        calls = count_factorizations(monkeypatch)
        run_training(cfg)
        assert calls == []

    def test_log_stream_is_a_function_of_config_and_seed(self, tmp_path):
        log_a = tmp_path / "a.log"
        log_b = tmp_path / "b.log"
        cfg_a = small_config(tmp_path, name="da", epochs=6, log_path=str(log_a))
        run_training(cfg_a)
        cfg_b = small_config(tmp_path, name="db", epochs=6, log_path=str(log_b))
        run_training(cfg_b)
        assert log_a.read_text() == log_b.read_text()
        body = log_a.read_text()
        assert body.startswith("dataset M=24 N=24 ")
        assert "epoch=1 rec=" in body
        # wall-clock timings stay out of the deterministic stream
        assert "seconds" not in body and "time" not in body

    def test_seed_changes_the_stream(self, tmp_path):
        log_a = tmp_path / "a.log"
        log_b = tmp_path / "b.log"
        run_training(small_config(tmp_path, name="da", epochs=4, log_path=str(log_a)))
        run_training(small_config(tmp_path, name="db", epochs=4, seed=7, log_path=str(log_b)))
        assert log_a.read_text() != log_b.read_text()

    def test_early_stopping_respects_patience(self, tmp_path):
        cfg = small_config(tmp_path, epochs=60, eval_every=1, patience=2)
        res = run_training(cfg)
        assert len(res.epoch_seconds) < 60

    def test_checkpoint_round_trip_reproduces_metrics(self, tmp_path):
        cfg = small_config(tmp_path)
        res = run_training(cfg)
        again = run_eval(cfg, res.checkpoint_path)
        assert again.recall == res.test_result.recall
        assert again.ndcg == res.test_result.ndcg

    def test_no_validation_signal_keeps_last_state(self, tmp_path):
        cfg = small_config(tmp_path, val_path=None, val_fraction=0.0, epochs=4)
        res = run_training(cfg)
        assert res.best_epoch is None
        assert os.path.exists(res.checkpoint_path)

    def test_one_member_steps_log_per_epoch_not_per_step(self, tmp_path):
        # batch_size=1 puts one user in every step's contrast; that side runs
        # like any other and leaves no line of its own
        log = tmp_path / "run.log"
        cfg = small_config(tmp_path, batch_size=1, epochs=2, eval_every=1, log_path=str(log))
        run_training(cfg)
        lines = log.read_text().splitlines()
        heads = ["dataset", "epoch=1", "eval epoch=1", "epoch=2", "eval epoch=2", "eval epoch=2"]
        assert len(lines) == len(heads) and all(line.startswith(f"{head} ") for line, head in zip(lines, heads))
        assert " cl_u=0.000000 " in lines[1] and " cl_u=0.000000 " in lines[3]

    def test_zero_epochs_evaluates_the_init(self, tmp_path):
        cfg = small_config(tmp_path, epochs=0)
        res = run_training(cfg)
        assert res.checkpoint_path is None
        assert res.epoch_seconds == []

    def test_run_fixes_the_malloc_thresholds(self, tmp_path, monkeypatch):
        # left to slide, glibc's mmap threshold made identical runs peak
        # about 10 MB apart
        fix = harness._fix_malloc_thresholds
        calls = []
        monkeypatch.setattr(harness, "_fix_malloc_thresholds", lambda: calls.append(fix()))
        run_training(small_config(tmp_path, epochs=1))
        assert calls == [platform.libc_ver()[0] == "glibc"]

    def test_unsorted_repeated_cutoffs_log_each_once_in_order(self, tmp_path):
        logs = []
        for i, ks in enumerate(([10, 3, 3, 1], [1, 3, 10])):
            logs.append(tmp_path / f"{i}.log")
            ck = str(tmp_path / f"ck{i}")
            run_training(small_config(tmp_path, epochs=6, eval_ks=ks, checkpoint_dir=ck, log_path=str(logs[-1])))
        evals = [line for line in logs[0].read_text().splitlines() if line.startswith("eval ")]
        assert len(evals) == 3
        assert all(re.findall(r"recall@(\d+)=", line) == ["1", "3", "10"] for line in evals)
        assert logs[0].read_text() == logs[1].read_text()

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
    )
    def test_runaway_learning_rate_raises_numerical_error(self, tmp_path):
        cfg = small_config(tmp_path, learning_rate=1e200, epochs=4)
        with pytest.raises(NumericalError, match="epoch"):
            run_training(cfg)

    def test_missing_paths_rejected(self):
        with pytest.raises(ConfigError, match="required"):
            run_training(RunConfig(epochs=1))

    def test_generated_path_objects_train_and_checkpoint(self, tmp_path):
        paths = generate_blocks(tmp_path / "data", 12, 12, 2, 0.0, 3)
        assert all(isinstance(p, Path) for p in paths.values())
        common = dict(embed_dim=8, epochs=3, eval_every=3, batch_size=256, eval_ks=[3])
        cfg = RunConfig(
            train_path=paths["train"],
            test_path=paths["test"],
            val_path=paths["val"],
            checkpoint_dir=tmp_path / "ck",
            **common,
        )
        as_str = RunConfig(
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
            val_path=str(paths["val"]),
            checkpoint_dir=str(tmp_path / "ck"),
            **common,
        )
        res = run_training(cfg)
        assert os.path.exists(res.checkpoint_path)
        assert cfg.digest() == as_str.digest()
        assert load_checkpoint(res.checkpoint_path).config_digest == as_str.digest()

    def test_checkpoint_bytes_do_not_depend_on_file_location(self, tmp_path):
        base = small_config(tmp_path, epochs=6)
        ckpts = []
        for place in (tmp_path / "here", tmp_path / "there" / "deeper"):
            place.mkdir(parents=True)
            copied = {}
            for key in ("train_path", "test_path", "val_path"):
                source = Path(getattr(base, key))
                copied[key] = str(place / source.name)
                Path(copied[key]).write_bytes(source.read_bytes())
            cfg = dataclasses.replace(base, checkpoint_dir=str(place / "ck"), log_path=str(place / "run.log"), **copied)
            ckpts.append(Path(run_training(cfg).checkpoint_path).read_bytes())
        assert ckpts[0] == ckpts[1]

    @pytest.mark.parametrize("lambda1, runs", [(0.3, 1), (0.0, 0)])
    def test_factorizes_exactly_once_per_run(self, tmp_path, monkeypatch, lambda1, runs):
        calls = count_factorizations(monkeypatch)
        res = run_training(small_config(tmp_path, epochs=6, eval_every=2, lambda1=lambda1))
        assert res.best_epoch is not None  # the run made validation evals
        assert len(calls) == runs

    def test_non_finite_gradient_stops_before_the_update(self, tmp_path, monkeypatch):
        real_init, real_grads = harness.init_optimizer, harness.loss_and_grads
        opts, seen = [], {}

        def keep_optimizer(state):
            opts.append(real_init(state))
            return opts[-1]

        def nan_on_third_call(trace, batch, state, hp, svd):
            report, gu, gv = real_grads(trace, batch, state, hp, svd)
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 3:
                opt = opts[0]
                tables = (state.e_user, state.e_item, opt.m_user, opt.v_user, opt.m_item, opt.v_item)
                seen["before"] = [t.copy() for t in tables]
                seen["state"], seen["step"] = state, opt.step
                gv = gv.copy()
                gv[1, 0] = np.nan
            return report, gu, gv

        monkeypatch.setattr(harness, "init_optimizer", keep_optimizer)
        monkeypatch.setattr(harness, "loss_and_grads", nan_on_third_call)
        # 144 train pairs make 2 batches per epoch: the third step opens epoch 2
        with pytest.raises(NumericalError, match="non-finite item gradient in epoch 2; last fully finite epoch was 1"):
            run_training(small_config(tmp_path, epochs=2, batch_size=100))
        state, opt = seen["state"], opts[0]
        after = [state.e_user, state.e_item, opt.m_user, opt.v_user, opt.m_item, opt.v_item]
        assert all(np.array_equal(a, b) for a, b in zip(seen["before"], after))
        assert opt.step == seen["step"] == 2

    def test_full_population_trains_in_small_contrast_blocks(self, tmp_path, monkeypatch):
        # 24 users and 24 items: one anchor row per block against one block
        # of all 24; the logs print 6 decimals, past the blocks' last bits
        logs = {}
        for name, budget in (("one", losses.CONTRAST_BLOCK_BYTES), ("rows", 1)):
            monkeypatch.setattr(losses, "CONTRAST_BLOCK_BYTES", budget)
            log = tmp_path / f"{name}.log"
            cfg = small_config(
                tmp_path, name=name, epochs=3, eval_every=1, cl_scope="full-population", log_path=str(log)
            )
            assert len(run_training(cfg).epoch_seconds) == 3
            logs[name] = log.read_text()
        assert "cl_u=0.000000" not in logs["one"]
        assert logs["rows"] == logs["one"]


class TestEval:
    @pytest.mark.parametrize(
        "over,want",
        [({}, "(20, 20, 8, 2)"), ({"embed_dim": 16}, "(24, 24, 16, 2)"), ({"layers": 3}, "(24, 24, 8, 3)")],
        ids=["dataset", "embed_dim", "layers"],
    )
    def test_dimension_mismatch_is_a_data_error(self, tmp_path, over, want):
        cfg = small_config(tmp_path, epochs=3)
        res = run_training(cfg)
        if not over:
            other = generate_blocks(tmp_path / "other", 10, 10, 2, 0.0, 1)
            over = {f"{split}_path": str(other[split]) for split in ("train", "test", "val")}
        # the checkpoint holds 24 users, 24 items, 8 dims and 2 layers
        with pytest.raises(DataError, match=re.escape(f"(24, 24, 8, 2) but the dataset and config give {want}")):
            run_eval(dataclasses.replace(cfg, **over), res.checkpoint_path)

    def test_matches_the_training_runs_test_result(self, tmp_path):
        cfg = small_config(tmp_path, epochs=6, eval_ks=[1, 3, 10])
        res = run_training(cfg)
        assert run_eval(cfg, res.checkpoint_path) == res.test_result

    def test_non_finite_checkpoint_tables_raise(self, tmp_path):
        cfg = small_config(tmp_path, epochs=3)
        res = run_training(cfg)
        loaded = load_checkpoint(res.checkpoint_path)
        loaded.state.e_user[5] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, loaded.state, loaded.opt, loaded.svd_rank, loaded.config_digest)
        with pytest.raises(NumericalError, match="non-finite scores"):
            run_eval(cfg, bad)


class TestSvdReport:
    def test_rank_too_large_for_the_graph_is_a_config_error(self, tmp_path):
        # 24 x 24 graph: a sketch of 20 + 8 columns does not fit
        cfg = small_config(tmp_path, epochs=1, svd_rank=20)
        for call in (run_svd_report, run_training):
            with pytest.raises(ConfigError, match=r"svd_rank=20 with svd_oversample=8 does not fit the 24x24 graph"):
                call(cfg)
        # without the contrast nothing is factorized, so any rank trains
        assert len(run_training(dataclasses.replace(cfg, lambda1=0.0)).epoch_seconds) == 1

    def test_numerically_zero_graph_is_a_config_error(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, svd_rank=4)
        ds, a_norm = harness._load_graph(cfg)
        monkeypatch.setattr(harness, "_load_graph", lambda config: (ds, csr_array(a_norm.shape)))
        with pytest.raises(ConfigError, match="svd_rank=4 .* numerically zero"):
            run_svd_report(cfg)

    def test_residual_on_small_graph(self, tmp_path):
        cfg = small_config(tmp_path, svd_rank=4)
        factors, resid = run_svd_report(cfg)
        assert factors.rank == 4
        assert 0.0 <= resid <= 1.0
        assert np.all(np.diff(factors.s_r) <= 1e-12)

    def test_residual_matches_the_dense_difference(self, tmp_path):
        log = tmp_path / "report.log"
        cfg = small_config(tmp_path, svd_rank=4, log_path=str(log))
        factors, resid = run_svd_report(cfg)
        dense = harness._load_graph(cfg)[1].toarray()
        assert abs(resid - np.linalg.norm(dense - factors.reconstruct()) / np.linalg.norm(dense)) < 1e-12
        assert log.read_text().endswith(f"\nresidual_rel={resid:.12g}\n")

    def test_graph_of_exact_rank_reads_near_zero(self, tmp_path):
        # complete bipartite blocks of 7x4, 3x6 and 5x5 users x items: the
        # normalized graph has rank 3, with singular values 1, 1, 1
        blocks = [(7, 4), (3, 6), (5, 5)]
        train = [f"u{b}_{i} i{b}_{j}\n" for b, (m, n) in enumerate(blocks) for i in range(m) for j in range(n)]
        # one cross-block pair each for test and validation, outside the graph
        texts = {"train": "".join(train), "test": "u0_0 i1_0\n", "val": "u1_0 i2_0\n"}
        for split, text in texts.items():
            (tmp_path / f"{split}.txt").write_text(text)
        cfg = RunConfig(**{f"{split}_path": str(tmp_path / f"{split}.txt") for split in texts}, svd_rank=3)
        factors, resid = run_svd_report(cfg)
        np.testing.assert_allclose(factors.s_r, 1.0, atol=1e-12)
        # the documented floor: the report reads 1.2e-8 here, the dense difference 1e-16
        dense = harness._load_graph(cfg)[1].toarray()
        assert np.linalg.norm(dense - factors.reconstruct()) / np.linalg.norm(dense) < 1e-12
        assert resid <= 1e-7
        # one block of three left out: sqrt(1 / 3) of the graph is missed
        assert abs(run_svd_report(dataclasses.replace(cfg, svd_rank=2))[1] - np.sqrt(1 / 3)) < 1e-12

    def test_report_is_deterministic(self, tmp_path):
        cfg = small_config(tmp_path, svd_rank=4)
        f1, r1 = run_svd_report(cfg)
        f2, r2 = run_svd_report(cfg)
        assert r1 == r2
        np.testing.assert_array_equal(f1.s_r, f2.s_r)
