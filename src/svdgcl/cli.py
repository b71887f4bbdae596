"""Command-line interface: train, eval, synth, svd-report.

Exit codes: 0 success, 1 usage or configuration problems, 2 data or
protocol problems, 3 numerical failures.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, NumericalError
from .harness import CONFIG_KEYS, RunConfig, run_eval, run_svd_report, run_training
from .synth import generate_blocks


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; route through ConfigError
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="JSON file of config fields")
    for key in CONFIG_KEYS:
        p.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            default=argparse.SUPPRESS,
            metavar="VALUE",
            help=f"override {key}",
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = [f"{key}={getattr(args, key)}" for key in CONFIG_KEYS if hasattr(args, key)]
    return RunConfig.from_sources(args.config, overrides)


def _cmd_train(args) -> int:
    run_training(_config_from_args(args))
    return 0


def _cmd_eval(args) -> int:
    run_eval(_config_from_args(args), args.checkpoint)
    return 0


def _cmd_synth(args) -> int:
    paths = generate_blocks(
        args.out_dir,
        users_per_block=args.users_per_block,
        items_per_block=args.items_per_block,
        blocks=args.blocks,
        noise_p=args.noise_p,
        seed=args.seed,
    )
    for name in ("train", "val", "test"):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_svd_report(args) -> int:
    run_svd_report(_config_from_args(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svdgcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and evaluate its best checkpoint")
    _add_run_options(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved checkpoint on the test split")
    _add_run_options(p_eval)
    p_eval.add_argument("--checkpoint", required=True, metavar="PATH")
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate block-structured synthetic data")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--users-per-block", type=int, default=50)
    p_synth.add_argument("--items-per-block", type=int, default=50)
    p_synth.add_argument("--blocks", type=int, default=2)
    p_synth.add_argument("--noise-p", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.set_defaults(func=_cmd_synth)

    p_svd = sub.add_parser("svd-report", help="factorize the graph and report the spectrum")
    _add_run_options(p_svd)
    p_svd.set_defaults(func=_cmd_svd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
