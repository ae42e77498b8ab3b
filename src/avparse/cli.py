"""Command-line interface.

Commands: synth, augment, train, eval, ablate, metrics, scan-check,
grad-check. Every command takes ``--config``, a ``key = value`` text file
supplying values for flags not given on the command line. Each command's
settable flags are a table mapping the flag to a field of a config
dataclass (or a parameter of the function it calls); that field's type,
default and checks are the flag's. Exit codes: 0 success, 1 validation
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import traceback
import typing

from . import trainer as trainer_mod
from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch, write_cmrc_outputs
from .data import (SynthConfig, apply_annotation_patch, generate_synthetic_dataset,
                   load_split, parse_manifest, read_key_values, write_label_csv)
from .diagnostics import run_grad_checks, run_scan_checks
from .errors import AvparseError, ConfigError, ParseError
from .metrics import report_from_dumps
from .model import ModelConfig
from .trainer import TrainConfig, evaluate_checkpoint, train_on_dir


CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flags(target, **names) -> dict:
    """``{flag: (target, name)}``; each keyword is a flag with ``_`` for ``-``."""
    return {flag.replace("_", "-"): (target, name) for flag, name in names.items()}


_TRAIN_FLAGS = {
    **_flags(TrainConfig, epochs="epochs", batch_size="batch_size", lr="learning_rate",
             weight_decay="weight_decay", multiplier="cmrc_multiplier", seed="seed"),
    **_flags(ModelConfig, dim="dim"),
}

# The flags each command reads from the command line or its config file.
COMMAND_FLAGS = {
    "synth": _flags(SynthConfig, videos="n_videos", val="n_val", segments="n_segments",
                    classes="n_classes", audio_dim="d_audio", visual_dim="d_visual",
                    noise="noise", noise_audio="noise_audio", noise_visual="noise_visual",
                    flip_rate="flip_rate", correlation="correlation",
                    shared_directions="shared_directions", seed="seed"),
    "augment": _flags(AugmentConfig, multiplier="multiplier", count="target_count",
                      min_count="min_count", seed="seed"),
    "train": _TRAIN_FLAGS,
    "eval": _flags(evaluate_checkpoint, split="split"),
    "ablate": {flag: pair for flag, pair in _TRAIN_FLAGS.items() if flag != "weight-decay"},
    "metrics": {},
    "scan-check": _flags(run_scan_checks, cases="cases", seed="seed"),
    "grad-check": _flags(run_grad_checks, seed="seed"),
}


def _flag_type(target, name: str) -> type:
    """The annotated type of ``target``'s field or parameter, without ``| None``."""
    hint = typing.get_type_hints(target)[name]
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return args[0] if args else hint


def parse_config_file(path) -> dict[str, str]:
    return {key: value for _, key, value in read_key_values(path)}


class Options:
    """One command's flag values: an explicit flag wins over the config file,
    and a flag set by neither keeps its field's default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.flags = COMMAND_FLAGS[args.command]
        self.from_file = {}
        if args.config:
            for key, raw in parse_config_file(args.config).items():
                if key not in self.flags:
                    raise ParseError(f"{args.config}: unknown config key {key!r}; "
                                     f"`avparse {args.command}` reads "
                                     f"{', '.join(self.flags) or 'no keys'}")
                self.from_file[key] = self._cast(key, raw)

    def _cast(self, key: str, raw: str):
        kind = _flag_type(*self.flags[key])
        if kind is bool:
            if raw.lower() not in CONFIG_BOOLS:
                raise ParseError(f"{self.args.config}: config key {key!r} must be one of "
                                 f"{'/'.join(CONFIG_BOOLS)}, got {raw!r}")
            return CONFIG_BOOLS[raw.lower()]
        try:
            return kind(raw)
        except ValueError:
            raise ParseError(f"{self.args.config}: config key {key!r} must be "
                             f"{kind.__name__}, got {raw!r}") from None

    def build(self, target, *args, **kwargs):
        """Call ``target`` with ``args``, ``kwargs`` and every flag mapped to it
        that was set; a ``ConfigError`` about one of those names its source."""
        given, source = {}, {}
        for flag, (owner, name) in self.flags.items():
            if owner is not target:
                continue
            value = getattr(self.args, flag.replace("-", "_"))
            if value is not None:
                given[name], source[name] = value, f"--{flag}"
            elif flag in self.from_file:
                given[name] = self.from_file[flag]
                source[name] = f"{self.args.config}: config key {flag!r}"
        try:
            return target(*args, **kwargs, **given)
        except ConfigError as exc:
            if exc.field not in source:
                raise
            raise ConfigError(f"{source[exc.field]}: {exc}", field=exc.field) from exc


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for flag, (target, name) in COMMAND_FLAGS[command].items():
        default = inspect.signature(target).parameters[name].default
        help_text = f"default {default} ({target.__name__}.{name})"
        kind = _flag_type(target, name)
        if kind is bool:
            parser.add_argument(f"--{flag}", action="store_true", default=None, help=help_text)
        else:
            parser.add_argument(f"--{flag}", type=kind, default=None, help=help_text)
    parser.add_argument("--config", type=str, default=None,
                        help="key = value file supplying values for flags not given")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avparse",
        description="Audio-visual video parsing: synthetic data, cross-modal "
                    "augmentation, training, evaluation and self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    _add_flags(p, "synth")

    p = sub.add_parser("augment", help="generate a cross-modal combination batch")
    p.add_argument("--data", required=True, help="dataset directory (train split)")
    p.add_argument("--out", required=True)
    p.add_argument("--patch", type=str, default=None, help="annotation patch CSV")
    _add_flags(p, "augment")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, "train")

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=str, default=None, help="directory for report + dump CSVs")
    _add_flags(p, "eval")

    p = sub.add_parser("ablate", help="train and evaluate an ablated variant")
    p.add_argument("--component", required=True, type=str.lower,
                   choices=tuple(trainer_mod.ABLATIONS), help="the component to disable")
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=str, default=None)
    _add_flags(p, "ablate")

    p = sub.add_parser("metrics", help="score prediction dumps against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", type=str, default=None, help="write the ten-score CSV here")
    _add_flags(p, "metrics")

    p = sub.add_parser("scan-check", help="run the scan oracle-equivalence suite")
    _add_flags(p, "scan-check")

    p = sub.add_parser("grad-check", help="run the finite-difference gradient suite")
    p.add_argument("--skip-model", action="store_true",
                   help="check ops only, skip the tiny end-to-end model")
    _add_flags(p, "grad-check")
    return parser


# -- command implementations ---------------------------------------------------


def cmd_synth(args) -> int:
    cfg = Options(args).build(SynthConfig)
    ds = generate_synthetic_dataset(cfg, args.out)
    print(f"wrote {len(ds.train)} train + {len(ds.val)} val videos to {args.out}")
    return 0


def cmd_augment(args) -> int:
    config = Options(args).build(AugmentConfig)
    split = load_split(args.data, "train")
    if args.patch:
        apply_annotation_patch(split.records, args.patch, split.classes)
    dist = count_label_distribution(split.records, config.min_count)
    batch = generate_cmrc_batch(split.records, dist, config)
    manifest = parse_manifest(os.path.join(args.data, "manifest_train.txt"))
    write_cmrc_outputs(args.out, batch, manifest, args.data)
    print(f"wrote {len(batch)} combined records to {args.out} "
          f"({len(dist.retained)} retained classes)")
    return 0


def _train_configs(args) -> tuple[ModelConfig, TrainConfig]:
    opt = Options(args)
    return opt.build(ModelConfig), opt.build(TrainConfig)


def cmd_train(args) -> int:
    model_config, train_config = _train_configs(args)
    net, log, checkpoint_path = train_on_dir(args.data, args.out, model_config, train_config)
    last = log.entries[-1]
    print(f"trained {len(log.entries)} epochs ({log.parameter_count} parameters), "
          f"final loss {last.loss:.4f}")
    if last.report is not None:
        print(last.report.table())
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    report, preds, loaded = Options(args).build(evaluate_checkpoint, args.checkpoint, args.data)
    print(report.table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.write_csv(os.path.join(args.out, f"report_{loaded.split}.csv"))
        dump = {vid: {"a": p.pred_a, "v": p.pred_v} for vid, p in preds.items()}
        write_label_csv(os.path.join(args.out, f"predictions_{loaded.split}.csv"),
                        dump, loaded.classes, loaded.n_segments)
        print(f"wrote report and prediction dump to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    model_config, train_config = _train_configs(args)
    train_split = load_split(args.data, "train")
    val_split = load_split(args.data, "val")
    model_config = trainer_mod._config_for_split(train_split, model_config)
    _, report = trainer_mod.ablate(args.component, model_config, train_split.records,
                                   train_split.classes, val_split.records, val_split.gt,
                                   train_config)
    print(f"ablation wo/{args.component.upper()}:")
    print(report.table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.write_csv(os.path.join(args.out, f"report_wo_{args.component.lower()}.csv"))
    return 0


def cmd_metrics(args) -> int:
    Options(args)  # reads and checks the config file; no flag of this command is settable
    report = report_from_dumps(args.pred, args.gt)
    print(report.table())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_scan_check(args) -> int:
    results = Options(args).build(run_scan_checks)
    for r in results:
        print(r.line())
    return 0 if all(r.ok for r in results) else 1


def cmd_grad_check(args) -> int:
    results = Options(args).build(run_grad_checks, include_model=not args.skip_model)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks passed")
    return 0 if not failed else 1


_COMMANDS = {
    "synth": cmd_synth,
    "augment": cmd_augment,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "metrics": cmd_metrics,
    "scan-check": cmd_scan_check,
    "grad-check": cmd_grad_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, usage errors otherwise
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except AvparseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
