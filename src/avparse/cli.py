"""Command-line interface.

Commands: synth, augment, train, eval, ablate, metrics, scan-check,
grad-check. Every command honors ``--seed`` and ``--config`` (a ``key =
value`` text file supplying defaults for flags not given on the command
line). Exit codes: 0 success, 1 validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import trainer as trainer_mod
from .augment import AugmentConfig, count_label_distribution, generate_cmrc_batch, write_cmrc_outputs
from .data import (SynthConfig, apply_annotation_patch, generate_synthetic_dataset,
                   load_split, parse_manifest, read_key_values, write_label_csv)
from .diagnostics import run_grad_checks, run_scan_checks
from .errors import AvparseError, ParseError
from .metrics import report_from_dumps
from .model import ModelConfig
from .trainer import TrainConfig, evaluate_checkpoint, train_on_dir


CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path) -> dict[str, str]:
    return {key: value for _, key, value in read_key_values(path)}


class Options:
    """Resolution order: explicit flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = parse_config_file(args.config) if args.config else {}

    def get(self, name: str, cast, default):
        cli_value = getattr(self.args, name.replace("-", "_"), None)
        if cli_value is not None:
            return cli_value
        if name not in self.config:
            return default
        raw = self.config[name]
        if cast is bool:
            if raw.lower() not in CONFIG_BOOLS:
                raise ParseError(f"{self.args.config}: config key {name!r} must be one of "
                                 f"{'/'.join(CONFIG_BOOLS)}, got {raw!r}")
            return CONFIG_BOOLS[raw.lower()]
        try:
            return cast(raw)
        except ValueError:
            raise ParseError(f"{self.args.config}: config key {name!r} must be "
                             f"{cast.__name__}, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--config", type=str, default=None,
                        help="key = value file supplying flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avparse",
        description="Audio-visual video parsing: synthetic data, cross-modal "
                    "augmentation, training, evaluation and self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=None)
    p.add_argument("--val", type=int, default=None)
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--audio-dim", type=int, default=None)
    p.add_argument("--visual-dim", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--noise-audio", type=float, default=None)
    p.add_argument("--noise-visual", type=float, default=None)
    p.add_argument("--flip-rate", type=float, default=None)
    p.add_argument("--correlation", type=float, default=None)
    p.add_argument("--shared-directions", action="store_true", default=None)
    _add_common(p)

    p = sub.add_parser("augment", help="generate a cross-modal combination batch")
    p.add_argument("--data", required=True, help="dataset directory (train split)")
    p.add_argument("--out", required=True)
    p.add_argument("--multiplier", type=float, default=None)
    p.add_argument("--count", type=int, default=None, help="explicit target count")
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument("--patch", type=str, default=None, help="annotation patch CSV")
    _add_common(p)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--multiplier", type=float, default=None, help="CMRC multiplier (0 = off)")
    p.add_argument("--dim", type=int, default=None, help="internal feature width")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", type=str, default=None)
    p.add_argument("--out", type=str, default=None, help="directory for report + dump CSVs")
    _add_common(p)

    p = sub.add_parser("ablate", help="train and evaluate an ablated variant")
    p.add_argument("--component", required=True,
                   help="one of CMRC, TSA, AMF, MFE, PLSIM")
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--multiplier", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("metrics", help="score prediction dumps against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", type=str, default=None, help="write the ten-score CSV here")
    _add_common(p)

    p = sub.add_parser("scan-check", help="run the scan oracle-equivalence suite")
    p.add_argument("--cases", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("grad-check", help="run the finite-difference gradient suite")
    p.add_argument("--skip-model", action="store_true",
                   help="check ops only, skip the tiny end-to-end model")
    _add_common(p)
    return parser


# -- command implementations ---------------------------------------------------


def cmd_synth(args) -> int:
    opt = Options(args)
    cfg = SynthConfig(
        seed=opt.get("seed", int, 0),
        n_videos=opt.get("videos", int, 200),
        n_val=opt.get("val", int, 60),
        n_segments=opt.get("segments", int, 10),
        n_classes=opt.get("classes", int, 25),
        d_audio=opt.get("audio-dim", int, 64),
        d_visual=opt.get("visual-dim", int, 64),
        noise=opt.get("noise", float, 0.1),
        noise_audio=opt.get("noise-audio", float, None),
        noise_visual=opt.get("noise-visual", float, None),
        flip_rate=opt.get("flip-rate", float, 0.0),
        correlation=opt.get("correlation", float, 0.0),
        shared_directions=bool(opt.get("shared-directions", bool, False)),
    )
    ds = generate_synthetic_dataset(cfg, args.out)
    print(f"wrote {len(ds.train)} train + {len(ds.val)} val videos to {args.out}")
    return 0


def cmd_augment(args) -> int:
    opt = Options(args)
    split = load_split(args.data, "train")
    if args.patch:
        apply_annotation_patch(split.records, args.patch, split.classes)
    config = AugmentConfig(
        multiplier=opt.get("multiplier", float, 1.0),
        target_count=opt.get("count", int, None),
        min_count=opt.get("min-count", int, 50),
        seed=opt.get("seed", int, 0),
    )
    dist = count_label_distribution(split.records, config.min_count)
    batch = generate_cmrc_batch(split.records, dist, config)
    manifest = parse_manifest(os.path.join(args.data, "manifest_train.txt"))
    write_cmrc_outputs(args.out, batch, manifest, args.data)
    print(f"wrote {len(batch)} combined records to {args.out} "
          f"({len(dist.retained)} retained classes)")
    return 0


def _train_configs(opt) -> tuple[ModelConfig, TrainConfig]:
    model_config = ModelConfig(dim=opt.get("dim", int, 64))
    train_config = TrainConfig(
        epochs=opt.get("epochs", int, 20),
        batch_size=opt.get("batch-size", int, 16),
        learning_rate=opt.get("lr", float, 3e-4),
        weight_decay=opt.get("weight-decay", float, 0.01),
        seed=opt.get("seed", int, 0),
        cmrc_multiplier=opt.get("multiplier", float, 0.0),
    )
    return model_config, train_config


def cmd_train(args) -> int:
    opt = Options(args)
    model_config, train_config = _train_configs(opt)
    net, log, checkpoint_path = train_on_dir(args.data, args.out, model_config, train_config)
    last = log.entries[-1]
    print(f"trained {len(log.entries)} epochs ({log.parameter_count} parameters), "
          f"final loss {last.loss:.4f}")
    if last.report is not None:
        print(last.report.table())
    print(f"checkpoint: {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    opt = Options(args)
    split = opt.get("split", str, "val")
    report, preds, loaded = evaluate_checkpoint(args.checkpoint, args.data, split)
    print(report.table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.write_csv(os.path.join(args.out, f"report_{split}.csv"))
        dump = {vid: {"a": p.pred_a, "v": p.pred_v} for vid, p in preds.items()}
        write_label_csv(os.path.join(args.out, f"predictions_{split}.csv"),
                        dump, loaded.classes, loaded.n_segments)
        print(f"wrote report and prediction dump to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    opt = Options(args)
    model_config, train_config = _train_configs(opt)
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
    report = report_from_dumps(args.pred, args.gt)
    print(report.table())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_scan_check(args) -> int:
    opt = Options(args)
    results = run_scan_checks(seed=opt.get("seed", int, 0),
                              cases=opt.get("cases", int, 100))
    for r in results:
        print(r.line())
    return 0 if all(r.ok for r in results) else 1


def cmd_grad_check(args) -> int:
    opt = Options(args)
    results = run_grad_checks(seed=opt.get("seed", int, 0),
                              include_model=not args.skip_model)
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
