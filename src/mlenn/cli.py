"""Command-line entry point.

Subcommands:

    kfold            cross-validated experiment with full metric report
    train            fit an ensemble on a whole dataset file and save it
    evaluate         apply a saved ensemble to a dataset file
    augment-preview  the virtual rows that augmentation appends to a file's
                     preprocessed rows

All randomness is governed by the single --seed flag; identical
invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .ensemble import load_ensemble, save_ensemble
from .harness import (ConfigError, DatasetFormatError, Preprocess,
                      RunConfig, evaluate_model, fit_training_set, load_dataset,
                      load_external_scores, run_experiment, train_members)
from .network import ENCODINGS, GRU_FAMILY, TCN_FAMILY, TOPOLOGIES
from .numerics import RngStream
from .optim import VARIANTS
from .training import TrainConfig, TrainingDivergedError


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # No defaults here: an absent flag leaves the RunConfig field default,
    # and the help texts quote those defaults.
    protocol = TrainConfig()
    p.add_argument("--topology", dest="topologies", action="append", choices=TOPOLOGIES,
                   help="topology to include (repeatable; default "
                        f"{' '.join(RunConfig.topologies)})")
    p.add_argument("--members", type=int, help="members per topology")
    p.add_argument("--optimizer", help=f"'stochastic' or one of {', '.join(VARIANTS)}")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--rho1", type=float)
    p.add_argument("--rho2", type=float)
    p.add_argument("--clip-threshold", type=float)
    p.add_argument("--minibatch", type=int)
    p.add_argument("--epochs", type=int,
                   help="override the per-family default "
                        f"({protocol.resolve_epochs(GRU_FAMILY[0])} recurrent / "
                        f"{protocol.resolve_epochs(TCN_FAMILY[0])} convolutional)")
    p.add_argument("--hidden-units", type=int)
    p.add_argument("--tcn-filters", type=int)
    p.add_argument("--tcn-blocks", type=int)
    p.add_argument("--encoding", choices=ENCODINGS)
    p.add_argument("--augment-clusters", type=int,
                   help="cluster count for augmentation (0 = auto)")
    p.add_argument("--augment-weight", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlenn",
        description="Multilabel ensembles of recurrent and temporal-convolutional networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kfold = sub.add_parser("kfold", help="run a cross-validated experiment",
                             argument_default=argparse.SUPPRESS)
    p_kfold.add_argument("--dataset", required=True)
    p_kfold.add_argument("--folds", type=int)
    p_kfold.add_argument("--stratified", action="store_true",
                         help="spread each label vector evenly across folds")
    p_kfold.add_argument("--holdout", type=float, help="holdout fraction instead of k folds")
    p_kfold.add_argument("--holdout-indices",
                         help="file listing test-row indices, one per line")
    _add_train_flags(p_kfold)
    p_kfold.add_argument("--external-scores")
    p_kfold.add_argument("--seed", type=int)
    p_kfold.add_argument("--output", help="directory for report files")

    p_train = sub.add_parser("train", help="train on a whole dataset file and save the model",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("--dataset", required=True)
    _add_train_flags(p_train)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--output", required=True, help="directory for model.json")

    p_eval = sub.add_parser("evaluate", help="apply a saved model to a dataset file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--external-scores", default=None)
    p_eval.add_argument("--output", default=None)

    p_aug = sub.add_parser("augment-preview", help="print the virtual rows that augmentation "
                           "appends to the file's preprocessed rows")
    p_aug.add_argument("--dataset", required=True)
    p_aug.add_argument("--clusters", type=int, required=True,
                       help="cluster count as in kfold and train (0 = auto); a count "
                            "above the row count fails once the file is read")
    p_aug.add_argument("--seed", type=int, default=0)
    p_aug.add_argument("--output", default=None, help="optional file for the preview")

    return parser


def _run_config(args) -> RunConfig:
    """RunConfig from the flags given; kfold and train declare no flag
    defaults, so every absent flag keeps the field's default."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def _cmd_kfold(args) -> int:
    cfg = _run_config(args)
    cfg.validate()
    # An unusable --output fails here, before any unit trains.
    if cfg.output:
        os.makedirs(cfg.output, exist_ok=True)
    report = run_experiment(cfg)
    sys.stdout.write(report.text())
    if cfg.output:
        report.write(cfg.output)
    if not report.records:
        print(f"error [stage=kfold]: no fold produced a record "
              f"({len(report.failures)} failed)", file=sys.stderr)
        return 1
    return 0


def _cmd_train(args) -> int:
    cfg = _run_config(args)
    os.makedirs(cfg.output, exist_ok=True)
    ds = load_dataset(cfg.dataset)
    rng = RngStream(cfg.seed)
    pre, x, y, weights = fit_training_set(cfg, ds.x, ds.y, ds.sparse, rng)
    model = train_members(cfg, x, y, rng, weights)
    path = os.path.join(cfg.output, "model.json")
    save_ensemble(model, path, preprocess=pre.tensors())
    print(f"saved {len(model.members)}-member ensemble to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    model, preprocess = load_ensemble(args.model)
    pre = Preprocess.from_tensors(preprocess)
    ds = load_dataset(args.dataset)
    external = None
    if args.external_scores:
        external = load_external_scores(args.external_scores, ds.n_samples, ds.n_labels)
    report = evaluate_model(model, ds, preprocess=pre, external=external)
    sys.stdout.write(report.text())
    if args.output:
        report.write(args.output)
    return 0


def _cmd_augment_preview(args) -> int:
    cfg = RunConfig(dataset=args.dataset, augment_clusters=args.clusters, seed=args.seed)
    ds = load_dataset(cfg.dataset)
    _, x, y, _ = fit_training_set(cfg, ds.x, ds.y, ds.sparse, RngStream(cfg.seed))
    # d is the width of the preprocessed rows, which PCA narrows for a sparse set.
    lines = [f"# {x.shape[0] - ds.n_samples} cluster centers for {ds.name} "
             f"(n={ds.n_samples}, d={x.shape[1]}, l={ds.n_labels})"]
    for j, (z, t) in enumerate(zip(x[ds.n_samples:], y[ds.n_samples:])):
        feats = ",".join(f"{v:.6f}" for v in z)
        labels = ",".join(f"{v:.6f}" for v in t)
        lines.append(f"center={j} features={feats} labels={labels}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


_STAGES = {
    "kfold": _cmd_kfold,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "augment-preview": _cmd_augment_preview,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _STAGES[args.command](args)
    except ConfigError as exc:
        print(f"error [stage=configuration]: {exc}", file=sys.stderr)
        return 2
    except DatasetFormatError as exc:
        print(f"error [stage=data-loading]: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"error [stage=training]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error [stage={args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
