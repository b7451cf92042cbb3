"""Command-line entry point.

Subcommands:

    kfold            cross-validated experiment with full metric report
    train            fit an ensemble on a whole dataset file and save it
    evaluate         apply a saved ensemble to a dataset file
    augment-preview  show the cluster-center virtual examples for a dataset

All randomness is governed by the single --seed flag; identical
invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ensemble import load_ensemble, save_ensemble, train_ensemble
from .harness import (ConfigError, DatasetFormatError, ExperimentReport, Preprocess,
                      RunConfig, evaluate_model, load_dataset, load_external_scores,
                      make_network_specs, run_experiment)
from .network import ENCODINGS, TOPOLOGIES
from .numerics import RngStream
from .optim import VARIANTS
from .pipeline import imcc_augment
from .training import TrainingDivergedError


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", action="append", choices=TOPOLOGIES, default=None,
                   help="topology to include (repeatable; default GRU_A)")
    p.add_argument("--members", type=int, default=10, help="members per topology")
    p.add_argument("--optimizer", default="stochastic",
                   help=f"'stochastic' or one of {', '.join(VARIANTS)}")
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--rho1", type=float, default=0.5)
    p.add_argument("--rho2", type=float, default=0.999)
    p.add_argument("--clip-threshold", type=float, default=1.0)
    p.add_argument("--minibatch", type=int, default=30)
    p.add_argument("--epochs", type=int, default=None,
                   help="override the per-family default (150 recurrent / 100 convolutional)")
    p.add_argument("--hidden-units", type=int, default=50)
    p.add_argument("--tcn-filters", type=int, default=175)
    p.add_argument("--tcn-blocks", type=int, default=4)
    p.add_argument("--encoding", choices=ENCODINGS, default="sequence-of-scalars")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlenn",
        description="Multilabel ensembles of recurrent and temporal-convolutional networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kfold = sub.add_parser("kfold", help="run a cross-validated experiment")
    p_kfold.add_argument("--dataset", required=True)
    p_kfold.add_argument("--folds", type=int, default=None)
    p_kfold.add_argument("--stratified", action="store_true",
                         help="spread each label vector evenly across folds")
    p_kfold.add_argument("--holdout", type=float, default=None,
                         help="holdout fraction instead of k folds")
    p_kfold.add_argument("--holdout-indices", default=None,
                         help="file listing test-row indices, one per line")
    _add_train_flags(p_kfold)
    p_kfold.add_argument("--augment-clusters", type=int, default=None,
                         help="cluster count for augmentation (0 = auto)")
    p_kfold.add_argument("--augment-weight", type=float, default=1.0)
    p_kfold.add_argument("--external-scores", default=None)
    p_kfold.add_argument("--seed", type=int, default=0)
    p_kfold.add_argument("--output", default=None, help="directory for report files")

    p_train = sub.add_parser("train", help="train on a whole dataset file and save the model")
    p_train.add_argument("--dataset", required=True)
    _add_train_flags(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--output", required=True, help="directory for model.json")

    p_eval = sub.add_parser("evaluate", help="apply a saved model to a dataset file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--external-scores", default=None)
    p_eval.add_argument("--output", default=None)

    p_aug = sub.add_parser("augment-preview", help="print cluster-center virtual examples")
    p_aug.add_argument("--dataset", required=True)
    p_aug.add_argument("--clusters", type=int, required=True)
    p_aug.add_argument("--seed", type=int, default=0)
    p_aug.add_argument("--output", default=None, help="optional file for the preview")

    return parser


def _write_report(report: ExperimentReport, output: str | None) -> None:
    text = report.text()
    sys.stdout.write(text)
    if output:
        os.makedirs(output, exist_ok=True)
        with open(os.path.join(output, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(output, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        with open(os.path.join(output, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.config, sort_keys=True, indent=1) + "\n")


def _run_config(args, **experiment) -> RunConfig:
    """RunConfig from the training flags that kfold and train share, plus
    the experiment-only fields kfold passes in."""
    return RunConfig(
        dataset=args.dataset,
        topologies=tuple(args.topology or ("GRU_A",)),
        members=args.members,
        optimizer=args.optimizer,
        learning_rate=args.learning_rate,
        rho1=args.rho1,
        rho2=args.rho2,
        clip_threshold=args.clip_threshold,
        minibatch=args.minibatch,
        epochs=args.epochs,
        hidden_units=args.hidden_units,
        tcn_filters=args.tcn_filters,
        tcn_blocks=args.tcn_blocks,
        encoding=args.encoding,
        seed=args.seed,
        **experiment,
    )


def _cmd_kfold(args) -> int:
    cfg = _run_config(
        args,
        folds=args.folds,
        stratified=args.stratified,
        holdout=args.holdout,
        holdout_indices=args.holdout_indices,
        augment_clusters=args.augment_clusters,
        augment_weight=args.augment_weight,
        external_scores=args.external_scores,
        output=args.output,
    )
    report = run_experiment(cfg)
    _write_report(report, args.output)
    return 0


def _cmd_train(args) -> int:
    cfg = _run_config(args)
    cfg.validate_training()
    ds = load_dataset(args.dataset)
    pre = Preprocess.fit(ds.x, ds.sparse)
    x = pre.apply(ds.x)
    specs = make_network_specs(cfg, ds.n_labels, x.shape[1])
    model = train_ensemble(specs, x, ds.y, cfg.train_config(), RngStream(args.seed),
                           members_per_spec=args.members, optimizer_policy=args.optimizer)
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "model.json")
    save_ensemble(model, path, extra={"preprocess": pre.to_dict()})
    print(f"saved {len(model.members)}-member ensemble to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    model, extra = load_ensemble(args.model)
    pre = Preprocess.from_dict(extra["preprocess"]) if extra.get("preprocess") else None
    ds = load_dataset(args.dataset)
    external = None
    if args.external_scores:
        external = load_external_scores(args.external_scores, ds.n_samples, ds.n_labels)
    report = evaluate_model(model, ds, preprocess=pre, external=external)
    _write_report(report, args.output)
    return 0


def _cmd_augment_preview(args) -> int:
    ds = load_dataset(args.dataset)
    aug = imcc_augment(ds, args.clusters, RngStream(args.seed))
    lines = [f"# {args.clusters} cluster centers for {ds.name} "
             f"(n={ds.n_samples}, d={ds.n_features}, l={ds.n_labels})"]
    for j, (z, t) in enumerate(zip(aug.z, aug.t)):
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
