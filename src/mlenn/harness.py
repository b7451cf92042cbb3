"""Dataset files, cross-validation orchestration and metric reports.

Dataset file format (one header line, then one line per sample)::

    mlkit-dataset v1, n=<rows>, d=<features>, l=<labels>, sparse=<0|1>
    <d comma-separated reals>,<l comma-separated 0/1 labels>
    ...

External score files carry one comma-separated line of l reals per
dataset row, aligned with the dataset file's row order; experiment folds
select their test rows from that matrix.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensemble import (EnsembleModel, fuse_weighted_external, fused_threshold,
                       normalize_enn, train_ensemble)
from .metrics import METRIC_NAMES, PredictionSet, compute_all, format_record
from .network import NetworkSpec, check_architecture
from .numerics import ConfigError, PcaModel, RngStream, pca_fit, pca_transform
from .pipeline import Dataset, build_training_set, imcc_augment, minmax_normalize, minmax_scale
from .training import TrainConfig, TrainingDivergedError

HEADER_MAGIC = "mlkit-dataset v1"


class DatasetFormatError(ValueError):
    """A dataset or score file does not match its declared format."""


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def _parse_header(line: str, path: str) -> tuple[int, int, int, bool]:
    parts = [p.strip() for p in line.strip().split(",")]
    if len(parts) != 5 or parts[0] != HEADER_MAGIC:
        raise DatasetFormatError(f"{path}:1: header must start with {HEADER_MAGIC!r}")
    values = {}
    for part, key in zip(parts[1:], ("n", "d", "l", "sparse")):
        name, _, value = part.partition("=")
        if name.strip() != key:
            raise DatasetFormatError(f"{path}:1: expected {key}=<value>, got {part!r}")
        values[key] = value.strip()
    try:
        n, d, l = int(values["n"]), int(values["d"]), int(values["l"])
    except ValueError as exc:
        raise DatasetFormatError(f"{path}:1: non-integer header field ({exc})") from None
    if values["sparse"] not in ("0", "1"):
        raise DatasetFormatError(f"{path}:1: sparse must be 0 or 1")
    if n < 1 or d < 1 or l < 1:
        raise DatasetFormatError(f"{path}:1: n, d and l must all be >= 1")
    return n, d, l, values["sparse"] == "1"


def load_dataset(path) -> Dataset:
    """Parse a dataset file, reporting malformed rows with line numbers."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    n, d, l, sparse = _parse_header(lines[0], path)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: header declares n={n} but found {len(body)} rows")

    x = np.empty((n, d))
    y = np.empty((n, l))
    for i, line in enumerate(body):
        lineno = i + 2
        fields = line.split(",")
        if len(fields) != d + l:
            raise DatasetFormatError(
                f"{path}:{lineno}: expected {d + l} fields, found {len(fields)}"
            )
        try:
            row = np.asarray([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric field") from None
        if not np.all(np.isfinite(row[:d])):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
        labels = row[d:]
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DatasetFormatError(f"{path}:{lineno}: labels must be 0 or 1")
        x[i] = row[:d]
        y[i] = labels

    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(x, y, name=name, sparse=sparse)


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset in the file format load_dataset reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER_MAGIC}, n={ds.n_samples}, d={ds.n_features}, "
                 f"l={ds.n_labels}, sparse={1 if ds.sparse else 0}\n")
        for xi, yi in zip(ds.x, ds.y):
            feats = ",".join(repr(float(v)) for v in xi)
            labels = ",".join(str(int(v)) for v in yi)
            fh.write(f"{feats},{labels}\n")


def load_external_scores(path, n: int, l: int) -> np.ndarray:
    """Parse an n-row matrix of l comma-separated reals per line. Scores
    outside [0, 1] are accepted with a warning (external classifiers may
    emit margins)."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        body = [ln for ln in fh.read().splitlines() if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: expected {n} rows of scores, found {len(body)}")
    out = np.empty((n, l))
    for i, line in enumerate(body):
        fields = line.split(",")
        if len(fields) != l:
            raise DatasetFormatError(f"{path}:{i + 1}: expected {l} fields, found {len(fields)}")
        try:
            row = np.asarray([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise DatasetFormatError(f"{path}:{i + 1}: non-numeric score") from None
        if not np.all(np.isfinite(row)):
            raise DatasetFormatError(f"{path}:{i + 1}: non-finite score")
        out[i] = row
    if out.size and (out.min() < 0.0 or out.max() > 1.0):
        warnings.warn(f"{path}: scores fall outside [0, 1]; using them as-is")
    return out


# ---------------------------------------------------------------------------
# Fold schemes
# ---------------------------------------------------------------------------

def kfold_split(n, k: int, rng: RngStream, labels=None) -> list:
    """Disjoint, exhaustive test folds of near-equal size (difference <= 1),
    deterministic in the stream. Accepts a Dataset or a row count.

    Fold assignment is uniform random by default; passing the label matrix
    as ``labels`` stratifies instead, spreading each distinct label vector
    evenly across the folds."""
    if isinstance(n, Dataset):
        n = n.n_samples
    n = int(n)
    if k < 2:
        raise ValueError(f"k-fold needs k >= 2, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")

    if labels is None:
        perm = rng.permutation(n)
    else:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ValueError(f"labels cover {labels.shape[0]} rows, expected {n}")
        # shuffle within each label-vector group, then deal the groups out
        # in signature order so every fold sees each group's share
        order = rng.permutation(n)
        groups: dict = {}
        for idx in order:
            groups.setdefault(tuple(labels[idx]), []).append(idx)
        perm = np.asarray([idx for sig in sorted(groups) for idx in groups[sig]],
                          dtype=np.int64)
        test_lists: list = [[] for _ in range(k)]
        for pos, idx in enumerate(perm):
            test_lists[pos % k].append(idx)
        folds = []
        for i in range(k):
            test = np.sort(np.asarray(test_lists[i], dtype=np.int64))
            train = np.sort(np.setdiff1d(np.arange(n), test))
            folds.append((train, test))
        return folds

    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = np.sort(perm[start:start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size:]]))
        folds.append((train, test))
        start += size
    return folds


def holdout_split(n: int, fraction: float, rng: RngStream) -> list:
    """Single train/test split reserving about ``fraction`` of rows for test."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in (0, 1), got {fraction}")
    n = int(n)
    n_test = max(1, min(n - 1, int(round(n * fraction))))
    perm = rng.permutation(n)
    return [(np.sort(perm[n_test:]), np.sort(perm[:n_test]))]


def index_file_split(n: int, path) -> list:
    """Single split whose test rows are listed (one index per line) in a file."""
    with open(path, "r", encoding="utf-8") as fh:
        body = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    try:
        test = np.unique(np.asarray([int(v) for v in body], dtype=np.int64))
    except ValueError:
        raise DatasetFormatError(f"{path}: index lines must be integers") from None
    if test.size == 0 or test.min() < 0 or test.max() >= n:
        raise DatasetFormatError(f"{path}: indices must fall in [0, {n})")
    if test.size >= n:
        raise DatasetFormatError(f"{path}: at least one row must remain for training")
    train = np.setdiff1d(np.arange(n), test)
    return [(train, test)]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class RunConfig(TrainConfig):
    """Everything run_experiment needs: the training protocol inherited from
    TrainConfig plus the data, architecture and fold-scheme fields. Every
    field is checked on construction.

    Exactly one of ``folds``, ``holdout`` or ``holdout_indices`` selects the
    fold scheme (``validate``); ``stratified`` needs ``folds``.
    ``augment_clusters=None`` disables augmentation; 0 means
    round(sqrt(train rows)).
    """

    dataset: str
    topologies: tuple = ("GRU_A",)
    hidden_units: int = NetworkSpec.hidden_units
    tcn_filters: int = NetworkSpec.tcn_filters
    tcn_blocks: int = NetworkSpec.tcn_blocks
    encoding: str = NetworkSpec.input_encoding
    folds: int | None = None
    stratified: bool = False
    holdout: float | None = None
    holdout_indices: str | None = None
    augment_clusters: int | None = None
    augment_weight: float = 1.0
    external_scores: str | None = None
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        super().__post_init__()
        # the CLI's repeatable --topology yields a list
        object.__setattr__(self, "topologies", tuple(self.topologies))
        if not self.dataset:
            raise ConfigError("field dataset: a dataset path is required")
        check_architecture(self.topologies, self.encoding, self.hidden_units,
                           self.tcn_filters, self.tcn_blocks)
        if self.folds is not None and self.folds < 2:
            raise ConfigError("field folds: must be >= 2")
        if self.stratified and self.folds is None:
            raise ConfigError("field stratified: applies to the k-fold scheme only, "
                              "so it needs folds")
        if self.holdout is not None and not 0.0 < self.holdout < 1.0:
            raise ConfigError("field holdout: fraction must lie in (0, 1)")
        if self.augment_clusters is not None and self.augment_clusters < 0:
            raise ConfigError("field augment_clusters: must be >= 0 (0 = auto)")
        if not self.augment_weight >= 0:
            raise ConfigError("field augment_weight: must be >= 0")

    def validate(self) -> None:
        """Check that exactly one fold scheme is chosen; run_experiment's check."""
        schemes = sum(v is not None for v in (self.folds, self.holdout, self.holdout_indices))
        if schemes != 1:
            raise ConfigError("field folds/holdout/holdout_indices: choose exactly one fold scheme")


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRecord:
    dataset: str
    model: str
    fold: str
    metrics: dict


@dataclass
class ExperimentReport:
    config: dict
    records: list
    failures: list = field(default_factory=list)

    def text(self) -> str:
        lines = ["# mlenn experiment report"]
        cfg = self.config
        lines.append(f"# dataset={cfg['dataset']} seed={cfg['seed']}")
        lines.append("# external scores align with dataset rows; "
                     "each fold reads its test rows in original order")
        for failure in self.failures:
            lines.append(f"# {failure}")
        for rec in self.records:
            lines.append(format_record(rec.dataset, rec.model, rec.fold, rec.metrics))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "records": [asdict(rec) for rec in self.records],
            "failures": list(self.failures),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def make_network_specs(cfg: RunConfig, n_labels: int, input_dim: int) -> list:
    specs = []
    for topology in cfg.topologies:
        specs.append(NetworkSpec(
            topology=topology, n_labels=n_labels,
            hidden_units=cfg.hidden_units, tcn_filters=cfg.tcn_filters,
            tcn_blocks=cfg.tcn_blocks, input_encoding=cfg.encoding,
            input_dim=input_dim if cfg.encoding == "single-step" else None,
        ))
    return specs


def _resolve_splits(cfg: RunConfig, ds: Dataset, rng: RngStream) -> list:
    if cfg.folds is not None:
        labels = ds.y if cfg.stratified else None
        return kfold_split(ds.n_samples, cfg.folds, rng, labels=labels)
    if cfg.holdout is not None:
        return holdout_split(ds.n_samples, cfg.holdout, rng)
    return index_file_split(ds.n_samples, cfg.holdout_indices)


def _run_fold(cfg: RunConfig, ds: Dataset, train_idx, test_idx,
              external, fold_rng: RngStream) -> dict:
    pre, x_tr = Preprocess.fit(ds.x[train_idx], ds.sparse)
    x_te = pre.apply(ds.x[test_idx])
    y_tr = ds.y[train_idx]
    y_te = ds.y[test_idx]

    weights = None
    if cfg.augment_clusters is not None:
        fold_ds = Dataset(x_tr, y_tr, name=ds.name)
        c = cfg.augment_clusters or int(round(math.sqrt(len(train_idx))))
        c = max(1, min(c, len(train_idx)))
        aug = imcc_augment(fold_ds, c, fold_rng.child(7))
        tset = build_training_set(fold_ds, aug, cfg.augment_weight)
        x_tr, y_tr, weights = tset.x, tset.y, tset.weights

    specs = make_network_specs(cfg, ds.n_labels, x_tr.shape[1])
    model = train_ensemble(specs, x_tr, y_tr, cfg, fold_rng.child(1), sample_weights=weights)
    scores = model.predict_scores(x_te)
    return _score_models(y_te, scores, None if external is None else external[test_idx])


def _score_models(y, scores, external) -> dict:
    """All ten indicators for the ensemble and, given external scores, for
    its sum-rule fusions with them at weights 1 and 3."""
    results = {"ensemble": compute_all(PredictionSet.from_scores(y, scores))}
    if external is not None:
        enn = normalize_enn(scores)
        for w, label in ((1.0, "ensemble+external"), (3.0, "ensemble+3x_external")):
            fused = fuse_weighted_external(enn, external, w)
            ps = PredictionSet.from_scores(y, fused, threshold=fused_threshold(w))
            results[label] = compute_all(ps)
    return results


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Cross-validate per the config and report all ten indicators per fold
    plus their mean; (config, seed) fully determines every emitted byte."""
    cfg.validate()
    ds = load_dataset(cfg.dataset)
    master = RngStream(cfg.seed)
    splits = _resolve_splits(cfg, ds, master.child(1))
    external = None
    if cfg.external_scores is not None:
        external = load_external_scores(cfg.external_scores, ds.n_samples, ds.n_labels)

    records: list[ReportRecord] = []
    failures: list[str] = []
    by_model: dict[str, list[dict]] = {}
    for i, (train_idx, test_idx) in enumerate(splits):
        try:
            fold_results = _run_fold(cfg, ds, train_idx, test_idx,
                                     external, master.child(100 + i))
        except (TrainingDivergedError, ValueError) as exc:
            failures.append(f"fold {i} failed: {exc}")
            continue
        for model_name, values in fold_results.items():
            records.append(ReportRecord(ds.name, model_name, str(i), values))
            by_model.setdefault(model_name, []).append(values)

    for model_name, fold_values in by_model.items():
        mean = {name: float(np.mean([v[name] for v in fold_values]))
                for name in METRIC_NAMES}
        records.append(ReportRecord(ds.name, model_name, "mean", mean))

    return ExperimentReport(asdict(cfg), records, failures)


# ---------------------------------------------------------------------------
# Fitted preprocessing for saved models
# ---------------------------------------------------------------------------

@dataclass
class Preprocess:
    """Column ranges (and optionally a PCA basis) fitted on training data so
    a saved model can be applied to raw feature files later."""

    lo: np.ndarray
    hi: np.ndarray
    pca: PcaModel | None = None

    @classmethod
    def fit(cls, x: np.ndarray, sparse: bool) -> tuple["Preprocess", np.ndarray]:
        """Fit the column ranges of ``x``, and for sparse data a PCA basis on
        the normalized rows; return the transform and ``x`` transformed."""
        out = minmax_normalize(x, x)
        pre = cls(x.min(axis=0), x.max(axis=0))
        if sparse:
            model = pca_fit(out)
            if model.n_components > 0:
                pre.pca = model
                out = pca_transform(model, out)
        return pre, out

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = minmax_scale(x, self.lo, self.hi)
        if self.pca is not None:
            out = pca_transform(self.pca, out)
        return out

    def to_dict(self) -> dict:
        doc = {"lo": self.lo.tolist(), "hi": self.hi.tolist(), "pca": None}
        if self.pca is not None:
            doc["pca"] = {
                "mean": self.pca.mean.tolist(),
                "components": [row.tolist() for row in self.pca.components],
                "explained_variance_ratio": self.pca.explained_variance_ratio.tolist(),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Preprocess":
        pca = None
        if doc.get("pca"):
            p = doc["pca"]
            pca = PcaModel(np.asarray(p["mean"], dtype=np.float64),
                           np.asarray(p["components"], dtype=np.float64),
                           np.asarray(p["explained_variance_ratio"], dtype=np.float64))
        return cls(np.asarray(doc["lo"], dtype=np.float64),
                   np.asarray(doc["hi"], dtype=np.float64), pca)


def evaluate_model(model: EnsembleModel, ds: Dataset, preprocess: Preprocess | None = None,
                   external: np.ndarray | None = None) -> ExperimentReport:
    """Apply a trained ensemble to a dataset and report all ten indicators."""
    x = ds.x if preprocess is None else preprocess.apply(ds.x)
    results = _score_models(ds.y, model.predict_scores(x), external)
    records = [ReportRecord(ds.name, name, "eval", values)
               for name, values in results.items()]
    config = {"dataset": ds.name, "seed": model.master_seed}
    return ExperimentReport(config, records)
