"""Dataset files, the training path of both commands, cross-validation
orchestration and metric reports.

``kfold`` and ``train`` train through ``fit_training_set`` (the fitted
preprocessing and the possibly augmented rows) and ``train_units``
(unit (topology s, member m) on ``rng.child(s * members + m)``). Fold i
gives them children 7 and 1 of ``RngStream(seed).child(100 + i)`` and frees
each member once it has scored the fold's test rows; ``train`` gives both
``RngStream(seed)``. Only a diverged member or an undefined indicator fails
a fold.

Dataset file format (one header line, then one line per sample)::

    mlkit-dataset v1, n=<rows>, d=<features>, l=<labels>, sparse=<0|1>
    <d comma-separated reals>,<l comma-separated 0/1 labels>
    ...

External score files carry one comma-separated line of l reals per
dataset row, aligned with the dataset file's row order; experiment folds
select their test rows from that matrix.

Fields use Python ``float()`` syntax. ``#`` does not start a comment, and
blank lines are skipped but counted in the line numbers of errors. Rows
of plain ASCII numbers are parsed in one ``np.loadtxt`` call; everything
else takes the per-line ``float()`` parse, which gives the same bits and
alone words the errors.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensemble import (EnsembleModel, fuse_average, fuse_weighted_external, fused_threshold,
                       normalize_enn, train_member)
from .metrics import METRIC_NAMES, PredictionSet, UndefinedMetricError, compute_all
from .network import NetworkSpec, check_architecture
from .numerics import ConfigError, PcaModel, RngStream, ShapeError, pca_fit, pca_transform
from .pipeline import Dataset, imcc_augment, minmax_normalize, minmax_scale
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


# Every byte that a row of plain numbers may hold. Over this alphabet
# np.loadtxt and float() accept the same fields and give the same bits.
# Outside it they differ both ways: float() takes "1_0" and non-ASCII
# digits, which loadtxt refuses, and loadtxt takes "\x1f1.5", which float()
# refuses.
_FAST_ALPHABET = b"0123456789+-.eEinfatyINFATY, \t\r\n"


def _read_lines(path: str) -> tuple[bytes, list]:
    """The file's bytes and its UTF-8 text split into lines, the same
    lines that a text-mode read would split into. A file that is not UTF-8
    raises :class:`DatasetFormatError` naming the line, counted in newline
    bytes, of the first byte that does not decode."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DatasetFormatError(f"{path}:{line}: not UTF-8 text") from None
    return raw, text.splitlines()


def _parse_rows(path: str, raw: bytes, body: list, d: int, l: int, nouns: tuple) -> np.ndarray:
    """The (len(body), d + l) matrix of ``body``, a list of (file line
    number, line) pairs, each line holding d finite reals and then l labels
    of 0 or 1. ``raw`` holds at least every byte of those lines, and
    ``nouns`` name a field and a feature in error messages.

    When every byte of ``raw`` is in the alphabet above, the lines are
    parsed by one ``np.loadtxt`` call. It refuses a line whose field count
    differs from the first line's, so a result of d + l columns means that
    every line holds d + l fields. Anything that call or its checks refuse
    goes to the per-line parse, which gives the same bits and alone decides
    whether the file loads and which line an error names."""
    width = d + l
    if body and not raw.translate(None, _FAST_ALPHABET):
        try:
            rows = np.loadtxt([line for _, line in body], delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
        except ValueError:
            rows = None
        if (rows is not None and rows.shape == (len(body), width)
                and np.isfinite(rows[:, :d]).all()
                and ((rows[:, d:] == 0.0) | (rows[:, d:] == 1.0)).all()):
            return rows

    field, feature = nouns
    out = np.empty((len(body), width))
    for i, (lineno, line) in enumerate(body):
        fields = line.split(",")
        if len(fields) != width:
            raise DatasetFormatError(f"{path}:{lineno}: expected {width} fields, found {len(fields)}")
        try:
            row = np.asarray([float(v) for v in fields], dtype=np.float64)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric {field}") from None
        if not np.all(np.isfinite(row[:d])):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite {feature}")
        labels = row[d:]
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DatasetFormatError(f"{path}:{lineno}: labels must be 0 or 1")
        out[i] = row
    return out


def load_dataset(path) -> Dataset:
    """Parse a dataset file, reporting malformed rows with line numbers."""
    path = str(path)
    raw, lines = _read_lines(path)
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    n, d, l, sparse = _parse_header(lines[0], path)
    # (file line number, line) for every non-blank line after the header
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: header declares n={n} but found {len(body)} rows")

    # A character takes at least one byte, so the bytes after the header's
    # length in characters hold the whole body.
    rows = _parse_rows(path, raw[len(lines[0]):], body, d, l, ("field", "feature value"))
    x, y = rows[:, :d].copy(), rows[:, d:].copy()

    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(x, y, name=name, sparse=sparse)


def load_external_scores(path, n: int, l: int) -> np.ndarray:
    """Parse an n-row matrix of l comma-separated reals per line. Scores
    outside [0, 1] are accepted with a warning (external classifiers may
    emit margins)."""
    path = str(path)
    raw, lines = _read_lines(path)
    body = [(i, ln) for i, ln in enumerate(lines, start=1) if ln.strip()]
    if len(body) != n:
        raise DatasetFormatError(f"{path}: expected {n} rows of scores, found {len(body)}")
    out = _parse_rows(path, raw, body, l, 0, ("score", "score"))
    if out.size and (out.min() < 0.0 or out.max() > 1.0):
        warnings.warn(f"{path}: scores fall outside [0, 1]; using them as-is")
    return out


# ---------------------------------------------------------------------------
# Fold schemes
# ---------------------------------------------------------------------------

def kfold_split(n: int, k: int, rng: RngStream, labels=None) -> list:
    """Disjoint, exhaustive test folds of near-equal size (difference <= 1),
    deterministic in the stream.

    Fold assignment is uniform random by default: the shuffled rows are cut
    into contiguous chunks. Passing the label matrix as ``labels``
    stratifies instead: the shuffled rows are ordered by label vector and
    dealt out round-robin, so every fold sees each group's share."""
    n = int(n)
    if k < 2:
        raise ValueError(f"k-fold needs k >= 2, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")

    perm = rng.permutation(n)
    if labels is None:
        base, extra = divmod(n, k)
        fold_of = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
    else:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ValueError(f"labels cover {labels.shape[0]} rows, expected {n}")
        # stable sort on the label rows, first column most significant
        perm = perm[np.lexsort(labels[perm].T[::-1])]
        fold_of = np.arange(n) % k
    folds = []
    for i in range(k):
        in_fold = fold_of == i
        folds.append((np.sort(perm[~in_fold]), np.sort(perm[in_fold])))
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
    indices = []
    for lineno, line in enumerate(_read_lines(path)[1], start=1):
        line = line.strip()
        if not line:
            continue
        try:
            index = int(line)
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: index lines must be integers") from None
        if not 0 <= index < n:
            raise DatasetFormatError(f"{path}:{lineno}: indices must fall in [0, {n})")
        indices.append(index)
    test = np.unique(np.asarray(indices, dtype=np.int64))
    if test.size == 0:
        raise DatasetFormatError(f"{path}: no index lines")
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
        if self.seed < 0:
            raise ConfigError("field seed: must be >= 0")

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
            values = " ".join(f"{name}={rec.metrics[name]:.6f}" for name in METRIC_NAMES)
            lines.append(f"dataset={rec.dataset} model={rec.model} fold={rec.fold} {values}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "records": [asdict(rec) for rec in self.records],
            "failures": list(self.failures),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def write(self, output: str) -> None:
        """Write report.txt, report.json and config.json into ``output``."""
        os.makedirs(output, exist_ok=True)
        config = json.dumps(self.config, sort_keys=True, indent=1) + "\n"
        for name, text in (("report.txt", self.text()), ("report.json", self.to_json()),
                           ("config.json", config)):
            with open(os.path.join(output, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def fit_training_set(cfg: RunConfig, x, y, sparse: bool, rng: RngStream) -> tuple:
    """Fit ``Preprocess`` on the rows ``x`` and return it with the training
    rows ``x, y, weights``. When ``cfg.augment_clusters`` is set, the
    ``imcc_augment`` rows drawn from ``rng`` follow the real ones, which
    weigh 1 each, at ``cfg.augment_weight``; without them ``weights`` is
    None. A count of 0 means round(sqrt(n)) clusters for n rows, and
    ``kmeans`` refuses a count above n."""
    pre, x = Preprocess.fit(x, sparse)
    weights = None
    if cfg.augment_clusters is not None:
        n = x.shape[0]
        aug = imcc_augment(x, y, cfg.augment_clusters or int(round(math.sqrt(n))), rng)
        weights = np.concatenate([np.ones(n), np.full(aug.z.shape[0], float(cfg.augment_weight))])
        x = np.concatenate([x, aug.z])
        y = np.concatenate([y, aug.t])
    return pre, x, y, weights


def train_units(cfg: RunConfig, x, y, rng: RngStream, sample_weights=None):
    """Train ``cfg.members`` networks of each of ``cfg.topologies`` on the
    same rows, unit (topology s, member m) on ``rng.child(s * members + m)``,
    and yield each member's network as soon as it is trained."""
    for s, topology in enumerate(cfg.topologies):
        spec = NetworkSpec(
            topology=topology, n_labels=y.shape[1],
            hidden_units=cfg.hidden_units, tcn_filters=cfg.tcn_filters,
            tcn_blocks=cfg.tcn_blocks, input_encoding=cfg.encoding,
            input_dim=x.shape[1] if cfg.encoding == "single-step" else None,
        )
        for m in range(cfg.members):
            yield train_member(spec, x, y, cfg, rng.child(s * cfg.members + m), sample_weights)


def train_members(cfg: RunConfig, x, y, rng: RngStream, sample_weights=None) -> EnsembleModel:
    """Every unit of :func:`train_units`, kept as one ensemble."""
    return EnsembleModel(list(train_units(cfg, x, y, rng, sample_weights)), master_seed=rng.seed)


def _resolve_splits(cfg: RunConfig, ds: Dataset, rng: RngStream) -> list:
    if cfg.folds is not None:
        labels = ds.y if cfg.stratified else None
        return kfold_split(ds.n_samples, cfg.folds, rng, labels=labels)
    if cfg.holdout is not None:
        return holdout_split(ds.n_samples, cfg.holdout, rng)
    return index_file_split(ds.n_samples, cfg.holdout_indices)


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
        fold_rng = master.child(100 + i)
        try:
            pre, x, y, weights = fit_training_set(cfg, ds.x[train_idx], ds.y[train_idx],
                                                  ds.sparse, fold_rng.child(7))
            test_x = pre.apply(ds.x[test_idx])
            # Each network is freed before the next trains. Fusion is
            # element-wise, so these are the bits of one ensemble's scores.
            unit_scores = []
            for net in train_units(cfg, x, y, fold_rng.child(1), weights):
                unit_scores.append(EnsembleModel([net]).predict_scores(test_x))
                del net
            fold_results = _score_models(ds.y[test_idx], fuse_average(unit_scores),
                                         None if external is None else external[test_idx])
        except (TrainingDivergedError, UndefinedMetricError) as exc:
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
    """Column ranges, and optionally a PCA basis, fitted on training data; a
    saved model stores them as the float64 tensors of :meth:`tensors`."""

    lo: np.ndarray
    hi: np.ndarray
    pca: PcaModel | None = None
    _NAMES = ("lo", "hi", "pca.mean", "pca.components", "pca.explained_variance_ratio")

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
        if x.shape[1] != self.lo.shape[0]:
            raise ShapeError(f"the preprocess block was fitted on {self.lo.shape[0]} "
                             f"feature columns, the data has {x.shape[1]}")
        out = minmax_scale(x, self.lo, self.hi)
        if self.pca is not None:
            out = pca_transform(self.pca, out)
        return out

    def tensors(self) -> list:
        """The ("name", array) pairs that a model file stores: ``lo`` and
        ``hi``, then the PCA basis's, if one was fitted."""
        arrays = [self.lo, self.hi]
        if self.pca is not None:
            arrays += [self.pca.mean, self.pca.components, self.pca.explained_variance_ratio]
        return list(zip(self._NAMES, arrays))

    @classmethod
    def from_tensors(cls, pairs) -> "Preprocess":
        """Rebuild from :meth:`tensors`' pairs; names other than those,
        shapes that do not fit each other or a ``lo`` above its ``hi`` raise
        ``ValueError`` naming them."""
        names = [name for name, _ in pairs]
        want = list(cls._NAMES[:5 if len(names) > 2 else 2])
        if names != want:
            raise ValueError(f"preprocess tensors {names} are not {want}")
        lo, hi, *basis = (arr for _, arr in pairs)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ShapeError(f"preprocess 'lo' {list(lo.shape)} and 'hi' {list(hi.shape)} "
                             "are not one column range")
        if (lo > hi).any():
            j = int(np.argmax(lo > hi))
            raise ValueError(f"preprocess column {j} has 'lo' {lo[j]} above 'hi' {hi[j]}")
        pca = PcaModel(*basis) if basis else None
        if basis and not (pca.mean.shape == lo.shape and pca.explained_variance_ratio.ndim == 1
                          and pca.components.shape == pca.explained_variance_ratio.shape + lo.shape
                          and pca.n_components > 0):
            raise ShapeError(f"preprocess pca shapes {[list(a.shape) for a in basis]} are not "
                             f"k >= 1 components over {lo.size} columns")
        return cls(lo, hi, pca)


def evaluate_model(model: EnsembleModel, ds: Dataset, preprocess: Preprocess,
                   external: np.ndarray | None = None) -> ExperimentReport:
    """Apply a trained ensemble and its preprocessing; report all ten indicators."""
    if ds.n_labels != model.members[0].spec.n_labels:
        raise ShapeError(f"the model was trained on {model.members[0].spec.n_labels} labels, "
                         f"the data has {ds.n_labels}")
    results = _score_models(ds.y, model.predict_scores(preprocess.apply(ds.x)), external)
    records = [ReportRecord(ds.name, name, "eval", values)
               for name, values in results.items()]
    config = {"dataset": ds.name, "seed": model.master_seed}
    return ExperimentReport(config, records)
