"""Member training, score fusion and model serialization.

``train_member`` trains one (topology, member) unit from the stream it is
given: a ``Network`` that keeps its per-layer optimizer variants as
``optimizer_tags``. ``mlenn.harness`` owns the member loop, the unit streams
and the training set. Prediction fuses member confidences by the average
rule, ``SCORE_ROWS`` rows at a time. A trained ensemble round-trips through
one file: a line holding ``json.dumps(header, sort_keys=True)``, which is
ASCII, and then every member's tensors and then the fitted preprocessing's
as C-order little-endian float64 bytes, one after another. The header
holds the metadata and each tensor's name and shape; the offsets follow
from their order. The round trip is bit-exact and the file is byte-stable
for a fixed seed. The header line is decoded as strict UTF-8.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import Network, NetworkSpec, build_network
from .numerics import ConfigError, RngStream, ShapeError, as_tensor
from .training import TrainConfig, assign_optimizers, train_network

MODEL_FORMAT = "mlenn-ensemble v4"
# Rows per scoring forward: the training minibatch. Fusion is element-wise,
# so a chunk's fused scores are the bits of its rows in one whole fusion,
# and a forward's memory does not grow with the file.
SCORE_ROWS = TrainConfig.minibatch


@dataclass
class EnsembleModel:
    members: list
    master_seed: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        labels = {net.spec.n_labels for net in self.members}
        if len(labels) > 1:
            raise ShapeError(f"members disagree on label count: {sorted(labels)}")

    def predict_scores(self, features) -> np.ndarray:
        """Average-rule fusion of all member confidence matrices, forwarded
        and fused ``SCORE_ROWS`` rows at a time."""
        features = as_tensor(features)
        scores = np.empty((len(features), self.members[0].spec.n_labels))
        for start in range(0, len(features), SCORE_ROWS):
            rows = features[start:start + SCORE_ROWS]
            scores[start:start + SCORE_ROWS] = fuse_average(
                [net.forward(rows) for net in self.members])
        return scores


def train_member(spec: NetworkSpec, x, y, cfg: TrainConfig, rng: RngStream,
                 sample_weights=None) -> Network:
    """Build a ``spec`` network from ``rng.child(0)``, draw its per-layer
    ``cfg.optimizer`` variants into its ``optimizer_tags`` from
    ``rng.child(1)`` and train it on the weighted rows from ``rng.child(2)``."""
    net = build_network(spec, rng.child(0))
    net.optimizer_tags = assign_optimizers(net, cfg.optimizer, rng.child(1))
    train_network(net, x, y, cfg, rng.child(2), sample_weights=sample_weights)
    return net


def fuse_average(scores: list) -> np.ndarray:
    """Element-wise arithmetic mean of equally-shaped score matrices.

    Each element's member values are summed in sorted order, so the result
    is bitwise independent of member ordering."""
    if not scores:
        raise ValueError("fuse_average needs at least one score matrix")
    arrays = [as_tensor(s) for s in scores]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ShapeError(f"score shapes disagree: {[a.shape for a in arrays]}")
    stacked = np.stack(arrays, axis=0)
    stacked.sort(axis=0)
    return stacked.sum(axis=0) / len(arrays)


def normalize_enn(f) -> np.ndarray:
    """Map sigmoid-range ensemble scores from [0, 1] to [-1, 1]; thresholded
    predictions on the normalized scores use 0 instead of 0.5."""
    f = as_tensor(f)
    if f.size and (f.min() < 0.0 or f.max() > 1.0):
        raise ValueError("normalize_enn expects scores in [0, 1]")
    return (f - 0.5) * 2.0


def fuse_weighted_external(enn, external, w: float) -> np.ndarray:
    """Sum-rule fusion of normalized ensemble scores with externally
    supplied classifier scores scaled by ``w``."""
    enn = as_tensor(enn)
    external = as_tensor(external)
    if enn.shape != external.shape:
        raise ShapeError(f"score shapes disagree: {enn.shape} vs {external.shape}")
    return enn + w * external


def fused_threshold(w: float) -> float:
    """Prediction threshold for fuse_weighted_external output."""
    return 0.5 * (1.0 + w)


def _tensors(net: Network) -> list:
    """The ("layer.tensor", array) pairs of a model file, in its order."""
    return net.param_items() + net.state_items()


def save_ensemble(model: EnsembleModel, path, preprocess=()) -> None:
    """Write the model file: ``json.dumps(header, sort_keys=True)``, a
    newline, then every member's tensors and then the ``preprocess`` pairs
    (``Preprocess.tensors()``), each written straight from its own array.
    The header holds each member's ``spec``, ``optimizer_tags`` and
    ``tensors`` and the file's ``preprocess``, the ``[name, shape]`` lists
    in the order of the bytes: a member's ``param_items()``, then its
    ``state_items()``.
    """
    header = {
        "format": MODEL_FORMAT,
        "master_seed": model.master_seed,
        "preprocess": [[name, list(arr.shape)] for name, arr in preprocess],
        "members": [{"spec": asdict(net.spec),
                     "optimizer_tags": dict(net.optimizer_tags),
                     "tensors": [[name, list(arr.shape)] for name, arr in _tensors(net)]}
                    for net in model.members],
    }
    line = json.dumps(header, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(line.encode("ascii") + b"\n")
        for pairs in [*map(_tensors, model.members), preprocess]:
            for _, arr in pairs:
                fh.write(np.ascontiguousarray(arr, "<f8"))


def _member_field(entry, key: str, index: int):
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"model member {index} has no {key!r} entry")
    return entry[key]


def _is_listed_tensor(entry) -> bool:
    """Whether ``entry`` is a [str, [non-negative JSON integer, ...]] pair."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(n) is int and n >= 0 for n in entry[1]))


def _read_tensor(raw: bytes, offset: int, shape, what: str) -> np.ndarray:
    """The float64 tensor of ``shape`` at ``raw[offset:]``, a view that the caller copies;
    a file that ends inside it or a non-finite value raises ValueError naming ``what``."""
    size = math.prod(shape)
    if offset + 8 * size > len(raw):
        raise ValueError(f"model file ends inside {what}")
    values = np.frombuffer(raw, "<f8", size, offset).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError(f"model {what} holds a non-finite value")
    return values


def load_ensemble(path) -> tuple[EnsembleModel, list]:
    """Read a file written by save_ensemble; returns the model and the
    ("name", array) pairs of its preprocessing in the header's order. A
    malformed file raises ``ValueError`` (or its subclass ``ShapeError``)
    naming what is wrong."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n")
    if end < 0:
        raise ValueError("model file has no newline after its header")
    # ``decode`` rather than ``json.loads(bytes)``, whose encoding detection
    # would accept a UTF-8 BOM and UTF-16 files.
    header = json.loads(raw[:end].decode("utf-8"))
    found = header.get("format") if isinstance(header, dict) else type(header).__name__
    if found != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {found!r}")
    master_seed = header.get("master_seed", 0)
    # A JSON integer only: bool is a subclass of int, and int() would also
    # take 7.9 or "12".
    if type(master_seed) is not int:
        raise ValueError(f"model 'master_seed' {master_seed!r} is not an integer")
    entries = header.get("members")
    if not isinstance(entries, list):
        raise ValueError("model file has no 'members' list")
    listing = header.get("preprocess")
    if not isinstance(listing, list) or not all(map(_is_listed_tensor, listing)):
        raise ValueError("model 'preprocess' is not a list of [name, shape] pairs")
    members = []
    offset = end + 1
    for i, entry in enumerate(entries):
        spec_doc, tags, tensors = (_member_field(entry, key, i) for key in
                                   ("spec", "optimizer_tags", "tensors"))
        if not isinstance(tags, dict):
            raise ValueError(f"model member {i} 'optimizer_tags' is not an object")
        try:
            spec = NetworkSpec(**spec_doc)
        except (ConfigError, TypeError) as exc:
            # A bad spec in a model file is bad input, not a bad run
            # configuration; an unknown or missing key raises TypeError.
            raise ValueError(f"model member {i} spec: {exc}") from None
        net = build_network(spec, None)
        items = _tensors(net)
        if not isinstance(tensors, list) or len(tensors) != len(items):
            raise ValueError(f"model member {i} 'tensors' is not a list of its network's "
                             f"{len(items)} tensors")
        for listed, (name, arr) in zip(tensors, items):
            if listed != [name, list(arr.shape)]:
                raise ShapeError(f"model member {i} tensor {listed!r} is not the network's "
                                 f"{[name, list(arr.shape)]!r}")
            arr[...] = _read_tensor(raw, offset, arr.shape, f"member {i} tensor {name!r}")
            offset += arr.nbytes
        net.optimizer_tags = dict(tags)
        members.append(net)
    preprocess = []
    for name, shape in listing:
        arr = _read_tensor(raw, offset, shape, f"preprocess tensor {name!r}").copy()
        preprocess.append((name, arr))
        offset += arr.nbytes
    if offset != len(raw):
        raise ValueError(f"model file holds {len(raw) - offset} bytes after its last tensor")
    return EnsembleModel(members, master_seed=master_seed), preprocess
