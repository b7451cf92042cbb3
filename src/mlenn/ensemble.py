"""Member training, score fusion and model serialization.

``train_member`` trains one (topology, member) unit from the stream it is
given; ``mlenn.harness`` owns the member loop, the unit streams and the
training set. Prediction fuses member confidences by the average rule,
``SCORE_ROWS`` rows at a time. A trained ensemble round-trips through a
self-describing JSON container that is byte-stable for a fixed seed. Each
tensor in it is its shape and the base64 text of its little-endian float64
bytes, so the round trip is bit-exact. The file's bytes are those of
``json.dumps(doc, sort_keys=True)``, produced by the standard encoder's
``iterencode``, which holds one tensor's base64 text at a time. The loader
keeps the file's bytes referenced until the parse has ended, so that glibc
maps each tensor's base64 text apart and unmaps it when it is freed,
instead of leaving it on the heap under the model's arrays (see
``load_ensemble``). The bytes are decoded as strict UTF-8.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import asdict, dataclass

import numpy as np

from .network import Network, NetworkSpec, build_network
from .numerics import ConfigError, RngStream, ShapeError, as_tensor
from .training import TrainConfig, assign_optimizers, train_network

MODEL_FORMAT = "mlenn-ensemble v2"
# Rows per scoring forward: the training minibatch. Fusion is element-wise,
# so a chunk's fused scores are the bits of its rows in one whole fusion,
# and a forward's memory does not grow with the file.
SCORE_ROWS = 30


@dataclass
class EnsembleMember:
    network: Network
    optimizer_tags: dict


@dataclass
class EnsembleModel:
    members: list
    master_seed: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        labels = {m.network.spec.n_labels for m in self.members}
        if len(labels) > 1:
            raise ShapeError(f"members disagree on label count: {sorted(labels)}")

    def predict_scores(self, features) -> np.ndarray:
        """Average-rule fusion of all member confidence matrices, forwarded
        and fused ``SCORE_ROWS`` rows at a time."""
        features = as_tensor(features)
        scores = np.empty((len(features), self.members[0].network.spec.n_labels))
        for start in range(0, len(features), SCORE_ROWS):
            rows = features[start:start + SCORE_ROWS]
            scores[start:start + SCORE_ROWS] = fuse_average(
                [m.network.forward(rows) for m in self.members])
        return scores


def train_member(spec: NetworkSpec, x, y, cfg: TrainConfig, rng: RngStream,
                 sample_weights=None) -> EnsembleMember:
    """Build a ``spec`` network from ``rng.child(0)``, draw its per-layer
    ``cfg.optimizer`` variants from ``rng.child(1)`` and train it on the
    weighted rows from ``rng.child(2)``."""
    net = build_network(spec, rng.child(0))
    tags = assign_optimizers(net, cfg.optimizer, rng.child(1))
    train_network(net, x, y, cfg, rng.child(2), optimizer_tags=tags,
                  sample_weights=sample_weights)
    return EnsembleMember(net, tags)


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


class _ModelEncoder(json.JSONEncoder):
    """Encodes a tensor, when the encoder reaches it, as its shape and the
    base64 text of its little-endian float64 bytes."""

    def default(self, o):
        if not isinstance(o, np.ndarray):
            return super().default(o)  # json's own TypeError
        raw = o.astype("<f8", copy=False).tobytes()
        return {"shape": list(o.shape),
                "data": binascii.b2a_base64(raw, newline=False).decode("ascii")}


def _container(model: EnsembleModel) -> dict:
    """The model document; each tensor in it is the layer's own array."""
    members = []
    for m in model.members:
        members.append({
            "spec": asdict(m.network.spec),
            "optimizer_tags": dict(m.optimizer_tags),
            "params": dict(m.network.param_items()),
            "buffers": dict(m.network.state_items()),
        })
    return {
        "format": MODEL_FORMAT,
        "master_seed": model.master_seed,
        # The container keeps the fields of the format: only the average
        # rule exists, and external scores enter at evaluation time.
        "fusion": "average",
        "external_weight": 0.0,
        "members": members,
    }


def _member_field(entry, key: str, index: int):
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"model member {index} has no {key!r} entry")
    return entry[key]


def _load_arrays(payloads, items: list, what: str) -> None:
    names = {key for key, _ in items}
    if not isinstance(payloads, dict) or names != set(payloads):
        raise ValueError(f"{what} names do not match the network's layer graph")
    for key, arr in items:
        payload = payloads[key]
        if not isinstance(payload, dict) or not {"shape", "data"} <= payload.keys():
            raise ValueError(f"{what} {key!r} needs a 'shape' and a 'data' entry")
        if payload["shape"] != list(arr.shape):
            raise ShapeError(f"{what} {key!r} has shape {payload['shape']}, expected {list(arr.shape)}")
        if not isinstance(payload["data"], str):
            raise ValueError(f"{what} {key!r} data is not a base64 string")
        try:
            raw = binascii.a2b_base64(payload["data"])
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise ValueError(f"{what} {key!r} data is not valid base64: {exc}") from None
        if len(raw) != 8 * arr.size:
            raise ShapeError(f"{what} {key!r} data holds {len(raw)} bytes, "
                             f"expected {8 * arr.size} for shape {list(arr.shape)}")
        arr[...] = np.frombuffer(raw, "<f8").reshape(arr.shape)


def ensemble_from_dict(doc: dict) -> EnsembleModel:
    """Rebuild a model from its document. A malformed document raises
    ``ValueError`` (or its subclass ``ShapeError``) naming what is wrong."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise ValueError(f"unsupported model format {found!r}")
    fusion = doc.get("fusion", "average")
    if fusion != "average":
        raise ValueError(f"unknown fusion rule {fusion!r}")
    master_seed = doc.get("master_seed", 0)
    # A JSON integer only: bool is a subclass of int, and int() would also
    # take 7.9 or "12".
    if type(master_seed) is not int:
        raise ValueError(f"model 'master_seed' {master_seed!r} is not an integer")
    entries = doc.get("members")
    if not isinstance(entries, list):
        raise ValueError("model file has no 'members' list")
    members = []
    for i, entry in enumerate(entries):
        spec_doc, params, buffers, tags = (_member_field(entry, key, i) for key in
                                           ("spec", "params", "buffers", "optimizer_tags"))
        if not isinstance(tags, dict):
            raise ValueError(f"model member {i} 'optimizer_tags' is not an object")
        try:
            spec = NetworkSpec(**spec_doc)
        except (ConfigError, TypeError) as exc:
            # A bad spec in a model file is bad input, not a bad run
            # configuration; an unknown or missing key raises TypeError.
            raise ValueError(f"model member {i} spec: {exc}") from None
        net = build_network(spec, None)
        _load_arrays(params, net.param_items(), "parameter")
        _load_arrays(buffers, net.state_items(), "buffer")
        members.append(EnsembleMember(net, dict(tags)))
    return EnsembleModel(members, master_seed=master_seed)


def save_ensemble(model: EnsembleModel, path, extra: dict | None = None) -> None:
    """Write the container; ``extra`` adds top-level keys beside the model.

    The file holds ``json.dumps(doc, sort_keys=True)`` and a newline, one
    line with sorted keys, where ``doc`` is the model document updated with
    ``extra``. Each tensor is ``{"data": ..., "shape": [...]}``, with the
    base64 text of the tensor's little-endian float64 bytes as its data.
    The bytes come chunk by chunk from the encoder's ``iterencode``, which
    builds a tensor's payload only when it reaches it, so no more than one
    tensor's bytes and their base64 text are held at once.
    """
    doc = _container(model)
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_ModelEncoder(sort_keys=True).iterencode(doc))
        fh.write("\n")


def load_ensemble(path) -> tuple[EnsembleModel, dict]:
    """Read a container written by save_ensemble; returns the model and the
    ``extra`` keys that were saved beside it."""
    # The file's bytes stay referenced until the parse has ended. A read
    # buffer freed before the parse (text-mode ``json.load``) raises
    # glibc's dynamic mmap threshold to the file's size, so every tensor's
    # base64 text then lands on the brk heap below the model's arrays, and
    # ~6.5 MB of it stays resident under the forward once it is freed.
    # ``decode`` rather than ``json.loads(raw)``, whose encoding detection
    # would accept a UTF-8 BOM and UTF-16 files.
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw.decode("utf-8"))
    del raw
    model = ensemble_from_dict(doc)
    container = ("format", "master_seed", "fusion", "external_weight", "members")
    return model, {key: value for key, value in doc.items() if key not in container}
