"""Ensemble construction, score fusion and model serialization.

Members train independently on the same data, each seeded from its own
deterministic stream split off the master seed; prediction fuses member
confidences by the average rule. A trained ensemble round-trips through a
self-describing JSON container that is byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .network import Network, NetworkSpec, build_network
from .numerics import RngStream, ShapeError, as_tensor
from .training import (TrainConfig, assign_optimizers_fixed,
                       assign_optimizers_stochastic, train_network)

MODEL_FORMAT = "mlenn-ensemble v1"


@dataclass
class EnsembleMember:
    network: Network
    optimizer_tags: dict
    loss_trace: list = field(default_factory=list)


@dataclass
class EnsembleModel:
    members: list
    fusion: str = "average"
    external_weight: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        labels = {m.network.spec.n_labels for m in self.members}
        if len(labels) > 1:
            raise ShapeError(f"members disagree on label count: {sorted(labels)}")
        if self.fusion != "average":
            raise ValueError(f"unknown fusion rule {self.fusion!r}")

    @property
    def n_labels(self) -> int:
        return self.members[0].network.spec.n_labels

    def predict_scores(self, features) -> np.ndarray:
        """Average-rule fusion of all member confidence matrices."""
        return fuse_average([m.network.forward(features) for m in self.members])


def train_ensemble(specs: list, x, y, cfg: TrainConfig, seed,
                   members_per_spec: int = 10,
                   optimizer_policy: str = "stochastic",
                   sample_weights=None) -> EnsembleModel:
    """Build and train ``members_per_spec`` networks per spec.

    ``optimizer_policy`` is either ``"stochastic"`` (one variant drawn per
    layer per member) or the name of a fixed variant. ``seed`` may be an
    integer or an already-derived RngStream; member i draws all of its
    randomness from child stream i.
    """
    master = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    members: list[EnsembleMember] = []
    index = 0
    for spec in specs:
        for _ in range(members_per_spec):
            member_rng = master.child(index)
            net = build_network(spec, member_rng.child(0))
            if optimizer_policy == "stochastic":
                tags = assign_optimizers_stochastic(net, member_rng.child(1))
            else:
                tags = assign_optimizers_fixed(net, optimizer_policy)
            trace = train_network(net, x, y, cfg, member_rng.child(2),
                                  optimizer_tags=tags, sample_weights=sample_weights)
            members.append(EnsembleMember(net, tags, trace))
            index += 1
    return EnsembleModel(members, master_seed=master.seed)


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


def _array_payload(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def ensemble_to_dict(model: EnsembleModel) -> dict:
    members = []
    for m in model.members:
        members.append({
            "spec": asdict(m.network.spec),
            "optimizer_tags": dict(m.optimizer_tags),
            "params": {key: _array_payload(arr) for key, arr in m.network.param_items()},
            "buffers": {key: _array_payload(arr) for key, arr in m.network.state_items()},
        })
    return {
        "format": MODEL_FORMAT,
        "master_seed": model.master_seed,
        "fusion": model.fusion,
        "external_weight": model.external_weight,
        "members": members,
    }


def _load_arrays(payloads: dict, items: list, what: str) -> None:
    names = {key for key, _ in items}
    if names != set(payloads):
        raise ValueError(f"{what} names do not match the network's layer graph")
    for key, arr in items:
        payload = payloads[key]
        data = np.asarray(payload["data"], dtype=np.float64)
        if list(arr.shape) != list(payload["shape"]) or data.size != arr.size:
            raise ShapeError(f"{what} {key!r} has shape {payload['shape']}, expected {list(arr.shape)}")
        arr[...] = data.reshape(arr.shape)


def ensemble_from_dict(doc: dict) -> EnsembleModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    members = []
    for entry in doc["members"]:
        spec = NetworkSpec(**entry["spec"])
        net = build_network(spec, RngStream(0))
        _load_arrays(entry["params"], net.param_items(), "parameter")
        _load_arrays(entry["buffers"], net.state_items(), "buffer")
        members.append(EnsembleMember(net, dict(entry["optimizer_tags"])))
    return EnsembleModel(members,
                         fusion=doc.get("fusion", "average"),
                         external_weight=float(doc.get("external_weight", 0.0)),
                         master_seed=int(doc.get("master_seed", 0)))


def save_ensemble(model: EnsembleModel, path, extra: dict | None = None) -> None:
    """Write the container; ``extra`` adds top-level keys beside the model.

    The document is one line with sorted keys. ``json.dumps`` without
    ``indent`` runs the C encoder; ``json.dump`` and any ``indent`` run the
    pure-Python one, which takes about twice as long on a large model.
    """
    doc = ensemble_to_dict(model)
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def load_ensemble(path) -> tuple[EnsembleModel, dict]:
    """Read a container written by save_ensemble; returns the model and the
    ``extra`` keys that were saved beside it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = ensemble_from_dict(doc)
    container = ("format", "master_seed", "fusion", "external_weight", "members")
    return model, {key: value for key, value in doc.items() if key not in container}
