"""Two-layer graph attention network with a per-node softmax readout.

Each layer transforms its input features once, hw = h @ W.T, scores
every node pair from a shared attention vector over hw, normalizes the
scores over the adjacency neighborhood (self-loops included), and mixes
the same hw with those weights. The readout maps final embeddings to one
soft association row per UE on the cell simplex.

A model's six parameters are views of one C-ordered float64 buffer,
`GatModel.flat`, in `PARAM_NAMES` order. `GatModel` packs them when it
is built (`autodiff.pack_parameters`), so every way of making a model,
`init_model`, `load_checkpoint`, `training.clone_model` or explicit
`GatLayerParams`, goes through that one place. While `training.train`
runs, their first gradients of a backward pass land in the matching
views of one gradient buffer of the same layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .baselines import HardAssociation
from .codec import decode_array, encode_array
from .errors import ConfigError, ShapeError
from .scenario import GraphInstance

PARAM_NAMES = ("gat1.W", "gat1.a", "gat2.W", "gat2.a", "readout.Q", "readout.B")

_ACTIVATIONS = {
    "relu": ad.relu,
    "identity": lambda t: t,
}


@dataclass(frozen=True)
class GatConfig:
    """Architecture knobs; defaults give the full-size model."""

    hidden_dim: int = 512
    negative_slope: float = 0.2
    activation: str = "relu"
    readout_activation: str = "relu"

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.negative_slope < 0:
            raise ConfigError(f"negative_slope must be >= 0, got {self.negative_slope}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.readout_activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown readout_activation {self.readout_activation!r}")

    def to_dict(self):
        return {
            "hidden_dim": self.hidden_dim,
            "negative_slope": self.negative_slope,
            "activation": self.activation,
            "readout_activation": self.readout_activation,
        }


@dataclass
class GatLayerParams:
    """One attention layer: transform W (d_out x d_in), scorer a (2 d_out)."""

    w: ad.Tensor
    a: ad.Tensor
    negative_slope: float


@dataclass
class GatModel:
    """The attention layers and the readout over one packed buffer.

    Building a model copies the given parameters' values into `flat` and
    rebinds each parameter's `values` to its view of it. An in-place
    update of `flat.values` is an update of every parameter.
    """

    layer1: GatLayerParams
    layer2: GatLayerParams
    readout_q: ad.Tensor  # (hidden, n_cells)
    readout_b: ad.Tensor  # (n_cells,)
    config: GatConfig
    feat_dim: int
    n_cells: int
    flat: ad.Tensor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = ad.pack_parameters(self.parameters())

    def parameters(self) -> list[ad.Tensor]:
        return [
            self.layer1.w, self.layer1.a,
            self.layer2.w, self.layer2.a,
            self.readout_q, self.readout_b,
        ]

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return dict(zip(PARAM_NAMES, self.parameters()))


def _assemble(arrays, cfg: GatConfig, feat_dim: int, n_cells: int) -> GatModel:
    """The model whose parameters, in PARAM_NAMES order, hold `arrays`."""
    w1, a1, w2, a2, q, b = (ad.parameter(x) for x in arrays)
    slope = cfg.negative_slope
    return GatModel(
        GatLayerParams(w1, a1, slope), GatLayerParams(w2, a2, slope), q, b,
        config=cfg, feat_dim=feat_dim, n_cells=n_cells,
    )


def init_model(feat_dim: int, n_cells: int, cfg: GatConfig, seed: int) -> GatModel:
    """Seed-controlled uniform init in +-sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    h = cfg.hidden_dim

    def uniform(shape, fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=shape)

    arrays = [
        uniform((h, feat_dim), feat_dim, h),
        uniform((2 * h,), 2 * h, 1),
        uniform((h, h), h, h),
        uniform((2 * h,), 2 * h, 1),
        uniform((h, n_cells), h, n_cells),
        np.zeros(n_cells),
    ]
    return _assemble(arrays, cfg, feat_dim, n_cells)


def _transformed(h: ad.Tensor, layer: GatLayerParams) -> ad.Tensor:
    return ad.linear(h, layer.w)


def attention_scores(hw: ad.Tensor, layer: GatLayerParams) -> ad.Tensor:
    """Pairwise scores rho(u,v) for all node pairs from the layer's
    transformed features hw = h @ W.T (`_transformed`).

    The scorer splits into a source and a destination half, so the K*K
    pair matrix is a broadcast sum of two length-K projections instead of
    K^2 concatenations.
    """
    k, d = hw.shape
    if layer.a.shape != (2 * d,):
        raise ShapeError(
            f"attention vector {layer.a.shape} does not fit width {d}"
        )
    src = ad.matmul(hw, ad.slice_rows(layer.a, 0, d))
    dst = ad.matmul(hw, ad.slice_rows(layer.a, d, 2 * d))
    pair = ad.add(ad.reshape(src, (k, 1)), ad.reshape(dst, (1, k)))
    return ad.leaky_relu(pair, layer.negative_slope)


def attention_weights(hw: ad.Tensor, adjacency, layer: GatLayerParams) -> ad.Tensor:
    """Scores of the transformed features hw normalized over each node's
    neighborhood; zero off-edges."""
    return ad.row_softmax_masked(attention_scores(hw, layer), adjacency)


def gat_layer(
    h: ad.Tensor, adjacency, layer: GatLayerParams, activation: str = "relu"
) -> ad.Tensor:
    """One attention round: transform h once, score the transformed
    features and mix them with the normalized attention weights, then
    apply the nonlinearity. Both uses share the one transform node, so its
    gradient reaches W as a single summed product."""
    hw = _transformed(h, layer)
    att = attention_weights(hw, adjacency, layer)
    mixed = ad.matmul(att, hw)
    return _ACTIVATIONS[activation](mixed)


def readout(h_final: ad.Tensor, model: GatModel) -> ad.Tensor:
    """Per-node soft association over cells."""
    logits = ad.add(ad.matmul(h_final, model.readout_q), model.readout_b)
    logits = _ACTIVATIONS[model.config.readout_activation](logits)
    k = h_final.shape[0]
    return ad.row_softmax_masked(logits, np.ones((k, model.n_cells)))


def forward(g: GraphInstance, model: GatModel) -> ad.Tensor:
    """Soft association matrix S for one graph instance."""
    if g.features.shape[1] != model.feat_dim:
        raise ShapeError(
            f"feature width {g.features.shape[1]} vs model "
            f"width {model.feat_dim}"
        )
    h0 = ad.constant(g.features)
    h1 = gat_layer(h0, g.adjacency, model.layer1, model.config.activation)
    h2 = gat_layer(h1, g.adjacency, model.layer2, model.config.activation)
    return readout(h2, model)


def harden(s) -> HardAssociation:
    """Per-row argmax of the soft association; ties to the lowest index."""
    values = s.values if isinstance(s, ad.Tensor) else np.asarray(s)
    return HardAssociation(
        assignment=np.argmax(values, axis=1), n_cells=values.shape[1]
    )


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, model: GatModel, extra: dict | None = None):
    """Write one JSON document: the named parameters, each encoded exactly
    by `codec.encode_array` as {"name", "dtype", "shape", "b64"}, the
    architecture under "gat", and the keys of `extra` stored as given."""
    doc = {
        "params": [
            {"name": name, **encode_array(t.values)}
            for name, t in model.named_parameters().items()
        ],
        "gat": {
            **model.config.to_dict(),
            "feat_dim": model.feat_dim,
            "n_cells": model.n_cells,
        },
    }
    for key, value in (extra or {}).items():
        doc[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[GatModel, dict]:
    """Rebuild the model; everything beyond params and gat keys is passed
    back untouched.

    A file that is not JSON, lacks a key, holds a malformed or old-style
    decimal-list parameter, or misses a parameter raises ConfigError
    naming the file. A file that cannot be opened raises OSError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        meta = doc["gat"]
        cfg = GatConfig(
            hidden_dim=meta["hidden_dim"],
            negative_slope=meta["negative_slope"],
            activation=meta["activation"],
            readout_activation=meta["readout_activation"],
        )
        by_name = {entry["name"]: decode_array(entry) for entry in doc["params"]}
        feat_dim, n_cells = meta["feat_dim"], meta["n_cells"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from None
    missing = [n for n in PARAM_NAMES if n not in by_name]
    if missing:
        raise ConfigError(f"checkpoint {path} lacks parameters: {missing}")
    model = _assemble([by_name[n] for n in PARAM_NAMES], cfg, feat_dim, n_cells)
    leftover = {k: v for k, v in doc.items() if k not in ("params", "gat")}
    return model, leftover
