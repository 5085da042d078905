"""Two-layer graph attention network with a per-node softmax readout.

Each layer transforms its input features once, hw = h @ W.T
(`autodiff.linear`), then runs one `autodiff.attention_round` over them:
score every node pair from a shared attention vector over hw, normalize
the scores over the adjacency neighborhood (self-loops included), mix the
same hw with those weights and apply the nonlinearity. The readout maps
final embeddings to one soft association row per UE on the cell simplex
with one `autodiff.softmax_readout`. A forward pass is therefore five
autodiff nodes, each with one backward rule.

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
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import autodiff as ad
from .baselines import HardAssociation
from .codec import decode_packed, encode_array, write_json
from .errors import ConfigError, ShapeError
from .scenario import GraphInstance

PARAM_NAMES = ("gat1.W", "gat1.a", "gat2.W", "gat2.a", "readout.Q", "readout.B")

# activation name -> whether it is relu, the flag the fused nodes take
_ACTIVATIONS = {"relu": True, "identity": False}


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
    update of `flat.values` is an update of every parameter. A caller
    whose parameters already are, in order, the views of one fresh 1-D
    buffer (`load_checkpoint`) passes it as `packed`, and it is adopted
    without a copy.
    """

    layer1: GatLayerParams
    layer2: GatLayerParams
    readout_q: ad.Tensor  # (hidden, n_cells)
    readout_b: ad.Tensor  # (n_cells,)
    config: GatConfig
    feat_dim: int
    n_cells: int
    packed: InitVar[np.ndarray | None] = None
    flat: ad.Tensor = field(init=False, repr=False, compare=False)

    def __post_init__(self, packed):
        if packed is None:
            self.flat = ad.pack_parameters(self.parameters())
        else:
            self.flat = ad.Tensor(packed)

    def parameters(self) -> list[ad.Tensor]:
        return [
            self.layer1.w, self.layer1.a,
            self.layer2.w, self.layer2.a,
            self.readout_q, self.readout_b,
        ]

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return dict(zip(PARAM_NAMES, self.parameters()))


def _assemble(arrays, cfg: GatConfig, feat_dim: int, n_cells: int, packed=None) -> GatModel:
    """The model whose parameters, in PARAM_NAMES order, hold `arrays`;
    with `packed` given, the arrays are its views and the model adopts it."""
    w1, a1, w2, a2, q, b = (ad.parameter(x) for x in arrays)
    slope = cfg.negative_slope
    return GatModel(
        GatLayerParams(w1, a1, slope), GatLayerParams(w2, a2, slope), q, b,
        config=cfg, feat_dim=feat_dim, n_cells=n_cells, packed=packed,
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


def _is_relu(activation: str) -> bool:
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    return _ACTIVATIONS[activation]


def gat_layer(
    h: ad.Tensor, adjacency, layer: GatLayerParams, activation: str = "relu"
) -> ad.Tensor:
    """One attention round: transform h once (`_transformed`), then score
    the transformed features, mix them with the normalized attention
    weights and apply the nonlinearity in one `autodiff.attention_round`.
    Both uses share the one transform node, so its gradient reaches W as a
    single summed product."""
    hw = _transformed(h, layer)
    return ad.attention_round(
        hw, layer.a, adjacency, layer.negative_slope, _is_relu(activation)
    )


def readout(h_final: ad.Tensor, model: GatModel) -> ad.Tensor:
    """Per-node soft association over cells: the row softmax of
    act(h_final @ Q + B), one `autodiff.softmax_readout`."""
    if model.readout_q.shape[1:] != (model.n_cells,):
        raise ShapeError(
            f"readout weights {model.readout_q.shape} do not map to "
            f"{model.n_cells} cells"
        )
    return ad.softmax_readout(
        h_final, model.readout_q, model.readout_b,
        _is_relu(model.config.readout_activation),
    )


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
    architecture under "gat", and the keys of `extra` stored as given.

    The bytes are those of `json.dump(doc, fh)` and a newline;
    `codec.write_json` writes them, each parameter's base64 text, and
    that of every deferred payload in `extra` (the Adam moments of
    `AdamState.to_dict(deferred=True)`), straight to the file.
    """
    doc = {
        "params": [
            {"name": name, **encode_array(t.values, deferred=True)}
            for name, t in model.named_parameters().items()
        ],
        "gat": {
            **model.config.to_dict(),
            "feat_dim": model.feat_dim,
            "n_cells": model.n_cells,
        },
    }
    doc.update(extra or {})
    write_json(path, doc)


def load_checkpoint(path) -> tuple[GatModel, dict]:
    """Rebuild the model; everything beyond params and gat keys is passed
    back untouched. The parameters are decoded straight into the views of
    the model's packed buffer (`codec.decode_packed`).

    A file that is not JSON, lacks a key, holds a malformed, non-float64
    or old-style decimal-list parameter, or misses a parameter raises
    ConfigError naming the file. A file that cannot be opened raises
    OSError.
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
        by_name = {entry["name"]: entry for entry in doc["params"]}
        feat_dim, n_cells = meta["feat_dim"], meta["n_cells"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from None
    missing = [n for n in PARAM_NAMES if n not in by_name]
    if missing:
        raise ConfigError(f"checkpoint {path} lacks parameters: {missing}")
    try:
        flat, views = decode_packed([by_name[n] for n in PARAM_NAMES])
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc!r}") from None
    model = _assemble(views, cfg, feat_dim, n_cells, packed=flat)
    leftover = {k: v for k, v in doc.items() if k not in ("params", "gat")}
    return model, leftover
