"""Two-layer graph attention network with a per-node softmax readout.

Each layer transforms its input features once, hw = h @ W.T
(`autodiff.linear`), then runs one `autodiff.attention_round` over them:
score every node pair from a shared attention vector over hw, normalize
the scores over the adjacency neighborhood (self-loops included), mix the
same hw with those weights and apply the nonlinearity. The readout maps
final embeddings to one soft association row per UE on the cell simplex
with one `autodiff.softmax_readout`. A forward pass is plain numpy; given
a list `saved`, each of its five ops appends the record its backward rule
reads, for `autodiff.backward`. The same `forward` scores a stacked
`GraphInstance`, one soft association per instance, each with the bits of
the instance's own pass; only a single instance can be recorded.

One table lays out the parameters: `param_shapes(feat_dim, n_cells, cfg)`
maps each of the six names, in order, to its shape. A model is its
config, its sizes and one C-ordered float64 buffer, `GatModel.flat`,
which holds the parameters back to back in table order; `GatModel.params`
maps each name to its view of that buffer, and only `GatModel` builds it.
`init_model` packs its draws into the buffer, `load_checkpoint` decodes a
checkpoint into it after checking every entry against the table, and
`training.clone_model` copies it. While `training.train` runs, the
gradients land in one gradient buffer of the same layout, and Adam's
moments are two more.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .codec import decode_packed, encode_array, write_json
from .errors import ConfigError, ShapeError
from .scenario import GraphInstance

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


def param_shapes(feat_dim: int, n_cells: int, cfg: GatConfig) -> dict[str, tuple]:
    """The parameter table: each name, in layout order, with its shape.
    Each layer has a transform W (d_out x d_in) and a scorer a (2 d_out);
    the readout maps hidden features to cell logits, Q @ h + B."""
    h = cfg.hidden_dim
    return {
        "gat1.W": (h, feat_dim),
        "gat1.a": (2 * h,),
        "gat2.W": (h, h),
        "gat2.a": (2 * h,),
        "readout.Q": (h, n_cells),
        "readout.B": (n_cells,),
    }


def check_shapes(entries: list, table: dict, where: str) -> list:
    """The array entries `entries` in table order. Raises ConfigError
    naming `where` and the parameter unless each is an object naming one
    of the table's parameters, each once, with its shape."""
    names = [entry.get("name") if isinstance(entry, dict) else None for entry in entries]
    for name, entry in zip(names, entries):
        if not isinstance(name, str) or name not in table:
            raise ConfigError(f"{where} holds a parameter {name!r} the model does not have")
        if names.count(name) > 1:
            raise ConfigError(f"{where} holds {name} {names.count(name)} times")
        if entry.get("shape") != list(table[name]):
            raise ConfigError(
                f"{where}: {name} is shaped {entry.get('shape')}, the model's {list(table[name])}"
            )
    missing = [name for name in table if name not in names]
    if missing:
        raise ConfigError(f"{where} lacks parameters: {missing}")
    return [entries[names.index(name)] for name in table]


@dataclass(eq=False)
class GatModel:
    """The parameters of one architecture, packed in one buffer.

    `flat` holds them back to back in `param_shapes` order, and `params`
    maps each name to its view of `flat`, so an in-place update of `flat`
    is an update of every one.
    """

    config: GatConfig
    feat_dim: int
    n_cells: int
    flat: np.ndarray = field(repr=False)
    params: dict = field(init=False, repr=False)

    def __post_init__(self):
        table = param_shapes(self.feat_dim, self.n_cells, self.config)
        self.params = dict(zip(table, ad.unpack(self.flat, table.values())))


def init_model(feat_dim: int, n_cells: int, cfg: GatConfig, seed: int) -> GatModel:
    """Seed-controlled uniform init in +-sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    h = cfg.hidden_dim
    table = param_shapes(feat_dim, n_cells, cfg)

    def uniform(name, fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=table[name])

    arrays = [
        uniform("gat1.W", feat_dim, h),
        uniform("gat1.a", 2 * h, 1),
        uniform("gat2.W", h, h),
        uniform("gat2.a", 2 * h, 1),
        uniform("readout.Q", h, n_cells),
        np.zeros(table["readout.B"]),
    ]
    return GatModel(cfg, feat_dim, n_cells, ad.pack(arrays))


def _is_relu(activation: str) -> bool:
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    return _ACTIVATIONS[activation]


def gat_layer(h, adjacency, w, a, negative_slope: float, activation: str = "relu",
              saved=None):
    """One attention round: transform h once (`autodiff.linear`), then
    score the transformed features, mix them with the normalized attention
    weights and apply the nonlinearity in one `autodiff.attention_round`.
    Both uses share the one transform, so its gradient reaches W as a
    single summed product."""
    hw = ad.linear(h, w, saved)
    return ad.attention_round(hw, a, adjacency, negative_slope, _is_relu(activation), saved)


def readout(h_final, model: GatModel, saved=None):
    """Per-node soft association over cells: the row softmax of
    act(h_final @ Q + B), one `autodiff.softmax_readout`."""
    return ad.softmax_readout(
        h_final, model.params["readout.Q"], model.params["readout.B"],
        _is_relu(model.config.readout_activation), saved,
    )


def forward(g: GraphInstance, model: GatModel, saved=None) -> np.ndarray:
    """Soft association matrix S (K, N) for one graph instance, or S
    (B, K, N) for a stacked one. With a list `saved`, the records of its
    five ops are appended to it."""
    if g.features.shape[-1] != model.feat_dim:
        raise ShapeError(
            f"feature width {g.features.shape[-1]} vs model "
            f"width {model.feat_dim}"
        )
    p, cfg = model.params, model.config
    h = g.features
    for layer in ("gat1", "gat2"):
        h = gat_layer(
            h, g.adjacency, p[f"{layer}.W"], p[f"{layer}.a"], cfg.negative_slope,
            cfg.activation, saved,
        )
    return readout(h, model, saved)


def harden(s) -> np.ndarray:
    """Per-row argmax of the soft association, one cell index per UE, (K,)
    for one instance or (B, K) for a stack; ties to the lowest index."""
    return np.argmax(np.asarray(s), axis=-1)


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
            {"name": name, **encode_array(view, deferred=True)}
            for name, view in model.params.items()
        ],
        "gat": {
            **asdict(model.config),
            "feat_dim": model.feat_dim,
            "n_cells": model.n_cells,
        },
    }
    doc.update(extra or {})
    write_json(path, doc)


def load_checkpoint(path) -> tuple[GatModel, dict]:
    """Rebuild the model; everything beyond params and gat keys is passed
    back untouched. The parameters are decoded straight into the model's
    packed buffer (`codec.decode_packed`).

    The file is read by the `config.CHECKPOINT` table, and its `params`
    must be finite float64 arrays laid out by the table of its `gat`
    section (`check_shapes`), or ConfigError names the file and the key.
    A file that cannot be opened raises OSError.
    """
    from .config import CHECKPOINT, read_artifact, read_json  # config imports this module

    where = f"checkpoint {path}"
    doc = read_json(path, where)
    arch = read_artifact(doc, CHECKPOINT, where)["gat"]
    cfg, sizes = arch["config"], (arch["feat_dim"], arch["n_cells"])
    entries = check_shapes(doc["params"], param_shapes(*sizes, cfg), f"{where}: params")
    model = GatModel(cfg, *sizes, decode_packed(entries, f"{where}: params"))
    leftover = {k: v for k, v in doc.items() if k not in ("params", "gat")}
    return model, leftover
