"""Unsupervised training of the attention model on generated scenarios.

The loss is the differentiable network power plus two regularizers: one
pushing every association row toward a one-hot corner, one penalizing
uneven PRB concentration. Training steps one instance at a time; an
epoch is one shuffled pass over the training split. A step is one
`gat.forward` and one `loss` that leave the records of their ops in a
list, one `autodiff.backward` that writes the loss gradient into the
gradient buffer, and one `autodiff.adam_step`.

A dataset is one `GraphInstance` stacked on a leading instance axis
(`build_graph` of its scenarios), and so are its splits: slices of the
one stack `split_and_normalize` shuffles and z-scores in one
`normalize_features` call. A training step views one instance of its
split; each epoch scores the test split with one `gat.forward` and one
`loss` per chunk, slices whose (chunk, K, hidden) activations fit one
Adam block (`autodiff.ADAM_BLOCK` elements, 256 KiB): 146 instances at
K=7 and hidden 32, one at K=50 and hidden 512. Stacked, each instance
gets the bits it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import gat as gat_mod
from .codec import write_table
from .errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from .power import PowerParams, network_power_soft
from .scenario import FeatureStats, GraphInstance, feature_stats, normalize_features


@dataclass(frozen=True)
class TrainConfig:
    """The run file's `train` section: the schedule, Adam's settings and
    the loss weights."""

    dataset_size: int = 10000
    split_fraction: float = 0.8
    epochs: int = 5000
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    shuffle_seed: int = 0
    lambda1: float = 1.0  # weight of the one-hot pressure term
    lambda2: float = 1.0  # weight of the PRB concentration term

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.dataset_size < 2:
            raise ConfigError(f"dataset_size must be >= 2, got {self.dataset_size}")
        if self.shuffle_seed < 0:
            raise ConfigError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


def loss(
    s: np.ndarray,
    prb: np.ndarray,
    params: PowerParams,
    tc: TrainConfig,
    n_prb_total: int,
    saved=None,
):
    """Soft network power + lambda1*(K - Tr(S S^T)) + lambda2*|p_hat|_2.

    The power (`network_power_soft`), then, with a positive weight, the
    penalties (`autodiff.association_penalties`) and their sum
    (`autodiff.add_terms`), which adds the terms to the power in that
    order, weighted by `tc.lambda1` and `tc.lambda2`. With a list `saved`,
    the records of those ops are appended to it (`autodiff.loss_backward`).
    Returns a float, or for a stacked s (B, K, N) and prb a list of the B
    instances' losses.
    """
    total = network_power_soft(s, prb, params, n_prb_total, saved)
    if tc.lambda1 > 0.0 or tc.lambda2 > 0.0:
        prb = np.asarray(prb, dtype=np.float64)
        penalties = ad.association_penalties(s, prb, tc.lambda1, tc.lambda2, saved)
        total = ad.add_terms(total, penalties, saved)
    return total.tolist() if isinstance(total, np.ndarray) else float(total)


def split_and_normalize(
    graphs: GraphInstance, split: float, seed: int
) -> tuple[GraphInstance, GraphInstance, FeatureStats]:
    """Shuffle, split, and z-score a dataset's stacked graphs (`build_graph`
    of its scenarios).

    The stack is indexed once in the order `default_rng(seed).permutation`,
    its first `n_train` instances give the statistics, and one
    `normalize_features` call applies them to the whole permuted stack.
    Returns the train and test splits, slices of that stack, and the
    statistics.
    """
    if graphs.features.ndim != 3 or len(graphs.features) < 2:
        raise ContractError(
            f"a dataset is a stack of >= 2 graphs, got features {graphs.features.shape}"
        )
    if not 0.0 < split < 1.0:
        raise ContractError(f"split must be in (0, 1), got {split}")
    size = len(graphs.features)
    shuffled = graphs[np.random.default_rng(seed).permutation(size)]
    n_train = min(max(int(size * split), 1), size - 1)
    stats = feature_stats(shuffled[:n_train])
    normalized = normalize_features(shuffled, stats)
    return normalized[:n_train], normalized[n_train:], stats


@dataclass
class TrainResult:
    model: gat_mod.GatModel         # parameters after the last epoch
    best_model: gat_mod.GatModel    # lowest mean test loss seen
    best_epoch: int
    adam_state: ad.AdamState
    history: list = field(default_factory=list)  # (epoch, train, test, lr) rows


def clone_model(model: gat_mod.GatModel) -> gat_mod.GatModel:
    """An independent model: one copy of the packed buffer."""
    return replace(model, flat=model.flat.copy())


def _test_chunks(test: GraphInstance, model: gat_mod.GatModel) -> list[GraphInstance]:
    """The test stack sliced for scoring, in order: chunks of as many
    instances as keep the (chunk, K, hidden) activations within
    `autodiff.ADAM_BLOCK` elements, and at least one. A feature width that
    is not the model's raises ShapeError."""
    if test.features.shape[-1] != model.feat_dim:
        raise ShapeError(
            f"test split: feature width {test.features.shape[-1]} vs model "
            f"width {model.feat_dim}"
        )
    size = max(1, ad.ADAM_BLOCK // (test.features.shape[-2] * model.config.hidden_dim))
    return [test[i:i + size] for i in range(0, len(test.features), size)]


def _mean_loss(chunks, model, tc: TrainConfig, params: PowerParams) -> float:
    """The mean of the per-instance losses of the stacked chunks, in
    order; nan for none."""
    values = []
    for g in chunks:
        values += loss(gat_mod.forward(g, model), g.prb_matrix, params, tc, g.n_prb_total)
    return float(np.mean(values)) if values else math.nan


def train(
    dataset: GraphInstance,
    tc: TrainConfig,
    params: PowerParams,
    seed: int,
    test: GraphInstance,
    gat_cfg: gat_mod.GatConfig | None = None,
    model: gat_mod.GatModel | None = None,
    adam_state: ad.AdamState | None = None,
    start_epoch: int = 0,
) -> TrainResult:
    """Optimize a model over the stacked dataset, scoring each epoch on the
    stacked `test` (the splits of `split_and_normalize`); deterministic
    for fixed seeds. The test stack is sliced once, before the first step
    (`_test_chunks`), so a split the model cannot score is refused before
    any training. Passing model/adam_state/start_epoch resumes a prior
    run: the per-epoch shuffle is keyed by (shuffle_seed, epoch), so a
    resumed run walks the same instance order an uninterrupted run would.

    Everything a step updates is laid out by the one parameter table
    (`gat.param_shapes`): each step runs one `adam_step` over the model's
    packed buffer (`GatModel.flat`), a gradient buffer of the same layout,
    every element of which `autodiff.backward` writes, and adam_state's
    two moment buffers. The model and adam_state passed in are the ones
    updated, in place.
    """
    if dataset.features.ndim != 3 or test.features.ndim != 3:
        raise ContractError("train takes the dataset and the test split as stacks")
    if not len(dataset.features):
        raise ContractError("training dataset is empty")
    n_cells = dataset.prb_matrix.shape[-1]
    if test.prb_matrix.shape[-1] != n_cells:
        raise ContractError(
            f"the splits disagree on cell count: {n_cells} vs {test.prb_matrix.shape[-1]}"
        )

    if model is None:
        gat_cfg = gat_cfg or gat_mod.GatConfig()
        model = gat_mod.init_model(dataset.features.shape[-1], n_cells, gat_cfg, seed)
    if adam_state is None:
        adam_state = ad.AdamState.for_params(model.flat)
    test_chunks = _test_chunks(test, model)
    steps = [dataset[i] for i in range(len(dataset.features))]

    history = []
    best_model = clone_model(model)
    best_epoch = start_epoch
    best_test = math.inf
    grad = np.empty_like(model.flat)

    for epoch in range(start_epoch + 1, tc.epochs + 1):
        perm = np.random.default_rng([tc.shuffle_seed, epoch]).permutation(
            len(steps)
        )
        epoch_losses = []
        for i in perm:
            g = steps[int(i)]
            saved = []
            s = gat_mod.forward(g, model, saved)
            value = loss(s, g.prb_matrix, params, tc, g.n_prb_total, saved)
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, instance {int(i)}"
                )
            ad.backward(saved, grad)
            ad.adam_step(model.flat, grad, adam_state, tc)
            epoch_losses.append(value)

        mean_train = float(np.mean(epoch_losses))
        mean_test = _mean_loss(test_chunks, model, tc, params)
        if test_chunks and not math.isfinite(mean_test):
            raise TrainingDiverged(f"non-finite test-split loss at epoch {epoch}")
        history.append((epoch, mean_train, mean_test, tc.lr))

        selector = mean_test if test_chunks else mean_train
        if selector < best_test:
            best_test = selector
            best_model = clone_model(model)
            best_epoch = epoch

    return TrainResult(
        model=model,
        best_model=best_model,
        best_epoch=best_epoch,
        adam_state=adam_state,
        history=history,
    )


def write_history(path, history):
    """Per-epoch (epoch, train, test, lr) rows under a fixed header."""
    write_table(path, history, ["epoch", "mean_train_loss", "mean_test_loss", "lr"])
