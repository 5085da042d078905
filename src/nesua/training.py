"""Unsupervised training of the attention model on generated scenarios.

The loss is the differentiable network power plus two regularizers: one
pushing every association row toward a one-hot corner, one penalizing
uneven PRB concentration. Training steps one instance at a time; an
epoch is one shuffled pass over the training split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import gat as gat_mod
from .errors import ConfigError, ContractError, TrainingDiverged
from .power import PowerParams, network_power_soft
from .scenario import (
    FeatureStats,
    GraphInstance,
    Scenario,
    ScenarioConfig,
    build_graph,
    feature_stats,
    iter_scenarios,
    normalize_features,
)


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 1.0  # weight of the one-hot pressure term
    lambda2: float = 1.0  # weight of the PRB concentration term

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TrainConfig:
    dataset_size: int = 10000
    split_fraction: float = 0.8
    epochs: int = 5000
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    shuffle_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.dataset_size < 2:
            raise ConfigError(f"dataset_size must be >= 2, got {self.dataset_size}")


def loss(
    s: ad.Tensor,
    prb: np.ndarray,
    params: PowerParams,
    lc: LossConfig,
    n_prb_total: int,
) -> ad.Tensor:
    """Soft network power + lambda1*(K - Tr(S S^T)) + lambda2*|p_hat|_2.

    Three autodiff nodes: the power (`network_power_soft`), the penalties
    with a positive weight (`autodiff.association_penalties`) and their
    sum (`autodiff.add_terms`), which adds the terms to the power in that
    order.
    """
    total = network_power_soft(s, prb, params, n_prb_total)
    if lc.lambda1 > 0.0 or lc.lambda2 > 0.0:
        prb = np.asarray(prb, dtype=np.float64)
        penalties = ad.association_penalties(s, prb, lc.lambda1, lc.lambda2)
        total = ad.add_terms(total, penalties)
    return total


@dataclass(frozen=True)
class Sample:
    """One dataset element: the realization and its graph view."""

    scenario: Scenario
    graph: GraphInstance


def split_and_normalize(
    pairs: list[Sample], split: float, seed: int
) -> tuple[list[Sample], list[Sample], FeatureStats]:
    """Shuffle, split, and z-score samples; statistics come from the
    training split alone and are applied to both splits."""
    size = len(pairs)
    if size < 2:
        raise ContractError(f"dataset size must be >= 2, got {size}")
    if not 0.0 < split < 1.0:
        raise ContractError(f"split must be in (0, 1), got {split}")
    order = np.random.default_rng(seed).permutation(size)
    n_train = min(max(int(size * split), 1), size - 1)
    train_raw = [pairs[i] for i in order[:n_train]]
    test_raw = [pairs[i] for i in order[n_train:]]
    stats = feature_stats([p.graph for p in train_raw])
    train = [
        Sample(p.scenario, normalize_features(p.graph, stats)) for p in train_raw
    ]
    test = [Sample(p.scenario, normalize_features(p.graph, stats)) for p in test_raw]
    return train, test, stats


def prepare_dataset(
    cfg: ScenarioConfig, size: int, split: float, seed: int
) -> tuple[list[Sample], list[Sample], FeatureStats]:
    """Generate, shuffle, split, and normalize a scenario dataset."""
    if size < 2:
        raise ContractError(f"dataset size must be >= 2, got {size}")
    pairs = [
        Sample(scenario=s, graph=build_graph(s, cfg.gamma_th_db))
        for s in iter_scenarios(cfg, range(seed, seed + size))
    ]
    return split_and_normalize(pairs, split, seed)


@dataclass
class TrainResult:
    model: gat_mod.GatModel         # parameters after the last epoch
    best_model: gat_mod.GatModel    # lowest mean test loss seen
    best_epoch: int
    adam_state: ad.AdamState
    history: list = field(default_factory=list)  # (epoch, train, test, lr) rows


def clone_model(model: gat_mod.GatModel) -> gat_mod.GatModel:
    """An independent model: one copy of the packed buffer."""
    return replace(model, flat=ad.Tensor(model.flat.values.copy()))


def _mean_loss(
    instances, model, lc: LossConfig, params: PowerParams
) -> float:
    values = []
    for g in instances:
        s = gat_mod.forward(g, model)
        values.append(
            loss(ad.constant(s.values), g.prb_matrix, params, lc, g.n_prb_total).item()
        )
    return float(np.mean(values)) if values else math.nan


def train(
    dataset: list[GraphInstance],
    tc: TrainConfig,
    lc: LossConfig,
    params: PowerParams,
    seed: int,
    gat_cfg: gat_mod.GatConfig | None = None,
    test: list[GraphInstance] | None = None,
    model: gat_mod.GatModel | None = None,
    adam_state: ad.AdamState | None = None,
    start_epoch: int = 0,
) -> TrainResult:
    """Optimize a model over the dataset; deterministic for fixed seeds.

    When test is None the dataset is split internally by split_fraction.
    Passing model/adam_state/start_epoch resumes a prior run: the
    per-epoch shuffle is keyed by (shuffle_seed, epoch), so a resumed run
    walks the same instance order an uninterrupted run would.

    Everything a step updates is laid out by the one parameter table
    (`gat.param_shapes`): each step runs one `adam_step` over the model's
    packed buffer (`GatModel.flat`), a gradient buffer of the same layout
    that the parameters' gradients land in (`autodiff.attach_grad_slots`,
    released when training ends) and adam_state's two moment buffers. It
    checks first that every parameter got a gradient: a parameter without
    one would be updated from its slot's stale contents, so that raises
    ContractError naming it. The model and adam_state passed in are the
    ones updated, in place.
    """
    if not dataset:
        raise ContractError("training dataset is empty")
    if test is None:
        order = np.random.default_rng(tc.shuffle_seed).permutation(len(dataset))
        n_train = min(max(int(len(dataset) * tc.split_fraction), 1), len(dataset) - 1)
        if len(dataset) == 1:
            train_set, test_set = [dataset[0]], []
        else:
            train_set = [dataset[i] for i in order[:n_train]]
            test_set = [dataset[i] for i in order[n_train:]]
    else:
        train_set, test_set = list(dataset), list(test)

    widths = {g.prb_matrix.shape[1] for g in train_set + test_set}
    if len(widths) != 1:
        raise ContractError(f"instances disagree on cell count: {sorted(widths)}")

    if model is None:
        gat_cfg = gat_cfg or gat_mod.GatConfig()
        model = gat_mod.init_model(
            train_set[0].features.shape[1], widths.pop(), gat_cfg, seed
        )
    if adam_state is None:
        adam_state = ad.AdamState.for_params(
            model.flat, lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2
        )

    history = []
    best_model = clone_model(model)
    best_epoch = start_epoch
    best_test = math.inf
    parameters = list(model.params.values())
    flat_grad = ad.attach_grad_slots(parameters)

    for epoch in range(start_epoch + 1, tc.epochs + 1):
        perm = np.random.default_rng([tc.shuffle_seed, epoch]).permutation(
            len(train_set)
        )
        epoch_losses = []
        for i in perm:
            g = train_set[int(i)]
            s = gat_mod.forward(g, model)
            value = loss(s, g.prb_matrix, params, lc, g.n_prb_total)
            if not math.isfinite(value.item()):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, instance {int(i)}"
                )
            ad.backward(value)
            missing = [name for name, p in model.params.items() if p.grad is None]
            if missing:
                raise ContractError(
                    f"no gradient reached {', '.join(missing)} at epoch "
                    f"{epoch}, instance {int(i)}"
                )
            ad.adam_step(model.flat, flat_grad, adam_state)
            ad.zero_grad(parameters)
            epoch_losses.append(value.item())

        mean_train = float(np.mean(epoch_losses))
        mean_test = _mean_loss(test_set, model, lc, params)
        history.append((epoch, mean_train, mean_test, tc.lr))

        selector = mean_test if test_set else mean_train
        if selector < best_test:
            best_test = selector
            best_model = clone_model(model)
            best_epoch = epoch
    for p in parameters:
        p.grad_slot = None  # releases the gradient buffer

    return TrainResult(
        model=model,
        best_model=best_model,
        best_epoch=best_epoch,
        adam_state=adam_state,
        history=history,
    )


def write_history(path, history):
    """Per-epoch comma-separated rows under a fixed header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_train_loss,mean_test_loss,lr\n")
        for epoch, tr, te, lr in history:
            fh.write(f"{epoch},{tr!r},{te!r},{lr!r}\n")
