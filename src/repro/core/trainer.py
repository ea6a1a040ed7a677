"""Training loop for GesIDNet-style dual-head classifiers.

Implements the paper's loss: primary cross-entropy plus a weighted
auxiliary cross-entropy (SIV-C), optimised with Adam.  Also provides
k-fold splitting (the paper uses 5-fold cross-validation with an 8:2
train/test ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.gesidnet import GesIDNet, routed_network
from repro.nn.losses import CrossEntropyLoss, softmax_probabilities
from repro.nn.module import as_compute
from repro.nn.optim import Adam, StepLR


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 30
    batch_size: int = 24
    learning_rate: float = 2e-3
    weight_decay: float = 5e-4
    lr_step: int = 12
    lr_gamma: float = 0.5
    label_smoothing: float = 0.05
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    """Per-epoch history of one training run."""

    losses: list[float] = field(default_factory=list)
    primary_losses: list[float] = field(default_factory=list)
    auxiliary_losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_classifier(
    model: GesIDNet,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainReport:
    """Train ``model`` on ``inputs`` (n, points, 5) with integer ``labels``."""
    config = config or TrainConfig()
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if inputs.ndim != 3 or inputs.shape[0] != labels.size:
        raise ValueError("inputs must be (n, points, channels) aligned with labels")
    if inputs.shape[0] < 2:
        raise ValueError("need at least two training samples")

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    scheduler = StepLR(optimizer, step_size=config.lr_step, gamma=config.lr_gamma)
    primary_loss_fn = CrossEntropyLoss(label_smoothing=config.label_smoothing)
    auxiliary_loss_fn = CrossEntropyLoss(label_smoothing=config.label_smoothing)
    aux_weight = model.config.aux_weight
    report = TrainReport()

    num_samples = inputs.shape[0]
    model.train()
    for _epoch in range(config.epochs):
        order = rng.permutation(num_samples) if config.shuffle else np.arange(num_samples)
        epoch_loss = 0.0
        epoch_primary = 0.0
        epoch_aux = 0.0
        correct = 0
        for start in range(0, num_samples, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            if batch_idx.size < 2:
                continue  # batch-norm needs more than one sample
            batch_x = inputs[batch_idx]
            batch_y = labels[batch_idx]
            model.zero_grad()
            primary, auxiliary = model(batch_x)
            loss1 = primary_loss_fn(primary, batch_y)
            loss2 = auxiliary_loss_fn(auxiliary, batch_y)
            model.backward(primary_loss_fn.backward(), aux_weight * auxiliary_loss_fn.backward())
            optimizer.step()
            weight = batch_idx.size / num_samples
            epoch_loss += (loss1 + aux_weight * loss2) * weight
            epoch_primary += loss1 * weight
            epoch_aux += loss2 * weight
            correct += int((primary.argmax(axis=1) == batch_y).sum())
        scheduler.step()
        report.losses.append(epoch_loss)
        report.primary_losses.append(epoch_primary)
        report.auxiliary_losses.append(epoch_aux)
        report.train_accuracies.append(correct / num_samples)
    model.eval()
    return report


def predict_proba(model: GesIDNet, inputs: np.ndarray, *, batch_size: int = 64) -> np.ndarray:
    """Class probabilities from the primary head (inference path).

    float32 inputs ride the low-precision fast path (the network keeps
    them float32 end to end); softmax pins the returned probabilities
    back to float64, so the wire format is unchanged either way.
    """
    inputs = as_compute(inputs)
    model.eval()
    chunks = []
    for start in range(0, inputs.shape[0], batch_size):
        primary, _ = model(inputs[start : start + batch_size])
        chunks.append(softmax_probabilities(primary))
    return np.vstack(chunks)


def predict_proba_routed(
    models: list[GesIDNet],
    inputs: np.ndarray,
    route: np.ndarray,
    *,
    batch_size: int = 64,
) -> np.ndarray:
    """Class probabilities when row ``i`` belongs to ``models[route[i]]``.

    The serialized mode picks each sample's user model by its recognised
    gesture.  One :func:`predict_proba` call per model pays a whole
    forward's fixed cost for every distinct gesture in a batch; this
    sorts the rows by model and runs each chunk as one pass through
    :func:`~repro.core.gesidnet.routed_network`.  The models must share
    one architecture.  Each row's probabilities are bitwise those of
    ``predict_proba(models[route[i]], ...)``.
    """
    inputs = as_compute(inputs)
    route = np.asarray(route, dtype=np.int64)
    for model in models:
        model.eval()
    order = np.argsort(route, kind="stable")
    probs = np.empty((route.size, models[0].num_classes))
    for start in range(0, route.size, batch_size):
        rows = order[start : start + batch_size]
        ids, firsts = np.unique(route[rows], return_index=True)
        bounds = list(zip(firsts, [*firsts[1:], rows.size]))
        if ids.size == 1:
            net = models[ids[0]]
        else:
            net = routed_network([models[i] for i in ids], bounds)
        primary, _ = net(inputs[rows])
        probs[rows] = softmax_probabilities(primary)
    return probs


def kfold_indices(
    num_samples: int, num_folds: int, *, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold (train_idx, test_idx) pairs."""
    if num_folds < 2 or num_folds > num_samples:
        raise ValueError("num_folds must be in [2, num_samples]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_samples)
    folds = np.array_split(order, num_folds)
    splits = []
    for i in range(num_folds):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(num_folds) if j != i])
        splits.append((train, test))
    return splits


def train_test_split(
    num_samples: int, test_fraction: float = 0.2, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A single shuffled split (the paper's 8:2 ratio by default)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_samples)
    num_test = max(int(round(num_samples * test_fraction)), 1)
    return order[num_test:], order[:num_test]
