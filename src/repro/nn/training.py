"""Training loop, history tracking and dataset utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.losses import Loss, get_loss
from repro.nn.metrics import accuracy_score, dice_coefficient
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, Optimizer, get_optimizer

__all__ = ["History", "EarlyStopping", "Trainer", "train_test_split"]


@dataclass
class History:
    """Training curves produced by :class:`Trainer.fit`.

    ``loss``, ``val_loss`` and ``val_metric`` hold one value per epoch;
    ``final_metric`` is the training-set metric of the trained model, measured
    once after the last epoch (``None`` until :meth:`Trainer.fit` returns).
    """

    loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    final_metric: float | None = None

    @property
    def epochs(self) -> int:
        return len(self.loss)

    def best_epoch(self) -> int:
        """Index of the epoch with the lowest validation (or training) loss."""
        curve = self.val_loss if self.val_loss else self.loss
        if not curve:
            raise ValueError("history is empty")
        return int(np.argmin(curve))


@dataclass
class EarlyStopping:
    """Stop training when the monitored loss stops improving."""

    patience: int = 10
    min_delta: float = 1e-4
    _best: float = field(default=float("inf"), init=False)
    _stale: int = field(default=0, init=False)

    def update(self, value: float) -> bool:
        """Record a new loss value; return True when training should stop."""
        if value < self._best - self.min_delta:
            self._best = value
            self._stale = 0
            return False
        self._stale += 1
        return self._stale >= self.patience


def train_test_split(
    *arrays: np.ndarray,
    test_fraction: float = 0.25,
    seed: int = 0,
) -> tuple:
    """Shuffle-split any number of aligned arrays into train/test partitions.

    Returns ``(a_train, a_test, b_train, b_test, ...)`` mirroring the familiar
    scikit-learn calling convention.
    """
    if not arrays:
        raise ValueError("at least one array is required")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = arrays[0].shape[0]
    for arr in arrays:
        if arr.shape[0] != n:
            raise ValueError("all arrays must share the first dimension")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    n_test = min(n_test, n - 1) if n > 1 else n_test
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    out = []
    for arr in arrays:
        out.append(arr[train_idx])
        out.append(arr[test_idx])
    return tuple(out)


class Trainer:
    """Mini-batch gradient-descent trainer for :class:`Sequential` models."""

    def __init__(
        self,
        model: Sequential,
        loss: str | Loss = "bce",
        optimizer: str | Optimizer | None = None,
        metric: Callable[[np.ndarray, np.ndarray], float] | str | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.loss = get_loss(loss)
        self.optimizer = (
            get_optimizer(optimizer) if optimizer is not None else Adam(learning_rate=0.005)
        )
        if metric == "accuracy" or metric is None:
            self.metric: Callable[[np.ndarray, np.ndarray], float] = accuracy_score
        elif metric == "dice":
            self.metric = dice_coefficient
        elif callable(metric):
            self.metric = metric
        else:
            raise ValueError(f"unknown metric {metric!r}")
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 50,
        batch_size: int = 32,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        early_stopping: EarlyStopping | None = None,
        shuffle: bool = True,
        verbose: bool = False,
    ) -> History:
        """Train the model and return its history (see :class:`History`)."""
        dtype = self._dtype()
        x = np.asarray(x, dtype=dtype)
        y = np.asarray(y, dtype=dtype)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of samples")
        if x.shape[0] == 0:
            raise ValueError("cannot train on an empty dataset")
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")

        history = History()
        n = x.shape[0]
        for epoch in range(epochs):
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_x, batch_y = x[idx], y[idx]
                predictions = self.model.forward(batch_x, training=True)
                epoch_loss += self.loss.forward(predictions, batch_y)
                grad = self.loss.backward(predictions, batch_y)
                self.model.backward(grad)
                self.optimizer.step(self.model.layers)
                batches += 1
            epoch_loss /= max(1, batches)
            history.loss.append(epoch_loss)

            monitored = epoch_loss
            if validation_data is not None:
                val_x, val_y = validation_data
                val_pred = self.model.predict(np.asarray(val_x, dtype=dtype))
                val_y = np.asarray(val_y, dtype=dtype)
                val_loss = self.loss.forward(val_pred, val_y)
                history.val_loss.append(val_loss)
                history.val_metric.append(float(self.metric(val_y, val_pred)))
                monitored = val_loss

            if verbose:
                line = f"epoch {epoch + 1}/{epochs}: loss={epoch_loss:.4f}"
                if validation_data is not None:
                    line += (
                        f" val_loss={history.val_loss[-1]:.4f}"
                        f" val_metric={history.val_metric[-1]:.4f}"
                    )
                print(line)

            if early_stopping is not None and early_stopping.update(monitored):
                break
        history.final_metric = float(self.metric(y, self.model.predict(x)))
        self.model.release_scratch()
        return history

    def _dtype(self) -> np.dtype:
        """The model's compute dtype (the substrate default until built)."""
        from repro.nn.dtype import default_dtype

        return getattr(self.model, "dtype", None) or default_dtype()

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """Return ``(loss, metric)`` on a held-out set."""
        dtype = self._dtype()
        x = np.asarray(x, dtype=dtype)
        y = np.asarray(y, dtype=dtype)
        predictions = self.model.predict(x)
        return self.loss.forward(predictions, y), float(self.metric(y, predictions))
