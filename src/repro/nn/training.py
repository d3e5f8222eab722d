"""Training loop and history tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam

__all__ = ["History", "EarlyStopping", "Trainer"]

#: Smallest drop in the training loss that counts as an improvement.
_MIN_DELTA = 1e-4


@dataclass
class History:
    """Training curve produced by :class:`Trainer.fit`.

    ``loss`` holds one value per epoch; ``final_metric`` is the training-set
    metric of the trained model, measured once after the last epoch
    (``None`` until :meth:`Trainer.fit` returns).
    """

    loss: list[float] = field(default_factory=list)
    final_metric: float | None = None

    @property
    def epochs(self) -> int:
        return len(self.loss)


@dataclass
class EarlyStopping:
    """Stop training when the training loss stops improving."""

    patience: int
    _best: float = field(default=float("inf"), init=False)
    _stale: int = field(default=0, init=False)

    def update(self, value: float) -> bool:
        """Record a new loss value; return True when training should stop."""
        if value < self._best - _MIN_DELTA:
            self._best = value
            self._stale = 0
            return False
        self._stale += 1
        return self._stale >= self.patience


class Trainer:
    """Mini-batch gradient-descent trainer for :class:`Sequential` models."""

    def __init__(
        self,
        model: Sequential,
        loss: Loss,
        optimizer: Adam,
        metric: Callable[[np.ndarray, np.ndarray], float],
        seed: int = 0,
    ) -> None:
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.metric = metric
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        early_stopping: EarlyStopping,
    ) -> History:
        """Train the model and return its history (see :class:`History`)."""
        dtype = self.model.dtype
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
        for _ in range(epochs):
            order = self._rng.permutation(n)
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
            if early_stopping.update(epoch_loss):
                break
        history.final_metric = float(self.metric(y, self.model.predict(x)))
        self.model.release_scratch()
        return history
