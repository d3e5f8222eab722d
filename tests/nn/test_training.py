"""Unit tests for the training loop."""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.layers import _TRANSIENT_STATE, Conv2D, Dense, Flatten
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.metrics import accuracy_score
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.training import EarlyStopping, History, Trainer
from tests.nn.test_layers import reference_col2im, reference_pad_input


def make_separable_dataset(n=120, seed=0):
    """Two Gaussian blobs that a small MLP separates easily."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(-1.0, 0.5, size=(half, 2))
    x1 = rng.normal(1.0, 0.5, size=(half, 2))
    x = np.vstack([x0, x1])
    y = np.vstack([np.zeros((half, 1)), np.ones((half, 1))])
    return x, y


def make_mlp(seed=0):
    return Sequential([Dense(8), ReLU(), Dense(1), Sigmoid()], seed=seed)


def make_trainer(model, learning_rate=0.05, seed=0):
    return Trainer(
        model, BinaryCrossEntropy(), Adam(learning_rate=learning_rate), accuracy_score, seed=seed
    )


def full_run(epochs):
    """An early stopper that cannot fire within ``epochs`` epochs."""
    return EarlyStopping(patience=epochs)


def make_conv_dataset(n=48, seed=0):
    """Small (6, 5, 1) frames labelled by whether their centre is bright."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 6, 5, 1))
    y = (x[:, 2:4, 1:4, 0].mean(axis=(1, 2)) > 0.5).astype(float).reshape(-1, 1)
    return x, y


def make_conv_net(seed=0):
    # One 'same' conv (padded input) and one 'valid' conv (unpadded input).
    return Sequential(
        [
            Conv2D(3, kernel_size=3, padding="same"),
            ReLU(),
            Conv2D(2, kernel_size=3),
            ReLU(),
            Flatten(),
            Dense(1),
            Sigmoid(),
        ],
        seed=seed,
    )


def unbuffered_reference_col2im(cols, input_shape, kh, kw, stride, out_h, out_w, buffer=None):
    """``_col2im``'s calling convention over the strided reference."""
    return reference_col2im(cols, input_shape, kh, kw, stride, out_h, out_w), None


def per_epoch_metric_fit(trainer, x, y, epochs, batch_size, early_stopping):
    """The earlier training loop, which predicted the training set every epoch.

    Returns ``(loss, metric)`` curves, one entry per epoch.
    """
    dtype = trainer.model.dtype
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    loss_curve, metric_curve = [], []
    n = x.shape[0]
    for _ in range(epochs):
        order = trainer._rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch_x, batch_y = x[idx], y[idx]
            predictions = trainer.model.forward(batch_x, training=True)
            epoch_loss += trainer.loss.forward(predictions, batch_y)
            trainer.model.backward(trainer.loss.backward(predictions, batch_y))
            trainer.optimizer.step(trainer.model.layers)
            batches += 1
        epoch_loss /= max(1, batches)
        loss_curve.append(epoch_loss)
        metric_curve.append(float(trainer.metric(y, trainer.model.predict(x))))
        if early_stopping.update(epoch_loss):
            break
    return loss_curve, metric_curve


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.0)

    def test_reset_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1.0)
        assert not stopper.update(0.99995)  # within the 1e-4 minimum improvement
        assert not stopper.update(0.5)  # big improvement resets the counter
        assert not stopper.update(0.5)
        assert stopper.update(0.5)


    def test_patience_one_stops_at_first_stale_epoch(self):
        stopper = EarlyStopping(patience=1)
        assert not stopper.update(2.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.5)


class TestHistory:
    def test_empty_history(self):
        history = History()
        assert history.epochs == 0
        assert history.final_metric is None

    def test_epochs_counts_loss_entries(self):
        assert History(loss=[0.7, 0.5, 0.4]).epochs == 3


class TestTrainer:
    def test_learns_separable_data(self):
        x, y = make_separable_dataset()
        trainer = make_trainer(make_mlp())
        history = trainer.fit(x, y, epochs=60, batch_size=16, early_stopping=full_run(60))
        assert history.final_metric > 0.95
        assert history.loss[-1] < history.loss[0]

    def test_early_stopping_cuts_training(self):
        x, y = make_separable_dataset()
        trainer = make_trainer(make_mlp())
        history = trainer.fit(
            x, y, epochs=500, batch_size=16, early_stopping=EarlyStopping(patience=3)
        )
        assert history.epochs < 500

    def test_rejects_empty_dataset(self):
        trainer = make_trainer(make_mlp())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 2)), np.zeros((0, 1)), 1, 16, full_run(1))

    @pytest.mark.parametrize(
        "epochs, batch_size", [(0, 16), (1, 0)], ids=["no-epochs", "no-batch"]
    )
    def test_rejects_non_positive_sizes(self, epochs, batch_size):
        trainer = make_trainer(make_mlp())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 2)), np.zeros((4, 1)), epochs, batch_size, full_run(1))

    def test_same_seeds_same_history(self):
        x, y = make_separable_dataset()
        first = make_trainer(make_mlp(seed=1), seed=2).fit(x, y, 5, 16, full_run(5))
        second = make_trainer(make_mlp(seed=1), seed=2).fit(x, y, 5, 16, full_run(5))
        assert first.loss == second.loss
        assert first.final_metric == second.final_metric

    def test_batch_larger_than_dataset(self):
        x, y = make_separable_dataset(n=10)
        history = make_trainer(make_mlp()).fit(x, y, 3, 64, full_run(3))
        assert history.epochs == 3
        assert all(np.isfinite(history.loss))

    def test_fit_releases_scratch(self):
        x, y = make_conv_dataset(n=16)
        trainer = make_trainer(make_conv_net())
        trainer.fit(x, y, 2, 8, full_run(2))
        for layer in trainer.model.layers:
            assert not _TRANSIENT_STATE & set(vars(layer))

    def test_float64_data_trains_float32_model(self):
        x, y = make_separable_dataset()
        trainer = make_trainer(make_mlp())
        trainer.fit(x.astype(np.float64), y.astype(np.float64), 2, 16, full_run(2))
        for layer in trainer.model.layers:
            for value in layer.params.values():
                assert value.dtype == np.float32

    def test_rejects_misaligned_data(self):
        trainer = make_trainer(make_mlp())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 2)), np.zeros((3, 1)), 1, 16, full_run(1))


class TestTrainerMatchesPerEpochMetricLoop:
    """Measuring the metric once leaves training bit-for-bit unchanged."""

    @pytest.mark.parametrize("early_stop", [False, True], ids=["full", "early-stop"])
    def test_params_and_final_metric_match(self, monkeypatch, early_stop):
        x, y = make_conv_dataset()
        epochs = 60 if early_stop else 6

        def stopper():
            return EarlyStopping(patience=2) if early_stop else full_run(epochs)

        def trainer():
            return make_trainer(make_conv_net(seed=3), learning_rate=0.02, seed=5)

        new = trainer()
        history = new.fit(x, y, epochs=epochs, batch_size=8, early_stopping=stopper())

        old = trainer()
        with monkeypatch.context() as patch:
            patch.setattr(layers, "_col2im", unbuffered_reference_col2im)
            patch.setattr(layers, "_pad_input", reference_pad_input)
            loss, metric = per_epoch_metric_fit(
                old, x, y, epochs=epochs, batch_size=8, early_stopping=stopper()
            )

        if early_stop:
            assert history.epochs < epochs
        else:
            assert history.epochs == epochs
        assert history.loss == loss
        assert history.final_metric == metric[-1]
        for new_layer, old_layer in zip(new.model.layers, old.model.layers):
            assert new_layer.params.keys() == old_layer.params.keys()
            for name, value in new_layer.params.items():
                assert value.tobytes() == old_layer.params[name].tobytes()
