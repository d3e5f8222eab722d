"""Unit tests for the training loop and dataset utilities."""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.activations import ReLU, Sigmoid
from repro.nn.layers import Conv2D, Dense, Flatten
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.training import EarlyStopping, Trainer, train_test_split
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


def per_epoch_metric_fit(trainer, x, y, epochs, batch_size, validation_data=None, early_stopping=None):
    """The earlier training loop, which predicted the training set every epoch.

    Returns ``(loss, val_loss, metric)`` curves, one entry per epoch.
    """
    dtype = trainer._dtype()
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    loss_curve, val_loss_curve, metric_curve = [], [], []
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
        monitored = epoch_loss
        if validation_data is not None:
            val_x, val_y = validation_data
            val_pred = trainer.model.predict(np.asarray(val_x, dtype=dtype))
            val_loss = trainer.loss.forward(val_pred, np.asarray(val_y, dtype=dtype))
            val_loss_curve.append(val_loss)
            monitored = val_loss
        if early_stopping is not None and early_stopping.update(monitored):
            break
    return loss_curve, val_loss_curve, metric_curve


class TestTrainTestSplit:
    def test_sizes(self):
        x = np.arange(40).reshape(20, 2)
        y = np.arange(20)
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.25, seed=0)
        assert x_te.shape[0] == 5
        assert x_tr.shape[0] == 15
        assert y_tr.shape[0] == 15

    def test_partition_is_disjoint_and_complete(self):
        x = np.arange(30)
        x_tr, x_te = train_test_split(x, test_fraction=0.3, seed=1)
        assert sorted(np.concatenate([x_tr, x_te]).tolist()) == list(range(30))

    def test_rows_stay_aligned(self):
        x = np.arange(20)
        y = np.arange(20) * 10
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.2, seed=2)
        assert np.all(y_tr == x_tr * 10)
        assert np.all(y_te == x_te * 10)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), test_fraction=1.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), np.arange(5))


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.update(1.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.0)

    def test_reset_on_improvement(self):
        stopper = EarlyStopping(patience=2, min_delta=0.01)
        assert not stopper.update(1.0)
        assert not stopper.update(0.99)  # no real improvement vs min_delta? (1.0-0.99 < ...)
        assert not stopper.update(0.5)  # big improvement resets the counter
        assert not stopper.update(0.5)
        assert stopper.update(0.5)


class TestTrainer:
    def test_learns_separable_data(self):
        x, y = make_separable_dataset()
        model = make_mlp()
        trainer = Trainer(model, loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(x, y, epochs=60, batch_size=16)
        assert history.final_metric > 0.95
        assert history.loss[-1] < history.loss[0]

    def test_history_tracks_validation(self):
        x, y = make_separable_dataset()
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.25, seed=0)
        model = make_mlp()
        trainer = Trainer(model, loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(
            x_tr, y_tr, epochs=20, batch_size=16, validation_data=(x_te, y_te)
        )
        assert len(history.val_loss) == history.epochs
        assert len(history.val_metric) == history.epochs

    def test_early_stopping_cuts_training(self):
        x, y = make_separable_dataset()
        model = make_mlp()
        trainer = Trainer(model, loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(
            x, y, epochs=500, batch_size=16, early_stopping=EarlyStopping(patience=3)
        )
        assert history.epochs < 500

    def test_evaluate_returns_loss_and_metric(self):
        x, y = make_separable_dataset()
        model = make_mlp()
        trainer = Trainer(model, loss="bce", optimizer=Adam(learning_rate=0.05))
        trainer.fit(x, y, epochs=40, batch_size=16)
        loss, metric = trainer.evaluate(x, y)
        assert loss < 0.3
        assert metric > 0.9

    def test_rejects_empty_dataset(self):
        trainer = Trainer(make_mlp())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 2)), np.zeros((0, 1)))

    def test_rejects_misaligned_data(self):
        trainer = Trainer(make_mlp())
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 2)), np.zeros((3, 1)))

    def test_best_epoch(self):
        x, y = make_separable_dataset()
        model = make_mlp()
        trainer = Trainer(model, loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(x, y, epochs=10, batch_size=16)
        assert 0 <= history.best_epoch() < history.epochs

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            Trainer(make_mlp(), metric="auc")


class TestTrainerMatchesPerEpochMetricLoop:
    """Measuring the metric once leaves training bit-for-bit unchanged."""

    @pytest.mark.parametrize("early_stop", [False, True], ids=["full", "early-stop"])
    def test_params_and_final_metric_match(self, monkeypatch, early_stop):
        x, y = make_conv_dataset()
        x_tr, x_val, y_tr, y_val = train_test_split(x, y, test_fraction=0.25, seed=1)
        epochs = 60 if early_stop else 6

        def stopper():
            return EarlyStopping(patience=2, min_delta=1e-3) if early_stop else None

        def trainer():
            return Trainer(make_conv_net(seed=3), optimizer=Adam(learning_rate=0.02), seed=5)

        new = trainer()
        history = new.fit(
            x_tr,
            y_tr,
            epochs=epochs,
            batch_size=8,
            validation_data=(x_val, y_val),
            early_stopping=stopper(),
        )

        old = trainer()
        with monkeypatch.context() as patch:
            patch.setattr(layers, "_col2im", unbuffered_reference_col2im)
            patch.setattr(layers, "_pad_input", reference_pad_input)
            loss, val_loss, metric = per_epoch_metric_fit(
                old,
                x_tr,
                y_tr,
                epochs=epochs,
                batch_size=8,
                validation_data=(x_val, y_val),
                early_stopping=stopper(),
            )

        if early_stop:
            assert history.epochs < epochs
        else:
            assert history.epochs == epochs
        assert history.loss == loss
        assert history.val_loss == val_loss
        assert history.final_metric == metric[-1]
        for new_layer, old_layer in zip(new.model.layers, old.model.layers):
            assert new_layer.params.keys() == old_layer.params.keys()
            for name, value in new_layer.params.items():
                assert value.tobytes() == old_layer.params[name].tobytes()


class TestVerbose:
    def test_one_line_per_epoch(self, capsys):
        x, y = make_separable_dataset()
        trainer = Trainer(make_mlp(), loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(x, y, epochs=3, batch_size=16, verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == history.epochs == 3
        for epoch, line in enumerate(lines, start=1):
            assert line == f"epoch {epoch}/3: loss={history.loss[epoch - 1]:.4f}"

    def test_validation_values_printed(self, capsys):
        x, y = make_separable_dataset()
        x_tr, x_te, y_tr, y_te = train_test_split(x, y, test_fraction=0.25, seed=0)
        trainer = Trainer(make_mlp(), loss="bce", optimizer=Adam(learning_rate=0.05))
        history = trainer.fit(
            x_tr,
            y_tr,
            epochs=500,
            batch_size=16,
            validation_data=(x_te, y_te),
            early_stopping=EarlyStopping(patience=2),
            verbose=True,
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == history.epochs < 500
        assert lines[-1] == (
            f"epoch {history.epochs}/500: loss={history.loss[-1]:.4f} "
            f"val_loss={history.val_loss[-1]:.4f} val_metric={history.val_metric[-1]:.4f}"
        )
