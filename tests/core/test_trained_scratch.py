"""A freshly trained detector or localizer holds no training scratch.

Training grows every layer's forward/backward scratch (im2col buffers,
cached activations) to the largest batch it saw; ``Trainer.fit`` drops it
before returning, as pickling does.  Dropping it must not change what the
model predicts.
"""

import numpy as np

from repro.core.config import DL2FenceConfig
from repro.core.detector import DoSDetector
from repro.core.localizer import DoSProfileLocalizer
from repro.nn.layers import _TRANSIENT_STATE


def scratch(model):
    """(layer index, attribute) of every scratch attribute the model holds."""
    return {
        (index, key)
        for index, layer in enumerate(model.layers)
        for key in _TRANSIENT_STATE.intersection(vars(layer))
    }


def assert_release_keeps_predictions(model, predict, inputs):
    assert scratch(model) == set()
    fresh = predict(inputs[:3])
    predict(inputs)  # regrow the scratch at the full set's batch size
    assert scratch(model)
    np.testing.assert_array_equal(predict(inputs[:3]), fresh)


def test_fitted_detector_holds_no_scratch(small_detection_dataset):
    inputs = small_detection_dataset.inputs
    detector = DoSDetector(inputs.shape[1:], config=DL2FenceConfig(seed=2))
    detector.fit(small_detection_dataset, epochs=3)
    assert detector.benign_calibration is not None
    assert_release_keeps_predictions(detector.model, detector.predict_proba, inputs)


def test_fitted_localizer_holds_no_scratch(small_localization_dataset):
    inputs = small_localization_dataset.inputs
    localizer = DoSProfileLocalizer(inputs.shape[1:], config=DL2FenceConfig(seed=2))
    localizer.fit(small_localization_dataset, epochs=3)
    assert_release_keeps_predictions(localizer.model, localizer.predict_masks, inputs)
