"""Test-side loss wrappers over paramloss's public loss_forward and
loss_backward, shared by the test modules."""

from collections import namedtuple

import numpy as np

from paramloss.paploss import loss_backward, loss_forward
from paramloss.toybench import model_forward

LossGrads = namedtuple("LossGrads", "value score_grads box_grads")


def loss_with_grads(batch, params, functions=None) -> LossGrads:
    """Forward and backward in one call; AssertionError on a non-finite
    value or gradient. Box rows are zero for negatives."""
    value, cache = loss_forward(batch, params, functions)
    score_grads, box_grads = loss_backward(cache)
    assert np.isfinite(value), value
    assert np.all(np.isfinite(score_grads)) and np.all(np.isfinite(box_grads))
    return LossGrads(value, score_grads, box_grads)


def dataset_loss(model, params, scenes) -> float:
    """Mean loss value of the model's predictions over the scenes, one
    joint ranking per scene."""
    assert scenes, "dataset_loss needs at least one scene"
    return float(np.mean([loss_forward(model_forward(model, scene), params)[0]
                          for scene in scenes]))
