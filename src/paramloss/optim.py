"""Minimal Adam optimizer over flat parameter vectors.

Shared by the inner detector training and the outer distribution-mean
ascent. Kept deliberately small: moment estimates with bias correction and
an optional per-call learning-rate override (used for warmup schedules).
"""

import numpy as np

from .errors import InvalidInputError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, dim: int, lr: float):
        if dim < 1 or lr <= 0.0:
            raise InvalidInputError("Adam needs dim >= 1 and lr > 0")
        self.lr = float(lr)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float | None = None) -> np.ndarray:
        """One descent step on x along grad; returns the updated vector."""
        g = np.asarray(grad, dtype=float)
        if g.shape != self.m.shape:
            raise InvalidInputError(f"gradient shape {g.shape} does not match optimizer dim")
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * g
        self.v = BETA2 * self.v + (1.0 - BETA2) * g * g
        m_hat = self.m / (1.0 - BETA1**self.t)
        v_hat = self.v / (1.0 - BETA2**self.t)
        rate = self.lr if lr is None else float(lr)
        return np.asarray(x, dtype=float) - rate * m_hat / (np.sqrt(v_hat) + EPS)
