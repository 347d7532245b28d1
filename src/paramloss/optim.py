"""Minimal Adam optimizer over flat parameter vectors.

Shared by the inner detector training and the outer distribution-mean
ascent. Kept deliberately small: moment estimates with bias correction and
a learning rate given with each step, since both callers schedule it.
An optimizer holds a (rows, dim) stack of moments, one row per sample of a
lockstep training, each with its own step count; a single vector is the
one-row stack.
"""

import math

import numpy as np

from .errors import InvalidInputError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, dim: int, rows: int = 1):
        if dim < 1:
            raise InvalidInputError("Adam needs dim >= 1")
        self.m = np.zeros((rows, dim))
        self.v = np.zeros((rows, dim))
        self.t = [0] * rows

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """One descent step on the vector x along grad, for a one-row
        optimizer; returns the updated vector and leaves x as it was."""
        g = np.asarray(grad, dtype=float)
        if self.m.shape != (1,) + g.shape:
            raise InvalidInputError(f"gradient shape {g.shape} does not match optimizer dim")
        out = np.array(x, dtype=float)[None]
        self.step_rows(out, g[None], [0], lr)
        return out[0]

    def step_rows(self, x: np.ndarray, grad: np.ndarray, rows, lr: float):
        """One descent step on each listed row of the (rows, dim) stack x
        along the same row of grad, in place; the other rows keep their
        values and step counts.

        The bias corrections are Python floats from each row's own step
        count, since numpy's power differs from ** in the last bit at some
        counts.
        """
        if not (math.isfinite(lr) and lr > 0.0):
            raise InvalidInputError("Adam needs a finite lr > 0")
        rows = np.asarray(rows, dtype=np.intp)
        counts = []
        for r in rows.tolist():
            self.t[r] += 1
            counts.append(self.t[r])
        c1 = np.array([1.0 - BETA1**t for t in counts])[:, None]
        c2 = np.array([1.0 - BETA2**t for t in counts])[:, None]
        # take gathers rows faster than fancy indexing
        g = grad.take(rows, axis=0)
        m = BETA1 * self.m.take(rows, axis=0) + (1.0 - BETA1) * g
        v = BETA2 * self.v.take(rows, axis=0) + (1.0 - BETA2) * g * g
        self.m[rows], self.v[rows] = m, v
        x[rows] = x.take(rows, axis=0) - lr * (m / c1) / (np.sqrt(v / c2) + EPS)
