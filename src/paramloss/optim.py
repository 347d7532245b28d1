"""Minimal Adam optimizer over flat parameter vectors.

Shared by the inner detector training and the outer distribution-mean
ascent. Kept deliberately small: moment estimates with bias correction and
an optional per-call learning-rate override (used for warmup schedules).
An optimizer built with `rows` holds a stack of vectors, one per sample of
a lockstep training, each with its own step count.
"""

import numpy as np

from .errors import InvalidInputError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _descent(x, m, v, c1, c2, rate):
    """x - rate * m_hat / (sqrt(v_hat) + EPS) with m_hat = m / c1, v_hat = v / c2."""
    return x - rate * (m / c1) / (np.sqrt(v / c2) + EPS)


class Adam:
    def __init__(self, dim: int, lr: float, rows: int | None = None):
        if dim < 1 or lr <= 0.0:
            raise InvalidInputError("Adam needs dim >= 1 and lr > 0")
        self.lr = float(lr)
        shape = (dim,) if rows is None else (rows, dim)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0 if rows is None else [0] * rows

    def step(self, x: np.ndarray, grad: np.ndarray, lr: float | None = None) -> np.ndarray:
        """One descent step on x along grad; returns the updated vector."""
        g = np.asarray(grad, dtype=float)
        if g.shape != self.m.shape:
            raise InvalidInputError(f"gradient shape {g.shape} does not match optimizer dim")
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * g
        self.v = BETA2 * self.v + (1.0 - BETA2) * g * g
        rate = self.lr if lr is None else float(lr)
        return _descent(np.asarray(x, dtype=float), self.m, self.v,
                        1.0 - BETA1**self.t, 1.0 - BETA2**self.t, rate)

    def step_rows(self, x: np.ndarray, grad: np.ndarray, rows, lr: float | None = None):
        """One descent step on each listed row of the (rows, dim) stack x
        along the same row of grad, in place; the other rows keep their
        values and step counts.

        Each row equals Adam.step on that row alone bit for bit: the bias
        corrections are Python floats from the row's own step count, since
        numpy's power differs from ** in the last bit at some counts.
        """
        rows = np.asarray(rows, dtype=np.intp)
        counts = []
        for r in rows.tolist():
            self.t[r] += 1
            counts.append(self.t[r])
        c1 = np.array([1.0 - BETA1**t for t in counts])[:, None]
        c2 = np.array([1.0 - BETA2**t for t in counts])[:, None]
        rate = self.lr if lr is None else float(lr)
        # take gathers rows faster than fancy indexing
        g = grad.take(rows, axis=0)
        m = BETA1 * self.m.take(rows, axis=0) + (1.0 - BETA1) * g
        v = BETA2 * self.v.take(rows, axis=0) + (1.0 - BETA2) * g * g
        self.m[rows], self.v[rows] = m, v
        x[rows] = _descent(x.take(rows, axis=0), m, v, c1, c2, rate)
