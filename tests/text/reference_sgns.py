"""Frozen reference: SkipGram's per-row update and sigmoid before bincount.

``reference_scaled_update`` is ``SkipGram._scaled_update`` and
``reference_stable_sigmoid`` is ``_stable_sigmoid`` as they stood when the
update summed each row's gradients with ``np.unique`` + ``np.add.at`` and
the sigmoid clipped and exponentiated three times.  Only
``tests/text/test_word2vec.py`` uses this module; nothing under ``src/``
imports it.  Do not edit them: they are the reference.
"""

from __future__ import annotations

import numpy as np


def reference_scaled_update(
    matrix: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float
) -> None:
    unique, inverse, counts = np.unique(rows, return_inverse=True, return_counts=True)
    accumulator = np.zeros((unique.size, matrix.shape[1]))
    np.add.at(accumulator, inverse, grads)
    matrix[unique] += lr * accumulator / counts[:, None]


def reference_stable_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50))),
                    np.exp(np.clip(x, -50, 50)) / (1.0 + np.exp(np.clip(x, -50, 50))))
