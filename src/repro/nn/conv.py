"""1-D convolutional layers — completing the Figure-2 architecture zoo.

The paper's zoo includes CNNs ("neurons in convolutional layers only
connect to close neighbors"); for sequence-shaped DC data (token streams,
character strings) the 1-D variant is the relevant one.  Built entirely
from differentiable Tensor ops, so autograd provides the gradients.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


class Conv1d(Module):
    """1-D convolution over ``(batch, time, channels)`` inputs.

    ``kernel_size`` neighbouring time steps connect to each output unit —
    the local-pattern inductive bias the paper contrasts with
    fully-connected generality.  Output length is
    ``time - kernel_size + 1`` (valid padding) or ``time`` with
    ``padding="same"`` (zero-padded).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        padding: str = "valid",
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive_int("kernel_size", kernel_size)
        if padding not in {"valid", "same"}:
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        rng = ensure_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        # One (in, out) matrix per kernel offset.
        self.weight = Parameter(
            init.xavier_uniform((kernel_size, in_channels, out_channels), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"Conv1d expects (batch, time, channels), got {x.shape}")
        batch, time, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        if self.padding == "same":
            left = (self.kernel_size - 1) // 2
            right = self.kernel_size - 1 - left
            zeros_left = Tensor(np.zeros((batch, left, channels)))
            zeros_right = Tensor(np.zeros((batch, right, channels)))
            x = concat([zeros_left, x, zeros_right], axis=1)
            time = time + left + right
        out_time = time - self.kernel_size + 1
        if out_time < 1:
            raise ValueError(
                f"input time {time} shorter than kernel {self.kernel_size}"
            )
        out: Tensor | None = None
        for offset in range(self.kernel_size):
            window = x[:, offset : offset + out_time, :]
            term = window @ self.weight[offset]
            out = term if out is None else out + term
        if self.bias is not None:
            out = out + self.bias
        return out


class MaxPool1d(Module):
    """Non-overlapping max pooling over time; truncates a ragged tail."""

    def __init__(self, pool_size: int = 2) -> None:
        check_positive_int("pool_size", pool_size)
        self.pool_size = pool_size

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"MaxPool1d expects (batch, time, channels), got {x.shape}")
        batch, time, channels = x.shape
        windows = time // self.pool_size
        if windows < 1:
            raise ValueError(f"time {time} shorter than pool size {self.pool_size}")
        trimmed = x[:, : windows * self.pool_size, :]
        reshaped = trimmed.reshape(batch, windows, self.pool_size, channels)
        return reshaped.max(axis=2)


class GlobalMaxPool1d(Module):
    """Collapse the whole time axis by max — sequence → vector."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(
                f"GlobalMaxPool1d expects (batch, time, channels), got {x.shape}"
            )
        return x.max(axis=1)


class CharCNN(Module):
    """A small character-CNN string encoder (conv → pool → conv → global max).

    The CNN counterpart to :class:`~repro.embeddings.compose.LSTMComposer`:
    local n-gram patterns instead of sequential state — useful for
    format-heavy values (phones, codes) where local motifs matter more
    than long-range order.
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int = 32,
        out_channels: int = 32,
        kernel_size: int = 3,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        rng = ensure_rng(rng)
        self.conv1 = Conv1d(in_channels, hidden_channels, kernel_size, padding="same", rng=rng)
        self.pool = MaxPool1d(2)
        self.conv2 = Conv1d(hidden_channels, out_channels, kernel_size, padding="same", rng=rng)
        self.global_pool = GlobalMaxPool1d()
        self.output_dim = out_channels

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv1(x).relu()
        h = self.pool(h)
        h = self.conv2(h).relu()
        return self.global_pool(h)
