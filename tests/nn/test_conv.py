"""Conv1d / pooling tests — the CNN corner of the Figure-2 zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, CharCNN, Conv1d, GlobalMaxPool1d, MaxPool1d, Tensor, mse_loss
from repro.nn.gradcheck import check_gradients


class TestConv1d:
    def test_valid_output_length(self):
        conv = Conv1d(4, 6, kernel_size=3, rng=0)
        assert conv(Tensor(np.zeros((2, 10, 4)))).shape == (2, 8, 6)

    def test_same_padding_preserves_length(self):
        conv = Conv1d(4, 6, kernel_size=3, padding="same", rng=0)
        assert conv(Tensor(np.zeros((2, 10, 4)))).shape == (2, 10, 6)

    def test_even_kernel_same_padding(self):
        conv = Conv1d(2, 3, kernel_size=4, padding="same", rng=0)
        assert conv(Tensor(np.zeros((1, 7, 2)))).shape == (1, 7, 3)

    def test_invalid_padding(self):
        with pytest.raises(ValueError):
            Conv1d(2, 3, padding="circular")

    @pytest.mark.parametrize("kernel_size", [0, 2.5, 3.0])
    def test_invalid_kernel_size(self, kernel_size):
        with pytest.raises(ValueError):
            Conv1d(2, 3, kernel_size=kernel_size)

    def test_wrong_rank_rejected(self):
        conv = Conv1d(2, 3, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((4, 2))))

    def test_wrong_channels_rejected(self):
        conv = Conv1d(2, 3, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 5, 7))))

    def test_too_short_input_rejected(self):
        conv = Conv1d(2, 3, kernel_size=5, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 3, 2))))

    def test_matches_manual_convolution(self):
        conv = Conv1d(1, 1, kernel_size=2, bias=False, rng=0)
        conv.weight.data = np.array([[[1.0]], [[2.0]]])  # y_t = x_t + 2 x_{t+1}
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = conv(Tensor(x)).data
        assert np.allclose(out[0, :, 0], [1 + 4, 2 + 6])

    def test_translation_equivariance(self):
        """The paper's CNN motivation: a pattern is recognised wherever it
        occurs."""
        conv = Conv1d(1, 4, kernel_size=3, bias=False, rng=0)
        pattern = np.array([1.0, -2.0, 1.0])
        x1 = np.zeros((1, 12, 1))
        x2 = np.zeros((1, 12, 1))
        x1[0, 2:5, 0] = pattern
        x2[0, 7:10, 0] = pattern
        out1 = conv(Tensor(x1)).data
        out2 = conv(Tensor(x2)).data
        assert np.allclose(out1[0, 2], out2[0, 7])

    def test_gradcheck(self):
        conv = Conv1d(2, 3, kernel_size=3, rng=1)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 2)))
        check_gradients(lambda: (conv(x) ** 2).sum(), conv.parameters())


class TestPooling:
    def test_maxpool_shape_and_values(self):
        pool = MaxPool1d(2)
        x = Tensor(np.array([[[1.0], [5.0], [2.0], [3.0], [9.0]]]))
        out = pool(x)
        assert out.shape == (1, 2, 1)  # ragged tail truncated
        assert np.allclose(out.data[0, :, 0], [5.0, 3.0])

    def test_global_maxpool(self):
        pool = GlobalMaxPool1d()
        x = Tensor(np.array([[[1.0, -1.0], [3.0, -5.0]]]))
        assert np.allclose(pool(x).data, [[3.0, -1.0]])

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            MaxPool1d(0)
        with pytest.raises(ValueError):
            MaxPool1d(2.0)


class TestCharCNN:
    def test_output_shape(self):
        cnn = CharCNN(8, out_channels=16, rng=0)
        assert cnn(Tensor(np.zeros((3, 12, 8)))).shape == (3, 16)
        assert cnn.output_dim == 16

    def test_trains_on_motif_detection(self):
        """CharCNN must learn to detect a local motif anywhere in the
        sequence — the spatially-local-pattern task CNNs exist for."""
        rng = np.random.default_rng(0)
        n, time = 80, 12
        x = rng.normal(0, 0.3, size=(n, time, 1))
        y = np.zeros((n, 1))
        for i in range(0, n, 2):  # half the sequences get the motif
            pos = int(rng.integers(0, time - 3))
            x[i, pos : pos + 3, 0] = [2.0, -2.0, 2.0]
            y[i] = 1.0
        from repro.nn import Linear, bce_with_logits

        cnn = CharCNN(1, hidden_channels=8, out_channels=8, rng=1)
        head = Linear(8, 1, rng=1)
        params = cnn.parameters() + head.parameters()
        optimizer = Adam(params, lr=0.02)
        for _ in range(60):
            logits = head(cnn(Tensor(x)))
            loss = bce_with_logits(logits, y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        accuracy = ((head(cnn(Tensor(x))).data > 0) == y).mean()
        assert accuracy > 0.9
