"""DeepER — deep entity resolution (paper Section 5.2, Figure 5).

The pipeline the figure shows, end to end:

1. every tuple is converted to a distributed representation by composing
   word embeddings over its attribute values (mean / SIF averaging, or a
   trainable bidirectional-LSTM composer);
2. a tuple *pair* is represented by similarity features of the two tuple
   vectors (elementwise |u − v| and u ⊙ v, plus cosine);
3. a light fully-connected classifier predicts match / non-match.

Skew handling follows Section 6.1: optional cost-sensitive positive
weighting and negative undersampling.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.embeddings.compose import LSTMComposer, TupleEmbedder, VectorFn
from repro.faults.plan import inject
from repro.faults.retry import HOT_POLICY, retry_call
from repro.kernels.features import compose_pair_features
from repro.kernels.score import sigmoid
from repro.nn.layers import Module, Sequential, mlp
from repro.nn.losses import bce_with_logits
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, concat
from repro.nn.training import iterate_minibatches
from repro.obs.metrics import REGISTRY as _OBS
from repro.text.word2vec import SkipGram
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted

Pair = "tuple[dict[str, object], dict[str, object]]"
LabeledPair = "tuple[dict[str, object], dict[str, object], int]"


class DeepER:
    """Embedding-composition entity matcher.

    Parameters
    ----------
    word_model:
        Fitted :class:`SkipGram` providing word vectors (ideally pre-trained
        on a large corpus — the transfer mechanism of Section 6.2.5).
    columns:
        Attributes to compose into the tuple representation.
    composition:
        ``"mean"`` / ``"sif"`` (fixed averaging), ``"lstm"`` (trainable
        bidirectional composer) or ``"cnn"`` (trainable character-style
        CNN over the token sequence — local n-gram patterns instead of
        sequential state); the trainable composers are optimised jointly
        with the classifier.
    hidden_dim:
        Width of the classifier's hidden layer.
    pos_weight:
        Cost-sensitive multiplier for the positive class (Section 6.1);
        ``None`` disables it.
    undersample_ratio:
        If set, negatives are downsampled to at most this multiple of the
        positives before training (DeepER's sampling trick).
    vector_fn:
        Optional token → vector override (e.g. subword OOV back-off).
    """

    def __init__(
        self,
        word_model: SkipGram,
        columns: list[str],
        composition: str = "mean",
        hidden_dim: int = 32,
        max_tokens: int = 16,
        pos_weight: float | None = None,
        undersample_ratio: float | None = None,
        vector_fn: VectorFn | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if composition not in {"mean", "sif", "lstm", "cnn"}:
            raise ValueError(
                f"composition must be 'mean', 'sif', 'lstm' or 'cnn', got {composition!r}"
            )
        self.composition = composition
        self.columns = list(columns)
        self.max_tokens = max_tokens
        self.pos_weight = pos_weight
        self.undersample_ratio = undersample_ratio
        self._rng = ensure_rng(rng)
        embed_method = composition if composition in {"mean", "sif"} else "mean"
        self.embedder = TupleEmbedder(
            word_model, columns, method=embed_method, vector_fn=vector_fn
        )
        dim = word_model.dim
        self.composer: Module | None = None
        if composition == "lstm":
            self.composer = LSTMComposer(dim, hidden_dim=dim, rng=self._rng)
            feature_dim = 2 * self.composer.output_dim + 1
        elif composition == "cnn":
            from repro.nn.conv import CharCNN

            self.composer = CharCNN(
                dim, hidden_channels=dim, out_channels=dim, rng=self._rng
            )
            feature_dim = 2 * self.composer.output_dim + 1
        else:
            # Attribute-aligned pair features: per column |û-v̂| ++ cos.
            feature_dim = len(self.columns) * (dim + 1)
        self.classifier: Sequential = mlp([feature_dim, hidden_dim, 1], rng=self._rng)
        self.trained_: bool | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------ #
    # representations
    # ------------------------------------------------------------------ #

    def tuple_vectors(self, records: list[dict[str, object]]) -> np.ndarray:
        """Tuple embeddings for blocking and inspection (numpy, no grad)."""
        if self.composer is not None and self.trained_:
            matrices = np.array(
                [self.embedder.token_matrix(r, self.max_tokens) for r in records]
            )
            was_training = self.composer.training
            self.composer.eval()
            out = self.composer(Tensor(matrices)).data
            if was_training:
                self.composer.train()
            return out
        return self.embedder.embed_many(records)

    def _pair_tensor(self, u: Tensor, v: Tensor) -> Tensor:
        diff = (u - v).abs()
        had = u * v
        u_norm = (u * u).sum(axis=1, keepdims=True).sqrt() + 1e-8
        v_norm = (v * v).sum(axis=1, keepdims=True).sqrt() + 1e-8
        cos = (u * v).sum(axis=1, keepdims=True) / (u_norm * v_norm)
        return concat([diff, had, cos], axis=1)

    def _pair_features_numpy(self, pairs: list[Pair]) -> np.ndarray:
        """Attribute-aligned similarity features for fixed compositions.

        For every compare column: elementwise |û_c − v̂_c| over the
        unit-normalised attribute vectors plus cos(u_c, v_c), concatenated
        across columns — DeepER's per-attribute similarity vector feeding
        the dense classifier.  Normalising first makes the difference
        vector scale-invariant, which matters when attributes have very
        different token counts.

        The matrix comes from the batched
        :func:`repro.kernels.features.compose_pair_features` — unique
        records composed once, one array reduction for the whole batch —
        bit-identical to the per-pair loop reference
        (:func:`repro.kernels.reference._pair_feature_row`).  It is a pure
        function of ``pairs``, so it runs under a short retry budget at
        fault site ``er.deeper.pair_features``.
        """
        return retry_call(
            compose_pair_features,
            pairs,
            embedder=self.embedder,
            site="er.deeper.pair_features",
            policy=HOT_POLICY,
            validate=lambda matrix: (
                isinstance(matrix, np.ndarray) and len(matrix) == len(pairs)
            ),
        )

    def _token_batches(self, pairs: list[Pair]) -> tuple[np.ndarray, np.ndarray]:
        mat_a = np.array(
            [self.embedder.token_matrix(a, self.max_tokens) for a, _ in pairs]
        )
        mat_b = np.array(
            [self.embedder.token_matrix(b, self.max_tokens) for _, b in pairs]
        )
        return mat_a, mat_b

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit(
        self,
        labeled_pairs: list["tuple[dict, dict, int]"],
        epochs: int = 30,
        batch_size: int = 32,
        lr: float = 1e-2,
        validation_pairs: list["tuple[dict, dict, int]"] | None = None,
        patience: int = 8,
        verbose: bool = False,
    ) -> "DeepER":
        """Train the matcher on ``(record_a, record_b, label)`` triples.

        With ``validation_pairs``, training stops once validation loss has
        not improved for ``patience`` epochs and the best classifier
        snapshot is restored (fixed compositions only — trainable composers
        train for the full epoch budget).
        """
        if not labeled_pairs:
            raise ValueError("need at least one labeled pair")
        self.loss_history_: list[float] = []
        labeled_pairs = self._maybe_undersample(labeled_pairs)
        labels = np.array([[float(label)] for _, _, label in labeled_pairs])
        pairs = [(a, b) for a, b, _ in labeled_pairs]
        pos_weight = self._effective_pos_weight(labels)

        if self.composer is not None:
            self._fit_composer(pairs, labels, epochs, batch_size, lr, pos_weight, verbose)
        else:
            self._fit_fixed(
                pairs, labels, epochs, batch_size, lr, pos_weight, verbose,
                validation_pairs=validation_pairs, patience=patience,
            )
        self.trained_ = True
        return self

    def _record_epoch_loss(self, mean_loss: float) -> None:
        """Append to :attr:`loss_history_` and mirror into the metrics."""
        self.loss_history_.append(mean_loss)
        if _OBS.enabled:
            _OBS.series("deeper.loss_curve").append(mean_loss)
            _OBS.gauge("deeper.loss").set(mean_loss)

    def _maybe_undersample(self, labeled_pairs: list) -> list:
        if self.undersample_ratio is None:
            return labeled_pairs
        positives = [p for p in labeled_pairs if p[2] == 1]
        negatives = [p for p in labeled_pairs if p[2] == 0]
        cap = int(round(self.undersample_ratio * max(1, len(positives))))
        if len(negatives) > cap:
            idx = self._rng.choice(len(negatives), size=cap, replace=False)
            negatives = [negatives[i] for i in sorted(idx)]
        merged = positives + negatives
        order = self._rng.permutation(len(merged))
        return [merged[i] for i in order]

    def _effective_pos_weight(self, labels: np.ndarray) -> float:
        if self.pos_weight is not None:
            return self.pos_weight
        return 1.0

    def _fit_fixed(
        self, pairs, labels, epochs, batch_size, lr, pos_weight, verbose,
        validation_pairs=None, patience: int = 8,
    ) -> None:
        from repro.nn.training import EarlyStopping

        features = self._pair_features_numpy(pairs)
        optimizer = Adam(self.classifier.parameters(), lr=lr)
        stopping = None
        if validation_pairs:
            val_features = self._pair_features_numpy(
                [(a, b) for a, b, _ in validation_pairs]
            )
            val_labels = np.array([[float(y)] for _, _, y in validation_pairs])
            stopping = EarlyStopping(patience=patience)
        for epoch in range(epochs):
            inject("er.deeper.fit.epoch")  # latency-only site: epochs are not idempotent
            losses = []
            for batch in iterate_minibatches(len(pairs), batch_size, rng=self._rng):
                logits = self.classifier(Tensor(features[batch]))
                loss = bce_with_logits(logits, labels[batch], pos_weight=pos_weight)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            self._record_epoch_loss(float(np.mean(losses)))
            if stopping is not None:
                self.classifier.eval()
                val_loss = bce_with_logits(
                    self.classifier(Tensor(val_features)), val_labels,
                    pos_weight=pos_weight,
                ).item()
                self.classifier.train()
                if stopping.update(val_loss, self.classifier):
                    stopping.restore(self.classifier)
                    if verbose:
                        print(f"early stop at epoch {epoch + 1}")
                    break
            if verbose and (epoch + 1) % 10 == 0:
                print(f"epoch {epoch + 1}: loss={np.mean(losses):.4f}")
        if stopping is not None:
            stopping.restore(self.classifier)

    def _fit_composer(
        self, pairs, labels, epochs, batch_size, lr, pos_weight, verbose
    ) -> None:
        mat_a, mat_b = self._token_batches(pairs)
        params = self.classifier.parameters() + self.composer.parameters()
        optimizer = Adam(params, lr=lr)
        for epoch in range(epochs):
            inject("er.deeper.fit.epoch")  # latency-only site: epochs are not idempotent
            losses = []
            for batch in iterate_minibatches(len(pairs), batch_size, rng=self._rng):
                u = self.composer(Tensor(mat_a[batch]))
                v = self.composer(Tensor(mat_b[batch]))
                logits = self.classifier(self._pair_tensor(u, v))
                loss = bce_with_logits(logits, labels[batch], pos_weight=pos_weight)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(params, 5.0)
                optimizer.step()
                losses.append(loss.item())
            self._record_epoch_loss(float(np.mean(losses)))
            if verbose and (epoch + 1) % 5 == 0:
                print(f"epoch {epoch + 1}: loss={np.mean(losses):.4f}")

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Match probability per pair.

        Inference runs in eval mode, then each module is restored to the
        mode it was in *before* the call — a matcher deliberately left in
        eval mode (the read-only serving contract of :mod:`repro.serve`)
        stays in eval mode instead of being silently flipped to train.
        """
        check_fitted(self, "trained_")
        if not pairs:
            return np.zeros(0)
        classifier_was_training = self.classifier.training
        self.classifier.eval()
        if self.composer is not None:
            composer_was_training = self.composer.training
            self.composer.eval()
            mat_a, mat_b = self._token_batches(pairs)
            u = self.composer(Tensor(mat_a))
            v = self.composer(Tensor(mat_b))
            logits = self.classifier(self._pair_tensor(u, v)).data
            if composer_was_training:
                self.composer.train()
        else:
            features = self._pair_features_numpy(pairs)
            logits = self.classifier(Tensor(features)).data
        if classifier_was_training:
            self.classifier.train()
        return sigmoid(logits[:, 0])

    def predict(self, pairs: list[Pair], threshold: float = 0.5) -> np.ndarray:
        """Binary match decisions."""
        return (self.predict_proba(pairs) >= threshold).astype(int)

    def parameter_fingerprint(self) -> str:
        """sha1 over every parameter's bytes, in parameter order.

        Two matchers share a fingerprint iff their weights are
        byte-identical, which is what the serving layer's read-only
        contract asserts around traffic and what the model registry
        (:mod:`repro.loop`) keys candidate versions by.
        """
        digest = hashlib.sha1()
        for param in self.classifier.parameters():
            digest.update(np.ascontiguousarray(param.data).tobytes())
        if self.composer is not None:
            for param in self.composer.parameters():
                digest.update(np.ascontiguousarray(param.data).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Persist the trained matcher to an ``.npz`` file.

        Saves the classifier (and composer, if any) weights plus the
        configuration needed to rebuild the architecture.  The word model
        is *not* embedded — persist it separately (e.g. via
        :class:`~repro.embeddings.pretrained.EmbeddingStore`) and pass it
        to :meth:`load`; pre-trained embeddings are a shared asset, not
        per-matcher state.
        """
        check_fitted(self, "trained_")
        state = self.classifier.state_dict()
        payload = {f"classifier__{k}": v for k, v in state.items()}
        if self.composer is not None:
            payload.update(
                {f"composer__{k}": v for k, v in self.composer.state_dict().items()}
            )
        np.savez(
            path,
            columns=np.array(self.columns, dtype=object),
            composition=self.composition,
            max_tokens=self.max_tokens,
            **payload,
        )

    @classmethod
    def load(
        cls,
        path: str,
        word_model: SkipGram,
        vector_fn: VectorFn | None = None,
    ) -> "DeepER":
        """Rebuild a matcher saved by :meth:`save` around ``word_model``."""
        data = np.load(path, allow_pickle=True)
        matcher = cls(
            word_model,
            [str(c) for c in data["columns"]],
            composition=str(data["composition"]),
            max_tokens=int(data["max_tokens"]),
            vector_fn=vector_fn,
            rng=0,
        )
        classifier_state = {
            key.split("__", 1)[1]: data[key]
            for key in data.files
            if key.startswith("classifier__")
        }
        matcher.classifier.load_state_dict(classifier_state)
        composer_state = {
            key.split("__", 1)[1]: data[key]
            for key in data.files
            if key.startswith("composer__")
        }
        if composer_state:
            matcher.composer.load_state_dict(composer_state)
        matcher.trained_ = True
        return matcher


class MatcherHead(Module):
    """Standalone pair-classifier head reusable outside DeepER.

    Consumes precomputed pair-feature matrices; used by the weak-supervision
    glue (train from probabilistic labels) and the active-learning loop.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.net = mlp([input_dim, hidden_dim, 1], rng=ensure_rng(rng))

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 30,
        batch_size: int = 32,
        lr: float = 1e-2,
        sample_weight: np.ndarray | None = None,
        pos_weight: float = 1.0,
        rng: np.random.Generator | int | None = 0,
    ) -> "MatcherHead":
        labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        optimizer = Adam(self.net.parameters(), lr=lr)
        rng = ensure_rng(rng)
        for _ in range(epochs):
            for batch in iterate_minibatches(len(labels), batch_size, rng=rng):
                logits = self.net(Tensor(features[batch]))
                sw = sample_weight[batch].reshape(-1, 1) if sample_weight is not None else None
                loss = bce_with_logits(logits, labels[batch], pos_weight=pos_weight, sample_weight=sw)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        was_training = self.net.training
        self.net.eval()
        logits = self.net(Tensor(features)).data[:, 0]
        if was_training:
            self.net.train()
        return sigmoid(logits)
