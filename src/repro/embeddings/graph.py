"""Heterogeneous-graph cell embeddings (paper Section 3.1, Figure 4).

The "more natural (sophisticated) model for DC": convert a relation to the
Figure-4 graph (``repro.data.graph``) and learn node embeddings with
weighted random walks + skip-gram (DeepWalk-style).  FD edges carry higher
weight, so walks — and therefore embeddings — respect integrity
constraints, which the tuple-as-document adaptation cannot do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.dependencies import FunctionalDependency
from repro.data.graph import cell_node, table_to_graph
from repro.data.table import Table
from repro.text.similarity import cosine
from repro.text.word2vec import SkipGram
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted, check_positive_int

if TYPE_CHECKING:
    import networkx as nx


class GraphEmbedder:
    """DeepWalk-style node embeddings over a weighted graph.

    Parameters
    ----------
    dim, window, epochs, negatives:
        Passed through to the skip-gram trainer over walk sequences.
    walk_length, walks_per_node:
        Random-walk corpus size.
    """

    def __init__(
        self,
        dim: int = 32,
        walk_length: int = 12,
        walks_per_node: int = 8,
        window: int = 4,
        epochs: int = 5,
        negatives: int = 5,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive_int("walk_length", walk_length)
        check_positive_int("walks_per_node", walks_per_node)
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self._rng = ensure_rng(rng)
        self.model = SkipGram(
            dim=dim, window=window, epochs=epochs, negatives=negatives, rng=self._rng
        )
        self.graph_: nx.Graph | None = None

    def fit(self, graph: nx.Graph) -> "GraphEmbedder":
        """Learn embeddings for every node of ``graph``."""
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot embed an empty graph")
        self.graph_ = graph
        walks = self._generate_walks(graph)
        self.model.fit(walks)
        return self

    def _generate_walks(self, graph: nx.Graph) -> list[list[str]]:
        """Weighted random walks: next node ∝ edge weight."""
        # Precompute neighbour arrays and cumulative weights per node.
        neighbours: dict[str, tuple[list[str], np.ndarray]] = {}
        for node in graph.nodes:
            adjacent = list(graph[node])
            if not adjacent:
                neighbours[node] = ([], np.zeros(0))
                continue
            weights = np.array([graph[node][nbr].get("weight", 1.0) for nbr in adjacent])
            neighbours[node] = (adjacent, np.cumsum(weights / weights.sum()))
        walks: list[list[str]] = []
        nodes = list(graph.nodes)
        for _ in range(self.walks_per_node):
            order = self._rng.permutation(len(nodes))
            for idx in order:
                walk = [nodes[idx]]
                for _ in range(self.walk_length - 1):
                    adjacent, cumulative = neighbours[walk[-1]]
                    if not adjacent:
                        break
                    draw = self._rng.random()
                    walk.append(adjacent[int(np.searchsorted(cumulative, draw))])
                walks.append(walk)
        return walks

    def vector(self, node: str) -> np.ndarray:
        """Embedding of a node id; zero vector when the node is unknown."""
        check_fitted(self, "graph_")
        if node in self.model:
            return self.model.vector(node)
        return np.zeros(self.model.dim)

    def similarity(self, node_a: str, node_b: str) -> float:
        return cosine(self.vector(node_a), self.vector(node_b))

    def association(self, node_a: str, node_b: str) -> float:
        """First-order walk co-occurrence score (see
        :meth:`SkipGram.first_order_similarity`): high iff the two nodes
        actually appear near each other on random walks — the right signal
        for "are these cells linked in the graph", robust to the
        anisotropy that washes out plain cosine on small graphs."""
        check_fitted(self, "graph_")
        return self.model.first_order_similarity(node_a, node_b)

    def most_similar(self, node: str, topn: int = 5) -> list[tuple[str, float]]:
        check_fitted(self, "graph_")
        return self.model.most_similar(node, topn=topn)


class TableGraphEmbedder:
    """Convenience wrapper: relation (+FDs) → Figure-4 graph → embeddings.

    ``use_fd_edges=False`` gives the ablation arm of experiment E8.
    """

    def __init__(
        self,
        dim: int = 32,
        use_fd_edges: bool = True,
        fd_weight: float = 3.0,
        rng: np.random.Generator | int | None = None,
        **walk_kwargs: object,
    ) -> None:
        self.use_fd_edges = use_fd_edges
        self.fd_weight = fd_weight
        self.embedder = GraphEmbedder(dim=dim, rng=rng, **walk_kwargs)

    def fit(self, table: Table, fds: list[FunctionalDependency] | None = None) -> "TableGraphEmbedder":
        fds = fds if self.use_fd_edges else []
        graph = table_to_graph(table, fds, fd_weight=self.fd_weight)
        self.embedder.fit(graph)
        return self

    def cell_vector(self, column: str, value: object) -> np.ndarray:
        """Embedding of the (column, value) cell node."""
        return self.embedder.vector(cell_node(column, value))

    def cell_similarity(
        self, column_a: str, value_a: object, column_b: str, value_b: object
    ) -> float:
        return cosine(self.cell_vector(column_a, value_a), self.cell_vector(column_b, value_b))

    def cell_association(
        self, column_a: str, value_a: object, column_b: str, value_b: object
    ) -> float:
        """First-order association between two cells (graph proximity)."""
        return self.embedder.association(
            cell_node(column_a, value_a), cell_node(column_b, value_b)
        )
