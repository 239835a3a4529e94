"""Heterogeneous-graph embedding tests (Figure 4, experiment E8's core)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.data import World, table_to_graph
from repro.embeddings import GraphEmbedder, TableGraphEmbedder


@pytest.fixture(scope="module")
def employee_setup():
    table, fds = World(0).employees_table(60)
    return table, fds


class TestGraphEmbedder:
    def test_embeds_every_node(self):
        graph = nx.karate_club_graph()
        graph = nx.relabel_nodes(graph, {n: f"n{n}" for n in graph.nodes})
        nx.set_edge_attributes(graph, 1.0, "weight")
        embedder = GraphEmbedder(dim=12, epochs=2, walks_per_node=4, rng=0).fit(graph)
        for node in graph.nodes:
            assert embedder.vector(str(node)).shape == (12,)

    def test_unknown_node_zero(self):
        graph = nx.path_graph(4)
        graph = nx.relabel_nodes(graph, str)
        embedder = GraphEmbedder(dim=8, epochs=2, rng=0).fit(graph)
        assert np.allclose(embedder.vector("missing"), 0.0)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            GraphEmbedder().fit(nx.Graph())

    def test_invalid_walk_params(self):
        with pytest.raises(ValueError):
            GraphEmbedder(walk_length=0)
        with pytest.raises(ValueError):
            GraphEmbedder(walks_per_node=0)
        with pytest.raises(ValueError):
            GraphEmbedder(walk_length=2.5)
        with pytest.raises(ValueError):
            GraphEmbedder(walks_per_node=2.0)

    def test_community_structure_in_embeddings(self):
        """Two cliques joined by one bridge: within-clique similarity must
        exceed cross-clique similarity."""
        graph = nx.Graph()
        for i in range(5):
            for j in range(i + 1, 5):
                graph.add_edge(f"a{i}", f"a{j}", weight=1.0)
                graph.add_edge(f"b{i}", f"b{j}", weight=1.0)
        graph.add_edge("a0", "b0", weight=0.2)
        embedder = GraphEmbedder(dim=16, epochs=5, walks_per_node=10, rng=0).fit(graph)
        within = embedder.similarity("a1", "a2")
        across = embedder.similarity("a1", "b2")
        assert within > across

    def test_isolated_node_gets_vector(self):
        graph = nx.Graph()
        graph.add_edge("x", "y", weight=1.0)
        graph.add_node("lonely")
        embedder = GraphEmbedder(dim=8, epochs=2, rng=0).fit(graph)
        assert embedder.vector("lonely").shape == (8,)


class TestTableGraphEmbedder:
    def test_fd_linked_cells_more_similar_than_unrelated(self, employee_setup):
        table, fds = employee_setup
        embedder = TableGraphEmbedder(dim=24, rng=0, walks_per_node=6).fit(table, fds)
        dept_ids = table.distinct_values("department_id")
        linked, unlinked = [], []
        for dept_id in dept_ids:
            row = table.column("department_id").index(dept_id)
            name = table.cell(row, "department_name")
            linked.append(embedder.cell_similarity("department_id", dept_id, "department_name", name))
            for other in table.distinct_values("department_name"):
                if other != name:
                    unlinked.append(
                        embedder.cell_similarity("department_id", dept_id, "department_name", other)
                    )
        assert np.mean(linked) > np.mean(unlinked)

    def test_fd_edges_ablatable(self, employee_setup):
        table, fds = employee_setup
        with_fd = TableGraphEmbedder(dim=8, use_fd_edges=True, rng=0, walks_per_node=2)
        without_fd = TableGraphEmbedder(dim=8, use_fd_edges=False, rng=0, walks_per_node=2)
        with_fd.fit(table, fds)
        without_fd.fit(table, fds)
        g_with = table_to_graph(table, fds)
        g_without = table_to_graph(table, [])
        fd_edges_with = sum(
            1 for _, _, d in g_with.edges(data=True) if "fd" in d["kinds"]
        )
        assert fd_edges_with > 0
        assert all(
            "fd" not in d["kinds"] for _, _, d in g_without.edges(data=True)
        )

    def test_unknown_cell_zero_vector(self, employee_setup):
        table, fds = employee_setup
        embedder = TableGraphEmbedder(dim=8, rng=0, walks_per_node=2).fit(table, fds)
        assert np.allclose(embedder.cell_vector("department_id", "999"), 0.0)
