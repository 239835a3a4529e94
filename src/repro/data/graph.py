"""Table → heterogeneous graph conversion (paper Figure 4).

Each relation is modelled as a graph whose nodes are unique (column, value)
pairs.  Two kinds of edges:

* **co-occurrence** (undirected): two values appear in the same tuple;
* **fd** (directed): a functional dependency links the LHS value to the RHS
  value it determines.

The graph feeds the random-walk cell-embedding learner in
``repro.embeddings.graph``, giving representations that are "cognizant of
both content and constraints".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table
from repro.data.types import is_missing

if TYPE_CHECKING:  # networkx is imported where a graph is built or measured
    import networkx as nx


def cell_node(column: str, value: object) -> str:
    """Canonical node id for a cell value: ``column=value``."""
    return f"{column}={value}"


def table_to_graph(
    table: Table,
    fds: list[FunctionalDependency] | None = None,
    cooccurrence_weight: float = 1.0,
    fd_weight: float = 2.0,
) -> nx.Graph:
    """Build the Figure-4 heterogeneous graph of a relation.

    Returned as an undirected weighted graph (random walks do not need edge
    direction; FD direction is preserved in edge attributes).  Parallel
    co-occurrences accumulate weight, so frequent value pairs are walked
    more often.  FD edges get ``fd_weight`` per supporting tuple, biasing
    walks toward constraint-linked values.
    """
    import networkx as nx

    graph = nx.Graph(name=table.name)
    fds = fds or []
    for i in range(table.num_rows):
        present = [
            (column, table.cell(i, column))
            for column in table.columns
            if not is_missing(table.cell(i, column))
        ]
        for column, value in present:
            node = cell_node(column, value)
            if not graph.has_node(node):
                graph.add_node(node, column=column, value=value)
        # Co-occurrence edges between every pair of values in the tuple.
        for a in range(len(present)):
            for b in range(a + 1, len(present)):
                node_a = cell_node(*present[a])
                node_b = cell_node(*present[b])
                _bump_edge(graph, node_a, node_b, cooccurrence_weight, "cooccurrence")
        # FD edges (heavier) between determining and determined values.
        row = dict(present)
        for fd in fds:
            if fd.rhs not in row or any(c not in row for c in fd.lhs):
                continue
            rhs_node = cell_node(fd.rhs, row[fd.rhs])
            for lhs_col in fd.lhs:
                lhs_node = cell_node(lhs_col, row[lhs_col])
                _bump_edge(graph, lhs_node, rhs_node, fd_weight, "fd")
    return graph


def _bump_edge(graph: nx.Graph, a: str, b: str, weight: float, kind: str) -> None:
    if graph.has_edge(a, b):
        graph[a][b]["weight"] += weight
        kinds = graph[a][b].setdefault("kinds", set())
        kinds.add(kind)
    else:
        graph.add_edge(a, b, weight=weight, kinds={kind})


def graph_statistics(graph: nx.Graph) -> dict[str, float]:
    """Summary stats used in reports: nodes, edges, fd-edge share, density."""
    import networkx as nx

    n_edges = graph.number_of_edges()
    fd_edges = sum(1 for _, _, d in graph.edges(data=True) if "fd" in d.get("kinds", set()))
    return {
        "nodes": float(graph.number_of_nodes()),
        "edges": float(n_edges),
        "fd_edge_fraction": fd_edges / n_edges if n_edges else 0.0,
        "density": nx.density(graph),
    }
