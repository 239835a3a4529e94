"""Enterprise knowledge graph (EKG) — paper Section 5.1, footnote 3.

"A graph structure whose nodes are data elements such as tables, attributes
and reference data such as ontologies and mapping tables and whose edges
represent different relationships between nodes."  Discovered semantic
links are materialised here so discovery queries can walk from a hit to
thematically related datasets.
"""

from __future__ import annotations

from repro.data.table import Table


def table_node(table_name: str) -> str:
    """EKG node id for a table."""
    return f"table:{table_name}"


def column_node(table_name: str, column: str) -> str:
    """EKG node id for a column."""
    return f"column:{table_name}.{column}"


def external_node(term: str) -> str:
    """EKG node id for an external reference term."""
    return f"external:{term}"


class EnterpriseKnowledgeGraph:
    """Typed graph over tables, columns and external reference terms."""

    def __init__(self) -> None:
        import networkx as nx  # deferred: only an EKG needs it

        self.graph = nx.Graph()
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_table(self, table: Table) -> None:
        """Register a table and its columns (``contains`` edges)."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        t_node = table_node(table.name)
        self.graph.add_node(t_node, kind="table")
        for column in table.columns:
            c_node = column_node(table.name, column)
            self.graph.add_node(c_node, kind="column", table=table.name, column=column)
            self.graph.add_edge(t_node, c_node, relation="contains")

    def add_external(self, term: str, description: str = "") -> None:
        """Register an ontology/dictionary term."""
        self.graph.add_node(external_node(term), kind="external", description=description)

    def add_semantic_link(
        self, node_a: str, node_b: str, score: float, source: str = "semantic"
    ) -> None:
        """Record a discovered link between two registered nodes."""
        for node in (node_a, node_b):
            if node not in self.graph:
                raise KeyError(f"node {node!r} is not registered in the EKG")
        self.graph.add_edge(node_a, node_b, relation="link", score=score, source=source)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def tables(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)

    def table(self, name: str) -> Table:
        """The registered table object for ``name``."""
        return self._tables[name]

    def links(self, min_score: float = 0.0) -> list[tuple[str, str, float]]:
        """All semantic links with score ≥ ``min_score``."""
        out = []
        for a, b, data in self.graph.edges(data=True):
            if data.get("relation") == "link" and data.get("score", 0.0) >= min_score:
                out.append((a, b, float(data["score"])))
        return sorted(out, key=lambda x: -x[2])

    def related_tables(self, table_name: str, max_hops: int = 2) -> list[str]:
        """Tables reachable from ``table_name`` through link edges.

        Walks contains/link edges up to ``max_hops`` link traversals — the
        "simultaneously return other datasets that are thematically
        related" behaviour of the discovery engine.
        """
        start = table_node(table_name)
        if start not in self.graph:
            raise KeyError(f"table {table_name!r} is not registered")
        frontier = {start}
        seen_tables: set[str] = set()
        visited: set[str] = {start}
        for _ in range(max_hops):
            next_frontier: set[str] = set()
            for node in frontier:
                for neighbour in self.graph[node]:
                    if neighbour in visited:
                        continue
                    visited.add(neighbour)
                    next_frontier.add(neighbour)
                    data = self.graph.nodes[neighbour]
                    if data.get("kind") == "table":
                        seen_tables.add(neighbour)
                    elif data.get("kind") == "column":
                        owner = table_node(data["table"])
                        if owner != start:
                            seen_tables.add(owner)
            frontier = next_frontier
        return sorted(
            name.split(":", 1)[1] for name in seen_tables if name != start
        )
