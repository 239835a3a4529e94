"""Distributed representations for data curation (paper Section 3.1):
cell embeddings, heterogeneous-graph embeddings, compositional tuple /
column / table / database embeddings, and pre-trained model management."""

from repro.embeddings.cell import CellEmbedder, cooccurrence_hit_rate, tuple_documents
from repro.embeddings.compose import (
    LSTMComposer,
    TupleEmbedder,
    column_embedding,
    database_embedding,
    sif_weights,
    table_embedding,
)
from repro.embeddings.graph import GraphEmbedder, TableGraphEmbedder
from repro.embeddings.pretrained import EmbeddingStore, fine_tune

__all__ = [
    "CellEmbedder",
    "tuple_documents",
    "cooccurrence_hit_rate",
    "GraphEmbedder",
    "TableGraphEmbedder",
    "TupleEmbedder",
    "LSTMComposer",
    "sif_weights",
    "column_embedding",
    "table_embedding",
    "database_embedding",
    "EmbeddingStore",
    "fine_tune",
]
