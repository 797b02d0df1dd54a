"""Question answering over the scholarly knowledge graph."""
