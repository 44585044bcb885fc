"""Knowledge-graph data model.

This subpackage provides the substrate on which every sampling design in the
paper operates: an immutable :class:`~repro.kg.triple.Triple`, a
:class:`~repro.kg.graph.KnowledgeGraph` indexed by entity cluster (all
triples sharing a subject id), an append-only evolution model
(:class:`~repro.kg.updates.UpdateBatch`,
:class:`~repro.kg.updates.EvolvingKnowledgeGraph`), plain-text I/O and
cluster-level statistics.

Physical storage is pluggable (see :mod:`repro.storage`): the default
columnar backend packs triples into interned ``int32`` NumPy columns with a
CSR cluster index for million-triple graphs, zero-copy cluster position
slices, persistent/memory-mapped snapshots and streaming ingest; the SQLite
backend keeps graphs larger than RAM on disk.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".triple": ("Triple",),
        ".graph": ("EntityCluster", "KnowledgeGraph"),
        ".updates": ("UpdateBatch", "EvolvingKnowledgeGraph"),
        ".statistics": ("ClusterSizeSummary", "cluster_size_summary", "entity_accuracy_by_size"),
    },
)
