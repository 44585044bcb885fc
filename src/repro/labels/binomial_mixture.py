"""The Binomial Mixture Model (BMM) for synthetic labels.

Section 7.1.2 of the paper: the number of correct triples in the ``i``-th
entity cluster follows ``Binomial(M_i, p_i)`` where the per-cluster success
probability ``p_i`` is a sigmoid-like function of the cluster size (Eq. 15):

    p_i = 0.5 + eps                      if M_i < k
    p_i = 1 / (1 + exp(-c (M_i - k))) + eps   if M_i >= k

with ``eps ~ Normal(0, sigma)`` a small per-cluster noise term and ``c >= 0``
scaling how strongly cluster size drives accuracy.  Larger ``sigma`` and
smaller ``c`` weaken the size/accuracy correlation.  Paper defaults:
``k = 3``, ``c = 0.01``, ``sigma = 0.1``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle

__all__ = ["BinomialMixtureModel"]


class BinomialMixtureModel:
    """Generate labels whose per-cluster accuracy follows Eq. (15).

    Parameters
    ----------
    c:
        Sigmoid steepness; larger values make cluster size a stronger predictor
        of entity accuracy.  Paper default 0.01.
    sigma:
        Standard deviation of the per-cluster noise term ``eps``.  Paper
        default 0.1.
    k:
        Size threshold below which the base success probability is 0.5.
        Paper default 3.
    rho:
        Within-cluster label correlation in [0, 1].  With probability ``rho``
        a triple copies a single cluster-wide Bernoulli(``p_i``) outcome and
        with probability ``1 - rho`` it is labelled independently, which makes
        ``rho`` the correlation between any two labels of the same cluster
        while keeping every marginal at ``p_i``.  ``rho = 0`` (the default)
        reproduces the original independent-label model byte-for-byte on the
        same seed.
    seed:
        Seed or generator for reproducible draws.
    """

    def __init__(
        self,
        c: float = 0.01,
        sigma: float = 0.1,
        k: int = 3,
        rho: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        # NaN fails every comparison, so each bound is checked as "not inside".
        if not 0 <= c < math.inf:
            raise ValueError(f"c must be finite and non-negative, got {c}")
        if not 0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
        if not 1 <= k < math.inf:
            raise ValueError(f"k must be finite and at least 1, got {k}")
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.c = c
        self.sigma = sigma
        self.k = k
        self.rho = rho
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Eq. (15)
    # ------------------------------------------------------------------ #
    def cluster_probability(self, cluster_size: int, noise: float = 0.0) -> float:
        """Return ``p_i`` for a cluster of the given size, clipped to [0, 1]."""
        if cluster_size < self.k:
            base = 0.5
        else:
            base = 1.0 / (1.0 + np.exp(-self.c * (cluster_size - self.k)))
        return float(np.clip(base + noise, 0.0, 1.0))

    # ------------------------------------------------------------------ #
    # Label generation
    # ------------------------------------------------------------------ #
    def generate(self, graph: KnowledgeGraph) -> LabelOracle:
        """Draw per-cluster accuracies and per-triple labels for ``graph``.

        For each cluster we draw ``eps``, compute ``p_i`` via Eq. (15) and then
        label each triple of the cluster correct independently with probability
        ``p_i`` (which makes the number of correct triples Binomial(M_i, p_i)).

        With ``rho > 0`` each cluster additionally draws one shared
        Bernoulli(``p_i``) outcome; every triple copies it with probability
        ``rho`` and keeps its independent draw otherwise, producing
        equi-correlated labels with correlation ``rho`` and unchanged
        marginals.
        """
        # Clusters in row order; each writes its own slice of the CSR index.
        # The normal and uniform draws interleave per cluster, so the loop stays.
        offsets, positions = graph.backend.csr_arrays()
        labels = np.empty(graph.num_triples, dtype=bool)
        for row, size in enumerate(np.diff(offsets).tolist()):
            cluster = positions[offsets[row] : offsets[row + 1]]
            noise = float(self._rng.normal(0.0, self.sigma)) if self.sigma > 0 else 0.0
            probability = self.cluster_probability(size, noise)
            if self.rho == 0.0:
                # Exactly the original stream: one uniform block per cluster.
                labels[cluster] = self._rng.random(size) < probability
            else:
                shared = bool(self._rng.random() < probability)
                mixture = self._rng.random(size)
                draws = self._rng.random(size)
                labels[cluster] = np.where(mixture < self.rho, shared, draws < probability)
        return LabelOracle.from_positions(graph, labels)

    def expected_cluster_accuracy(self, cluster_size: int) -> float:
        """Expected ``p_i`` (noise-free) for a given cluster size."""
        return self.cluster_probability(cluster_size, noise=0.0)
