"""The Random Error Model (REM) for synthetic labels.

Section 7.1.2: "The probability that a triple in the KG is correct is a fixed
error rate r_e in [0, 1]."  (The paper phrases the parameter as an error rate;
we expose both the error rate and the resulting accuracy to avoid off-by-one
confusion in experiment code.)
"""

from __future__ import annotations

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.labels.oracle import LabelOracle

__all__ = ["RandomErrorModel"]


class RandomErrorModel:
    """Label every triple correct independently with probability ``1 - error_rate``.

    Parameters
    ----------
    error_rate:
        Probability that a triple is *incorrect* (``r_e`` in the paper).
    seed:
        Seed or generator for reproducible label draws.

    Examples
    --------
    >>> model = RandomErrorModel(error_rate=0.1, seed=7)
    >>> model.accuracy
    0.9
    """

    def __init__(self, error_rate: float, seed: int | np.random.Generator | None = None) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate
        self._rng = np.random.default_rng(seed)

    @property
    def accuracy(self) -> float:
        """Expected overall accuracy ``1 - error_rate``."""
        return 1.0 - self.error_rate

    def generate(self, graph: KnowledgeGraph) -> LabelOracle:
        """Draw a label for every triple in ``graph``, in position order."""
        labels = self._rng.random(graph.num_triples) >= self.error_rate
        return LabelOracle.from_positions(graph, labels)

    @classmethod
    def with_accuracy(
        cls, accuracy: float, seed: int | np.random.Generator | None = None
    ) -> "RandomErrorModel":
        """Construct a model from a target accuracy instead of an error rate.

        Raises
        ------
        ValueError
            If ``accuracy`` is outside [0, 1] (or NaN).  Validating here keeps
            the message phrased in the caller's terms instead of surfacing a
            confusing complaint about the derived ``error_rate``.
        """
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        return cls(error_rate=1.0 - accuracy, seed=seed)
