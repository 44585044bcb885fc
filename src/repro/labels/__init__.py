"""Ground-truth correctness labels for knowledge-graph triples.

The paper evaluates on KGs with human-annotated gold labels (NELL, YAGO,
MOVIE) and on synthetic label sets (MOVIE-SYN, Section 7.1.2) generated by two
models:

* the **Random Error Model** (REM): every triple is correct independently with
  a fixed probability;
* the **Binomial Mixture Model** (BMM): the per-entity accuracy follows a
  sigmoid function of the cluster size (Eq. 15), capturing the empirical
  observation of Figure 3 that larger clusters tend to be more accurate
  (optionally with within-cluster label correlation ``rho``);
* the **Adversarial Cluster Model**: a worst-case stress model that
  concentrates all error mass in the largest clusters, breaking the smooth
  size/accuracy relationship the cluster designs rely on.

A :class:`~repro.labels.oracle.LabelOracle` wraps a triple→bool mapping or,
as every model above returns it, a label array aligned with the graph's triple
positions; it is what the simulated annotator consults.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".oracle": ("LabelOracle",),
        ".random_error": ("RandomErrorModel",),
        ".binomial_mixture": ("BinomialMixtureModel",),
        ".adversarial": ("AdversarialClusterModel",),
    },
)
