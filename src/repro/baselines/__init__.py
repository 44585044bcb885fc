"""Baselines the paper compares against.

Besides simple random sampling (available as a first-class design in
:mod:`repro.sampling`), the paper's main competitor is **KGEval**
(Ojha & Talukdar, EMNLP 2017), which exploits coupling constraints between
triples to propagate a few manually obtained labels across the graph.  The
reimplementation here (:mod:`repro.baselines.kgeval`) follows the same
select → annotate → propagate loop over a coupling-constraint graph and
exposes the quantities Table 6 compares: machine time spent selecting triples,
number of triples annotated, annotation cost, and the resulting (biased)
accuracy estimate.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".coupling": ("CouplingGraphBuilder",),
        ".kgeval": ("KGEvalBaseline", "KGEvalResult"),
    },
)
