"""Long-lived multi-session evaluation service (``repro serve``).

The batch commands pay full CLI startup, graph construction and plan
building for every estimate.  This package turns the same machinery into a
continuously-available daemon: graphs stay attached across requests,
evaluation *sessions* share one admission queue, and the latest
:class:`~repro.core.result.EvaluationReport` of every session is an O(1)
cached read — never a sampling run.

* :mod:`repro.serve.protocol` — request framing and the mutual HMAC
  handshake on the authenticated v2 wire (serve-specific roles).
* :mod:`repro.serve.session` — one evaluation session: spec validation,
  evaluator construction, checkpoint/restore via ``evolving/state.py``.
* :mod:`repro.serve.server` — :class:`EvalServer`: accept loop, session
  registry, bounded admission queue, graceful drain.
* :mod:`repro.serve.client` — :class:`ServeClient`: the scripting API the
  ``repro client`` CLI wraps.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".server": ("EvalServer",),
        ".client": ("ServeClient", "ServeRequestError"),
    },
)
