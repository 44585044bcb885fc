"""Statistical building blocks shared by every sampling design.

* confidence intervals and margins of error (:mod:`repro.stats.ci`);
* running (Welford) moments for incremental estimation
  (:mod:`repro.stats.running`);
* stratum construction and sample allocation
  (:mod:`repro.stats.allocation`), including the cumulative-square-root-of-
  frequency rule of Dalenius & Hodges used by the paper's size stratification.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".ci": (
            "ConfidenceInterval",
            "normal_critical_value",
            "normal_interval",
            "wilson_interval",
            "margin_of_error",
            "required_sample_size",
        ),
        ".running": ("RunningMean",),
        ".allocation": (
            "proportional_allocation",
            "neyman_allocation",
            "deficit_allocation",
            "cumulative_sqrt_frequency_boundaries",
        ),
    },
)
