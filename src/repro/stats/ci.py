"""Confidence intervals and margins of error.

The paper constructs Normal-approximation confidence intervals (Eq. 1) around
each estimator and stops the iterative evaluation once the margin of error
(half-width of the interval) drops below a user threshold.  A Wilson interval
is also provided for the proportion case: it behaves better for highly
accurate KGs such as YAGO (99 % accuracy), where the Normal interval collapses
to zero width whenever a small sample happens to contain no errors.

The Normal quantile is a pure-Python port of the Cephes math library's
``ndtri`` with the same coefficients and operation order, so critical values,
stopping decisions and every pinned trajectory are bit-identical to the
compiled routine, and importing the package loads no statistics library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "ConfidenceInterval",
    "normal_critical_value",
    "normal_interval",
    "wilson_interval",
    "margin_of_error",
    "required_sample_size",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    lower: float
    upper: float
    confidence_level: float

    @property
    def margin_of_error(self) -> float:
        """Half-width of the interval (the paper's MoE)."""
        return (self.upper - self.lower) / 2.0

    @property
    def width(self) -> float:
        """Full width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def clipped(self, low: float = 0.0, high: float = 1.0) -> "ConfidenceInterval":
        """Clip the interval to ``[low, high]`` (accuracies live in [0, 1])."""
        return ConfidenceInterval(
            estimate=min(max(self.estimate, low), high),
            lower=max(self.lower, low),
            upper=min(self.upper, high),
            confidence_level=self.confidence_level,
        )


# Cephes ndtri: rational approximations in y - 0.5 for the central region
# (|y - 0.5| <= 3/8) and in 1/sqrt(-2 log y) for the tails, split at
# sqrt(-2 log y) = 8, i.e. y = exp(-32).  Leading 1.0 of Q0/Q1/Q2 implied.
_SQRT_2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of ``coef[0] * x**n + ... + coef[n]`` (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """As :func:`_polevl` with an implied leading coefficient 1 (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard Normal CDF on [0, 1], bit-identical to Cephes ``ndtri``."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y, negate = y0, True
    if y > 1.0 - _EXP_MINUS_2:
        y, negate = 1.0 - y, False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@functools.lru_cache(maxsize=64)
def normal_critical_value(confidence_level: float) -> float:
    """Return ``z_{alpha/2}`` for a two-sided interval at ``confidence_level``.

    For example ``normal_critical_value(0.95)`` is approximately 1.96.  The
    value is memoised per confidence level: the evaluation loop asks for the
    same one after every round.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence_level must be in (0, 1), got {confidence_level}")
    alpha = 1.0 - confidence_level
    return _ndtri(1.0 - alpha / 2.0)


def margin_of_error(std_error: float, confidence_level: float) -> float:
    """Margin of error ``z_{alpha/2} * std_error`` (Eq. 1)."""
    if std_error < 0:
        raise ValueError("std_error must be non-negative")
    return normal_critical_value(confidence_level) * std_error


def normal_interval(
    estimate: float, std_error: float, confidence_level: float
) -> ConfidenceInterval:
    """Normal-approximation interval ``estimate ± z * std_error`` (Eq. 1)."""
    moe = margin_of_error(std_error, confidence_level)
    return ConfidenceInterval(
        estimate=estimate,
        lower=estimate - moe,
        upper=estimate + moe,
        confidence_level=confidence_level,
    )


def wilson_interval(successes: int, trials: int, confidence_level: float) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    More reliable than the Normal interval when the proportion is near 0 or 1
    or the sample is small — exactly the YAGO situation in the paper, where an
    empirical interval is reported instead of a symmetric one.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be between 0 and trials")
    z = normal_critical_value(confidence_level)
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denominator
    spread = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denominator
    )
    # Guard against floating-point round-off pushing the point estimate just
    # outside the interval at the extremes (e.g. successes == trials).
    lower = max(0.0, min(centre - spread, p_hat))
    upper = min(1.0, max(centre + spread, p_hat))
    return ConfidenceInterval(
        estimate=p_hat,
        lower=lower,
        upper=upper,
        confidence_level=confidence_level,
    )


def required_sample_size(variance: float, moe_target: float, confidence_level: float) -> int:
    """Smallest ``n`` with ``z * sqrt(variance / n) <= moe_target``.

    This is the closed-form sample size ``n = variance * z^2 / eps^2`` used in
    the SRS cost analysis (Section 5.1) and in the optimal-m objective
    (Eq. 12), rounded up to an integer.
    """
    if moe_target <= 0:
        raise ValueError("moe_target must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    z = normal_critical_value(confidence_level)
    return max(1, math.ceil(variance * z * z / (moe_target * moe_target)))
