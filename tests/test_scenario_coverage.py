"""Statistical self-test of the scenario coverage gate (SRS / Bernoulli case).

The ``srs-bernoulli-exact`` scenario is the one pack member with a
closed-form answer: SRS over i.i.d. Bernoulli(0.9) labels at a pinned sample
size of 140 is the textbook Eq. (1) setting, so its empirical 95% CI coverage
must land inside the Wilson band around 0.95.  The 200-replication exact run
is marked ``slow``; the default leg keeps a 50-replication smoke variant so
CI still exercises the full path.

``test_sequential_stopping_undercovers`` pins the *reason* the exact scenario
needs a fixed n: letting the engine stop at the first satisfied MoE is
optional stopping, and its coverage sits measurably below nominal.
"""

from __future__ import annotations

import pytest

from repro.scenarios import builtin_pack, run_scenario
from repro.stats.ci import wilson_interval


def _exact_spec():
    return builtin_pack(smoke=False).scenario("srs-bernoulli-exact")


@pytest.mark.slow
def test_srs_exact_coverage_200_replications():
    spec = _exact_spec()
    assert spec.replications == 200
    result = run_scenario(spec, backend="columnar", root_seed=0)
    assert result.passed, result.failures()
    # The gate's own inputs must be self-consistent with stats/ci.py.
    wilson = wilson_interval(result.coverage_hits, result.coverage_trials, 0.99)
    assert result.wilson_lower == pytest.approx(wilson.lower)
    assert result.wilson_upper == pytest.approx(wilson.upper)
    # Fixed-n SRS on Bernoulli labels is the analytically exact case: the
    # nominal level itself must lie inside the 99% Wilson band, not merely
    # above the slack-adjusted gate threshold.
    assert wilson.contains(0.95)
    # Every replication draws exactly 140 units, so the MoE is essentially
    # constant and close to the z * sqrt(p(1-p)/n) closed form (~0.0497).
    assert result.mean_moe == pytest.approx(0.0497, abs=0.004)


def test_srs_exact_coverage_smoke_50_replications():
    spec = _exact_spec()
    result = run_scenario(spec, backend="columnar", replications=50, root_seed=0)
    assert result.passed, result.failures()
    assert result.coverage_trials == 50
    assert wilson_interval(result.coverage_hits, 50, 0.99).contains(0.95)


@pytest.mark.slow
def test_sequential_stopping_undercovers():
    # The companion scenario documents the optional-stopping bias: same graph,
    # same labels, but the real stop-at-MoE loop.  Its coverage must stay
    # inside its declared weakness band yet *below* the exact scenario's.
    pack = builtin_pack(smoke=False)
    sequential = run_scenario(
        pack.scenario("srs-sequential-stopping"), backend="columnar", root_seed=0
    )
    exact = run_scenario(pack.scenario("srs-bernoulli-exact"), backend="columnar", root_seed=0)
    assert sequential.passed, sequential.failures()
    assert sequential.empirical_coverage < exact.empirical_coverage
    assert sequential.empirical_coverage < 0.95
