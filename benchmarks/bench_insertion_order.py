"""Section IV-A study: shareability-ordered insertion versus release order.

The paper reports that inserting requests in ascending order of shareability
raises the probability that linear insertion reaches the optimal schedule
(the paper's kinetic tree; here the cheapest of every feasible stop order)
from 89%/85% to 91%/90% for the third and fourth request.  This benchmark
reproduces the study on the synthetic NYC preset and also reproduces the
Section III-B expected-sharing-probability computation.
"""

from __future__ import annotations

import math

from repro.experiments import figures

from _common import save_text


def test_insertion_order_study(benchmark):
    rows = benchmark.pedantic(
        lambda: figures.insertion_order_study(
            num_requests=180, group_sizes=(3, 4), samples_per_size=20, seed=9,
        ),
        rounds=1, iterations=1,
    )
    lines = [
        f"{'dataset':8s} {'group size':>10s} {'samples':>8s} {'release order opt.':>19s} {'shareability order opt.':>24s}"
    ]
    for row in rows:
        lines.append(
            f"{row.dataset:8s} {row.group_size:10d} {row.samples:8d} "
            f"{row.release_order_optimal:19.2f} {row.shareability_order_optimal:24.2f}"
        )
    save_text("insertion_order_study", "\n".join(lines))
    assert rows
    for row in rows:
        # Both orderings reach the optimum for a large share of the sampled
        # groups, and reordering by shareability does not hurt.
        assert row.shareability_order_optimal >= row.release_order_optimal - 0.2
        assert row.release_order_optimal >= 0.4


def test_angle_expectation_study(benchmark):
    study = benchmark.pedantic(
        lambda: figures.angle_expectation_study(num_requests=300),
        rounds=1, iterations=1,
    )
    save_text(
        "angle_expectation_study",
        "\n".join(f"{key}: {value}" for key, value in study.items()),
    )
    # The paper reports E(theta >= pi/2) ~ 41% for gamma = 1.5; the synthetic
    # trip-length distribution lands in the same ballpark.
    assert study["theta"] == math.pi / 2
    assert 0.15 <= study["expected_probability"] <= 0.7
