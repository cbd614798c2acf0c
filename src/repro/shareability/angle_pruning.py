"""Angle pruning (Theorem III.1) and its log-normal probability analysis.

Requests travelling in similar directions are more likely to share a trip.
The builder prunes a candidate pair ``(r_a, r_b)`` when the angle between the
vectors ``s_b -> e_a`` and ``s_b -> e_b`` exceeds a threshold ``delta``.
This module provides:

* the geometric predicate used by Algorithm 1 (line 6),
* the expected sharing probability ``E(theta >= delta)`` under the paper's
  log-normal trip-length model (Section III-B), evaluated by numerical
  integration, and
* a helper to fit the log-normal parameters to observed trip lengths.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy import integrate

from ..exceptions import ConfigurationError
from ..model.request import Request
from ..network.road_network import RoadNetwork


def direction_angle(
    network: RoadNetwork, anchor: Request, candidate: Request
) -> float:
    """Angle (radians) between ``s_b -> e_a`` and ``s_b -> e_b``.

    ``anchor`` is ``r_a`` (the newly arrived request) and ``candidate`` is
    ``r_b``.  Returns 0 when either vector is degenerate (zero length), which
    makes the pruning rule permissive for co-located requests.
    """
    sb = network.position(candidate.source)
    ea = network.position(anchor.destination)
    eb = network.position(candidate.destination)
    v1 = (ea[0] - sb[0], ea[1] - sb[1])
    v2 = (eb[0] - sb[0], eb[1] - sb[1])
    norm1 = math.hypot(*v1)
    norm2 = math.hypot(*v2)
    if norm1 < 1e-12 or norm2 < 1e-12:
        return 0.0
    cosine = (v1[0] * v2[0] + v1[1] * v2[1]) / (norm1 * norm2)
    cosine = max(-1.0, min(1.0, cosine))
    return math.acos(cosine)


def passes_angle_filter(
    network: RoadNetwork,
    anchor: Request,
    candidate: Request,
    threshold: float | None,
) -> bool:
    """True when the pair survives the angle pruning rule.

    A ``None`` threshold disables pruning entirely (the SARD variant without
    pruning in Tables V/VI).  Following Algorithm 1, the pair is kept when the
    angle lies within ``[-delta/2, delta/2]``, i.e. its magnitude is at most
    ``threshold / 2``.
    """
    if threshold is None:
        return True
    angle = direction_angle(network, anchor, candidate)
    return angle <= threshold / 2.0 + 1e-12


def fit_lognormal(distances: Sequence[float]) -> tuple[float, float]:
    """Fit ``(mu, sigma)`` of a log-normal distribution to trip lengths.

    The paper observes that request trip lengths in both Chengdu and NYC
    closely follow a log-normal distribution; ``mu``/``sigma`` are the mean
    and standard deviation of ``ln(x)``.
    """
    cleaned = [d for d in distances if d > 0]
    if len(cleaned) < 2:
        raise ConfigurationError("need at least two positive distances to fit")
    logs = np.log(np.asarray(cleaned, dtype=float))
    mu = float(np.mean(logs))
    sigma = float(np.std(logs, ddof=1))
    return mu, sigma


def _lognormal_pdf(x: float, mu: float, sigma: float) -> float:
    if x <= 0:
        return 0.0
    return (
        1.0
        / (x * sigma * math.sqrt(2.0 * math.pi))
        * math.exp(-((math.log(x) - mu) ** 2) / (2.0 * sigma**2))
    )


def _lognormal_cdf(x: float, mu: float, sigma: float) -> float:
    if x <= 0:
        return 0.0
    return 0.5 * (1.0 + math.erf((math.log(x) - mu) / (sigma * math.sqrt(2.0))))


def sharing_upper_cutoff(c: float, theta: float, gamma: float) -> float:
    """The paper's ``g(c)`` bound for condition (a) of Theorem III.1.

    ``c`` is half the direct travel cost of the anchor request, ``theta`` the
    angle between the two travel directions and ``gamma`` the deadline
    parameter.  Candidate trips shorter than this bound can satisfy the
    drop-anchor-last schedule.
    """
    if gamma <= 1.0:
        raise ConfigurationError("gamma must be > 1")
    if c <= 0:
        return 0.0
    term = (math.cos(theta / 2.0) ** 2) / (gamma * c) + (
        math.sin(theta / 2.0) ** 2
    ) / ((gamma - 1.0) * c)
    if term <= 0:
        return math.inf
    return 1.0 / term


def sharing_lower_cutoff(c: float, theta: float, gamma: float) -> float:
    """The paper's ``h(c)`` bound for condition (b) of Theorem III.1.

    Candidate trips longer than this bound can satisfy the
    drop-candidate-last schedule.
    """
    if gamma <= 1.0:
        raise ConfigurationError("gamma must be > 1")
    return 2.0 * c * (1.0 - math.cos(theta)) / (gamma - 1.0)


def expected_sharing_probability(
    mu: float,
    sigma: float,
    theta: float,
    gamma: float,
) -> float:
    """Expected probability that a candidate at angle ``theta`` is shareable.

    Implements the double integral ``E(theta >= delta)`` of Section III-B:
    the anchor trip length ``x`` follows the fitted log-normal, the candidate
    trip length ``y`` follows the same distribution, and the pair is counted
    as shareable when ``y <= g(x/2)`` or ``y >= h(x/2)``.
    The paper reports ~41% for ``theta = pi/2`` and ``gamma = 1.5`` on both
    datasets.
    """
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")

    def inner(x: float) -> float:
        c = x / 2.0
        upper = sharing_upper_cutoff(c, theta, gamma)
        lower = sharing_lower_cutoff(c, theta, gamma)
        prob = _lognormal_cdf(upper, mu, sigma)
        prob += 1.0 - _lognormal_cdf(lower, mu, sigma)
        return min(prob, 1.0)

    # Integrate the anchor-length distribution over a generous quantile range.
    lo = math.exp(mu - 5.0 * sigma)
    hi = math.exp(mu + 5.0 * sigma)
    xs = np.linspace(lo, hi, 400)
    pdf = np.array([_lognormal_pdf(x, mu, sigma) for x in xs])
    values = np.array([inner(x) for x in xs])
    numerator = integrate.trapezoid(values * pdf, xs)
    denominator = integrate.trapezoid(pdf, xs)
    if denominator <= 0:
        return 0.0
    return float(min(max(numerator / denominator, 0.0), 1.0))
