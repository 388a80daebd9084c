"""Property tests of the KDE CDF and the order-statistic index.

``kde_cdf`` must be a distribution function: nondecreasing up to rounding
and within [0, 1], with exact 0 and 1 outside the support of the box kernel.
``_order_index`` must equal its definition, the smallest k in 1..n with
k / n >= alpha, found by brute force.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqim.density import KdeModel, _order_index, kde_cdf

EPS = np.finfo(float).eps
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# a common offset up to 1e7 exercises cancellation in the prefix sums
offsets = st.sampled_from([0.0, -3.5, 1e3, 1e6, -1e6, 1e7])
samples = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=40
)
bandwidths = st.floats(1e-3, 50.0)


def _grid(v: np.ndarray, h: float, count: int) -> np.ndarray:
    """Sorted grid over [min - 2h, max + 2h] plus every kernel edge."""
    lo, hi = v[0] - 2.0 * h, v[-1] + 2.0 * h
    edges = np.concatenate([v - h, v + h, v])
    return np.sort(np.concatenate([np.linspace(lo, hi, count), edges]))


@SETTINGS
@given(samples, offsets, bandwidths, st.integers(2, 400))
def test_cdf_nondecreasing_in_unit_interval(vals, offset, h, count):
    model = KdeModel(values=np.asarray(vals) + offset, bandwidth=h)
    v = model.values
    cdf = kde_cdf(model, _grid(v, h, count))
    # the box kernel's prefix sums over v - v[0] round: recursive summation
    # bounds the error by about (n + 4) eps (max - min + 2h) / h, independent
    # of the offset that the sums used to cancel
    tol = (model.n + 4) * EPS * (1.0 + (v[-1] - v[0] + 2.0 * h) / h)
    assert np.all(np.diff(cdf) >= -tol)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))


@SETTINGS
@given(samples, offsets, bandwidths)
def test_compact_kernel_cdf_exact_outside_support(vals, offset, h):
    model = KdeModel(values=np.asarray(vals) + offset, bandwidth=h)
    v = model.values
    # one float past the rounded edge lies past the exact edge
    below = np.array([np.nextafter(v[0] - h, -np.inf), v[0] - 3.0 * h])
    above = np.array([np.nextafter(v[-1] + h, np.inf), v[-1] + 3.0 * h])
    assert np.all(kde_cdf(model, below) == 0.0)
    assert np.all(kde_cdf(model, above) == 1.0)


@SETTINGS
@given(st.integers(1, 400), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_order_index_is_smallest_k_with_k_over_n_at_least_alpha(n, alpha):
    want = next(k for k in range(1, n + 1) if k / n >= alpha)
    assert _order_index(n, alpha) == want


@SETTINGS
@given(st.integers(1, 400), st.integers(1, 400))
def test_order_index_at_exact_fractions(n, k):
    # alpha = k/n exactly (as a float) must give k back, e.g. n=20, alpha=0.95
    k = min(k, n)
    alpha = k / n
    if alpha < 1.0:
        assert _order_index(n, alpha) == k
