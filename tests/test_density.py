import math

import numpy as np
import pytest

from uqim import density
from uqim.data import InputSample
from uqim.density import (
    BLOCK,
    KdeModel,
    _searchsorted_blocks,
    kde_cdf,
    kde_evaluate,
    mc_quantile,
    select_bandwidth,
    surrogate_density,
)
from uqim.errors import DomainError, InsufficientDataError, ZeroSpreadError
from uqim.randgen import make_rng


def test_naive_single_value():
    model = KdeModel(values=[4.0], bandwidth=1.0)
    assert kde_evaluate(model, 4.0) == 0.5
    assert kde_evaluate(model, 4.0 + 1.0) == 0.5  # endpoints inclusive
    assert kde_evaluate(model, 6.5) == 0.0
    assert kde_evaluate(model, 1.0) == 0.0


def test_naive_two_values():
    model = KdeModel(values=[0.0, 2.0], bandwidth=1.0)
    # both kernels cover y=1: 2 hits / (2 n h) = 0.5
    assert kde_evaluate(model, 1.0) == 0.5


def test_kde_direct_summation_oracle():
    rng = np.random.default_rng(0)
    v = rng.normal(size=200)
    h = 0.37
    model = KdeModel(values=v, bandwidth=h)
    for y in rng.uniform(-3.0, 3.0, size=25):
        u = (y - v) / h
        want = np.sum(np.abs(u) <= 1.0) / (2.0 * v.size * h)
        assert abs(kde_evaluate(model, y) - want) <= 1e-12 * max(want, 1.0)


def test_kde_vector_query_matches_scalar():
    model = KdeModel(values=np.arange(10.0), bandwidth=0.8)
    ys = np.linspace(-1.0, 10.0, 13)
    vec = kde_evaluate(model, ys)
    assert vec.shape == ys.shape
    for y, want in zip(ys, vec):
        assert kde_evaluate(model, y) == want


def test_kde_nonnegative_everywhere():
    rng = np.random.default_rng(1)
    v = rng.normal(size=50)
    model = KdeModel(values=v, bandwidth=0.25)
    assert np.all(kde_evaluate(model, rng.uniform(-5, 5, 200)) >= 0.0)


def test_kde_cdf_oracle():
    rng = np.random.default_rng(2)
    v = rng.normal(size=120)
    h = 0.5
    model = KdeModel(values=v, bandwidth=h)
    for y in rng.uniform(-4.0, 4.0, size=30):
        # integral of the box kernel: clip((y - v_i + h) / 2h, 0, 1) averaged
        want = float(np.mean(np.clip((y - v + h) / (2.0 * h), 0.0, 1.0)))
        assert abs(kde_cdf(model, y) - want) <= 1e-12


def _naive_cdf_whole(model, t):
    """The naive-kernel CDF with every query searched at once."""
    v, h, n = model.values, model.bandwidth, model.n
    full = np.searchsorted(v, t - h, side="right")
    part = np.searchsorted(v, t + h, side="left")
    prefix = np.zeros(n + 1)
    np.cumsum(v - v[0], out=prefix[1:])
    mid = (part - full) * (t + h - v[0]) - (prefix[part] - prefix[full])
    out = (2.0 * h * full + mid) / (2.0 * n * h)
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("shape", [(2 * BLOCK + 12_345,), (3, BLOCK - 7)])
def test_naive_cdf_blocks_match_whole_searches(shape):
    # more than 2 blocks of queries; in 2-d the block edges cut the rows
    rng = np.random.default_rng(45)
    model = KdeModel(values=50.0 + rng.standard_normal(5_000), bandwidth=0.2)
    t = rng.uniform(45.0, 55.0, size=shape)
    t.flat[::97] = rng.choice(model.values, t.flat[::97].size)  # queries at values
    got = kde_cdf(model, t)
    assert got.shape == shape
    assert np.array_equal(got, _naive_cdf_whole(model, t))


def _search_case(name):
    """(haystack, needles) of one oracle case; the needles are sorted."""
    rng = np.random.default_rng(72)
    if name == "ties":
        # 3 decimals: ties inside the needles, between needles and haystack,
        # and a run of 11 equal needles across the first block edge
        hay = np.sort(np.round(rng.normal(size=150_000), 3))
        needles = np.sort(np.round(rng.normal(size=2 * BLOCK + 123), 3))
        needles[BLOCK - 5 : BLOCK + 6] = needles[BLOCK]
        return hay, needles
    if name == "signed_zero":
        # -0.0 == 0.0: mixed in both, in either order, and at a block edge
        zeros = np.where(rng.random(BLOCK + 40) < 0.5, -0.0, 0.0)
        hay = np.concatenate([-rng.random(500), zeros[:300], rng.random(500)])
        hay.sort(kind="stable")
        needles = np.concatenate([-np.sort(rng.random(BLOCK - 20))[::-1], zeros,
                                  np.sort(rng.random(100))])
        return hay, needles
    if name == "outside":
        # whole blocks below the haystack's minimum and above its maximum
        hay = np.sort(rng.uniform(0.0, 1.0, 50_000))
        needles = np.concatenate([np.linspace(-2.0, -1.0, BLOCK + 7), [0.0, 0.5, 1.0],
                                  np.linspace(2.0, 3.0, BLOCK)])
        return hay, needles
    if name == "single":
        return np.sort(rng.normal(size=1000)), np.array([0.1])
    if name == "wide":
        # 201 needles over 1e6 values: far past MERGE_SPAN, plain search
        hay = np.sort(rng.normal(size=1_000_000))
        return hay, np.linspace(-5.0, 5.0, 201)
    # "lattice": few distinct outputs, so each needle spans many ties
    hay = np.sort(np.round(rng.normal(size=3 * BLOCK), 1))
    return hay, np.unique(np.concatenate([hay, hay + 0.5]))


_SEARCH_CASES = ["ties", "signed_zero", "outside", "single", "wide", "lattice"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", _SEARCH_CASES)
def test_searchsorted_blocks_matches_numpy(name, side, monkeypatch):
    hay, needles = _search_case(name)
    want = np.searchsorted(hay, needles, side=side)
    assert np.array_equal(_searchsorted_blocks(hay, needles, side), want)
    # int32 buffer and a shift, as the density band passes them
    out = np.empty(needles.size, np.int32)
    got = _searchsorted_blocks(hay, needles, side, out, -0.25)
    assert got is out
    assert np.array_equal(out, np.searchsorted(hay, needles - 0.25, side=side))
    # every block merged, and every block searched
    for span in (10**9, 0):
        monkeypatch.setattr(density, "MERGE_SPAN", span)
        assert np.array_equal(_searchsorted_blocks(hay, needles, side), want)


def _count_merges(monkeypatch):
    """A list that gets one entry per np.argsort call, that is per merge."""
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


@pytest.mark.parametrize("name, merges", [
    ("ties", 3), ("outside", 3), ("single", 1), ("wide", 0), ("lattice", 0),
])
def test_searchsorted_blocks_size_rule(name, merges, monkeypatch):
    # sorted blocks are merged unless their haystack slice is longer than
    # MERGE_SPAN per needle; unsorted blocks are always searched
    hay, needles = _search_case(name)
    calls = _count_merges(monkeypatch)
    _searchsorted_blocks(hay, needles, "left")
    assert len(calls) == merges
    calls.clear()
    shuffled = np.random.default_rng(73).permutation(needles)
    got = _searchsorted_blocks(hay, shuffled, "right")
    assert len(calls) == (needles.size == 1)
    assert np.array_equal(got, np.searchsorted(hay, shuffled, side="right"))


def test_naive_cdf_sorted_and_unsorted_blocks(monkeypatch):
    # block 0 sorted and merged, block 1 shuffled, block 2 sorted over a
    # span too wide to merge, block 3 a merged sorted remainder that holds
    # queries at values
    rng = np.random.default_rng(74)
    model = KdeModel(values=rng.standard_normal(400_000), bandwidth=0.1)
    v = model.values
    narrow = np.sort(rng.uniform(-0.2, 0.2, BLOCK))
    near = v[(v > 0.3) & (v < 0.5)]
    tail = np.sort(np.concatenate([near, rng.uniform(0.3, 0.5, 3_000)]))
    wide = np.linspace(-4.0, 4.0, BLOCK)
    t = np.concatenate([narrow, rng.permutation(narrow), wide, tail])
    calls = _count_merges(monkeypatch)
    got = kde_cdf(model, t)
    assert len(calls) == 4  # two searches in each of blocks 0 and 3
    assert np.array_equal(got, _naive_cdf_whole(model, t))


def test_naive_cdf_monotone_far_from_zero():
    # prefix sums of raw values cancel at a large common offset
    rng = make_rng(44)
    model = KdeModel(values=1e6 + rng.standard_normal(100_000), bandwidth=1e-3)
    t = np.linspace(model.values[0] - 0.01, model.values[-1] + 0.01, 400_001)
    cdf = kde_cdf(model, t)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


def test_normalization():
    rng = np.random.default_rng(3)
    v = rng.normal(size=64)
    h = 0.4
    model = KdeModel(values=v, bandwidth=h)
    # naive: piecewise constant between breakpoints, integrate exactly
    bk = np.unique(np.concatenate([v - h, v + h]))
    mids = (bk[:-1] + bk[1:]) / 2.0
    total = float(np.sum(np.diff(bk) * kde_evaluate(model, mids)))
    assert abs(total - 1.0) <= 1e-12
    assert abs(kde_cdf(model, bk[-1]) - 1.0) <= 1e-12


def test_kde_translation_equivariance():
    rng = np.random.default_rng(4)
    v = rng.normal(size=40)
    c = 13.0
    a = KdeModel(values=v, bandwidth=0.3)
    b = KdeModel(values=v + c, bandwidth=0.3)
    ys = rng.uniform(-2.0, 2.0, size=20)
    assert np.allclose(kde_evaluate(b, ys + c), kde_evaluate(a, ys), atol=1e-12)


def test_kde_copies_its_values():
    # a read-only view of a writable array is copied too: changing the base
    # later leaves the model as it was
    base = np.array([-1.0, 0.0, 0.3, 2.0])
    view = base.view()
    view.flags.writeable = False
    kde = KdeModel(values=view, bandwidth=0.5)
    base[:] = 9.0
    assert np.array_equal(kde.values, [-1.0, 0.0, 0.3, 2.0])
    assert not kde.values.flags.writeable
    # another model's values are copied as well
    assert not np.shares_memory(KdeModel(values=kde.values, bandwidth=0.1).values,
                                kde.values)


def test_kde_rejects_bad_bandwidths():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="bandwidth"):
            KdeModel(values=[1.0], bandwidth=bad)


def test_kde_validation():
    with pytest.raises(DomainError, match="bandwidth"):
        KdeModel(values=[1.0], bandwidth=0.0)
    # one kernel, the box: there is no kernel to choose
    with pytest.raises(TypeError, match="kernel"):
        KdeModel(values=[1.0], bandwidth=1.0, kernel="naive")
    with pytest.raises(TypeError, match="kernel"):
        surrogate_density(np.ravel, np.zeros((3, 1)), kernel="naive")
    # nor can a kernel name passed by position land in the bandwidth slot
    with pytest.raises(TypeError):
        surrogate_density(np.ravel, np.zeros((3, 1)), "naive")
    with pytest.raises(InsufficientDataError):
        KdeModel(values=[], bandwidth=1.0)
    with pytest.raises(DomainError, match="finite"):
        KdeModel(values=[np.nan], bandwidth=1.0)


def test_bandwidth_rule_normal_sample():
    v = make_rng(10).standard_normal(1024)
    h = select_bandwidth(v)
    assert 0.2 <= h <= 0.4


def test_bandwidth_rule_two_values():
    h = select_bandwidth([0.0, 1.0])
    sd = math.sqrt(0.5)
    iqr_sigma = 0.5 / 1.349
    assert h == pytest.approx(1.06 * min(sd, iqr_sigma) * 2.0 ** (-0.2), rel=1e-12)
    assert h > 0.0


def test_bandwidth_scale_equivariance():
    v = make_rng(11).standard_normal(300)
    h = select_bandwidth(v)
    for c in (0.01, 3.0, 1e6):
        assert select_bandwidth(c * v) == pytest.approx(c * h, rel=1e-12)


def test_bandwidth_zero_iqr_falls_back_to_sd():
    # IQR collapses on this sample; rule must fall back to the std dev
    v = np.array([0.0] * 8 + [10.0, -10.0])
    assert np.percentile(v, 75.0) - np.percentile(v, 25.0) == 0.0
    h = select_bandwidth(v)
    assert h == pytest.approx(1.06 * np.std(v, ddof=1) * 10.0 ** (-0.2), rel=1e-12)


def test_bandwidth_errors():
    with pytest.raises(ZeroSpreadError):
        select_bandwidth([2.0, 2.0, 2.0])
    with pytest.raises(InsufficientDataError):
        select_bandwidth([1.0])


def test_quantile_examples():
    assert mc_quantile(np.arange(1.0, 21.0), 0.95).value == 19.0
    est = mc_quantile([3.0, 1.0, 2.0], 0.5)
    assert est.value == 2.0 and est.size == 3 and est.level == 0.5


def test_quantile_fp_guard():
    # 20 * 0.95 rounds up past 19 in floating point; k/n >= alpha must win
    assert mc_quantile(np.arange(1.0, 21.0), 0.95).value == 19.0
    assert mc_quantile(np.arange(1.0, 15.0), 1.0 / 7.0).value == 2.0


def test_quantile_normal_tail():
    v = make_rng(12).standard_normal(1_000_000)
    assert mc_quantile(v, 0.95).value == pytest.approx(1.645, abs=0.01)


def test_quantile_monotone_and_member():
    rng = np.random.default_rng(5)
    v = rng.normal(size=137)
    alphas = np.linspace(0.01, 0.99, 40)
    vals = [mc_quantile(v, a).value for a in alphas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(x in v for x in vals)


def test_quantile_translation_equivariance():
    rng = np.random.default_rng(6)
    v = rng.normal(size=64)
    for a in (0.1, 0.5, 0.9):
        assert mc_quantile(v + 2.5, a).value == mc_quantile(v, a).value + 2.5


def test_quantile_leaves_the_callers_array_in_order():
    # the order statistic partitions its array in place, so mc_quantile
    # hands it a copy of the values it was given
    v = np.random.default_rng(8).normal(size=(101, 1))
    before = v.copy()
    assert mc_quantile(v, 0.9).value == np.sort(before.ravel())[90]
    assert np.array_equal(v, before)


def test_quantile_errors():
    with pytest.raises(InsufficientDataError):
        mc_quantile([], 0.5)
    with pytest.raises(DomainError):
        mc_quantile([1.0], 0.0)
    with pytest.raises(DomainError):
        mc_quantile([1.0], 1.0)


def test_surrogate_density_constant_mass():
    inputs = InputSample(points=make_rng(13).standard_normal(500))
    model = surrogate_density(lambda x: np.full(len(x), 2.0), inputs, bandwidth=0.5)
    assert kde_cdf(model, 2.5) - kde_cdf(model, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert kde_evaluate(model, 2.0 + 0.6) == 0.0
    assert kde_evaluate(model, 2.0 - 0.6) == 0.0


def test_surrogate_density_identity_normal():
    inputs = InputSample(points=make_rng(14).standard_normal(100_000))
    model = surrogate_density(lambda x: np.asarray(x).ravel(), inputs)
    want = 1.0 / math.sqrt(2.0 * math.pi)
    assert abs(kde_evaluate(model, 0.0) - want) <= 0.1 * want


def test_surrogate_density_doubling_quantile():
    inputs = InputSample(points=make_rng(15).random(100_000))
    model = surrogate_density(lambda x: 2.0 * np.asarray(x).ravel(), inputs)
    assert mc_quantile(model.values, 0.95).value == pytest.approx(1.9, abs=0.02)


def test_surrogate_density_accepts_plain_arrays():
    pts = make_rng(16).random((50, 1))
    a = surrogate_density(lambda x: np.asarray(x).ravel(), InputSample(points=pts),
                          bandwidth=0.2)
    b = surrogate_density(lambda x: np.asarray(x).ravel(), pts, bandwidth=0.2)
    assert np.array_equal(a.values, b.values)
