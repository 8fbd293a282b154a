"""Tests for repro.stats.mixture — Gaussian mixtures (WEIGHTED SUM form)."""

import math
import pickle

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.spsta import MixtureAlgebra, run_spsta
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.mixture import (
    GaussianMixture,
    MixtureComponent,
    mixture_weighted_sum,
)
from repro.stats.normal import Normal

weights = st.floats(0.01, 1.0)
mus = st.floats(-10, 10)
sigmas = st.floats(0.05, 5.0)


def _mix(*triples) -> GaussianMixture:
    return GaussianMixture([MixtureComponent(w, m, s) for w, m, s in triples])


class TestBasics:
    def test_total_weight(self):
        m = _mix((0.3, 0.0, 1.0), (0.2, 5.0, 2.0))
        assert m.total_weight == pytest.approx(0.5)

    def test_zero_weight_components_dropped(self):
        m = _mix((0.0, 0.0, 1.0), (0.4, 1.0, 1.0))
        assert len(m) == 1

    def test_empty_mixture_falsy(self):
        assert not GaussianMixture.empty()
        assert _mix((0.1, 0, 1))

    def test_mean_of_mixture(self):
        m = _mix((0.25, 0.0, 1.0), (0.75, 4.0, 1.0))
        assert m.mean() == pytest.approx(3.0)

    def test_var_of_mixture(self):
        # Equal-weight at -1/+1 with sigma 0: pure between-component variance.
        m = _mix((0.5, -1.0, 0.0), (0.5, 1.0, 0.0))
        assert m.mean() == pytest.approx(0.0)
        assert m.var() == pytest.approx(1.0)

    def test_var_combines_within_and_between(self):
        m = _mix((0.5, -1.0, 2.0), (0.5, 1.0, 2.0))
        assert m.var() == pytest.approx(4.0 + 1.0)

    def test_empty_moments_raise(self):
        with pytest.raises(ValueError):
            GaussianMixture.empty().mean()
        with pytest.raises(ValueError):
            GaussianMixture.empty().var()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MixtureComponent(-0.1, 0.0, 1.0)

    def test_pdf_integrates_to_weight(self):
        m = _mix((0.3, 0.0, 1.0), (0.4, 3.0, 0.5))
        xs = np.linspace(-10, 10, 4001)
        integral = np.trapezoid([m.pdf(x) for x in xs], xs)
        assert integral == pytest.approx(0.7, abs=1e-6)

    def test_cdf_limit_is_total_weight(self):
        m = _mix((0.3, 0.0, 1.0), (0.4, 3.0, 0.5))
        assert m.cdf(1e9) == pytest.approx(0.7)
        assert m.cdf(-1e9) == pytest.approx(0.0)


class TestOperations:
    def test_shifted_moves_mean_only(self):
        m = _mix((0.5, 1.0, 2.0)).shifted(3.0)
        assert m.mean() == pytest.approx(4.0)
        assert m.std() == pytest.approx(2.0)

    def test_convolved_adds_variance(self):
        m = _mix((0.5, 1.0, 3.0)).convolved(Normal(2.0, 4.0))
        assert m.mean() == pytest.approx(3.0)
        assert m.std() == pytest.approx(5.0)

    def test_weighted_sum_concatenates(self):
        total = mixture_weighted_sum([
            (0.5, _mix((1.0, 0.0, 1.0))),
            (0.25, _mix((1.0, 2.0, 1.0))),
        ])
        assert total.total_weight == pytest.approx(0.75)
        assert len(total) == 2

    def test_normalize(self):
        m = _mix((0.2, 1.0, 1.0), (0.2, 3.0, 1.0)).normalized()
        assert m.total_weight == pytest.approx(1.0)
        assert m.mean() == pytest.approx(2.0)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            _mix((0.5, 0, 1)).scaled(-1.0)

    def test_as_normal_moment_matches(self):
        m = _mix((0.5, -1.0, 1.0), (0.5, 1.0, 1.0))
        n = m.as_normal()
        assert n.mu == pytest.approx(m.mean())
        assert n.sigma == pytest.approx(m.std())


class TestMaxMin:
    def test_max_of_singletons_matches_clark(self):
        from repro.stats.clark import clark_max_moments
        a = GaussianMixture.from_normal(Normal(0.0, 1.0))
        b = GaussianMixture.from_normal(Normal(1.0, 2.0))
        result = a.max_with(b)
        mean, var = clark_max_moments(0.0, 1.0, 1.0, 4.0)
        assert result.mean() == pytest.approx(mean)
        assert result.var() == pytest.approx(var)

    def test_max_against_sampling(self):
        a = _mix((0.5, 0.0, 1.0), (0.5, 4.0, 0.5))
        b = _mix((1.0, 2.0, 1.0))
        result = a.max_with(b)
        rng = np.random.default_rng(9)
        n = 400_000
        pick = rng.random(n) < 0.5
        xa = np.where(pick, rng.normal(0, 1, n), rng.normal(4, 0.5, n))
        xb = rng.normal(2, 1, n)
        sample = np.maximum(xa, xb)
        assert result.mean() == pytest.approx(sample.mean(), abs=0.02)
        assert result.std() == pytest.approx(sample.std(), abs=0.03)

    def test_min_against_sampling(self):
        a = _mix((0.5, 0.0, 1.0), (0.5, 4.0, 0.5))
        b = _mix((1.0, 2.0, 1.0))
        result = a.min_with(b)
        rng = np.random.default_rng(10)
        n = 400_000
        pick = rng.random(n) < 0.5
        xa = np.where(pick, rng.normal(0, 1, n), rng.normal(4, 0.5, n))
        xb = rng.normal(2, 1, n)
        sample = np.minimum(xa, xb)
        assert result.mean() == pytest.approx(sample.mean(), abs=0.02)
        assert result.std() == pytest.approx(sample.std(), abs=0.03)

    def test_max_component_count_is_product(self):
        a = _mix((0.5, 0.0, 1.0), (0.5, 4.0, 0.5))
        b = _mix((0.3, 2.0, 1.0), (0.7, -2.0, 1.0))
        assert len(a.max_with(b)) == 4

    def test_max_of_empty_raises(self):
        with pytest.raises(ValueError):
            GaussianMixture.empty().max_with(_mix((1.0, 0, 1)))


class TestReduction:
    def test_reduced_preserves_total_moments(self):
        m = _mix((0.2, 0.0, 1.0), (0.3, 1.0, 2.0), (0.1, 5.0, 0.5),
                 (0.4, -3.0, 1.5))
        r = m.reduced(2)
        assert len(r) == 2
        assert r.total_weight == pytest.approx(m.total_weight)
        assert r.mean() == pytest.approx(m.mean())
        # Pairwise merges preserve the merged pair's variance exactly, and
        # the overall variance as a consequence.
        assert r.var() == pytest.approx(m.var())

    def test_reduced_noop_when_under_cap(self):
        m = _mix((0.5, 0.0, 1.0), (0.5, 2.0, 1.0))
        assert m.reduced(8).components == m.components

    def test_reduced_to_one_is_moment_match(self):
        m = _mix((0.5, -1.0, 1.0), (0.5, 1.0, 1.0))
        r = m.reduced(1)
        assert len(r) == 1
        c = r.components[0]
        assert c.mu == pytest.approx(m.mean())
        assert c.sigma == pytest.approx(m.std())

    def test_reduced_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            _mix((1.0, 0, 1)).reduced(0)

    @given(st.lists(st.tuples(weights, mus, sigmas), min_size=2, max_size=6))
    def test_reduction_invariants_hold(self, triples):
        m = _mix(*triples)
        r = m.reduced(2)
        assert r.total_weight == pytest.approx(m.total_weight, rel=1e-9)
        assert r.mean() == pytest.approx(m.mean(), rel=1e-6, abs=1e-6)
        assert r.var() == pytest.approx(m.var(), rel=1e-6, abs=1e-6)


class TestThirdMoment:
    def test_symmetric_mixture_zero_skew(self):
        m = _mix((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))
        assert m.third_central_moment() == pytest.approx(0.0, abs=1e-12)

    def test_right_heavy_mixture_positive_skew(self):
        m = _mix((0.9, 0.0, 1.0), (0.1, 6.0, 1.0))
        assert m.third_central_moment() > 0.0

    def test_single_gaussian_zero_third_moment(self):
        m = _mix((1.0, 3.0, 2.0))
        assert m.third_central_moment() == pytest.approx(0.0, abs=1e-12)


class TestSampling:
    def test_sample_moments_match(self):
        import numpy as np
        m = _mix((0.3, 0.0, 1.0), (0.7, 5.0, 2.0))
        draws = m.sample(300_000, np.random.default_rng(0))
        assert draws.mean() == pytest.approx(m.mean(), abs=0.02)
        assert draws.std() == pytest.approx(m.std(), abs=0.02)

    def test_sample_respects_weights(self):
        import numpy as np
        m = _mix((0.9, 0.0, 0.1), (0.1, 10.0, 0.1))
        draws = m.sample(100_000, np.random.default_rng(1))
        assert (draws > 5).mean() == pytest.approx(0.1, abs=0.01)

    def test_sample_empty_raises(self):
        import numpy as np
        with pytest.raises(ValueError):
            GaussianMixture.empty().sample(10, np.random.default_rng(0))

    def test_ks_against_analytic_cdf(self):
        import numpy as np
        from scipy import stats as scipy_stats
        m = _mix((0.5, -1.0, 0.7), (0.5, 2.0, 1.3))
        draws = m.sample(50_000, np.random.default_rng(2))
        cdf = lambda x: np.array(
            [m.cdf(v) / m.total_weight for v in np.atleast_1d(x)])
        stat, _p = scipy_stats.kstest(draws, cdf)
        assert stat < 0.01


class TestLayout:
    def test_repr_is_pinned(self):
        # Hier interface keys hash this string; it must not drift.
        m = _mix((0.125, 1.5, 0.25), (0.3, -2.0, 1.0),
                 (0.5, 10.123456, 0.00123456789))
        assert repr(m) == ("GaussianMixture[(0.125, N(1.5, 0.25)), "
                           "(0.3, N(-2, 1)), (0.5, N(10.12, 0.001235))]")

    def test_parallel_arrays_match_components(self):
        m = _mix((0.2, 1.0, 0.5), (0.0, 3.0, 1.0), (0.8, -1.0, 2.0))
        assert m.weights == (0.2, 0.8)
        assert m.means == (1.0, -1.0)
        assert m.sigmas == (0.5, 2.0)
        assert m.components == (MixtureComponent(0.2, 1.0, 0.5),
                                MixtureComponent(0.8, -1.0, 2.0))

    def test_pickle_round_trip(self):
        m = _mix((0.2, 1.0, 0.5), (0.8, -1.0, 2.0))
        back = pickle.loads(pickle.dumps(m))
        assert (back.weights, back.means, back.sigmas) == (
            m.weights, m.means, m.sigmas)

    @pytest.mark.parametrize("op", [
        lambda m: m.scaled(math.inf),
        lambda m: m.shifted(math.nan),
        lambda m: m.convolved(Normal(1.7e308, 1.0)),
    ], ids=["scaled", "shifted", "convolved"])
    def test_new_components_are_checked(self, op):
        with pytest.raises(ValueError, match="must be finite"):
            op(_mix((0.5, 1.7e308, 1.0)))

    def test_non_finite_clark_result_raises_from_max_with(self):
        # mu^2 overflows inside Clark's second moment: inf - inf = NaN.
        a = GaussianMixture.from_normal(Normal(1e200, 1.0))
        b = GaussianMixture.from_normal(Normal(1e200, 1.0))
        with pytest.raises(ValueError, match="must be finite"):
            a.max_with(b)
        with pytest.raises(ValueError, match="must be finite"):
            a.min_with(b)

    def test_overflowing_merge_raises(self):
        m = _mix((1.0, 1e200, 1e200), (1.0, 1e200, 1e200))
        with pytest.raises(ValueError, match="must be finite"):
            m.reduced(1)


# -- differential tests: heap reducer vs the O(n^2) rescan -----------------


def _oracle_merge(a: MixtureComponent,
                  b: MixtureComponent) -> MixtureComponent:
    """Moment-preserving merge of two weighted Gaussians into one."""
    w = a.weight + b.weight
    if w <= 0.0:
        return MixtureComponent(0.0, 0.0, 0.0)
    mu = (a.weight * a.mu + b.weight * b.mu) / w
    raw2 = (a.weight * (a.mu * a.mu + a.sigma * a.sigma)
            + b.weight * (b.mu * b.mu + b.sigma * b.sigma)) / w
    var = max(raw2 - mu * mu, 0.0)
    return MixtureComponent(w, mu, math.sqrt(var))


def oracle_reduced(mixture: GaussianMixture,
                   max_components: int) -> GaussianMixture:
    """The reference reducer: rescan every adjacent pair after each merge
    and merge the first cheapest one (West's weighted squared-mean gap)."""
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    comps = sorted(mixture.components, key=lambda c: c.mu)
    while len(comps) > max_components:
        best_i = 0
        best_cost = math.inf
        for i in range(len(comps) - 1):
            ci, cj = comps[i], comps[i + 1]
            wsum = ci.weight + cj.weight
            if wsum <= 0.0:
                cost = 0.0
            else:
                d = ci.mu - cj.mu
                cost = ci.weight * cj.weight / wsum * d * d
            if cost < best_cost:
                best_cost = cost
                best_i = i
        merged = _oracle_merge(comps[best_i], comps[best_i + 1])
        comps[best_i:best_i + 2] = [merged]
    return GaussianMixture(comps)


def _bits(mixture: GaussianMixture):
    """Exact float bit patterns of the (w, mu, sigma) arrays."""
    return tuple(tuple(x.hex() for x in part) for part in
                 (mixture.weights, mixture.means, mixture.sigmas))


# Small value sets make equal costs, duplicated means and zero weights
# common rather than measure-zero events.
_tie_weights = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                         st.floats(1e-6, 1.0))
_tie_means = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 4.0]),
                       st.floats(-50.0, 50.0))
_tie_sigmas = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                        st.floats(0.0, 5.0))


class TestHeapReducerMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_tie_weights, _tie_means, _tie_sigmas),
                    max_size=48),
           st.integers(1, 12))
    def test_bit_identical_to_rescan(self, triples, cap):
        m = _mix(*triples)
        assert _bits(m.reduced(cap)) == _bits(oracle_reduced(m, cap))

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
    def test_equal_cost_ties_resolve_leftmost(self, cap):
        # Equal weights on a unit lattice: every adjacent cost is equal,
        # and merges recreate new equal-cost pairs.
        m = _mix(*[(0.5, float(i), 1.0) for i in range(17)])
        assert _bits(m.reduced(cap)) == _bits(oracle_reduced(m, cap))

    def test_duplicated_means_keep_input_order(self):
        m = _mix((0.1, 1.0, 0.5), (0.2, 1.0, 2.0), (0.3, 0.0, 1.0),
                 (0.4, 1.0, 1.0), (0.5, 0.0, 0.0))
        for cap in range(1, 6):
            assert _bits(m.reduced(cap)) == _bits(oracle_reduced(m, cap))

    def test_under_cap_returns_sorted_copy(self):
        m = _mix((0.5, 3.0, 1.0), (0.2, -1.0, 1.0), (0.3, 1.0, 1.0))
        r = m.reduced(3)
        assert r.means == (-1.0, 1.0, 3.0)
        assert _bits(r) == _bits(oracle_reduced(m, 3))

    def test_zero_weight_inputs_are_dropped_first(self):
        m = _mix((0.0, 5.0, 1.0), (0.5, 0.0, 1.0), (0.0, -3.0, 1.0),
                 (0.5, 1.0, 1.0))
        assert _bits(m.reduced(1)) == _bits(oracle_reduced(m, 1))

    def test_empty(self):
        assert len(GaussianMixture.empty().reduced(1)) == 0


class OracleMixtureAlgebra(MixtureAlgebra):
    """MixtureAlgebra reducing with the rescan oracle and accumulating the
    WEIGHTED SUM term by term (the previous implementation)."""

    def maximum(self, dists):
        acc = dists[0]
        for d in dists[1:]:
            acc = oracle_reduced(acc.max_with(d), self.max_components)
        return acc

    def minimum(self, dists):
        acc = dists[0]
        for d in dists[1:]:
            acc = oracle_reduced(acc.min_with(d), self.max_components)
        return acc

    def mix(self, terms):
        acc = GaussianMixture.empty()
        for weight, dist in terms:
            acc = acc + dist.normalized().scaled(weight)
        total = acc.total_weight
        if total <= 0.0:
            return 0.0, None
        return total, oracle_reduced(acc.normalized(), self.max_components)


@pytest.mark.parametrize("circuit", ["s27", "s344", "s1196"])
def test_run_spsta_matches_oracle_reducer(circuit):
    netlist = benchmark_circuit(circuit)
    delay = NormalDelay(1.0, 0.1)
    new = run_spsta(netlist, CONFIG_I, delay, MixtureAlgebra())
    old = run_spsta(netlist, CONFIG_I, delay, OracleMixtureAlgebra())
    assert sorted(new.tops) == sorted(old.tops)
    for net in old.tops:
        for direction in ("rise", "fall"):
            a = getattr(new.tops[net], direction)
            b = getattr(old.tops[net], direction)
            assert repr(new.report(net, direction)) == repr(
                old.report(net, direction)), (net, direction)
            assert a.occurs == b.occurs
            if b.occurs:
                assert _bits(a.conditional) == _bits(b.conditional), \
                    (net, direction)
