"""Weighted Gaussian mixtures — the closed form of the WEIGHTED SUM operation.

The paper's TOP (transition temporal occurrence probability) functions are
sub-probability densities: their integral is the transition occurrence
probability, not 1 (Sec. 3.1).  A weighted Gaussian mixture represents this
exactly for the WEIGHTED SUM operation (Eq. 8/11): summing densities with
scalar weights just concatenates scaled components.  The MAX operation is
approximated component-pairwise with Clark's formulas, and a component-count
cap keeps propagation linear-time (moment-preserving merge of the closest
pair, in the style of Gaussian mixture reduction).

A mixture is stored struct-of-arrays: three parallel float tuples of
weights, means and sigmas, with no per-component object.  Every operation
works on those tuples and validates each mixture it creates in one pass
(finite parameters, ``weight >= 0``, ``sigma >= 0``); concatenation and
reduction of already-checked tuples need no re-check, except that every
merged component is checked.  :class:`MixtureComponent` remains the public
value type for building mixtures and reading them back
(:attr:`GaussianMixture.components`).  Reduction keeps its adjacent-pair
costs in a heap, so capping a mixture of ``n`` components costs
O(n log n) rather than a rescan of every pair after each merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
import math
from typing import Iterable, Sequence, Tuple

from repro.stats.clark import clark_max_moments, clark_min_moments
from repro.stats.normal import Normal, norm_cdf, norm_pdf

Floats = Tuple[float, ...]


def _check_component(weight: float, mu: float, sigma: float) -> None:
    """Raise ValueError unless (weight, mu, sigma) is a valid component."""
    if not (math.isfinite(weight) and math.isfinite(mu)
            and math.isfinite(sigma)):
        raise ValueError(
            f"component parameters must be finite, got "
            f"(w={weight}, mu={mu}, sigma={sigma}) "
            f"(NaN/Inf sentinel: an upstream operation diverged)")
    if weight < 0.0:
        raise ValueError(f"component weight must be >= 0, got {weight}")
    if sigma < 0.0:
        raise ValueError(f"component sigma must be >= 0, got {sigma}")


@dataclass(frozen=True)
class MixtureComponent:
    """One Gaussian component with a non-negative weight."""

    weight: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _check_component(self.weight, self.mu, self.sigma)


def _wrap(w: Floats, mu: Floats, sigma: Floats) -> "GaussianMixture":
    """A mixture over already-checked, zero-free parallel tuples."""
    mixture = object.__new__(GaussianMixture)
    mixture._w = w
    mixture._mu = mu
    mixture._sigma = sigma
    return mixture


def _checked(w: Floats, mu: Floats, sigma: Floats) -> "GaussianMixture":
    """A mixture over freshly computed parallel tuples.

    Validates every component in one pass and drops zero-weight ones.
    A finite grand total proves every entry finite; when it is not (or a
    weight or sigma is negative) the per-component scan finds the first
    offender and raises its message — or passes, if the total merely
    overflowed.
    """
    if not w:
        return _wrap(w, mu, sigma)
    if not (math.isfinite(sum(w) + sum(mu) + sum(sigma))
            and min(w) >= 0.0 and min(sigma) >= 0.0):
        for wi, mi, si in zip(w, mu, sigma):
            _check_component(wi, mi, si)
    if min(w) > 0.0:
        return _wrap(w, mu, sigma)
    keep = [i for i, wi in enumerate(w) if wi > 0.0]
    return _wrap(tuple([w[i] for i in keep]), tuple([mu[i] for i in keep]),
                 tuple([sigma[i] for i in keep]))


class GaussianMixture:
    """A finite weighted sum of Gaussians, 0 <= total weight (<= 1 for TOPs).

    The mixture is immutable from the caller's perspective: all operations
    return new mixtures.  Zero-weight components are dropped on creation.
    """

    __slots__ = ("_w", "_mu", "_sigma")

    _w: Floats
    _mu: Floats
    _sigma: Floats

    def __init__(self, components: Iterable[MixtureComponent] = ()) -> None:
        kept = [c for c in components if c.weight > 0.0]
        self._w = tuple([c.weight for c in kept])
        self._mu = tuple([c.mu for c in kept])
        self._sigma = tuple([c.sigma for c in kept])

    @classmethod
    def from_normal(cls, normal: Normal,
                    weight: float = 1.0) -> "GaussianMixture":
        """A single-component mixture from a Gaussian with a given weight."""
        return cls([MixtureComponent(weight, normal.mu, normal.sigma)])

    @classmethod
    def empty(cls) -> "GaussianMixture":
        """The zero density (no transition ever occurs)."""
        return cls()

    @staticmethod
    def concatenated(
            mixtures: Iterable["GaussianMixture"]) -> "GaussianMixture":
        """WEIGHTED SUM of densities: all components, in argument order."""
        parts = list(mixtures)
        return _wrap(tuple([x for m in parts for x in m._w]),
                     tuple([x for m in parts for x in m._mu]),
                     tuple([x for m in parts for x in m._sigma]))

    @property
    def components(self) -> Tuple[MixtureComponent, ...]:
        """The components as value objects (built on each access)."""
        return tuple(map(MixtureComponent, self._w, self._mu, self._sigma))

    @property
    def weights(self) -> Floats:
        """Component weights, parallel to :attr:`means` and :attr:`sigmas`."""
        return self._w

    @property
    def means(self) -> Floats:
        """Component means."""
        return self._mu

    @property
    def sigmas(self) -> Floats:
        """Component standard deviations."""
        return self._sigma

    def __len__(self) -> int:
        return len(self._w)

    def __bool__(self) -> bool:
        return bool(self._w)

    def __getstate__(self) -> Tuple[Floats, Floats, Floats]:
        return self._w, self._mu, self._sigma

    def __setstate__(self, state: object) -> None:
        # A pickle of another layout (e.g. a tuple of component objects)
        # must fail to load rather than yield a half-initialised mixture.
        if not (isinstance(state, tuple) and len(state) == 3
                and all(isinstance(part, tuple) for part in state)
                and len(state[0]) == len(state[1]) == len(state[2])):
            raise TypeError("GaussianMixture state is not three parallel "
                            "(weights, means, sigmas) tuples")
        self._w, self._mu, self._sigma = state

    @property
    def total_weight(self) -> float:
        """Integral of the density = transition occurrence probability."""
        return sum(self._w)

    def mean(self) -> float:
        """Mean of the normalized (conditional-on-occurrence) form."""
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("mean of an empty mixture is undefined")
        return sum([wi * mi for wi, mi in zip(self._w, self._mu)]) / w

    def var(self) -> float:
        """Variance of the normalized distribution."""
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("variance of an empty mixture is undefined")
        raw2 = sum([wi * (mi * mi + si * si) for wi, mi, si
                    in zip(self._w, self._mu, self._sigma)]) / w
        m = self.mean()
        return max(raw2 - m * m, 0.0)

    def std(self) -> float:
        """Standard deviation of the normalized distribution."""
        return math.sqrt(self.var())

    def third_central_moment(self) -> float:
        """Third central moment of the normalized distribution (for skewness).

        Uses E[(X-m)^3] = sum_i w_i [ (mu_i - m)^3 + 3 (mu_i - m) sigma_i^2 ]
        since each Gaussian component has zero own third central moment.
        """
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("moment of an empty mixture is undefined")
        m = self.mean()
        acc = 0.0
        for wi, mi, si in zip(self._w, self._mu, self._sigma):
            d = mi - m
            acc += wi * (d * d * d + 3.0 * d * si * si)
        return acc / w

    def pdf(self, x: float) -> float:
        """Density at ``x`` (unnormalized: integrates to total weight)."""
        return sum([wi * norm_pdf(x, mi, si) for wi, mi, si
                    in zip(self._w, self._mu, self._sigma)])

    def cdf(self, x: float) -> float:
        """Sub-probability cdf at ``x`` (tends to total weight as x -> inf)."""
        return sum([wi * norm_cdf(x, mi, si) for wi, mi, si
                    in zip(self._w, self._mu, self._sigma)])

    def scaled(self, factor: float) -> "GaussianMixture":
        """Scale all weights — the scalar multiply of a WEIGHTED SUM term."""
        if factor < 0.0:
            raise ValueError(f"weight factor must be >= 0, got {factor}")
        return _checked(tuple([wi * factor for wi in self._w]),
                        self._mu, self._sigma)

    def shifted(self, delay: float) -> "GaussianMixture":
        """Add a deterministic delay to every component (SUM with sigma=0)."""
        return _checked(self._w, tuple([mi + delay for mi in self._mu]),
                        self._sigma)

    def convolved(self, delay: Normal) -> "GaussianMixture":
        """SUM with an independent Gaussian delay (exact for mixtures)."""
        dmu, dsigma = delay.mu, delay.sigma
        hypot = math.hypot
        return _checked(self._w, tuple([mi + dmu for mi in self._mu]),
                        tuple([hypot(si, dsigma) for si in self._sigma]))

    def __add__(self, other: "GaussianMixture") -> "GaussianMixture":
        """WEIGHTED SUM of densities: concatenation of components."""
        if not isinstance(other, GaussianMixture):
            return NotImplemented
        return _wrap(self._w + other._w, self._mu + other._mu,
                     self._sigma + other._sigma)

    def normalized(self) -> "GaussianMixture":
        """Rescale to unit total weight (TOP -> arrival-time pdf, Sec. 3.1)."""
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("cannot normalize an empty mixture")
        return self.scaled(1.0 / w)

    def as_normal(self) -> Normal:
        """Moment-matched single Gaussian of the normalized distribution."""
        return Normal(self.mean(), self.std())

    def max_with(self, other: "GaussianMixture") -> "GaussianMixture":
        """MAX of two independent mixture-distributed arrival times.

        Both operands are treated as conditional (normalized) distributions;
        the result is normalized too.  Each component pair is combined with
        Clark's max and re-weighted by the product of component weights.
        """
        return self._extreme_with(other, clark_max_moments)

    def min_with(self, other: "GaussianMixture") -> "GaussianMixture":
        """MIN analogue of :meth:`max_with`."""
        return self._extreme_with(other, clark_min_moments)

    def _extreme_with(self, other: "GaussianMixture", op) -> "GaussianMixture":
        if not self or not other:
            raise ValueError("MAX/MIN of an empty mixture is undefined")
        a, b = self.normalized(), other.normalized()
        b_pairs = [(wb, mb, sb * sb)
                   for wb, mb, sb in zip(b._w, b._mu, b._sigma)]
        w, mu, sigma = [], [], []
        for wa, ma, sa in zip(a._w, a._mu, a._sigma):
            va = sa * sa
            for wb, mb, vb in b_pairs:
                mean, var = op(ma, va, mb, vb)
                w.append(wa * wb)
                mu.append(mean)
                sigma.append(math.sqrt(var))
        return _checked(tuple(w), tuple(mu), tuple(sigma))

    def reduced(self, max_components: int) -> "GaussianMixture":
        """Merge closest pairs until ``max_components`` or fewer remain.

        Each merge is moment-preserving for the pair (weight, mean, and
        variance of the two-component sub-mixture are kept exactly), the
        standard Gaussian-mixture-reduction step.  Distance is the weighted
        squared-mean gap of West's reduction heuristic, restricted to
        mean-adjacent pairs after a stable sort by mean.

        The adjacent-pair costs live in a heap keyed by ``(cost, left
        slot)``; neighbours are a doubly linked list over the sorted
        slots, and per-slot versions retire stale heap entries lazily.  A
        merged component keeps its left neighbour's slot, so slot order is
        list order and the heap picks the leftmost cheapest pair — the
        same merge sequence as rescanning every pair after each merge, at
        O(n log n) instead of O(n^2).  The result is sorted by mean.
        """
        if max_components < 1:
            raise ValueError("max_components must be >= 1")
        n = len(self._w)
        order = sorted(range(n), key=self._mu.__getitem__)
        w = [self._w[i] for i in order]
        mu = [self._mu[i] for i in order]
        sigma = [self._sigma[i] for i in order]
        if n <= max_components:
            return _wrap(tuple(w), tuple(mu), tuple(sigma))

        # Pair cost (wl * wr / (wl + wr)) * d * d, d the mean gap, written
        # out at each use: a call per pair costs more than the arithmetic.
        # A NaN cost (0 * inf) is keyed as +inf, so the heap order stays
        # total; it never beats a finite cost, and among +inf keys the
        # leftmost pair wins, as in a first-minimum scan.
        heap = []
        for i in range(n - 1):
            wl, wr = w[i], w[i + 1]
            d = mu[i] - mu[i + 1]
            cost = wl * wr / (wl + wr) * d * d
            heap.append((cost if cost == cost else math.inf, i, 0))
        heapify(heap)
        version = [0] * n
        nxt = list(range(1, n + 1))
        prv = list(range(-1, n - 1))
        for _ in range(n - max_components):
            while True:
                _, i, ver = heappop(heap)
                if ver == version[i]:
                    break
            j = nxt[i]
            wi, wj = w[i], w[j]
            mi, mj = mu[i], mu[j]
            si, sj = sigma[i], sigma[j]
            wm = wi + wj
            mm = (wi * mi + wj * mj) / wm
            raw2 = (wi * (mi * mi + si * si) + wj * (mj * mj + sj * sj)) / wm
            sm = math.sqrt(max(raw2 - mm * mm, 0.0))
            if not math.isfinite(wm + mm + sm):
                _check_component(wm, mm, sm)
            w[i], mu[i], sigma[i] = wm, mm, sm
            version[i] += 1
            version[j] += 1
            k = nxt[j]
            nxt[i] = k
            if k < n:
                prv[k] = i
                wr = w[k]
                d = mm - mu[k]
                cost = wm * wr / (wm + wr) * d * d
                heappush(heap, (cost if cost == cost else math.inf, i,
                                version[i]))
            p = prv[i]
            if p >= 0:
                version[p] += 1
                wl = w[p]
                d = mu[p] - mm
                cost = wl * wm / (wl + wm) * d * d
                heappush(heap, (cost if cost == cost else math.inf, p,
                                version[p]))
        live = []
        i = 0
        while i < n:
            live.append(i)
            i = nxt[i]
        return _wrap(tuple([w[i] for i in live]), tuple([mu[i] for i in live]),
                     tuple([sigma[i] for i in live]))

    def quantile(self, p: float, tol: float = 1e-9) -> float:
        """Inverse cdf of the normalized mixture by bisection.

        Used for percentile-style reporting (e.g. a 99.9% arrival time
        from an SPSTA mixture result).
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        if not self._w:
            raise ValueError("quantile of an empty mixture is undefined")
        total = self.total_weight
        lo = min(mi - 10.0 * max(si, 1e-12)
                 for mi, si in zip(self._mu, self._sigma))
        hi = max(mi + 10.0 * max(si, 1e-12)
                 for mi, si in zip(self._mu, self._sigma))
        target = p * total
        while hi - lo > tol * max(1.0, abs(hi), abs(lo)):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, n: int, rng) -> "np.ndarray":
        """Draw ``n`` samples from the normalized mixture as a float array
        (``rng`` is a numpy Generator).  Used for validation (e.g. KS tests
        against Monte Carlo) and for driving downstream samplers from SPSTA
        results.

        Side effect: the draw advances ``rng``'s stream (one ``choice`` of
        size ``n`` plus one ``standard_normal`` of size ``n``) — callers
        sharing a generator across samplers must account for the consumed
        state, the same caveat as
        :func:`repro.sim.parallel.seed_sequence_of`'s exotic-bit-generator
        fallback.
        """
        import numpy as np
        if not self._w:
            raise ValueError("cannot sample an empty mixture")
        weights = np.array(self._w)
        weights = weights / weights.sum()
        choices = rng.choice(len(self._w), size=n, p=weights)
        mus = np.array(self._mu)
        sigmas = np.array(self._sigma)
        return mus[choices] + sigmas[choices] * rng.standard_normal(n)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({wi:.4g}, N({mi:.4g}, {si:.4g}))"
            for wi, mi, si in zip(self._w, self._mu, self._sigma))
        return f"GaussianMixture[{body}]"


def mixture_weighted_sum(
        terms: Sequence[Tuple[float, GaussianMixture]]) -> GaussianMixture:
    """WEIGHTED SUM (Eq. 8): sum_i  w_i * phi(x_i), as one mixture."""
    return GaussianMixture.concatenated(
        mixture.scaled(weight) for weight, mixture in terms)
