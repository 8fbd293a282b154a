"""Property tests for the fast-engine building blocks.

Hypothesis drives the pieces the differential suite can only sample:
cached Eq. 11 weight tables vs the naive per-mask fold, FFT vs direct
delay convolution, retention vectors vs actually convolving-then-
integrating, and whole random circuits through both engines.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.spsta import MomentAlgebra, run_spsta
from repro.core.termplan import (
    WeightTableCache,
    build_weight_table,
    subset_lattice,
)
from repro.logic.gates import GateType
from repro.netlist.core import Gate, Netlist
from repro.stats.grid import (
    GaussianKernel,
    TimeGrid,
    convolve_rows,
    kernel_retention_vector,
    shift_retention_vector,
    shift_rows,
    trapezoid_rows,
)
from repro.stats.normal import Normal

GRID = TimeGrid(-5.0, 15.0, 512)

probs = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Eq. 11 weight tables.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.tuples(st.tuples(*[probs] * k), st.tuples(*[probs] * k))))
def test_weight_table_matches_naive_fold(vectors):
    """Every mask's weight must equal the naive candidate-index-order
    product bit for bit — that equality is what keeps the cached-table
    moment engine bit-identical to the reference path."""
    switch, static = vectors
    k = len(switch)
    table = build_weight_table(switch, static)
    assert table.shape == ((1 << k) - 1,)
    for mask in range(1, 1 << k):
        w = 1.0
        for bit in range(k):
            w *= switch[bit] if (mask >> bit) & 1 else static[bit]
        assert table[mask - 1] == w, mask


@given(st.tuples(probs, probs), st.tuples(probs, probs))
def test_weight_table_cache_serves_exact_match(switch, static):
    cache = WeightTableCache()
    first = cache.table(switch, static)
    again = cache.table(switch, static)
    assert again is first
    assert cache.hits == 1 and cache.misses == 1


def test_weight_table_cache_rounded_key_collision():
    """Two distinct vectors that agree to 12 digits must each get their
    own exact table."""
    switch_a = (0.5, 0.25)
    switch_b = (0.5 + 2e-13, 0.25)
    assert switch_a != switch_b
    assert round(switch_a[0], 12) == round(switch_b[0], 12)
    static = (0.125, 0.75)
    cache = WeightTableCache()
    table_a = cache.table(switch_a, static)
    table_b = cache.table(switch_b, static)
    assert cache.misses == 2 and cache.hits == 0
    assert table_a[0] == switch_a[0] * static[1]
    assert table_b[0] == switch_b[0] * static[1]
    assert cache.table(switch_a, static) is table_a
    assert cache.table(switch_b, static) is table_b
    assert cache.hits == 2


@given(st.integers(min_value=1, max_value=10))
def test_subset_lattice_structure(k):
    lat = subset_lattice(k)
    masks = np.arange(1, 1 << k)
    assert np.array_equal(lat.prev, masks - (1 << lat.top))
    assert np.array_equal(lat.pop,
                          [bin(int(m)).count("1") for m in masks])
    covered = np.concatenate(lat.by_pop)
    assert sorted(covered) == list(range((1 << k) - 1))


# ---------------------------------------------------------------------------
# FFT convolution and retention vectors.
# ---------------------------------------------------------------------------

kernel_params = st.tuples(
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.02, max_value=1.5, allow_nan=False))


def _random_rows(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.exponential(scale=1.0, size=(m, GRID.n))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=5), kernel_params)
def test_fft_convolution_matches_direct(seed, m, params):
    mu, sigma = params
    kernel = GaussianKernel(GRID, Normal(mu, sigma))
    rows = _random_rows(seed, m)
    direct = convolve_rows(rows, kernel, method="direct")
    fft = convolve_rows(rows, kernel, method="fft")
    assert np.allclose(fft, direct, rtol=1e-9, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), kernel_params)
def test_kernel_retention_vector_matches_trapezoid(seed, params):
    """``f @ c`` must equal integrating the actually-convolved density —
    the identity that lets the fast engine pre-mix terms per kernel."""
    mu, sigma = params
    kernel = GaussianKernel(GRID, Normal(mu, sigma))
    rows = _random_rows(seed, 3)
    c = kernel_retention_vector(kernel, GRID.n, GRID.dt)
    via_vector = rows @ c
    via_convolution = trapezoid_rows(
        convolve_rows(rows, kernel, method="direct"), GRID.dt)
    assert np.allclose(via_vector, via_convolution, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=-GRID.n - 5, max_value=GRID.n + 5))
def test_shift_retention_vector_matches_trapezoid(seed, bins):
    rows = _random_rows(seed, 3)
    c = shift_retention_vector(bins, GRID.n, GRID.dt)
    via_vector = rows @ c
    via_shift = trapezoid_rows(shift_rows(rows, bins), GRID.dt)
    assert np.allclose(via_vector, via_shift, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Whole random circuits through both engines.
# ---------------------------------------------------------------------------

_MULTI = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
          GateType.XOR, GateType.XNOR)
_SINGLE = (GateType.BUFF, GateType.NOT)


@st.composite
def random_netlists(draw):
    n_inputs = draw(st.integers(min_value=2, max_value=4))
    n_gates = draw(st.integers(min_value=1, max_value=8))
    nets = [f"i{k}" for k in range(n_inputs)]
    gates = []
    for g in range(n_gates):
        single = draw(st.booleans())
        if single:
            gtype = draw(st.sampled_from(_SINGLE))
            fanin = 1
        else:
            gtype = draw(st.sampled_from(_MULTI))
            fanin = draw(st.integers(min_value=2, max_value=3))
        chosen = draw(st.permutations(nets))[:fanin]
        gates.append(Gate(f"g{g}", gtype, tuple(chosen)))
        nets.append(f"g{g}")
    return Netlist("random", [f"i{k}" for k in range(n_inputs)],
                   [gates[-1].name], gates)


@settings(max_examples=30, deadline=None)
@given(random_netlists())
def test_random_circuit_fast_matches_naive_bitexact(netlist):
    delay = NormalDelay(1.0, 0.1)
    fast = run_spsta(netlist, CONFIG_I, delay, MomentAlgebra(),
                     engine="fast")
    naive = run_spsta(netlist, CONFIG_I, delay, MomentAlgebra(),
                      engine="naive")
    for net in naive.tops:
        assert fast.prob4[net] == naive.prob4[net], net
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == b.weight, (net, direction)
            assert a.occurs == b.occurs, (net, direction)
            if b.occurs:
                assert (fast.algebra.stats(a.conditional)
                        == naive.algebra.stats(b.conditional)), \
                    (net, direction)
