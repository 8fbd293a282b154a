"""Tests for repro.core.incremental_spsta — incremental SPSTA.

The core claim is *bit-exactness*: after any sequence of delay edits,
the worklist-repaired state equals a fresh production ``run_spsta``
pass over the same effective delays, for every algebra.  The
differential tests drive random edit sequences on the bundled ISCAS
benches and check exactly that via :func:`assert_matches_full`
(tolerance 0).  Grid repairs re-time a subset of a level through the
compiled program's level step, so ``TestGridRepair`` also drives cones
that span several levels and levels with several dirty gates.
"""

import numpy as np
import pytest

from repro.core.delay import MisDelay, NormalDelay
from repro.core.incremental_spsta import (
    IncrementalDivergenceError,
    IncrementalSpsta,
    _OverrideDelays,
    assert_matches_full,
    conditionals_close,
    fresh_algebra_like,
)
from repro.core.inputs import CONFIG_I
from repro.core.scenario import GridGroup
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.grid import TimeGrid
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal
from repro.verify.harness import sweep_grid_for


def _algebra_for(kind, netlist):
    if kind == "moment":
        return MomentAlgebra()
    if kind == "mixture":
        return MixtureAlgebra()
    return GridAlgebra(sweep_grid_for(netlist))


def _random_edits(netlist, rng, n_edits):
    """Deterministic pseudo-random (gate, delay) edit sequence."""
    comb = netlist.combinational_gates
    picks = rng.integers(0, len(comb), size=n_edits)
    mus = 0.6 + 1.8 * rng.random(n_edits)
    sigmas = 0.02 + 0.1 * rng.random(n_edits)
    return [(comb[int(i)].name, Normal(float(mu), float(sg)))
            for i, mu, sg in zip(picks, mus, sigmas)]


class TestDifferential:
    @pytest.mark.parametrize("algebra_kind",
                             ["moment", "mixture", "grid"])
    @pytest.mark.parametrize("bench,seed", [("s27", 0), ("s298", 1),
                                            ("s344", 2)])
    def test_random_edit_sequences_bit_match_full(self, bench, seed,
                                                  algebra_kind):
        netlist = benchmark_circuit(bench)
        inc = IncrementalSpsta(netlist, CONFIG_I,
                               algebra=_algebra_for(algebra_kind, netlist))
        rng = np.random.default_rng(seed)
        for gate, delay in _random_edits(netlist, rng, 6):
            inc.set_delay(gate, delay)
            assert assert_matches_full(inc) == len(netlist.nets)

    def test_initial_state_matches_full_run(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        assert assert_matches_full(inc) == len(netlist.nets)

    def test_clear_delay_restores_the_base_model(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        baseline = {net: inc.tops[net] for net in netlist.nets}
        victim = netlist.combinational_gates[10].name
        inc.set_delay(victim, Normal(2.5, 0.1))
        inc.clear_delay(victim)
        assert {net: inc.tops[net] for net in netlist.nets} == baseline
        assert_matches_full(inc)

    def test_set_delay_full_mode_lands_in_the_same_state(self):
        netlist = benchmark_circuit("s344")
        worklist = IncrementalSpsta(netlist, CONFIG_I)
        fullpass = IncrementalSpsta(netlist, CONFIG_I)
        rng = np.random.default_rng(3)
        for gate, delay in _random_edits(netlist, rng, 4):
            worklist.set_delay(gate, delay)
            stats = fullpass.set_delay(gate, delay, full=True)
            assert stats.recomputed == len(netlist.combinational_gates)
        assert worklist.tops == fullpass.tops
        assert worklist.prob4 == fullpass.prob4


def _same_tops(a, b):
    """Bit-exact equality of two net -> NetTops maps (any algebra)."""
    if set(a) != set(b):
        return False
    for net in a:
        for direction in ("rise", "fall"):
            x = getattr(a[net], direction)
            y = getattr(b[net], direction)
            if x.occurs != y.occurs or (x.occurs and (
                    x.weight != y.weight
                    or not conditionals_close(x.conditional, y.conditional,
                                              0.0))):
                return False
    return True


@pytest.fixture()
def level_steps(monkeypatch):
    """Record the batch size of every grid level step."""
    sizes = []
    original = GridGroup.run_level

    def spy(self, records, nets):
        sizes.append(len(records))
        return original(self, records, nets)

    monkeypatch.setattr(GridGroup, "run_level", spy)
    return sizes


class TestGridRepair:
    """Grid sessions repair on the compiled program, bit-exactly."""

    GRID = TimeGrid(-8.0, 60.0, 512)
    DELAY = NormalDelay(1.0, 0.1)

    def _inc(self, netlist, delay=DELAY):
        return IncrementalSpsta(netlist, CONFIG_I, delay,
                                GridAlgebra(self.GRID))

    def test_s1196_edit_sequence_spans_levels_and_batches(self,
                                                          level_steps):
        netlist = benchmark_circuit("s1196")
        inc = self._inc(netlist)
        n_levels = len(netlist.levels)
        assert len(level_steps) == n_levels   # the build is one full pass
        comb = netlist.combinational_gates
        # A shallow gate (large multi-level cone), a mid gate, a deep
        # gate, and a revert of the first.
        moves = [(comb[0].name, Normal(1.4, 0.14)),
                 (comb[len(comb) // 2].name, Normal(0.7, 0.07)),
                 (comb[-3].name, Normal(1.2, 0.0))]
        for gate, delay in moves:
            del level_steps[:]
            stats = inc.set_delay(gate, delay)
            assert stats.recomputed == stats.cone_size
            assert sum(level_steps) == stats.recomputed
            assert assert_matches_full(inc) == len(netlist.nets)
            if gate == comb[0].name:
                assert len(level_steps) > 5       # many levels
                assert max(level_steps) > 1       # several gates a level
        del level_steps[:]
        inc.clear_delay(comb[0].name)
        assert max(level_steps) > 1
        assert_matches_full(inc)

    def test_s1196_random_edits_bit_match_full(self):
        netlist = benchmark_circuit("s1196")
        inc = self._inc(netlist)
        rng = np.random.default_rng(11)
        for gate, delay in _random_edits(netlist, rng, 5):
            inc.set_delay(gate, delay)
            assert_matches_full(inc)

    def test_mis_base_model_repairs_bit_exactly(self):
        netlist = benchmark_circuit("s344")
        inc = self._inc(netlist, MisDelay(1.0, 0.15, 0.3, 0.1))
        rng = np.random.default_rng(12)
        for gate, delay in _random_edits(netlist, rng, 5):
            inc.set_delay(gate, delay)
            assert_matches_full(inc)

    def test_full_mode_lands_in_the_worklist_state(self):
        netlist = benchmark_circuit("s1196")
        worklist = self._inc(netlist)
        fullpass = self._inc(netlist)
        rng = np.random.default_rng(13)
        for gate, delay in _random_edits(netlist, rng, 3):
            worklist.set_delay(gate, delay)
            stats = fullpass.set_delay(gate, delay, full=True)
            assert stats.recomputed == len(netlist.combinational_gates)
            assert _same_tops(worklist.tops, fullpass.tops)
        assert_matches_full(fullpass)

    def test_clear_delay_returns_the_build_state(self):
        netlist = benchmark_circuit("s1196")
        inc = self._inc(netlist)
        built = dict(inc.tops)
        comb = netlist.combinational_gates
        victims = [comb[3].name, comb[40].name]
        for victim in victims:
            inc.set_delay(victim, Normal(2.0, 0.2))
        assert not _same_tops(inc.tops, built)
        for victim in victims:
            inc.clear_delay(victim)
        assert _same_tops(inc.tops, built)
        assert_matches_full(inc)

    def test_identity_edit_terminates_at_the_source(self):
        netlist = benchmark_circuit("s1196")
        inc = self._inc(netlist)
        victim = netlist.combinational_gates[20].name
        inc.set_delay(victim, Normal(1.7, 0.05))
        stats = inc.set_delay(victim, Normal(1.7, 0.05))
        assert (stats.recomputed, stats.skipped) == (1, 1)


class TestOverrideDelays:
    def test_mis_hook_only_when_the_base_has_one(self):
        assert not hasattr(_OverrideDelays(NormalDelay(1.0, 0.1), {}),
                           "delay_mis")
        mis = _OverrideDelays(MisDelay(), {"G1": Normal(2.0, 0.0)})
        gate = benchmark_circuit("s27").gates["G8"]
        assert mis.delay_mis(gate, 2) == MisDelay().delay_mis(gate, 2)

    def test_empty_override_stack_runs_like_its_base(self):
        """Regression: the MIS hook used to be always defined, which sent
        the grid program down its MIS job path and moved ULPs on most
        s1196 nets."""
        netlist = benchmark_circuit("s1196")
        grid = TimeGrid(-8.0, 60.0, 512)
        base = NormalDelay(1.0, 0.1)
        plain = run_spsta(netlist, CONFIG_I, base, GridAlgebra(grid))
        wrapped = run_spsta(netlist, CONFIG_I, _OverrideDelays(base, {}),
                            GridAlgebra(grid))
        assert _same_tops(plain.tops, wrapped.tops)


class TestWorklist:
    def test_update_touches_only_fanout_cone(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[5].name
        stats = inc.set_delay(victim, Normal(3.0, 0.0))
        n_comb = len(netlist.combinational_gates)
        assert stats.cone_size < n_comb
        assert stats.recomputed == stats.cone_size

    def test_identity_edit_terminates_at_the_source(self):
        # Re-asserting the delay a gate already has changes nothing, so
        # the repair recomputes that one gate and stops.
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[8].name
        inc.set_delay(victim, Normal(1.7, 0.05))
        stats = inc.set_delay(victim, Normal(1.7, 0.05))
        assert stats.recomputed == 1
        assert stats.skipped == 1

    def test_prob4_is_never_touched_by_delay_edits(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        before = dict(inc.prob4)
        for gate, delay in _random_edits(netlist,
                                         np.random.default_rng(4), 5):
            inc.set_delay(gate, delay)
        assert inc.prob4 == before

    def test_result_is_an_ordinary_spsta_result(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        result = inc.result()
        assert result.netlist_name == netlist.name
        assert set(result.tops) == set(netlist.nets)


class TestValidation:
    def test_unknown_gate_rejected(self):
        inc = IncrementalSpsta(benchmark_circuit("s27"), CONFIG_I)
        with pytest.raises(KeyError):
            inc.set_delay("nonexistent", Normal(1.0, 0.0))
        with pytest.raises(KeyError):
            inc.clear_delay("nonexistent")

    def test_primary_input_is_not_an_editable_gate(self):
        netlist = benchmark_circuit("s27")
        with pytest.raises(KeyError):
            IncrementalSpsta(netlist, CONFIG_I).set_delay(
                netlist.inputs[0], Normal(1.0, 0.0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            IncrementalSpsta(benchmark_circuit("s27"), CONFIG_I,
                             tolerance=-1e-9)

    def test_effective_delay_model_is_a_frozen_snapshot(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[0].name
        inc.set_delay(victim, Normal(2.0, 0.1))
        snapshot = inc.effective_delay_model()
        gate = netlist.gates[victim]
        assert snapshot.delay(gate) == Normal(2.0, 0.1)
        inc.clear_delay(victim)
        # Later edits must not leak into the earlier snapshot.
        assert snapshot.delay(gate) == Normal(2.0, 0.1)
        assert inc.effective_delay_model().delay(gate) == Normal(1.0, 0.0)

    def test_assert_matches_full_detects_divergence(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        # Plant an override without repairing: the full pass sees the new
        # delay, the incremental state still holds the old TOPs.
        inc._overrides[netlist.combinational_gates[0].name] = \
            Normal(9.0, 0.0)
        with pytest.raises(IncrementalDivergenceError):
            assert_matches_full(inc)


class TestHelpers:
    def test_fresh_algebra_like_preserves_configuration(self):
        mixture = MixtureAlgebra(3)
        clone = fresh_algebra_like(mixture)
        assert clone is not mixture
        assert clone.max_components == 3
        grid_algebra = GridAlgebra(sweep_grid_for(benchmark_circuit("s27")))
        grid_clone = fresh_algebra_like(grid_algebra)
        assert grid_clone is not grid_algebra
        assert grid_clone.grid == grid_algebra.grid
        assert isinstance(fresh_algebra_like(MomentAlgebra()),
                          MomentAlgebra)

    def test_conditionals_close_normal(self):
        assert conditionals_close(Normal(1.0, 0.1), Normal(1.0, 0.1), 0.0)
        assert not conditionals_close(Normal(1.0, 0.1),
                                      Normal(1.0 + 1e-12, 0.1), 0.0)
        assert conditionals_close(Normal(1.0, 0.1), Normal(1.05, 0.1),
                                  0.1)

    def test_conditionals_close_mixture(self):
        one = GaussianMixture.from_normal(Normal(1.0, 0.1))
        two = one + GaussianMixture.from_normal(Normal(2.0, 0.2),
                                                weight=0.5)
        assert conditionals_close(one, one, 0.0)
        assert not conditionals_close(one, two, 1e9)  # length mismatch
        shifted = one.shifted(1e-9)
        assert not conditionals_close(one, shifted, 0.0)
        assert conditionals_close(one, shifted, 1e-6)

    def test_conditionals_close_type_mismatch_raises(self):
        with pytest.raises(TypeError):
            conditionals_close(1.0, 2.0, 0.0)


@pytest.mark.perf_smoke
class TestPerfSmoke:
    def test_cone_repair_is_much_smaller_than_the_netlist(self):
        netlist = benchmark_circuit("s1196")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        n_comb = len(netlist.combinational_gates)
        total = 0
        for gate, delay in _random_edits(netlist,
                                         np.random.default_rng(5), 8):
            total += inc.set_delay(gate, delay).recomputed
        # 8 edits at full-pass cost would be 8 * n_comb evaluations; the
        # worklist must stay well under a single full pass' worth.
        assert total < n_comb
        assert_matches_full(inc)
