"""Tests for repro.core.variational — canonical polynomial arrival times."""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.core.variational import (
    CanonicalForm,
    ProcessSpace,
    VariationalDelay,
    run_variational,
    timing_yield,
)
from repro.logic.gates import GateType
from repro.netlist.analysis import fanin_cone
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from tests.test_random_circuits import random_dag

SPACE = ProcessSpace(("L", "V"))


class TestCanonicalForm:
    def test_moments(self):
        f = CanonicalForm(SPACE, 3.0, np.array([0.3, 0.4]), local_var=0.75)
        assert f.mean == 3.0
        assert f.var == pytest.approx(0.09 + 0.16 + 0.75)
        assert f.sigma == pytest.approx(1.0)

    def test_sum(self):
        a = CanonicalForm(SPACE, 1.0, np.array([0.1, 0.0]), 0.04)
        b = CanonicalForm(SPACE, 2.0, np.array([0.2, 0.3]), 0.05)
        c = a + b
        assert c.mean == 3.0
        assert c.sensitivity("L") == pytest.approx(0.3)
        assert c.local_var == pytest.approx(0.09)

    def test_covariance_through_shared_parameters(self):
        a = CanonicalForm(SPACE, 0.0, np.array([0.5, 0.0]), 1.0)
        b = CanonicalForm(SPACE, 0.0, np.array([0.5, 0.2]), 1.0)
        assert a.cov_with(b) == pytest.approx(0.25)
        assert -1.0 <= a.corr_with(b) <= 1.0

    def test_max_of_correlated_forms_against_sampling(self):
        a = CanonicalForm(SPACE, 0.0, np.array([0.8, 0.0]), 0.36)
        b = CanonicalForm(SPACE, 0.3, np.array([0.6, 0.3]), 0.25)
        m = a.max_with(b)
        rng = np.random.default_rng(0)
        n = 400_000
        params = rng.standard_normal((n, 2))
        xa = a.sample(params, rng)
        xb = b.sample(params, rng)  # shared parameter draws => correlated
        sample = np.maximum(xa, xb)
        assert m.mean == pytest.approx(sample.mean(), abs=0.02)
        assert m.sigma == pytest.approx(sample.std(), abs=0.03)

    def test_max_keeps_sensitivity_mixing(self):
        a = CanonicalForm(SPACE, 10.0, np.array([1.0, 0.0]), 0.0)
        b = CanonicalForm(SPACE, 0.0, np.array([0.0, 1.0]), 0.0)
        m = a.max_with(b)
        # a dominates: sensitivities follow a.
        assert m.sensitivity("L") == pytest.approx(1.0, abs=1e-6)
        assert m.sensitivity("V") == pytest.approx(0.0, abs=1e-6)

    def test_min_with(self):
        a = CanonicalForm(SPACE, 0.0, np.array([0.5, 0.0]), 1.0)
        b = CanonicalForm(SPACE, 5.0, np.array([0.0, 0.5]), 1.0)
        m = a.min_with(b)
        assert m.mean == pytest.approx(0.0, abs=0.01)

    def test_corner_evaluation(self):
        f = CanonicalForm(SPACE, 2.0, np.array([0.1, -0.2]), 0.0)
        assert f.at_corner({"L": 3.0, "V": -3.0}) == pytest.approx(2.9)

    def test_space_mismatch_rejected(self):
        other = ProcessSpace(("X",))
        a = CanonicalForm(SPACE, 0.0)
        b = CanonicalForm(other, 0.0)
        with pytest.raises(ValueError):
            a + b

    def test_bad_coefficient_shape_rejected(self):
        with pytest.raises(ValueError):
            CanonicalForm(SPACE, 0.0, np.array([1.0]))

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpace(("L", "L"))


class TestVariationalDelay:
    def test_delay_form(self):
        model = VariationalDelay(SPACE, nominal=2.0,
                                 sensitivities={"L": 0.05},
                                 local_sigma=0.1)
        form = model.delay_form(Gate("g", GateType.AND, ("a", "b")))
        assert form.mean == 2.0
        assert form.sensitivity("L") == pytest.approx(0.1)
        assert form.local_var == pytest.approx(0.01)

    def test_type_scale(self):
        model = VariationalDelay(SPACE, type_scale={GateType.XOR: 1.5})
        slow = model.delay_form(Gate("g", GateType.XOR, ("a", "b")))
        fast = model.delay_form(Gate("h", GateType.AND, ("a", "b")))
        assert slow.mean == pytest.approx(1.5 * fast.mean)


class TestRunVariational:
    def _delay(self):
        return VariationalDelay(SPACE, nominal=1.0,
                                sensitivities={"L": 0.08, "V": 0.04},
                                local_sigma=0.05)

    def test_chain_accumulates_sensitivity(self, chain_circuit):
        result = run_variational(chain_circuit, self._delay())
        form = result.rise["n3"]
        assert form.mean == pytest.approx(3.0)
        # Three gates, fully correlated systematic part: 3 * 0.08.
        assert form.sensitivity("L") == pytest.approx(0.24)

    def test_systematic_correlation_between_endpoints(self, mixed_circuit):
        result = run_variational(mixed_circuit, self._delay())
        a = result.worst("out")
        b = result.worst("p")
        assert a.corr_with(b) > 0.0  # shared global parameters

    def test_matches_ssta_means_with_zero_sensitivity(self, mixed_circuit):
        from repro.core.ssta import run_ssta
        zero = VariationalDelay(SPACE, nominal=1.0, sensitivities={},
                                local_sigma=0.0)
        variational = run_variational(mixed_circuit, zero)
        ssta = run_ssta(mixed_circuit)
        for net in mixed_circuit.endpoints:
            assert variational.rise[net].mean == pytest.approx(
                ssta.arrivals[net].rise.mu, abs=1e-9)
            assert variational.rise[net].sigma == pytest.approx(
                ssta.arrivals[net].rise.sigma, abs=1e-9)

    def test_benchmark_runs(self):
        result = run_variational(benchmark_circuit("s298"), self._delay())
        assert all(f.var >= 0 for f in result.rise.values())


class _PerGateDelay:
    """One shared parameter plus one parameter per gate, and a nominal
    that grows with fan-in, so every gate's form is distinct."""

    def __init__(self, netlist):
        self.space = ProcessSpace(
            ("G",) + tuple(g.name for g in netlist.combinational_gates))

    def delay_form(self, gate):
        coeffs = np.zeros(self.space.dim)
        coeffs[0] = 0.05
        coeffs[self.space.index(gate.name)] = 0.1
        return CanonicalForm(self.space, 1.0 + 0.1 * len(gate.inputs),
                             coeffs, 0.01)


def _assert_cone_matches_full(netlist, outputs):
    """The ``outputs`` pass holds exactly the launch points and the cone
    nets, each bit-identical to the whole-netlist pass."""
    delay = _PerGateDelay(netlist)
    full = run_variational(netlist, delay)
    cone = run_variational(netlist, delay, outputs=outputs)
    launch = set(netlist.launch_points)
    expected = launch.union(*(fanin_cone(netlist, n) for n in outputs))
    assert set(cone.rise) == set(cone.fall) == expected
    assert cone.gates_evaluated == len(expected - launch)
    assert full.gates_evaluated == len(netlist.combinational_gates)
    for net in expected:
        for got, want in ((cone.rise[net], full.rise[net]),
                          (cone.fall[net], full.fall[net])):
            assert got.a0.hex() == want.a0.hex(), net
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), net
            assert got.local_var.hex() == want.local_var.hex(), net
    return cone


class TestConePass:
    @settings(max_examples=60, deadline=None)
    @given(random_dag(max_gates=12), st.data())
    def test_cone_forms_bit_identical_on_random_circuits(self, netlist,
                                                         data):
        nets = list(netlist.launch_points) + [
            g.name for g in netlist.combinational_gates]
        outputs = data.draw(st.lists(st.sampled_from(nets), min_size=1,
                                     max_size=3))
        _assert_cone_matches_full(netlist, outputs)

    def test_launch_point_output(self, mixed_circuit):
        cone = _assert_cone_matches_full(mixed_circuit, ["a"])
        assert cone.gates_evaluated == 0
        assert set(cone.rise) == set(mixed_circuit.launch_points)

    def test_not_buff_chain_output(self):
        netlist = Netlist("chain_side", ["a", "b"], ["n3", "y"], [
            Gate("n1", GateType.NOT, ("a",)),
            Gate("side", GateType.AND, ("a", "b")),
            Gate("n2", GateType.BUFF, ("n1",)),
            Gate("y", GateType.OR, ("side", "n2")),
            Gate("n3", GateType.NOT, ("n2",)),
        ])
        cone = _assert_cone_matches_full(netlist, ["n3"])
        assert cone.gates_evaluated == 3
        assert "side" not in cone.rise and "y" not in cone.rise

    def test_parity_gate_in_cone(self, mixed_circuit):
        cone = _assert_cone_matches_full(mixed_circuit, ["p"])
        assert {"n1", "n4", "p"} <= set(cone.rise)
        assert "out" not in cone.rise and "n2" not in cone.rise

    def test_benchmark_endpoint_cone(self):
        netlist = benchmark_circuit("s298")
        _assert_cone_matches_full(netlist, list(netlist.endpoints[:2]))

    def test_unknown_output_rejected(self, mixed_circuit):
        with pytest.raises(ValueError, match="nope"):
            run_variational(mixed_circuit, _PerGateDelay(mixed_circuit),
                            outputs=["out", "nope"])


class TestTimingYield:
    def test_yield_monotone_in_deadline(self, mixed_circuit):
        result = run_variational(
            mixed_circuit,
            VariationalDelay(SPACE, sensitivities={"L": 0.1}))
        endpoints = list(mixed_circuit.endpoints)
        tight = timing_yield(result, endpoints, deadline=2.0, n_samples=5000)
        loose = timing_yield(result, endpoints, deadline=8.0, n_samples=5000)
        assert tight <= loose
        assert 0.0 <= tight <= 1.0

    def test_yield_saturates(self, chain_circuit):
        result = run_variational(
            chain_circuit, VariationalDelay(SPACE, local_sigma=0.01))
        assert timing_yield(result, ["n3"], deadline=100.0,
                            n_samples=2000) == 1.0

    def test_yield_requires_endpoints(self, chain_circuit):
        result = run_variational(chain_circuit, VariationalDelay(SPACE))
        with pytest.raises(ValueError):
            timing_yield(result, [], deadline=1.0)

    def test_correlation_matters_for_multi_endpoint_yield(self):
        """Shared systematic variation makes endpoints fail together, so the
        joint yield exceeds the independence product — the effect canonical
        forms capture and per-endpoint normals miss."""
        space = ProcessSpace(("G",))
        net = Netlist("two", ["a", "b"], ["y1", "y2"], [
            Gate("y1", GateType.BUFF, ("a",)),
            Gate("y2", GateType.BUFF, ("b",)),
        ])
        delay = VariationalDelay(space, nominal=1.0,
                                 sensitivities={"G": 0.5}, local_sigma=0.0)
        result = run_variational(net, delay, launch_sigma=0.0)
        deadline = 1.0  # exactly the nominal: ~50% per endpoint
        joint = timing_yield(result, ["y1", "y2"], deadline,
                             n_samples=40_000)
        single = timing_yield(result, ["y1"], deadline, n_samples=40_000)
        assert joint == pytest.approx(single, abs=0.02)  # fully correlated
        assert joint > single ** 2 + 0.1  # far above the independence bound
