"""Four-value signal probability propagation (paper Eq. 9/10 and Eq. 5).

Under the independence assumption (every gate's inputs treated as
independent — the paper's SPSTA "without consideration of signal
correlations", Sec. 4 observation 5), the four-value probability vector of a
gate output follows from initial/final-bit factorization:

For an AND-core gate (non-controlling value 1):

    P1(y) = prod_i P1(x_i)
    Pr(y) = prod_i (P1 + Pr)(x_i) - P1(y)        # all finals one, not all ones
    Pf(y) = prod_i (P1 + Pf)(x_i) - P1(y)   # all initials one, not all ones
    P0(y) = 1 - P1 - Pr - Pf

which is exactly the paper's Eq. 10; the OR-core is the 0/1 mirror image.
Parity (XOR) gates have no controlling value; their O(k) form folds the
joint distribution of the inputs' initial and final parities.  A generic
O(4^k) enumeration path exists for every gate and serves as the test
oracle for the closed forms.

The classic two-value signal probability of power estimation (Eq. 5) is also
provided, for static (non-transitioning) input statistics.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Mapping, Sequence, Union

from repro.core.inputs import Prob4
from repro.logic.fourvalue import Logic4, gate_output_value
from repro.logic.gates import GateSpec, GateType, gate_spec
from repro.netlist.core import Netlist

#: Gate fan-in above which the exact 4^k enumeration is refused.
MAX_ENUMERATION_FANIN = 12


def gate_prob4(gate_type: GateType, inputs: Sequence[Prob4]) -> Prob4:
    """Output Prob4 of a combinational gate with independent inputs."""
    spec = gate_spec(gate_type)
    spec.validate_arity(len(inputs))
    if gate_type is GateType.BUFF:
        return inputs[0]
    if gate_type is GateType.NOT:
        return inputs[0].inverted()
    if spec.is_parity:
        result = _parity_prob4(inputs)
    elif spec.controlling_value == 0:
        result = _and_core_prob4(inputs)
    else:
        result = _or_core_prob4(inputs)
    return result.inverted() if spec.inverting else result


def _and_core_prob4(inputs: Sequence[Prob4]) -> Prob4:
    p_one = _prod(p.p_one for p in inputs)
    final_one = _prod(p.final_one_probability for p in inputs)
    init_one = _prod(p.initial_one_probability for p in inputs)
    p_rise = max(final_one - p_one, 0.0)
    p_fall = max(init_one - p_one, 0.0)
    p_zero = max(1.0 - p_one - p_rise - p_fall, 0.0)
    return Prob4(p_zero, p_one, p_rise, p_fall)


def _or_core_prob4(inputs: Sequence[Prob4]) -> Prob4:
    p_zero = _prod(p.p_zero for p in inputs)
    init_zero = _prod(1.0 - p.initial_one_probability for p in inputs)
    final_zero = _prod(1.0 - p.final_one_probability for p in inputs)
    p_rise = max(init_zero - p_zero, 0.0)
    p_fall = max(final_zero - p_zero, 0.0)
    p_one = max(1.0 - p_zero - p_rise - p_fall, 0.0)
    return Prob4(p_zero, p_one, p_rise, p_fall)


def _parity_prob4(inputs: Sequence[Prob4]) -> Prob4:
    """XOR core in O(k): the joint distribution of the (initial, final)
    parities of the inputs, folded one input at a time.  The output starts
    at the initial parity and settles at the final one."""
    ee, eo, oe, oo = 1.0, 0.0, 0.0, 0.0
    for p in inputs:
        z, o, r, f = p.p_zero, p.p_one, p.p_rise, p.p_fall
        # A static one flips both parities, a rise only the final one,
        # a fall only the initial one.
        ee, eo, oe, oo = (ee * z + oo * o + eo * r + oe * f,
                          eo * z + oe * o + ee * r + oo * f,
                          oe * z + eo * o + oo * r + ee * f,
                          oo * z + ee * o + oe * r + eo * f)
    return Prob4(ee, oo, eo, oe)


def gate_prob4_enumerated(gate_type: GateType,
                          inputs: Sequence[Prob4]) -> Prob4:
    """Exact (under independence) O(4^k) joint enumeration — the oracle for
    the closed forms."""
    spec = gate_spec(gate_type)
    if len(inputs) > MAX_ENUMERATION_FANIN:
        raise ValueError(
            f"fan-in {len(inputs)} exceeds enumeration limit "
            f"{MAX_ENUMERATION_FANIN}")
    acc = {value: 0.0 for value in Logic4}
    for assignment in product(tuple(Logic4), repeat=len(inputs)):
        weight = _prod(p[v] for p, v in zip(inputs, assignment))
        if weight <= 0.0:
            continue
        acc[gate_output_value(spec, assignment)] += weight
    return Prob4(acc[Logic4.ZERO], acc[Logic4.ONE],
                 acc[Logic4.RISE], acc[Logic4.FALL])


def propagate_prob4(netlist: Netlist,
                    launch: Union[Prob4, Mapping[str, Prob4]],
                    ) -> Dict[str, Prob4]:
    """Propagate four-value probabilities from launch points to every net.

    ``launch`` is either a single Prob4 applied to every launch point (the
    paper's setup) or a per-net mapping.
    """
    values: Dict[str, Prob4] = {}
    for net in netlist.launch_points:
        values[net] = launch if isinstance(launch, Prob4) else launch[net]
    for gate in netlist.combinational_gates:
        operands = [values[src] for src in gate.inputs]
        values[gate.name] = gate_prob4(gate.gate_type, operands)
    return values


def signal_probabilities(netlist: Netlist,
                         launch: Union[float, Mapping[str, float]],
                         ) -> Dict[str, float]:
    """Two-value signal probability propagation (paper Eq. 5 per gate).

    ``launch`` gives P(x = 1) at each launch point (or one value for all).
    This is the power-estimation primitive of Sec. 2.2.1; its per-gate
    independent form ignores reconvergent-fanout correlation (use
    :mod:`repro.core.correlation` for the BDD-exact version).
    """
    probs: Dict[str, float] = {}
    for net in netlist.launch_points:
        p = launch if isinstance(launch, (int, float)) else launch[net]
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"P({net}) = {p} outside [0, 1]")
        probs[net] = float(p)
    for gate in netlist.combinational_gates:
        operands = [probs[src] for src in gate.inputs]
        probs[gate.name] = gate_signal_probability(gate.gate_type, operands)
    return probs


def gate_signal_probability(gate_type: GateType,
                            inputs: Sequence[float]) -> float:
    """P(y = 1) of one gate with independent inputs (two-value logic)."""
    spec: GateSpec = gate_spec(gate_type)
    spec.validate_arity(len(inputs))
    if gate_type is GateType.BUFF:
        return inputs[0]
    if gate_type is GateType.NOT:
        return 1.0 - inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        p = _prod(inputs)
        return 1.0 - p if spec.inverting else p
    if gate_type in (GateType.OR, GateType.NOR):
        p_zero = _prod(1.0 - x for x in inputs)
        return p_zero if spec.inverting else 1.0 - p_zero
    # Parity: P(odd number of ones); fold the two-value XOR probability.
    p = 0.0
    for x in inputs:
        p = p * (1.0 - x) + (1.0 - p) * x
    return 1.0 - p if spec.inverting else p


def _prod(values) -> float:
    acc = 1.0
    for v in values:
        acc *= v
    return acc
