"""BatchedMNAPlan stacking invariance: lane k of a K-stack is circuit k alone.

``MnaCircuit.ac_analysis`` / ``dc_operating_point`` are the plan's K = 1
case, so each parity test here checks that stacking K circuits — and
chunking the stacked solve — changes no bit of any lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import BatchedMNAPlan, UntraceableError, solve_chunk_rows
from repro.simulation.mna import ConvergenceError, MnaCircuit
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM

FREQUENCIES = np.logspace(1, 9, 57)


def _two_pole_circuit(gm=1e-3, r1=5e4, c1=2e-12, r2=2e5, c2=1e-12) -> MnaCircuit:
    """Linear two-stage small-signal circuit (vsource, VCCS, RC loads)."""
    circuit = MnaCircuit("two_pole")
    circuit.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    circuit.add_vccs("GM1", "mid", "0", "in", "0", gm=-gm)
    circuit.add_resistor("R1", "mid", "0", r1)
    circuit.add_capacitor("C1", "mid", "0", c1)
    circuit.add_vccs("GM2", "out", "0", "mid", "0", gm=2.0 * gm)
    circuit.add_resistor("R2", "out", "0", r2)
    circuit.add_capacitor("C2", "out", "0", c2)
    return circuit


def _mosfet_amplifier(width=2e-6, vg=0.7) -> MnaCircuit:
    """Nonlinear common-source stage: DC Newton + linearized AC."""
    circuit = MnaCircuit("cs_amp")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.1)
    circuit.add_voltage_source("VG", "g", "0", dc=vg, ac=1.0)
    circuit.add_resistor("RD", "vdd", "d", 2e4)
    circuit.add_capacitor("CL", "d", "0", 1e-13)
    circuit.add_mosfet("M1", "d", "g", "0", MosfetModel(CMOS_45NM, "nmos", width, 2))
    return circuit


def _variants(build, key, values):
    return [build(**{key: value}) for value in values]


class TestAcParity:
    def test_linear_ac_sweep_is_bitwise_per_circuit(self):
        """Lane k of a linear K-stack equals circuit k's K = 1 sweep."""
        circuits = _variants(_two_pole_circuit, "gm", [5e-4, 1e-3, 2.5e-3, 8e-3])
        plan = BatchedMNAPlan.from_circuits(circuits)
        stacked = plan.ac_sweep(FREQUENCIES)
        for circuit, solution in zip(circuits, stacked):
            reference = circuit.ac_analysis(FREQUENCIES)
            for node in ("in", "mid", "out"):
                assert solution.voltage(node).tobytes() == reference.voltage(node).tobytes()

    def test_mosfet_ac_sweep_is_bitwise_per_circuit(self):
        """Linearized MOSFET lanes equal their K = 1 sweeps (DC solved per stack)."""
        circuits = _variants(_mosfet_amplifier, "width", [1e-6, 2e-6, 4e-6])
        plan = BatchedMNAPlan.from_circuits(circuits)
        stacked = plan.ac_sweep(FREQUENCIES)
        for circuit, solution in zip(circuits, stacked):
            reference = circuit.ac_analysis(FREQUENCIES)
            assert solution.voltage("d").tobytes() == reference.voltage("d").tobytes()

    def test_chunking_is_bitwise_invariant(self):
        """Splitting the stacked solve into chunks changes no lane."""
        circuits = _variants(_two_pole_circuit, "r2", [1e5, 2e5, 4e5])
        small = BatchedMNAPlan.from_circuits(circuits)
        small._chunk = 7  # force many partial chunks over K * F rows
        large = BatchedMNAPlan.from_circuits(circuits)
        large._chunk = 10**9
        for a, b in zip(small.ac_sweep(FREQUENCIES), large.ac_sweep(FREQUENCIES)):
            for node in ("mid", "out"):
                assert a.voltage(node).tobytes() == b.voltage(node).tobytes()

    def test_stacked_rhs_stays_a_column_stack(self):
        """Regression: a (B, n) RHS is read as ONE matrix by the solve gufunc.

        With a chunk size differing from the matrix dimension, a plain 2-D
        right-hand side makes ``np.linalg.solve`` raise a core-dimension
        mismatch instead of solving B independent systems.
        """
        circuits = _variants(_two_pole_circuit, "gm", [1e-3] * 5)
        plan = BatchedMNAPlan.from_circuits(circuits)
        assert plan._chunk != plan.size
        solutions = plan.ac_sweep(FREQUENCIES)  # raised ValueError before the fix
        assert len(solutions) == 5

    def test_ac_input_validation(self):
        plan = BatchedMNAPlan.from_circuits([_two_pole_circuit()])
        with pytest.raises(ValueError):
            plan.ac_sweep([])
        with pytest.raises(ValueError):
            plan.ac_sweep([0.0, 10.0])

    def test_singular_system_reports_circuit_and_frequency(self):
        # Node "a" sees only the current source: its matrix row is all
        # zeros, so every frequency's system is singular.
        circuit = MnaCircuit("floating")
        circuit.add_current_source("I1", "a", "0", ac=1.0)
        circuit.add_resistor("R1", "b", "0", 1e3)
        plan = BatchedMNAPlan.from_circuits([circuit])
        with pytest.raises(ConvergenceError) as planned:
            plan.ac_sweep([10.0, 100.0])
        with pytest.raises(ConvergenceError) as interpreted:
            circuit.ac_analysis([10.0, 100.0])
        # The K-stack reports the same circuit and frequency as the K = 1
        # analysis of that circuit.
        assert str(planned.value) == str(interpreted.value)


class TestDcParity:
    def test_linear_dc_is_bitwise_per_circuit(self):
        """Lane k of a linear K-stack equals circuit k's K = 1 operating point."""
        circuits = _variants(_two_pole_circuit, "r1", [1e4, 5e4, 9e4])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.dc_operating_points()):
            reference = circuit.dc_operating_point()
            assert solution.node_voltages == reference.node_voltages
            assert solution.source_currents == reference.source_currents
            assert solution.iterations == reference.iterations

    def test_newton_dc_is_bitwise_per_circuit(self):
        """Each Newton lane converges exactly as circuit k alone does."""
        circuits = _variants(_mosfet_amplifier, "vg", [0.5, 0.7, 0.9, 1.05])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.dc_operating_points()):
            reference = circuit.dc_operating_point()
            assert solution.node_voltages == reference.node_voltages
            assert solution.source_currents == reference.source_currents
            # Converging circuits at different iteration counts exercises the
            # not-yet-converged active-slice bookkeeping.
            assert solution.iterations == reference.iterations

    def test_initial_guesses_seed_each_lane(self):
        """Per-lane guesses match each circuit's K = 1 ``initial_guess``."""
        circuits = _variants(_mosfet_amplifier, "vg", [0.5, 0.7, 0.9])
        guesses = [None, {"d": 0.9}, {"d": 0.2, "unknown": 5.0}]
        plan = BatchedMNAPlan.from_circuits(circuits)
        stacked = plan.dc_operating_points(initial_guesses=guesses)
        for circuit, guess, solution in zip(circuits, guesses, stacked):
            reference = circuit.dc_operating_point(initial_guess=guess)
            assert solution.node_voltages == reference.node_voltages
            assert solution.source_currents == reference.source_currents
            assert solution.iterations == reference.iterations
        # The guess really seeds the iteration: a different start takes a
        # different number of Newton steps.
        unseeded = plan.dc_operating_points()
        assert stacked[1].iterations != unseeded[1].iterations


class TestPlanConstruction:
    def test_set_values_restamps_one_element(self):
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 3)
        plan.set_values("R2", np.array([1e5, 2e5, 4e5]))
        reference = [_two_pole_circuit(r2=r) for r in (1e5, 2e5, 4e5)]
        for circuit, solution in zip(reference, plan.ac_sweep(FREQUENCIES)):
            expected = circuit.ac_analysis(FREQUENCIES)
            assert solution.voltage("out").tobytes() == expected.voltage("out").tobytes()

    def test_set_values_unknown_element(self):
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 2)
        with pytest.raises(KeyError):
            plan.set_values("R99", np.zeros(2))

    def test_topology_mismatch_is_untraceable(self):
        other = _two_pole_circuit()
        other.add_resistor("REXTRA", "out", "0", 1e6)
        with pytest.raises(UntraceableError):
            BatchedMNAPlan.from_circuits([_two_pole_circuit(), other])

    def test_template_mode_rejects_mosfets(self):
        with pytest.raises(UntraceableError):
            BatchedMNAPlan.from_template(_mosfet_amplifier(), 2)

    def test_empty_batch_is_untraceable(self):
        with pytest.raises(UntraceableError):
            BatchedMNAPlan.from_circuits([])

    def test_chunk_rows_bounded_on_single_core(self):
        assert solve_chunk_rows(1) == 128
        assert solve_chunk_rows(8) == 1024
