"""Modified nodal analysis (MNA) engine — the repository's mini-SPICE.

The paper's design environment invokes Cadence Spectre for AC/DC analysis of
the op-amp.  This module provides the equivalent substrate: a small circuit
simulator supporting

* **DC operating-point analysis** with Newton–Raphson iteration over
  nonlinear square-law MOSFETs (linear elements are stamped directly), and
* **AC small-signal analysis** over a frequency sweep with complex phasor
  solves, including linearized MOSFETs, resistors, capacitors, inductors,
  controlled sources and independent sources.

The engine is deliberately dense-matrix based: analog cells have tens of
nodes, so ``numpy.linalg.solve`` on a ``(n+m) × (n+m)`` system is both simple
and fast.  :class:`MnaCircuit` assembles the circuit; its analyses run on
:class:`repro.compile.BatchedMNAPlan`, the one stamping and solving engine,
as the single-circuit case of a stack.  The ``method="mna"`` op-amp and OTA
evaluators sweep their small-signal equivalents here and reduce the response
with :func:`unity_gain_response`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.mosfet import MosfetModel

#: Net names treated as the global reference node.
GROUND_NAMES = ("0", "gnd", "vgnd", "ground")


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration fails to converge."""


@dataclass
class _Resistor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _Capacitor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _Inductor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _VoltageSource:
    name: str
    n_plus: str
    n_minus: str
    dc: float
    ac: float


@dataclass
class _CurrentSource:
    name: str
    n_plus: str
    n_minus: str
    dc: float
    ac: float


@dataclass
class _Vccs:
    """Voltage-controlled current source: ``i(out+ -> out-) = gm * v(in+, in-)``."""

    name: str
    out_plus: str
    out_minus: str
    in_plus: str
    in_minus: str
    gm: float


@dataclass
class _Mosfet:
    name: str
    drain: str
    gate: str
    source: str
    model: MosfetModel


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis."""

    node_voltages: Dict[str, float]
    source_currents: Dict[str, float]
    iterations: int

    def voltage(self, node: str) -> float:
        if node.lower() in GROUND_NAMES:
            return 0.0
        return self.node_voltages[node]


@dataclass
class AcSolution:
    """Result of an AC sweep: complex node voltages per frequency."""

    frequencies: np.ndarray
    node_voltages: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node.lower() in GROUND_NAMES:
            return np.zeros_like(self.frequencies, dtype=np.complex128)
        return self.node_voltages[node]

    def transfer(self, output_node: str, input_node: str) -> np.ndarray:
        """Complex transfer function V(out)/V(in) over the sweep."""
        vin = self.voltage(input_node)
        vout = self.voltage(output_node)
        return vout / vin

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.voltage(node)) + 1e-300)


class MnaCircuit:
    """A circuit assembled element by element and solved with MNA."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._resistors: List[_Resistor] = []
        self._capacitors: List[_Capacitor] = []
        self._inductors: List[_Inductor] = []
        self._vsources: List[_VoltageSource] = []
        self._isources: List[_CurrentSource] = []
        self._vccs: List[_Vccs] = []
        self._mosfets: List[_Mosfet] = []
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    # Element construction
    # ------------------------------------------------------------------
    def _register(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name '{name}'")
        self._names.add(name)

    def add_resistor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"resistor {name} must have positive resistance")
        self._register(name)
        self._resistors.append(_Resistor(name, n1, n2, float(value)))

    def add_capacitor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"capacitor {name} must have positive capacitance")
        self._register(name)
        self._capacitors.append(_Capacitor(name, n1, n2, float(value)))

    def add_inductor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"inductor {name} must have positive inductance")
        self._register(name)
        self._inductors.append(_Inductor(name, n1, n2, float(value)))

    def add_voltage_source(self, name: str, n_plus: str, n_minus: str, dc: float = 0.0,
                           ac: float = 0.0) -> None:
        self._register(name)
        self._vsources.append(_VoltageSource(name, n_plus, n_minus, float(dc), float(ac)))

    def add_current_source(self, name: str, n_plus: str, n_minus: str, dc: float = 0.0,
                           ac: float = 0.0) -> None:
        self._register(name)
        self._isources.append(_CurrentSource(name, n_plus, n_minus, float(dc), float(ac)))

    def add_vccs(self, name: str, out_plus: str, out_minus: str, in_plus: str, in_minus: str,
                 gm: float) -> None:
        self._register(name)
        self._vccs.append(_Vccs(name, out_plus, out_minus, in_plus, in_minus, float(gm)))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str, model: MosfetModel) -> None:
        self._register(name)
        self._mosfets.append(_Mosfet(name, drain, gate, source, model))

    # ------------------------------------------------------------------
    # Structural introspection (read-only views used by repro.compile)
    # ------------------------------------------------------------------
    @property
    def resistors(self) -> Tuple[_Resistor, ...]:
        return tuple(self._resistors)

    @property
    def capacitors(self) -> Tuple[_Capacitor, ...]:
        return tuple(self._capacitors)

    @property
    def inductors(self) -> Tuple[_Inductor, ...]:
        return tuple(self._inductors)

    @property
    def vsources(self) -> Tuple[_VoltageSource, ...]:
        return tuple(self._vsources)

    @property
    def isources(self) -> Tuple[_CurrentSource, ...]:
        return tuple(self._isources)

    @property
    def vccs_elements(self) -> Tuple[_Vccs, ...]:
        return tuple(self._vccs)

    @property
    def mosfets(self) -> Tuple[_Mosfet, ...]:
        return tuple(self._mosfets)

    def structure_signature(self) -> Tuple:
        """Hashable topology signature: element kinds, names and node wiring.

        Two circuits with equal signatures have identical sparsity patterns,
        node orderings and stamp orders — exactly the precondition for
        stacking their systems into one batched solve
        (:class:`repro.compile.BatchedMNAPlan`).  Element *values* are
        deliberately excluded: they are the per-step restamped quantities.
        """
        return (
            tuple(("r", r.name, r.n1, r.n2) for r in self._resistors),
            tuple(("c", c.name, c.n1, c.n2) for c in self._capacitors),
            tuple(("l", e.name, e.n1, e.n2) for e in self._inductors),
            tuple(("v", v.name, v.n_plus, v.n_minus) for v in self._vsources),
            tuple(("i", s.name, s.n_plus, s.n_minus) for s in self._isources),
            tuple(
                ("g", g.name, g.out_plus, g.out_minus, g.in_plus, g.in_minus)
                for g in self._vccs
            ),
            tuple(
                ("m", m.name, m.drain, m.gate, m.source, m.model.polarity)
                for m in self._mosfets
            ),
        )

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def _collect_nodes(self) -> List[str]:
        nodes: Dict[str, None] = {}
        def visit(net: str) -> None:
            if net.lower() not in GROUND_NAMES:
                nodes.setdefault(net, None)

        for r in self._resistors:
            visit(r.n1), visit(r.n2)
        for c in self._capacitors:
            visit(c.n1), visit(c.n2)
        for l in self._inductors:
            visit(l.n1), visit(l.n2)
        for v in self._vsources:
            visit(v.n_plus), visit(v.n_minus)
        for i in self._isources:
            visit(i.n_plus), visit(i.n_minus)
        for g in self._vccs:
            visit(g.out_plus), visit(g.out_minus), visit(g.in_plus), visit(g.in_minus)
        for m in self._mosfets:
            visit(m.drain), visit(m.gate), visit(m.source)
        return list(nodes)

    @property
    def node_names(self) -> List[str]:
        return self._collect_nodes()

    # ------------------------------------------------------------------
    # Analyses (the K = 1 case of the stacked plan)
    # ------------------------------------------------------------------
    def dc_operating_point(
        self,
        max_iterations: int = 200,
        tolerance: float = 1e-9,
        initial_guess: Optional[Dict[str, float]] = None,
        damping: float = 1.0,
        max_voltage_step: float = 0.3,
    ) -> DcSolution:
        """Solve the nonlinear DC operating point with Newton–Raphson.

        Capacitors are open and inductors are shorts (modelled as 0 V
        sources) at DC.  Each MOSFET is replaced by its companion model —
        a conductance/current-source linearization around the present
        voltage estimate — and the resulting linear system is re-solved until
        the node voltages stop changing.  ``initial_guess`` seeds named node
        voltages (unknown names are ignored); the rest start at 0 V.
        """
        # Function-local: repro.compile imports this module at load time.
        from repro.compile.mna_plan import BatchedMNAPlan

        return BatchedMNAPlan.from_circuits([self]).dc_operating_points(
            max_iterations=max_iterations,
            tolerance=tolerance,
            initial_guesses=[initial_guess],
            damping=damping,
            max_voltage_step=max_voltage_step,
        )[0]

    def ac_analysis(
        self,
        frequencies: Sequence[float],
        operating_point: Optional[DcSolution] = None,
    ) -> AcSolution:
        """Small-signal frequency sweep.

        Every MOSFET is linearized around ``operating_point`` (which is
        computed on the fly if not supplied and any MOSFET is present).
        Independent sources contribute their ``ac`` amplitude; DC values are
        zeroed as usual for small-signal analysis.
        """
        # Function-local: repro.compile imports this module at load time.
        from repro.compile.mna_plan import BatchedMNAPlan

        operating_points = None if operating_point is None else [operating_point]
        return BatchedMNAPlan.from_circuits([self]).ac_sweep(frequencies, operating_points)[0]


def unity_gain_response(
    frequencies: np.ndarray, response: np.ndarray
) -> Tuple[float, float, float]:
    """DC gain, unity-gain frequency (Hz) and phase margin (deg) of one sweep.

    ``response`` is the complex output phasor over ``frequencies`` for a
    unit input.  The |H| = 1 crossing is interpolated in log(f) against
    log|H| after the last sweep point at or above unity gain; the phase
    margin is the unwrapped phase there, relative to the first sweep point,
    clipped to [0°, 180°].  A response that never crosses reports the sweep
    end (always above) or 0 Hz (never above), with a 0° margin.
    """
    magnitude = np.abs(response)
    gain = float(magnitude[0])
    above = magnitude >= 1.0
    if not above.any() or above.all():
        return gain, float(frequencies[-1] if above.all() else 0.0), 0.0
    last_above = int(np.nonzero(above)[0][-1])
    if last_above + 1 >= magnitude.size:
        unity_freq = float(frequencies[-1])
    else:
        f_lo, f_hi = frequencies[last_above], frequencies[last_above + 1]
        m_lo, m_hi = magnitude[last_above], magnitude[last_above + 1]
        weight = np.log(m_lo) / (np.log(m_lo) - np.log(m_hi))
        unity_freq = float(np.exp(np.log(f_lo) + weight * (np.log(f_hi) - np.log(f_lo))))
    phase = np.unwrap(np.angle(response))
    phase_at_unity = float(np.interp(np.log(unity_freq), np.log(frequencies), phase))
    reference_phase = float(phase[0])
    phase_margin = 180.0 + math.degrees(phase_at_unity - reference_phase)
    return gain, unity_freq, float(np.clip(phase_margin, 0.0, 180.0))
