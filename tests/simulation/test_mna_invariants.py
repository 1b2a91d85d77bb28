"""Invariant: MNA analyses return finite numbers or raise ``ConvergenceError``.

Property tests over random sizings, the design-space bounds and element
values far outside them (set on the netlist directly, past the design
space's clipping).  Whatever the input, a result that comes back must be
finite; the only allowed failure is the structured ``ConvergenceError``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.simulation.mna import ConvergenceError, MnaCircuit
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM

#: Decades by which an "extreme" element value leaves its design-space bound.
EXTREME_DECADES = (-12, -6, -3, 3, 6, 12)

ENVS = {env_id: repro.make_env(env_id, seed=0) for env_id in (
    "opamp-mna-v0", "current_mirror_ota-mna-v0"
)}


@st.composite
def _element_values(draw, design_space):
    values = []
    for parameter in design_space:
        kind = draw(st.sampled_from(("lower", "upper", "inside", "extreme")))
        if kind == "lower":
            values.append(parameter.minimum)
        elif kind == "upper":
            values.append(parameter.maximum)
        elif kind == "inside":
            values.append(draw(st.floats(parameter.minimum, parameter.maximum)))
        else:
            bound = draw(st.sampled_from((parameter.minimum, parameter.maximum)))
            values.append(bound * 10.0 ** draw(st.sampled_from(EXTREME_DECADES)))
    return values


@st.composite
def _mna_sizings(draw):
    env_id = draw(st.sampled_from(sorted(ENVS)))
    design_space = ENVS[env_id].benchmark.design_space
    return env_id, draw(_element_values(design_space))


@settings(max_examples=80, deadline=None)
@given(_mna_sizings())
def test_mna_simulators_give_finite_specs_or_convergence_error(case):
    env_id, values = case
    env = ENVS[env_id]
    netlist = env.benchmark.fresh_netlist()
    for parameter, value in zip(env.benchmark.design_space, values):
        netlist.set_parameter(parameter.device, parameter.attribute, value)
    try:
        result = env.simulator.simulate(netlist)
    except ConvergenceError:
        return
    assert all(math.isfinite(value) for value in result.specs.values()), result.specs


@settings(max_examples=60, deadline=None)
@given(
    polarity=st.sampled_from(("nmos", "pmos")),
    width=st.sampled_from((1e-9, 1e-7, 1e-6, 1e-4, 1e-2)),
    fingers=st.integers(min_value=1, max_value=64),
    load=st.sampled_from((1e-3, 1.0, 1e3, 1e6, 1e9)),
    bias=st.floats(min_value=-1.5, max_value=1.5),
    guess=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0)),
)
def test_mosfet_stage_gives_finite_operating_point_or_convergence_error(
    polarity, width, fingers, load, bias, guess
):
    # NMOS sources from ground, PMOS from the supply: a common-source stage.
    source = "0" if polarity == "nmos" else "vdd"
    load_rail = "vdd" if polarity == "nmos" else "0"
    circuit = MnaCircuit("cs_stage")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.2)
    circuit.add_voltage_source("VG", "g", "0", dc=bias, ac=1.0)
    circuit.add_resistor("RL", load_rail, "out", load)
    circuit.add_capacitor("CL", "out", "0", 1e-13)
    circuit.add_mosfet(
        "M1", "out", "g", source, MosfetModel(CMOS_45NM, polarity, width, fingers)
    )
    try:
        operating_point = circuit.dc_operating_point(
            initial_guess=None if guess is None else {"out": guess}
        )
        sweep = circuit.ac_analysis([1e3, 1e6, 1e9], operating_point)
    except ConvergenceError:
        return
    numbers = list(operating_point.node_voltages.values())
    numbers += list(operating_point.source_currents.values())
    assert all(math.isfinite(value) for value in numbers)
    for node in sweep.node_voltages:
        assert all(math.isfinite(abs(value)) for value in sweep.voltage(node))
