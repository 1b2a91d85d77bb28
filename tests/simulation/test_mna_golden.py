"""Golden MNA results: exact spec bits of the ``*-mna-v0`` simulators.

``BatchedMNAPlan`` is the only MNA engine, so no second implementation is
left to cross-check it against.  These values pin its output instead: they
were recorded (as ``float.hex``) from the per-circuit stamping loops that
the plan replaced, and the plan reproduced every bit.  Any change to
stamping order, solve association or the unity-crossing post-processing
shows up here as a changed bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.simulation.mna import MnaCircuit
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM

#: env id -> sizing label -> (valid, spec name -> float.hex).
GOLDEN_SPECS = {
    "opamp-mna-v0": {
        "center": (True, {
            "gain": "0x1.b6f51d25915ecp+7", "bandwidth": "0x1.761686f1363abp+30",
            "phase_margin": "0x1.65d52d61cef00p+3", "power": "0x1.ff74bfc57d4d5p-7",
        }),
        "lower": (True, {
            "gain": "0x1.b6f51d2412587p+7", "bandwidth": "0x1.53b94251bba0fp+25",
            "phase_margin": "0x1.a4deb76e62490p+3", "power": "0x1.421f5f40d8377p-15",
        }),
        "upper": (True, {
            "gain": "0x1.b6f51d2592959p+7", "bandwidth": "0x1.3714cb83208cap+31",
            "phase_margin": "0x1.7c69364cf4a10p+3", "power": "0x1.d7e0fd0579bc8p-5",
        }),
        "seed0": (True, {
            "gain": "0x1.b3ecfe7d65c35p+6", "bandwidth": "0x1.d6190d2fee34dp+31",
            "phase_margin": "0x0.0p+0", "power": "0x1.1962a79504df7p-6",
        }),
        "seed1": (True, {
            "gain": "0x1.aab283f8957b4p+9", "bandwidth": "0x1.2792fe4c4bacep+30",
            "phase_margin": "0x1.05b1e71f070e8p+5", "power": "0x1.3570fb14deb45p-7",
        }),
        "seed2": (True, {
            "gain": "0x1.875f13eded3f3p+6", "bandwidth": "0x1.be7d6e0c1bfefp+29",
            "phase_margin": "0x1.27289317771ccp+5", "power": "0x1.d33820d8bd9bep-7",
        }),
        "seed3": (True, {
            "gain": "0x1.738d2e5570cf0p+6", "bandwidth": "0x1.b20180bdde7d5p+27",
            "phase_margin": "0x1.25699132ce8bcp+6", "power": "0x1.70b7f900317e3p-7",
        }),
        "seed4": (True, {
            "gain": "0x1.f17d195492e1cp+7", "bandwidth": "0x1.b132ec072b250p+30",
            "phase_margin": "0x0.0p+0", "power": "0x1.8fa5241157406p-6",
        }),
    },
    "current_mirror_ota-mna-v0": {
        "center": (True, {
            "gain": "0x1.4f3892f7f4a53p+4", "bandwidth": "0x1.1cc27596d7d75p+33",
            "slew_rate": "0x1.7bfac7c000002p+32", "power": "0x1.ff74bfc57d4d5p-7",
        }),
        "lower": (True, {
            "gain": "0x1.4f3892f7b3c00p+4", "bandwidth": "0x1.5053316a547a9p+24",
            "slew_rate": "0x1.c0c9b4b4b4b4ep+23", "power": "0x1.421f5f40d8377p-15",
        }),
        "upper": (True, {
            "gain": "0x1.4f3892f7f4a54p+4", "bandwidth": "0x1.06c10c0e0e7f2p+35",
            "slew_rate": "0x1.5e9d952d2d2d4p+34", "power": "0x1.d7e0fd0579bc8p-5",
        }),
        "seed0": (True, {
            "gain": "0x1.7883d488cd673p+3", "bandwidth": "0x1.ffe5eca86ac96p+31",
            "slew_rate": "0x1.9e5af79f422aep+30", "power": "0x1.cdb7201ff800ep-6",
        }),
        "seed1": (True, {
            "gain": "0x1.16642744eeb35p+5", "bandwidth": "0x1.367f8ed00ad93p+35",
            "slew_rate": "0x1.f9eed4d4eb349p+29", "power": "0x1.76de1fa01bcacp-6",
        }),
        "seed2": (True, {
            "gain": "0x1.54a7366c49b71p+3", "bandwidth": "0x1.74876e8000000p+36",
            "slew_rate": "0x1.98c92e820db0dp+32", "power": "0x1.9ea14d7d7a0aep-3",
        }),
        "seed3": (True, {
            "gain": "0x1.d40c1563762d0p+3", "bandwidth": "0x1.7e0685b262378p+30",
            "slew_rate": "0x1.6dab9a4c68fa9p+29", "power": "0x1.9af10d3c1a6a9p-9",
        }),
        "seed4": (True, {
            "gain": "0x1.0117bcd2864cfp+5", "bandwidth": "0x1.025201d89ae23p+35",
            "slew_rate": "0x1.3f9585534199ep+32", "power": "0x1.bb8c635937a9fp-6",
        }),
    },
}


def _sizing(design_space, label: str) -> np.ndarray:
    if label == "center":
        return design_space.center()
    if label == "lower":
        return design_space.lower_bounds
    if label == "upper":
        return design_space.upper_bounds
    return design_space.sample(np.random.default_rng(int(label[len("seed"):])))


@pytest.mark.parametrize(
    "env_id,label",
    [(env_id, label) for env_id, rows in GOLDEN_SPECS.items() for label in rows],
)
def test_mna_simulator_specs_match_golden_bits(env_id, label):
    env = repro.make_env(env_id, seed=0)
    benchmark = env.benchmark
    netlist = benchmark.fresh_netlist()
    benchmark.design_space.apply_to_netlist(netlist, _sizing(benchmark.design_space, label))
    result = env.simulator.simulate(netlist)
    valid, specs = GOLDEN_SPECS[env_id][label]
    assert result.valid is valid
    assert {name: float(value).hex() for name, value in result.specs.items()} == specs


def test_nmos_dc_operating_point_with_initial_guess_matches_golden_bits():
    circuit = MnaCircuit("cs_amp")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.2)
    circuit.add_voltage_source("VG", "g", "0", dc=0.55)
    circuit.add_resistor("RD", "vdd", "out", 20e3)
    circuit.add_mosfet(
        "M1", drain="out", gate="g", source="0",
        model=MosfetModel(CMOS_45NM, "nmos", width=5e-6, fingers=2),
    )
    solution = circuit.dc_operating_point(initial_guess={"out": 0.8})
    assert {k: v.hex() for k, v in solution.node_voltages.items()} == {
        "vdd": "0x1.3333333333333p+0",
        "out": "0x1.279d71aa70354p-4",
        "g": "0x1.199999999999ap-1",
    }
    assert {k: v.hex() for k, v in solution.source_currents.items()} == {
        "VDD": "-0x1.d90ba60b8bfaep-15",
        "VG": "0x0.0p+0",
    }
    assert solution.iterations == 16
