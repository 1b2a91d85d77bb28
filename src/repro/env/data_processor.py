"""Data-processing module (DPM) of the circuit design environment.

In Fig. 2 of the paper the environment contains, besides the simulator, a
"data processor" that (a) converts the agent's actions into device-parameter
updates and rewrites the netlist, and (b) converts simulated specifications
into rewards and state features.  :class:`DataProcessor` is that component.
Keeping it separate from the environment makes each piece independently
testable and lets the optimization baselines (GA/BO) reuse the exact same
netlist-rewriting and spec-normalization code paths.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.circuits.netlist import Netlist
from repro.graph.circuit_graph import CircuitGraph
from repro.env.spaces import Observation


class DataProcessor:
    """Bridges agent actions, netlist parameters, and observations.

    Parameters
    ----------
    benchmark:
        Circuit benchmark providing the design space and spec space.
    netlist:
        The working netlist this processor rewrites in place.
    technology_constants:
        Constants used for the Baseline B static node features.
    """

    def __init__(
        self,
        benchmark: CircuitBenchmark,
        netlist: Netlist,
        technology_constants: Optional[Dict[str, float]] = None,
    ) -> None:
        self.benchmark = benchmark
        self.netlist = netlist
        self.graph = CircuitGraph(netlist)
        self.technology_constants = technology_constants or {}
        self._values: Optional[np.ndarray] = None
        # Static node features and the adjacency depend only on the topology
        # and the technology constants, both fixed for this processor's
        # lifetime — compute them once instead of on every observation.
        self._static_features = self.graph.static_feature_matrix(self.technology_constants)
        self._adjacency = self.graph.adjacency_matrix

    @property
    def adjacency(self) -> np.ndarray:
        """The processor's stable adjacency object (shared into observations).

        Every :class:`~repro.env.spaces.Observation` this processor emits
        carries this exact array object, so identity-keyed operator caches
        (e.g. ``GraphEncoder``) can rely on it.
        Treat it as read-only.
        """
        return self._adjacency

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    @property
    def parameter_values(self) -> np.ndarray:
        """Current device-parameter vector of the working netlist.

        Served from a cached copy of the last vector written through
        :meth:`set_parameters` — every rewrite of this processor's netlist
        goes through that method, so the cache cannot go stale.  The first
        access (before any write) reads the netlist directly.
        """
        if self._values is None:
            self._values = self.benchmark.design_space.vector_from_netlist(self.netlist)
        return self._values.copy()

    def set_parameters(self, values: np.ndarray) -> np.ndarray:
        """Write a parameter vector into the netlist (clipped to the grid)."""
        self._values = self.benchmark.design_space.apply_to_netlist(self.netlist, values)
        return self._values.copy()

    def apply_actions(self, action_indices: np.ndarray) -> np.ndarray:
        """Apply one ``M``-vector of discrete actions and rewrite the netlist."""
        updated = self.benchmark.design_space.apply_actions(
            self.parameter_values, action_indices
        )
        return self.set_parameters(updated)

    # ------------------------------------------------------------------
    # Observation construction
    # ------------------------------------------------------------------
    def spec_feature_vector(
        self, measured: Mapping[str, float], targets: Mapping[str, float]
    ) -> np.ndarray:
        """Specification context for the FCNN branch.

        Concatenates the range-normalized target specs, the range-normalized
        measured specs, and the per-spec clipped normalized error (the same
        quantity the reward uses), giving the policy a direct view of the
        remaining design gap and the couplings between specifications.
        """
        spec_space = self.benchmark.spec_space
        normalized_targets = spec_space.normalize(targets)
        normalized_measured = spec_space.normalize(measured)
        errors = spec_space.normalized_errors(measured, targets)
        return np.concatenate([normalized_targets, normalized_measured, errors])

    def observation(
        self, measured: Mapping[str, float], targets: Mapping[str, float]
    ) -> Observation:
        """Assemble the full observation for the current netlist state.

        The static-feature and adjacency arrays are shared (not copied) across
        every observation this processor produces — they are constants of the
        topology and all consumers treat observations as read-only.
        """
        return Observation(
            node_features=self.graph.node_feature_matrix(),
            static_node_features=self._static_features,
            adjacency=self._adjacency,
            spec_features=self.spec_feature_vector(measured, targets),
            normalized_parameters=self.benchmark.design_space.normalize(self.parameter_values),
            measured_specs=dict(measured),
            target_specs=dict(targets),
        )

    @property
    def spec_feature_dimension(self) -> int:
        """Length of :meth:`spec_feature_vector` (3 entries per specification)."""
        return 3 * len(self.benchmark.spec_space)

    @property
    def node_feature_dimension(self) -> int:
        return self.graph.feature_dimension

    @property
    def num_graph_nodes(self) -> int:
        return self.graph.num_nodes
