"""Actor-critic policy networks: the paper's GNN-FC multimodal policy and the
prior-art baselines it is compared against.

The proposed policy (Fig. 2, "Agent") has two input branches:

* a **GNN branch** (GCN or GAT) over the full circuit graph whose node
  features contain the *dynamic* device parameters — this distills the
  circuit's "underlying physics" into a graph embedding;
* an **FCNN branch** over the specification context (desired and intermediate
  specifications) — this extracts the couplings / trade-offs between
  specifications;

whose embeddings are concatenated and processed by final FC layers into an
``M × 3`` matrix of action logits (decrease / keep / increase per tunable
parameter).  The critic shares the same structure but ends in a scalar value
head.

The baselines reproduce the prior RL methods as the paper describes them
(Sec. 4, "conservative comparisons"):

* **Baseline A** (AutoCkt [10]) — a plain FCNN over the vectorized
  specification context and normalized device parameters; no circuit graph.
* **Baseline B** (GCN-RL [11]) — a GNN over the circuit graph but *without*
  the specification-coupling FCNN branch; the raw specification vector is
  appended to the graph embedding just before the output layers.  Flags allow
  the original paper's weaker variants (partial topology, static technology
  node features) to be reproduced for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.env.spaces import NUM_ACTION_CHOICES, BatchedObservation, Observation
from repro.nn.distributions import BatchedMultiCategorical, MultiCategorical, sample_from_probs
from repro.nn.graph_layers import GraphEncoder
from repro.nn.layers import MLP, log_softmax_array
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate, inference_mode


@dataclass
class PolicyConfig:
    """Hyper-parameters describing one actor-critic architecture.

    Parameters mirror the knobs compared in the paper:

    * ``use_graph`` / ``graph_kind`` — whether a GNN branch is present and
      whether it is a GCN or a GAT (GCN-FC vs GAT-FC vs Baseline A).
    * ``use_spec_encoder`` — whether the specification context is embedded by
      a dedicated FCNN branch (ours) or appended raw (Baseline B).
    * ``use_dynamic_node_features`` — dynamic device parameters (ours /
      upgraded Baseline B) versus static technology constants (original
      Baseline B).
    * ``include_parameters`` — whether the normalized parameter vector is part
      of the flat input (AutoCkt-style observation).
    """

    num_parameters: int
    spec_feature_dim: int
    node_feature_dim: int = 0
    num_graph_nodes: int = 0
    use_graph: bool = True
    graph_kind: str = "gcn"
    use_spec_encoder: bool = True
    use_dynamic_node_features: bool = True
    include_parameters: bool = True
    graph_hidden: Tuple[int, ...] = (32, 16)
    graph_readout: str = "concat"
    spec_hidden: Tuple[int, ...] = (32, 32)
    head_hidden: Tuple[int, ...] = (64,)
    gat_heads: int = 2
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        if self.spec_feature_dim <= 0:
            raise ValueError("spec_feature_dim must be positive")
        if self.use_graph and self.node_feature_dim <= 0:
            raise ValueError("node_feature_dim must be positive when use_graph=True")
        if self.use_graph and self.graph_readout == "concat" and self.num_graph_nodes <= 0:
            raise ValueError("num_graph_nodes must be positive for the concat readout")
        if self.graph_kind not in {"gcn", "gat"}:
            raise ValueError("graph_kind must be 'gcn' or 'gat'")


class _FeatureTrunk(Module):
    """Shared feature-extraction trunk (graph branch + spec branch + merge)."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        merged_dim = 0

        if config.use_graph:
            self.graph_encoder = GraphEncoder(
                layer_sizes=(config.node_feature_dim, *config.graph_hidden),
                rng=rng,
                kind=config.graph_kind,
                num_heads=config.gat_heads,
                activation=config.activation,
                readout=config.graph_readout,
                num_nodes=config.num_graph_nodes or None,
            )
            merged_dim += self.graph_encoder.out_features

        flat_dim = config.spec_feature_dim
        if config.include_parameters:
            flat_dim += config.num_parameters
        self.flat_input_dim = flat_dim

        if config.use_spec_encoder:
            self.spec_encoder = MLP(
                (flat_dim, *config.spec_hidden),
                rng=rng,
                hidden_activation=config.activation,
                output_activation=config.activation,
            )
            merged_dim += config.spec_hidden[-1]
        else:
            merged_dim += flat_dim

        self.output_dim = merged_dim

    def _flat_input(self, observation: Observation) -> Tensor:
        parts = [observation.spec_features]
        if self.config.include_parameters:
            parts.append(observation.normalized_parameters)
        return Tensor(np.concatenate(parts).reshape(1, -1))

    def forward(self, observation: Observation) -> Tensor:
        pieces = []
        if self.config.use_graph:
            if self.config.use_dynamic_node_features:
                node_features = observation.node_features
            else:
                node_features = observation.static_node_features
            graph_embedding = self.graph_encoder(
                Tensor(node_features), observation.adjacency
            )
            pieces.append(graph_embedding)
        flat = self._flat_input(observation)
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return concatenate(pieces, axis=-1)

    def forward_array(self, observation: Observation) -> np.ndarray:
        """Pure-numpy trunk forward (grad-free inference fast path).

        Mirrors :meth:`forward` operation-for-operation, so the returned
        ``(1, output_dim)`` features are bitwise identical to
        ``forward(observation).numpy()`` — without building any tensors.
        """
        pieces = []
        if self.config.use_graph:
            if self.config.use_dynamic_node_features:
                node_features = observation.node_features
            else:
                node_features = observation.static_node_features
            pieces.append(self.graph_encoder.forward_array(node_features, observation.adjacency))
        parts = [observation.spec_features]
        if self.config.include_parameters:
            parts.append(observation.normalized_parameters)
        flat = np.concatenate(parts).reshape(1, -1)
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder.forward_array(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, axis=-1)

    def forward_array_batch(self, batch: BatchedObservation) -> np.ndarray:
        """Pure-numpy twin of :meth:`forward_batch`, shape ``(B, output_dim)``."""
        pieces = []
        if self.config.use_graph:
            if self.config.use_dynamic_node_features:
                node_features = batch.node_features
            else:
                node_features = batch.static_node_features
            pieces.append(self.graph_encoder.forward_array(node_features, batch.adjacency))
        flat = batch.flat_matrix() if self.config.include_parameters else batch.spec_features
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder.forward_array(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, axis=-1)

    def forward_batch(self, batch: BatchedObservation) -> Tensor:
        """Batched trunk features, shape ``(B, output_dim)``.

        One autograd graph covers the whole batch — the GNN branch runs a
        stacked ``(B, n, d)`` forward over the shared adjacency and the flat
        branch a single ``(B, flat)`` matmul — so the per-environment Python
        and graph-construction overhead is paid once per *batch* instead of
        once per environment.
        """
        pieces = []
        if self.config.use_graph:
            if self.config.use_dynamic_node_features:
                node_features = batch.node_features
            else:
                node_features = batch.static_node_features
            pieces.append(self.graph_encoder(Tensor(node_features), batch.adjacency))
        flat = Tensor(batch.flat_matrix() if self.config.include_parameters
                      else batch.spec_features)
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return concatenate(pieces, axis=-1)


class ActorCriticPolicy(Module):
    """Actor-critic with independent actor and critic trunks.

    The actor ends in an ``M × 3`` logits head; the critic "preserves the
    same structure as the policy network except of the last layer" (paper,
    Sec. 3) and ends in a scalar state-value head.
    """

    def __init__(self, config: PolicyConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.actor_trunk = _FeatureTrunk(config, rng)
        self.critic_trunk = _FeatureTrunk(config, rng)
        action_dim = config.num_parameters * NUM_ACTION_CHOICES
        self.actor_head = MLP(
            (self.actor_trunk.output_dim, *config.head_hidden, action_dim),
            rng=rng,
            hidden_activation=config.activation,
            output_gain=0.1,
        )
        self.critic_head = MLP(
            (self.critic_trunk.output_dim, *config.head_hidden, 1),
            rng=rng,
            hidden_activation=config.activation,
        )

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def action_distribution(self, observation: Observation) -> MultiCategorical:
        """Per-parameter categorical distribution over the three moves."""
        features = self.actor_trunk(observation)
        logits = self.actor_head(features).reshape(
            self.config.num_parameters, NUM_ACTION_CHOICES
        )
        return MultiCategorical(logits)

    def value(self, observation: Observation) -> Tensor:
        """State-value estimate (scalar tensor)."""
        features = self.critic_trunk(observation)
        return self.critic_head(features).reshape(1)[0]

    # ------------------------------------------------------------------
    # Acting / evaluating
    # ------------------------------------------------------------------
    def act(
        self,
        observation: Observation,
        rng: np.random.Generator,
        deterministic: bool = False,
        inference: bool = True,
    ) -> Tuple[np.ndarray, float, float]:
        """Select an action; returns ``(action, log_prob, value)`` (detached).

        All three outputs are plain floats/arrays, so by default the forward
        passes run under :func:`repro.nn.inference_mode` (no graph recording;
        identical numbers).  Pass ``inference=False`` to force the
        grad-recording path — PPO re-evaluates whole minibatches during its
        update via :meth:`evaluate_actions_batch`, so this is only useful for
        benchmarking the two paths against each other.
        """
        if inference:
            with inference_mode():
                return self.act(observation, rng, deterministic=deterministic, inference=False)
        distribution = self.action_distribution(observation)
        if deterministic:
            action = distribution.mode()
        else:
            action = distribution.sample(rng)
        log_prob = float(distribution.log_prob(action).item())
        value = float(self.value(observation).item())
        return action, log_prob, value

    def evaluate_actions(
        self, observation: Observation, action: np.ndarray
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable ``(log_prob, value, entropy)`` of one transition."""
        distribution = self.action_distribution(observation)
        log_prob = distribution.log_prob(action)
        entropy = distribution.entropy()
        value = self.value(observation)
        return log_prob, value, entropy

    # ------------------------------------------------------------------
    # Batched acting (the VectorCircuitEnv fast path)
    # ------------------------------------------------------------------
    def action_distribution_batch(self, batch: BatchedObservation) -> BatchedMultiCategorical:
        """Batched ``(B, M, 3)`` action distribution over stacked observations."""
        features = self.actor_trunk.forward_batch(batch)
        logits = self.actor_head(features).reshape(
            len(batch), self.config.num_parameters, NUM_ACTION_CHOICES
        )
        return BatchedMultiCategorical(logits)

    def value_batch(self, batch: BatchedObservation) -> Tensor:
        """Batched state-value estimates, shape ``(B,)``."""
        features = self.critic_trunk.forward_batch(batch)
        return self.critic_head(features).reshape(len(batch))

    def evaluate_actions_batch(
        self, batch: BatchedObservation, actions: np.ndarray
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Batched :meth:`evaluate_actions` for ``(B, M)`` actions (the PPO update).

        Returns ``(log_probs, values, entropies)``, each ``(B,)``, in one
        autograd graph: a minibatch costs one forward and one backward.
        """
        distribution = self.action_distribution_batch(batch)
        return distribution.log_prob(actions), self.value_batch(batch), distribution.entropy()

    def act_batch(
        self,
        batch: BatchedObservation,
        rng: np.random.Generator,
        deterministic: bool = False,
        inference: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`act`: ``(actions (B, M), log_probs (B,), values (B,))``.

        Numerically equivalent to calling :meth:`act` per environment (same
        weights, same float64 operations over each row) while paying the
        network-forward overhead once per batch.  Stochastic sampling draws
        from ``rng`` in batch order, so the random stream differs from B
        sequential :meth:`act` calls — seed accounting, not results quality.
        By default the forward runs under :func:`repro.nn.inference_mode`
        (see :meth:`act`).
        """
        if inference:
            with inference_mode():
                return self.act_batch(batch, rng, deterministic=deterministic, inference=False)
        distribution = self.action_distribution_batch(batch)
        if deterministic:
            actions = distribution.mode()
        else:
            actions = distribution.sample(rng)
        log_probs = distribution.log_prob(actions).numpy().copy()
        values = self.value_batch(batch).numpy().copy()
        return actions, log_probs, values

    # ------------------------------------------------------------------
    # Grad-free action selection (the deployment fast path)
    # ------------------------------------------------------------------
    def actor_logits_array(self, observation: Observation) -> np.ndarray:
        """Actor logits ``(M, 3)`` via the pure-numpy forward (no tensors).

        Bitwise identical to ``action_distribution(observation).logits`` —
        every layer mirrors its graded arithmetic exactly — at a fraction of
        the cost: no critic, no graph bookkeeping, no tensor wrappers.
        """
        features = self.actor_trunk.forward_array(observation)
        return self.actor_head.forward_array(features).reshape(
            self.config.num_parameters, NUM_ACTION_CHOICES
        )

    def actor_logits_array_batch(self, batch: BatchedObservation) -> np.ndarray:
        """Batched actor logits ``(B, M, 3)`` via the pure-numpy forward."""
        features = self.actor_trunk.forward_array_batch(batch)
        return self.actor_head.forward_array(features).reshape(
            len(batch), self.config.num_parameters, NUM_ACTION_CHOICES
        )

    def select_action(
        self,
        observation: Observation,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = True,
    ) -> np.ndarray:
        """Action selection without log-prob/value bookkeeping or any graph.

        This is what deployment actually needs: the greedy (or sampled)
        action, nothing else.  Actions are identical to
        ``act(..., deterministic=...)[0]`` — greedy selection argmaxes the
        same probability array :class:`MultiCategorical` builds (identical
        tie-breaking), and sampling shares its
        :func:`~repro.nn.distributions.sample_from_probs` implementation,
        consuming the same draws from ``rng``.
        """
        # The probabilities are derived exactly as MultiCategorical does
        # (exp of the log-softmax twin), so greedy tie-breaking and sampled
        # draws match the distribution-based act() path bit for bit.
        probs = np.exp(log_softmax_array(self.actor_logits_array(observation)))
        if deterministic:
            return np.argmax(probs, axis=-1).astype(np.int64)
        if rng is None:
            raise ValueError("stochastic action selection requires an rng")
        return sample_from_probs(probs, rng)

    def select_action_batch(
        self,
        batch: BatchedObservation,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = True,
    ) -> np.ndarray:
        """Batched :meth:`select_action`: one ``(B, M)`` action matrix.

        Sampling mirrors :class:`BatchedMultiCategorical` (one ``(B, M, 1)``
        draw block from ``rng``); greedy selection is a per-row argmax of the
        batched logits.
        """
        probs = np.exp(log_softmax_array(self.actor_logits_array_batch(batch)))
        if deterministic:
            return np.argmax(probs, axis=-1).astype(np.int64)
        if rng is None:
            raise ValueError("stochastic action selection requires an rng")
        return sample_from_probs(probs, rng)


# ----------------------------------------------------------------------
# Named constructors for the four compared methods
# ----------------------------------------------------------------------
def _base_config(env, **overrides) -> PolicyConfig:
    config = PolicyConfig(
        num_parameters=env.num_parameters,
        spec_feature_dim=env.spec_feature_dimension,
        node_feature_dim=env.node_feature_dimension,
        num_graph_nodes=env.num_graph_nodes,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    config.__post_init__()
    return config


def _gcn_fc_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """The paper's GCN-FC multimodal policy."""
    config = _base_config(env, use_graph=True, graph_kind="gcn", use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _gat_fc_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """The paper's GAT-FC multimodal policy (best-performing variant)."""
    config = _base_config(env, use_graph=True, graph_kind="gat", use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _baseline_a_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """Baseline A (AutoCkt [10]): FCNN over spec vector + parameters, no graph."""
    config = _base_config(env, use_graph=False, use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _baseline_b_policy(
    env,
    rng: Optional[np.random.Generator] = None,
    graph_kind: str = "gcn",
    use_dynamic_node_features: bool = True,
    **overrides,
) -> ActorCriticPolicy:
    """Baseline B (GCN-RL [11]): graph branch only, no spec-coupling FCNN.

    By default this is the paper's "conservative" upgraded implementation
    (full topology, dynamic node features); pass
    ``use_dynamic_node_features=False`` to reproduce the original
    static-technology-feature variant used in the ablation bench.
    """
    config = _base_config(
        env,
        use_graph=True,
        graph_kind=graph_kind,
        use_spec_encoder=False,
        use_dynamic_node_features=use_dynamic_node_features,
        **overrides,
    )
    return ActorCriticPolicy(config, rng)


#: Mapping of method name (as used in figures/tables) to constructor.  The
#: :mod:`repro.api` catalog registers exactly these builders under the same
#: IDs; build policies with ``repro.make_policy("gcn_fc", env)``.
POLICY_FACTORIES = {
    "gcn_fc": _gcn_fc_policy,
    "gat_fc": _gat_fc_policy,
    "baseline_a": _baseline_a_policy,
    "baseline_b": _baseline_b_policy,
}

