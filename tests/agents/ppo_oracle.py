"""Per-sample PPO update: the reference the batched update is checked against.

:func:`oracle_minibatch_loss` is the clipped-surrogate loss of one minibatch
built the straightforward way — one :meth:`evaluate_actions` graph per
transition, the per-sample losses summed in order — and
:class:`OraclePPOTrainer` runs the whole update with it.  The batched
:meth:`repro.agents.ppo.PPOTrainer.update` computes the same quantities with
one graph per minibatch; only the summation order differs, so gradients and
training records agree to rounding.

Used by the PPO tests and by ``benchmarks/bench_ppo_update.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.agents.policy import ActorCriticPolicy
from repro.agents.ppo import PPOConfig, PPOTrainer
from repro.agents.rollout import RolloutBuffer
from repro.nn.functional import explained_variance
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, minimum


def oracle_minibatch_loss(
    policy: ActorCriticPolicy,
    buffer: RolloutBuffer,
    indices: np.ndarray,
    config: PPOConfig,
) -> Tuple[Tensor, Dict[str, List[float]]]:
    """Mean PPO loss of one minibatch plus its per-transition terms.

    The terms dict holds ``policy_loss``, ``value_loss``, ``entropy`` and
    ``value`` lists in ``indices`` order.
    """
    assert buffer.advantages is not None and buffer.returns is not None
    terms: Dict[str, List[float]] = {
        "policy_loss": [], "value_loss": [], "entropy": [], "value": []
    }
    total = None
    for index in indices:
        transition = buffer.transitions[index]
        advantage = float(buffer.advantages[index])
        target_return = float(buffer.returns[index])
        log_prob, value, entropy = policy.evaluate_actions(
            transition.observation, transition.action
        )
        ratio = (log_prob - transition.log_prob).exp()
        unclipped = ratio * advantage
        clipped = ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * advantage
        policy_loss = -minimum(unclipped, clipped)
        value_error = value - target_return
        value_loss = value_error * value_error
        loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
        total = loss if total is None else total + loss
        terms["policy_loss"].append(float(policy_loss.item()))
        terms["value_loss"].append(float(value_loss.item()))
        terms["entropy"].append(float(entropy.item()))
        terms["value"].append(float(value.item()))
    assert total is not None
    return total * (1.0 / len(indices)), terms


class OraclePPOTrainer(PPOTrainer):
    """:class:`PPOTrainer` whose update evaluates one transition at a time."""

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        config = self.config
        buffer.compute_returns_and_advantages(normalize=config.normalize_advantages)
        assert buffer.returns is not None

        policy_losses: List[float] = []
        value_losses: List[float] = []
        entropies: List[float] = []
        value_predictions = np.zeros(len(buffer))

        for _ in range(config.update_epochs):
            for indices in buffer.minibatch_indices(self.rng, config.minibatch_size):
                total, terms = oracle_minibatch_loss(self.policy, buffer, indices, config)
                value_predictions[indices] = terms["value"]
                policy_losses.extend(terms["policy_loss"])
                value_losses.extend(terms["value_loss"])
                entropies.extend(terms["entropy"])
                self.optimizer.zero_grad()
                total.backward()
                clip_grad_norm(self.policy.parameters(), config.max_grad_norm)
                self.optimizer.step()

        return {
            "policy_loss": float(np.mean(policy_losses)),
            "value_loss": float(np.mean(value_losses)),
            "entropy": float(np.mean(entropies)),
            "explained_variance": explained_variance(value_predictions, buffer.returns),
        }
