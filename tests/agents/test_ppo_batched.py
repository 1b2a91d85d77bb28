"""The batched PPO update agrees with the per-sample oracle.

:meth:`PPOTrainer.update` evaluates each minibatch with one batched forward
and one backward; :mod:`tests.agents.ppo_oracle` builds the same loss one
transition at a time.  Only the summation order differs, so each minibatch's
(clipped) gradient must match to 1e-10 relative, and a fixed-seed training
history must match field by field to 1e-9 relative while drawing the same
minibatches from the trainer's rng.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import make_env, make_policy
from repro.agents.ppo import PPOConfig, PPOTrainer
from repro.nn.optim import clip_grad_norm
from tests.agents.ppo_oracle import OraclePPOTrainer, oracle_minibatch_loss

POLICY_CASES = {
    "gcn_fc": {},
    "gat_fc": {},
    "baseline_a": {},
    "baseline_b": {"use_dynamic_node_features": False},
}


def _trainer_with_buffer(policy_id, max_steps, episodes, minibatch_size):
    env = make_env("opamp-p2s-v0", seed=0, num_envs=8, max_steps=max_steps)
    policy = make_policy(policy_id, env, np.random.default_rng(0), **POLICY_CASES[policy_id])
    config = PPOConfig(minibatch_size=minibatch_size, update_epochs=1)
    trainer = PPOTrainer(env, policy, config=config, seed=0)
    return trainer, trainer.collect_episodes(episodes)


def _gradients(parameters):
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in parameters]


def _checked_update(trainer, buffer):
    """Run ``trainer.update``; before every Adam step, compare with the oracle.

    The oracle's gradient is computed at the same parameters the batched
    step is about to use, clipped the same way; the batched gradient is then
    restored so the update proceeds exactly as in production.  Returns the
    minibatch sizes seen and each minibatch's relative gradient error.
    """
    config = trainer.config
    replay = copy.deepcopy(trainer.rng)
    minibatches = [
        indices
        for _ in range(config.update_epochs)
        for indices in buffer.minibatch_indices(replay, config.minibatch_size)
    ]
    parameters = trainer.policy.parameters()
    step = trainer.optimizer.step
    sizes, errors = [], []

    def checked_step():
        indices = minibatches[len(sizes)]
        batched = _gradients(parameters)
        trainer.optimizer.zero_grad()
        loss, _ = oracle_minibatch_loss(trainer.policy, buffer, indices, config)
        loss.backward()
        clip_grad_norm(parameters, config.max_grad_norm)
        oracle = np.concatenate([g.ravel() for g in _gradients(parameters)])
        difference = np.concatenate([g.ravel() for g in batched]) - oracle
        errors.append(np.linalg.norm(difference) / np.linalg.norm(oracle))
        for parameter, gradient in zip(parameters, batched):
            parameter.grad = gradient
        sizes.append(len(indices))
        step()

    trainer.optimizer.step = checked_step
    trainer.update(buffer)
    assert len(sizes) == len(minibatches)
    return sizes, errors


@pytest.mark.parametrize("policy_id", sorted(POLICY_CASES))
@pytest.mark.parametrize(
    "max_steps, episodes, minibatch_size",
    [(50, 8, 64), (13, 5, 64), (3, 2, 1)],
    ids=["ragged-last-minibatch", "minibatch-of-one-after-full", "all-minibatches-of-one"],
)
def test_minibatch_gradients_match_oracle(policy_id, max_steps, episodes, minibatch_size):
    trainer, buffer = _trainer_with_buffer(policy_id, max_steps, episodes, minibatch_size)
    sizes, errors = _checked_update(trainer, buffer)
    full, rest = divmod(len(buffer), minibatch_size)
    assert sizes == [minibatch_size] * full + ([rest] if rest else [])
    if minibatch_size > 1:
        assert rest > 0, "the buffer should leave a ragged last minibatch"
    assert max(errors) <= 1e-10, errors


def test_two_update_history_matches_oracle():
    def train(trainer_class):
        env = make_env("opamp-p2s-v0", seed=0, num_envs=8)
        policy = make_policy("gcn_fc", env, np.random.default_rng(0))
        trainer = trainer_class(env, policy, config=PPOConfig(), seed=0)
        trainer.train(total_episodes=16, episodes_per_update=8)
        return trainer

    batched, oracle = train(PPOTrainer), train(OraclePPOTrainer)
    assert len(batched.history.records) == len(oracle.history.records) == 2
    for mine, reference in zip(batched.history.records, oracle.history.records):
        for field in dataclasses.fields(reference):
            expected = getattr(reference, field.name)
            actual = getattr(mine, field.name)
            if isinstance(expected, float):
                np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=0.0,
                                           err_msg=field.name)
            else:
                assert actual == expected, field.name
    # Same rng state afterwards: both updates drew the same minibatches.
    assert batched.rng.bit_generator.state == oracle.rng.bit_generator.state
