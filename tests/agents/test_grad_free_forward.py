"""The grad-free forward: ``select_action[_batch]`` and the ``forward_array`` twins.

The numpy twins mirror the ``Tensor`` forward operation for operation, so the
deployment fast path must agree with the training forward bit for bit: the
same logits, the same greedy actions, and the same sampled actions from the
same random stream.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro

POLICY_IDS = ("gcn_fc", "gat_fc", "baseline_a", "baseline_b")
NUM_ENVS = 4
STEPS = 6


def _env_and_batch(num_envs=NUM_ENVS, seed=0, env_id="opamp-p2s-v0"):
    env = repro.make_env(env_id, seed=seed, num_envs=num_envs)
    return env, env.reset()


def _assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("policy_id", POLICY_IDS)
@pytest.mark.parametrize("num_envs", [2, 4])
@pytest.mark.parametrize("seed", [0, 123])
class TestBatchedBitwiseParity:
    def test_select_action_batch_matches_act_batch(self, policy_id, num_envs, seed):
        env, batch = _env_and_batch(num_envs=num_envs, seed=seed)
        policy = repro.make_policy(policy_id, env.envs[0], np.random.default_rng(seed))
        rng_fast = np.random.default_rng(seed + 1)
        rng_tensor = np.random.default_rng(seed + 1)
        action_rng = np.random.default_rng(seed + 2)
        for _ in range(STEPS):
            for deterministic in (False, True):
                got = policy.select_action_batch(batch, rng_fast, deterministic=deterministic)
                want, _, _ = policy.act_batch(batch, rng_tensor, deterministic=deterministic)
                _assert_bitwise_equal(got, want)
            actions = np.stack(
                [env.action_space.sample(action_rng) for _ in range(num_envs)]
            )
            batch, _, _, _ = env.step(actions)

    def test_logits_match_tensor_forward(self, policy_id, num_envs, seed):
        env, batch = _env_and_batch(num_envs=num_envs, seed=seed)
        policy = repro.make_policy(policy_id, env.envs[0], np.random.default_rng(seed))
        action_rng = np.random.default_rng(seed + 2)
        for _ in range(STEPS):
            _assert_bitwise_equal(
                policy.actor_logits_array_batch(batch),
                policy.action_distribution_batch(batch).logits.numpy(),
            )
            actions = np.stack(
                [env.action_space.sample(action_rng) for _ in range(num_envs)]
            )
            batch, _, _, _ = env.step(actions)


@pytest.mark.parametrize("policy_id", POLICY_IDS)
class TestSingleObservationParity:
    def test_select_action_matches_act(self, policy_id):
        env, batch = _env_and_batch()
        policy = repro.make_policy(policy_id, env.envs[0], np.random.default_rng(3))
        rng_fast = np.random.default_rng(9)
        rng_tensor = np.random.default_rng(9)
        for i in range(len(batch)):
            for deterministic in (False, True):
                got = policy.select_action(batch[i], rng_fast, deterministic=deterministic)
                want, _, _ = policy.act(batch[i], rng_tensor, deterministic=deterministic)
                _assert_bitwise_equal(got, want)

    def test_logits_match_tensor_forward(self, policy_id):
        env, batch = _env_and_batch()
        policy = repro.make_policy(policy_id, env.envs[0], np.random.default_rng(3))
        for i in range(len(batch)):
            _assert_bitwise_equal(
                policy.actor_logits_array(batch[i]),
                policy.action_distribution(batch[i]).logits.numpy(),
            )

    def test_trunk_forward_array_matches_forward(self, policy_id):
        env, batch = _env_and_batch()
        policy = repro.make_policy(policy_id, env.envs[0], np.random.default_rng(3))
        for trunk in (policy.actor_trunk, policy.critic_trunk):
            _assert_bitwise_equal(
                trunk.forward_array_batch(batch), trunk.forward_batch(batch).numpy()
            )
            for i in range(len(batch)):
                _assert_bitwise_equal(
                    trunk.forward_array(batch[i]), trunk(batch[i]).numpy()
                )


class TestLiveWeightsAndShapes:
    def test_weight_updates_are_picked_up_live(self):
        """The twins read the live parameters, not a snapshot taken earlier."""
        env, batch = _env_and_batch()
        policy = repro.make_policy("gcn_fc", env.envs[0], np.random.default_rng(0))
        before = policy.actor_logits_array_batch(batch).copy()
        for parameter in policy.parameters():
            parameter.data += 0.01
        after = policy.actor_logits_array_batch(batch)
        assert not np.array_equal(before, after)
        _assert_bitwise_equal(after, policy.action_distribution_batch(batch).logits.numpy())

    def test_batch_size_can_change_between_calls(self):
        env, batch = _env_and_batch()
        policy = repro.make_policy("gat_fc", env.envs[0], np.random.default_rng(0))
        assert policy.select_action_batch(batch).shape == (NUM_ENVS, env.num_parameters)
        small_env, small_batch = _env_and_batch(num_envs=2)
        actions = policy.select_action_batch(small_batch, np.random.default_rng(0),
                                             deterministic=False)
        assert actions.shape == (2, env.num_parameters)
        assert np.all((actions >= 0) & (actions < 3))

    def test_stochastic_selection_requires_an_rng(self):
        env, batch = _env_and_batch()
        policy = repro.make_policy("gcn_fc", env.envs[0], np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            policy.select_action(batch[0], deterministic=False)
        with pytest.raises(ValueError, match="rng"):
            policy.select_action_batch(batch, deterministic=False)

    def test_parity_holds_on_rf_pa_env(self):
        env, batch = _env_and_batch(env_id="rf_pa-coarse-v0")
        policy = repro.make_policy("gat_fc", env.envs[0], np.random.default_rng(1))
        _assert_bitwise_equal(
            policy.actor_logits_array_batch(batch),
            policy.action_distribution_batch(batch).logits.numpy(),
        )
        _assert_bitwise_equal(
            policy.select_action_batch(batch),
            policy.act_batch(batch, np.random.default_rng(0), deterministic=True)[0],
        )
