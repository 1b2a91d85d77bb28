"""PPO update throughput: the batched minibatch update vs the per-sample oracle.

``PPOTrainer.update`` evaluates each minibatch with one batched forward and
one backward pass.  This bench collects one rollout in the ``train-opamp``
configuration (GCN-FC, 8 vectorized ``opamp-p2s-v0`` envs, 8 episodes,
``rl_hyperparameters("two_stage_opamp")``) and times, on that same buffer
and from the same starting weights, the batched update and the per-sample
oracle update of ``tests/agents/ppo_oracle.py`` — one graph per transition,
as the trainer used to run.  It records

* ``ppo_update_transitions_per_s`` and ``ppo_oracle_update_transitions_per_s``
  (buffer transitions over update wall time; CI asserts their ratio >= 10
  via ``compare_bench.py --floor``), and
* ``train_episodes_per_s``: a two-update ``train()`` run, rollout included,
  with the batched update.
"""

from __future__ import annotations

import copy
import time

import numpy as np

import repro
from repro.agents import PPOTrainer
from repro.experiments.configs import rl_hyperparameters
from tests.agents.ppo_oracle import OraclePPOTrainer

ENV_ID = "opamp-p2s-v0"
NUM_ENVS = 8
EPISODES_PER_UPDATE = 8
#: Timed repeats of the batched update; the fastest is recorded.
REPEATS = 3


def _setup(seed: int = 0):
    config = rl_hyperparameters("two_stage_opamp")["ppo"]
    env = repro.make_env(ENV_ID, num_envs=NUM_ENVS, seed=seed)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(seed))
    buffer = PPOTrainer(env, policy, config=config, seed=seed).collect_episodes(
        EPISODES_PER_UPDATE
    )
    return env, policy, config, buffer


def _update_seconds(trainer_class, env, policy, config, buffer) -> float:
    """Wall time of one update from ``policy``'s weights (left untouched)."""
    trainer = trainer_class(env, copy.deepcopy(policy), config=config, seed=1)
    start = time.perf_counter()
    trainer.update(buffer)
    return time.perf_counter() - start


def _measure():
    env, policy, config, buffer = _setup()
    batched = min(
        _update_seconds(PPOTrainer, env, policy, config, buffer) for _ in range(REPEATS)
    )
    oracle = _update_seconds(OraclePPOTrainer, env, policy, config, buffer)

    trainer = PPOTrainer(env, copy.deepcopy(policy), config=config, seed=2)
    start = time.perf_counter()
    trainer.train(2 * EPISODES_PER_UPDATE, episodes_per_update=EPISODES_PER_UPDATE)
    train_seconds = time.perf_counter() - start
    return len(buffer), batched, oracle, 2 * EPISODES_PER_UPDATE / train_seconds


def test_batched_ppo_update_speedup(benchmark):
    """Batched PPO update: >= 10x transitions/s vs the per-sample oracle."""
    transitions, batched, oracle, episodes_per_s = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    speedup = oracle / batched
    benchmark.extra_info.update(
        {
            "policy": "gcn_fc",
            "num_envs": NUM_ENVS,
            "transitions": transitions,
            "update_epochs": rl_hyperparameters("two_stage_opamp")["ppo"].update_epochs,
            "ppo_update_transitions_per_s": round(transitions / batched, 1),
            "ppo_oracle_update_transitions_per_s": round(transitions / oracle, 1),
            "ppo_update_speedup": round(speedup, 2),
            "train_episodes_per_s": round(episodes_per_s, 2),
        }
    )
    assert speedup >= 10.0, (
        f"batched PPO update regressed: {speedup:.1f}x the per-sample oracle's "
        "transitions/s (floor 10x)"
    )
