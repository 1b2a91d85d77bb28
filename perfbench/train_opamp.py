"""train-opamp: the paper's Algorithm 1 at a fixed episode budget, then deployment.

GCN-FC is trained with PPO on 8 vectorized ``opamp-p2s-v0`` environments,
8 episodes per update; after a fixed number of updates it is deployed
greedily on held-out spec groups drawn from a stream independent of the
training seed, and training then goes on until ``--seconds`` are used, so
the run times as many updates as the host allows while the deployment
figures depend on the seed alone.  The PPO update is almost all of the wall
time, so this workload moves with the update path and hardly with the
simulator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

import repro
from repro.agents import PPOTrainer, evaluate_deployment
from repro.experiments.configs import rl_hyperparameters

from perfbench.metrics import Outcomes, median
from perfbench.workload import Measurement, UnitClock, int_seed

ENV_ID = "opamp-p2s-v0"
NUM_ENVS = 8
EPISODES_PER_UPDATE = 8
EVAL_TARGETS = 64
#: Updates trained before deployment is evaluated (96 episodes); also the
#: fewest updates a run times, however slow the host.
DEPLOY_UPDATES = 12


@dataclass
class State:
    trainer: PPOTrainer
    seconds: float
    eval_seed: int


def setup(seed: int, seconds: float, workdir: Path) -> State:
    env_stream, policy_stream, trainer_stream, eval_stream = np.random.SeedSequence(
        seed
    ).spawn(4)
    hyper = rl_hyperparameters("two_stage_opamp")
    env = repro.make_env(ENV_ID, num_envs=NUM_ENVS, seed=int_seed(env_stream))
    if env.max_steps != hyper["max_steps"]:
        raise RuntimeError(f"{ENV_ID} runs {env.max_steps} steps, expected {hyper['max_steps']}")
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(policy_stream))
    trainer = PPOTrainer(
        env, policy, config=hyper["ppo"], seed=int_seed(trainer_stream), env_id=ENV_ID
    )
    return State(trainer, seconds, int_seed(eval_stream))


def close(state: State) -> None:
    pass


def measure(state: State, tracer) -> Measurement:
    trainer = state.trainer
    cache = trainer.vector_env.cache.stats
    hits0, lookups0 = cache.hits, cache.lookups
    outcomes = Outcomes()
    evaluation = None
    start = time.perf_counter()
    deadline = start + state.seconds
    clock = UnitClock()
    while evaluation is None or time.perf_counter() < deadline:
        updates = len(clock.raw) + 1
        with clock.unit():
            trainer.train(updates * EPISODES_PER_UPDATE, episodes_per_update=EPISODES_PER_UPDATE)
        record = trainer.history.records[-1]
        outcomes.record(
            all(math.isfinite(v) for v in (record.policy_loss, record.value_loss, record.entropy))
        )
        if updates == DEPLOY_UPDATES:
            with tracer.span("agents.deployment.eval"):
                evaluation = evaluate_deployment(
                    trainer.env,
                    trainer.policy,
                    num_targets=EVAL_TARGETS,
                    seed=state.eval_seed,
                    batch_size=NUM_ENVS,
                )
            for _ in evaluation.results:
                outcomes.record(True)
    wall = time.perf_counter() - start

    lookups = cache.lookups - lookups0
    records = trainer.history.records
    episodes = records[-1].episodes_seen
    return Measurement(
        end_to_end={
            "throughput_per_s": EPISODES_PER_UPDATE / median(clock.scaled),
            "latency_ms": median(clock.scaled) * 1000.0,
            "design_steps": evaluation.mean_steps,
        },
        wall_s=wall,
        cost_per_op_s=wall / episodes,
        outcomes=outcomes,
        layers={
            "parallel.cache.hit_ratio": (cache.hits - hits0) / lookups if lookups else 0.0,
            "agents.deployment.success_rate": evaluation.accuracy,
            "update_transitions": sum(r.mean_episode_length for r in records)
            * EPISODES_PER_UPDATE,
        },
        details={
            "train.episodes": episodes,
            "train.episodes_per_s": episodes / wall,
            "train.update_p50_ms": median(clock.raw) * 1000.0,
            "train.update_ms": [value * 1000.0 for value in clock.raw],
            "train.update_scaled_ms": [value * 1000.0 for value in clock.scaled],
            "train.train_s": sum(clock.raw),
            "train.deploy_success_rate": evaluation.accuracy,
            "train.deploy_mean_steps": evaluation.mean_steps,
            "train.eval_targets": evaluation.num_targets,
            "train.final_mean_reward": trainer.history.final_mean_reward,
        },
    )


def check(state: State, measurement: Measurement) -> List[str]:
    records = state.trainer.history.records
    problems = []
    seen = [record.episodes_seen for record in records]
    updates = len(measurement.details["train.update_ms"])
    expected = [EPISODES_PER_UPDATE * (update + 1) for update in range(updates)]
    if seen != expected:
        problems.append(f"episode counts {seen} after each update, expected {expected}")
    for record in records:
        losses = (record.policy_loss, record.value_loss, record.entropy,
                  record.mean_episode_reward)
        if not all(math.isfinite(value) for value in losses):
            problems.append(f"update {record.update} recorded a non-finite loss: {losses}")
    if measurement.details["train.eval_targets"] != EVAL_TARGETS:
        problems.append("deployment evaluated the wrong number of spec groups")
    return problems
