"""The layers the traced run wraps, and the per-layer metrics computed from them.

Every per-layer metric is reported on every workload; a layer a workload
does not exercise reads 0 there, which is the prediction for a change to
that layer on that workload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.agents.ppo as ppo_module
from repro.agents.policy import ActorCriticPolicy
from repro.agents.ppo import PPOTrainer
from repro.env.circuit_env import CircuitDesignEnv
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.parallel.vector_env import VectorCircuitEnv
from repro.serve.service import DeploymentService
from repro.simulation.opamp_sim import OpAmpSimulator

from perfbench.metrics import LayerTotals
from perfbench.tracing import Target, Tracer
from perfbench.workload import Measurement


def _simulate_span(simulator: OpAmpSimulator) -> str:
    return "simulation.mna.simulate" if simulator.method == "mna" else "simulation.simulate"


def _count_invalid(tracer: Tracer, simulator: OpAmpSimulator, result) -> None:
    if simulator.method == "mna" and not result.valid:
        tracer.count("simulation.mna.invalid_results")


TARGETS: List[Target] = [
    (PPOTrainer, "update", "agents.ppo.update"),
    (PPOTrainer, "collect_episodes", "agents.ppo.collect"),
    (ActorCriticPolicy, "evaluate_actions", "agents.policy.evaluate_actions"),
    (ActorCriticPolicy, "act_batch", "agents.policy.act_batch"),
    (ActorCriticPolicy, "select_action_batch", "agents.policy.select_action_batch"),
    (Tensor, "backward", "nn.backward"),
    (Adam, "step", "nn.optim_step"),
    (ppo_module, "clip_grad_norm", "nn.optim_step"),
    (VectorCircuitEnv, "step", "parallel.vector_env.step"),
    (VectorCircuitEnv, "step_selected", "parallel.vector_env.step_selected"),
    (CircuitDesignEnv, "step", "env.step"),
    (OpAmpSimulator, "simulate", _simulate_span),
    (DeploymentService, "serve_group", "serve.service.serve_group"),
]
HOOKS = {"OpAmpSimulator.simulate": _count_invalid}

#: Every per-layer metric, with its unit, in the order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str]] = [
    ("agents.ppo.update_s", "s"),
    ("agents.ppo.update_self_s", "s"),
    ("agents.ppo.update_transitions_per_s", "1/s"),
    ("agents.policy.evaluate_actions_s", "s"),
    ("agents.policy.evaluate_actions_calls", "count"),
    ("nn.backward_s", "s"),
    ("nn.backward_calls", "count"),
    ("nn.optim_step_s", "s"),
    ("agents.ppo.collect_s", "s"),
    ("agents.policy.act_batch_s", "s"),
    ("parallel.vector_env.step_s", "s"),
    ("parallel.cache.hit_ratio", "ratio"),
    ("agents.deployment.eval_s", "s"),
    ("agents.deployment.success_rate", "ratio"),
    ("serve.service.serve_group_s", "s"),
    ("serve.worker_busy_frac", "ratio"),
    ("parallel.vector_env.step_selected_s", "s"),
    ("env.step_s", "s"),
    ("agents.policy.select_action_batch_s", "s"),
    ("simulation.simulate_s", "s"),
    ("serve.gateway.queue_wait_p50_ms", "ms"),
    ("serve.gateway.mean_coalesce", "count"),
    ("serve.gateway.deadline_flushes", "count"),
    ("serve.gateway.full_flushes", "count"),
    ("serve.gateway.response_cache_hits", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("baselines.search_s", "s"),
    ("baselines.search_self_s", "s"),
    ("baselines.success_rate", "ratio"),
    ("simulation.mna.simulate_calls", "count"),
    ("simulation.mna.simulate_ms", "ms"),
    ("simulation.mna.invalid_results", "count"),
    ("corners.corner_results_s", "s"),
    ("corners.lanes", "count"),
    ("corners.lane_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(
    totals: Dict[str, LayerTotals],
    counts: Dict[str, int],
    untraced: Measurement,
    traced: Measurement,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 for layers it did not touch)."""
    empty = LayerTotals()

    def span(name: str) -> LayerTotals:
        return totals.get(name, empty)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    update = span("agents.ppo.update")
    search = span("baselines.search")
    mna = span("simulation.mna.simulate")
    sweep = span("corners.corner_results")
    lanes = traced.layers.get("corners.lanes", 0)
    values = {
        "agents.ppo.update_s": update.total_s,
        "agents.ppo.update_self_s": update.self_s,
        "agents.ppo.update_transitions_per_s": per(
            traced.layers.get("update_transitions", 0.0), update.total_s
        ),
        "agents.policy.evaluate_actions_s": span("agents.policy.evaluate_actions").total_s,
        "agents.policy.evaluate_actions_calls": span("agents.policy.evaluate_actions").calls,
        "nn.backward_s": span("nn.backward").total_s,
        "nn.backward_calls": span("nn.backward").calls,
        "nn.optim_step_s": span("nn.optim_step").total_s,
        "agents.ppo.collect_s": span("agents.ppo.collect").total_s,
        "agents.policy.act_batch_s": span("agents.policy.act_batch").total_s,
        "parallel.vector_env.step_s": span("parallel.vector_env.step").total_s,
        "agents.deployment.eval_s": span("agents.deployment.eval").total_s,
        "serve.service.serve_group_s": span("serve.service.serve_group").total_s,
        "parallel.vector_env.step_selected_s": span("parallel.vector_env.step_selected").total_s,
        "env.step_s": span("env.step").total_s,
        "agents.policy.select_action_batch_s": span("agents.policy.select_action_batch").total_s,
        "simulation.simulate_s": span("simulation.simulate").total_s,
        "baselines.search_s": search.total_s,
        "baselines.search_self_s": search.self_s,
        "simulation.mna.simulate_calls": mna.calls,
        "simulation.mna.simulate_ms": per(mna.total_s * 1000.0, mna.calls),
        "simulation.mna.invalid_results": counts.get("simulation.mna.invalid_results", 0),
        "corners.corner_results_s": sweep.total_s,
        "corners.lanes": lanes,
        "corners.lane_us": per(sweep.total_s * 1e6, lanes),
        "trace.wall_s": traced.wall_s,
        "trace.residual_s": traced.wall_s - sum(entry.self_s for entry in totals.values()),
        "trace.overhead_frac": traced.cost_per_op_s / untraced.cost_per_op_s - 1.0,
    }
    for name, _ in PER_LAYER:
        if name not in values:
            values[name] = traced.layers.get(name, 0.0)
    return {name: float(values[name]) for name, _ in PER_LAYER}
