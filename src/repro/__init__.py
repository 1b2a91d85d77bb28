"""repro — domain knowledge-infused RL for analog/RF circuit sizing.

A from-scratch reproduction of "Domain Knowledge-Infused Deep Learning for
Automated Analog/Radio-Frequency Circuit Parameter Optimization" (DAC 2022).

Quickstart (the :mod:`repro.api` front door)
--------------------------------------------
>>> import repro
>>> env = repro.make_env("opamp-p2s-v0", seed=0)
>>> optimizer = repro.make_optimizer("bayesian")
>>> result = optimizer.optimize(env, budget=60, seed=0)
>>> result.success, result.num_simulations          # doctest: +SKIP

Discovery: :func:`repro.list_envs`, :func:`repro.list_policies`,
:func:`repro.list_optimizers`.  Serializable runs: :class:`repro.RunConfig`.

Package map
-----------
``repro.api``         string-ID registry, Optimizer protocol, run configs
``repro.nn``          numpy autograd, dense/graph layers, Adam, distributions
``repro.circuits``    devices, netlists, design spaces, spec spaces, benchmarks
``repro.graph``       circuit-topology graphs and node features
``repro.simulation``  technology models, MNA mini-SPICE, op-amp / PA evaluators
``repro.env``         the P2S / FoM circuit design environment
``repro.parallel``    vectorized env batches and simulation caching
``repro.orchestrate`` process-parallel sweeps, artifact store, resumable runs
``repro.agents``      GNN-FC multimodal policy, PPO, deployment, checkpoints
``repro.serve``       micro-batched deployment service over checkpoints
``repro.surrogate``   learned simulation tier with trust-gated exact fallback
``repro.baselines``   genetic algorithm, Bayesian optimization, SL sizer
``repro.experiments`` harnesses regenerating every paper table and figure
"""

from repro.api import (
    EnvConfig,
    OptimizationCallback,
    OptimizationResult,
    Optimizer,
    OptimizerConfig,
    RunConfig,
    UnknownComponentError,
    describe_components,
    list_envs,
    list_optimizers,
    list_policies,
    make_env,
    make_optimizer,
    make_policy,
    register_env,
    register_optimizer,
    register_policy,
    seed_everything,
)

from repro.agents import (
    CheckpointError,
    PolicyCheckpoint,
    PPOConfig,
    PPOTrainer,
    deploy_policy,
    deploy_policy_batch,
    evaluate_deployment,
    load_checkpoint,
    save_checkpoint,
)
from repro.circuits import (
    build_common_source_lna,
    build_current_mirror_ota,
    build_folded_cascode,
    build_rf_pa,
    build_two_stage_opamp,
)
from repro.nn import inference_mode
from repro.orchestrate import ArtifactStore, SweepConfig, SweepResult, run_sweep
from repro.parallel import DiskSimulationCache, SimulationCache, VectorCircuitEnv
from repro.serve import DeploymentService, Gateway, ServeRequest, ServeResponse
from repro.surrogate import (
    SpecSurrogate,
    SurrogatePrescreener,
    TieredSimulator,
    harvest_corpus,
    load_surrogate,
    save_surrogate,
    train_surrogate,
)

__version__ = "1.5.0"

__all__ = [
    "ArtifactStore",
    "CheckpointError",
    "DeploymentService",
    "DiskSimulationCache",
    "EnvConfig",
    "Gateway",
    "OptimizationCallback",
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
    "PPOConfig",
    "PPOTrainer",
    "PolicyCheckpoint",
    "RunConfig",
    "ServeRequest",
    "ServeResponse",
    "SimulationCache",
    "SpecSurrogate",
    "SurrogatePrescreener",
    "SweepConfig",
    "SweepResult",
    "TieredSimulator",
    "UnknownComponentError",
    "VectorCircuitEnv",
    "__version__",
    "build_common_source_lna",
    "build_current_mirror_ota",
    "build_folded_cascode",
    "build_rf_pa",
    "build_two_stage_opamp",
    "deploy_policy",
    "deploy_policy_batch",
    "describe_components",
    "evaluate_deployment",
    "harvest_corpus",
    "inference_mode",
    "list_envs",
    "load_checkpoint",
    "load_surrogate",
    "list_optimizers",
    "list_policies",
    "make_env",
    "make_optimizer",
    "make_policy",
    "register_env",
    "register_optimizer",
    "register_policy",
    "run_sweep",
    "save_checkpoint",
    "save_surrogate",
    "seed_everything",
    "train_surrogate",
]
