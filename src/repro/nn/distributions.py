"""Probability distributions for the discrete sizing action space.

The paper uses a discrete action space in which every tunable device
parameter is either increased by one step, kept, or decreased by one step at
each time step.  The policy head therefore outputs an ``M x 3`` matrix of
logits (``M`` = number of tunable parameters), interpreted row-wise as
independent categorical distributions.  :class:`MultiCategorical` wraps that
matrix and provides sampling, log-probabilities and entropy — all the
quantities PPO needs (Eq. 3).  Entropies take ``p`` as the ``exp`` of the
graph's log-probabilities, never a detached copy, so the entropy bonus has a
gradient.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def sample_from_probs(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling over the last axis of ``probs``.

    One draw block of shape ``probs.shape[:-1] + (1,)`` is consumed from
    ``rng``.  This is the single sampling implementation behind
    :class:`MultiCategorical`, :class:`BatchedMultiCategorical`, and the
    policy's grad-free ``select_action`` fast paths — sharing it is what
    keeps their "same draws from the same rng" parity contract safe against
    drift.
    """
    cumulative = probs.cumsum(axis=-1)
    draws = rng.random(size=probs.shape[:-1] + (1,))
    if probs.shape[-1] <= 1:
        return np.zeros(probs.shape[:-1], dtype=np.int64)
    return (draws > cumulative[..., :-1]).sum(axis=-1).astype(np.int64)


class Categorical:
    """Single categorical distribution over ``K`` classes from logits."""

    def __init__(self, logits: Tensor) -> None:
        if logits.ndim != 1:
            raise ValueError(f"Categorical expects 1-D logits, got shape {logits.shape}")
        self.logits = logits
        self._log_probs = logits.log_softmax(axis=-1)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self._log_probs.data)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.probs), p=self.probs))

    def log_prob(self, action: int) -> Tensor:
        return self._log_probs[int(action)]

    def entropy(self) -> Tensor:
        return -(self._log_probs.exp() * self._log_probs).sum()

    def mode(self) -> int:
        return int(np.argmax(self.probs))


class MultiCategorical:
    """Independent categorical distribution per device parameter.

    Parameters
    ----------
    logits:
        ``(M, K)`` tensor of unnormalized log-probabilities; in this project
        ``K = 3`` (decrease / keep / increase).
    """

    def __init__(self, logits: Tensor) -> None:
        if logits.ndim != 2:
            raise ValueError(f"MultiCategorical expects 2-D logits, got shape {logits.shape}")
        self.logits = logits
        self._log_probs = logits.log_softmax(axis=-1)

    @property
    def num_parameters(self) -> int:
        return self.logits.shape[0]

    @property
    def num_choices(self) -> int:
        return self.logits.shape[1]

    @property
    def probs(self) -> np.ndarray:
        """Row-stochastic ``(M, K)`` probability matrix (detached)."""
        return np.exp(self._log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one choice index per parameter; returns an ``(M,)`` int array."""
        return sample_from_probs(self.probs, rng)

    def mode(self) -> np.ndarray:
        """Greedy (most likely) choice per parameter."""
        return np.argmax(self.probs, axis=1).astype(np.int64)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Joint log-probability of a full action vector (sum over rows)."""
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.num_parameters,):
            raise ValueError(
                f"actions must have shape ({self.num_parameters},), got {actions.shape}"
            )
        if np.any(actions < 0) or np.any(actions >= self.num_choices):
            raise ValueError("action index out of range")
        rows = np.arange(self.num_parameters)
        return self._log_probs[rows, actions].sum()

    def entropy(self) -> Tensor:
        """Total entropy (sum of per-parameter entropies)."""
        return -(self._log_probs.exp() * self._log_probs).sum()

    def kl_divergence(self, other: "MultiCategorical") -> float:
        """KL(self || other), summed over parameters (detached diagnostic)."""
        p = self.probs
        log_p = self._log_probs.data
        log_q = other._log_probs.data
        return float((p * (log_p - log_q)).sum())


class BatchedMultiCategorical:
    """A batch of :class:`MultiCategorical` distributions, one per environment.

    Wraps ``(B, M, K)`` logits — the output of the policy's batched forward
    pass over a :class:`~repro.env.spaces.BatchedObservation` — and performs
    sampling, log-probabilities and entropies for the whole batch with single
    array operations, instead of one Python-level distribution per
    environment.
    """

    def __init__(self, logits: Tensor) -> None:
        if logits.ndim != 3:
            raise ValueError(
                f"BatchedMultiCategorical expects (B, M, K) logits, got shape {logits.shape}"
            )
        self.logits = logits
        self._log_probs = logits.log_softmax(axis=-1)

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.logits.shape[1]

    @property
    def num_choices(self) -> int:
        return self.logits.shape[2]

    @property
    def probs(self) -> np.ndarray:
        """Row-stochastic ``(B, M, K)`` probability tensor (detached)."""
        return np.exp(self._log_probs.data)

    def __getitem__(self, index: int) -> MultiCategorical:
        """Per-environment distribution (shares the batched graph's logits)."""
        return MultiCategorical(self.logits[index])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One ``(B, M)`` action matrix via inverse-CDF sampling."""
        return sample_from_probs(self.probs, rng)

    def mode(self) -> np.ndarray:
        """Greedy ``(B, M)`` action matrix."""
        return np.argmax(self.probs, axis=-1).astype(np.int64)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Per-environment joint log-probabilities, shape ``(B,)``."""
        actions = np.asarray(actions, dtype=np.int64)
        expected = (self.batch_size, self.num_parameters)
        if actions.shape != expected:
            raise ValueError(f"actions must have shape {expected}, got {actions.shape}")
        if np.any(actions < 0) or np.any(actions >= self.num_choices):
            raise ValueError("action index out of range")
        batch_index = np.arange(self.batch_size)[:, None]
        param_index = np.arange(self.num_parameters)[None, :]
        return self._log_probs[batch_index, param_index, actions].sum(axis=-1)

    def entropy(self) -> Tensor:
        """Per-environment total entropies, shape ``(B,)``."""
        return -(self._log_probs.exp() * self._log_probs).sum(axis=(-2, -1))
