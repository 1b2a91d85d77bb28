"""Tests for the categorical action distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.distributions import BatchedMultiCategorical, Categorical, MultiCategorical
from repro.nn.tensor import Tensor


class TestCategorical:
    def test_probs_and_mode(self):
        dist = Categorical(Tensor(np.array([0.0, 2.0, -1.0])))
        assert abs(dist.probs.sum() - 1.0) < 1e-12
        assert dist.mode() == 1

    def test_log_prob_matches_probs(self):
        dist = Categorical(Tensor(np.array([0.5, 1.0, -2.0])))
        for k in range(3):
            assert float(dist.log_prob(k).item()) == pytest.approx(np.log(dist.probs[k]))

    def test_entropy_uniform_is_log_k(self):
        dist = Categorical(Tensor(np.zeros(4)))
        assert float(dist.entropy().item()) == pytest.approx(np.log(4.0))

    def test_rejects_2d_logits(self):
        with pytest.raises(ValueError):
            Categorical(Tensor(np.zeros((2, 3))))


class TestMultiCategorical:
    def test_shape_properties(self):
        dist = MultiCategorical(Tensor(np.zeros((5, 3))))
        assert dist.num_parameters == 5
        assert dist.num_choices == 3
        assert dist.probs.shape == (5, 3)
        np.testing.assert_allclose(dist.probs.sum(axis=1), np.ones(5))

    def test_log_prob_is_sum_of_rows(self):
        logits = np.random.default_rng(0).normal(size=(4, 3))
        dist = MultiCategorical(Tensor(logits))
        action = np.array([0, 2, 1, 1])
        expected = sum(np.log(dist.probs[i, a]) for i, a in enumerate(action))
        assert float(dist.log_prob(action).item()) == pytest.approx(expected)

    def test_log_prob_validates_action(self):
        dist = MultiCategorical(Tensor(np.zeros((3, 3))))
        with pytest.raises(ValueError):
            dist.log_prob(np.array([0, 1]))
        with pytest.raises(ValueError):
            dist.log_prob(np.array([0, 1, 5]))

    def test_mode_picks_argmax(self):
        logits = np.array([[0.0, 5.0, 0.0], [9.0, 0.0, 0.0]])
        np.testing.assert_array_equal(MultiCategorical(Tensor(logits)).mode(), [1, 0])

    def test_sampling_frequencies_follow_probabilities(self):
        rng = np.random.default_rng(0)
        logits = np.array([[2.0, 0.0, -2.0]])
        dist = MultiCategorical(Tensor(logits))
        samples = np.array([dist.sample(rng)[0] for _ in range(4000)])
        empirical = np.bincount(samples, minlength=3) / samples.size
        np.testing.assert_allclose(empirical, dist.probs[0], atol=0.03)

    def test_entropy_bounds(self):
        uniform = MultiCategorical(Tensor(np.zeros((6, 3))))
        assert float(uniform.entropy().item()) == pytest.approx(6 * np.log(3.0))
        peaked = MultiCategorical(Tensor(np.array([[100.0, 0.0, 0.0]] * 6)))
        assert float(peaked.entropy().item()) == pytest.approx(0.0, abs=1e-6)

    def test_kl_divergence_zero_for_identical(self):
        logits = np.random.default_rng(1).normal(size=(4, 3))
        a = MultiCategorical(Tensor(logits))
        b = MultiCategorical(Tensor(logits.copy()))
        assert a.kl_divergence(b) == pytest.approx(0.0, abs=1e-12)

    def test_kl_divergence_positive_for_different(self):
        a = MultiCategorical(Tensor(np.array([[1.0, 0.0, -1.0]])))
        b = MultiCategorical(Tensor(np.array([[-1.0, 0.0, 1.0]])))
        assert a.kl_divergence(b) > 0.0

    def test_log_prob_gradient_flows_to_logits(self):
        logits = Tensor(np.zeros((3, 3)), requires_grad=True)
        dist = MultiCategorical(logits)
        dist.log_prob(np.array([0, 1, 2])).backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0.0)

    def test_rejects_1d_logits(self):
        with pytest.raises(ValueError):
            MultiCategorical(Tensor(np.zeros(3)))


class TestEntropyGradient:
    """The entropy bonus must reach the logits: autograd matches finite differences."""

    @staticmethod
    def _check(distribution_class, logits, weights):
        def objective(values: np.ndarray) -> float:
            return float((distribution_class(Tensor(values)).entropy() * weights).sum().item())

        tensor = Tensor(logits, requires_grad=True)
        (distribution_class(tensor).entropy() * weights).sum().backward()
        step = 1e-6
        numeric = np.zeros_like(logits)
        for index in np.ndindex(logits.shape):
            up, down = logits.copy(), logits.copy()
            up[index] += step
            down[index] -= step
            numeric[index] = (objective(up) - objective(down)) / (2.0 * step)
        assert np.linalg.norm(numeric) > 0.1
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_categorical(self):
        logits = np.random.default_rng(0).normal(size=4)
        self._check(Categorical, logits, 1.0)

    def test_multi_categorical(self):
        logits = np.random.default_rng(1).normal(size=(4, 3))
        self._check(MultiCategorical, logits, 1.0)

    def test_batched_multi_categorical(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4, 3))
        # Distinct per-row weights so each batch row's gradient is checked.
        self._check(BatchedMultiCategorical, logits, rng.normal(size=3))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_sampled_actions_always_valid(rows, seed):
    """Sampled action indices are always within [0, num_choices)."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(rows, 3))
    dist = MultiCategorical(Tensor(logits))
    action = dist.sample(rng)
    assert action.shape == (rows,)
    assert np.all((action >= 0) & (action < 3))
    # And log_prob of the sampled action is finite.
    assert np.isfinite(float(dist.log_prob(action).item()))
