"""From-scratch deep Q-learning for the real-time stage.

A plain float64 multilayer perceptron (rectifier hidden layers, identity
output) maps the six-component observation to one value per discrete
generator action; training is vanilla DQN: epsilon-greedy exploration, a
FIFO replay buffer, a periodically synced target network, and plain
stochastic-gradient updates on the squared TD error. Everything is driven
by one seeded generator, so a training run reproduces bit-identical weights.

The trained artifact is a JSON weight file (format version 2): the layer
sizes, weights and biases. Loading refuses, naming the file, any other
format version, arrays that do not form a network, and weights whose shapes
disagree with the declared layer sizes. The observation scales are module
constants, not part of the file.

The target network is frozen between syncs, so the replay buffer keeps each
slot's bootstrap value, max_a Q_target(next state), rather than running the
target network over every sampled batch. A push drops its slot's value and
a target sync drops every value. When a sampled slot has none,
`ReplayBuffer.sample` fills every filled slot that lacks one, through the
target network in chunks of 2 to `BATCH_SIZE` rows, so a fill keeps no more
activations alive than one training batch does. The rows of a batched
forward do not depend on which other rows share the batch once it has two
or more; a one-row product takes another BLAS path and can round
differently, so a lone pending slot is forwarded with a duplicate of
itself. The values are then those the target network gives a whole sampled
batch, and training is bit for bit the run that forwards every batch
(`tests/oracles.py` keeps that loop).

Training runs its matrix products on one BLAS thread. At batch 64 the
64x128x128 products lie above OpenBLAS's threading threshold, and handing
them to a second thread costs more than it saves. `train_agent` sets
numpy's OpenBLAS to one thread for the calling thread only, through its
`openblas_set_num_threads_local`, and restores the previous count when it
returns or raises. Where numpy links another BLAS, or its OpenBLAS lacks
that function, training runs at the library's default thread count and
gives the same results: the thread count changes how fast the products
run, not what they return.
"""

from __future__ import annotations

import ctypes
import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from microdispatch.domain import (
    HOURS_PER_DAY,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    advance_state,
    generator_setpoint,
    step_plant,
)

HIDDEN_LAYERS = (64, 128, 128, 64)
STATE_DIMENSION = 6
WEIGHT_FORMAT_VERSION = 2
#: denominators that scale the load and PV observations to about unit range
LOAD_SCALE_KW = 10000.0
PV_SCALE_KW = 15000.0
REPLAY_CAPACITY = 50_000
BATCH_SIZE = 64
DISCOUNT = 0.9
LEARNING_RATE = 0.001
TARGET_SYNC_INTERVAL = 500
EPSILON_START = 1.0
EPSILON_END = 0.05


@dataclass(frozen=True)
class DqnConfig:
    action_count: int = 40
    epsilon_decay_steps: int = 50_000
    episodes: int | None = None  # None: one pass over the training days
    seed: int = 0

    def __post_init__(self):
        if self.action_count < 2:
            raise ValueError("need at least two actions")
        for name in ("episodes", "epsilon_decay_steps"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"DqnConfig.{name} must be at least 0, got {value}")


class MlpNetwork:
    """Dense rectifier network; weights are float64 throughout.

    At least one layer, each a 2-D weight matrix and a 1-D bias whose shapes
    chain from one layer to the next; anything else is a ValueError.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if not weights:
            raise ValueError("the network has no layers")
        if len(biases) != len(weights):
            raise ValueError(f"{len(weights)} weight matrices but {len(biases)} "
                             f"bias vectors")
        if any(w.ndim != 2 for w in weights) or any(b.ndim != 1 for b in biases):
            raise ValueError("every weight must be a matrix and every bias a vector")
        self.weights = weights
        self.biases = biases
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("inconsistent layer shapes")
        for prev, nxt in zip(weights, weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("inconsistent layer chain")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @classmethod
    def initialize(cls, sizes, rng: np.random.Generator) -> "MlpNetwork":
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def copy(self) -> "MlpNetwork":
        return MlpNetwork([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases])

    def forward_batch(self, x: np.ndarray):
        """Activations per layer; the last entry is the linear output."""
        activations = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w
            z += b
            if i < len(self.weights) - 1:
                np.maximum(z, 0.0, out=z)
            activations.append(z)
        return activations

    def save(self, path) -> None:
        payload = {
            "format_version": WEIGHT_FORMAT_VERSION,
            "layer_sizes": self.layer_sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "MlpNetwork":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: weight file holds a JSON {type(payload).__name__}, "
                             f"not an object")
        if payload.get("format_version") != WEIGHT_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported weight format "
                             f"{payload.get('format_version')}")
        try:
            weights = [np.array(w, dtype=float) for w in payload["weights"]]
            biases = [np.array(b, dtype=float) for b in payload["biases"]]
            layer_sizes = payload["layer_sizes"]
        except KeyError as exc:
            raise ValueError(f"{path}: weight file has no {exc.args[0]!r} entry") from None
        except (TypeError, ValueError):
            # a ragged or non-numeric list
            raise ValueError(f"{path}: weights and biases must be lists of numeric "
                             f"arrays") from None
        try:
            network = cls(weights, biases)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if network.layer_sizes != layer_sizes:
            raise ValueError(f"{path}: weight shapes disagree with the declared layer sizes")
        return network


def forward(network: MlpNetwork, observation: np.ndarray) -> np.ndarray:
    """Action values for one observation vector."""
    observation = np.asarray(observation, dtype=float)
    if observation.shape != (network.layer_sizes[0],):
        raise ValueError(f"expected a {network.layer_sizes[0]}-vector, "
                         f"got shape {observation.shape}")
    return network.forward_batch(observation[None, :])[-1][0]


def encode_state(state: MicrogridState, load_kw: float, pv_kw: float,
                 config: MicrogridConfig) -> np.ndarray:
    """Six observations scaled to the unit range by fixed denominators."""
    return np.array([
        state.hour_of_day / (HOURS_PER_DAY - 1),
        load_kw / LOAD_SCALE_KW,
        pv_kw / PV_SCALE_KW,
        state.soc_kwh / config.ess_energy_max,
        state.soc_midnight_kwh / config.ess_energy_max,
        state.dg_prev_kw / config.dg_power_max,
    ])


def action_power(index: int, config: MicrogridConfig) -> float:
    """The generator request of a discrete action, in kW, before any clamp.

    Action 0 requests the generator off; the rest span the stable power
    range affinely. `generator_setpoint` clamps the request into the
    current ramp window.
    """
    if not (0 <= index < config.drl_action_count):
        raise ValueError(f"action index {index} outside 0..{config.drl_action_count - 1}")
    if index == 0:
        return 0.0
    span = config.dg_power_max - config.dg_power_min
    return config.dg_power_min + (index - 1) / (config.drl_action_count - 2) * span


def reward(step_cost: float, blackout: bool, config: MicrogridConfig) -> float:
    """Weighted penalty on operating cost with a flat hit per blackout hour."""
    return (-config.drl_cost_weight * step_cost
            - config.drl_blackout_weight * (1.0 if blackout else 0.0))


def train_step(network: MlpNetwork,
               batch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
               target_bound: float) -> float:
    """One SGD step on the squared TD error of a batch; returns the loss.

    `batch` is `(states, actions, rewards, next_values)`, one row per
    transition; `next_values` holds max_a Q_target(next state), which
    `ReplayBuffer.sample` supplies. Every target bootstraps through it: the
    plant has no terminal state. Any TD target outside +-`target_bound`
    (the geometric envelope max|reward|/(1-discount) in training) aborts
    training as divergence. The network is updated in place.
    """
    states, actions, rewards, next_values = batch
    if len(actions) == 0:
        raise ValueError("empty batch")

    targets = rewards + DISCOUNT * next_values
    if np.abs(targets).max() > target_bound:
        raise FloatingPointError(
            f"TD target escaped the reward envelope +-{target_bound:.1f}; "
            f"training diverged")

    activations = network.forward_batch(states)
    q = activations[-1]
    rows = np.arange(len(actions))
    diff = q[rows, actions] - targets
    loss = float(np.mean(diff ** 2))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite TD loss; training diverged")

    # backpropagate d(loss)/d(output) through the rectifier stack; the
    # gradients are scaled and subtracted in place, with each element
    # rounded as in `w -= lr * grad`
    delta = np.zeros_like(q)
    delta[rows, actions] = 2.0 * diff / len(actions)
    for layer in range(len(network.weights) - 1, -1, -1):
        grad_w = activations[layer].T @ delta
        grad_b = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ network.weights[layer].T
            delta *= activations[layer] > 0.0
        grad_w *= LEARNING_RATE
        network.weights[layer] -= grad_w
        grad_b *= LEARNING_RATE
        network.biases[layer] -= grad_b
    return loss


class ReplayBuffer:
    """FIFO replay in preallocated arrays: slot i holds push i mod capacity.

    The buffer owns the target network, which starts as a copy of the
    network it is made for and changes only through `sync_target`, and the
    slots' bootstrap values under it (see the module docstring). The arrays
    are left uninitialised, so memory is touched only as rows are written.
    """

    def __init__(self, capacity: int, network: MlpNetwork):
        dimension = network.layer_sizes[0]
        self.capacity = capacity
        self.states = np.empty((capacity, dimension))
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, dimension))
        #: max_a Q_target(next_states[i]), meaningful where `valued[i]`
        self.next_values = np.empty(capacity)
        self.valued = np.zeros(capacity, dtype=bool)
        self.pushes = 0
        self.sync_target(network)

    def sync_target(self, network: MlpNetwork) -> None:
        """Freeze a copy of `network` as the target network; every slot's
        value is dropped."""
        self.target = network.copy()
        self.valued[:len(self)] = False

    def push(self, state: np.ndarray, action: int, reward: float,
             next_state: np.ndarray) -> None:
        i = self.pushes % self.capacity
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.valued[i] = False
        self.pushes += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """`(states, actions, rewards, next_values)` of `batch_size` rows
        drawn uniformly, with replacement, from the filled slots."""
        idx = rng.integers(0, len(self), size=batch_size)
        if not self.valued[idx].all():
            self._fill_values()
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_values[idx]

    def _fill_values(self) -> None:
        """Value every filled slot that has no value, at most `BATCH_SIZE`
        rows and never one row per forward."""
        pending = np.flatnonzero(~self.valued[:len(self)])
        if len(pending) == 1:
            pending = np.repeat(pending, 2)
        for chunk in np.array_split(pending, -(-len(pending) // BATCH_SIZE)):
            q = self.target.forward_batch(self.next_states[chunk])[-1]
            self.next_values[chunk] = q.max(axis=1)
        self.valued[pending] = True

    def __len__(self):
        return min(self.pushes, self.capacity)


class TrainingEnvironment:
    """Hourly plant loop over training days with the commitment protocol.

    The commitment is solved once from the planning SOC and reused for every
    day (the scenario set never changes during training). Battery and
    generator state carry across episode boundaries; episodes only delimit
    reward accounting, one day each.
    """

    def __init__(self, days, tariff, config: MicrogridConfig, commitment):
        if len(days) == 0:
            raise ValueError("empty training dataset")
        self.days = days
        self.tariff = tariff
        self.config = config
        self.commitment = commitment
        soc0 = config.ess_energy_end
        self.state = MicrogridState(hour_of_day=0, soc_kwh=soc0, soc_midnight_kwh=soc0)
        self.day_index = 0

    def observe(self) -> np.ndarray:
        day = self.days[self.day_index % len(self.days)]
        h = self.state.hour_of_day
        return encode_state(self.state, float(day.load_kw[h]), float(day.pv_kw[h]),
                            self.config)

    def reward_magnitude_bound(self) -> float:
        """Loose per-hour bound on |reward| for divergence detection."""
        cfg = self.config
        worst_cost = (cfg.dg_unit_cost * cfg.dg_power_max
                      + max(self.tariff.hourly_price) * cfg.grid_power_cap
                      + cfg.ess_unit_cost * 2 * cfg.ess_power_cap
                      + cfg.reserve_revenue * 2 * cfg.ess_power_cap)
        return cfg.drl_cost_weight * worst_cost + cfg.drl_blackout_weight

    def step(self, action_index: int):
        """Apply one action; returns (transition-ingredients, day_finished)."""
        day = self.days[self.day_index % len(self.days)]
        h = self.state.hour_of_day
        load = float(day.load_kw[h])
        pv = float(day.pv_kw[h])
        committed = self.commitment.hour(h)

        setpoint = generator_setpoint(self.state, action_power(action_index, self.config),
                                      load, pv, committed, self.config, False)
        outcome = step_plant(self.state, setpoint, committed, load, pv,
                             self.tariff.price(h), self.config)
        step_reward = reward(outcome.step_cost, outcome.blackout, self.config)
        self.state = advance_state(self.state, outcome)
        day_finished = self.state.hour_of_day == 0
        if day_finished:
            self.day_index += 1
        return step_reward, day_finished


def train_agent(environment: TrainingEnvironment,
                config: DqnConfig) -> tuple[MlpNetwork, list[float]]:
    """Run DQN over day-long episodes; returns the network and reward curve.

    The loop runs on one BLAS thread where numpy's OpenBLAS allows it, with
    the same results either way (see the module docstring).
    """
    if config.action_count != environment.config.drl_action_count:
        raise ValueError(f"DqnConfig.action_count {config.action_count} differs from "
                         f"MicrogridConfig.drl_action_count "
                         f"{environment.config.drl_action_count}")
    rng = np.random.default_rng(config.seed)
    sizes = [STATE_DIMENSION, *HIDDEN_LAYERS, config.action_count]
    network = MlpNetwork.initialize(sizes, rng)
    replay = ReplayBuffer(REPLAY_CAPACITY, network)

    episodes = config.episodes
    if episodes is None:
        episodes = len(environment.days)

    curve: list[float] = []
    step_count = 0
    divergence_bound = environment.reward_magnitude_bound() / (1.0 - DISCOUNT)
    obs = environment.observe()
    with _one_blas_thread():
        for _ in range(episodes):
            episode_reward = 0.0
            day_finished = False
            while not day_finished:
                epsilon = _epsilon(step_count, config)
                if rng.random() < epsilon:
                    action = int(rng.integers(config.action_count))
                else:
                    action = int(np.argmax(forward(network, obs)))
                step_reward, day_finished = environment.step(action)
                episode_reward += step_reward
                # day boundaries delimit reward accounting only: the battery and
                # generator carry over, so the value function must bootstrap
                # straight through midnight
                next_obs = environment.observe()
                replay.push(obs, action, step_reward, next_obs)
                obs = next_obs
                step_count += 1
                if len(replay) >= BATCH_SIZE:
                    train_step(network, replay.sample(BATCH_SIZE, rng), divergence_bound)
                if step_count % TARGET_SYNC_INTERVAL == 0:
                    replay.sync_target(network)
            curve.append(episode_reward)
    return network, curve


@functools.cache
def _numpy_openblas():
    """numpy's own OpenBLAS, the copy that runs `@`, or None where numpy
    links another BLAS or its OpenBLAS lacks
    `openblas_set_num_threads_local`; looked up on first use."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            library = ctypes.CDLL(str(path))
            setter = library.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return library
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread. The count is set for
    the calling thread only, and the setter returns the previous count."""
    library = _numpy_openblas()
    if library is None:
        yield
        return
    previous = library.openblas_set_num_threads_local(1)
    try:
        yield
    finally:
        library.openblas_set_num_threads_local(previous)


def _epsilon(step: int, config: DqnConfig) -> float:
    if config.epsilon_decay_steps <= 0:
        return EPSILON_END
    frac = min(1.0, step / config.epsilon_decay_steps)
    return EPSILON_START + frac * (EPSILON_END - EPSILON_START)


class DrlController:
    """Greedy policy rollout: the network picks the generator power, the
    battery absorbs the balance residual."""

    kind = "drl"

    def __init__(self, network: MlpNetwork):
        self.network = network

    def decide(self, state: MicrogridState, day, commitment, tariff,
               config: MicrogridConfig) -> DispatchSetpoint:
        h = state.hour_of_day
        load = float(day.load_kw[h])
        pv = float(day.pv_kw[h])
        committed = commitment.hour(h)
        obs = encode_state(state, load, pv, config)
        action = int(np.argmax(forward(self.network, obs)))  # lowest index wins ties
        return generator_setpoint(state, action_power(action, config), load, pv,
                                  committed, config, False)
