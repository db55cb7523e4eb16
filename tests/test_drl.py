import ctypes
import hashlib
import json
from contextlib import contextmanager

import numpy as np
import pytest

import microdispatch.drl as drl
from oracles import reference_train_agent

from microdispatch.domain import (
    Commitment,
    MicrogridConfig,
    MicrogridState,
    DayProfile,
    TariffSchedule,
    generator_setpoint,
)
from microdispatch.drl import (
    LEARNING_RATE,
    LOAD_SCALE_KW,
    PV_SCALE_KW,
    DqnConfig,
    DrlController,
    MlpNetwork,
    ReplayBuffer,
    TrainingEnvironment,
    action_power,
    encode_state,
    forward,
    reward,
    train_agent,
    train_step,
)

CFG = MicrogridConfig()


def make_state(hour=0, soc=12500.0, soc0=None, dg_prev=0.0):
    return MicrogridState(hour_of_day=hour, soc_kwh=soc,
                          soc_midnight_kwh=soc if soc0 is None else soc0,
                          dg_prev_kw=dg_prev)


class TestEncodeState:
    def test_boundary_encoding(self):
        state = make_state(hour=0, soc=CFG.ess_energy_max, soc0=CFG.ess_energy_max)
        vec = encode_state(state, 0.0, 0.0, CFG)
        assert np.allclose(vec, [0, 0, 0, 1, 1, 0])

    def test_last_hour_component(self):
        state = make_state(hour=23, soc=CFG.ess_energy_min)
        assert encode_state(state, 0.0, 0.0, CFG)[0] == 1.0

    def test_round_trip_through_denominators(self):
        state = make_state(hour=13, soc=18231.5, soc0=9000.25, dg_prev=5421.0)
        vec = encode_state(state, 8123.0, 4201.0, CFG)
        assert vec[1] * LOAD_SCALE_KW == pytest.approx(8123.0, rel=1e-12)
        assert vec[2] * PV_SCALE_KW == pytest.approx(4201.0, rel=1e-12)
        assert vec[3] * CFG.ess_energy_max == pytest.approx(18231.5, rel=1e-12)
        assert vec[4] * CFG.ess_energy_max == pytest.approx(9000.25, rel=1e-12)
        assert vec[5] * CFG.dg_power_max == pytest.approx(5421.0, rel=1e-12)


def action_setpoint(index, state):
    """The setpoint the DRL controller makes of action `index`."""
    return generator_setpoint(state, action_power(index, CFG), 6000.0, 0.0,
                              Commitment.zero().hour(state.hour_of_day), CFG, False)


class TestActionMap:
    def test_action_zero_is_off_with_stop_flag(self):
        sp = action_setpoint(0, make_state(dg_prev=3000.0))
        assert sp.dg_kw == 0.0 and sp.dg_stop
        sp = action_setpoint(0, make_state())
        assert sp.dg_kw == 0.0 and not sp.dg_stop

    def test_top_action_reaches_nameplate_when_running_near_it(self):
        sp = action_setpoint(39, make_state(dg_prev=11000.0))
        assert sp.dg_kw == pytest.approx(CFG.dg_power_max)

    def test_affine_grid_and_startup_clamp(self):
        # action 20 maps to 6000 kW; mid-run it applies exactly
        sp = action_setpoint(20, make_state(dg_prev=6000.0))
        assert sp.dg_kw == pytest.approx(6000.0)
        # from standstill the same request clamps to the startup ramp
        sp = action_setpoint(20, make_state())
        assert sp.dg_kw == pytest.approx(CFG.dg_startup_ramp)
        assert not sp.dg_stop  # a start needs no flag

    def test_out_of_range_action_rejected(self):
        with pytest.raises(ValueError):
            action_power(40, CFG)


class TestReward:
    def test_zero_cost_no_blackout(self):
        assert reward(0.0, False, CFG) == 0.0

    def test_cost_weighting(self):
        assert reward(650.0, False, CFG) == pytest.approx(-0.65, abs=0.0)

    def test_blackout_penalty(self):
        assert reward(650.0, True, CFG) == pytest.approx(-100.65, abs=0.0)

    def test_exactness_for_rational_inputs(self):
        # the weighted sum must match a symbolic evaluation to the last ulp
        from fractions import Fraction
        for cost in (0.0, 125.0, 650.0, 1039.5):
            for blackout in (False, True):
                exact = -Fraction(1, 1000) * Fraction(cost) - 100 * int(blackout)
                assert reward(cost, blackout, CFG) == float(exact)


class TestForward:
    def test_zero_weights_zero_output(self):
        sizes = [6, 4, 40]
        net = MlpNetwork([np.zeros((6, 4)), np.zeros((4, 40))],
                         [np.zeros(4), np.zeros(40)])
        out = forward(net, np.ones(6))
        assert out.shape == (40,)
        assert np.all(out == 0.0)

    def test_hand_computed_two_layer(self):
        # single path: x -> relu(2x - 1) -> 3a + 0.5
        net = MlpNetwork([np.array([[2.0]]), np.array([[3.0]])],
                         [np.array([-1.0]), np.array([0.5])])
        assert forward(net, np.array([2.0]))[0] == pytest.approx(3 * 3 + 0.5)
        assert forward(net, np.array([0.0]))[0] == pytest.approx(0.5)  # relu clips

    def test_paper_configuration_output_width(self):
        rng = np.random.default_rng(0)
        net = MlpNetwork.initialize([6, 64, 128, 128, 64, 40], rng)
        assert forward(net, np.zeros(6)).shape == (40,)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        net = MlpNetwork.initialize([6, 8, 4], rng)
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))


def zero_network(sizes):
    """All weights and biases zero: every action value is 0."""
    return MlpNetwork([np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])],
                      [np.zeros(b) for b in sizes[1:]])


def bootstrapped(target, batch):
    """`batch` with its next states replaced by their target values, as
    `ReplayBuffer.sample` hands them to `train_step`."""
    states, actions, rewards, next_states = batch
    return states, actions, rewards, target.forward_batch(next_states)[-1].max(axis=1)


def loss_oracle(network, target_net, batch, discount):
    """Straight-line TD loss recomputation, one row at a time, no shared code
    with train_step."""
    states, actions, rewards, next_states = batch
    total = 0.0
    for state, action, r, next_state in zip(states, actions, rewards, next_states):
        a = state.copy()
        for i, (w, b) in enumerate(zip(network.weights, network.biases)):
            a = a @ w + b
            if i < len(network.weights) - 1:
                a = np.maximum(a, 0.0)
        n = next_state.copy()
        for i, (w, b) in enumerate(zip(target_net.weights, target_net.biases)):
            n = n @ w + b
            if i < len(target_net.weights) - 1:
                n = np.maximum(n, 0.0)
        total += (a[action] - (r + discount * n.max())) ** 2
    return total / len(actions)


class TestTrainStep:
    def random_batch(self, rng, in_dim, n_actions, size=8):
        return (rng.normal(size=(size, in_dim)), rng.integers(n_actions, size=size),
                rng.normal(size=size), rng.normal(size=(size, in_dim)))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(77)
        eps = 1e-5
        worst = 0.0
        for trial in range(10):
            sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                     int(rng.integers(2, 5))]
            net = MlpNetwork.initialize(sizes, rng)
            target = MlpNetwork.initialize(sizes, rng)
            batch = self.random_batch(rng, sizes[0], sizes[-1])
            before = [w.copy() for w in net.weights]
            bias_before = [b.copy() for b in net.biases]
            train_step(net, bootstrapped(target, batch), np.inf)
            # the update is the gradient times the learning rate
            grads_w = [(b - a) / LEARNING_RATE for b, a in zip(before, net.weights)]
            grads_b = [(b - a) / LEARNING_RATE for b, a in zip(bias_before, net.biases)]
            probe = MlpNetwork([w.copy() for w in before],
                               [b.copy() for b in bias_before])
            for layer in range(len(sizes) - 1):
                w_shape = probe.weights[layer].shape
                for _ in range(6):
                    i = int(rng.integers(w_shape[0]))
                    j = int(rng.integers(w_shape[1]))
                    probe.weights[layer][i, j] += eps
                    hi = loss_oracle(probe, target, batch, 0.9)
                    probe.weights[layer][i, j] -= 2 * eps
                    lo = loss_oracle(probe, target, batch, 0.9)
                    probe.weights[layer][i, j] += eps
                    fd = (hi - lo) / (2 * eps)
                    bp = grads_w[layer][i, j]
                    if abs(fd) > 1e-8 or abs(bp) > 1e-8:
                        rel = abs(bp - fd) / max(abs(fd), abs(bp), 1e-8)
                        worst = max(worst, rel)
                k = int(rng.integers(len(probe.biases[layer])))
                probe.biases[layer][k] += eps
                hi = loss_oracle(probe, target, batch, 0.9)
                probe.biases[layer][k] -= 2 * eps
                lo = loss_oracle(probe, target, batch, 0.9)
                probe.biases[layer][k] += eps
                fd = (hi - lo) / (2 * eps)
                bp = grads_b[layer][k]
                if abs(fd) > 1e-8 or abs(bp) > 1e-8:
                    worst = max(worst, abs(bp - fd) / max(abs(fd), abs(bp), 1e-8))
        assert worst < 1e-4

    def test_zero_target_network_makes_targets_the_rewards(self):
        rng = np.random.default_rng(5)
        sizes = [3, 4, 2]
        net = MlpNetwork.initialize(sizes, rng)
        batch = self.random_batch(rng, 3, 2, size=4)
        states, actions, rewards, _ = batch
        expected = np.mean([(forward(net, s)[a] - r) ** 2
                            for s, a, r in zip(states, actions, rewards)])
        loss = train_step(net, bootstrapped(zero_network(sizes), batch), np.inf)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_single_parameter_closed_form(self):
        # q = w*x, one action, targets equal to r: dL/dw = 2*(w*x - r)*x
        w0, x, r = 1.5, 2.0, 0.25
        net = MlpNetwork([np.array([[w0]])], [np.array([0.0])])
        batch = (np.array([[x]]), np.array([0]), np.array([r]), np.array([[x]]))
        train_step(net, bootstrapped(zero_network([1, 1]), batch), np.inf)
        expected = w0 - LEARNING_RATE * 2 * (w0 * x - r) * x
        assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_divergence_detection(self):
        rng = np.random.default_rng(6)
        net = MlpNetwork.initialize([2, 3, 2], rng)
        target = net.copy()
        batch = (np.array([[0.5, 0.5]]), np.array([0]), np.array([-1e9]),
                 np.array([[0.5, 0.5]]))
        with pytest.raises(FloatingPointError):
            train_step(net, bootstrapped(target, batch), target_bound=100.0)


def doubling_network():
    """One input, two actions valued x and 2x: a next state x >= 0 is worth 2x."""
    return MlpNetwork([np.array([[1.0, 2.0]])], [np.zeros(2)])


@contextmanager
def recorded_forwards():
    """The (network, rows) of every `forward_batch` call inside the block."""
    calls = []
    inner = MlpNetwork.forward_batch

    def recording(self, x):
        calls.append((self, len(x)))
        return inner(self, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MlpNetwork, "forward_batch", recording)
        yield calls


class TestReplayBuffer:
    def test_wrap_around_keeps_fifo_slots(self):
        replay = ReplayBuffer(capacity=3, network=MlpNetwork.initialize(
            [2, 3], np.random.default_rng(0)))
        for push in range(5):
            replay.push(np.full(2, push), push, -push, np.full(2, push + 0.5))
        assert len(replay) == 3
        # slot i holds push i mod 3: pushes 3 and 4 overwrote 0 and 1
        assert replay.actions.tolist() == [3, 4, 2]
        assert replay.rewards.tolist() == [-3, -4, -2]
        assert replay.states[:, 0].tolist() == [3, 4, 2]
        assert replay.next_states[:, 0].tolist() == [3.5, 4.5, 2.5]

    def test_sample_draws_only_filled_rows(self):
        replay = ReplayBuffer(capacity=10, network=doubling_network())
        for push in range(3):
            replay.push(np.array([push]), push, float(push), np.array([push + 1]))
        states, actions, rewards, next_values = replay.sample(200, np.random.default_rng(4))
        assert set(actions.tolist()) == {0, 1, 2}
        assert np.array_equal(states[:, 0], actions)
        assert np.array_equal(rewards, actions)
        assert np.array_equal(next_values, 2 * (actions + 1))

    def test_values_follow_pushes_and_syncs(self):
        network = doubling_network()
        replay = ReplayBuffer(capacity=3, network=network)
        rng = np.random.default_rng(0)

        def values():
            _, actions, _, next_values = replay.sample(100, rng)
            return {int(a): float(v) for a, v in zip(actions, next_values)}

        for push in range(3):
            replay.push(np.zeros(1), push, 0.0, np.array([push + 1.0]))
        assert values() == {0: 2.0, 1: 4.0, 2: 6.0}
        # the target is a copy: training the network changes no value
        network.weights[0] *= 10.0
        assert values() == {0: 2.0, 1: 4.0, 2: 6.0}
        # a push drops its slot's value, a sync every value
        replay.push(np.zeros(1), 3, 0.0, np.array([5.0]))
        assert values() == {3: 10.0, 1: 4.0, 2: 6.0}
        replay.sync_target(network)
        assert values() == {3: 100.0, 1: 40.0, 2: 60.0}

    def test_a_fill_forwards_two_to_batch_size_rows(self):
        """The rows of a fill are those of a whole sampled batch only if no
        forward runs one row (see TestForwardRows)."""
        replay = ReplayBuffer(capacity=200, network=doubling_network())
        rng = np.random.default_rng(1)
        with recorded_forwards() as calls:
            replay.push(np.zeros(1), 0, 0.0, np.ones(1))
            replay.sample(1, rng)
            for push in range(1, 130):
                replay.push(np.zeros(1), push, 0.0, np.ones(1))
            replay.sample(1, rng)
        # one pending slot goes with a duplicate; 129 split 43, 43, 43
        assert [rows for _, rows in calls] == [2, 43, 43, 43]
        assert replay.valued[:130].all()


class TestForwardRows:
    """Per-slot target values equal the rows of a whole sampled batch only
    while a row of `forward_batch` does not depend on the rows beside it.
    numpy's OpenBLAS keeps that for every batch of two or more rows; a
    one-row batch takes another BLAS path and may round differently, which
    is why no fill forwards one row. A BLAS that breaks the invariance
    fails here, before training results drift."""

    @pytest.mark.parametrize("rows", [2, 3, 63, 64])
    def test_a_row_is_the_same_in_a_larger_batch(self, rows):
        sizes = [drl.STATE_DIMENSION, *drl.HIDDEN_LAYERS, 40]
        with drl._one_blas_thread():
            for seed in range(5):
                rng = np.random.default_rng(seed)
                network = MlpNetwork.initialize(sizes, rng)
                x = rng.uniform(-0.2, 1.2, size=(300, drl.STATE_DIMENSION))
                whole = network.forward_batch(x)[-1]
                for first in (0, 137, 300 - rows):
                    part = network.forward_batch(x[first:first + rows])[-1]
                    assert np.array_equal(part, whole[first:first + rows]), (seed, first)


def tiny_environment(days=4, load=7000.0):
    profiles = [DayProfile(load_kw=np.full(24, load), pv_kw=np.zeros(24))
                for _ in range(days)]
    commitment = Commitment(
        grid_buy_kw=np.full(24, 5000.0), grid_sell_kw=np.zeros(24),
        reserve_down_kw=np.zeros(24), reserve_up_kw=np.zeros(24),
        buying=np.ones(24, dtype=bool))
    return TrainingEnvironment(profiles, TariffSchedule(), CFG, commitment)


class TestTrainAgent:
    def test_zero_episodes_returns_initial_weights(self):
        config = DqnConfig(episodes=0, seed=3)
        rng = np.random.default_rng(3)
        reference = MlpNetwork.initialize([6, 64, 128, 128, 64, 40], rng)
        network, curve = train_agent(tiny_environment(), config)
        assert curve == []
        for got, want in zip(network.weights, reference.weights):
            assert np.array_equal(got, want)

    def test_curve_length_is_episode_count(self):
        config = DqnConfig(episodes=3, seed=1, epsilon_decay_steps=50)
        _, curve = train_agent(tiny_environment(), config)
        assert len(curve) == 3

    def test_default_episode_count_is_one_pass(self):
        env = tiny_environment(days=2)
        config = DqnConfig(episodes=None, seed=1)
        _, curve = train_agent(env, config)
        assert len(curve) == 2

    @pytest.mark.parametrize("action_count", [39, 41])
    def test_action_count_must_match_the_plant(self, action_count):
        config = DqnConfig(action_count=action_count, episodes=1, seed=0)
        with pytest.raises(ValueError, match=f"{action_count}.*40"):
            train_agent(tiny_environment(), config)

    @pytest.mark.parametrize("field", ["episodes", "epsilon_decay_steps"])
    def test_negative_counts_are_refused(self, field):
        with pytest.raises(ValueError, match=f"DqnConfig.{field} must be at least 0, got -3"):
            DqnConfig(**{field: -3})

    def test_seeded_determinism(self):
        # 4 episodes: 96 steps, so 33 training steps at batch 64
        config = DqnConfig(episodes=4, seed=11, epsilon_decay_steps=40)
        n1, c1 = train_agent(tiny_environment(), config)
        n2, c2 = train_agent(tiny_environment(), config)
        assert c1 == c2
        for a, b in zip(n1.weights, n2.weights):
            assert np.array_equal(a, b)


def forwarded_rows(run):
    """`run()`'s (network, curve), and the rows it forwarded through networks
    other than the one it returns: the target networks."""
    with recorded_forwards() as calls:
        network, curve = run()
    return network, curve, sum(rows for net, rows in calls if net is not network)


class TestPerSlotTargetValues:
    """Training with per-slot target values is bit for bit the loop that runs
    the target network over every sampled batch."""

    @pytest.mark.parametrize("capacity, batch", [(80, 64), (50, 16)])
    def test_weights_and_curve_equal_the_reference(self, monkeypatch, capacity, batch):
        # syncs every 7 steps, FIFO overwrites after `capacity` pushes, and
        # one-slot fills after most pushes, within 5 episodes
        monkeypatch.setattr(drl, "TARGET_SYNC_INTERVAL", 7)
        monkeypatch.setattr(drl, "REPLAY_CAPACITY", capacity)
        monkeypatch.setattr(drl, "BATCH_SIZE", batch)
        config = DqnConfig(episodes=5, seed=2, epsilon_decay_steps=60)
        network, curve, rows = forwarded_rows(
            lambda: train_agent(tiny_environment(), config))
        want, want_curve, want_rows = forwarded_rows(
            lambda: reference_train_agent(tiny_environment(), config))
        assert curve == want_curve
        assert weights_sha256(network) == weights_sha256(want)
        assert rows < want_rows

    def test_target_rows_forwarded(self, monkeypatch):
        """The target-network work of a small run, as an exact count: 4
        episodes, 33 training steps of 64 rows, a sync every 24 steps."""
        monkeypatch.setattr(drl, "TARGET_SYNC_INTERVAL", 24)
        config = DqnConfig(episodes=4, seed=11, epsilon_decay_steps=40)
        *_, rows = forwarded_rows(
            lambda: train_agent(tiny_environment(), config))
        *_, reference_rows = forwarded_rows(
            lambda: reference_train_agent(tiny_environment(), config))
        assert reference_rows == 33 * 64
        assert rows == 180


#: a 3-episode seed-7 run of the default network at batch 64, recorded before
#: training ran on one BLAS thread, with numpy's OpenBLAS on its SkylakeX
#: kernel (other kernels may round the products differently)
RECORDED_KERNEL = b"SkylakeX"
RECORDED_SHA256 = "5a1f7568a8707c72ad7b496e7a03d1fb5bb3faeec1c1309152e4f3b102229276"
RECORDED_CURVE = "[-119.3605263157895, -123.88157894736841, -111.9874107012684]"


def weights_sha256(network):
    digest = hashlib.sha256()
    for w, b in zip(network.weights, network.biases):
        digest.update(w.tobytes())
        digest.update(b.tobytes())
    return digest.hexdigest()


def openblas_kernel():
    library = drl._numpy_openblas()
    corename = getattr(library, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename()


def recorded_run():
    network, curve = train_agent(tiny_environment(), DqnConfig(episodes=3, seed=7))
    return weights_sha256(network), repr(curve)


class TestTrainingBitForBit:
    def test_matches_the_run_recorded_on_threaded_blas(self):
        if openblas_kernel() != RECORDED_KERNEL:
            pytest.skip("the recorded digest holds for OpenBLAS's SkylakeX kernel")
        assert recorded_run() == (RECORDED_SHA256, RECORDED_CURVE)

    def test_one_blas_thread_changes_no_bit(self, monkeypatch):
        one_thread = recorded_run()
        monkeypatch.setattr(drl, "_numpy_openblas", lambda: None)
        assert recorded_run() == one_thread


def blas_threads(library):
    """The calling thread's BLAS thread count, read by setting it back."""
    count = library.openblas_set_num_threads_local(1)
    library.openblas_set_num_threads_local(count)
    return count


class TestBlasThreadScope:
    def test_hook_found_on_scipy_openblas(self):
        if np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
            pytest.skip("numpy links another BLAS")
        assert drl._numpy_openblas() is not None

    @pytest.fixture
    def library(self):
        library = drl._numpy_openblas()
        if library is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        original = library.openblas_set_num_threads_local(2)
        yield library
        library.openblas_set_num_threads_local(original)

    def test_training_runs_on_one_thread_and_restores_the_count(self, library,
                                                                monkeypatch):
        seen = []
        inner = drl.train_step

        def counting_step(*args, **kwargs):
            seen.append(blas_threads(library))
            return inner(*args, **kwargs)

        monkeypatch.setattr(drl, "train_step", counting_step)
        train_agent(tiny_environment(), DqnConfig(episodes=3, seed=0))
        assert seen and set(seen) == {1}
        assert blas_threads(library) == 2

    def test_count_restored_when_training_raises(self, library, monkeypatch):
        def diverging_step(*args, **kwargs):
            raise FloatingPointError("training diverged")

        monkeypatch.setattr(drl, "train_step", diverging_step)
        with pytest.raises(FloatingPointError):
            train_agent(tiny_environment(), DqnConfig(episodes=3, seed=0))
        assert blas_threads(library) == 2


class TestPolicyArtifact:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        net = MlpNetwork.initialize([6, 8, 40], rng)
        path = tmp_path / "weights.json"
        net.save(path)
        loaded = MlpNetwork.load(path)
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)
        obs = np.full(6, 0.25)
        assert np.array_equal(forward(loaded, obs), forward(net, obs))

    def test_file_holds_version_two_sizes_weights_and_biases(self, tmp_path):
        net = MlpNetwork.initialize([6, 8, 40], np.random.default_rng(9))
        path = tmp_path / "weights.json"
        net.save(path)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["biases", "format_version", "layer_sizes", "weights"]
        assert payload["format_version"] == 2
        assert payload["layer_sizes"] == [6, 8, 40]

    def test_load_rejects_mismatched_shapes(self, tmp_path):
        rng = np.random.default_rng(9)
        net = MlpNetwork.initialize([6, 8, 40], rng)
        path = tmp_path / "weights.json"
        net.save(path)
        payload = json.loads(path.read_text())
        payload["layer_sizes"] = [6, 9, 40]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            MlpNetwork.load(path)


class TestDrlController:
    def test_all_zero_network_picks_action_zero(self):
        net = MlpNetwork([np.zeros((6, 40))], [np.zeros(40)])
        controller = DrlController(net)
        day = DayProfile(load_kw=np.full(24, 6000.0), pv_kw=np.zeros(24))
        sp = controller.decide(make_state(soc=20000.0), day, Commitment.zero(),
                               TariffSchedule(), CFG)
        assert sp.dg_kw == 0.0
        assert sp.ess_discharge_kw == pytest.approx(6000.0)

    def test_forced_argmax_runs_generator(self):
        net = MlpNetwork([np.zeros((6, 40))], [np.zeros(40)])
        net.biases[0][39] = 5.0
        controller = DrlController(net)
        day = DayProfile(load_kw=np.full(24, 6000.0), pv_kw=np.zeros(24))
        sp = controller.decide(make_state(soc=20000.0), day, Commitment.zero(),
                               TariffSchedule(), CFG)
        assert sp.dg_kw == pytest.approx(CFG.dg_startup_ramp)  # ramp-clamped max
        assert not sp.dg_stop  # a start needs no flag

    def test_decisions_deterministic(self):
        rng = np.random.default_rng(21)
        net = MlpNetwork.initialize([6, 16, 40], rng)
        controller = DrlController(net)
        day = DayProfile(load_kw=np.full(24, 7000.0), pv_kw=np.zeros(24))
        state = make_state(soc=15000.0)
        a = controller.decide(state, day, Commitment.zero(), TariffSchedule(), CFG)
        b = controller.decide(state, day, Commitment.zero(), TariffSchedule(), CFG)
        assert a == b
