import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from rlrc.env import (
    DEMO_SEED_STRIDE, DOWN, GRASP, LEFT, N_ACTIONS, RELEASE, RIGHT, UP,
    REWARD_GRASPED, REWARD_PLACED, EnvConfig, EnvError, EnvState, ObjectState,
    SplitError, TaskSpec, VecEnv,
    expert_actions, expert_policy, generate_demos, grid_seeds, make_task_suite, obs_tokens, reset,
    run_episodes, save_task_suite, state_key, step,
)

CFG = EnvConfig()


def test_suite_sizes_and_disjointness():
    suite = make_task_suite(0)
    ind = {(t.object_type, t.plate_id) for t in suite["IND"]}
    ood = {(t.object_type, t.plate_id) for t in suite["OOD"]}
    assert len(ind) == 16 and len(ood) == 9
    assert not ind & ood
    assert len(ind | ood) == 25


def test_suite_deterministic():
    a, b = make_task_suite(5), make_task_suite(5)
    assert a == b
    c = make_task_suite(6)
    assert c != a


def test_suite_every_object_and_plate_in_ind():
    for seed in range(10):
        suite = make_task_suite(seed)
        objs = {t.object_type for t in suite["IND"]}
        plates = {t.plate_id for t in suite["IND"]}
        assert objs == set(range(5))
        assert plates == set(range(5))


def test_suite_file_roundtrip(tmp_path):
    suite = make_task_suite(1)
    p = tmp_path / "suite.json"
    save_task_suite(suite, p)
    with open(p) as f:
        again = {k: [TaskSpec(d["object"], d["plate"], d["split"]) for d in v]
                 for k, v in json.load(f).items()}
    assert again == suite


def test_reset_deterministic_and_distinct_cells():
    task = TaskSpec(2, 3, "IND")
    s1, o1 = reset(CFG, task, 42)
    s2, o2 = reset(CFG, task, 42)
    np.testing.assert_array_equal(o1, o2)
    cells = [(s1.gripper_x, s1.gripper_y), (s1.plate_x, s1.plate_y)]
    cells += [(o.x, o.y) for o in s1.objects]
    assert len(set(cells)) == len(cells)


def test_reset_obs_layout_length():
    task = TaskSpec(0, 0, "IND")
    _, obs = reset(CFG, task, 0)
    assert obs.shape == (CFG.obs_len,)
    assert CFG.obs_len == 15


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="grid too small"):
        EnvConfig(width=2, height=2, n_distractors=10)


def test_reward_on_place_and_done():
    task = TaskSpec(1, 1, "IND")
    state, _ = reset(CFG, task, 7)
    # teleport-free scripted finish via the expert
    while not state.done:
        _, reward = step(state, expert_policy(state))
    assert state.success
    assert reward == REWARD_PLACED == 1.0


def test_first_grasp_reward_once():
    task = TaskSpec(1, 1, "IND")
    state, _ = reset(CFG, task, 7)
    rewards = []
    while not state.done:
        a = expert_policy(state)
        rewards.append(step(state, a)[1])
    assert rewards.count(0.1) == 1
    assert rewards.count(1.0) == 1
    assert set(rewards) <= {0.0, 0.1, 1.0}
    # re-grasping the target later earns nothing
    state, _ = reset(CFG, task, 8)
    while state.holding is None:
        step(state, expert_policy(state))
    step(state, RELEASE)
    assert step(state, GRASP)[1] == 0.0


def test_idle_move_zero_reward():
    state, _ = reset(CFG, TaskSpec(0, 0, "IND"), 3)
    assert step(state, UP if state.gripper_y > 0 else DOWN)[1] == 0.0


def test_moves_clamp_at_edges():
    state, _ = reset(CFG, TaskSpec(0, 0, "IND"), 3)
    for _ in range(20):
        if state.done:
            break
        step(state, LEFT)
    assert state.gripper_x == 0


def test_step_after_done_rejected():
    state, _ = reset(CFG, TaskSpec(0, 0, "IND"), 3)
    while not state.done:
        step(state, expert_policy(state))
    with pytest.raises(EnvError):
        step(state, UP)


def test_truncation_at_max_steps():
    cfg = EnvConfig(max_steps=5)
    state, _ = reset(cfg, TaskSpec(0, 0, "IND"), 3)
    for _ in range(5):
        assert not state.done
        step(state, RIGHT if state.gripper_x == 0 else LEFT)
    # done and not placed: the time limit cut it
    assert state.done and state.t == cfg.max_steps
    assert not state.success


def test_holding_moves_object():
    state, _ = reset(CFG, TaskSpec(0, 0, "IND"), 11)
    while state.holding is None and not state.done:
        step(state, expert_policy(state))
    t = state.objects[0]
    step(state, RIGHT if state.gripper_x < CFG.width - 1 else LEFT)
    assert (t.x, t.y) == (state.gripper_x, state.gripper_y)


def test_expert_full_sweep():
    # 25 tasks x 20 seeds: always succeeds within the path-length bound
    bound = 2 * (CFG.width + CFG.height) + 2
    starts = [(TaskSpec(o, p, "IND"), seed)
              for o in range(5) for p in range(5) for seed in range(20)]
    for demo in run_episodes(expert_actions, CFG, starts):
        assert demo.success
        assert len(demo.steps) <= bound


def test_expert_never_releases_off_plate():
    for seed in range(30):
        state, _ = reset(CFG, TaskSpec(2, 4, "IND"), seed)
        while not state.done:
            a = expert_policy(state)
            if a == RELEASE:
                assert (state.gripper_x, state.gripper_y) == (state.plate_x, state.plate_y)
            step(state, a)


def test_generate_demos_counts_and_roundtrip(tmp_path):
    suite = make_task_suite(0)
    path = tmp_path / "demos.jsonl"
    demos = generate_demos(CFG, suite["IND"], 3, seed=0, out_path=path)
    assert len(demos) == 48
    assert all(d.success for d in demos)
    with open(path) as f:
        again = [json.loads(line) for line in f]
    assert len(again) == 48
    assert [(s["obs"], s["action"]) for s in again[0]["steps"]] == demos[0].steps
    assert again[-1]["task"] == demos[-1].task.to_dict()
    assert [(r["seed"], r["success"]) for r in again] == [(d.seed, d.success) for d in demos]


def test_demos_start_on_their_grid(tmp_path):
    tasks = make_task_suite(0)["IND"][:2]
    demos = generate_demos(CFG, tasks, 3, seed=2, out_path=tmp_path / "demos.jsonl")
    assert grid_seeds(DEMO_SEED_STRIDE, 2, 3) == range(2000, 2003)
    assert [(d.task, d.seed) for d in demos] == [(t, s) for t in tasks for s in range(2000, 2003)]


def test_generate_demos_rejects_ood(tmp_path):
    suite = make_task_suite(0)
    with pytest.raises(SplitError):
        generate_demos(CFG, suite["OOD"][:1], 1, 0, tmp_path / "x.jsonl")


def test_demo_replay_reproduces_observations():
    suite = make_task_suite(0)
    demo, = run_episodes(expert_actions, CFG, [(suite["IND"][0], 123)])
    state, obs = reset(CFG, demo.task, demo.seed)
    for rec_obs, action in demo.steps:
        np.testing.assert_array_equal(np.asarray(rec_obs), obs)
        obs, _ = step(state, action)
    assert state.success


def test_run_episodes_cuts_a_loop_at_its_first_repeated_state():
    # UP walks the gripper to the top wall; one more UP leaves the state unchanged
    suite = make_task_suite(0)
    starts = [(suite["IND"][i], 10 + i) for i in range(6)]
    rows = []

    def up(obs_batch, states):
        assert len(obs_batch) == len(states) and not any(s.done for s in states)
        rows.append(len(states))
        return np.full(len(states), UP)

    episodes = run_episodes(up, CFG, starts)
    for ep, (task, seed) in zip(episodes, starts):
        state, obs = reset(CFG, task, seed)
        assert (ep.task, ep.seed) == (task, seed)
        assert ep.steps[0][0] == obs.tolist()
        assert [a for _, a in ep.steps] == [UP] * (state.gripper_y + 1)
        assert not ep.success
    # each step asks only for the episodes still running
    assert rows[0] == len(starts) and sum(rows) == sum(len(ep.steps) for ep in episodes)
    assert rows == sorted(rows, reverse=True)


def test_run_episodes_ends_at_the_time_limit():
    cfg = EnvConfig(max_steps=4)
    episodes = run_episodes(expert_actions, cfg, [(t, 0) for t in make_task_suite(0)["IND"]])
    assert all(len(ep.steps) <= 4 for ep in episodes)
    assert {len(ep.steps) for ep in episodes if not ep.success} == {4}
    assert run_episodes(expert_actions, cfg, []) == []


def test_run_episodes_refuses_a_wrong_number_of_actions():
    # an episode left without an action would otherwise end unscored and uncounted
    starts = [(t, 0) for t in make_task_suite(0)["IND"][:4]]
    for bad in (lambda obs, states: expert_actions(obs, states)[:-1],
                lambda obs, states: expert_actions(obs, states)[:, None]):
        with pytest.raises(EnvError, match=re.escape("expected 4 actions, got shape (")):
            run_episodes(bad, CFG, starts)


def test_vec_env_matches_scalar_env():
    suite = make_task_suite(0)
    vec = VecEnv(CFG, suite["IND"], 1, seed=9)
    obs = vec.vec_reset()
    # mirror with a scalar env driven by the same derived stream
    rng = np.random.default_rng([9, 0])
    task = suite["IND"][int(rng.integers(len(suite['IND'])))]
    ep_seed = int(rng.integers(2 ** 31))
    state, sobs = reset(CFG, task, ep_seed)
    np.testing.assert_array_equal(obs[0], sobs)
    for a in [RIGHT, DOWN, GRASP, LEFT, UP, RELEASE] * 4:
        vobs, vr, vd, _ = vec.vec_step(np.array([a]))
        sobs, reward = step(state, a)
        np.testing.assert_array_equal(vobs[0], sobs)
        assert vr[0] == reward and vd[0] == state.done
        if state.done:
            break


def test_vec_env_reproducible_and_independent():
    suite = make_task_suite(0)
    rng = np.random.default_rng(0)
    acts = rng.integers(0, 6, size=(50, 16))
    runs = []
    for _ in range(2):
        vec = VecEnv(CFG, suite["IND"], 16, seed=3)
        vec.vec_reset()
        rewards = np.stack([vec.vec_step(a)[1] for a in acts])
        runs.append(rewards)
    np.testing.assert_array_equal(runs[0], runs[1])
    # perturbing env 0's actions leaves env j>0 untouched
    vec = VecEnv(CFG, suite["IND"], 16, seed=3)
    vec.vec_reset()
    acts2 = acts.copy()
    acts2[:, 0] = (acts2[:, 0] + 1) % 6
    rewards2 = np.stack([vec.vec_step(a)[1] for a in acts2])
    np.testing.assert_array_equal(runs[0][:, 1:], rewards2[:, 1:])


def test_vec_env_zero_batch_rejected():
    with pytest.raises(ValueError):
        VecEnv(CFG, make_task_suite(0)["IND"], 0, seed=0)


def test_vec_env_restart_emits_final_obs():
    suite = make_task_suite(0)
    vec = VecEnv(CFG, suite["IND"][:1], 2, seed=1)
    vec.vec_reset()
    for _ in range(200):
        obs, r, dones, cut = vec.vec_step(
            np.array([expert_policy(s) for s in vec.states]))
        if dones.any():
            i = int(np.flatnonzero(dones)[0])
            assert r[i] == REWARD_PLACED  # the expert's episode ended placed
            assert cut == {}  # so it needs no final observation
            # returned obs row is the fresh episode, not the terminal one
            assert not vec.states[i].done and vec.states[i].t == 0
            np.testing.assert_array_equal(obs[i], obs_tokens(vec.states[i]))
            break
    else:
        pytest.fail("no episode finished")


def test_vec_step_returns_only_time_limit_cuts_under_their_slot():
    # slot 0 follows the expert, which places within the time limit; slot 1
    # only moves up, so the limit cuts each of its episodes
    vec = VecEnv(CFG, make_task_suite(0)["IND"], 2, seed=4)
    vec.vec_reset()
    placed = cuts = 0
    for _ in range(3 * CFG.max_steps):
        slot1 = copy.deepcopy(vec.states[1])
        final1, _ = step(slot1, UP)
        _, _, dones, cut = vec.vec_step(np.array([expert_policy(vec.states[0]), UP]))
        assert set(cut) == ({1} if dones[1] else set())
        if dones[1]:
            assert slot1.t == CFG.max_steps and not slot1.success
            np.testing.assert_array_equal(cut[1], final1)
            cuts += 1
        placed += int(dones[0])
    assert placed >= 3 and cuts == 3


def test_episode_return_bounded():
    suite = make_task_suite(0)
    starts = [(suite["IND"][seed % 16], seed) for seed in range(10)]
    for demo in run_episodes(expert_actions, CFG, starts):
        state, _ = reset(CFG, demo.task, demo.seed)
        total = 0.0
        for _, a in demo.steps:
            total += step(state, a)[1]
        assert total <= 1.1 + 1e-9
        # the recorded episode is its replay: it ends there, placed as recorded
        assert state.done and state.success == demo.success


# -- state_key ----------------------------------------------------------------

# EnvState fields `step` never writes, and the ones it writes that the key leaves out
FIXED_FIELDS = {"config", "task", "plate_x", "plate_y"}
UNKEYED_FIELDS = {"t", "done", "success"}


def visited_states():
    """Every state before a step of expert episodes and of random walks: the
    walks hold distractors and drop the target, the expert grasps and places."""
    rng = np.random.default_rng(0)
    states = []
    for seed in range(6):
        task = make_task_suite(0)["IND"][seed]
        state, _ = reset(CFG, task, seed)
        while not state.done:
            states.append(copy.deepcopy(state))
            step(state, expert_policy(state))
        state, _ = reset(CFG, task, seed)
        for _ in range(40):
            if state.done:
                break
            states.append(copy.deepcopy(state))
            step(state, int(rng.integers(N_ACTIONS)))
    return states


def test_step_depends_on_the_state_key_not_t():
    seen_rewards, seen_success = set(), False
    for state in visited_states():
        twin = copy.deepcopy(state)
        twin.t += 5  # still short of max_steps, so neither truncates
        assert state_key(twin) == state_key(state)
        for action in range(N_ACTIONS):
            a, b = copy.deepcopy(state), copy.deepcopy(twin)
            (obs_a, reward_a), (obs_b, reward_b) = step(a, action), step(b, action)
            assert state_key(a) == state_key(b)
            np.testing.assert_array_equal(obs_a, obs_b)
            assert (reward_a, a.done, a.success) == (reward_b, b.done, b.success)
            for name in FIXED_FIELDS:
                assert getattr(a, name) == getattr(state, name), name
            seen_rewards.add(reward_a)
            seen_success |= a.success
    assert seen_rewards == {0.0, REWARD_GRASPED, REWARD_PLACED} and seen_success


def _changed(value):
    """``value`` changed, for a field type `step` writes."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return 0
    if isinstance(value, int):
        return value + 1
    return None


def test_state_key_changes_with_every_field_step_writes():
    state, _ = reset(CFG, TaskSpec(0, 0, "IND"), 3)
    variants = []
    for f in dataclasses.fields(EnvState):
        if f.name in FIXED_FIELDS | UNKEYED_FIELDS:
            continue
        if f.name == "objects":
            for i in range(len(state.objects)):
                for g in dataclasses.fields(ObjectState):
                    if g.name == "obj_type":  # step moves objects, never retypes them
                        continue
                    v = copy.deepcopy(state)
                    setattr(v.objects[i], g.name, _changed(getattr(v.objects[i], g.name)))
                    variants.append((f"objects[{i}].{g.name}", v))
            continue
        new = _changed(getattr(state, f.name))
        if new is None:
            pytest.fail(f"no way to change EnvState.{f.name}: teach this test, and state_key")
        variants.append((f.name, dataclasses.replace(copy.deepcopy(state), **{f.name: new})))
    assert len(variants) == 4 + 2 * len(state.objects)
    for name, v in variants:
        assert state_key(v) != state_key(state), name
    # holding which object counts, not only whether one is held
    a, b = copy.deepcopy(state), copy.deepcopy(state)
    a.holding, b.holding = 0, 1
    assert state_key(a) != state_key(b)
