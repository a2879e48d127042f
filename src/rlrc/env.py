"""Deterministic put-object-on-plate gridworld with symbolic observations.

25 (object type, plate id) task pairs split 16 in-distribution / 9
out-of-distribution, sparse rewards {1.0 placed, 0.1 first grasp, 0
otherwise}, a shortest-path scripted expert whose demonstrations are
written as JSONL records, and a vectorized batch wrapper.  Every
trajectory is a pure function of (task, episode seed, action sequence),
and `state_key` names the part of a state that decides everything but the
time limit.  `step` returns (observation, reward), and an episode's state
alone says whether it ended placed (``success``) or cut by the time
limit (``done`` and not ``success``).

`run_episodes` is the one loop over whole episodes from (task, seed)
starts, the expert's demonstrations' and ``training.evaluate``'s; `VecEnv`,
PPO's stream of episodes, is the only other caller of `step`.  A grid of
such starts takes its episode seeds from `grid_seeds`, the one place a
seed stride is applied.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

N_OBJECT_TYPES = 5
N_PLATES = 5
N_TASKS = N_OBJECT_TYPES * N_PLATES
IND_SIZE = 16
OOD_SIZE = 9

UP, DOWN, LEFT, RIGHT, GRASP, RELEASE = range(6)
N_ACTIONS = 6

REWARD_PLACED = 1.0
REWARD_GRASPED = 0.1

# the stride of the demos' grid of episode seeds (`grid_seeds`)
DEMO_SEED_STRIDE = 1000


class EnvError(RuntimeError):
    pass


class SplitError(ValueError):
    """Raised when an OOD task leaks into a training-only facility."""


@dataclass(frozen=True)
class TaskSpec:
    object_type: int
    plate_id: int
    split: str  # "IND" or "OOD"

    def to_dict(self):
        return {"object": self.object_type, "plate": self.plate_id, "split": self.split}


@dataclass
class EnvConfig:
    """The grid, its distractor count and its time limit.  An observation's
    tokens are coordinates, then object types (`type_base`), plate ids
    (`plate_base`) and the two-valued holding flag (`hold_base`): `obs_vocab`
    tokens in all, each base computed once, as every observation reads it
    and no config is changed."""
    width: int = 8
    height: int = 8
    n_distractors: int = 2
    max_steps: int = 64

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValueError("grid must be at least 2x2")
        needed = 3 + self.n_distractors  # gripper, target, plate, distractors
        if self.width * self.height < needed:
            raise ValueError(f"grid too small to place {needed} entities")
        # each distractor is an object type other than the target's
        if not 0 <= self.n_distractors <= N_OBJECT_TYPES - 1:
            raise ValueError(f"n_distractors must be in [0, {N_OBJECT_TYPES - 1}], "
                             f"got {self.n_distractors}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    @cached_property
    def type_base(self):  # after the coordinates 0 .. max(width, height) - 1
        return max(self.width, self.height)

    @cached_property
    def plate_base(self):
        return self.type_base + N_OBJECT_TYPES

    @cached_property
    def hold_base(self):
        return self.plate_base + N_PLATES

    @cached_property
    def obs_vocab(self):
        return self.hold_base + 2

    @cached_property
    def obs_len(self):
        return 9 + 3 * self.n_distractors


@dataclass
class ObjectState:
    obj_type: int
    x: int
    y: int


@dataclass
class EnvState:
    config: EnvConfig
    task: TaskSpec
    gripper_x: int
    gripper_y: int
    holding: object  # object index or None
    objects: list  # index 0 is the target object
    plate_x: int
    plate_y: int
    t: int = 0
    done: bool = False
    success: bool = False
    target_grasped_once: bool = False


@dataclass
class Episode:
    """One episode `run_episodes` ran, a demonstration or an evaluation, and its outcome."""
    task: TaskSpec
    seed: int
    steps: list  # (obs token list, action id)
    success: bool = False


def make_task_suite(seed):
    """Deterministic 16/9 split of the 25 (object, plate) pairs.

    Every object type and every plate id keeps at least one IND pair, so
    demonstrations cover the whole token alphabet.
    """
    rng = np.random.default_rng(seed)
    pairs = [(o, p) for o in range(N_OBJECT_TYPES) for p in range(N_PLATES)]
    order = [pairs[i] for i in rng.permutation(N_TASKS)]
    ood = []
    obj_left = {o: N_PLATES for o in range(N_OBJECT_TYPES)}
    plate_left = {p: N_OBJECT_TYPES for p in range(N_PLATES)}
    for o, p in order:
        if len(ood) == OOD_SIZE:
            break
        if obj_left[o] > 1 and plate_left[p] > 1:
            ood.append((o, p))
            obj_left[o] -= 1
            plate_left[p] -= 1
    ood_set = set(ood)
    ind = [TaskSpec(o, p, "IND") for o, p in pairs if (o, p) not in ood_set]
    ood_tasks = [TaskSpec(o, p, "OOD") for o, p in pairs if (o, p) in ood_set]
    return {"IND": ind, "OOD": ood_tasks}


def save_task_suite(suite, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: [t.to_dict() for t in v] for k, v in suite.items()}, f, indent=2)


def reset(config, task, episode_seed):
    """Fresh episode with entities on distinct random cells."""
    rng = np.random.default_rng([task.object_type, task.plate_id, int(episode_seed)])
    n_cells = config.width * config.height
    n_entities = 3 + config.n_distractors
    cells = rng.choice(n_cells, size=n_entities, replace=False)
    coords = [(int(c) % config.width, int(c) // config.width) for c in cells]
    other_types = [t for t in range(N_OBJECT_TYPES) if t != task.object_type]
    d_types = rng.choice(other_types, size=config.n_distractors, replace=False)
    objects = [ObjectState(task.object_type, *coords[1])]
    for i in range(config.n_distractors):
        objects.append(ObjectState(int(d_types[i]), *coords[3 + i]))
    state = EnvState(
        config=config, task=task,
        gripper_x=coords[0][0], gripper_y=coords[0][1],
        holding=None, objects=objects,
        plate_x=coords[2][0], plate_y=coords[2][1],
    )
    return state, obs_tokens(state)


def obs_tokens(state):
    """Fixed-layout symbolic observation (instruction slots first)."""
    c = state.config
    type_base, plate_base, hold_base = c.type_base, c.plate_base, c.hold_base
    toks = [
        type_base + state.task.object_type,
        plate_base + state.task.plate_id,
        state.gripper_x, state.gripper_y,
        state.objects[0].x, state.objects[0].y,
        state.plate_x, state.plate_y,
        hold_base + (0 if state.holding is None else 1),
    ]
    # reset places exactly n_distractors distractors and step keeps them
    for o in state.objects[1:]:
        toks.extend([type_base + o.obj_type, o.x, o.y])
    return np.array(toks, dtype=np.int64)


def state_key(state):
    """Everything `step` changes except the step count ``t``: the gripper
    cell, ``holding``, ``target_grasped_once`` and the object cells.

    Within an episode the task and plate are fixed, so two states with one
    key give the same observation, and one action steps both to states that
    again share a key, with equal observations, rewards and ``done``, as
    long as neither reaches ``max_steps``.  A field `step` writes must join
    the key.
    """
    key = [state.gripper_x, state.gripper_y, state.holding, state.target_grasped_once]
    for o in state.objects:
        key += (o.x, o.y)
    return tuple(key)


def step(state, action):
    """Advance one action; mutates ``state``, whose ``done`` and ``success``
    say whether and how the episode ended, and returns (observation, reward)."""
    if state.done:
        raise EnvError("step called on a finished episode")
    if not 0 <= int(action) < N_ACTIONS:
        raise EnvError(f"action id {action} outside [0, {N_ACTIONS})")
    action = int(action)
    c = state.config
    reward = 0.0

    if action in (UP, DOWN, LEFT, RIGHT):
        dx = {LEFT: -1, RIGHT: 1}.get(action, 0)
        dy = {UP: -1, DOWN: 1}.get(action, 0)
        state.gripper_x = min(max(state.gripper_x + dx, 0), c.width - 1)
        state.gripper_y = min(max(state.gripper_y + dy, 0), c.height - 1)
        if state.holding is not None:
            held = state.objects[state.holding]
            held.x, held.y = state.gripper_x, state.gripper_y
    elif action == GRASP:
        if state.holding is None:
            here = [i for i, o in enumerate(state.objects)
                    if o.x == state.gripper_x and o.y == state.gripper_y]
            if here:
                pick = 0 if 0 in here else here[0]
                state.holding = pick
                if pick == 0 and not state.target_grasped_once:
                    state.target_grasped_once = True
                    reward = REWARD_GRASPED
    else:  # RELEASE
        if state.holding is not None:
            idx = state.holding
            obj = state.objects[idx]
            state.holding = None
            if idx == 0 and obj.x == state.plate_x and obj.y == state.plate_y:
                reward = REWARD_PLACED
                state.success = True

    state.t += 1
    state.done = state.success or state.t >= c.max_steps
    return obs_tokens(state), reward


def _step_toward(gx, gy, tx, ty):
    if tx > gx:
        return RIGHT
    if tx < gx:
        return LEFT
    if ty > gy:
        return DOWN
    return UP


def expert_policy(state):
    """Shortest-path scripted expert: fetch the target, place it.

    Releases only on the plate cell by construction.
    """
    target = state.objects[0]
    if state.holding is not None:
        if state.gripper_x == state.plate_x and state.gripper_y == state.plate_y:
            return RELEASE
        return _step_toward(state.gripper_x, state.gripper_y, state.plate_x, state.plate_y)
    if state.gripper_x == target.x and state.gripper_y == target.y:
        return GRASP
    return _step_toward(state.gripper_x, state.gripper_y, target.x, target.y)


def expert_actions(obs_batch, states):
    """`expert_policy` of each state: the expert as a `run_episodes` policy."""
    return np.array([expert_policy(s) for s in states], dtype=np.int64)


def run_episodes(act, config, starts):
    """Run an episode from each (task, episode seed) start to its end;
    returns an `Episode` per start, in start order.

    ``act(obs_batch, states)`` gives one deterministic action per state (any
    other count raises EnvError), and each step asks it only about the
    episodes still running.  An episode ends placed, at the time limit, or
    at its first repeated `state_key`, the reset state included: from there
    it would repeat one loop until the time limit, and a loop earns nothing,
    since a placement ends the episode and the only other reward, the
    target's first grasp, sets ``target_grasped_once``, part of the key.  It
    is scored as that time-out: unsuccessful."""
    resets = [reset(config, task, seed) for task, seed in starts]
    states = [state for state, _ in resets]
    obs = np.array([o for _, o in resets])
    episodes = [Episode(task, int(seed), []) for task, seed in starts]
    seen = [{state_key(s)} for s in states]  # each episode's visited states
    live = list(range(len(states)))  # the episodes still running
    while live:
        actions = np.asarray(act(obs[live], [states[i] for i in live]), dtype=np.int64)
        if actions.shape != (len(live),):
            raise EnvError(f"expected {len(live)} actions, got shape {actions.shape}")
        running = []
        for i, a in zip(live, actions.tolist()):
            ep, state = episodes[i], states[i]
            ep.steps.append((obs[i].tolist(), a))
            obs[i], _ = step(state, a)
            if state.done:
                ep.success = state.success
            elif (key := state_key(state)) not in seen[i]:  # else a loop: it can only time out
                seen[i].add(key)
                running.append(i)
        live = running
    return episodes


def grid_seeds(stride, seed, episodes):
    """The episode seeds each task runs on the grid of ``seed``, from ``stride * seed`` on."""
    return range(stride * seed, stride * seed + episodes)


def generate_demos(config, tasks, episodes_per_task, seed, out_path):
    """Expert demonstrations for IND tasks only, one JSON line per episode."""
    for t in tasks:
        if t.split != "IND":
            raise SplitError(f"demo generation refused for non-IND task {t}")
    # one task's episodes at a time: the runner's memory grows with the episodes it runs
    seeds = grid_seeds(DEMO_SEED_STRIDE, seed, episodes_per_task)
    demos = [d for task in tasks
             for d in run_episodes(expert_actions, config, [(task, s) for s in seeds])]
    with open(out_path, "w", encoding="utf-8") as f:
        for d in demos:
            f.write(json.dumps({
                "task": d.task.to_dict(), "seed": d.seed,
                "steps": [{"obs": o, "action": a} for o, a in d.steps],
                "success": d.success,
            }) + "\n")
    return demos


class VecEnv:
    """N independent envs stepped in index order.

    A finished slot immediately starts a new episode.  `vec_step` returns
    (observations, rewards, dones, cut), where ``cut`` maps each slot whose
    episode the time limit cut to that episode's final observation, in slot
    order; a placed episode is not in it.
    """

    def __init__(self, config, tasks, n, seed):
        if n <= 0:
            raise ValueError("batch size must be positive")
        if not tasks:
            raise ValueError("empty task list")
        self.config = config
        self.tasks = list(tasks)
        self.n = n
        self._rngs = [np.random.default_rng([seed, i]) for i in range(n)]
        self.states = [None] * n

    def _fresh(self, i):
        rng = self._rngs[i]
        task = self.tasks[int(rng.integers(len(self.tasks)))]
        ep_seed = int(rng.integers(2 ** 31))
        state, obs = reset(self.config, task, ep_seed)
        self.states[i] = state
        return obs

    def vec_reset(self):
        return np.stack([self._fresh(i) for i in range(self.n)])

    def vec_step(self, actions):
        actions = np.asarray(actions)
        if actions.shape != (self.n,):
            raise ValueError(f"expected {self.n} actions, got shape {actions.shape}")
        obs_out = np.empty((self.n, self.config.obs_len), dtype=np.int64)
        rewards = np.zeros(self.n, dtype=np.float64)
        dones = np.zeros(self.n, dtype=bool)
        cut = {}
        for i, state in enumerate(self.states):
            obs, rewards[i] = step(state, actions[i])
            dones[i] = state.done
            if state.done and not state.success:
                cut[i] = obs
            obs_out[i] = self._fresh(i) if state.done else obs
        return obs_out, rewards, dones, cut
