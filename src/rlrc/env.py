"""Deterministic put-object-on-plate gridworld with symbolic observations.

25 (object type, plate id) task pairs split 16 in-distribution / 9
out-of-distribution, sparse rewards {1.0 placed, 0.1 first grasp, 0
otherwise}, a shortest-path scripted expert, JSONL demonstration files and
a vectorized batch wrapper.  Every trajectory is a pure function of
(task, episode seed, action sequence).
"""

import json
from dataclasses import dataclass, field

import numpy as np

N_OBJECT_TYPES = 5
N_PLATES = 5
N_TASKS = N_OBJECT_TYPES * N_PLATES
IND_SIZE = 16
OOD_SIZE = 9

UP, DOWN, LEFT, RIGHT, GRASP, RELEASE = range(6)
N_ACTIONS = 6
ACTION_NAMES = ("up", "down", "left", "right", "grasp", "release")

REWARD_PLACED = 1.0
REWARD_GRASPED = 0.1


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

    @classmethod
    def from_dict(cls, d):
        return cls(d["object"], d["plate"], d["split"])


@dataclass
class EnvConfig:
    width: int = 8
    height: int = 8
    n_distractors: int = 2
    max_steps: int = 64

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ValueError("grid must be at least 2x2")
        needed = 3 + self.n_distractors  # gripper, target, plate, distractors
        if self.width * self.height < needed:
            raise EnvError(f"grid too small to place {needed} entities")

    # token alphabet: coordinates, object types, plate ids, holding flag, null
    @property
    def coord_vocab(self):
        return max(self.width, self.height)

    @property
    def type_base(self):
        return self.coord_vocab

    @property
    def plate_base(self):
        return self.type_base + N_OBJECT_TYPES

    @property
    def hold_base(self):
        return self.plate_base + N_PLATES

    @property
    def null_token(self):
        return self.hold_base + 2

    @property
    def obs_vocab(self):
        return self.null_token + 1

    @property
    def obs_len(self):
        return 9 + 3 * self.n_distractors

    def to_dict(self):
        return {"width": self.width, "height": self.height,
                "n_distractors": self.n_distractors, "max_steps": self.max_steps}


@dataclass
class ObjectState:
    obj_type: int
    x: int
    y: int
    on_plate: bool = False


@dataclass
class EnvState:
    config: EnvConfig
    task: TaskSpec
    episode_seed: int
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
class StepResult:
    obs: np.ndarray
    reward: float
    done: bool
    info: dict


@dataclass
class Demonstration:
    task: TaskSpec
    seed: int
    steps: list  # (obs token list, action id)
    success: bool


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


def load_task_suite(path):
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    return {k: [TaskSpec.from_dict(d) for d in v] for k, v in raw.items()}


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
        config=config, task=task, episode_seed=int(episode_seed),
        gripper_x=coords[0][0], gripper_y=coords[0][1],
        holding=None, objects=objects,
        plate_x=coords[2][0], plate_y=coords[2][1],
    )
    return state, obs_tokens(state)


def obs_tokens(state):
    """Fixed-layout symbolic observation (instruction slots first)."""
    c = state.config
    toks = [
        c.type_base + state.task.object_type,
        c.plate_base + state.task.plate_id,
        state.gripper_x, state.gripper_y,
        state.objects[0].x, state.objects[0].y,
        state.plate_x, state.plate_y,
        c.hold_base + (0 if state.holding is None else 1),
    ]
    for i in range(c.n_distractors):
        if 1 + i < len(state.objects):
            o = state.objects[1 + i]
            toks.extend([c.type_base + o.obj_type, o.x, o.y])
        else:
            toks.extend([c.null_token, c.null_token, c.null_token])
    return np.array(toks, dtype=np.int64)


def step(state, action):
    """Advance one action; mutates ``state`` and returns a StepResult."""
    if state.done:
        raise EnvError("step called on a finished episode")
    if not 0 <= int(action) < N_ACTIONS:
        raise EnvError(f"action id {action} outside [0, {N_ACTIONS})")
    action = int(action)
    c = state.config
    reward = 0.0
    grasped_now = False
    placed_now = False

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
                grasped_now = True
                if pick == 0 and not state.target_grasped_once:
                    state.target_grasped_once = True
                    reward = REWARD_GRASPED
    else:  # RELEASE
        if state.holding is not None:
            idx = state.holding
            obj = state.objects[idx]
            state.holding = None
            on_plate_cell = obj.x == state.plate_x and obj.y == state.plate_y
            obj.on_plate = on_plate_cell
            if idx == 0 and on_plate_cell:
                reward = REWARD_PLACED
                placed_now = True
                state.done = True
                state.success = True

    state.t += 1
    truncated = False
    if not state.done and state.t >= c.max_steps:
        state.done = True
        truncated = True

    return StepResult(
        obs=obs_tokens(state),
        reward=reward,
        done=state.done,
        info={"grasped_now": grasped_now, "placed_now": placed_now, "truncated": truncated},
    )


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


def run_expert_episode(config, task, episode_seed):
    """Roll the expert to termination; returns a Demonstration."""
    state, obs = reset(config, task, episode_seed)
    steps = []
    while not state.done:
        a = expert_policy(state)
        steps.append((obs.tolist(), int(a)))
        res = step(state, a)
        obs = res.obs
    return Demonstration(task=task, seed=int(episode_seed), steps=steps, success=state.success)


def generate_demos(config, tasks, episodes_per_task, seed, out_path):
    """Expert demonstrations for IND tasks only, one JSON line per episode."""
    for t in tasks:
        if t.split != "IND":
            raise SplitError(f"demo generation refused for non-IND task {t}")
    demos = []
    for task in tasks:
        for e in range(episodes_per_task):
            demos.append(run_expert_episode(config, task, 1000 * seed + e))
    with open(out_path, "w", encoding="utf-8") as f:
        for d in demos:
            f.write(json.dumps({
                "task": d.task.to_dict(), "seed": d.seed,
                "steps": [{"obs": o, "action": a} for o, a in d.steps],
                "success": d.success,
            }) + "\n")
    return demos


def load_demos(path):
    demos = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            demos.append(Demonstration(
                task=TaskSpec.from_dict(raw["task"]), seed=raw["seed"],
                steps=[(s["obs"], s["action"]) for s in raw["steps"]],
                success=raw["success"],
            ))
    return demos


class VecEnv:
    """N independent envs stepped in index order.

    A finished slot immediately starts a new episode; its terminal
    observation is passed out via info["final_obs"].
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
        infos = [None] * self.n
        for i in range(self.n):
            if self.states[i].done:
                raise EnvError(f"internal: slot {i} left in done state")
            res = step(self.states[i], actions[i])
            rewards[i] = res.reward
            dones[i] = res.done
            infos[i] = res.info
            if res.done:
                infos[i]["final_obs"] = res.obs
                infos[i]["success"] = self.states[i].success
                obs_out[i] = self._fresh(i)
            else:
                obs_out[i] = res.obs
        return obs_out, rewards, dones, infos
