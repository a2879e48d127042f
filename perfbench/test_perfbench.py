"""Tests of the benchmark itself: tiny smoke runs of every workload, the
output checks, and the tracer's patching.  Run with

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_program()

import spans  # noqa: E402
import workloads as wl  # noqa: E402
import rlrc.env  # noqa: E402
import rlrc.model  # noqa: E402
import rlrc.quant  # noqa: E402
import rlrc.training  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result, _ = run.measure(workload, seed=3, seconds=0.01, trace=bool(trace), sizes=wl.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    json.dumps(result, allow_nan=False)


def test_end_to_end_metrics_are_never_zero_in_a_smoke_run():
    result, _ = run.measure("recover", seed=4, seconds=0.01, trace=False, sizes=wl.TINY)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bad_rows_flags_a_corrupted_logit():
    logits = np.random.default_rng(0).standard_normal((8, 6)).astype(np.float32)
    actions = logits.argmax(axis=1)
    assert not wl.bad_rows(actions, logits).any()

    raised = logits.copy()
    raised[2, (actions[2] + 1) % 6] += 10.0
    assert wl.bad_rows(actions, raised).tolist() == [i == 2 for i in range(8)]

    nan = logits.copy()
    nan[5, 0] = np.nan
    assert wl.bad_rows(actions, nan).tolist() == [i == 5 for i in range(8)]

    out_of_range = actions.copy()
    out_of_range[0] = 6
    assert wl.bad_rows(out_of_range, logits).tolist() == [i == 0 for i in range(8)]


def test_bad_rows_excuses_only_near_ties():
    logits = np.zeros((2, 6), dtype=np.float32)
    logits[:, 1] = 1.0
    logits[0, 3] = 1.0 - wl.TIE_TOL / 10  # runner-up within the tolerance
    logits[1, 3] = 1.0 - wl.TIE_TOL * 10
    assert wl.bad_rows(np.array([3, 3]), logits).tolist() == [False, True]


def test_check_samples_counts_a_wrong_action_as_failed():
    cfg = rlrc.model.ModelConfig(**wl.TINY.model)
    m = rlrc.model.init_model(cfg)
    suite = rlrc.env.make_task_suite(0)
    obs = rlrc.env.VecEnv(rlrc.env.EnvConfig(), suite["IND"], 4, seed=0).vec_reset()
    logits = wl.reference_logits(m, obs)
    good = logits.argmax(axis=1)
    runner_up = np.argsort(logits, axis=1)[:, -2]
    top2 = np.sort(logits, axis=1)[:, -2:]
    row = int(np.argmax(top2[:, 1] - top2[:, 0]))  # the clearest decision
    wrong = good.copy()
    wrong[row] = runner_up[row]
    ops = wl.Ops()
    wl.check_samples([(m, obs, good), (m, obs, wrong)], ops)
    assert (ops.checked, ops.failed) == (2, 1)


def test_one_failed_check_moves_ok_rate_past_its_bound(monkeypatch):
    real_bad_rows = wl.bad_rows
    seen = []

    def first_call_wrong(actions, ref_logits, tie_tol=wl.TIE_TOL):
        bad = real_bad_rows(actions, ref_logits, tie_tol)
        if not seen:
            bad[0] = True
        seen.append(bad)
        return bad

    monkeypatch.setattr(wl, "bad_rows", first_call_wrong)
    result, _ = run.measure("control-dense", seed=3, seconds=0.01, trace=False, sizes=wl.TINY)
    assert (result["correct"], result["failed"]) == (False, 1)
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}["ok_rate"]
    assert result["metrics"]["ok_rate"]["value"] == pytest.approx(1 - 1 / len(seen))
    assert result["metrics"]["ok_rate"]["value"] < 1 - bound


def outer():
    return inner() + 1


def inner():
    return sum(range(1000))


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer(targets=(("t.outer", __name__, "outer"),
                                   ("t.inner", __name__, "inner")))
    with tracer:
        outer()
    assert outer.__name__ == "outer" and not hasattr(outer, "__wrapped__")
    outer_span, inner_span = tracer.spans
    o_name, _, o_start, o_end, o_self, o_parent = outer_span
    i_name, _, i_start, i_end, i_self, i_parent = inner_span
    assert (o_name, o_parent, i_name, i_parent) == ("t.outer", -1, "t.inner", 0)
    assert i_self == i_end - i_start
    assert o_self == pytest.approx((o_end - o_start) - (i_end - i_start), abs=1e-12)


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n == "rlrc" or n.startswith("rlrc.")]
    owners += [rlrc.env.VecEnv, rlrc.training.ModelPolicy, rlrc.quant.QuantizedModel]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_name_and_reports_absent_targets():
    original_forward = rlrc.model.forward
    before = _snapshot()
    targets = spans.TARGETS + (("model.gone", "rlrc.model", "no_such_function"),
                               ("gone.fn", "rlrc.no_such_module", "fn"))
    tracer = spans.Tracer(targets)
    with tracer:
        assert rlrc.model.forward is not original_forward
        assert rlrc.training.forward is rlrc.model.forward  # caller's own name
        assert rlrc.training.env_step is rlrc.env.step
        rlrc.model.init_model(rlrc.model.ModelConfig(**wl.TINY.model))
    assert tracer.absent == ["model.gone", "gone.fn"]
    assert [s[0] for s in tracer.spans] == ["model.init_model"]
    assert rlrc.model.forward is original_forward
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
