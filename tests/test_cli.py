import csv
import json
import os

import numpy as np
import pytest

from rlrc.checkpoint import load_checkpoint
from rlrc.cli import main
from rlrc.config import ConfigError, PipelineConfig


def micro_config(tmp_path, **over):
    cfg = {
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
        "model": {"d_model": 16, "n_layers": 3, "n_heads_base": 2, "d_ff_base": 16,
                  "observation_vocab": 21, "action_vocab": 6, "max_seq_len": 18},
        "demos": {"episodes_per_task": 2},
        "prune": {"ratio": 0.3, "calib_batch": 64},
        "sft": {"max_steps": 40, "eval_interval": 20, "eval_episodes": 1,
                "batch_size": 16},
        "ppo": {"n_envs": 2, "horizon": 8, "total_env_steps": 16, "epochs": 1,
                "minibatches": 1, "eval_interval_steps": 10_000, "eval_episodes": 1},
        "quant": {"bits": 4, "block_size": 16},
        "eval": {"episodes_per_task": 1},
        "bench": {"batch_sizes": [1, 4], "warmup_iters": 10, "timed_iters": 50},
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["output_dir"]


def run(args):
    return main(args)


def test_full_stage_chain(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"], ["prune"], ["sft"], ["rl"],
                ["quantize"], ["bench"]):
        assert run(["--config", cfg_path] + cmd) == 0, cmd
    for name in ("suite.json", "demos.jsonl", "dense.ckpt", "pruned.ckpt",
                 "sft.ckpt", "rl.ckpt", "quant.ckpt", "prune_plan.json",
                 "bench_report.csv", "bench_report.json", "resolved_config.json"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "bench_report.json")) as f:
        report = json.load(f)
    assert len(report["rows"]) == 5
    rows = {r["variant"]: r for r in report["rows"]}
    assert rows["quant"]["total_bytes"] < rows["dense"]["total_bytes"]
    # without --input, quantize takes the RL-recovered model, as the recipe says
    assert load_checkpoint(os.path.join(out, "quant.ckpt")).meta["parent"] == \
        os.path.join(out, "rl.ckpt")
    assert rows["quant"]["total_params"] == rows["rl"]["total_params"]


def test_eval_expert_and_checkpoint(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "eval", "--expert"]) == 0
    with open(os.path.join(out, "eval_expert.json")) as f:
        r = json.load(f)
    assert r["IND"]["success_rate"] == 1.0
    assert r["OOD"]["success_rate"] == 1.0


def test_stage_order_violation_rejected(tmp_path, capsys):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    assert run(["--config", cfg_path, "train-dense"]) == 0
    assert run(["--config", cfg_path, "prune"]) == 0
    # pruning a pruned checkpoint is a stage-order violation
    rc = run(["--config", cfg_path, "prune", "--input",
              os.path.join(out, "pruned.ckpt")])
    assert rc == 1
    assert "stage-order" in capsys.readouterr().err


def test_missing_input_nonzero_exit(tmp_path, capsys):
    cfg_path, _ = micro_config(tmp_path)
    rc = run(["--config", cfg_path, "sft"])
    assert rc == 1
    assert "missing input checkpoint" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seeed": 3}))
    with pytest.raises(ConfigError, match="unknown key"):
        PipelineConfig.from_file(path)
    path.write_text(json.dumps({"sft": {"max_stepz": 1}}))
    with pytest.raises(ConfigError, match="unknown key"):
        PipelineConfig.from_file(path)


def test_seed_override_propagates(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "--seed", "9", "gen-demos"]) == 0
    with open(os.path.join(out, "resolved_config.json")) as f:
        resolved = json.load(f)
    assert resolved["seed"] == 9
    assert resolved["sft"]["seed"] == 9
    assert resolved["ppo"]["seed"] == 9


def test_config_echo_written_next_to_outputs(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    resolved = json.load(open(os.path.join(out, "resolved_config.json")))
    again = PipelineConfig.from_dict(resolved)
    assert again.to_dict() == resolved


def test_sweep_report(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    assert run(["--config", cfg_path, "train-dense"]) == 0
    assert run(["--config", cfg_path, "sweep", "--ratios", "0,0.3",
                "--quant", "none,4"]) == 0
    with open(os.path.join(out, "sweep_report.json")) as f:
        report = json.load(f)
    assert len(report["rows"]) == 4
    by = {(r["ratio"], r["quant"]): r for r in report["rows"]}
    # memory strictly decreasing in ratio at fixed quant mode
    assert by[(0.3, "none")]["total_bytes"] < by[(0.0, "none")]["total_bytes"]
    assert by[(0.3, "4")]["total_bytes"] < by[(0.0, "4")]["total_bytes"]
    # 4-bit memory below full precision at every ratio
    for r in (0.0, 0.3):
        assert by[(r, "4")]["total_bytes"] < by[(r, "none")]["total_bytes"]
    # throughput columns present for the crossover inspection
    assert all("throughput_sps" in r for r in report["rows"])


def test_bench_report_csv_columns(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"]):
        assert run(["--config", cfg_path] + cmd) == 0
    assert run(["--config", cfg_path, "bench",
                "--inputs", os.path.join(out, "dense.ckpt")]) == 0
    with open(os.path.join(out, "bench_report.csv")) as f:
        lines = [l for l in f if not l.startswith("#")]
    header = next(csv.reader(lines))
    assert header[:6] == ["variant", "total_params", "prunable_params",
                          "weights_bytes", "scales_bytes", "total_bytes"]
    # the instability flag of the batch-1 timing reaches the report
    assert "unstable" in header
    with open(os.path.join(out, "bench_report.json")) as f:
        row = json.load(f)["rows"][0]
    assert row["unstable"] == (row["latency_cv"] >= 0.15)
