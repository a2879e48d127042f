import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import rlrc
from rlrc import bench, cli, env
from rlrc.checkpoint import load_checkpoint
from rlrc.cli import main
from rlrc.config import ConfigError, PipelineConfig
from rlrc.env import EnvConfig, TaskSpec, make_task_suite
from rlrc.model import ModelConfig, init_model
from rlrc.quant import QuantizedTensor, memory_bytes, quantize_model
from test_quant import weight_payload_bytes


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
    assert rows["quant"]["prunable_params"] == rows["rl"]["prunable_params"]


def test_pipeline_runs_every_stage_in_order(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "pipeline"]) == 0
    chain = ["dense", "pruned", "sft", "rl", "quant"]
    with open(os.path.join(out, "resolved_config.json"), "rb") as f:
        echo = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["checkpoints"] == {s: f"{s}.ckpt" for s in chain}
    assert manifest["config_sha256"] == echo
    parent = None
    for stage in chain:
        loaded = load_checkpoint(os.path.join(out, f"{stage}.ckpt"))
        assert loaded.meta["stage"] == stage
        assert loaded.meta.get("parent") == (parent and os.path.join(out, f"{parent}.ckpt"))
        assert loaded.meta.get("parent_stage") == parent
        assert loaded.meta["config_sha256"] == echo
        # a checkpoint holds the policy alone: its payload is the model's bytes
        assert weight_payload_bytes(tmp_path / "run" / f"{stage}.ckpt") == \
            memory_bytes(loaded.model)["total_bytes"], stage
        parent = stage
    with open(os.path.join(out, "bench_report.json")) as f:
        assert [r["variant"] for r in json.load(f)["rows"]] == chain
    # benching named inputs writes a report named by them, not over the pipeline's
    reports = [tmp_path / "run" / f"bench_report.{ext}" for ext in ("csv", "json")]
    before = [p.read_bytes() for p in reports]
    assert run(["--config", cfg_path, "bench", "--inputs", os.path.join(out, "dense.ckpt")]) == 0
    assert [p.read_bytes() for p in reports] == before
    with open(os.path.join(out, "bench_report_dense.json")) as f:
        assert [r["variant"] for r in json.load(f)["rows"]] == ["dense"]
    # the runner names each training stage's log after its checkpoint
    for stem in ("dense", "sft", "rl"):
        assert os.path.getsize(os.path.join(out, f"metrics_{stem}.jsonl")) > 0, stem
    # the echo is what the stages ran with
    with open(os.path.join(out, "resolved_config.json")) as f:
        ratio = json.load(f)["prune"]["ratio"]
    with open(os.path.join(out, "prune_plan.json")) as f:
        assert json.load(f)["target_ratio"] == ratio


def test_records_follow_the_config_in_a_reused_directory(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    cfg_path, out = micro_config(tmp_path, demos={"episodes_per_task": 3})
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    with open(os.path.join(out, "demos.jsonl")) as f:
        assert sum(1 for _ in f) == 16 * 3


@pytest.mark.parametrize("argv", [
    ["prune", "--ratio", "0.6"],
    ["quantize", "--bits", "8"],
    ["eval", "--expert", "--episodes", "1"],
])
def test_no_flag_overrides_a_config_setting(tmp_path, argv):
    cfg_path, _ = micro_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        run(["--config", cfg_path] + argv)
    assert info.value.code == 2


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


def test_stage_parents_required_not_guessed(tmp_path, capsys):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"], ["prune"]):
        assert run(["--config", cfg_path] + cmd) == 0, cmd
    capsys.readouterr()
    # rl trains the SFT model; with no sft.ckpt it does not fall back to pruned
    assert run(["--config", cfg_path, "rl"]) == 1
    err = capsys.readouterr().err
    assert "missing input checkpoint for rl" in err and "sft.ckpt" in err
    assert not os.path.exists(os.path.join(out, "rl.ckpt"))
    # quantize takes only the RL model
    assert run(["--config", cfg_path, "quantize"]) == 1
    assert "rl.ckpt" in capsys.readouterr().err
    # PPO from the pruned model, skipping SFT, is asked for by its input
    assert run(["--config", cfg_path, "sft"]) == 0
    assert run(["--config", cfg_path, "rl"]) == 0
    with open(os.path.join(out, "metrics_rl.jsonl"), "rb") as f:
        recipe_log = f.read()
    rl_bytes = (tmp_path / "run" / "rl.ckpt").read_bytes()
    assert run(["--config", cfg_path, "rl", "--input", os.path.join(out, "pruned.ckpt")]) == 0
    meta = load_checkpoint(os.path.join(out, "rl_pruned.ckpt")).meta
    assert (meta["stage"], meta["parent_stage"]) == ("rl", "pruned")
    assert meta["parent"] == os.path.join(out, "pruned.ckpt")
    # it logs under its own checkpoint stem, leaving the recipe's log and
    # checkpoint as they were
    assert os.path.getsize(os.path.join(out, "metrics_rl_pruned.jsonl")) > 0
    with open(os.path.join(out, "metrics_rl.jsonl"), "rb") as f:
        assert f.read() == recipe_log
    assert (tmp_path / "run" / "rl.ckpt").read_bytes() == rl_bytes


def test_quantize_takes_any_earlier_stage(tmp_path, capsys):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"], ["prune"], ["sft"], ["rl"], ["quantize"]):
        assert run(["--config", cfg_path] + cmd) == 0, cmd
    quant_bytes = (tmp_path / "run" / "quant.ckpt").read_bytes()
    dense_path = os.path.join(out, "dense.ckpt")
    # the dense model at 4 bits: a row the recipe does not make
    assert run(["--config", cfg_path, "quantize", "--input", dense_path]) == 0
    loaded = load_checkpoint(os.path.join(out, "quant_dense.ckpt"))
    assert (loaded.meta["stage"], loaded.meta["parent_stage"], loaded.meta["parent"]) == \
        ("quant", "dense", dense_path)
    want = quantize_model(load_checkpoint(dense_path).model, 4, 16)
    assert [n for n, _ in loaded.model.named_params()] == [n for n, _ in want.named_params()]
    for (name, got), (_, ref) in zip(loaded.model.named_params(), want.named_params()):
        if isinstance(ref, QuantizedTensor):
            assert np.array_equal(got.scales, ref.scales), name
            assert np.array_equal(got.packed, ref.packed), name
        else:
            assert np.array_equal(got.data, ref.data), name
    assert (tmp_path / "run" / "quant.ckpt").read_bytes() == quant_bytes
    # a stage's own output, or a later one's, is refused, naming the stages allowed
    capsys.readouterr()
    assert run(["--config", cfg_path, "quantize", "--input",
                os.path.join(out, "quant.ckpt")]) == 1
    assert capsys.readouterr().err == (
        "error: stage-order violation: quantize takes a checkpoint from dense, pruned, "
        f"sft, rl; got 'quant' ({os.path.join(out, 'quant.ckpt')})\n")
    assert not os.path.exists(os.path.join(out, "quant_quant.ckpt"))


def test_checkpoint_records_the_config_it_was_made_with(tmp_path):
    hashes = []
    for lr in (3e-4, 1e-3):
        cfg_path, out = micro_config(tmp_path, sft={"max_steps": 4, "eval_interval": 4,
                                                    "eval_episodes": 1, "lr": lr})
        assert run(["--config", cfg_path, "train-dense"]) == 0
        with open(os.path.join(out, "resolved_config.json"), "rb") as f:
            echo = hashlib.sha256(f.read()).hexdigest()
        hashes.append(load_checkpoint(os.path.join(out, "dense.ckpt")).meta["config_sha256"])
        assert hashes[-1] == echo
    assert hashes[0] != hashes[1]


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        PipelineConfig.from_dict({"seeed": 3})
    with pytest.raises(ConfigError, match="unknown key"):
        PipelineConfig.from_dict({"sft": {"max_stepz": 1}})
    # a section that is not an object is named, not read as pairs or a string
    for raw in ({"model": [["d_model", 64]]}, {"model": 5}, {"model": "ab"}, {"sft": None}):
        section = next(iter(raw))
        with pytest.raises(ConfigError, match=f"section {section} must be an object"):
            PipelineConfig.from_dict(raw)


@pytest.mark.parametrize("section, field, value", [
    ("quant", "bits", 3),
    ("quant", "block_size", 0),
    ("demos", "episodes_per_task", 0),
    ("eval", "episodes_per_task", 0),
    ("prune", "ratio", 1.0),
    ("prune", "ratio", -0.1),
    ("prune", "calib_batch", 0),
    ("env", "n_distractors", 5),
    ("env", "n_distractors", -1),
    ("env", "max_steps", 0),
    ("demos", "episodes_per_task", 2.5),
    ("sft", "max_steps", 2.5),
    ("ppo", "horizon", 8.5),
    ("model", "d_model", 128.0),
    ("env", "width", 8.0),
    ("env", "width", True),
    ("eval", "seed", None),
    ("prune", "exempt_layers", [0.5, 5]),
    ("prune", "exempt_layers", [True]),
    ("prune", "exempt_layers", 5),
    ("prune", "ratio", False),
    ("sft", "lr", True),
    ("ppo", "gamma", True),
    ("ppo", "clip_eps", True),
    ("sft", "lr", float("nan")),
    ("ppo", "clip_eps", float("nan")),
    ("ppo", "value_coef", float("inf")),
    *((section, "seed", -3) for section in ("model", "demos", "prune", "sft", "ppo", "eval")),
])
def test_section_values_checked_at_load(section, field, value):
    # rejected when the config loads, before any stage has run
    with pytest.raises(ConfigError, match=re.escape(f"bad values in section {section}: {field} ")
                       + ".*" + re.escape(f"got {value}")):
        PipelineConfig.from_dict({section: {field: value}})


@pytest.mark.parametrize("field, value", [("seed", 2.5), ("seed", True), ("seed", -1),
                                          ("output_dir", 5)])
def test_root_values_checked_at_load(field, value):
    with pytest.raises(ConfigError, match=re.escape(f"bad values in section root: {field} ")
                       + ".*" + re.escape(f"got {value}")):
        PipelineConfig.from_dict({field: value})


def test_negative_seed_flag_rejected_before_the_echo(tmp_path, capsys):
    # numpy would refuse it only once a stage draws from it, naming no field
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "--seed", "-1", "gen-demos"]) == 1
    assert "bad values in section root: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_grid_too_small_for_its_entities_named_at_load():
    with pytest.raises(ConfigError, match="bad values in section env: grid too small to place "
                                          "5 entities"):
        PipelineConfig.from_dict({"env": {"width": 2, "height": 2}})


def test_exempt_layers_checked_against_the_model():
    with pytest.raises(ConfigError, match=re.escape(
            "prune.exempt_layers [7, -1] outside [0, model.n_layers = 6)")):
        PipelineConfig.from_dict({"prune": {"exempt_layers": [7, -1]}})
    assert PipelineConfig.from_dict({"prune": {"exempt_layers": [0, 5]}}).prune.exempt_layers \
        == [0, 5]


def test_seed_override_propagates(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "--seed", "9", "gen-demos"]) == 0
    with open(os.path.join(out, "resolved_config.json")) as f:
        resolved = json.load(f)
    assert resolved["seed"] == 9
    assert resolved["sft"]["seed"] == 9
    assert resolved["ppo"]["seed"] == 9


def test_seed_override_keeps_explicit_stage_seeds(tmp_path):
    cfg_path, out = micro_config(tmp_path, demos={"episodes_per_task": 2, "seed": 5})
    assert run(["--config", cfg_path, "--seed", "3", "gen-demos"]) == 0
    with open(os.path.join(out, "resolved_config.json")) as f:
        resolved = json.load(f)
    assert resolved["seed"] == 3
    assert resolved["demos"]["seed"] == 5
    for name in ("model", "prune", "sft", "ppo"):
        assert resolved[name]["seed"] == 3, name


def test_seed_flag_keeps_a_stage_seed_pinned_to_the_files_master_seed(tmp_path):
    # --seed acts as the same seed written in the file: a stage seed the
    # file pins stays, even when it equals the file's master seed
    cfg_path, out = micro_config(tmp_path, seed=3, prune={"ratio": 0.3, "seed": 3},
                                 sft={"max_steps": 40, "seed": 11})
    assert run(["--config", cfg_path, "--seed", "5", "gen-demos"]) == 0
    with open(os.path.join(out, "resolved_config.json")) as f:
        resolved = json.load(f)
    assert resolved["seed"] == 5
    assert resolved["prune"]["seed"] == 3
    assert resolved["sft"]["seed"] == 11
    for name in ("model", "demos", "ppo"):
        assert resolved[name]["seed"] == 5, name


@pytest.mark.parametrize("root", [[1, 2], 7])
def test_flags_on_a_config_root_that_is_not_an_object(tmp_path, capsys, root):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(root))
    assert run(["--config", str(path), "--seed", "5", "--output-dir",
                str(tmp_path / "run"), "gen-demos"]) == 1
    assert "error: config root must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_a_config_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 0, }')
    assert run(["--config", str(path), "--output-dir", str(tmp_path / "run"),
                "gen-demos"]) == 1
    assert capsys.readouterr().err == (
        f"error: config {path} is not JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 13 (char 12)\n")
    assert not os.path.exists(tmp_path / "run")


def test_task_split_is_the_same_for_every_seed(tmp_path, monkeypatch):
    # each seed of a multi-seed table trains and evaluates on one split,
    # which gen-demos builds once
    calls = []
    monkeypatch.setattr(env, "make_task_suite",
                        lambda seed: calls.append(seed) or make_task_suite(seed))
    suites = []
    for seed in ("0", "3"):
        (tmp_path / seed).mkdir()
        cfg_path, out = micro_config(tmp_path / seed)
        assert run(["--config", cfg_path, "--seed", seed, "gen-demos"]) == 0
        with open(os.path.join(out, "suite.json")) as f:
            suites.append(f.read())
    assert calls == [0, 0]
    assert suites[0] == suites[1]
    assert make_task_suite(3) != make_task_suite(0)


@pytest.mark.parametrize("raw, fields", [
    ({"env": {"width": 12, "height": 12}}, ("env.obs_vocab", "model.observation_vocab")),
    ({"env": {"n_distractors": 4}, "model": {"max_seq_len": 16}},
     ("env.obs_len", "model.max_seq_len")),
    ({"model": {"action_vocab": 7}}, ("model.action_vocab", "env.N_ACTIONS")),
])
def test_env_and_model_vocabularies_cross_checked(raw, fields):
    with pytest.raises(ConfigError) as info:
        PipelineConfig.from_dict(raw)
    for name in fields:
        assert name in str(info.value)


def test_config_echo_written_next_to_outputs(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 0
    with open(os.path.join(out, "resolved_config.json")) as f:
        resolved = json.load(f)
    again = PipelineConfig.from_dict(resolved)
    assert again.to_dict() == resolved
    # the layers pruning keeps whole are named, not left to a null default
    n_layers = resolved["model"]["n_layers"]
    assert resolved["prune"]["exempt_layers"] == [0, n_layers - 1]


def test_bench_report_csv_columns(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"]):
        assert run(["--config", cfg_path] + cmd) == 0
    assert run(["--config", cfg_path, "bench",
                "--inputs", os.path.join(out, "dense.ckpt")]) == 0
    with open(os.path.join(out, "bench_report_dense.csv")) as f:
        lines = [l for l in f if not l.startswith("#")]
    header = next(csv.reader(lines))
    assert header[:6] == ["variant", "total_params", "prunable_params",
                          "weights_bytes", "scales_bytes", "total_bytes"]
    # the instability flag of the batch-1 timing reaches the report
    assert "unstable" in header
    with open(os.path.join(out, "bench_report_dense.json")) as f:
        row = json.load(f)["rows"][0]
    assert row["unstable"] == (row["latency_cv"] >= 0.15)
    # the columns are the row's own keys, in order
    assert header == list(row)


def test_bench_row_times_batch_1_and_batch_16(monkeypatch):
    # a clock reading k*k at its k-th reading makes the i-th timed decode
    # take 4i + 1 s: batch 1 gets i = 0..49 and batch 16 gets i = 50..99
    decoded = []
    readings = iter(range(10 ** 6))
    monkeypatch.setattr(bench, "greedy_actions", lambda model, ctx: decoded.append(len(ctx)))
    monkeypatch.setattr(bench, "time", SimpleNamespace(
        perf_counter=lambda: float(next(readings) ** 2)))
    model = init_model(ModelConfig(d_model=16, n_layers=2, n_heads_base=2, d_ff_base=16,
                                   observation_vocab=21, action_vocab=6, max_seq_len=18))
    row = bench.variant_row("m", model, EnvConfig(), TaskSpec(0, 0, "IND"), 0.5, 0.25, None)
    assert decoded == [1] * 60 + [16] * 60
    assert row["latency_ms"] == 99e3  # the median of 1, 5, ..., 197 s
    assert row["throughput_batch"] == 16
    assert row["throughput_sps"] == pytest.approx(16 * 50 / sum(4 * i + 1 for i in range(50, 100)))
    assert row["latency_cv"] > 0.15 and row["unstable"] == (row["latency_cv"] >= 0.15)
    assert (row["ind_sr"], row["ood_sr"]) == (0.5, 0.25)


def test_rlrc_threads_wins_and_header_reports_effective_threads(monkeypatch):
    monkeypatch.setenv("RLRC_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # inherited from the shell
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    cli._setup_threads()
    header = bench.report_header()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1" and header[var] == "1", var
    # without the cap, the inherited counts stand and the header names them
    monkeypatch.delenv("RLRC_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS")
    cli._setup_threads()
    header = bench.report_header()
    assert header["OPENBLAS_NUM_THREADS"] == "4"
    assert header["OMP_NUM_THREADS"] == "unset"
    # the heap settings the import applied are part of the environment
    assert header["heap_pin"] == rlrc.HEAP_PIN


def test_importing_rlrc_loads_no_numpy():
    # RLRC_THREADS reaches BLAS only if it is set before numpy loads, so the
    # package's own import, its heap pin included, must not load numpy
    src = os.path.dirname(os.path.dirname(rlrc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, rlrc; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_heap_pin_says_why_it_pinned_nothing(monkeypatch):
    monkeypatch.setattr(rlrc.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert rlrc._pin_heap() == "not pinned: no glibc mallopt"
    refusing = SimpleNamespace(gnu_get_libc_version=None, mallopt=lambda param, value: 0)
    monkeypatch.setattr(rlrc.ctypes, "CDLL", lambda name: refusing)
    assert rlrc._pin_heap() == "not pinned: mallopt(M_MMAP_THRESHOLD, 33554432) refused"
