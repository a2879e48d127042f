"""The command line.  ``test_pipeline_outputs_match_the_golden_record``
pins every output of the micro config's `rlrc pipeline` run that holds no
path to ``tests/golden_micro.json``.  A change that means to alter those
outputs regenerates the file from its own tree with

    PYTHONPATH=src python tests/test_cli.py

and names the fields that moved."""

import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rlrc
from rlrc import bench, cli, env, training
from rlrc.checkpoint import load_checkpoint
from rlrc.cli import main
from rlrc.config import ConfigError, EvalSection, PipelineConfig
from rlrc.env import EnvConfig, TaskSpec, make_task_suite
from rlrc.model import ModelConfig, build_contexts, greedy_actions, init_model
from rlrc.quant import QuantizedTensor, memory_bytes, quantize_model
from rlrc.training import evaluate
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
        # large enough a step that the one PPO update changes greedy actions
        "ppo": {"n_envs": 2, "horizon": 8, "total_env_steps": 16, "epochs": 1,
                "minibatches": 1, "eval_interval_steps": 10_000, "eval_episodes": 1,
                "lr": 1e-3},
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
                 "bench_report.json", "resolved_config.json"):
        assert os.path.exists(os.path.join(out, name)), name
    # the report is one JSON file
    assert not os.path.exists(os.path.join(out, "bench_report.csv"))
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


CHAIN = ["dense", "pruned", "sft", "rl", "quant"]


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """One `rlrc pipeline` run of the micro config, read by every test that
    looks at its outputs: (the config's directory, the config, the output
    directory)."""
    tmp_path = tmp_path_factory.mktemp("micro")
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "pipeline"]) == 0
    return tmp_path, cfg_path, out


def test_pipeline_runs_every_stage_in_order(micro_run):
    tmp_path, cfg_path, out = micro_run
    with open(os.path.join(out, "resolved_config.json"), "rb") as f:
        echo = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["checkpoints"] == {s: f"{s}.ckpt" for s in CHAIN}
    assert manifest["reports"] == ["bench_report.json"]
    assert manifest["config_sha256"] == echo
    parent = None
    for stage in CHAIN:
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
        assert [r["variant"] for r in json.load(f)["rows"]] == CHAIN
    # benching named inputs writes a report named by them, not over the pipeline's
    report = tmp_path / "run" / "bench_report.json"
    before = report.read_bytes()
    dense = os.path.join(out, "dense.ckpt")
    assert run(["--config", cfg_path, "bench", "--inputs", dense]) == 0
    assert report.read_bytes() == before
    with open(os.path.join(out, cli._report_name([dense]))) as f:
        assert [r["variant"] for r in json.load(f)["rows"]] == ["dense"]
    # the runner names each training stage's log after its checkpoint
    for stem in ("dense", "sft", "rl"):
        assert os.path.getsize(os.path.join(out, f"metrics_{stem}.jsonl")) > 0, stem
    # the echo is what the stages ran with
    with open(os.path.join(out, "resolved_config.json")) as f:
        ratio = json.load(f)["prune"]["ratio"]
    with open(os.path.join(out, "prune_plan.json")) as f:
        assert json.load(f)["target_ratio"] == ratio


GOLDEN = Path(__file__).with_name("golden_micro.json")
RECORDS = ("prune_plan.json", "suite.json", "demos.jsonl")
BENCH_FIELDS = ("ind_sr", "ood_sr", "total_params", "prunable_params", "weights_bytes",
                "scales_bytes", "total_bytes")
GREEDY_ROWS = 64


def numeric_build():
    """The numpy version and BLAS build that bit-identity is stated for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas_version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration")}


def pipeline_outputs(out):
    """What a micro pipeline run in ``out`` wrote that holds no path: the
    records' bytes; each stage checkpoint's payload SHA-256, header
    ``config``, ``quant`` and ``tensors``, and its greedy actions on
    `GREEDY_ROWS` demo contexts spread over the demos; each bench row's
    success, params and bytes; and the metric rows less their timings."""
    out = Path(out)
    got = {"records": {name: (out / name).read_text() for name in RECORDS}}
    obs = np.array([step["obs"] for line in got["records"]["demos.jsonl"].splitlines()
                    for step in json.loads(line)["steps"]])
    obs = obs[np.linspace(0, len(obs) - 1, GREEDY_ROWS).round().astype(int)]
    got["checkpoints"] = {}
    for stage in CHAIN:
        raw = (out / f"{stage}.ckpt").read_bytes()
        end = 12 + struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:end])
        model = load_checkpoint(out / f"{stage}.ckpt").model
        got["checkpoints"][stage] = {
            "payload_sha256": hashlib.sha256(raw[end:]).hexdigest(),
            **{key: header[key] for key in ("config", "quant", "tensors")},
            "greedy_actions": greedy_actions(model, build_contexts(model.config, obs)).tolist(),
        }
    rows = json.loads((out / "bench_report.json").read_text())["rows"]
    got["bench"] = {r["variant"]: {k: r[k] for k in BENCH_FIELDS} for r in rows}
    got["metrics"] = {stem: [{k: v for k, v in json.loads(line).items()
                              if k not in ("wallclock", "eval_s")}
                             for line in (out / f"metrics_{stem}.jsonl").read_text().splitlines()]
                      for stem in ("dense", "sft", "rl")}
    return got


def blas_stable(outputs):
    """The outputs another BLAS build must reproduce too: the records (the
    prune plan less its float scores), the greedy actions and the bench
    rows' success rates and counts."""
    records = outputs["records"]
    plan = json.loads(records["prune_plan.json"])
    for group in plan["groups"]:
        del group["score"]
    return {"plan": plan, "suite.json": records["suite.json"],
            "demos.jsonl": records["demos.jsonl"],
            "greedy_actions": {s: c["greedy_actions"] for s, c in outputs["checkpoints"].items()},
            "bench": outputs["bench"]}


def first_difference(want, got, where=""):
    """The path of the first field where ``got`` differs from ``want``, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            if key not in want or key not in got:
                return f"{where}.{key} (present on one side only)"
            found = first_difference(want[key], got[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (w, g) in enumerate(zip(want, got)):
            found = first_difference(w, g, f"{where}[{i}]")
            if found:
                return found
        return None if len(want) == len(got) else f"{where} (length {len(got)}, not {len(want)})"
    return None if type(want) is type(got) and want == got else where


def test_first_difference_names_the_field():
    want = {"a": [1, {"b": 2.0}], "c": "x"}
    assert first_difference(want, json.loads(json.dumps(want))) is None
    assert first_difference(want, {"a": [1, {"b": 2.5}], "c": "y"}) == ".a[1].b"
    assert first_difference(want, {"a": [1, {"b": 2}], "c": "x"}) == ".a[1].b"
    assert first_difference(want, {"a": [1], "c": "x"}) == ".a (length 1, not 2)"
    assert first_difference(want, {"a": [1, {"b": 2.0}]}) == ".c (present on one side only)"


def golden_difference(golden, got, build):
    """The first field of ``got`` that differs from the golden record: of
    every field on the record's numpy/BLAS ``build``, of the BLAS-stable
    ones on another, which it says."""
    want = golden["outputs"]
    if golden["build"] != build:
        print(f"numpy/BLAS build {build} is not the golden record's "
              f"{golden['build']}: comparing the BLAS-stable fields only")
        want, got = blas_stable(want), blas_stable(got)
    return first_difference(want, got)


def test_pipeline_outputs_match_the_golden_record(micro_run):
    # pipeline outputs are bit-identical per seed on one numpy and BLAS build
    golden = json.loads(GOLDEN.read_text())
    got = pipeline_outputs(micro_run[2])
    where = golden_difference(golden, got, numeric_build())
    assert where is None, f"pipeline output {where} differs from {GOLDEN.name}"
    # the BLAS-stable fields see PPO: its update moves greedy actions away from sft's
    greedy = {stage: got["checkpoints"][stage]["greedy_actions"] for stage in ("sft", "rl")}
    assert greedy["rl"] != greedy["sft"]
    # another build compares the fields BLAS does not round, and still sees an action move
    assert golden_difference(golden, got, {"numpy": "another"}) is None
    got["checkpoints"]["quant"]["greedy_actions"][5] += 1
    assert golden_difference(golden, got, {"numpy": "another"}) == ".greedy_actions.quant[5]"


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
    ["bench", "--episodes", "1"],
])
def test_no_flag_overrides_a_config_setting(tmp_path, argv):
    cfg_path, _ = micro_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        run(["--config", cfg_path] + argv)
    assert info.value.code == 2


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


def test_missing_named_input_is_named(tmp_path, capsys):
    # an --input that does not exist gets the message of a missing default parent
    cfg_path, out = micro_config(tmp_path)
    missing = os.path.join(out, "nope.ckpt")
    assert run(["--config", cfg_path, "sft", "--input", missing]) == 1
    assert capsys.readouterr().err == f"error: missing input checkpoint for sft: {missing}\n"


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


def test_off_recipe_chains_never_write_over_the_recipe(micro_run, tmp_path):
    # a copy of the pipeline's outputs, so the shared run stays as it was
    cfg_path, out = micro_config(tmp_path)
    shutil.copytree(micro_run[2], out)
    recipe = {p.name: p.read_bytes() for p in Path(out).iterdir()
              if p.suffix == ".ckpt" or p.name.startswith("metrics_")}
    assert sorted(recipe) == sorted([f"{s}.ckpt" for s in CHAIN] + [
        f"metrics_{s}.jsonl" for s in ("dense", "sft", "rl")])
    # each output is named after its input's file stem, which bench's rows use too
    for command, source, made in (("sft", "dense", "sft_dense"),
                                  ("rl", "sft_dense", "rl_sft_dense"),
                                  ("rl", "pruned", "rl_pruned"),
                                  ("quantize", "rl_pruned", "quant_rl_pruned")):
        parent = os.path.join(out, f"{source}.ckpt")
        assert run(["--config", cfg_path, command, "--input", parent]) == 0, command
        meta = load_checkpoint(os.path.join(out, f"{made}.ckpt")).meta
        assert meta["parent"] == parent, made
    assert all(os.path.getsize(os.path.join(out, f"metrics_{stem}.jsonl")) > 0
               for stem in ("sft_dense", "rl_sft_dense", "rl_pruned"))
    assert {name: (Path(out) / name).read_bytes() for name in recipe} == recipe


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


@pytest.mark.parametrize("field, value, rule", [
    ("bits", 5, "bits must be one of [4, 8], got 5"),
    ("block_size", 0, "block_size must be >= 1, got 0"),
])
def test_quant_format_checked_at_load(field, value, rule):
    with pytest.raises(ConfigError, match="^" + re.escape(f"bad values in section quant: {rule}")
                       + "$"):
        PipelineConfig.from_dict({"quant": {field: value}})


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


@pytest.mark.parametrize("raw, grid", [
    ({"seed": 700}, "eval.seed 7"),
    ({"demos": {"seed": 700}}, "eval.seed 7"),
    ({"seed": 123400}, "training.SELECTION_SEED 1234"),
])
def test_demos_never_start_on_a_scored_episode(raw, grid):
    # demo seed 700 starts each IND task's demos at episode seeds 700000 ..,
    # the first episodes of eval seed 7's grid: the bench would score the
    # policy on the episodes it was trained on
    assert env.DEMO_SEED_STRIDE * 700 == training.EVAL_SEED_STRIDE * 7
    seed = raw.get("seed", raw.get("demos", {}).get("seed"))
    with pytest.raises(ConfigError, match=re.escape(
            f"sections disagree: the episode grids of demos.seed {seed} and {grid} "
            "share episode seeds")):
        PipelineConfig.from_dict(raw)
    # a seed whose demos end before the grid starts, or start after it ends, is accepted
    for near in (699, 701, 123399, 123401):
        assert PipelineConfig.from_dict({"seed": near}).demos.seed == near
    assert PipelineConfig.from_dict({}).demos.seed == 0


@pytest.mark.parametrize("raw, first, second", [
    ({"eval": {"seed": 0}}, "demos.seed 0", "eval.seed 0"),
    ({"demos": {"seed": 123401}, "sft": {"eval_episodes": 1001}},
     "demos.seed 123401", "training.SELECTION_SEED 1234"),
    ({"eval": {"seed": 1233, "episodes_per_task": 100001}},
     "eval.seed 1233", "training.SELECTION_SEED 1234"),
    ({"eval": {"seed": 1234}}, "eval.seed 1234", "training.SELECTION_SEED 1234"),
    ({"eval": {"seed": 1235}, "ppo": {"eval_episodes": 100001}},
     "eval.seed 1235", "training.SELECTION_SEED 1234"),
])
def test_no_two_episode_grids_share_an_episode(raw, first, second):
    # the demos, the reported grid and the trainers' selection grid: no
    # episode may train a policy and score it, or choose its weights and report them
    with pytest.raises(ConfigError, match=re.escape(
            f"sections disagree: the episode grids of {first} and {second} "
            "share episode seeds")):
        PipelineConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [
    {"demos": {"seed": 123401}, "sft": {"eval_episodes": 1000}},
    {"eval": {"seed": 1233, "episodes_per_task": 100000}},
    {"eval": {"seed": 1235}, "ppo": {"eval_episodes": 100000}},
])
def test_episode_grids_that_only_touch_are_accepted(raw):
    PipelineConfig.from_dict(raw)


def test_an_unset_stage_seed_is_the_master_seed():
    assert PipelineConfig().to_dict() == PipelineConfig.from_dict({}).to_dict()
    cfg = PipelineConfig.from_dict({"seed": 4, "demos": {"seed": None}, "prune": {}})
    assert (cfg.demos.seed, cfg.prune.seed) == (4, 4)


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


def test_bench_report_columns(tmp_path):
    cfg_path, out = micro_config(tmp_path)
    for cmd in (["gen-demos"], ["train-dense"]):
        assert run(["--config", cfg_path] + cmd) == 0
    dense = os.path.join(out, "dense.ckpt")
    assert run(["--config", cfg_path, "bench", "--inputs", dense]) == 0
    with open(os.path.join(out, cli._report_name([dense]))) as f:
        report = json.load(f)
    columns, row = report["columns"], report["rows"][0]
    assert columns[:6] == ["variant", "total_params", "prunable_params",
                           "weights_bytes", "scales_bytes", "total_bytes"]
    # the instability flag of the batch-1 timing reaches the report
    assert "unstable" in columns
    assert row["unstable"] == (row["latency_cv"] >= 0.15)
    # the columns are the row's own keys, in order
    assert columns == list(row)


def test_bench_scores_a_checkpoint_as_evaluate_does(tmp_path):
    # bench is the one command that scores a checkpoint: its row's success
    # rates are evaluate's on the config's eval grid.  A wider model on a 3x3
    # grid with no distractors succeeds on some episodes, so the rates compared
    # are not all zero
    cfg_path, out = micro_config(
        tmp_path, model={"d_model": 32, "n_layers": 3, "n_heads_base": 2, "d_ff_base": 16,
                         "observation_vocab": 21, "action_vocab": 6, "max_seq_len": 18},
        env={"width": 3, "height": 3, "n_distractors": 0},
        sft={"max_steps": 200, "eval_interval": 200, "eval_episodes": 1, "batch_size": 16},
        demos={"episodes_per_task": 8}, eval={"episodes_per_task": 2, "seed": 3})
    for cmd in (["gen-demos"], ["train-dense"]):
        assert run(["--config", cfg_path] + cmd) == 0
    dense = os.path.join(out, "dense.ckpt")
    assert run(["--config", cfg_path, "bench", "--inputs", dense]) == 0
    with open(os.path.join(out, cli._report_name([dense]))) as f:
        row = json.load(f)["rows"][0]
    env_config = PipelineConfig.from_dict(json.loads(Path(cfg_path).read_text())).env
    model, suite = load_checkpoint(dense).model, make_task_suite(0)
    want = [float(evaluate(model, suite[split], 2, env_config, seed=3).mean())
            for split in ("IND", "OOD")]
    assert [row["ind_sr"], row["ood_sr"]] == want
    assert min(want) > 0


def test_bench_rows_name_their_checkpoints_and_the_header_its_grid(micro_run, tmp_path, capsys):
    # two checkpoints of one stage from two runs: the rows tell them apart
    first = os.path.join(micro_run[2], "dense.ckpt")
    cfg_path, out = micro_config(tmp_path, eval={"episodes_per_task": 2, "seed": 5})
    assert run(["--config", cfg_path, "--seed", "1", "train-dense"]) == 0
    second = os.path.join(out, "dense.ckpt")
    capsys.readouterr()
    assert run(["--config", cfg_path, "bench", "--inputs", first, second]) == 0
    path = os.path.join(out, cli._report_name([first, second]))
    assert capsys.readouterr().out.splitlines()[-1] == f"report: {path}"
    with open(path) as f:
        report = json.load(f)
    rows = report["rows"]
    assert [r["variant"] for r in rows] == ["dense", "dense"]
    assert [r["checkpoint"] for r in rows] == [first, second]
    for row, ckpt in zip(rows, (first, second)):
        meta = load_checkpoint(ckpt).meta
        assert {k: row[k] for k in ("stage", "parent_stage", "seed", "config_sha256")} == \
            {"stage": "dense", "parent_stage": None, "seed": meta["seed"],
             "config_sha256": meta["config_sha256"]}
    assert [r["seed"] for r in rows] == [0, 1]
    # the header names the grid the rows were scored on
    with open(os.path.join(out, "resolved_config.json"), "rb") as f:
        echo = hashlib.sha256(f.read()).hexdigest()
    assert {k: report["header"][k] for k in ("eval_episodes_per_task", "eval_seed",
                                             "config_sha256")} == \
        {"eval_episodes_per_task": 2, "eval_seed": 5, "config_sha256": echo}


def test_a_report_over_many_inputs_has_a_short_name():
    inputs = [f"runs/seed_{i}/quant_dense.ckpt" for i in range(30)]
    digest = hashlib.sha256("\n".join(inputs).encode()).hexdigest()
    name = cli._report_name(inputs)
    assert name == f"bench_report_{digest[:12]}.json"
    assert len(name.encode()) < 255
    assert cli._report_name(inputs[::-1]) != name
    # the recipe's report keeps its name
    assert cli._report_name(None) == cli._report_name([]) == "bench_report.json"


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
    header = bench.report_header(EvalSection(), "0" * 64)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1" and header[var] == "1", var
    # without the cap, the inherited counts stand and the header names them
    monkeypatch.delenv("RLRC_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS")
    cli._setup_threads()
    header = bench.report_header(EvalSection(), "0" * 64)
    assert header["OPENBLAS_NUM_THREADS"] == "4"
    assert header["OMP_NUM_THREADS"] == "unset"
    # the heap settings the import applied are part of the environment
    assert header["heap_pin"] == rlrc.HEAP_PIN


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_rlrc_threads_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, value):
    # BLAS would run its own default count while the report named the bad
    # value, so the command refuses it before it writes anything
    monkeypatch.setenv("RLRC_THREADS", value)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    cfg_path, out = micro_config(tmp_path)
    assert run(["--config", cfg_path, "gen-demos"]) == 1
    assert capsys.readouterr().err == \
        f"error: RLRC_THREADS must be a positive integer, got {value!r}\n"
    assert not os.path.exists(out)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


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


if __name__ == "__main__":  # regenerate the golden record from this tree
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = micro_config(Path(tmp))
        assert run(["--config", cfg_path, "pipeline"]) == 0
        GOLDEN.write_text(json.dumps({"build": numeric_build(), "outputs": pipeline_outputs(out)},
                                     indent=1) + "\n")
