import json

import numpy as np
import pytest

from rvf.cli import main
from rvf.envs_data import load_dataset, save_dataset
from rvf.math_core import load_params, save_params


@pytest.fixture
def data_path(tmp_path):
    path = tmp_path / "data.bin"
    assert main(["gen-data", "--env", "point-mass-1d", "--policy", "mediocre",
                 "--episodes", "4", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_gen_data_same_seed_identical_files(tmp_path):
    paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
    for p in paths:
        code = main(["gen-data", "--env", "point-mass-1d", "--policy", "random",
                     "--episodes", "3", "--seed", "11", "--out", str(p)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobnicate"])
    assert exc.value.code == 2


def test_bad_env_reports_error(tmp_path):
    code = main(["gen-data", "--env", "nope", "--policy", "random",
                 "--episodes", "1", "--seed", "0",
                 "--out", str(tmp_path / "x.bin")])
    assert code == 1


def test_train_eval_uq_pipeline(tmp_path, data_path, capsys):
    config = {
        "env": "point-mass-1d", "seed": 1, "ensembles": 2,
        "posterior_samples": 3, "ood_actions_per_state": 2,
        "eta_q": 5.0, "eta_ood": 3.0, "beta": 0.2, "gamma": 0.99,
        "rho": 0.99, "batch_size": 16, "gradient_steps": 30,
        "eval_interval": 10, "eval_episodes": 2, "hidden_widths": [8, 8],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"

    assert main(["train", "--config", str(cfg_path), "--data", str(data_path),
                 "--out", str(out_dir)]) == 0
    # documented checkpoint directory layout
    for name in ("policy.ckpt", "critic.ckpt", "metrics.csv", "config.json"):
        assert (out_dir / name).exists()
    # the config copy is byte-for-byte
    assert (out_dir / "config.json").read_bytes() == cfg_path.read_bytes()
    metrics_lines = (out_dir / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics_lines) == 1 + 30 // 10 + 1   # header + rows

    assert main(["eval", "--policy", str(out_dir / "policy.ckpt"),
                 "--episodes", "2", "--seed", "0"]) == 0
    assert "return over 2 episodes" in capsys.readouterr().out

    report_path = tmp_path / "uq.csv"
    assert main(["uq-report", "--critic", str(out_dir / "critic.ckpt"),
                 "--data", str(data_path), "--out", str(report_path),
                 "--pairs", "32"]) == 0
    lines = report_path.read_text().strip().split("\n")
    assert lines[0] == "in_dist_std,ood_std,ratio"
    assert len(lines) == 2


@pytest.fixture
def run_dir(tmp_path, data_path):
    """A two-step training run's output directory."""
    config = {"seed": 1, "ensembles": 2, "posterior_samples": 3,
              "ood_actions_per_state": 2, "batch_size": 8,
              "gradient_steps": 2, "eval_interval": 2, "eval_episodes": 1,
              "hidden_widths": [4]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_path),
                 "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_uq_report_rejects_nonpositive_pairs(run_dir, data_path, capsys,
                                             pairs):
    capsys.readouterr()
    assert main(["uq-report", "--critic", str(run_dir / "critic.ckpt"),
                 "--data", str(data_path), "--pairs", pairs]) == 1
    assert "error: n_pairs must be >= 1" in capsys.readouterr().err


def _exits_1_with(argv, capsys, message) -> None:
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("config_text,nan_state,message", [
    ('{"ensembles": "3"}', False, "ensembles must be an int"),
    ('{"critic_lr": Infinity}', False, "critic_lr must be a finite number"),
    ("{", False, "not valid JSON"),
    ("{}", True, "non-finite states"),
])
def test_train_rejects_malformed_input(tmp_path, data_path, capsys,
                                       config_text, nan_state, message):
    if nan_state:
        dataset = load_dataset(data_path)
        dataset.states[0, 0] = np.nan
        save_dataset(dataset, data_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(config_text)
    _exits_1_with(["train", "--config", str(cfg_path), "--data",
                   str(data_path), "--out", str(tmp_path / "bad-run")],
                  capsys, message)


@pytest.mark.parametrize("command,ckpt,message", [
    ("eval", "critic.ckpt", "not a policy checkpoint"),
    ("uq-report", "policy.ckpt", "not a critic checkpoint"),
    ("uq-report", "list-header.ckpt", "not an rvf-params file"),
    ("uq-report", "bad-samples.ckpt", "'posterior_samples' must be an int >= 1"),
])
def test_wrong_or_corrupt_checkpoint_exits_1(run_dir, data_path, capsys,
                                             command, ckpt, message):
    (run_dir / "list-header.ckpt").write_bytes((6).to_bytes(8, "little") + b"[1, 2]")
    params, meta = load_params(run_dir / "critic.ckpt")
    save_params(run_dir / "bad-samples.ckpt", params,
                {**meta, "posterior_samples": "ab"})
    path = str(run_dir / ckpt)
    argv = (["eval", "--policy", path] if command == "eval" else
            ["uq-report", "--critic", path, "--data", str(data_path)])
    _exits_1_with(argv, capsys, message)


def test_verify_green_and_writes_json(tmp_path, capsys):
    json_path = tmp_path / "verify.json"
    assert main(["verify", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads(json_path.read_text())
    assert all(entry["passed"] for entry in payload)
