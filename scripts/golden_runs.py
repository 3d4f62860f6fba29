"""Golden short runs: sha256 fingerprints of five 500-step trainings.

A change that should leave training bit-identical must leave every
fingerprint unchanged; run the script before and after and compare.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/golden_runs.py \
        [--out golden.json] [--keep DIR]

Everything goes through `rvf.cli.main`: one dataset from
`rvf gen-data --env point-mass-1d --policy mediocre --episodes 50 --seed 7`,
then `rvf train` for 500 steps (eval_interval 100, seed 3, the acceptance
study's sizes: M=3, n=10, K=10, B=64, widths 32x32) for the configs `full`,
`no_repulsion`, `no_pessimism`, `per_member` (pooling per-member) and
`layer_norm`.  Per config it prints the sha256 of metrics.csv, critic.ckpt
and policy.ckpt, the sha256 of metrics.csv cut to its columns
step..in_dist_std, and the eval_return_mean/std columns themselves, so two
runs whose evaluation differs only in float rounding can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from rvf.cli import main as rvf_main
from rvf.study import ARMS, study_config

CONFIGS = {**{arm: (arm, {}) for arm in ARMS},
           "per_member": ("full", {"pooling": "per-member"}),
           "layer_norm": ("full", {"layer_norm": True})}

# metrics.csv columns step, bellman, kl, ood_std, in_dist_std
TRAINING_COLUMNS = 5


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _run(argv: list[str]) -> None:
    code = rvf_main(argv)
    if code != 0:
        raise SystemExit(f"rvf {' '.join(argv)} exited with {code}")


def fingerprint(run_dir: str) -> dict:
    csv = _read(os.path.join(run_dir, "metrics.csv"))
    rows = [line.split(",") for line in csv.decode().splitlines()]
    training = "\n".join(",".join(r[:TRAINING_COLUMNS]) for r in rows) + "\n"
    return {
        "metrics.csv": _sha256(csv),
        "critic.ckpt": _sha256(_read(os.path.join(run_dir, "critic.ckpt"))),
        "policy.ckpt": _sha256(_read(os.path.join(run_dir, "policy.ckpt"))),
        "metrics.csv[step..in_dist_std]": _sha256(training.encode()),
        "eval_returns": [[float(r[5]), float(r[6])] for r in rows[1:]],
    }


def golden_runs(work_dir: str) -> dict:
    data = os.path.join(work_dir, "data.bin")
    _run(["gen-data", "--env", "point-mass-1d", "--policy", "mediocre",
          "--episodes", "50", "--seed", "7", "--out", data])
    out = {}
    for name, (arm, overrides) in CONFIGS.items():
        config = os.path.join(work_dir, f"{name}.json")
        study_config(3, arm, gradient_steps=500, eval_interval=100,
                     **overrides).save(config)
        run_dir = os.path.join(work_dir, name)
        _run(["train", "--config", config, "--data", data, "--out", run_dir])
        out[name] = fingerprint(run_dir)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the fingerprints as JSON")
    parser.add_argument("--keep", default=None,
                        help="keep the dataset and run directories here")
    args = parser.parse_args()
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        result = golden_runs(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = golden_runs(tmp)
    for name, fp in result.items():
        print(f"{name}:")
        for key, value in fp.items():
            if key != "eval_returns":
                print(f"  {key:<32} {value}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
