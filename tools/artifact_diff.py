"""Run a fixed list of CLI commands on ``data/`` in two checkouts and
print the sha256 of every file each side writes.

    python3 tools/artifact_diff.py OLD_CHECKOUT NEW_CHECKOUT [--work DIR]

Each side runs ``python -m inferbench.cli`` from its own ``src/`` in a
fresh work directory that holds a copy of its ``data/``, so every path a
command sees is the same relative path on both sides. The list covers
``train`` with each negative strategy and ``none``, at ``micro_batch``
8, 4 and 64 and at 1 with ``effective_batch`` 3; greedy and top-k
``generate``; ``perturb`` with every strategy, with and without
``--ckpt``, and ``non_optimal`` from the trained checkpoint on
``data/train.jsonl`` (800 top-k rows, more than one decode block, rows
stopping at EOS at different steps); ``score``, ``compare``
(judgments and two metrics), ``agree``, ``gradcheck --seed 3`` and
``--seed 1``, and a 2-run ``sweep``. One line per command gives both
exit codes, then one line per file: both digests and ``same`` or
``DIFFERS``. Exits 0 when every exit code and every file agree, else 1.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN = ["train", "--train", "data/train.jsonl", "--valid", "data/valid.jsonl"]
FAST = ["--set", "train.max_epochs=2", "--set", "train.lr0=0.5"]
CKPT = "out/train_counterfactual/best.json"
TEST = ["--in", "data/test.jsonl"]
STRATEGIES = ("counterfactual", "non_optimal", "replace_zs", "replace_mcq")


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order; later commands read the
    checkpoints and generations of earlier ones."""
    runs = [
        (f"train_{s}", [*TRAIN, "--out-dir", f"out/train_{s}", *FAST,
                        "--set", f"negatives.strategy={s}"])
        for s in STRATEGIES
    ]
    runs.append(("train_none", [*TRAIN, "--out-dir", "out/train_none", *FAST,
                                "--set", "negatives.strategy=none", "--set", "loss.lambda_s=0"]))
    for micro in (4, 64):
        runs.append((f"train_micro{micro}", [*TRAIN, "--out-dir", f"out/train_micro{micro}", *FAST,
                                             "--set", f"train.micro_batch={micro}"]))
    runs.append(("train_micro1_eff3", [*TRAIN, "--out-dir", "out/train_micro1_eff3", *FAST,
                                       "--set", "train.micro_batch=1",
                                       "--set", "train.effective_batch=3"]))
    runs += [
        ("generate_greedy", ["generate", "--ckpt", CKPT, *TEST, "--out", "out/gen_greedy.jsonl"]),
        ("generate_top_k", ["generate", "--ckpt", CKPT, *TEST, "--out", "out/gen_top_k.jsonl",
                            "--set", "decode.method=top_k"]),
    ]
    for s in STRATEGIES:
        runs.append((f"perturb_{s}", ["perturb", "--strategy", s, "--seed", "7", *TEST,
                                      "--out", f"out/perturb_{s}.jsonl"]))
        runs.append((f"perturb_{s}_ckpt", ["perturb", "--strategy", s, "--seed", "7", *TEST,
                                           "--ckpt", CKPT, "--out", f"out/perturb_{s}_ckpt.jsonl"]))
    runs.append(("perturb_non_optimal_train_ckpt", [
        "perturb", "--strategy", "non_optimal", "--seed", "7", "--in", "data/train.jsonl",
        "--ckpt", CKPT, "--out", "out/perturb_non_optimal_train_ckpt.jsonl",
    ]))
    runs += [
        ("score", ["score", "--hyp", "out/gen_greedy.jsonl", "--ref", "data/test.jsonl",
                   "--stratify-by", "difficulty", "--per-example", "--out", "out/score.json"]),
        ("compare_judgments", ["compare", "--judgments", "data/judgments.jsonl", "--ref",
                               "data/test.jsonl", "--stratify-by", "difficulty",
                               "--out", "out/compare_judgments.json"]),
        ("agree", ["agree", "--judgments", "data/judgments.jsonl", "--out", "out/agree.json"]),
        ("gradcheck_seed3", ["gradcheck", "--seed", "3", "--out", "out/gradcheck_seed3.json"]),
        ("gradcheck_seed1", ["gradcheck", "--seed", "1", "--out", "out/gradcheck_seed1.json"]),
        ("sweep", ["sweep", *TRAIN[1:], "--out-dir", "out/sweep", "--config", "sweep.json",
                   "--set", "train.max_epochs=1"]),
    ]
    for metric in ("rouge_l", "cider"):
        runs.append((f"compare_{metric}", [
            "compare", "--a", "out/gen_greedy.jsonl", "--b", "out/gen_top_k.jsonl",
            "--ref", "data/test.jsonl", "--metric", metric, "--out", f"out/compare_{metric}.json",
        ]))
    return runs


SWEEP_CONFIG = {"sweep": {"lambda_b": [0.0, 0.5]}}


def run_side(checkout: Path, work: Path) -> dict:
    """Run every command in ``work`` with ``checkout``'s code and data:
    the exit code per command and the sha256 per written file."""
    shutil.copytree(checkout / "data", work / "data")
    (work / "out").mkdir()
    (work / "sweep.json").write_text(json.dumps(SWEEP_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes = {}
    for name, argv in commands():
        done = subprocess.run([sys.executable, "-m", "inferbench.cli", *argv], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        codes[name] = done.returncode
        if done.returncode not in (0, 1):
            print(f"{checkout}: {name} exited {done.returncode}: {done.stderr.strip()[-300:]}",
                  file=sys.stderr)
    digests = {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((work / "out").rglob("*")) if path.is_file()
    }
    return {"codes": codes, "digests": digests}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--work", type=Path, help="keep both sides' outputs here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = args.work or Path(tmp)
        sides = [run_side(c.resolve(), root / side)
                 for c, side in ((args.old, "old"), (args.new, "new"))]
    old, new = sides
    same = True
    for name in old["codes"]:
        a, b = old["codes"][name], new["codes"][name]
        same &= a == b
        print(f"exit {a} {b} {'same' if a == b else 'DIFFERS'} {name}")
    for path in sorted(old["digests"].keys() | new["digests"].keys()):
        a, b = old["digests"].get(path, "-"), new["digests"].get(path, "-")
        same &= a == b
        print(f"{a} {b} {'same' if a == b else 'DIFFERS'} {path}")
    print(f"{len(old['digests'])} / {len(new['digests'])} files, "
          f"{'all identical' if same else 'some differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
