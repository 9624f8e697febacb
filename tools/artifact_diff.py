"""Run a fixed list of CLI commands on ``data/`` in two checkouts and
print the sha256 of every file each side writes.

    python3 tools/artifact_diff.py OLD_CHECKOUT NEW_CHECKOUT [--work DIR]

Each side runs ``python -m inferbench.cli`` from its own ``src/`` in a
fresh work directory that holds a copy of its ``data/``, so every path a
command sees is the same relative path on both sides. The list covers
``ingest`` of ``data/train.jsonl`` and, with ``--format cicero_json``, of
a small CICERO-shaped file the tool writes itself (``CICERO_RECORDS``);
``train`` with each negative strategy and ``none``, at ``micro_batch``
8, 4 and 64, at 1 with ``effective_batch`` 3 and with ``template_id``
``speaker_ids``; greedy and top-k ``generate`` on ``data/test.jsonl``,
greedy ``generate`` on the 200 rows of ``data/train.jsonl`` and on
``data/test.jsonl`` from the ``speaker_ids`` checkpoint under that
template; ``perturb`` with every strategy, with and without ``--ckpt``,
``replace_zs`` and ``replace_mcq`` from the trained checkpoint at
``--threshold`` 0.02 and 0.01 (the recipe's 0.75 makes every slot fall
back to the argmax position; at these thresholds replace_zs falls back
on 0 of 200 slots and replace_mcq on 104, and 160 and 60 slots replace
several positions), and ``non_optimal`` from the trained checkpoint on
``data/train.jsonl``, at the default m 4 (800 top-k rows over 120
distinct inputs, one decode block at V 97, rows stopping at EOS at
different steps) and at ``--m 7`` (1400 rows, more than the 1351 of a
block); ``score`` of the greedy generations by ``difficulty`` and of
the top-k ones (empty hypotheses, stems that differ from their tokens)
by ``question``, both ``--per-example``; ``compare`` of the judgments
and of greedy against top-k by ``rouge_l``, ``cider``, ``bleu_4`` and
``meteor``, and by ``rouge_l`` stratified by ``question``; ``agree``;
``gradcheck --seed 3``, ``--seed 1`` and ``--seed 17`` (a central
difference's rounding failed correct gradients at seeds 1 and 17), and
``--seed 1`` at ``model.d`` 64 (10 578 parameters, every one checked),
and ``--seed 3`` at ``--tol 1e-13``, which exits 1 with a FAIL report
whose ``worst`` names ten coordinates; a 2-run ``sweep``; four bad
configs that end in exit 2: ``train`` with ``model.d=0`` and with
``loss.tau_b=0``, ``gradcheck`` with ``train.micro_batch=3`` and
``sweep --dry-run`` of the strategy ``none``; and two inputs that do
not parse as JSON, which also end in exit 2: ``generate --ckpt
data/train.jsonl`` (a JSONL file as the checkpoint) and ``gradcheck
--set loss.tau_b=`` a 5001-digit integer (past Python's 4300-digit
limit). One line per command gives both exit codes, one line per
command that exits 2 compares the last line each side writes to stderr
(its JSON error), then one line per file: both digests and ``same``,
``params-same`` or ``DIFFERS``. A file whose JSON object has
``format_version`` is a checkpoint: when its bytes differ, both sides'
parameters are decoded (format 1's decimal float lists packed with
``struct.pack("<d")``, format 2's base64 strings decoded), and the file
is ``params-same`` when ``vocab``, ``d``, ``seed``, ``config_digest`` and
every byte of ``E``, ``U`` and ``b`` agree, so the tool also compares
two checkouts across a checkpoint format change. Exits 0 when every exit
code and every compared stderr line agrees and every file is ``same`` or
``params-same``, else 1.
Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import shutil
import struct
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
    runs = [("ingest", ["ingest", "--in", "data/train.jsonl", "--out", "out/ingest.jsonl"]),
            ("ingest_cicero", ["ingest", "--in", "cicero.json", "--format", "cicero_json",
                               "--out", "out/ingest_cicero.jsonl"])]
    runs += [
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
    runs.append(("train_speaker_ids", [*TRAIN, "--out-dir", "out/train_speaker_ids", *FAST,
                                       "--set", "template_id=speaker_ids"]))
    runs += [
        ("generate_greedy", ["generate", "--ckpt", CKPT, *TEST, "--out", "out/gen_greedy.jsonl"]),
        ("generate_top_k", ["generate", "--ckpt", CKPT, *TEST, "--out", "out/gen_top_k.jsonl",
                            "--set", "decode.method=top_k"]),
        ("generate_greedy_train", ["generate", "--ckpt", CKPT, "--in", "data/train.jsonl",
                                   "--out", "out/gen_greedy_train.jsonl"]),
        ("generate_greedy_speaker_ids", ["generate", "--ckpt", "out/train_speaker_ids/best.json",
                                         *TEST, "--out", "out/gen_greedy_speaker_ids.jsonl",
                                         "--set", "template_id=speaker_ids"]),
    ]
    for s in STRATEGIES:
        runs.append((f"perturb_{s}", ["perturb", "--strategy", s, "--seed", "7", *TEST,
                                      "--out", f"out/perturb_{s}.jsonl"]))
        runs.append((f"perturb_{s}_ckpt", ["perturb", "--strategy", s, "--seed", "7", *TEST,
                                           "--ckpt", CKPT, "--out", f"out/perturb_{s}_ckpt.jsonl"]))
    # thresholds at which a trained scorer's deltas clear the threshold:
    # replace_zs at 0.02 falls back on no slot, replace_mcq at 0.01 on about half
    for s, threshold in (("replace_zs", "0.02"), ("replace_mcq", "0.01")):
        name = f"perturb_{s}_ckpt_threshold{threshold}"
        runs.append((name, ["perturb", "--strategy", s, "--seed", "7", *TEST, "--ckpt", CKPT,
                            "--threshold", threshold, "--out", f"out/{name}.jsonl"]))
    for name, m in (("perturb_non_optimal_train_ckpt", []),
                    ("perturb_non_optimal_train_ckpt_m7", ["--m", "7"])):
        runs.append((name, [
            "perturb", "--strategy", "non_optimal", "--seed", "7", "--in", "data/train.jsonl",
            "--ckpt", CKPT, *m, "--out", f"out/{name}.jsonl",
        ]))
    runs += [
        ("score", ["score", "--hyp", "out/gen_greedy.jsonl", "--ref", "data/test.jsonl",
                   "--stratify-by", "difficulty", "--per-example", "--out", "out/score.json"]),
        ("score_top_k_question", ["score", "--hyp", "out/gen_top_k.jsonl", "--ref",
                                  "data/test.jsonl", "--stratify-by", "question", "--per-example",
                                  "--out", "out/score_top_k_question.json"]),
        ("compare_judgments", ["compare", "--judgments", "data/judgments.jsonl", "--ref",
                               "data/test.jsonl", "--stratify-by", "difficulty",
                               "--out", "out/compare_judgments.json"]),
        ("agree", ["agree", "--judgments", "data/judgments.jsonl", "--out", "out/agree.json"]),
        ("gradcheck_seed3", ["gradcheck", "--seed", "3", "--out", "out/gradcheck_seed3.json"]),
        ("gradcheck_seed1", ["gradcheck", "--seed", "1", "--out", "out/gradcheck_seed1.json"]),
        ("gradcheck_seed17", ["gradcheck", "--seed", "17", "--out", "out/gradcheck_seed17.json"]),
        ("gradcheck_seed1_d64", ["gradcheck", "--seed", "1", "--set", "model.d=64",
                                 "--out", "out/gradcheck_seed1_d64.json"]),
        # a FAIL report: rounding's errors of about 1e-12 exceed this tol
        ("gradcheck_seed3_tol1e-13", ["gradcheck", "--seed", "3", "--tol", "1e-13",
                                      "--out", "out/gradcheck_seed3_tol1e-13.json"]),
        ("sweep", ["sweep", *TRAIN[1:], "--out-dir", "out/sweep", "--config", "sweep.json",
                   "--set", "train.max_epochs=1"]),
    ]
    for metric in ("rouge_l", "cider", "bleu_4", "meteor"):
        runs.append((f"compare_{metric}", [
            "compare", "--a", "out/gen_greedy.jsonl", "--b", "out/gen_top_k.jsonl",
            "--ref", "data/test.jsonl", "--metric", metric, "--out", f"out/compare_{metric}.json",
        ]))
    runs.append(("compare_rouge_l_question", [
        "compare", "--a", "out/gen_greedy.jsonl", "--b", "out/gen_top_k.jsonl",
        "--ref", "data/test.jsonl", "--stratify-by", "question",
        "--out", "out/compare_rouge_l_question.json",
    ]))
    # bad configs and inputs: each exits 2 with its JSON error, before it
    # writes anything
    runs += [
        ("error_train_model_d", [*TRAIN, "--out-dir", "out/error", "--set", "model.d=0"]),
        ("error_train_tau_b", [*TRAIN, "--out-dir", "out/error", "--set", "loss.tau_b=0"]),
        ("error_gradcheck_micro_batch", ["gradcheck", "--set", "train.micro_batch=3",
                                         "--out", "out/error.json"]),
        ("error_sweep_none", ["sweep", *TRAIN[1:], "--out-dir", "out/error", "--dry-run",
                              "--set", 'sweep.strategy=["none"]']),
        ("error_generate_ckpt_jsonl", ["generate", "--ckpt", "data/train.jsonl", *TEST,
                                       "--out", "out/error.jsonl"]),
        ("error_gradcheck_huge_int", ["gradcheck", "--set", "loss.tau_b=1" + "0" * 5000,
                                      "--out", "out/error.json"]),
    ]
    return runs


SWEEP_CONFIG = {"sweep": {"lambda_b": [0.0, 0.5]}}

# upstream multiple-choice records for ``ingest --format cicero_json``: turns
# with and without a speaker, a target given with its speaker, a question
# given by its value, the clipped flag, extra negatives, a choice equal to
# the gold answer, more counterfactuals than are kept and a difficulty
CICERO_RECORDS = [
    {"ID": "cic-1", "Dialogue": ["A: did you hear about the rain ?", "B: yes , Friday ."],
     "Target": "yes , Friday .",
     "Question": "What is or could be the cause of the target utterance?",
     "Choices": ["the picnic was moved .", "The rain was announced.", "a guitar broke ."],
     "Human Written Answer": [1], "Difficulty": "Likely"},
    {"ID": 2, "Dialogue": ["A: any news ?", "no speaker here", "B: we leave soon ."],
     "Target": "B: we leave soon .",
     "Question": "What subsequent event happens or could happen following the target?",
     "Clipped": True, "Choices": ["they pack .", "THEY  pack .", "they sleep .", "they eat ."],
     "AnswerIndex": 0, "Negatives": ["they run .", "they sing .", "they read ."]},
    {"ID": "cic-3", "Dialogue": ["A: the exam is today .", "B: good luck !"],
     "Target": "good luck !", "Question": "reaction", "Choices": ["pleased .", "worried ."],
     "Human Written Answer": 1},
]


def _parameter_bytes(value) -> bytes:
    """Little-endian float64 bytes of a format-2 base64 string or of a
    format-1 (nested) list of floats, in row-major order."""
    if isinstance(value, str):
        return base64.b64decode(value, validate=True)
    flat = [x for row in value for x in row] if value and isinstance(value[0], list) else value
    return struct.pack(f"<{len(flat)}d", *flat)


def checkpoint_params(path: Path) -> tuple | None:
    """``vocab``, ``d``, ``seed``, ``config_digest`` and the E, U and b
    bytes of a checkpoint file of either format; None for any other file
    or a checkpoint whose parameters do not decode."""
    try:
        payload = json.loads(path.read_bytes())
    except ValueError:
        return None
    if not isinstance(payload, dict) or "format_version" not in payload:
        return None
    try:
        params = tuple(_parameter_bytes(payload[name]) for name in ("E", "U", "b"))
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    return (*(payload.get(key) for key in ("vocab", "d", "seed", "config_digest")), *params)


def run_side(checkout: Path, work: Path) -> dict:
    """Run every command in ``work`` with ``checkout``'s code and data:
    the exit code per command, the last stderr line per command that
    exits 2, the sha256 per written file and the decoded parameters per
    checkpoint file."""
    shutil.copytree(checkout / "data", work / "data")
    (work / "out").mkdir()
    (work / "sweep.json").write_text(json.dumps(SWEEP_CONFIG))
    (work / "cicero.json").write_text(json.dumps(CICERO_RECORDS))
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes, errors = {}, {}
    for name, argv in commands():
        done = subprocess.run([sys.executable, "-m", "inferbench.cli", *argv], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        codes[name] = done.returncode
        if done.returncode == 2:
            errors[name] = (done.stderr.strip().splitlines() or [""])[-1]
        elif done.returncode not in (0, 1):
            print(f"{checkout}: {name} exited {done.returncode}: {done.stderr.strip()[-300:]}",
                  file=sys.stderr)
    files = [path for path in sorted((work / "out").rglob("*")) if path.is_file()]
    digests = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    params = {str(p.relative_to(work)): checkpoint_params(p) for p in files}
    return {"codes": codes, "errors": errors, "digests": digests, "params": params}


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
    for name in old["codes"]:
        if name in old["errors"] or name in new["errors"]:
            a, b = old["errors"].get(name, "-"), new["errors"].get(name, "-")
            same &= a == b
            print(f"stderr {'same' if a == b else 'DIFFERS'} {name}: {a}"
                  + ("" if a == b else f" | {b}"))
    verdicts = {"same": 0, "params-same": 0, "DIFFERS": 0}
    for path in sorted(old["digests"].keys() | new["digests"].keys()):
        a, b = old["digests"].get(path, "-"), new["digests"].get(path, "-")
        pa, pb = old["params"].get(path), new["params"].get(path)
        verdict = ("same" if a == b else
                   "params-same" if pa is not None and pa == pb else "DIFFERS")
        verdicts[verdict] += 1
        same &= verdict != "DIFFERS"
        print(f"{a} {b} {verdict} {path}")
    print(f"{len(old['digests'])} / {len(new['digests'])} files: "
          + ", ".join(f"{n} {verdict}" for verdict, n in verdicts.items())
          + f"; {'all agree' if same else 'some differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
