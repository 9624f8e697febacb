"""Closed-loop benchmark of the inferbench command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one op at a time in this process: an op is a sequence
of ``inferbench.cli.main(argv)`` calls on inputs synthesized from
``--seed``. After set-up and one untimed warm-up op, ops run until
``--seconds`` have passed; every op's outputs are checked outside the
timed region. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` declares, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``. A results file with per-op records
and the environment stamp goes to ``perfbench/out/``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# one BLAS thread, set in this process's own environment before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
LOSS = {"lambda_b": 0.5, "lambda_s": 0.5}
# lr0 0.5 makes validation perplexity fall within one op; the CLI
# default 1e-4 barely moves it
TRAIN_SET = [
    "--set", "train.lr0=0.5",
    "--set", f"loss.lambda_b={LOSS['lambda_b']}",
    "--set", f"loss.lambda_s={LOSS['lambda_s']}",
]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_revision() -> str:
    """HEAD of the checkout, read from its own .git only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_pinning": "unavailable; runs unpinned",
        "git_revision": _git_revision(),
        "workload_seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


# --- workloads ---------------------------------------------------------------
#
# A workload sets up its inputs in ``work`` (timed as set-up), builds the
# argv lists of op k, and checks op k's outputs. An op's ``items`` is the
# work it does, in the unit of the workload's throughput metric.
#
# The workload seed synthesizes the corpus and judgments only. Model
# init, shuffles and sampling keep the config's seed: under a random init
# the length of top-k samples, hence the decode work, varies about 2x from
# one init seed to the next.


class Workload:
    name = ""
    item = ""
    throughput = ""  # the summary's name for the raw items per second
    verdict_exit = None  # a non-zero exit that still leaves outputs to check

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inputs = work / "inputs"
        self.digests: dict[object, str] = {}

    def setup(self) -> None:
        from inferbench.corpus import save_dataset
        from inferbench.synth import build_corpus

        self.inputs.mkdir(parents=True, exist_ok=True)
        self.train_set, self.valid_set, self.test_set = build_corpus(seed=self.seed)
        for split, examples in (
            ("train", self.train_set), ("valid", self.valid_set), ("test", self.test_set),
        ):
            save_dataset(examples, self.inputs / f"{split}.jsonl")

    def prepare_checks(self) -> None:
        """Untimed reference values the checks need."""

    def op(self, k: int, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, k: int, out: Path, record: dict) -> list[str]:
        """Fill ``record`` with the op's items and results; return errors."""
        raise NotImplementedError

    def same_bytes(self, key, digest: str) -> list[str]:
        """Artifacts of ops with equal inputs and seed must be identical."""
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"artifacts differ from the first op with key {key}"]


class Train(Workload):
    item = "examples"
    throughput = "train_examples_per_s"
    strategy = ""
    epochs = 0

    def prepare_checks(self) -> None:
        from inferbench.backend import ToyBackend
        from inferbench.cli import DEFAULT_CONFIG
        from inferbench.trainer import build_vocabulary, perplexity

        untrained = ToyBackend(
            build_vocabulary(self.train_set), d=DEFAULT_CONFIG["model"]["d"],
            seed=DEFAULT_CONFIG["seed"],
        )
        self.initial_ppl = perplexity(untrained, self.valid_set)

    def op(self, k, out):
        return [[
            "train", "--train", str(self.inputs / "train.jsonl"),
            "--valid", str(self.inputs / "valid.jsonl"), "--out-dir", str(out),
            *TRAIN_SET,
            "--set", f"train.max_epochs={self.epochs}",
            "--set", f"negatives.strategy={self.strategy}",
        ]]

    def check(self, k, out, record):
        from checks import check_perplexity_fell, check_steps, digest_tree

        from inferbench.jsonio import read_jsonl

        record["items"] = self.epochs * len(self.train_set)
        record["valid_ppl"] = min(
            r["validation_perplexity"] for r in read_jsonl(out / "epochs.jsonl")
        )
        return [
            *self.same_bytes("train", digest_tree(out)),
            *check_steps(out / "steps.jsonl", LOSS["lambda_b"], LOSS["lambda_s"]),
            *check_perplexity_fell(record["valid_ppl"], self.initial_ppl),
        ]


class TrainCounterfactual(Train):
    name = "train_cf"
    strategy = "counterfactual"
    epochs = 2


class TrainNonOptimal(Train):
    name = "train_nonopt"
    strategy = "non_optimal"
    epochs = 1


class Gradcheck(Workload):
    """FD gate at tol 1e-4 on seed ``1000 * seed + k``: no seed is skipped,
    and a FAIL verdict counts as a failed op. Run by hand only: it is not
    in ``BENCHMARK.json``, whose workloads must have no failing op, and the
    gate's false FAILs fail some of its ops."""

    name = "gradcheck"
    item = "params"
    throughput = "fd_params_per_s"
    verdict_exit = 1

    def setup(self) -> None:
        """The gradcheck command synthesizes its own batch."""

    def op_seed(self, k: int) -> int:
        return 1000 * self.seed + k

    def op(self, k, out):
        return [["gradcheck", "--seed", str(self.op_seed(k)), "--tol", "1e-4",
                 "--out", str(out / "gradcheck.json")]]

    def check(self, k, out, record):
        from checks import check_gradcheck, digest_tree

        from inferbench.cli import DEFAULT_CONFIG
        from inferbench.synth import build_split
        from inferbench.trainer import build_vocabulary

        report = json.loads((out / "gradcheck.json").read_text())
        vocab = build_vocabulary(build_split("gradcheck", 4, self.op_seed(k)))
        n_params = len(vocab) * (2 * DEFAULT_CONFIG["model"]["d"] + 1)
        record.update(items=report["n_checked"], passed=report["passed"],
                      max_error=report["max_error"], fd_seed=self.op_seed(k))
        return [*self.same_bytes(k, digest_tree(out)), *check_gradcheck(report, n_params)]


class Eval(Workload):
    name = "eval"
    item = "examples"
    throughput = "eval_examples_per_s"
    # every 7th test example goes through the brute-force metric oracles
    ORACLE_STRIDE = 7

    def setup(self) -> None:
        from inferbench import cli
        from inferbench.synth import build_judgments

        super().setup()
        judgments = build_judgments([ex.id for ex in self.test_set], seed=self.seed)
        with open(self.inputs / "judgments.jsonl", "w", encoding="utf-8") as fh:
            for j in judgments:
                fh.write(json.dumps(
                    {"item_id": j.item_id, "rater_id": j.rater_id, "choice": j.choice}
                ) + "\n")
        ckpt_dir = self.inputs / "ckpt"
        code, log = run_argvs([[
            "train", "--train", str(self.inputs / "train.jsonl"),
            "--valid", str(self.inputs / "valid.jsonl"), "--out-dir", str(ckpt_dir),
            *TRAIN_SET, "--set", "train.max_epochs=2",
        ]], cli)
        if code != 0:
            raise RuntimeError(f"eval checkpoint training failed: {log}")
        self.ckpt = ckpt_dir / "best.json"
        # oracle verdict per distinct set of artifact bytes
        self.verified: dict[str, tuple[list[str], int]] = {}

    def op(self, k, out):
        test = str(self.inputs / "test.jsonl")
        greedy, topk = str(out / "gen_greedy.jsonl"), str(out / "gen_topk.jsonl")
        return [
            ["generate", "--ckpt", str(self.ckpt), "--in", test, "--out", greedy],
            ["generate", "--ckpt", str(self.ckpt), "--in", test, "--out", topk,
             "--set", "decode.method=top_k"],
            ["perturb", "--strategy", "replace_mcq", "--ckpt", str(self.ckpt), "--in", test,
             "--out", str(out / "perturb.jsonl")],
            ["score", "--hyp", topk, "--ref", test, "--stratify-by", "difficulty",
             "--per-example", "--out", str(out / "score.json")],
            ["compare", "--a", greedy, "--b", topk, "--ref", test, "--metric", "meteor",
             "--out", str(out / "compare.json")],
            ["agree", "--judgments", str(self.inputs / "judgments.jsonl"),
             "--out", str(out / "agree.json")],
        ]

    def check(self, k, out, record):
        from checks import check_scores, digest_tree

        from inferbench.jsonio import read_jsonl

        record["items"] = len(self.test_set)
        digest = digest_tree(out)
        if digest not in self.verified:
            hyps = {r["id"]: r["generated"] for r in read_jsonl(out / "gen_topk.jsonl")}
            refs = {ex.id: ex.answer for ex in self.test_set}
            report = json.loads((out / "score.json").read_text())
            sample = [ex.id for ex in self.test_set[:: self.ORACLE_STRIDE]]
            self.verified[digest] = check_scores(report, hyps, refs, sample)
        oracle_errors, meteor_checked = self.verified[digest]
        record["oracle_pairs"] = len(self.test_set[:: self.ORACLE_STRIDE])
        record["oracle_meteor_pairs"] = meteor_checked
        return [*self.same_bytes("eval", digest), *oracle_errors]


WORKLOADS = {w.name: w for w in (TrainCounterfactual, TrainNonOptimal, Gradcheck, Eval)}


# --- measurement -------------------------------------------------------------


def run_argvs(argvs: list[list[str]], cli) -> tuple[int, str]:
    """Run CLI calls in order until one exits non-zero; capture output."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                return code, log.getvalue()
    return 0, log.getvalue()


def run_op(workload: Workload, k: int, out: Path, cli, tracer=None) -> dict:
    """One op: the reference kernel, timed CLI calls, then untimed
    output checks."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argvs = workload.op(k, out)
    record = {"k": k, "traced": tracer is not None, "ref_s": refkernel.measure()}
    span = tracer.span("op") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            code, log = run_argvs(argvs, cli)
    except Exception:  # an op that raises is a failed op, not a crashed run
        record.update(seconds=time.perf_counter() - start, exit=None,
                      errors=[traceback.format_exc()])
        return record
    record["seconds"] = time.perf_counter() - start
    record["norm_seconds"] = refkernel.normalize(record["seconds"], record["ref_s"])
    record["exit"] = code
    if code not in (0, workload.verdict_exit):
        record["errors"] = [f"exit code {code}: {log.strip()[-2000:]}"]
        return record
    try:
        record["errors"] = workload.check(k, out, record)
    except Exception:
        record["errors"] = [traceback.format_exc()]
    return record


def measure(workload, seconds: float, work: Path, cli, tracer=None) -> list[dict]:
    records = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        record = run_op(workload, k, work / "op", cli, tracer)
        if tracer is not None:
            record["layers"] = tracer.snapshot()
        records.append(record)
        k += 1
    return records


def op_failed(record: dict) -> bool:
    return bool(record["errors"]) or record["exit"] != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inferbench").is_dir():
        sys.stderr.write(f"perfbench: no inferbench sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from inferbench import cli

    import_s = time.perf_counter() - PROCESS_START

    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            setup_refs.append(refkernel.measure())
            workload = WORKLOADS[args.workload](work, args.seed)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        raw_setup_s = import_s + statistics.median(setup_times)
        setup_s = refkernel.normalize(raw_setup_s, statistics.median(setup_refs))
        workload.prepare_checks()
        warmup = run_op(workload, 0, work / "op", cli)

        tracer = None
        if args.trace:
            from spans import Tracer

            untraced = measure(workload, args.seconds / 2, work, cli)
            tracer = Tracer()
            tracer.install(_layers(spec))
            traced = measure(workload, args.seconds / 2, work, cli, tracer)
            records = untraced + traced
        else:
            records = measure(workload, args.seconds, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "stamp": _stamp(args.seed), "import_s": import_s, "setup_repeats_s": setup_times,
        "setup_ref_s": setup_refs, "warmup": warmup, "ops": records,
    }
    timed = [r for r in records if not r["traced"]]
    summary = _summary(workload, timed, setup_s, raw_setup_s)
    results["summary"] = summary
    if tracer is not None:
        metrics, layer_report = _layer_metrics(spec, tracer, traced, untraced)
        results["layers"] = layer_report
    else:
        metrics = {
            m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, default=str) + "\n")

    _print_summary(workload, summary, results, path)
    all_ops = [warmup, *records]
    correct = not any(r["errors"] for r in all_ops)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(op_failed(r) for r in records),
        "metrics": metrics,
    }))
    return 0


def _summary(workload: Workload, ops: list[dict], setup_s: float, raw_setup_s: float) -> dict:
    """Timings at nominal host speed (``setup_s``, ``norm_*``) beside raw
    wall-clock ones (``raw_*``, ``op_s``)."""
    ran = [r for r in ops if "items" in r]
    if not ran:
        raise RuntimeError(f"no {workload.name} op produced output: {ops[0]['errors']}")
    seconds = _quartiles([r["seconds"] for r in ran])
    rates = _quartiles([r["items"] / r["seconds"] for r in ran])
    norm_rates = _quartiles([r["items"] / r["norm_seconds"] for r in ran])
    failed = sum(op_failed(r) for r in ops)
    summary = {
        "ops": len(ops),
        "op_s": dict(zip(("q1", "median", "q3"), seconds)),
        "raw_items_per_s": dict(zip(("q1", "median", "q3"), rates)),
        "norm_items_per_s_quartiles": dict(zip(("q1", "median", "q3"), norm_rates)),
        "norm_items_per_s": norm_rates[1],
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ref_s": statistics.median(r["ref_s"] for r in ops),
        "failed_ratio": failed / len(ops),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if isinstance(workload, Train):
        summary["valid_ppl"] = statistics.median(r["valid_ppl"] for r in ran)
    return summary


def _print_summary(workload: Workload, summary: dict, results: dict, path: Path) -> None:
    stamp = results["stamp"]
    print(f"workload {workload.name} seed {stamp['workload_seed']} trace {results['trace']}: "
          f"{summary['ops']} ops, op time median {summary['op_s']['median']:.4f} s "
          f"(q1 {summary['op_s']['q1']:.4f}, q3 {summary['op_s']['q3']:.4f})")
    raw, norm = summary["raw_items_per_s"], summary["norm_items_per_s_quartiles"]
    rows = [
        ("setup_s", summary["setup_s"], f"s (raw {summary['raw_setup_s']:.4f} s)"),
        (f"norm_{workload.throughput}", norm["median"],
         f"{workload.item}/s (q1 {norm['q1']:.4f}, q3 {norm['q3']:.4f})"),
        (workload.throughput, raw["median"],
         f"{workload.item}/s (q1 {raw['q1']:.4f}, q3 {raw['q3']:.4f}), raw"),
        ("failed_ratio", summary["failed_ratio"], "ratio"),
        ("peak_rss_mib", summary["peak_rss_mib"], "MiB"),
    ]
    if "valid_ppl" in summary:
        rows.append(("valid_ppl", summary["valid_ppl"], "ppl"))
    for name, value, unit in rows:
        print(f"  {name:<28} {value:12.4f} {unit}")
    print(f"  reference kernel median {summary['ref_s'] * 1e3:.3f} ms "
          f"(nominal {refkernel.NOMINAL_S * 1e3:.3f} ms)")
    if "layers" in results:
        layers = results["layers"]
        print(f"  traced op median {layers['traced_op_s']:.4f} s vs untraced "
              f"{layers['untraced_op_s']:.4f} s: tracing overhead x{layers['overhead']:.3f}")
        if layers["absent"]:
            print(f"  absent layers (reported as 0): {', '.join(layers['absent'])}")
    print(f"  python {stamp['python']} numpy {stamp['numpy']} blas {stamp['blas']} "
          f"cpus {stamp['cpu_count']} rev {stamp['git_revision'][:12]} -> {path}")


def _layers(spec: dict) -> dict[str, list[str]]:
    """``<module>.<qualname>.<stat>`` metric names -> layer -> stats."""
    layers: dict[str, list[str]] = {}
    for metric in spec["per_layer"]:
        layer, stat = metric["name"].rsplit(".", 1)
        layers.setdefault(layer, []).append(stat)
    return layers


def _layer_metrics(spec, tracer, traced, untraced) -> tuple[dict, dict]:
    """Counts come from the first traced op, which every run repeats
    exactly; self times are medians over the traced ops."""
    metrics = {}
    for metric in spec["per_layer"]:
        layer, stat = metric["name"].rsplit(".", 1)
        if stat == "self_s":
            value = statistics.median(r["layers"]["values"][metric["name"]] for r in traced)
        else:
            value = traced[0]["layers"]["values"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    traced_s = statistics.median(r["seconds"] for r in traced)
    untraced_s = statistics.median(r["seconds"] for r in untraced)
    report = {
        "traced_op_s": traced_s, "untraced_op_s": untraced_s,
        "overhead": traced_s / untraced_s, "absent": tracer.absent,
    }
    return metrics, report


if __name__ == "__main__":
    sys.exit(main())
