"""surgcurate benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from --seed in a child process
(three times; setup_s is the median). With --trace 0 the driver then runs
the workload's `surgcurate` command sequence, each command its own
process, in a closed loop until --seconds have passed, checks every
output, and reports the end-to-end metrics as medians over the loop's
passes. With --trace 1 it runs the same commands in-process through
perfbench/traced.py, alternating traced and bare passes, and reports the
per-layer metrics. The last line of stdout is one JSON object.

The driver imports no numpy and reads artifacts in streaming chunks: a
child's peak RSS starts from the high-water mark of the process that
spawned it, so the driver must stay smaller than any command it times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    CREATED_AT,
    DEFAULT_SEED,
    EVAL_DATASET,
    HASHED,
    SPLIT_DATASET,
    WORKERS,
    commands,
    spec_for,
)

SETUPS = 3
#: Fewest command-sequence passes a --trace 0 run makes; metrics are their medians.
MIN_ROUNDS = 3
#: Every run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
LAUNCH = "import sys; from surgcurate.cli import main; sys.argv[0] = 'surgcurate'; sys.exit(main())"
END_TO_END = ["pipeline_s", "ingest_s", "cluster_s", "curate_s", "sample_s", "split_s", "stats_s",
              "peak_rss_mb", "cluster_rss_mb", "curate_rss_mb", "setup_s"]
#: Per-layer metric -> unit; level-indexed names cover up to three levels
#: and read 0 on workloads with fewer.
PER_LAYER = {
    **{f"clustering.{m}.L{lvl}": u for m, u in (("seed_s", "s"), ("lloyd_s", "s"), ("iters", "count"))
       for lvl in range(3)},
    "clustering.hierarchy_s": "s", "clustering.save_s": "s", "clustering.seed_share": "fraction",
    "store.ingest_s": "s", "store.write_s": "s", "store.read_s": "s", "store.normalize_s": "s",
    "store.payload_mb": "MB", "store.read_rss_x": "x", "store.normalize_rss_x": "x",
    "manifest.fingerprint_s": "s", "manifest.hashed_mb": "MB",
    "curation.allocate_s": "s", "curation.select_s": "s", "curation.capped_leaves": "count", "curation.write_s": "s",
    "corpus.read_s": "s", "corpus.validate_s": "s", "corpus.stats_s": "s", "corpus.records": "count",
    "mixer.write_s": "s", "mixer.clinical_share_gap": "fraction",
    "splits.generate_s": "s", "splits.verify_s": "s",
    "metrics.evaluate_s": "s", "metrics.report_s": "s",
    "cli.startup_s": "s", "trace.overhead_frac": "fraction",
}


class Run:
    """One benchmark invocation: its checkout, scratch directory and clock."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool):
        self.root = root
        self.spec = spec_for(workload, tiny)
        self.seed = seed
        self.tiny = tiny
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("SURGCURATE_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.expected: dict = {}

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], log: str) -> tuple[float, int, int]:
        """Run argv to completion; (wall seconds, peak RSS KiB, exit code).

        The peak comes from the child's own wait4 rusage.
        """
        logs = self.work / "logs"
        with open(logs / f"{log}.out", "wb") as so, open(logs / f"{log}.err", "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            watchdog = threading.Timer(max(1.0, self.remaining()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode

    def cli(self, args: list[str], log: str) -> tuple[float, int, int]:
        return self.spawn([sys.executable, "-c", LAUNCH, *args], log)

    def setup(self, times: int) -> list[float]:
        walls = []
        for i in range(times):
            shutil.rmtree(self.work / "inputs", ignore_errors=True)
            wall, _, code = self.spawn(
                [sys.executable, str(HERE / "gen.py"), "--workload", self.spec["name"], "--seed", str(self.seed),
                 "--out", str(self.work / "inputs"), *(["--tiny"] if self.tiny else [])],
                f"setup{i}",
            )
            if code != 0:
                raise RuntimeError(f"input generation failed with exit code {code}")
            walls.append(wall)
        self.expected = json.loads((self.work / "inputs" / "expected.json").read_text("utf-8"))
        return walls

    def fresh_out(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir()


# -- output checks -------------------------------------------------------------


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _read_ids(path: Path) -> set[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return {ln.strip() for ln in fh if ln.strip()}


def check_curated(out: Path, exp: dict) -> str | None:
    rows = list(_jsonl(out / "curated.jsonl"))
    header, selected = rows[0], rows[1:]
    if header.get("kind") != "header" or header.get("total_budget") != exp["curated"]:
        return f"curated header {header!r}"
    if len(selected) != exp["curated"]:
        return f"{len(selected)} curated clips, expected {exp['curated']}"
    return None


def clinical_band(exp: dict) -> tuple[float, float]:
    """Five-sigma binomial band for the realised clinical share.

    Pure batches are Bernoulli(p); the band covers both the closed-form
    share and the share implied by the integer mixed-batch composition.
    """
    n, b = exp["batches"], exp["batch_size"]
    p, c = float(Fraction(exp["p_pure"])), exp["mixed"][1]
    per_batch = p + (1 - p) * c / b
    sd = math.sqrt(p * (1 - p) / n) * (b - c) / b
    closed = float(Fraction(exp["clinical_share"]))
    return min(per_batch, closed) - 5 * sd, max(per_batch, closed) + 5 * sd


def check_batches(out: Path, inputs: Path, exp: dict) -> tuple[str | None, float]:
    curated = {doc["clip_id"] for doc in _jsonl(out / "curated.jsonl") if doc.get("kind") != "header"}
    clinical = _read_ids(inputs / "clinical_ids.txt")
    stream = _jsonl(out / "batches.jsonl")
    header = next(stream)
    if header.get("n_batches") != exp["batches"] or header["policy"]["batch_size"] != exp["batch_size"]:
        return f"batch header {header!r}", 0.0
    count = clinical_ids = total = 0
    n_u, n_c = exp["mixed"]
    for batch in stream:
        ids = batch["clip_ids"]
        if batch["index"] != count or len(ids) != exp["batch_size"]:
            return f"batch {count} malformed", 0.0
        if batch["mode"] == "PureClinical":
            ok = all(cid in clinical for cid in ids)
        else:
            ok = all(cid in curated for cid in ids[:n_u]) and all(cid in clinical for cid in ids[n_u:]) \
                and len(ids) == n_u + n_c
        if not ok:
            return f"batch {count} draws outside its pools", 0.0
        clinical_ids += sum(1 for cid in ids if cid in clinical)
        total += len(ids)
        count += 1
    if count != exp["batches"]:
        return f"{count} batches, expected {exp['batches']}", 0.0
    share = clinical_ids / total
    lo, hi = clinical_band(exp)
    if not lo <= share <= hi:
        return f"clinical share {share:.5f} outside [{lo:.5f}, {hi:.5f}]", share
    return None, share


def check_split(out: Path, exp: dict) -> str | None:
    doc = json.loads((out / "split.json").read_text("utf-8"))
    counts = [sum(1 for s in doc["assignment"].values() if s == name) for name in ("train", "val", "test")]
    if doc["dataset_id"] != SPLIT_DATASET or doc["created_at"] != CREATED_AT or counts != exp["split_counts"]:
        return f"split counts {counts}, expected {exp['split_counts']}"
    return None


def check_outputs(work: Path, exp: dict, exits: dict[str, int], log_prefix: str) -> tuple[dict[str, str], float]:
    """Map of command label -> failure reason, plus the realised clinical share.

    `exits` maps each command label to its exit code; a command's stdout
    was captured in logs/<log_prefix><label>.out.
    """
    out, inputs = work / "out", work / "inputs"
    failures = {label: f"exit code {code}" for label, code in exits.items() if code != 0}
    share = 0.0

    def guard(label, fn):
        try:
            reason = fn()
        except (OSError, ValueError, KeyError, TypeError, StopIteration, IndexError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            failures.setdefault(label, reason)

    def batches():
        nonlocal share
        reason, share = check_batches(out, inputs, exp)
        return reason

    def verify():
        text = (work / "logs" / f"{log_prefix}split-verify.out").read_text("utf-8")
        if f"clean video-level partition ({exp['web_clips']} clips checked)" not in text:
            return f"split verify said {text.strip()!r}"
        return None

    def stats():
        text = (out / "stats.md").read_text("utf-8")
        return None if f"**{exp['videos']:,}**" in text and f"**{exp['clips']:,}**" in text else "stats totals"

    guard("curate", lambda: check_curated(out, exp))
    guard("sample", batches)
    guard("split", lambda: check_split(out, exp))
    guard("split-verify", verify)
    guard("stats", stats)
    if "evaluate" in exits:
        want = f"{EVAL_DATASET},{exp['model']},,{exp['acc']}"
        guard("evaluate", lambda: None if (out / "scores.csv").read_text("utf-8").splitlines()[-1] == want
              else "scores row")
        guard("report", lambda: None if exp["model"] in (out / "report.md").read_text("utf-8") else "report rows")
    return failures, share


def check_hashes(out: Path, first: dict | None, reference: dict | None, failures: dict[str, str]) -> dict:
    hashes = {}
    for label, name in HASHED.items():
        try:
            hashes[name] = sha256(out / name)
        except OSError as exc:
            failures.setdefault(label, f"{name}: {exc}")
            continue
        if first is not None and first.get(name) != hashes[name]:
            failures.setdefault(label, f"{name} differs between passes of one run")
        if reference is not None and reference.get(name) != hashes[name]:
            failures.setdefault(label, f"{name} differs from reference.json")
    return hashes


def reference_for(run: Run) -> dict | None:
    if run.tiny or run.seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "reference.json").read_text("utf-8")).get(run.spec["name"])


# -- passes ----------------------------------------------------------------------


def cli_pass(run: Run) -> dict:
    """One pass of the command sequence, each command its own process."""
    run.fresh_out()
    per = {}
    start = time.perf_counter()
    for label, args in commands(run.spec, run.work):
        wall, rss_kb, code = run.cli(args, label)
        per[label] = {"wall": wall, "rss_mb": rss_kb / 1024, "exit": code}
    pipeline = time.perf_counter() - start
    return {"pipeline": pipeline, "commands": per}


def inproc_pass(run: Run, trace: bool) -> dict:
    """One pass with every command run in-process by traced.py."""
    run.fresh_out()
    per = {}
    for label, args in commands(run.spec, run.work):
        result = run.work / "out" / f"{label}.trace.json"
        _, _, code = run.spawn([sys.executable, str(HERE / "traced.py"), "--result", str(result),
                                *(["--trace"] if trace else []), "--", *args], f"inproc-{label}")
        try:
            doc = json.loads(result.read_text("utf-8"))
        except (OSError, ValueError):
            doc = {"exit": code or 1, "wall": 0.0, "spans": []}
        per[label] = doc
    return {"commands": per}


# -- metrics ---------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    def cmd(p, *labels):
        return sum(p["commands"][lb]["wall"] for lb in labels)

    def rss(p, *labels):
        return max(p["commands"][lb]["rss_mb"] for lb in labels)

    every = lambda p: list(p["commands"])  # noqa: E731
    series = {
        "pipeline_s": [p["pipeline"] for p in passes],
        "ingest_s": [cmd(p, "ingest") for p in passes],
        "cluster_s": [cmd(p, "cluster") for p in passes],
        "curate_s": [cmd(p, "curate") for p in passes],
        "sample_s": [cmd(p, "sample") for p in passes],
        "split_s": [cmd(p, "split", "split-verify") for p in passes],
        "stats_s": [cmd(p, "stats") for p in passes],
        "peak_rss_mb": [rss(p, *every(p)) for p in passes],
        "cluster_rss_mb": [rss(p, "cluster") for p in passes],
        "curate_rss_mb": [rss(p, "curate") for p in passes],
        "setup_s": setup,
    }
    units = {name: ("MB" if name.endswith("_mb") else "s") for name in series}
    return {name: {"value": _median(vals), "unit": units[name]} for name, vals in series.items()}


def _self_time(spans: list[dict], i: int) -> float:
    s = spans[i]
    children = sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
    return s["end"] - s["start"] - children


def layers(traced: dict, share_gap: float) -> dict:
    """Per-layer values of one traced pass (start-up and overhead are
    filled in by the caller)."""
    v = dict.fromkeys(PER_LAYER, 0.0)

    def add(name, value):
        v[name] += value

    timed = {"store.ingest": "store.ingest_s", "store.write": "store.write_s", "store.read": "store.read_s",
             "store.normalize": "store.normalize_s", "clustering.hierarchy": "clustering.hierarchy_s",
             "clustering.save": "clustering.save_s", "curation.allocate": "curation.allocate_s",
             "curation.write": "curation.write_s", "mixer.write": "mixer.write_s", "corpus.read": "corpus.read_s",
             "corpus.validate": "corpus.validate_s", "corpus.stats": "corpus.stats_s",
             "splits.generate": "splits.generate_s", "splits.verify": "splits.verify_s",
             "manifest.fingerprint": "manifest.fingerprint_s"}
    seed_total = 0.0
    for label, doc in traced["commands"].items():
        spans = doc["spans"]
        level_of: dict[int, int] = {}
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            if s["name"] in timed:
                add(timed[s["name"]], dur)
            if s["name"] == "clustering.kmeans":
                lvl = level_of.setdefault(i, len(level_of))
                add(f"clustering.lloyd_s.L{lvl}", _self_time(spans, i))
                add(f"clustering.iters.L{lvl}", s["iters"])
            elif s["name"] == "clustering.seed":
                lvl = level_of.get(s["parent"], 0)
                add(f"clustering.seed_s.L{lvl}", dur)
                seed_total += dur
            elif s["name"] == "curation.curate":
                add("curation.select_s", _self_time(spans, i))
                add("curation.capped_leaves", s["capped_leaves"])
            elif s["name"] == "manifest.fingerprint":
                add("manifest.hashed_mb", s["bytes"] / 2**20)
            elif s["name"] == "corpus.read" and not v["corpus.records"]:
                v["corpus.records"] = s["records"]
            elif s["name"] in ("store.read", "store.normalize") and label == "cluster":
                v["store.payload_mb"] = s["payload"] / 2**20
                v[f"{s['name']}_rss_x"] = s["rss_kb"] * 1024 / s["payload"]
    v["metrics.evaluate_s"] = traced["commands"].get("evaluate", {}).get("wall", 0.0)
    v["metrics.report_s"] = traced["commands"].get("report", {}).get("wall", 0.0)
    cluster_wall = traced["commands"]["cluster"]["wall"]
    v["clustering.seed_share"] = seed_total / cluster_wall if cluster_wall else 0.0
    v["mixer.clinical_share_gap"] = share_gap
    return v


# -- driver ----------------------------------------------------------------------


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Closed loop of passes until `seconds` have passed (at least one)."""
    reference = reference_for(run)
    first_hashes: dict | None = None
    attempted = failed = 0
    reasons: list[str] = []
    passes, shares, traced_layers = [], [], []

    def judged(p: dict, log_prefix: str) -> float:
        nonlocal attempted, failed, first_hashes
        exits = {label: doc["exit"] for label, doc in p["commands"].items()}
        failures, share = check_outputs(run.work, run.expected, exits, log_prefix)
        hashes = check_hashes(run.work / "out", first_hashes, reference, failures)
        first_hashes = first_hashes or hashes
        attempted += len(exits)
        failed += len(failures)
        reasons.extend(f"{label}: {why}" for label, why in sorted(failures.items()))
        return share

    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        if trace:
            startup = run.cli(["--help"], "startup")[0]
            traced = inproc_pass(run, trace=True)
            share = judged(traced, "inproc-")
            shares.append(share)
            per = layers(traced, abs(share - float(Fraction(run.expected["clinical_share"]))))
            bare = inproc_pass(run, trace=False)
            judged(bare, "inproc-")
            per["cli.startup_s"] = startup
            per["trace.overhead_frac"] = (sum(d["wall"] for d in traced["commands"].values())
                                          / sum(d["wall"] for d in bare["commands"].values()) - 1)
            traced_layers.append(per)
        else:
            p = cli_pass(run)
            shares.append(judged(p, ""))
            passes.append(p)
        now = time.perf_counter()
        # stop before a round would overrun --seconds, once enough rounds are in
        last = now - round_start
        enough = len(traced_layers if trace else passes) >= (1 if trace else MIN_ROUNDS)
        if (enough and now + last > deadline) or run.remaining() < 2 * last:
            break
    return {"attempted": attempted, "failed": failed, "reasons": reasons, "hashes": first_hashes or {},
            "shares": shares, "passes": passes, "layers": traced_layers}


def l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["fine-tree", "wide-scan", "recipe-records"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "surgcurate" / "cli.py").is_file():
        print(f"error: {root} holds no surgcurate source tree (src/surgcurate)", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.tiny)
    try:
        for sub in ("logs", "tmp"):
            (run.work / sub).mkdir(parents=True, exist_ok=True)
        setup = run.setup(1 if args.trace else SETUPS)
        run.cli(["--help"], "warmup")  # compile bytecode before anything is timed
        result = measure(run, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    exp, env = run.expected, run.expected["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" nproc={os.cpu_count()} python={platform.python_version()} numpy={env['numpy']} blas={env['blas']!r}"
          f" blas_threads={env['blas_threads']} workers={WORKERS} payload_bytes={exp['payload_bytes']}"
          f" l3={l3_size()} driver_rss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    print("# artifacts " + " ".join(f"{k}={v}" for k, v in sorted(result["hashes"].items())))
    for why in result["reasons"][:20]:
        print(f"# FAILED {why}")
    print("# clinical_share " + ",".join(f"{x:.5f}" for x in result["shares"]) + f" (closed form {exp['clinical_share']})")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"# failed_frac={frac:.4f} ({result['failed']}/{result['attempted']} commands)")
    if args.trace:
        per = result["layers"]
        metrics = {name: {"value": _median([p[name] for p in per]), "unit": unit} for name, unit in PER_LAYER.items()}
        print(f"# traced passes={len(per)}")
    else:
        metrics = end_to_end(result["passes"], setup)
        print(f"# passes={len(result['passes'])} setup_runs={len(setup)} setup_s=" + ",".join(f"{t:.3f}" for t in setup))
        for label in result["passes"][0]["commands"] if result["passes"] else []:
            print(f"# {label}_s " + ",".join(f"{p['commands'][label]['wall']:.3f}" for p in result["passes"]))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
