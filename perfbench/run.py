"""End-to-end and per-layer benchmark of multidom.

One caller in one process runs a closed loop of passes over one workload;
every operation is a call into the public CLI entry point
``multidom.cli.main`` and starts only after the previous one returned.  See
README.md in this directory for the workloads and metrics.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every metric of every workload

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
check passed; it is 2 when the multidom sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "expected_digests.json"

DEFAULT_SECONDS = 40
SETUP_REPEATS = 7

# Calibration.  A probe is a fixed piece of interpreter work timed next to
# every call; a time measured between two probes is scaled by PROBE_REF_S
# over their mean.  PROBE_REF_S is one probe on an uncontended core of the
# machine the benchmark was written on (see README.md).
PROBE_REPEATS = 3
PROBE_REF_S = 0.0054

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One pass.  probes[i] is the probe time taken just before call i, and
    probes[-1] the one after the last call."""

    outcomes: list[workloads.Outcome]
    probes: list[float]
    checked: list[workloads.Checked]
    spans: list[list] | None

    def scaled(self, i: int) -> float:
        """Call i's time at the reference speed."""
        return self.outcomes[i].seconds * _scale(self.probes[i], self.probes[i + 1])

    @property
    def wall(self) -> float:
        return sum(self.scaled(i) for i in range(len(self.outcomes)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs traced passes and reports the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "multidom" / "__init__.py").is_file():
        print(f"error: no multidom sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    # failed_frac is printed but kept out of the metrics: it is 0 on working code.
    rows.append(("failed_frac", result["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"{args.workload:14s} {name:40s} {value:14.6f} {unit}")
    print(f"machine: {json.dumps(result['machine'])}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def run(workload: str, seed: int, seconds: int, traced: bool, workdir: Path) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    md, cli, ops = load(workload, seed, workdir)
    trace = tracer.Tracer() if traced else None
    passes: list[Pass] = []
    setup_raw: list[float] = []
    setup_scaled: list[float] = []

    def sample_setup():
        before = probe()
        t = time_setup(workload, seed, workdir / "setup")
        setup_raw.append(t)
        setup_scaled.append(t * _scale(before, probe()))

    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured in the same run.
        spans = None
        if trace is not None and len(passes) % 2 == 1:
            trace.install()
            try:
                outcomes, probes = run_pass(cli, ops)
            finally:
                trace.uninstall()
            spans = trace.take()
        else:
            outcomes, probes = run_pass(cli, ops)
        checked = [workloads.check_pass(op, out) for op, out in zip(ops, outcomes)]
        if passes:
            for c in checked:
                c.keep = None
        passes.append(Pass(outcomes, probes, checked, spans))
        if not traced:
            sample_setup()  # spread over the run, like the passes
        now = time.perf_counter()
        if len(passes) >= (2 if traced else 1) and (now - start) + (now - t_pass) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not traced and len(setup_scaled) < SETUP_REPEATS:
        sample_setup()

    problems, failed, digests = audit(md, workload, seed, ops, passes)
    if traced:
        traced_passes = [p for p in passes if p.spans is not None]
        metrics = traced_metrics(workload, passes, traced_passes, problems)
        tracer.write_spans(OUT / f"spans-{workload}.tsv.gz", [p.spans for p in traced_passes])
    else:
        metrics = end_to_end_metrics(ops, passes)
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": failed == 0 and not problems,
        "attempted": len(passes) * len(ops),
        "failed": failed,
        "failed_frac": failed / (len(passes) * len(ops)),
        "problems": problems,
        "digests": digests,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
        "setup": {"seconds": setup_raw, "scaled": setup_scaled},
        "passes": [
            {"traced": p.spans is not None,
             "seconds": [o.seconds for o in p.outcomes],
             "probes": p.probes,
             "scaled": [p.scaled(i) for i in range(len(ops))]}
            for p in passes
        ],
        "machine": machine(),
    }


def end_to_end_metrics(ops: list[workloads.Op], passes: list[Pass]) -> dict[str, float]:
    """Pass, greedy-only and audited times: each call's median over passes."""
    call = [statistics.median(p.scaled(i) for p in passes) for i in range(len(ops))]
    if ops[0].kind == "bench":
        # No greedy-only call: use the greedy time the bench reports record.
        solve_s = statistics.median(
            p.checked[0].reported_greedy_s * _scale(p.probes[0], p.probes[1]) for p in passes
        )
    else:
        solve_s = sum(t for op, t in zip(ops, call) if op.kind == "solve")
    return {
        "wall_s": sum(call),
        "solve_s": solve_s,
        "verify_s": sum(t for op, t in zip(ops, call) if op.kind != "solve"),
    }


def load(workload: str, seed: int, workdir: Path):
    """Import the copy of the package under test and build the inputs."""
    md = importlib.import_module("multidom")
    if Path(md.__file__).resolve().parent != SRC / "multidom":
        raise RuntimeError(f"imported multidom from {md.__file__}, not from {SRC}")
    cli = importlib.import_module("multidom.cli")
    return md, cli, workloads.build(md, workload, seed, workdir)


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time a fresh import of the package plus building the inputs into
    workdir, then put the copy under test back in place."""
    def ours(name):
        return name == "multidom" or name.startswith("multidom.")

    live = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    workdir.mkdir(exist_ok=True)
    try:
        t0 = time.perf_counter()
        load(workload, seed, workdir)
        return time.perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(live)
        gc.collect()


def run_pass(cli, ops: list[workloads.Op]) -> tuple[list[workloads.Outcome], list[float]]:
    """Run every operation once, with a probe before the first and after
    each one."""
    outcomes, probes = [], [probe()]
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a failed benchmark
            rc = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        outcomes.append(workloads.Outcome(rc, seconds, out.getvalue(), err.getvalue()))
        probes.append(probe())
    return outcomes, probes


def probe() -> float:
    """Mean time of PROBE_REPEATS runs of a fixed piece of interpreter work
    like the package's own: integer loops, dict and set updates and small
    Fraction sums."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total, counts, sizes = Fraction(0), {}, 0
        for i in range(1, 1500):
            total += Fraction(1, i % 97 + 1)
            counts[i % 113] = counts.get(i % 113, 0) + i
            sizes += len({j * i for j in range(i % 17)})
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def _scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return PROBE_REF_S * 2 / (before + after)


def audit(md, workload: str, seed: int, ops, passes: list[Pass]):
    """Check the outputs of every pass.  An operation fails in a pass when
    its exit code or per-pass checks fail, when its outputs differ from the
    first pass, or when the once-per-run checks of those outputs failed.
    Returns the problems, the failed-operation count and the digests that
    the default seed pins."""
    first = passes[0].checked
    pinned = json.loads(PINNED.read_text()).get(workload) if seed == workloads.DEFAULT_SEED else None
    once: list[list[str]] = []
    digests = []
    for i, (op, c) in enumerate(zip(ops, first)):
        probs, extra = [], ""
        if not c.problems:
            try:
                probs, extra = workloads.check_once(md, op, c, seed)
            except Exception:  # malformed output is a failed check
                probs = [traceback.format_exc(limit=2)]
        digests.append(workloads.pinned_digest(c.digest, extra))
        if pinned is not None and (i >= len(pinned) or digests[i] != pinned[i]):
            probs.append("outputs differ from the digest pinned for the default seed")
        once.append(probs)
    failed = 0
    problems = []
    for n, p in enumerate(passes):
        for i, (op, c) in enumerate(zip(ops, p.checked)):
            if c.problems:
                probs = c.problems
            elif c.digest != first[i].digest:
                probs = ["outputs differ from the first pass"]
            else:
                probs = once[i]
            if probs:
                failed += 1
                problems.extend(f"pass {n} op {i} ({' '.join(op.argv[:2])}): {x}" for x in probs)
    return problems, failed, digests


def traced_metrics(workload: str, passes: list[Pass], traced: list[Pass],
                   problems: list[str]) -> dict[str, float]:
    per_pass = []
    for p in traced:
        missing = tracer.missing_spans(workload, p.spans)
        if missing:
            problems.append(f"expected spans never fired: {', '.join(missing)}")
        per_pass.append(tracer.layer_metrics(p.spans))
    for name in tracer.COUNT_METRICS:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            problems.append(f"counter {name} differs between traced passes: {sorted(values)}")
    metrics = {
        name: per_pass[0][name] if name in tracer.COUNT_METRICS
        else statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    plain = statistics.median(p.wall for p in passes if p.spans is None)
    metrics["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / plain - 1
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_per_verify", "_per_vertex", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, untraced then traced, each in a fresh process, and
    print every metric by name with its unit."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if proc.returncode not in (0, 1) or not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
