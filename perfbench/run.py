"""regtor benchmark: run one workload, check every output, print the metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see README.md next to this file).  Lines before it give every metric by
name and unit, including ``fail_frac`` and ``digits_margin_min``, and the
run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.pycache_prefix = os.path.join(os.getcwd(), ".perfbench", "pycache")

import check  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import fill_bytecode, spawn  # noqa: E402

# The op list is timed once in each of this many fresh processes; each op's
# time is its median over them.  Python's speed varies between processes
# (memory layout) by up to 15% on the same input, so a single process would
# time its layout as much as the code.  Each process's set-up is one sample
# of setup_s.
PASSES = 3
# Probes the parent runs right before spawning a pass; their median is the
# speed at the start of its set-up (see probe.Clock).
SETUP_PROBES = 3
SPAWN_SAMPLES = 5
TIMEOUT_S = 170


def provenance(root):
    import mpmath
    import platform

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "commit": git_commit(root),
    }


def git_commit(root):
    """HEAD of the checkout if it is a git repository, read without git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        base = os.path.join(root, ".perfbench")
        self.work = os.path.join(base, f"{args.workload}-trace{args.trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        path = [os.path.join(root, "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PYTHONPYCACHEPREFIX=os.path.join(base, "pycache"), PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1")
        fill_bytecode(self.env, os.path.join(self.work, "fill.err"), "regtor.cli, ops, probe, tracing, worker")
        self.deadline = time.monotonic() + TIMEOUT_S

    def worker(self, tag, trace):
        """One workload pass in a fresh process; returns its result dict."""
        work = os.path.join(self.work, tag)
        os.makedirs(work)
        spec = {
            "workload": self.args.workload, "seed": self.args.seed, "smoke": self.args.smoke,
            "trace": trace,
            "work": work, "out": os.path.join(work, "result.json"), "t_spawn": 0.0,
            "probes": [probe.probe() for _ in range(SETUP_PROBES)],
        }
        spec_path = os.path.join(work, "spec.json")
        spec["t_spawn"] = time.monotonic()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), spec_path]
        left = self.deadline - time.monotonic()
        code, _ = spawn(argv, self.env, os.path.join(work, "stdout"), os.path.join(work, "stderr"),
                        timeout=max(left, 1))
        if code != 0:
            with open(os.path.join(work, "stderr"), errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise SystemExit(f"{tag} pass failed with exit code {code}:\n{tail}")
        with open(spec["out"]) as fh:
            return json.load(fh)

    def passes(self, tag, trace=False):
        """The op list run once in each of PASSES fresh processes, merged into
        one result whose records note their process in "pass"."""
        results = [self.worker(f"{tag}{p}", trace) for p in range(PASSES)]
        merged = {"ops": results[0]["ops"], "records": [], "setup_s": [r["setup_s"] for r in results],
                  "setup_ref_s": [r["setup_ref_s"] for r in results],
                  "probes": [p for r in results for p in r["probes"]],
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in results), "layers": {}, "counters": {},
                  "stdout_bytes": sum(r.get("stdout_bytes", 0) for r in results)}
        for p, r in enumerate(results):
            for rec in r["records"]:
                rec["pass"] = p
                merged["records"].append(rec)
            for tier, per in r.get("layers", {}).items():
                tracing.merge(merged["layers"].setdefault(tier, {}), per)
            tracing.merge_counters(merged["counters"], r.get("counters", {}))
        with open(os.path.join(self.work, f"{tag}.json"), "w") as fh:
            json.dump(merged, fh)
        return merged

    def spawn_floor(self):
        """Median time for a fresh interpreter that only imports regtor.cli."""
        times = []
        for i in range(SPAWN_SAMPLES + 1):
            t0 = time.perf_counter()
            spawn([sys.executable, "-c", "import regtor.cli"], self.env, os.devnull, os.devnull)
            times.append(time.perf_counter() - t0)
        return statistics.median(times[1:])  # the first one may fill the bytecode cache


def tail_index(n):
    """Index into sorted op times of the highest percentile with >= 10 ops beyond it."""
    return max(n - 11, 0)


def timing_metrics(res, key="t_ref"):
    """End-to-end times from each op's median time over the passes: at the
    reference speed (key "t_ref", see probe.py), or as measured ("t")."""
    per_op = {}
    for r in res["records"]:
        per_op.setdefault(r["op"], []).append(r[key])
    medians = {i: statistics.median(ts) for i, ts in per_op.items()}
    times = sorted(medians.values())
    k = tail_index(len(times))
    m = {
        "wall_s": sum(times),
        **{f"wall_s.d{d}": sum(t for i, t in medians.items() if res["ops"][i]["tier"] == d) for d in workloads.TIERS},
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[k],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return m, 100.0 * (k + 1) / len(times)


def top_layers(res, n=4):
    """Per tier, the functions with the most self time, as a share of the
    tier's traced wall time."""
    lines = []
    for tier, per in sorted(res["layers"].items(), key=lambda kv: int(kv[0])):
        wall = sum(r["t"] for r in res["records"] if r["tier"] == int(tier))
        top = sorted(per.items(), key=lambda kv: -kv[1][1])[:n]
        lines.append(f"  d{tier} self time: " + ", ".join(
            f"{name} {self_s:.3f} s ({100 * self_s / wall:.0f}%)" for name, (_, self_s) in top))
    return lines


def check_records(res, checker):
    """Failure reasons for the op runs of a result, one line per failed run,
    and whether the result is correct.

    It is correct when no output is wrong and every op outside the
    torsion-corpus conditioning slice finished.  Slice ops may fail by
    raising: that is the known defect they measure, counted in ``failed``.
    An output identical to one already checked for the same op gets the
    same verdict.
    """
    reasons, correct, seen = [], True, {}
    for rec in res["records"]:
        i = rec["op"]
        op = res["ops"][i]
        key = (i, json.dumps(rec.get("out"), sort_keys=True), rec.get("error"))
        if key not in seen:
            seen[key] = checker.check(op, rec)
        why = seen[key]
        if why:
            name, _ = check.call(op)
            where = f"d{op['tier']}" + (f", {op['slice']}" if "slice" in op else "")
            reasons.append(f"op {i} ({name}, {where}): {why}")
            if "error" not in rec or op.get("slice") != "conditioning":
                correct = False
    return reasons, correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="accepted for the benchmark's calling convention; each seed has one fixed op list, "
                         "timed the same way on every run, so this does not change the work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small op lists, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "regtor", "__init__.py")):
        print("error: run from the root of a regtor checkout (src/regtor is missing)", file=sys.stderr)
        return 2
    # This process and every child run on one CPU, so each probe runs on
    # the CPU of the op it scales; the CPUs of a shared host change speed
    # independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(args, root)
    prov = provenance(root)
    checker = check.Checker()
    lines = [f"provenance {json.dumps(prov)}"]
    if prov["backend"] != "python":
        lines.append(f"WARNING: mpmath backend is {prov['backend']!r}, not 'python'; "
                     "numbers are not comparable with pure-Python runs")

    if not args.trace:
        res = runner.passes("timed")
        reasons, correct = check_records(res, checker)
        metrics, pct = timing_metrics(res)
        metrics["setup_s"] = statistics.median(res["setup_ref_s"])
        measured = timing_metrics(res, "t")[0]
        measured["setup_s"] = statistics.median(res["setup_s"])
        del measured["peak_rss_mb"]
        attempted, failed = len(res["records"]), len(reasons)
        units = {m["name"]: m["unit"] for m in load_spec(root)["end_to_end"]}
        extra = {
            "fail_frac": (failed / attempted, "ratio"),
            "digits_margin_min": (min(checker.margins) if checker.margins else float("nan"), "digits"),
        }
        lines.append(f"workload {args.workload} seed {args.seed}: {attempted} op runs "
                     f"({len(res['ops'])} ops x {PASSES} processes), {failed} failed; "
                     f"setup samples {[round(s, 4) for s in res['setup_ref_s']]}")
        lines.append(f"probe median {statistics.median(res['probes']) * 1e3:.3f} ms, reference "
                     f"{probe.REF_S * 1e3:.3f} ms; times below are at the reference speed. As measured: "
                     + ", ".join(f"{k} {v:.4f}" for k, v in measured.items()))
    else:
        plain = runner.passes("untraced")
        res = runner.passes("traced", trace=True)
        _, plain_correct = check_records(plain, checker)  # its outputs must be right too
        reasons, correct = check_records(res, checker)
        correct = correct and plain_correct
        attempted, failed = len(res["records"]), len(reasons)
        layers = {}
        for per_tier in res["layers"].values():
            tracing.merge(layers, per_tier)
        metrics = {}
        for name in tracing.TRACED:
            calls, self_s = layers.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
        for name in tracing.COUNTERS:
            metrics[name] = res["counters"].get(name, 0)
        metrics["cli.spawn_s"] = runner.spawn_floor()
        metrics["cli.stdout_bytes"] = res["stdout_bytes"]
        metrics["trace.overhead_s"] = timing_metrics(res)[0]["wall_s"] - timing_metrics(plain)[0]["wall_s"]
        units = {m["name"]: m["unit"] for m in load_spec(root)["per_layer"]}
        extra = {}
        lines.append(f"workload {args.workload} seed {args.seed} (traced): {attempted} op runs, {failed} failed")
        lines += top_layers(res)
    for r in reasons:
        lines.append(f"  failed {r}")
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        label = f"{name} ({unit})"
        if name == "op_tail_s":
            label += f" at p{pct:.1f}"
        lines.append(f"  {label:<48} {value}")
        out[name] = {"value": value, "unit": unit}
    for name, (value, unit) in extra.items():
        lines.append(f"  {name + ' (' + unit + ')':<48} {value}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    with open(os.path.join(runner.work, "summary.json"), "w") as fh:
        json.dump({"provenance": prov, "lines": lines, "reasons": reasons, "result": summary,
                   "op_tail_percentile": None if args.trace else pct}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


def load_spec(root):
    """BENCHMARK.json at the root of the checkout: metric names and units."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
