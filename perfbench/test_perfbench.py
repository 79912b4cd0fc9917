"""The benchmark's own tests, on smoke-sized op lists.

Run from the root of the checkout: python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(root, workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


_RESULTS = {}


def result(workload, trace):
    """Last-line JSON of a smoke run, run once per (workload, trace)."""
    if (workload, trace) not in _RESULTS:
        proc = bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        _RESULTS[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[workload, trace]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    out = result(workload, trace)
    section = spec()["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert out["correct"] is True
    assert out["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_report_the_same_op_count(workload):
    assert result(workload, 0)["attempted"] == result(workload, 1)["attempted"]


def _pass_records(workload):
    result(workload, 0)
    with open(os.path.join(ROOT, ".perfbench", f"{workload}-trace0", "timed.json")) as fh:
        return json.load(fh)


def _corrupt_number(text):
    """Change the tenth character, a digit well inside the requested precision."""
    k = 9
    assert text[k].isdigit(), text
    return text[:k] + ("1" if text[k] != "1" else "2") + text[k + 1:]


def _first(res, pred):
    """The first record whose op satisfies pred."""
    for rec in res["records"]:
        if pred(res["ops"][rec["op"]]):
            return rec
    pytest.fail("no such op in the smoke list")


@pytest.mark.parametrize("workload,kind,key", [
    ("circle-ladder", "polylog", "re"),
    ("cli-cold", "zeta", "value"),
])
def test_corrupted_output_counts_in_fail_frac(workload, kind, key):
    res = _pass_records(workload)
    base, ok = run.check_records(res, check.Checker())
    assert base == [] and ok
    bad = copy.deepcopy(res)
    out = _first(bad, lambda op: check.call(op)[0] == kind)["out"]
    out[key] = _corrupt_number(out[key])
    reasons, ok = run.check_records(bad, check.Checker())
    assert len(reasons) == 1 and "wrong output" in reasons[0]
    assert not ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_an_op_that_raises_outside_the_slice_makes_the_run_incorrect(workload):
    res = _pass_records(workload)
    bad = copy.deepcopy(res)
    rec = _first(bad, lambda op: op.get("slice") != "conditioning")
    del rec["out"]
    rec["error"] = "exit 1: Traceback"
    base, _ = run.check_records(res, check.Checker())
    reasons, ok = run.check_records(bad, check.Checker())
    assert len(reasons) == len(base) + 1
    assert not ok


def test_conditioning_slice_failures_are_counted():
    out = result("torsion-corpus", 0)
    assert out["failed"] >= 1  # the known rank/tolerance defects still fail
    assert out["correct"] is True  # they raise; no output is wrong
    res = _pass_records("torsion-corpus")
    reasons, ok = run.check_records(res, check.Checker())
    assert ok and all("conditioning" in r for r in reasons)


def test_a_wrong_value_in_the_conditioning_slice_makes_the_run_incorrect():
    res = copy.deepcopy(_pass_records("torsion-corpus"))
    rec = _first(res, lambda op: op.get("slice") == "conditioning" and "expect_tau" in op["data"])
    rec.pop("error", None)
    rec["out"] = {"tau_l": ["2.5", "2.5"], "tau_c": ["2.5", "2.5"],
                  "residual": {"rank": 0, "cls": [], "is_zero": True}}
    reasons, ok = run.check_records(res, check.Checker())
    assert any(r.startswith(f"op {rec['op']} ") and "wrong output" in r for r in reasons)
    assert not ok


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "cli-cold", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_op_lists_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS:
        assert workloads.op_list(wl, 5) == workloads.op_list(wl, 5)
        assert workloads.op_list(wl, 5) != workloads.op_list(wl, 6)


def _shape(op):
    """An op with every value the seed may choose blanked out."""
    if op["kind"] == "cli":
        return [a if a.startswith("--") or i == 0 else "" for i, a in enumerate(op["argv"])]
    return {k: v for k, v in op.items() if k not in ("theta_over_2pi", "m")}


@pytest.mark.parametrize("workload", ("circle-ladder", "cli-cold"))
def test_seeds_change_values_not_costs(workload):
    """Every cost-bearing argument (prime, degree, order, zeta argument,
    angle denominator) is the same for every seed."""
    a, b = workloads.op_list(workload, 5), workloads.op_list(workload, 6)
    assert [_shape(op) for op in a] == [_shape(op) for op in b]
    cost_flags = ("--r", "--j", "--jmax", "--n", "--s", "--k", "--m")
    for x, y in zip(a, b):
        if x["kind"] == "cli" and x["argv"][0] != "normalize":  # its --j only scales a constant
            assert [v for f, v in zip(x["argv"], x["argv"][1:]) if f in cost_flags] == \
                [v for f, v in zip(y["argv"], y["argv"][1:]) if f in cost_flags]
            if "--theta-over-2pi" in x["argv"]:
                k = x["argv"].index("--theta-over-2pi") + 1
                assert x["argv"][k].split("/")[1] == y["argv"][k].split("/")[1]
        elif x["kind"] == "polylog":
            assert x["theta_over_2pi"].split("/")[1] == y["theta_over_2pi"].split("/")[1]


def _magnitudes(op):
    """What sets a corpus op's cost: its kind, field, tier and sizes."""
    if op["kind"] == "presentation":
        return [[abs(int(c)) for cell in row for c in cell] for row in op["rows"]]
    if op["kind"] == "complex" and "slice" not in op:
        gram = op["data"]["grams"][-1][0]  # its diagonal does not depend on the signs
        return op["data"]["lengths"], [str(row[i]) for i, row in enumerate(gram)]
    return None


def test_corpus_seeds_change_signs_not_sizes():
    a, b = workloads.op_list("torsion-corpus", 5), workloads.op_list("torsion-corpus", 6)
    assert [(x["kind"], x["field"], x["tier"]) for x in a] == [(y["kind"], y["field"], y["tier"]) for y in b]
    assert [_magnitudes(x) for x in a] == [_magnitudes(y) for y in b]
    assert a != b


def test_times_scale_to_the_reference_speed():
    """A time measured while the probe runs at half the reference speed
    reads half as long; an op is scaled by the mean of the probes around it."""
    assert probe.scale(3.0, 2 * probe.REF_S) == pytest.approx(1.5)
    probes = [1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 4.0]
    assert probe.WINDOW == 3
    assert probe.near(probes, 0) == pytest.approx(1.0)  # probes 0-3
    assert probe.near(probes, 3) == pytest.approx(2.5)  # probes 1-6
    assert probe.near(probes, 7) == pytest.approx(4.0)  # probes 5-8


def test_timed_results_carry_times_at_the_reference_speed():
    res = _pass_records("circle-ladder")
    assert len(res["probes"]) == run.PASSES * (len(res["ops"]) + 1)
    assert all(rec["t_ref"] > 0 for rec in res["records"])
    assert len(res["setup_ref_s"]) == run.PASSES
