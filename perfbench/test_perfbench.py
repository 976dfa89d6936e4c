"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench -q

They run each workload small, show that every output check fires on a
corrupted input, and run the command end to end. They are not part of the
repository's tier-1 suite.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from rowsparse import experiment, moments  # noqa: E402
from rowsparse.groups import FiniteAbelianGroup  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_CELLS = (("Z2-n8", (2,), 8), ("Z3-n5", (3,), 5), ("Z2xZ2-n4", (2, 2), 4), ("Z5-n3", (5,), 3))


def tiny_campaign(model, tmp_path):
    if model == "bn_matrix":
        wl = workloads.Campaign("bn_matrix", n=6, k=3, trials=4)
    else:
        wl = workloads.Campaign("hypertree", n=6, trials=4)
    wl.setup(5, tmp_path)
    return wl


def tiny_sweep(tmp_path, corrupt=None):
    pins = {}
    for label, divs, n in TINY_CELLS:
        value = moments.surjection_moment_bruteforce(FiniteAbelianGroup(divs), n, 3)
        pins[label] = workloads.fraction_text(value + (1 if label == corrupt else 0))
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    wl = workloads.MomentSweep(cells=TINY_CELLS, pinned=path)
    wl.setup(5, tmp_path)
    return wl


def trials_file(tmp_path):
    cfg = experiment.ExperimentConfig(model="bn_matrix", n=6, k=3, trials=4, seed=9)
    experiment.run_campaign(cfg, out_dir=str(tmp_path / "c"))
    return cfg, (tmp_path / "c" / "trials.jsonl").read_bytes()


# -- each workload, small ----------------------------------------------------


@pytest.mark.parametrize("model", ["bn_matrix", "hypertree"])
def test_campaign_tiny_passes_checks(model, tmp_path):
    wl = tiny_campaign(model, tmp_path)
    results = workloads.run_jobs(wl, 5, 0.0, NullTracer())
    assert len(results) == 2  # one rerun pair
    assert sum(r.attempted for r in results) == 8
    assert sum(r.failed for r in results) == 0, [p for r in results for p in r.problems]
    assert list(tmp_path.iterdir()) == []  # job directories are removed


def test_moment_sweep_tiny_passes_checks(tmp_path):
    wl = tiny_sweep(tmp_path)
    results = workloads.run_jobs(wl, 5, 0.0, NullTracer())
    assert sorted(r.kind for r in results) == sorted(label for label, _, _ in TINY_CELLS)
    assert sum(r.attempted for r in results) == 4
    assert sum(r.failed for r in results) == 0, [p for r in results for p in r.problems]


def test_moment_sweep_takes_the_cells_in_turn(tmp_path):
    wl = tiny_sweep(tmp_path)
    kinds = [wl.job(5, i, NullTracer()).kind for i in range(9)]
    assert kinds[:4] == kinds[4:8] and kinds[8] == kinds[0]
    assert sorted(kinds[:4]) == sorted(label for label, _, _ in TINY_CELLS)


def test_job_seconds_adds_the_mean_of_each_kind():
    results = [workloads.JobResult(w, 1, 0, kind=k)
               for w, k in ((1.0, "a"), (3.0, "a"), (5.0, "b"))]
    assert workloads.job_seconds(results) == pytest.approx(2.0 + 5.0)
    assert workloads.job_seconds(results[:2]) == pytest.approx(2.0)


def test_verify_fast_passes_checks(tmp_path):
    wl = workloads.VerifyFast()
    wl.setup(5, tmp_path)
    result = wl.job(5, 0, NullTracer())
    assert result.attempted == 7
    assert result.failed == 0, result.problems


# -- every check fires on a corrupted input ------------------------------------


@pytest.mark.parametrize("field,value", [
    ("free_rank", 1),
    ("f2_corank", 99),
    ("sylow", {"2": [], "3": []}),
])
def test_tampered_trial_record_fails(field, value, tmp_path):
    cfg, data = trials_file(tmp_path)
    assert workloads.check_trials(data, cfg)[0] == 0
    lines = data.decode().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    lines[1] = json.dumps(rec, sort_keys=True)
    failed, problems, _ = workloads.check_trials("\n".join(lines).encode(), cfg)
    assert failed == 1 and problems


def test_missing_trial_record_fails(tmp_path):
    cfg, data = trials_file(tmp_path)
    shorter = b"".join(data.splitlines(keepends=True)[:-1])
    assert workloads.check_trials(shorter, cfg)[0] == 1


def test_changed_rerun_bytes_fail(tmp_path):
    _, data = trials_file(tmp_path)
    assert workloads.rerun_problems(data, data, 9) == (0, [])
    changed = data.replace(b'"trial_id": 2', b'"trial_id": 7')
    failed, problems = workloads.rerun_problems(data, changed, 9)
    assert failed == 1 and problems


def test_wrong_pinned_moment_fails(tmp_path):
    wl = tiny_sweep(tmp_path, corrupt="Z3-n5")
    results = workloads.run_jobs(wl, 5, 0.0, NullTracer())
    problems = [p for r in results for p in r.problems]
    assert sum(r.failed for r in results) == 1
    assert len(problems) == 1 and problems[0].startswith("Z3-n5")


def test_the_shipped_pins_are_read_for_every_cell():
    pins = json.loads(workloads.PINNED_MOMENTS.read_text())
    assert set(pins) == {label for label, _, _ in workloads.MOMENT_CELLS}
    z2xz2 = Fraction(pins["Z2xZ2-n30"])
    assert z2xz2 == moments.surjection_moment_exact(FiniteAbelianGroup((2, 2)), 30, 3)


def test_raising_cell_counts_as_failed(tmp_path, monkeypatch):
    wl = tiny_sweep(tmp_path)

    def broken(group, n, k):
        raise ArithmeticError("boom")

    monkeypatch.setattr(moments, "surjection_moment_exact", broken)
    results = workloads.run_jobs(wl, 5, 0.0, NullTracer())
    assert [(r.attempted, r.failed) for r in results] == [(1, 1)] * 4


def test_crashed_first_of_pair_is_not_compared(tmp_path, monkeypatch):
    wl = tiny_campaign("bn_matrix", tmp_path)
    wl._first_of_pair = b"bytes of an earlier pair"
    real = experiment.run_campaign

    def broken(cfg, out_dir=None):
        raise ArithmeticError("boom")

    monkeypatch.setattr(experiment, "run_campaign", broken)
    crashed = wl.job(5, 0, NullTracer())
    assert crashed.failed == crashed.attempted == 4
    monkeypatch.setattr(experiment, "run_campaign", real)
    second = wl.job(5, 1, NullTracer())
    assert second.failed == 0, second.problems


def test_failed_ledger_entry_fails(tmp_path, monkeypatch):
    wl = workloads.VerifyFast()
    wl.setup(5, tmp_path)
    ledger = [{"name": "a", "status": "pass", "detail": ""},
              {"name": "b", "status": "fail", "detail": "AssertionError"}]
    monkeypatch.setattr(experiment, "verify_suite", lambda level: ledger)
    result = wl.job(5, 0, NullTracer())
    assert (result.attempted, result.failed) == (2, 1)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", new_trace=True):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent == outer.id and first.trace == first.id
    assert second.trace == outer.trace
    own = tracer.self_seconds()
    assert own[0] == pytest.approx(outer.seconds - first.seconds - second.seconds)


def test_patch_restores_and_records_errors():
    class Host:
        @staticmethod
        def fail():
            raise KeyError("x")

    original = vars(Host)["fail"]
    tracer = Tracer()
    tracer.patch(Host, "fail", "host.fail")
    with pytest.raises(KeyError):
        Host.fail()
    tracer.restore()
    assert vars(Host)["fail"] is original
    assert tracer.spans[0].error == "KeyError"


@pytest.mark.parametrize("model", ["bn_matrix", "hypertree"])
def test_traced_campaign_accounts_for_the_trial(model, tmp_path):
    wl = tiny_campaign(model, tmp_path)
    tracer = Tracer()
    untraced, traced = workloads.run_alternating(wl, 5, 0.0, tracer)
    assert len(untraced) == len(traced) == 2
    assert not tracer._patched  # every wrapper was taken out again
    assert sum(r.failed for r in untraced + traced) == 0
    metrics = workloads.layer_metrics(tracer, untraced, traced, wl.properties(traced))
    for name in ("sampling.draw_ms_p50", "sampling.matrix_build_ms_p50", "snf.cokernel_ms_p50",
                 "snf.rank_mod2_ms_p50", "snf.sylow_ms_p50", "experiment.trial_ms_p50",
                 "experiment.report_ms", "sampling.host_rows"):
        assert metrics[name] > 0, name
    assert metrics["sampling.draws"] == 8
    assert 0 <= metrics["experiment.unattributed_frac"] < 0.5


# -- the command -----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == workloads.PER_LAYER_UNITS


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


# the layers each workload must actually measure when traced
LIVE_LAYERS = {
    "bn-n30-k3": ("sampling.first_draw_ms", "sampling.draw_ms_p50", "snf.cokernel_ms_p50",
                  "experiment.trial_ms_p50", "experiment.report_ms"),
    "hypertree-n16": ("sampling.first_draw_ms", "sampling.draw_ms_p50", "snf.cokernel_ms_p50",
                      "snf.rank_mod2_ms_p50", "experiment.trial_ms_p50"),
    "moment-sweep": tuple(f"moments.{kind}.{label}" for kind in ("cell_s", "types")
                          for label, _, _ in workloads.MOMENT_CELLS),
    "verify-fast": ("sampling.micro_draw_us_p50", "sampling.enumerate_ms",
                    "moments.cross_method_ms", "structured.gram_identity_ms",
                    "defect.subset_mass_ms"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == workloads.PER_LAYER_UNITS
    for name in LIVE_LAYERS[workload]:
        assert metrics[name]["value"] > 0, name
    assert (HERE / "out" / f"spans-{workload}-seed3.jsonl").is_file()


def test_untraced_run_emits_every_end_to_end_metric():
    proc = bench("--workload", "bn-n30-k3", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 80
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((HERE / "out" / "result-bn-n30-k3-seed3-trace0.json").read_text())
    for key in ("python", "nproc", "cpu_model", "git_commit", "src_sha256", "src_lines",
                "blas_threads", "seed"):
        assert key in record["provenance"]
    assert record["environment"]["numpy"]
    assert record["properties"]["host_rows"] == 27000


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bn-n30-k3", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
