import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rowsparse
from rowsparse import cli, experiment, sampling
from rowsparse.cli import build_parser, main
from rowsparse.errors import InvalidInputError
from rowsparse.experiment import (
    FULL_ONLY,
    IDENTITIES,
    ExperimentConfig,
    TrialRecord,
    load_trials,
    report_moment,
    report_tv,
    run_campaign,
    run_trial,
    verify_suite,
    wilson_interval,
    worker_count,
)
from rowsparse.groups import FiniteAbelianGroup
from rowsparse.moments import surjection_moment_exact
from rowsparse.sampling import BATCH_WALK_MIN, FLOAT_ENTRY_LIMIT, BasisSumRows, sample_volume
from rowsparse.snf import cokernel
from test_snf import rank_mod_p_reference


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=5, trials=10, seed=0)  # neither k nor schedule
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=5, trials=10, seed=0, k=3, k_schedule="loglog:1")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=5, trials=10, seed=0, k=2)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=5, trials=10, seed=0, k=3, primes=(4,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=5, trials=10, seed=0, k=3, model="surface")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=3, trials=10, seed=0, model="hypertree")
    for weight in ({"k": 5}, {"k_schedule": "pow:0.5"}):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(n=6, trials=3, seed=0, model="hypertree", **weight)
    # at construction: n = 0 used to divide by zero in _chunks, a negative seed to fail in numpy
    for n in (0, -1):
        with pytest.raises(InvalidInputError, match="n >= 1"):
            ExperimentConfig(n=n, trials=2, seed=0, k=3)
    for weight in ({"k": 3}, {"model": "hypertree"}):
        with pytest.raises(InvalidInputError, match="seed"):
            ExperimentConfig(n=6, trials=2, seed=-1, **weight)


def test_config_rejects_an_unknown_precision():
    # at construction, not at the campaign's first chunk draw
    with pytest.raises(InvalidInputError, match="precision"):
        ExperimentConfig(n=6, k=3, trials=2, seed=0, precision="float32")
    # the config and the CLI take the precisions the sampler accepts
    argv = ["campaign", "--n", "6", "--trials", "2", "--precision"]
    for precision in sampling.PRECISIONS:
        ExperimentConfig(n=6, k=3, trials=2, seed=0, precision=precision)
        assert build_parser().parse_args(argv + [precision]).precision == precision
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["float32"])


@pytest.mark.parametrize("argv", [
    ["campaign", "--n", "0", "--k", "3", "--trials", "2"],
    ["campaign", "--n", "6", "--k", "3", "--trials", "2", "--seed", "-1"],
    ["sample", "--n", "5", "--k", "3", "--seed", "-1"],
    ["defect", "--n", "5", "--k", "3", "--trials", "100", "--seed", "-1"],
], ids=["campaign-n", "campaign-seed", "sample-seed", "defect-seed"])
def test_cli_bad_n_or_seed_is_reported(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_k_schedule_resolution():
    assert ExperimentConfig(n=100, trials=1, seed=0, k_schedule="loglog:2.0").resolve_k() == 4
    assert ExperimentConfig(n=100, trials=1, seed=0, k_schedule="pow:0.4").resolve_k() == 7
    # clamped at the minimum row weight
    assert ExperimentConfig(n=10, trials=1, seed=0, k_schedule="loglog:0.5").resolve_k() == 3
    assert ExperimentConfig(n=50, trials=1, seed=0, k=5).resolve_k() == 5
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n=10, trials=1, seed=0, k_schedule="cubic:1").resolve_k()


def test_single_column_model_is_deterministic():
    cfg = ExperimentConfig(n=1, trials=4, seed=3, k=3, primes=(2, 3))
    records, _ = run_campaign(cfg)
    assert all(rec.divisors == (3,) for rec in records)
    assert all(rec.sylow[3] == (1,) and rec.sylow[2] == () for rec in records)
    assert all(rec.f2_corank == 0 for rec in records)


def test_trial_consistency_fields():
    cfg = ExperimentConfig(n=8, trials=30, seed=5, k=3, primes=(2, 3, 5))
    records, _ = run_campaign(cfg)
    for rec in records:
        assert rec.n == 8 and rec.k == 3
        assert rec.det_zero == (rec.free_rank > 0)
        if not rec.det_zero:
            assert len(rec.sylow[2]) == rec.f2_corank
        for a, b in zip(rec.divisors, rec.divisors[1:]):
            assert b % a == 0


def test_campaign_outputs_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(n=5, trials=12, seed=9, k=3)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_campaign(cfg, out_dir=str(d1))
    run_campaign(cfg, out_dir=str(d2))
    for name in ("trials.jsonl", "report.json", "report.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("model,n,k,trials,digest", [
    ("bn_matrix", 12, 3, 30, "e93437e9b626c853d90e4d81990f64b750a28769c1fa11b1b8a10efcc7198f43"),
    ("hypertree", 8, None, 20, "e58bdb5e963dcc934618ff31184fc28c3fae3699dabe4e43afc711b84f53548f"),
    ("hypertree", 16, None, 24, "be16eddbc9b74244822ce8c8ca395250c11ff33cc4b1cae7ce651cc9083ef63d"),
], ids=["bn-12-3", "hypertree-8", "hypertree-16"])
def test_seeded_trials_file_is_pinned(tmp_path, model, n, k, trials, digest):
    # a change to the sampler streams or to the cokernel must show up as a change to this digest
    run_campaign(ExperimentConfig(n=n, trials=trials, seed=42, model=model, k=k), out_dir=str(tmp_path))
    assert hashlib.sha256((tmp_path / "trials.jsonl").read_bytes()).hexdigest() == digest


def test_trial_at_n100_k7_finishes():
    # (100, 7) leaves a dense core of about 28 rows after the unit pivots
    rec = run_trial(ExperimentConfig(n=100, trials=1, seed=0, k=7), 0)
    assert not rec.det_zero and rec.k == 7
    assert rec.f2_corank == sum(1 for d in rec.divisors if d % 2 == 0) == len(rec.sylow[2])


@pytest.mark.parametrize("model,n,k", [("bn_matrix", 12, 3), ("bn_matrix", 30, 4), ("hypertree", 12, None)])
def test_f2_corank_is_read_off_the_one_elimination(monkeypatch, model, n, k):
    # each trial reduces its matrix once, and the F_2 corank it reads off that cokernel is
    # the corank of Gaussian elimination over F_2
    calls = []
    monkeypatch.setattr(experiment, "cokernel", lambda *args: calls.append(args) or cokernel(*args))
    monkeypatch.setattr(experiment, "rank_mod_p", lambda *args: pytest.fail("a second elimination"))
    cfg = ExperimentConfig(n=n, trials=12, seed=7, model=model, k=k)
    family = experiment._trial_family(cfg)
    coranks = []
    for i in range(cfg.trials):
        rec = run_trial(cfg, i)
        subset = sample_volume(family, experiment._trial_rng(cfg, i))
        mat = [family.dense_row(family.item_index(ident)) for ident in subset]
        assert rec.f2_corank == rank_mod_p_reference(mat, 2)[1]
        coranks.append(rec.f2_corank)
    assert len(calls) == cfg.trials
    assert max(coranks) > 0


@pytest.mark.parametrize("model,n,k", [("bn_matrix", 12, 3), ("hypertree", 8, None)])
def test_campaigns_call_the_names_the_benchmark_traces(monkeypatch, model, n, k):
    # the benchmark times a campaign's layers by wrapping these module attributes of
    # experiment, so a campaign must keep reaching them there, as often as this
    calls = {}
    for name in ("run_trial", "cokernel", "sylow", "sample_volume", "build_report"):
        def counted(*args, _real=getattr(experiment, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    cfg = ExperimentConfig(n=n, trials=6, seed=3, model=model, k=k)
    run_campaign(cfg)
    assert calls == {
        "run_trial": cfg.trials,
        "cokernel": cfg.trials,
        "sylow": cfg.trials * len(cfg.primes),
        "sample_volume": len(experiment._chunks(cfg)),
        "build_report": 1,
    }


def test_campaign_parallel_matches_serial(tmp_path):
    cfg = ExperimentConfig(n=4, trials=10, seed=2, k=3)
    serial, _ = run_campaign(cfg)
    os.environ["ROWSPARSE_WORKERS"] = "2"
    try:
        parallel, _ = run_campaign(cfg)
    finally:
        del os.environ["ROWSPARSE_WORKERS"]
    assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]


@pytest.mark.parametrize("n,k", [(3, 3), (30, 3), (100, 10), (100, 252), (10, 1000), (3000, 3)])
def test_chunk_fits_the_float_caps(n, k):
    # arithmetic only: no draw is made
    entries = max(n * n, n * k)
    cfg = ExperimentConfig(n=n, trials=2 * 10**5, seed=0, k=k)
    chunks = experiment._chunks(cfg)
    assert chunks[0].start == 0 and chunks[-1].stop == 2 * 10**5
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    chunk = max(map(len, chunks))
    assert 1 <= chunk <= experiment._trial_family(cfg).walk_size()
    assert chunk * entries <= FLOAT_ENTRY_LIMIT  # every host a single draw admits stays admitted
    assert chunk == 1 or chunk * entries <= BasisSumRows.WALK_ENTRIES <= FLOAT_ENTRY_LIMIT


@pytest.mark.parametrize(
    "n,trials,sizes", [(16, 24, [12, 12]), (16, 100, [20] * 5), (24, 10, [4, 4, 2])]
)
def test_hypertree_chunks_hold_one_walk(n, trials, sizes):
    # arithmetic only: a hypertree campaign holds one walk's Generators and subsets at a
    # time, at most 23 trials at n = 16 and 4 at n = 24
    cfg = ExperimentConfig(n=n, trials=trials, seed=0, model="hypertree")
    assert [len(c) for c in experiment._chunks(cfg)] == sizes
    assert max(sizes) <= experiment._trial_family(cfg).walk_size() == {16: 23, 24: 4}[n]


def test_chunks_split_the_trials_over_the_workers(monkeypatch):
    def sizes(trials, workers):
        cfg = ExperimentConfig(n=30, trials=trials, seed=0, k=3)
        return [len(r) for r in experiment._chunks(cfg, workers)]

    assert sizes(40, 1) == [40] and sizes(40, 2) == [20, 20]
    assert sizes(41, 2) == [21, 20] and sizes(41, 3) == [14, 14, 13]
    # 5,000 trials at up to 1,066 per chunk: five chunks of 1,000, or six for two workers
    assert BasisSumRows(30, 3).walk_size() == 1066
    assert sizes(5000, 1) == [1000] * 5 and sizes(5000, 2) == [834] * 5 + [830]
    # the chunk follows the host's walk budget: at most 100 trials of 900 entries
    monkeypatch.setattr(BasisSumRows, "WALK_ENTRIES", 100 * 900)
    assert sizes(250, 1) == [84, 84, 82]


@pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "two-workers"])
def test_chunked_campaign_equals_standalone_trials(monkeypatch, workers):
    # two chunks: BATCH_WALK_MIN trials in the batched walk, one fewer in the per-call loop
    monkeypatch.setattr(BasisSumRows, "WALK_ENTRIES", BATCH_WALK_MIN * 4 * 4)
    if workers is None:
        monkeypatch.delenv("ROWSPARSE_WORKERS", raising=False)
    else:
        monkeypatch.setenv("ROWSPARSE_WORKERS", workers)
    draws = []
    sample = experiment.sample_volume

    def counted(family, rngs, precision):
        draws.append(len(rngs))
        return sample(family, rngs, precision)

    monkeypatch.setattr(experiment, "sample_volume", counted)
    cfg = ExperimentConfig(n=4, trials=2 * BATCH_WALK_MIN - 1, seed=6, k=3)
    records, _ = run_campaign(cfg)
    if workers is None:
        assert draws == [BATCH_WALK_MIN, BATCH_WALK_MIN - 1]  # one draw call per chunk
    monkeypatch.setattr(experiment, "sample_volume", sample)
    assert records == [run_trial(cfg, i) for i in range(cfg.trials)]


def test_worker_count_validation(monkeypatch):
    monkeypatch.delenv("ROWSPARSE_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("ROWSPARSE_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("ROWSPARSE_WORKERS", "64")
    assert worker_count() == 4  # capped at the CPU count
    for bad in ("two", "1.5", "", "0", "-2"):
        monkeypatch.setenv("ROWSPARSE_WORKERS", bad)
        with pytest.raises(InvalidInputError):
            worker_count()


def test_trials_roundtrip(tmp_path):
    cfg = ExperimentConfig(n=5, trials=6, seed=1, k=3)
    records, _ = run_campaign(cfg, out_dir=str(tmp_path))
    loaded = load_trials(tmp_path / "trials.jsonl")
    assert [r.to_json_dict() for r in loaded] == [r.to_json_dict() for r in records]


def test_report_conservation_and_tv_range():
    cfg = ExperimentConfig(n=10, trials=80, seed=4, k=3, primes=(2, 3))
    records, report = run_campaign(cfg)
    for p in ("2", "3"):
        block = report["sylow"][p]
        total = sum(e["freq"] for e in block["entries"])
        total += block["other_freq"] + block["infinite_freq"]
        assert total == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= block["tv"] <= 1.0
        for e in block["entries"]:
            lo, hi = e["wilson"]
            assert 0.0 <= lo <= e["freq"] <= hi <= 1.0 or e["count"] == 0


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_report_moment_trivial_and_single():
    triv = FiniteAbelianGroup(())
    rec = TrialRecord(0, (0, 0), 3, 3, False, (3,), {2: (), 3: (1,)}, 0)
    est, se = report_moment([rec], triv)
    assert est == 1 and se is None
    Z2 = FiniteAbelianGroup((2,))
    est, se = report_moment([rec, rec], Z2)
    assert est == 0.0 and se == 0.0


def test_report_tv_counts_infinite_bucket():
    Z2 = FiniteAbelianGroup((2,))
    finite = TrialRecord(0, (0, 0), 3, 3, False, (2,), {2: (1,)}, 1)
    infinite = TrialRecord(1, (0, 1), 3, 3, True, (), {2: None}, 3, free_rank=1)
    block = report_tv([finite, infinite], 2, cap=8)
    assert block["infinite_freq"] == 0.5
    entries = {e["group"]: e for e in block["entries"]}
    assert entries["Z/2"]["freq"] == 0.5
    with pytest.raises(InvalidInputError):
        report_tv([], 2, 8)


def test_report_moment_requires_free_rank_data():
    Z2 = FiniteAbelianGroup((2,))
    infinite = TrialRecord(1, (0, 1), 3, 3, True, (), {2: None}, 3, free_rank=1)
    est, _ = report_moment([infinite, infinite], Z2)
    assert est == 1.0  # one surjection Z -> Z/2


def test_monte_carlo_moment_matches_exact():
    cfg = ExperimentConfig(n=6, trials=1500, seed=77, k=3, primes=(2,))
    records, _ = run_campaign(cfg)
    Z2 = FiniteAbelianGroup((2,))
    est, se = report_moment(records, Z2)
    exact = float(surjection_moment_exact(Z2, 6, 3))
    assert abs(est - exact) <= 3 * se


def test_cl_convergence_where_hypotheses_hold():
    """k = 3 with p = 5: the 5-Sylow distribution approaches the reference law
    already at n = 30 (the regime where gcd(|G|, k) = 1)."""
    cfg = ExperimentConfig(n=30, trials=800, seed=123, k=3, primes=(5,))
    records, _ = run_campaign(cfg)
    block = report_tv(records, 5, cap=625)
    assert block["tv"] <= 0.15
    est, se = report_moment(records, FiniteAbelianGroup((5,)))
    assert abs(est - 1.0) <= max(3 * (se or 0.0), 0.3)


def test_verify_suite_fast_all_pass():
    ledger = verify_suite("fast")
    assert all(entry["status"] == "pass" for entry in ledger)
    names = [entry["name"] for entry in ledger]
    assert names == [
        "gram-identity",
        "hypertree-identity",
        "sampler-vs-oracle",
        "moment-cross-method",
        "isolated-double-probability",
        "annihilation-normalization",
        "kl-curvature",
    ]
    for entry in ledger:
        assert set(entry) == {"name", "status", "elapsed_ms", "detail"}
    with pytest.raises(InvalidInputError):
        verify_suite("medium")


def test_verify_suite_runs_the_identity_registry(monkeypatch):
    # stub checks keep the test cheap; the real checks run in the acceptance gate
    levels = []
    stubs = {name: (lambda full: levels.append(full) or "") for name in IDENTITIES}
    monkeypatch.setattr(experiment, "IDENTITIES", stubs)
    assert [entry["name"] for entry in verify_suite("full")] == list(IDENTITIES)
    assert levels == [True] * len(IDENTITIES)
    fast = [entry["name"] for entry in verify_suite("fast")]
    assert fast == [name for name in IDENTITIES if name not in FULL_ONLY]
    assert fast == [
        "gram-identity",
        "hypertree-identity",
        "sampler-vs-oracle",
        "moment-cross-method",
        "isolated-double-probability",
        "annihilation-normalization",
        "kl-curvature",
    ]


def test_cli_sample_and_verify(capsys):
    assert main(["sample", "--n", "1", "--k", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "divisors: [3]" in out
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "identities verified" in out


def test_cli_moment_exact(capsys):
    assert main(["moment-exact", "--group", "2", "--n", "4", "--k", "3"]) == 0
    out = capsys.readouterr().out
    exact = surjection_moment_exact(FiniteAbelianGroup((2,)), 4, 3)
    assert f"{exact.numerator}/{exact.denominator}" in out


def test_cli_cl_table(capsys):
    assert main(["cl-table", "--prime", "2", "--cap", "4"]) == 0
    out = capsys.readouterr().out
    assert "Z/4" in out and "Z/2+Z/2" in out
    assert main(["cl-table", "--prime", "2", "--law", "corank", "--cap", "3"]) == 0


def test_cli_defect(capsys):
    assert main(["defect", "--n", "20", "--k", "3", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert "bonferroni" in out


@pytest.mark.parametrize("schedule", ["pow:abc", "pow", "pow:inf", "loglog:nan"])
def test_cli_malformed_k_schedule_is_reported(capsys, schedule):
    argv = ["campaign", "--n", "30", "--trials", "2", "--k-schedule", schedule]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and schedule in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["campaign", "--model", "hypertree", "--n", "6", "--trials", "3", "--k", "5"],
    ["campaign", "--model", "hypertree", "--n", "6", "--trials", "3", "--k-schedule", "pow:abc"],
    ["sample", "--model", "hypertree", "--n", "6", "--k", "4"],
], ids=["campaign-k", "campaign-k-schedule", "sample-k"])
def test_cli_hypertree_refuses_a_row_weight(capsys, argv):
    # the hypertree model has no row weight: a given one used to be dropped, reported as null
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "hypertree model takes no" in captured.err
    assert captured.out == ""


def test_cli_defect_passes_the_precision(capsys):
    # 9^7 host rows exceed the exact sampler's cap, so only a run that reaches the sampler
    # with precision exact exits 2; a float run draws and exits 0
    argv = ["defect", "--n", "9", "--k", "7", "--trials", "100", "--precision", "exact"]
    assert main(argv) == 2
    assert "exact mode caps the item count" in capsys.readouterr().err


@pytest.mark.parametrize("other", [{"n": 6}, {"k": 5}, {"seed": 1}, {"primes": (2,)}],
                         ids=["n", "k", "seed", "primes"])
def test_cli_report_rejects_a_mixed_trials_file(capsys, tmp_path, other):
    texts = []
    for i, change in enumerate(({}, other)):
        cfg = ExperimentConfig(**{"n": 4, "trials": 3, "seed": 0, "k": 3, **change})
        run_campaign(cfg, out_dir=str(tmp_path / str(i)))
        texts.append((tmp_path / str(i) / "trials.jsonl").read_text())
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(texts))
    assert main(["report", "--trials", str(mixed), "--prime", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {mixed} line 4 differs from the first record")
    assert captured.out == ""


def test_cli_campaign_and_report(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    code = main(
        ["campaign", "--n", "4", "--k", "3", "--trials", "8", "--seed", "3",
         "--out", str(out_dir)]
    )
    assert code == 0
    capsys.readouterr()
    assert (out_dir / "trials.jsonl").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    code = main(
        ["report", "--trials", str(out_dir / "trials.jsonl"), "--prime", "2",
         "--cap", "8", "--group", "2"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "sylow" in report and "2" in report["sylow"]


def _unwritable(tmp_path):
    """A path whose parent is a regular file, so no write under it can succeed."""
    parent = tmp_path / "file"
    parent.write_text("")
    return str(parent / "x")


@pytest.mark.parametrize("command", ["verify", "campaign"])
def test_cli_write_failure_is_reported(capsys, tmp_path, command):
    # exit 1 is kept for a failed identity; a path that cannot be written is bad input
    path = _unwritable(tmp_path)
    if command == "verify":
        argv = ["verify", "--json-out", path]
    else:
        argv = ["campaign", "--n", "5", "--model", "hypertree", "--trials", "3", "--out", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write") and path in captured.err
    assert "Traceback" not in captured.err


def test_cli_verify_refuses_its_json_out_before_any_identity(capsys, monkeypatch, tmp_path):
    # the whole suite used to run before the path was opened
    monkeypatch.setattr(cli, "verify_suite", lambda level: pytest.fail("the suite ran"))
    path = _unwritable(tmp_path)
    assert main(["verify", "--level", "full", "--json-out", path]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [
    ["campaign", "--n", "10", "--k", "3", "--trials", "50", "--seed", "1", "--cap", "0"],
    ["campaign", "--n", "6", "--model", "hypertree", "--trials", "4", "--cap", "-2"],
    ["cl-table", "--prime", "2", "--cap", "0"],
    ["cl-table", "--prime", "3", "--cap", "-1"],
    ["cl-table", "--prime", "2", "--law", "corank", "--cap", "-3"],
], ids=["campaign-0", "campaign-hypertree", "cl-table-0", "cl-table-negative", "corank"])
def test_cli_cap_below_its_least_is_refused(capsys, monkeypatch, argv):
    # cap 0 used to list the trivial group with count 0 while counting its trials as "other"
    def draw(*args):
        raise AssertionError("the campaign drew before checking its cap")

    monkeypatch.setattr(experiment, "sample_volume", draw)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "cap must be" in captured.err
    assert captured.out == ""  # no table header either


def test_report_cap_below_one_is_refused(capsys, tmp_path):
    records, _ = run_campaign(ExperimentConfig(n=4, trials=3, seed=0, k=3), out_dir=str(tmp_path))
    with pytest.raises(InvalidInputError):
        report_tv(records, 2, 0)
    argv = ["report", "--trials", str(tmp_path / "trials.jsonl"), "--prime", "2", "--cap", "0"]
    assert main(argv) == 2
    assert "cap must be" in capsys.readouterr().err
    assert main(argv[:-1] + ["1"]) == 0


def test_cli_invalid_input_is_reported(capsys):
    assert main(["sample", "--n", "4", "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["moment-exact", "--group", "2,x", "--n", "4", "--k", "3"],
    ["sample", "--n", "5", "--k", "3", "--primes", "2,x"],
], ids=["group", "primes"])
def test_cli_non_integer_list_is_reported(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "2,x" in captured.err
    assert captured.out == ""


def test_cli_missing_trials_file_is_reported(capsys, tmp_path):
    missing = tmp_path / "nonexistent.jsonl"
    assert main(["report", "--trials", str(missing), "--prime", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(missing) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line,reason", [
    ('{"trial_id": 0', "line 2 is not JSON"),
    ('{"seed": [1, 0], "n": 4}', "line 2 has no 'trial_id' field"),
    ("[1, 2]", "line 2 is not a trial record"),
    ('{"trial_id": 1, "seed": [], "n": 4, "k": 3, "det_zero": false, "divisors": [],'
     ' "sylow": {}, "f2_corank": 0}', "line 2 is not a trial record"),
], ids=["not-json", "no-trial-id", "not-a-record", "empty-seed"])
def test_cli_malformed_trials_file_is_reported(capsys, tmp_path, line, reason):
    run_campaign(ExperimentConfig(n=4, trials=1, seed=0, k=3), out_dir=str(tmp_path))
    trials = tmp_path / "trials.jsonl"
    trials.write_text(trials.read_text() + line + "\n")
    assert main(["report", "--trials", str(trials), "--prime", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {trials} {reason}")
    assert captured.out == ""


def test_import_leaves_the_process_pool_unloaded():
    # only a campaign with ROWSPARSE_WORKERS > 1 needs concurrent.futures and multiprocessing
    script = (
        "import sys, rowsparse, rowsparse.cli\n"
        "pool = ('concurrent', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in pool))\n"
    )
    src = str(Path(rowsparse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_cli_sample_checks_primes_before_drawing(capsys):
    assert main(["sample", "--n", "5", "--k", "3", "--primes", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 4 is not prime\n"
    assert captured.out == ""  # no matrix, no divisors


def test_cli_moment_exact_rejects_invalid_input(capsys):
    for n, k in (("0", "3"), ("-1", "3"), ("4", "2")):
        assert main(["moment-exact", "--group", "2", "--n", n, "--k", k]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "exact" not in captured.out


def test_cli_size_limit_is_reported(capsys):
    argv = ["moment-exact", "--group", "2,2,2,2,2,2,2", "--n", "40", "--k", "3"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exact_sample_past_the_printable_item_count(capsys):
    # 30^3000 host rows: the exact guard refuses them without printing the count
    argv = ["sample", "--n", "30", "--k", "3000", "--precision", "exact"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exact mode caps the item count")
    assert captured.out == ""


def test_hypertree_campaign_smoke():
    cfg = ExperimentConfig(n=6, trials=10, seed=8, model="hypertree", primes=(2, 3))
    records, report = run_campaign(cfg)
    assert all(rec.k == 0 for rec in records)
    assert all(not rec.det_zero for rec in records)
    assert report["config"]["k"] is None


def test_identity_failures_survive_python_O():
    # python -O strips assert statements; the checks raise IdentityError instead
    script = (
        "import rowsparse.structured as s\n"
        "s.gram_determinant = lambda n, k: 0\n"
        "from rowsparse.experiment import verify_suite\n"
        "print({e['name']: e['status'] for e in verify_suite('fast')}['gram-identity'])\n"
    )
    src = str(Path(rowsparse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["fail"]


def test_growing_weight_campaign_smoke():
    # --k-schedule pow:0.5 at n = 30 is k = 6: 30^6 host rows, never built
    cfg = ExperimentConfig(n=30, trials=4, seed=5, k_schedule="pow:0.5", primes=(2, 3))
    records, report = run_campaign(cfg)
    assert report["config"]["k"] == 6
    assert all(rec.k == 6 and not rec.det_zero and rec.free_rank == 0 for rec in records)
    # 3 | k = 6, so the all-ones vector lies in the kernel mod 2 and mod 3
    assert all(rec.sylow[2] and rec.sylow[3] for rec in records)
