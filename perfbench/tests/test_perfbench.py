"""Tests of the benchmark harness: the workloads stay the scenarios they are
named after, the trace is well formed and fully removed afterwards, and the
result line carries every metric of BENCHMARK.json with its unit."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads
from qmalab.cli import RunConfig, run_scenario

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# (workload, trials, scenario report values the trial loop must reproduce)
SCENARIO_CASES = [
    ("e2e-extract", 4, ("accept_rate", "extraction_violations", "min_per_copy_acceptance")),
    ("cutchoose-detect", 48, ("reject_rate",)),
    ("jllw-correctness", 16, ("eval_mismatches", "undetected_tampers")),
]


@pytest.mark.parametrize("name,trials,keys", SCENARIO_CASES)
def test_trial_loop_reproduces_cli_scenario(name, trials, keys):
    seed = 5
    workload = workloads.WORKLOADS[name](seed)
    outcomes = [run._run_trial(workload, i) for i in range(trials)]
    ours = workload.summary(outcomes)
    report = run_scenario(RunConfig.from_json({"scenario": name, "seed": seed, "trials": trials}))
    for key in keys:
        assert ours[key] == report["metrics"][key]["value"], key
    assert all(ok for _, _, ok in workload.checks(ours).values())


def test_kind_p1_weights_each_kind_by_its_share():
    outcomes = [{"kind": "cheap"}] * 3 + [{"kind": "costly"}, {"fp": ["raised", "X"]}]
    latencies_ns = [3e6, 1e6, 2e6, 10e6, 4e6]
    # inclusive 1st percentile of (1, 2, 3) ms is 1.02 ms; one-trial kinds give their trial
    expected = (3 * 1.02 + 10 + 4) / 5
    assert run._kind_p1_ms(outcomes, latencies_ns) == pytest.approx(expected)
    # a trial split into parts adds up the 1st percentiles of its parts
    parted = [{"kind": "k", "parts": {"a": a, "b": b}} for a, b in ((1e6, 5e6), (2e6, 4e6))]
    assert run._kind_p1_ms(parted, [6e6, 6e6]) == pytest.approx(1.01 + 4.01)


def _traced(name: str, trials: int) -> tracing.Tracer:
    workload = workloads.WORKLOADS[name](3)
    run._run_trial(workload, 0)  # fill lazy caches outside the trace
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.measure(workload, 1, 0.0, trials, [], tracer)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_nest_and_self_times_sum_to_trial_time(name):
    tracer = _traced(name, 3)
    n = len(tracer.span_start)
    assert n > 3
    for i in range(n):
        start, end, trial = tracer.span_start[i], tracer.span_end[i], tracer.span_trial[i]
        assert start <= end
        parent = tracer.span_parent[i]
        if parent < 0:
            assert tracer.layers[tracer.span_layer[i]] == tracing.TRIAL
            continue
        assert parent < i
        assert tracer.span_trial[parent] == trial
        assert tracer.span_start[parent] <= start and end <= tracer.span_end[parent]
    assert sorted(tracer.trial_ns) == [1, 2, 3]
    for trial, layers in tracer.trials.items():
        assert all(self_ns >= 0 for _, self_ns in layers.values())
        assert sum(self_ns for _, self_ns in layers.values()) == tracer.trial_ns[trial]


def test_trace_patches_lookup_sites_and_restores_them():
    from qmalab import obfstack, protocol, simstate

    originals = {
        (protocol, "apply_hadamard"): protocol.apply_hadamard,
        (simstate, "apply_hadamard"): simstate.apply_hadamard,
        (protocol, "project_predicate"): protocol.project_predicate,
        (obfstack.QPrOSim, "gen"): obfstack.QPrOSim.__dict__["gen"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patches = tracer.patches
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    assert len(patches) > 100
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr}"
    assert tracer.patches == []


def test_traced_e2e_counts_the_layers_the_protocol_calls():
    tracer = _traced("e2e-extract", 2)
    table = tracer.layer_table()
    # verify audits the transcript once and ext1 audits it again
    assert table["obfstack.pc_verify"]["calls"] == 2
    # ext1's two codespace projections, looked up through protocol's names
    assert table["simstate.apply_hadamard"]["calls"] == 2
    assert table["simstate.project_predicate"]["calls"] == 2
    assert table["protocol.assemble_verifier_povm"]["calls"] == 1
    assert 0 < table["obfstack.QPrOSim.gen"]["repeat_share"] < 1


@pytest.mark.parametrize("name,trials", [(name, trials) for name, trials, _ in SCENARIO_CASES])
def test_fingerprint_is_reproducible_per_seed(name, trials, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[name], "fingerprint_trials", trials)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    before = dict(sys.modules)

    def digest(seed):
        report, _ = run.run(name, seed, 0.0, False)
        return report["fingerprint"]

    first = digest(8)
    assert first["trials"] == trials
    assert digest(8) == first
    assert digest(9) != first
    # the fresh imports of the set-ups left the tested package in place
    assert all(sys.modules[k] is v for k, v in before.items() if k.startswith("qmalab"))


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_benchmark_metric(trace, section, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    code = run.main(["--workload", "cutchoose-detect", "--seed", "2", "--seconds", "0.2",
                     "--trace", trace])
    lines = capsys.readouterr().out.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads_env", "seed"):
        assert key in report["metadata"]
    if trace == "1":
        assert report["trace"]["overhead"] is not None
        assert (tmp_path / "cutchoose-detect-seed2.csv").is_file()


def test_refuses_to_run_without_sources(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "e2e-extract", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
