"""Scenario runner, config validation, report schema, entry points."""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qmalab
from qmalab import ati, cli, obfstack
from qmalab.cli import RunConfig, run_scenario


def small(scenario: str, **overrides) -> RunConfig:
    base = {"scenario": scenario, "seed": 7, "trials": 12}
    base.update(overrides)
    return RunConfig.from_json(base)


def test_config_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        RunConfig.from_json({"scenario": "ati-check"})


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_json({"scenario": "ati-check", "seed": 1, "bogus": True})


def test_config_naming_backend_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # protocol circuits are wider than the JLLW tree's arity cap, so protocol
    # runs obfuscate with the ideal backend only and no config selects one
    def never(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(cli.SCENARIOS, "e2e-complete", never)
    cfg_path = tmp_path / "cfg.json"
    for backend in ("ideal", "jllw"):
        with pytest.raises(ValueError, match=r"unknown config fields: \['backend'\]"):
            RunConfig.from_json({"scenario": "e2e-complete", "seed": 1, "backend": backend})
        cfg_path.write_text(json.dumps({"seed": 1, "backend": backend}))
        assert cli.main(["run", "--scenario", "e2e-complete", "--config", str(cfg_path)]) == 2
        assert "backend" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("trials", [5, 50])
def test_ati_check_builds_its_two_mixtures_once(trials, monkeypatch):
    built, eighs = [], []
    from_projectors = ati.SpectralMixture.from_projectors.__func__
    eigh = np.linalg.eigh

    def counting_from_projectors(cls, num_qubits, pairs):
        built.append(num_qubits)
        return from_projectors(cls, num_qubits, pairs)

    def counting_eigh(a):
        eighs.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(
        ati.SpectralMixture, "from_projectors", classmethod(counting_from_projectors)
    )
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = run_scenario(small("ati-check", trials=trials))
    assert report["passed"]
    assert sorted(built) == [1, 2] and len(eighs) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"seed": 1, "trials": "5"},
        {"seed": 1, "gamma": "0.2"},
        {"seed": 1.5},
        {"seed": 1, "k": 2.5},
        {"seed": True},
        {"seed": None},
        {"seed": 1, "p_margin": False},
        {"seed": 1, "instance": 5},
        {"seed": 1, "instance_b": [1]},
        {"seed": 1, "game": None},
        {"seed": 1, "out": 3},
        [1],
        {"seed": 1, "trials": 4, "game": "csa-measure", "budget": -5},
        {"seed": 1, "trials": 2, "lambda_cc": 0},
        {"seed": 1, "instance": {"qubits": 2, "terms": [1]}},
        {"seed": 1, "instance_b": "list_instance.json"},
        {"seed": -1},
        {"seed": 1, "k": -1},
        {"seed": 1, "prg_bits": -1},
        {"seed": 1, "lambda_code": 0},
        {"seed": 1, "instance": {"qubits": 2, "terms": [{"i": 0.0, "j": 1, "basis": "Z", "beta": 0, "p": 0.5}]}},
        {"seed": 1, "instance": {"qubits": 2, "terms": [{"i": False, "j": True, "basis": "Z", "beta": True, "p": 0.5}]}},
        {"seed": 1, "instance": {"qubits": 3, "terms": [
            {"i": 0, "j": 1, "basis": "Z", "beta": 0, "p": 0.5}, {"i": 1, "j": 2, "basis": "Z", "beta": 0, "p": False}]}},
    ],
)
def test_config_of_the_wrong_type_is_refused_before_any_work(data, tmp_path, capsys, monkeypatch):
    def never(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(cli.SCENARIOS, "e2e-complete", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list_instance.json").write_text("[1]")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", "e2e-complete", "--config", str(cfg_path)]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("scenario", ["e2e-complete", "e2e-extract", "e2e-simulate"])
def test_prg_bits_above_the_cap_exit_2_before_the_first_trial(scenario, tmp_path, capsys):
    # permutation_weights enumerates 2**prg_bits seeds: at 40 it would not return
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "trials": 1, "prg_bits": 40}))
    start = time.monotonic()
    assert cli.main(["run", "--scenario", scenario, "--config", str(cfg_path)]) == 2
    assert time.monotonic() - start < 1.0
    assert "prg_bits" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("scenario", ["e2e-complete", "e2e-extract", "e2e-simulate"])
def test_runs_above_the_qubit_cap_exit_2_before_the_first_trial(scenario, tmp_path, capsys, monkeypatch):
    # every trial starts by seeding its oracle; at k = 10**7 the verifier's
    # measurement list alone would hold ten million entries
    def never(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli.QPrOSim, "from_seed", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "k": 10**7}))
    start = time.monotonic()
    assert cli.main(["run", "--scenario", scenario, "--config", str(cfg_path)]) == 2
    assert time.monotonic() - start < 1.0
    assert "physical qubits" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("data", [{"trials": 1, "k": 10**7}, {"trials": 333_334, "k": 6}])
def test_permver_bench_above_its_work_cap_exits_2_before_building_the_verifier(data, tmp_path, capsys, monkeypatch):
    # one trial at k = 10**7 would build and measure five million list entries;
    # 333_334 trials of criterion 03's three entries are just above the cap
    def never(*args, **kwargs):
        raise AssertionError("the verifier was built")

    permver = cli.permver
    before = permver._measurement_list.cache_info().currsize
    monkeypatch.setattr(permver, "build", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, **data}))
    start = time.monotonic()
    assert cli.main(["permver", "bench", "--config", str(cfg_path)]) == 2
    assert time.monotonic() - start < 1.0
    assert "sub-measurements" in json.loads(capsys.readouterr().err)["error"]
    assert permver._measurement_list.cache_info().currsize == before


def test_permver_list_length_is_the_built_list_length():
    h = cli.zxham.HamiltonianInstance.from_json(cli.REFERENCE_YES)
    for k in (1, 2, 6, 7):
        assert cli.permver.list_length(h, k) == len(cli.permver._measurement_list(h, k))


_FRUSTRATED = {
    "qubits": 3,
    "terms": [
        {"i": i, "j": i + 1, "basis": basis, "beta": 0, "p": 0.25} for i in (0, 1) for basis in ("Z", "X")
    ],
}
# the k in 1..8 at which each instance's threshold k*(a+b)/2 exceeds its list
# length sum(floor(p*k)) > 0; an empty list (k = 1, and k = 2, 3 for FRUSTRATED)
# is refused as it was before
_UNPASSABLE = {"REFERENCE_YES": {3}, "ALT_YES": {3}, "SINGLE_Z": {3, 5, 7}, "FRUSTRATED": {6, 7}}


@pytest.mark.parametrize("name", list(_UNPASSABLE))
def test_verifiers_that_no_state_can_pass_are_refused_at_every_k_up_to_8(name):
    instance = _FRUSTRATED if name == "FRUSTRATED" else getattr(cli, name)
    h = cli.zxham.HamiltonianInstance.from_json(instance)
    for k in range(1, 9):
        list_len = cli.permver.list_length(h, k)
        bench = small("permver-bench", trials=1, k=k, instance=instance)
        pcfg = cli.protocol.ProtocolConfig(k=k)
        if list_len == 0:
            with pytest.raises(ValueError, match="empty measurement list"):
                run_scenario(bench)
            continue
        v = cli.permver.build(h, k)
        if k not in _UNPASSABLE[name]:
            assert cli.permver.require_passable(v) is v and v.threshold <= list_len
            assert run_scenario(bench)["metrics"]["k"]["value"] == k
            continue
        assert v.threshold > list_len
        for refuse in (lambda: cli.permver.require_passable(v), lambda: run_scenario(bench)):
            with pytest.raises(ValueError, match="no state can pass"):
                refuse()
        # the protocol refuses the verifier too, unless its qubit cap refuses the run first
        fits = 3 * list_len * h.num_qubits <= cli.protocol.PHYSICAL_QUBIT_CAP
        with pytest.raises(ValueError, match="no state can pass" if fits else "physical qubits"):
            cli.protocol.witness_registers(h, pcfg)


@pytest.mark.parametrize(
    "command, data",
    [
        (["run", "--scenario", "e2e-complete"], {"seed": 1, "trials": 20, "k": 3}),
        (["run", "--scenario", "e2e-extract"], {"seed": 1, "trials": 20, "k": 3}),
        (["run", "--scenario", "e2e-simulate"], {"seed": 1, "trials": 20, "k": 5, "instance": cli.SINGLE_Z}),
        (["permver", "bench"], {"seed": 1, "k": 3}),
    ],
    ids=["e2e-complete", "e2e-extract", "e2e-simulate", "permver-bench"],
)
def test_a_verifier_no_state_can_pass_exits_2_before_the_first_trial(command, data, tmp_path, capsys, monkeypatch):
    # at k = 3 the reference instance's threshold is 2.25 over 2 list entries;
    # permver-bench's SINGLE_Z reads 1.5 over 1
    def never(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli.QPrOSim, "from_seed", never)
    monkeypatch.setattr(cli.permver, "verify_product", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert cli.main([*command, "--config", str(cfg_path)]) == 2
    assert "no state can pass" in json.loads(capsys.readouterr().err)["error"]


def test_a_game_of_one_trial_exits_2_before_the_first_trial(tmp_path, capsys, monkeypatch):
    # trials // 2 is the trial count of each world, so one trial leaves none
    def never(cfg, world, rng):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(cli._GAMES, "key-swap", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "trials": 1, "game": "key-swap"}))
    assert cli.main(["run", "--scenario", "distinguish-game", "--config", str(cfg_path)]) == 2
    assert "trials >= 2" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("game", sorted(cli._GAMES))
@pytest.mark.parametrize("trials, budget", [(0, 10**12), (2, cli.GAME_WORK_CAP // 2 + 1), (cli.GAME_WORK_CAP, 2)])
def test_a_game_above_the_work_cap_exits_2_before_the_first_trial(game, trials, budget, tmp_path, capsys, monkeypatch):
    # key-swap draws budget keys a trial: at 10**12 numpy would be asked for terabytes
    def never(cfg, world, rng):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(cli._GAMES, game, never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "trials": trials, "game": game, "budget": budget}))
    tracemalloc.start()
    try:
        assert cli.main(["run", "--scenario", "distinguish-game", "--config", str(cfg_path)]) == 2
        assert tracemalloc.get_traced_memory()[1] < 10**6
    finally:
        tracemalloc.stop()
    assert "cap is" in json.loads(capsys.readouterr().err)["error"]


def test_a_game_at_the_work_cap_runs(monkeypatch):
    played = []
    monkeypatch.setitem(cli._GAMES, "key-swap", lambda cfg, world, rng: played.append(world) or 0)
    cfg = RunConfig.from_json({"scenario": "distinguish-game", "seed": 1, "trials": 2, "budget": cli.GAME_WORK_CAP // 2})
    assert cli.distinguish_game(cfg)["trials_per_world"]["value"] == 1
    assert played == [0, 1]


@pytest.mark.parametrize("lambda_cc", [1, 2])
def test_cutchoose_with_fewer_bundles_than_it_corrupts_exits_2_before_the_first_trial(
    lambda_cc, tmp_path, capsys, monkeypatch
):
    # bundles 1-3 are corrupted; with fewer bundles the report's model_rate would not hold
    def never(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(obfstack.QPrOSim, "from_seed", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "trials": 400, "lambda_cc": lambda_cc}))
    assert cli.main(["run", "--scenario", "cutchoose-detect", "--config", str(cfg_path)]) == 2
    assert "lambda_cc >= 3" in json.loads(capsys.readouterr().err)["error"]


def test_cutchoose_with_three_bundles_corrupts_all_three():
    metrics = run_scenario(small("cutchoose-detect", lambda_cc=3, trials=40))["metrics"]
    assert metrics["reject_rate"]["value"] >= metrics["model_rate"]["value"] - 0.2
    assert metrics["model_rate"]["value"] == 0.875


def test_config_types_accept_every_declared_form():
    cfg = RunConfig.from_json(
        {
            "scenario": "e2e-complete",
            "seed": 2**70,
            "gamma": 1,
            "p_margin": 0.05,
            "instance": cli.SINGLE_Z,
            "instance_b": None,
            "out": None,
        }
    )
    assert (cfg.seed, cfg.gamma, cfg.instance, cfg.out) == (2**70, 1, cli.SINGLE_Z, None)


def test_config_rejects_missing_instance_file():
    with pytest.raises(ValueError, match="does not exist"):
        RunConfig.from_json(
            {"scenario": "permver-bench", "seed": 1, "instance": "/nonexistent/h.json"}
        )


@pytest.mark.parametrize("ref", [".", "cfg.json/h.json"], ids=["directory", "under-a-file"])
def test_an_instance_path_that_cannot_be_read_exits_2(ref, tmp_path, capsys, monkeypatch):
    # a config error exits 2, never 1, which is the code of a failed tolerance
    def never(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(cli.SCENARIOS, "e2e-complete", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1, "instance": ref}))
    assert cli.main(["run", "--scenario", "e2e-complete", "--config", "cfg.json"]) == 2
    assert f"instance file {ref}" in json.loads(capsys.readouterr().err)["error"]


def test_unknown_scenario_errors():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario(RunConfig.from_json({"scenario": "nope", "seed": 1}))


def test_report_schema_and_reproducibility():
    cfg = small("ati-check")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for report in (a, b):
        assert set(report) == {"scenario", "config", "metrics", "passed", "wall_clock_s"}
        for m in report["metrics"].values():
            assert "value" in m and "tolerance" in m
    a2, b2 = copy.deepcopy(a), copy.deepcopy(b)
    a2.pop("wall_clock_s")
    b2.pop("wall_clock_s")
    assert json.dumps(a2, sort_keys=True, default=str) == json.dumps(
        b2, sort_keys=True, default=str
    )


@pytest.mark.parametrize(
    "config, digest",
    [
        ({"scenario": "jllw-correctness", "seed": 1, "trials": 50},
         "4ff176ee5242c9d922a0184694d6a25fea2180b3eacdaa6e8e2173e4d3106697"),
        ({"scenario": "jllw-correctness", "seed": 108, "trials": 50},
         "aa450eb7db6e5f8e15f9858203dd417d0394fe56b83e5f70dfaa3b10fed5846b"),
        ({"scenario": "cutchoose-detect", "seed": 1, "trials": 200},
         "78c8a59920b1df67b51948b6a8b3d03db47e2999d271888ea23d77a607b2857d"),
        ({"scenario": "distinguish-game", "seed": 1, "trials": 200, "game": "evasive-comb"},
         "1fc5666b060716c22b8946ee3e064cf28fa9bb52ec51779f0e5655763e3ce580"),
        ({"scenario": "distinguish-game", "seed": 1, "trials": 200, "game": "key-swap"},
         "0b107fcd3d04e4a133afbd7015fa8340b5de19ac60955ca394caf14332b4dd9e"),
        # budget 32 never finds the handle; at 4096 world 1 reads 0.05 (digest taken
        # with one gen call per guess)
        ({"scenario": "distinguish-game", "seed": 1, "trials": 200, "game": "key-swap", "budget": 4096},
         "731c6f574a5ddd1c3f306af15ad2649ec554bf1858e3ff11ebeb3b621137765a"),
    ],
    ids=["jllw-1", "jllw-108", "cutchoose-1", "evasive-comb-1", "key-swap-1", "key-swap-4096"],
)
def test_seeded_report_bytes_pinned(config, digest):
    """Seeded reports without wall_clock_s are byte-identical to the
    reference digests.  Only reports computed without eigensolver or QR
    output are pinned, so the digests do not depend on the BLAS build."""
    report = run_scenario(RunConfig.from_json(config))
    report.pop("wall_clock_s")
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_instance_file_loading(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(cli.SINGLE_Z))
    cfg = RunConfig.from_json(
        {"scenario": "permver-bench", "seed": 3, "trials": 50, "instance": str(path)}
    )
    report = run_scenario(cfg)
    assert report["passed"]


def test_config_loading_leaves_the_input_dict_unchanged(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(cli.SINGLE_Z))
    data = {"scenario": "e2e-simulate", "seed": 3, "instance": str(path), "instance_b": str(path)}
    before = copy.deepcopy(data)
    cfg = RunConfig.from_json(data)
    assert data == before
    assert cfg.instance == cfg.instance_b == cli.SINGLE_Z
    assert RunConfig.from_json(data) == cfg  # the same dict loads again


def test_permver_bench_report_keys():
    report = run_scenario(small("permver-bench", trials=100))
    for key in ("k", "threshold", "accept_freq_yes", "accept_freq_no", "hoeffding_bound"):
        assert key in report["metrics"]


def test_distinguish_game_report():
    report = run_scenario(small("distinguish-game", trials=40, game="csa-hiding", budget=4))
    assert report["passed"]  # informational: no threshold asserted
    assert "advantage" in report["metrics"]
    assert "advantage_ci" in report["metrics"]
    lo, hi = report["metrics"]["advantage_ci"]["value"]
    assert 0.0 <= lo <= hi


def test_distinguish_game_unknown_game():
    with pytest.raises(ValueError, match="unknown game"):
        run_scenario(small("distinguish-game", game="nope"))


def test_main_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "e2e-complete" in out and "distinguish-game" in out


def test_main_run_and_report_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "trials": 10}))
    out_path = tmp_path / "report.json"
    code = cli.main(
        ["run", "--scenario", "ati-check", "--config", str(cfg_path), "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["scenario"] == "ati-check" and report["passed"]
    capsys.readouterr()


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 10}))  # no seed
    code = cli.main(["run", "--scenario", "ati-check", "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err


def test_main_refuses_a_config_nested_deeper_than_the_decoder_recurses(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(deep)
    assert cli.main(["run", "--scenario", "ati-check", "--config", str(cfg_path)]) == 2
    assert "config unreadable" in capsys.readouterr().err
    # an instance file is read the same way
    (tmp_path / "h.json").write_text(deep)
    cfg_path.write_text(json.dumps({"seed": 1, "instance": str(tmp_path / "h.json")}))
    assert cli.main(["run", "--scenario", "e2e-complete", "--config", str(cfg_path)]) == 2
    assert "field 'instance': not JSON text" in capsys.readouterr().err


def test_main_unknown_scenario_exit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1}))
    code = cli.main(["run", "--scenario", "wat", "--config", str(cfg_path)])
    assert code == 2
    capsys.readouterr()


def test_main_permver_bench_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 2, "trials": 60}))
    code = cli.main(["permver", "bench", "--config", str(cfg_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "permver-bench"
    assert set(report["bench"]) == {
        "k",
        "threshold",
        "accept_freq_yes",
        "accept_freq_no",
        "hoeffding_bound",
    }


def test_runs_in_one_process_do_not_share_oracle_state():
    # e2e-simulate's generator [3, 7, 0] replays e2e-extract's trial 7
    # ([3, 7]: SeedSequence drops trailing zero words), so the two runs
    # draw the same ideal-oracle handles for different circuits
    run_scenario(RunConfig.from_json({"scenario": "e2e-extract", "seed": 3, "trials": 8}))
    run_scenario(RunConfig.from_json({"scenario": "e2e-simulate", "seed": 3, "trials": 2}))


def _module_container_sizes() -> dict:
    for info in pkgutil.iter_modules(qmalab.__path__):
        importlib.import_module(f"qmalab.{info.name}")
    return {
        (mod_name, name): len(value)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "qmalab" or mod_name.startswith("qmalab.")
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_runs_leave_module_globals_unchanged():
    before = _module_container_sizes()
    assert ("qmalab.obfstack", "_KIND_BUILDERS") in before
    run_scenario(small("e2e-extract", trials=2))
    run_scenario(small("cutchoose-detect", trials=5))
    rng = np.random.default_rng(9)
    qpro = obfstack.QPrOSim.from_seed(rng)
    pp, td = obfstack.pc_ext_setup(rng)
    phi = obfstack.PhiSpec("fresh", lambda c: True)
    o = obfstack.pc_sim_obfuscate(pp, td, phi, obfstack.table_circuit([0, 1]), qpro, rng)
    assert obfstack.pc_verify(pp, phi, o, qpro)[0]
    assert _module_container_sizes() == before


def test_a_jllw_run_leaves_every_module_container_at_its_import_size():
    before = _module_container_sizes()
    assert run_scenario(small("jllw-correctness", trials=30))["passed"]
    assert _module_container_sizes() == before


def _fresh_process(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports qmalab from this tree."""
    prelude = f"import sys\nsys.path.insert(0, {str(Path(qmalab.__file__).parents[1])!r})\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args], capture_output=True, text=True, timeout=120
    )


QUANTUM_LAYERS = ("ati", "csa", "permver", "protocol", "simstate", "zxham")


def test_import_registers_every_layer_without_running_the_quantum_ones():
    # perfbench's tracer reads sys.modules["qmalab.<name>"] for every layer
    done = _fresh_process(
        "import types\n"
        "import qmalab, qmalab.cli\n"
        "for name in qmalab.__all__:\n"
        "    assert getattr(qmalab, name) is sys.modules[f'qmalab.{name}'], name\n"
        "    loaded = type(sys.modules[f'qmalab.{name}']) is types.ModuleType\n"
        "    assert loaded == (name not in sys.argv[1:]), name\n",
        *QUANTUM_LAYERS,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "scenarios, loaded",
    [(("cutchoose-detect", "jllw-correctness"), False), (("e2e-extract",), True)],
)
def test_scenarios_load_the_quantum_layers_only_when_they_use_them(scenarios, loaded):
    # type() reads no attribute, so it does not trigger a lazy module's load
    done = _fresh_process(
        "import json, types\n"
        "from qmalab import cli\n"
        "scenarios, loaded = json.loads(sys.argv[1])\n"
        "for name in scenarios:\n"
        "    trials = 1 if name == 'e2e-extract' else 2\n"
        "    cfg = cli.RunConfig.from_json({'scenario': name, 'seed': 1, 'trials': trials})\n"
        "    assert cli.run_scenario(cfg)['passed'], name\n"
        "for name in sys.argv[2:]:\n"
        "    module = sys.modules[f'qmalab.{name}']\n"
        "    assert (type(module) is types.ModuleType) == loaded, name\n",
        json.dumps([scenarios, loaded]),
        *QUANTUM_LAYERS,
    )
    assert done.returncode == 0, done.stderr


def test_traced_benchmark_run_passes_with_its_seed_fingerprint(tmp_path):
    # the tracer wraps every layer of a freshly imported package; a copy of
    # the tree keeps its span file out of the checkout
    root = Path(__file__).resolve().parents[1]
    skip = shutil.ignore_patterns("__pycache__", "traces")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(root / "src", tmp_path / "src", ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jllw-correctness",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])
    assert report["fingerprint"]["sha256"] == (
        "552ad4eca09d26fbd96ad37d48527675bc518fd2ce19e2654199e38fc7d2ecb9"
    )
    assert report["trace"]["layers"]


def test_workload_scenarios_never_load_scipy_stats():
    # scipy.stats serves only permver-bench's binomial tail and e2e-simulate's
    # chi-squared test; a fresh process is needed, as pytest loads it itself
    done = _fresh_process(
        "import qmalab\n"
        "from qmalab import cli\n"
        "for name in ('e2e-extract', 'cutchoose-detect', 'jllw-correctness'):\n"
        "    cli.run_scenario(cli.RunConfig.from_json({'scenario': name, 'seed': 1, 'trials': 2}))\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    assert done.returncode == 0, done.stderr
