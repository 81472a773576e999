# repro-lint: disable-file=RPR104 — the self-test bounds the smoke run's
# wall time from outside, as the benchmark itself does.
"""Self-test of the repo benchmark; not part of the tier-1 suite.

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Every workload at smoke scale, untraced and traced."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stdout + completed.stderr
    report = json.loads(out.read_text())
    report["elapsed_s"] = elapsed
    return report


def test_smoke_runs_every_workload_correctly_in_under_a_minute(smoke_report):
    assert smoke_report["elapsed_s"] < 60
    assert set(smoke_report["workloads"]) == set(WORKLOADS)
    for results in smoke_report["workloads"].values():
        for result in results.values():
            assert result["correct"], result["detail"]["errors"]
            assert result["failed"] == 0 and result["attempted"] > 0


def test_every_metric_is_reported_with_its_unit(smoke_report):
    for name, results in smoke_report["workloads"].items():
        for key, names in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            line = run.result_line(results[key], SPEC)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert [metric["name"] for metric in SPEC[names]] == list(line["metrics"])
            for metric in SPEC[names]:
                entry = line["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], float | int), (name, metric)
        for metric in SPEC["end_to_end"]:
            assert results["trace0"]["metrics"][metric["name"]] > 0, (name, metric)


def test_single_workload_prints_the_result_object_last():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "hyfd-validate",
         "--seed", "7", "--seconds", "0.1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0


def test_per_layer_table_matches_the_benchmark_file():
    names = [entry[0] for entry in layers.PER_LAYER]
    names += ["driver.self_s", "coverage", "trace_overhead"]
    assert names == [metric["name"] for metric in SPEC["per_layer"]]


# -- self-time arithmetic ------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def perf_counter_ns(self) -> int:
        return self.now


@pytest.fixture()
def fake_target(monkeypatch: pytest.MonkeyPatch) -> tuple[types.ModuleType, FakeClock]:
    """A module whose ``outer`` spends 2+5 ns itself around ``inner`` (3 ns),
    twice."""
    clock = FakeClock()
    module = types.ModuleType("fake_e2e_target")

    def inner() -> None:
        clock.now += 3

    def outer() -> None:
        clock.now += 2
        module.inner()
        module.inner()
        clock.now += 5

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(layers, "time", clock)
    return module, clock


def test_self_time_subtracts_nested_wrapped_calls(fake_target):
    module, clock = fake_target
    tracer = layers.Tracer((
        layers.Hook("outer", module.__name__, "outer"),
        layers.Hook("inner", module.__name__, "inner"),
    ))
    with tracer.active():
        clock.now += 1  # unwrapped work before the layer call
        module.outer()
    assert tracer.layers["inner"].calls == 2
    assert tracer.layers["inner"].self_ns == 6
    assert tracer.layers["outer"].self_ns == 7
    assert tracer.wall_ns == 14
    assert tracer.ops == 1
    assert not hasattr(module.outer, "__wrapped__")  # originals restored


def test_missing_hook_target_reports_null(capsys):
    hooks = tuple(
        layers.Hook(hook.layer, hook.module, "Inverter.gone")
        if hook.layer == "core.inversion.process" else hook
        for hook in layers.HOOKS
    )
    tracer = layers.Tracer(hooks)
    metrics = layers.layer_metrics(tracer, overhead=0.0)
    assert "Inverter.gone not found" in capsys.readouterr().err
    for name in ("core.inversion.process_s", "core.inversion.non_fds",
                 "core.inversion.cover_edits"):
        assert metrics[name] is None
    assert metrics["core.sampler.run_pass_s"] == 0.0


# -- compare -------------------------------------------------------------------


def _report(path: Path, p50: float) -> str:
    metrics = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
    metrics["op_p50_s"] = p50
    path.write_text(json.dumps(
        {"workloads": {"eulerfd-wide": {"trace0": {"metrics": metrics}}}}
    ))
    return str(path)


def test_compare_flags_a_seeded_2x_slowdown(tmp_path, capsys):
    base = [_report(tmp_path / f"a{i}.json", 1.0 + i / 100) for i in range(3)]
    same = [_report(tmp_path / f"b{i}.json", 1.0 + i / 100) for i in range(3)]
    slow = [_report(tmp_path / f"c{i}.json", 2.0 + i / 100) for i in range(3)]
    assert run.compare(base, same) == 0
    assert "regression" not in capsys.readouterr().out.replace("0 regression(s)", "")
    assert run.compare(base, slow) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows if " op_p50_s " in row] == ["regression"]


def test_compare_calls_a_noisy_overlapping_change_unresolved():
    metric = {"name": "op_p50_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.0, 1.5, 1.5]
    head = [1.1, 1.2, 1.6, 1.7]
    assert run.verdict(base, head, metric)[0] == "unresolved"
    assert run.verdict(base, [2 * v for v in base], metric)[0] == "regression"
