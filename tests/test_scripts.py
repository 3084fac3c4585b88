"""The BENCH scripts' shared harness and their command lines."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("harness", SCRIPTS / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_quartiles_of_a_known_list():
    assert harness.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5
    }


def test_measure_times_under_its_key_and_traces_one_more_call():
    calls = []

    def fn():
        calls.append(bytearray(2**20))  # 1 MiB kept alive

    row = harness.measure(fn, 3, "latency_ms")
    assert row.keys() == {"latency_ms", "tracemalloc_peak_mb"}
    assert row["latency_ms"]["n"] == 3
    assert len(calls) == 5  # a warm-up, 3 timed calls and the traced one
    assert 1.0 <= row["tracemalloc_peak_mb"] < 1.5


def test_failed_worker_gives_failure_row_and_next_case_runs(tmp_path, capsys):
    script = tmp_path / "bench_fake.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import harness\n"
        "def run_case(name):\n"
        "    if name == 'bad':\n"
        "        raise RuntimeError('no memory for ' + name)\n"
        "    return {'case': name}\n"
        "harness.parse_args(harness.parser('fake'), run_case)\n"
    )
    rows = harness.run_cases(str(script), str(tmp_path), ["bad", "good"], lambda n, r: n)
    assert rows == {
        "bad": {"exit_status": 1, "error": "RuntimeError: no memory for bad"},
        "good": {"case": "good"},
    }
    assert capsys.readouterr().out == "bad: failed with exit status 1\ngood\n"


def test_write_run_keeps_other_labels(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "BENCH_fake.json"
    out.write_text(json.dumps({"runs": {"parent": {"rows": [1]}}}))
    harness.write_run("scripts/bench_fake.py", "change", "a model", {"rows": [2]})
    doc = json.loads(out.read_text())
    assert doc["script"] == "scripts/bench_fake.py"
    assert doc["model"] == "a model"
    assert doc["runs"]["parent"] == {"rows": [1]}
    assert doc["runs"]["change"]["rows"] == [2]
    assert doc["runs"]["change"]["machine"]["blas_threads"] == 1


@pytest.mark.parametrize("script, flags", [
    ("bench_conv.py", {"-h", "--help", "--label", "--src"}),
    ("bench_eval.py", {"-h", "--help", "--label", "--src"}),
    ("bench_infer.py", {"-h", "--help", "--label", "--src"}),
    ("bench_train.py", {"-h", "--help", "--label", "--src", "--skip"}),
    ("bench_ckpt.py", {"-h", "--help", "--label", "--src"}),
    ("fingerprint.py", {"-h", "--help", "--src"}),
])
def test_help_lists_the_flags(script, flags):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, check=True)
    assert set(re.findall(r"(?<!\S)(--?[a-z][\w-]*)", proc.stdout)) == flags


def test_bench_train_traces_one_extra_step_and_keeps_the_loss_row(monkeypatch, tmp_path):
    from cracenet import data, trainer

    monkeypatch.syspath_prepend(str(SCRIPTS))
    bench_train = importlib.import_module("bench_train")
    monkeypatch.setitem(bench_train.CASES, "tiny", ("rgb", 32, 2, 2, 3, 2))
    train_step = trainer._train_step
    row = bench_train.run_case("tiny")
    assert trainer._train_step is train_step
    assert row["step_ms"]["n"] == 2
    assert row["minor_faults_per_step"]["n"] == 2
    assert row["minor_faults_per_step"]["q1"] >= 0
    assert 0.0 < row["tracemalloc_peak_mb"] < row["peak_rss_mb"]

    data.gen_synthetic(tmp_path, 2, 32, seed=3)
    cfg = trainer.TrainConfig(
        total_steps=3, batch_size=2, input_size=32, seed=0, mode="rgb", multiscale=False
    )
    plain = trainer.train(data.load_dataset(tmp_path), cfg).log_rows[-1]
    assert row["final_loss"] == {k: float(v) for k, v in plain.items()}
