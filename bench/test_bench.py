"""Fast checks of the benchmark itself: `python3 -m pytest bench -q`."""

import json
import shutil
import signal
import time

import pytest

import run

run.import_package()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = run.OUT / "test"


@pytest.fixture
def workdir():
    shutil.rmtree(WORK, ignore_errors=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name, workdir):
    workload = WORKLOADS[name]
    first = workload.digest(workload.setup(7, str(workdir / "a")))
    again = workload.digest(workload.setup(7, str(workdir / "b")))
    other = workload.digest(workload.setup(8, str(workdir / "c")))
    assert first == again
    assert first != other


def _summarize(workload, data, answers):
    records = [(i, 0.001, "ok", answer) for i, answer in answers]
    return run.summarize(workload, data, records, wall=1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_answer_counts_as_failed(name, workdir):
    workload = WORKLOADS[name]
    data = workload.setup(3, str(workdir))
    i = 0
    if name == "closure":  # nand at arity 3: complete, so the witnesses compose
        i = next(j for j, (b, k) in enumerate(data) if k == 3 and b.functions[0].bits() == "1110")
    right = workload.run(data, i)
    if name == "mix-small":
        wrong = not right
    elif name == "linear-wide":
        wrong = dict(right, implies=not right["implies"])
    elif name == "general-sweep":
        wrong = type(right)(not right.implies, right.fragment_used, "flipped")
    else:
        wrong = set()
    result = _summarize(workload, data, [(i, right), (i, wrong)])
    assert result["failures"] == [(i, "wrong answer")]
    assert result["ok_frac"] == 0.5


def test_a_bad_counterexample_counts_as_failed(workdir):
    workload = WORKLOADS["linear-wide"]
    data = workload.setup(3, str(workdir))
    refuted = next(i for i, d in enumerate(data) if not d[3])
    record = workload.run(data, refuted)
    assert record["implies"] is False
    flipped = {k: 1 - v for k, v in record["counterexample"].items()}
    result = _summarize(workload, data, [(refuted, dict(record, counterexample=flipped))])
    assert result["failures"] == [(refuted, "wrong answer")]


class _Sleepy:
    """Op 0 spins past its deadline; the rest return at once."""

    def ops(self, data):
        return run.MIN_OPS

    def deadline(self, data, i):
        return 0.05

    def run(self, data, i):
        if i == 0:
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass
        return i

    def checker(self, data):
        return lambda i, answer: answer == i


def test_an_op_past_its_deadline_is_stopped_and_counted():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        records, wall = run.run_loop(_Sleepy(), None, 0, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert wall < 1
    result = run.summarize(_Sleepy(), None, records, wall)
    assert result["failures"] == [(0, "deadline")]
    # a failed op ranks after every completed one
    assert result["op_ms_p90"] < 50


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    units = tracing.layer_metric_units()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(units.items())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
