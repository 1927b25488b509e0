"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

A tiny seeded run of every workload must print every metric named in
BENCHMARK.json with no failed operation, and every correctness check must
count a corrupted result as failed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from swl.fourier import check_orthonormal_translates, indicator_hat, periodize  # noqa: E402

NULL = tracing.NullTracer()


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0  # failed_ratio
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "cli-mix":
        # every subcommand in PER_LAYER is on the menu and was timed
        assert all(v["value"] > 0 for k, v in result["metrics"].items() if k.startswith("cli."))


def test_refuses_to_run_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- corrupted results are counted as failed -----------------------------------


class Corrupted:
    """Replays a corrupted copy of a genuine result through the run loop."""

    def __init__(self, wl, genuine, corrupt):
        self.wl, self.genuine, self.corrupt = wl, genuine, corrupt
        self.name = wl.name

    def run(self, tr, item):
        return self.corrupt(self.genuine)

    def check(self, result):
        return self.wl.check(result)


def _count_failed(wl, genuine, corrupt) -> tuple[int, int]:
    _, attempted, failed, _ = run.run_loop(Corrupted(wl, genuine, corrupt), [[None]], 0, None,
                                      run.Speed())
    return attempted, failed


@pytest.fixture(scope="module")
def d4():
    wl = workloads.D4Verify()
    result = wl.run(NULL, wl.rounds(1)[0][0])
    assert wl.check(result) == []
    return wl, result


@pytest.fixture(scope="module")
def batch():
    wl = workloads.SampledFunctions()
    result = wl.run(NULL, wl.rounds(1)[0][0])
    assert wl.check(result) == []
    return wl, result


def _with_note(rep, note):
    return dataclasses.replace(rep, notes=[note])


D4_CORRUPTIONS = {
    "altered filter tap": lambda r: dataclasses.replace(
        r, h=workloads.LaurentPoly.from_map({**r.h.as_dict(), 0: r.h.as_dict()[0] + 1e-9})),
    "orthonormality residual": lambda r: dataclasses.replace(
        r, orthonormality=dataclasses.replace(r.orthonormality, max_residual=2e-4)),
    "completeness verdict": lambda r: dataclasses.replace(
        r, completeness=dataclasses.replace(r.completeness, verdict="inconclusive")),
    "route disagreement": lambda r: dataclasses.replace(
        r, orthonormality=_with_note(
            r.orthonormality, "triple-sum and inner-product routes agree within 3.000e-09")),
}


@pytest.mark.parametrize("name", D4_CORRUPTIONS)
def test_d4_check_counts_corruption(d4, name):
    wl, genuine = d4
    assert _count_failed(wl, genuine, D4_CORRUPTIONS[name]) == (1, 1)


def _alter_one(vec, key, factor):
    entries = dict(vec.items())
    entries[key] = entries[key] * factor
    return type(vec)(entries)


def _without(vec, keep):
    return type(vec)({key: v for key, v in vec.items() if keep(key, v)})


def _replace_set(r, pick, change):
    """Apply ``change`` to the first coordinate set for which ``pick`` holds."""
    sets = list(r.coord_sets)
    k = next(n for n, entry in enumerate(sets) if pick(*entry))
    label, model, w, vec, f = sets[k]
    sets[k] = (label, model, w, change(vec), f)
    return dataclasses.replace(r, coord_sets=sets)


def _bad_transfer(r):
    k, F, oracle, transfer = r.haar_pairs[0]
    key = sorted(oracle.keys())[0]
    return dataclasses.replace(
        r, haar_pairs=[(k, F, oracle, _alter_one(transfer, key, 1.0 + 1e-6))])


def _bessel(r):
    # Haar F of a step function holds all of ||f||^2, so any growth breaks Bessel;
    # a label above 0 keeps the label-0 closed forms intact
    def grow(vec):
        key = max((key for key in vec.keys() if key.i != 0), key=lambda key: abs(vec[key]))
        return _alter_one(vec, key, 1.001)
    return _replace_set(r, lambda label, model, w, vec, k: model == "F", grow)


def _haar_f_lost_mass(r):
    k, F, oracle, transfer = r.haar_pairs[0]
    key = max((key for key in F.keys() if key.i != 0), key=lambda key: abs(F[key]))
    return dataclasses.replace(
        r, haar_pairs=[(k, _without(F, lambda kk, v: kk != key), oracle, transfer)])


def _empty_pair(r):
    k, F, oracle, transfer = r.haar_pairs[0]
    empty = type(F)({})
    return dataclasses.replace(r, haar_pairs=[(k, empty, type(oracle)({}), type(oracle)({}))])


def _not_orthonormal(r):
    P = periodize(indicator_hat([(0, 1, 1.01)]), 64, (-1, 1))
    return dataclasses.replace(
        r, periodizations=[("scaled box", check_orthonormal_translates(P, 1e-9))])


def _largest_box(vec):
    """The label-0 key of ``vec`` with the largest coordinate."""
    boxes = [key for key in vec.keys() if key[-2] == 0]
    return max(boxes, key=lambda key: abs(vec[key]))


def _is_gaussian_g(label, model, w, vec, k):
    return label.startswith("gaussian") and model == "G"


def _is_exp_f(label, model, w, vec, k):
    return "exponential" in label and model == "F"


SAMPLED_CORRUPTIONS = {
    "altered transfer coordinate": _bad_transfer,
    "coordinate set above the norm": _bessel,
    "empty coordinate set": lambda r: _replace_set(
        r, _is_gaussian_g, lambda vec: _without(vec, lambda key, v: False)),
    "zeroed coordinate set": lambda r: _replace_set(
        r, _is_exp_f, lambda vec: type(vec)({key: 0j for key in vec.keys()})),
    "dropped label-0 coordinate": lambda r: _replace_set(
        r, _is_gaussian_g, lambda vec: _without(vec, lambda key, v: key != _largest_box(vec))),
    "altered label-0 coordinate": lambda r: _replace_set(
        r, _is_exp_f, lambda vec: _alter_one(vec, _largest_box(vec), 1.0 + 1e-6)),
    "Haar F of a step function lost mass": _haar_f_lost_mass,
    "empty Haar transfer pair": _empty_pair,
    "translates not orthonormal": _not_orthonormal,
}


@pytest.mark.parametrize("name", SAMPLED_CORRUPTIONS)
def test_sampled_check_counts_corruption(batch, name):
    wl, genuine = batch
    assert _count_failed(wl, genuine, SAMPLED_CORRUPTIONS[name]) == (1, 1)


CLI_CORRUPTIONS = {
    "wrong exit code": lambda r: dataclasses.replace(r, code=1 - r.code),
    "stdout not JSON": lambda r: dataclasses.replace(r, stdout=r.stdout[:-3]),
}


@pytest.mark.parametrize("name", CLI_CORRUPTIONS)
def test_cli_check_counts_corruption(name):
    wl = workloads.CliMix()
    genuine = wl.run(NULL, workloads.MENU[0])
    assert genuine.code == 0 and wl.check(genuine) == []
    assert _count_failed(wl, genuine, CLI_CORRUPTIONS[name]) == (1, 1)


def test_cli_check_counts_a_changed_repeat():
    wl = workloads.CliMix()
    genuine = wl.run(NULL, workloads.MENU[0])
    assert wl.check(genuine) == []
    changed = genuine.stdout.replace("0", "1", 1)
    assert _count_failed(wl, genuine, lambda r: dataclasses.replace(r, stdout=changed)) == (1, 1)


def test_cli_usage_errors_stay_on_stderr():
    wl = workloads.CliMix()
    for argv, expected in workloads.MENU:
        if expected == 2:
            reply = wl.run(NULL, (argv, expected))
            assert wl.check(reply) == []
            assert _count_failed(wl, reply,
                                 lambda r: dataclasses.replace(r, stdout="{}")) == (1, 1)
