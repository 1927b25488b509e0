"""Command-line surface: exit codes, JSON shape, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

from swl import (EXPONENTIAL, HAAR, AlphaMatrix, Window, oracle_F_coords, oracle_G_coords, shift_D,
                 shift_T, transfer)
from swl.bases import parse_function_spec
from swl.cli import run
from swl.core import canonical_json


def _invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _doc(out):
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    return doc


def _readme_lines():
    # every "swl ..." line of the README's CLI block, as a shell would split it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("swl ")]


def test_readme_cli_examples_run(capsys):
    lines = _readme_lines()
    assert len(lines) >= 7  # one per subcommand at least
    for argv in lines:
        code, out, err = _invoke(capsys, *argv)
        assert code == 0, (argv, err)
        assert isinstance(json.loads(out), dict), argv


def test_check_wavelet_haar_passes(capsys):
    code, out, _ = _invoke(capsys, "check-wavelet", "--basis", "haar",
                           "--function", "haar_wavelet", "--pq", "3", "--window", "6")
    assert code == 0
    doc = _doc(out)
    assert doc["report"]["pass"] is True
    assert doc["completeness"]["pass"] is True
    assert doc["report"]["max_residual"] <= 1e-9


def test_check_wavelet_with_valid_labels(capsys):
    # the completeness check takes the requested labels, not the default six
    code, out, _ = _invoke(capsys, "check-wavelet", "--basis", "haar", "--function",
                           "haar_wavelet", "--pq", "3", "--window", "6", "--labels", "+0,+1,-0")
    assert code == 0
    assert "rank 3 of 3 wanted" in _doc(out)["completeness"]["notes"]


def test_check_wavelet_scaling_fails(capsys):
    code, out, _ = _invoke(capsys, "check-wavelet", "--basis", "haar",
                           "--function", "haar_scaling", "--pq", "2", "--window", "6")
    assert code == 1
    assert _doc(out)["report"]["pass"] is False


def _report_digest(out: str) -> str:
    # sha256 of the report without its singular values: those come from
    # LAPACK, whose last bits vary with the BLAS build and the CPU, while
    # everything else in the report is exact arithmetic
    doc = json.loads(out)
    doc["completeness"]["details"] = len(doc["completeness"]["details"])
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


_README_CHECK = ("check-wavelet", "--basis", "haar", "--function", "haar_wavelet",
                 "--pq", "3", "--window", "6")


# the coefficient file of CI's zero-rule smoke line: the ladder column
# (+, 0, 2) at 1.2e-15 gives the translation-model copy three entries of
# 6.0e-16 to 8.5e-16, which the zero rule drops
_DROPPING_COORDS = {"schema_version": 1, "model": "G", "basis": "haar", "entries": [
    {"s": "+", "i_or_j": 1, "n_or_m": 0, "re": 0.5, "im": 0.0},
    {"s": "+", "i_or_j": 0, "n_or_m": 2, "re": 1.2e-15, "im": 0.0}]}
_DROPPING_CHECK = ("check-wavelet", "--basis", "haar", "--coords", "dropping.json",
                   "--pq", "1", "--window", "4")


@pytest.mark.parametrize("argv, exit_code, digest", [
    (_README_CHECK, 0, "db66c3d5f96c101a4a35461f40f5326e1e10b6c7857098f72b694fd0c55cd7d5"),
    (("check-wavelet", "--basis", "haar", "--function", "haar_scaling", "--pq", "1",
      "--window", "4"), 1, "67a7e7e4fb286f7bf7833e574383267cf34d56d90efaaefa8cf6da2e8145248c"),
    (_DROPPING_CHECK, 1, "25842a560b2df99be4f71eb04ca50601c34c8c93eaa083c4ff2815e37913d5c6"),
])
def test_check_wavelet_reports_are_pinned(capsys, tmp_path, monkeypatch, argv, exit_code, digest):
    # the benchmark's two check-wavelet requests, README's example the first,
    # and CI's zero-rule smoke line; the first two digests were recorded when
    # each q still had a row pass of its own, the third when route B's
    # dropped entries rode as zeros beside route A's in a shared pass
    assert [line for line in _readme_lines() if line[0] == "check-wavelet"] == [list(_README_CHECK)]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dropping.json").write_text(json.dumps(_DROPPING_COORDS))
    code, out, err = _invoke(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert _report_digest(out) == digest


def test_readme_check_wavelet_example_makes_one_row_pass_per_consumer(monkeypatch, capsys):
    # every shift of the candidate's translation-model copy fits one chunk:
    # both orthonormality routes share one row pass and the completeness
    # matrix makes one (26 with a pass per q and route)
    import swl.wavelet

    calls = []
    real = swl.wavelet.row_terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(swl.wavelet, "row_terms", counting)
    swl.wavelet._PLANS.clear()
    code, _, _ = _invoke(capsys, *_README_CHECK)
    assert code == 0
    assert len(calls) == 2
    # the same request again runs both kept plans: no row pass at all
    code, _, _ = _invoke(capsys, *_README_CHECK)
    assert code == 0
    assert len(calls) == 2


def test_check_wavelet_coords_drop_entries_of_the_copy(tmp_path, monkeypatch, capsys):
    # so route B runs route A's passes again over the one entry kept, on
    # every numpy that CI runs: route A's pass of the 3 shifts over the
    # copy's 4 rows, then completeness's of its 5 shifts over the 4 rows.
    # The same request again runs the kept plans, with the same output
    import swl.wavelet

    passes = []
    real = swl.wavelet.row_terms

    def counting(A, keys, w, runs):
        passes.append((len(keys[0]), runs))
        return real(A, keys, w, runs)

    monkeypatch.setattr(swl.wavelet, "row_terms", counting)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dropping.json").write_text(json.dumps(_DROPPING_COORDS))
    swl.wavelet._PLANS.clear()
    code, out, err = _invoke(capsys, *_DROPPING_CHECK)
    assert code <= 1 and err == ""
    assert isinstance(json.loads(out), dict)
    assert passes == [(12, 3), (20, 5)]
    assert _invoke(capsys, *_DROPPING_CHECK) == (code, out, err)
    assert passes == [(12, 3), (20, 5)]


def _scaling_digest(out: str) -> str:
    # sha256 of the report without the size of its circle cross-check: that
    # comes from numpy's complex exponential, whose last bits may vary with
    # the platform, while the autocorrelation residuals are exact sums
    doc = json.loads(out)
    (note,) = doc["report"]["notes"]
    head, cross = note.rsplit(" ", 1)
    assert float(cross) <= 1e-12
    doc["report"]["notes"] = [head]
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


_README_SCALING = ("check-scaling", "--basis", "haar", "--function", "haar_scaling",
                   "--krange", "6")


@pytest.mark.parametrize("argv, exit_code, digest", [
    (_README_SCALING, 0, "24c813ff6fde989e46b0464d32c6cff11da94b04357628fde1d0f6f68d9560c6"),
    (("check-scaling", "--basis", "haar", "--function", "indicator(0,2)", "--krange", "4"), 1,
     "968dbfc26d2f3f08f8d124a68f7f5ca70ce993aff1404b962b4be7d61281a29f"),
])
def test_check_scaling_reports_are_pinned(capsys, argv, exit_code, digest):
    # the benchmark's two check-scaling requests, README's example the first;
    # the digests were recorded when each k had a generator pass of its own
    assert [line for line in _readme_lines() if line[0] == "check-scaling"] == [list(_README_SCALING)]
    code, out, err = _invoke(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert _scaling_digest(out) == digest


def test_check_scaling_shift_range_past_int64_exits_2(tmp_path, capsys):
    # phi's own shifts 2^63 apart need autocorrelation codes past int64
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"schema_version": 1, "model": "F", "basis": "haar", "entries": [
        {"i_or_j": 0, "n_or_m": n, "re": v, "im": 0.0} for n, v in ((-2**62, 0.6), (2**62, 0.8))]}))
    code, out, err = _invoke(capsys, "check-scaling", "--basis", "haar", "--coords", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("swl: error: ") and "int64" in err and "Traceback" not in err
    assert (f"phi's shifts run from {-2**62} to {2**62}: its translates are too far apart "
            "to index") in err


def test_alpha_row_json(capsys):
    code, out, _ = _invoke(capsys, "alpha", "--basis", "haar", "--row", "1", "0", "--mmax", "4")
    assert code == 0
    doc = _doc(out)
    entries = {(e["s"], e["j"], e["m"]): e["re"] for e in doc["entries"]}
    assert entries[("+", 0, 1)] == pytest.approx(-1 / math.sqrt(2))
    assert entries[("+", 0, 4)] == pytest.approx(0.25)
    assert all(e["im"] == 0 for e in doc["entries"])


def test_alpha_entry_json(capsys):
    code, out, _ = _invoke(capsys, "alpha", "--basis", "exponential",
                           "--entry", "1", "0", "+", "0", "1")
    assert code == 0
    doc = _doc(out)
    assert doc["value"]["im"] == pytest.approx(-math.sqrt(2) / math.pi)


def test_coords_roundtrip_through_act(tmp_path, capsys):
    coords_file = tmp_path / "psi.json"
    code, out, _ = _invoke(capsys, "coords", "--basis", "haar", "--function", "haar_wavelet",
                           "--model", "F", "--window", "4", "--out", str(coords_file))
    assert code == 0
    assert json.loads(coords_file.read_text())["entries"] == [
        {"i_or_j": 1, "n_or_m": 0, "re": 1.0, "im": 0.0}
    ]
    code, out, _ = _invoke(capsys, "act", "--basis", "haar", "--coords", str(coords_file),
                           "--model", "F", "--order", "DT", "-p", "1", "-q", "0",
                           "--window", "6", "--mmax", "60")
    assert code == 0
    doc = _doc(out)
    top = {(e["i_or_j"], e["n_or_m"]): e["re"] for e in doc["entries"]
           if abs(e["re"]) > 1e-6}
    assert top == {(2, 0): pytest.approx(1.0)}


def test_coords_model_g_reports_scale_tail(capsys):
    code, out, _ = _invoke(capsys, "coords", "--basis", "haar", "--function", "haar_scaling",
                           "--model", "G", "--window", "3", "--mmax", "5")
    assert code == 0
    doc = _doc(out)
    # mass of the box inside (-2^-5, 2^-5) bounds the clipped scale tail
    assert doc["scale_tail_bound"] == pytest.approx(2.0 ** -5)


def test_act_reports_the_clipped_tail_of_its_transfers(capsys):
    # D T on F transfers to the dilation model after T and back after D; the
    # report is the sum of the two transfers' tails
    code, out, _ = _invoke(capsys, "act", "--basis", "exponential", "--function",
                           "haar_wavelet", "-p", "1", "-q", "1", "--window", "3")
    assert code == 0
    A, w = AlphaMatrix(EXPONENTIAL), Window.symmetric(EXPONENTIAL, 3).with_dil_range(-48, 48)
    v = oracle_F_coords(parse_function_spec("haar_wavelet"), EXPONENTIAL, w)
    g, out_tail = transfer(shift_T(v, 1), A, w)
    back_tail = transfer(shift_D(g, 1), A, w)[1]
    assert _doc(out)["clipped_tail_bound"] == out_tail + back_tail
    assert out_tail + back_tail == pytest.approx(0.738774354948458, rel=1e-12)
    # a Haar translation-model word makes no transfer: D of the box is exact
    code, out, _ = _invoke(capsys, "act", "--basis", "haar", "--function", "haar_scaling",
                           "-p", "1", "-q", "0", "--mmax", "6")
    assert (code, _doc(out)["clipped_tail_bound"]) == (0, 0.0)
    assert [(e["i_or_j"], e["n_or_m"], e["re"]) for e in _doc(out)["entries"]] == [
        (0, 0, math.sqrt(0.5)), (1, 0, math.sqrt(0.5))]
    # a Haar dilation-model word transfers to translate and back: the row
    # (0, -1) of the translated box is a scale ladder, cut at scale 6
    code, out, _ = _invoke(capsys, "act", "--basis", "haar", "--function", "haar_scaling",
                           "--model", "G", "-p", "1", "-q", "-1", "--mmax", "6")
    A, w = AlphaMatrix(HAAR), Window.symmetric(HAAR, 6).with_dil_range(-6, 6)
    g = oracle_G_coords(parse_function_spec("haar_scaling"), HAAR, w)
    f, out_tail = transfer(g, A, w)
    back_tail = transfer(shift_T(f, -1), A, w)[1]
    assert out_tail == 0.0 and back_tail > 0.1
    assert (code, _doc(out)["clipped_tail_bound"]) == (0, back_tail)
    # a translation of the translation model is a shift: nothing is transferred
    code, out, _ = _invoke(capsys, "act", "--function", "haar_wavelet", "-p", "0", "-q", "3")
    assert (code, _doc(out)["clipped_tail_bound"]) == (0, 0.0)


def test_act_dilates_haar_translation_coords_far_up(capsys):
    # D^2000 T psi is one wavelet, of level 2000: a label past int64, no transfer
    code, out, _ = _invoke(capsys, "act", "--function", "haar_wavelet", "-p", "2000", "-q", "1")
    doc = _doc(out)
    assert code == 0 and doc["clipped_tail_bound"] == 0.0
    assert [(e["i_or_j"], e["n_or_m"], e["re"], e["im"]) for e in doc["entries"]] == [
        ((1 << 2000) + 1, 0, 1.0, 0.0)]


def test_act_label_past_the_digit_limit_exits_2(capsys):
    # D^20000 T psi is one wavelet of level 20000, whose label has 6,021
    # decimal digits: past the limit Python sets on int-to-str conversion,
    # which the JSON output keeps; the error names the label's size
    code, out, err = _invoke(capsys, "act", "--function", "haar_wavelet", "-p", "20000", "-q", "1")
    assert (code, out) == (2, "")
    assert err == (f"swl: error: a 20001-bit label has more decimal digits than the JSON "
                   f"output's limit of {sys.get_int_max_str_digits()}\n")


@pytest.mark.parametrize("model, entry, argv", [
    # a transfer (f_from_g before T) and the translation-model D, on labels
    # of either dtype: the first negative label is named
    ("G", {"s": "-", "i_or_j": -1, "n_or_m": 0}, ("-p", "0", "-q", "1")),
    ("G", {"s": "-", "i_or_j": -1, "n_or_m": 2 ** 70}, ("-p", "0", "-q", "1")),
    ("F", {"i_or_j": -1, "n_or_m": 0}, ("-p", "1", "-q", "0")),
    ("F", {"i_or_j": -1, "n_or_m": 2 ** 70}, ("-p", "-1", "-q", "0")),
])
def test_act_negative_haar_label_exits_2(tmp_path, capsys, model, entry, argv):
    label = "j" if model == "G" else "i"
    other = {"s": "+", "i_or_j": 3, "n_or_m": 1} if model == "G" else {"i_or_j": 3, "n_or_m": 1}
    doc = {"schema_version": 1, "model": model, "basis": "haar",
           "entries": [{**e, "re": 0.5, "im": 0.0} for e in (other, entry)]}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, "act", "--basis", "haar", "--coords", str(path),
                             "--model", model, *argv)
    assert (code, out) == (2, "")
    assert err == f"swl: error: haar labels are non-negative, got {label}=-1\n"


def test_fourier_check_and_csv(tmp_path, capsys):
    csv = tmp_path / "norms.csv"
    code, out, _ = _invoke(capsys, "fourier-check", "--fhat", "haar_phi",
                           "--check", "translates", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta,column_norm_sq"
    assert len(lines) == 513
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_fourier_check_failure_exit(capsys):
    code, out, _ = _invoke(capsys, "fourier-check", "--fhat", "indicator(-1/4,1/4)",
                           "--check", "translates", "--grid", "32", "--krange", "4")
    assert code == 1


def test_fourier_check_multiplication(capsys):
    code, out, _ = _invoke(capsys, "fourier-check", "--fhat", "shannon_phi",
                           "--check", "multiplication", "--grid", "64", "--krange", "2",
                           "--tol", "1e-12")
    assert code == 0


def test_fourier_check_scaling(capsys):
    code, out, _ = _invoke(capsys, "fourier-check", "--fhat", "shannon_phi",
                           "--check", "scaling", "--grid", "64", "--krange", "2")
    assert code == 0
    assert _doc(out)["report"]["check"] == "scaling_hypotheses"
    code, out, _ = _invoke(capsys, "fourier-check", "--fhat", "shannon_psi",
                           "--check", "scaling", "--grid", "64", "--krange", "3")
    assert code == 1
    assert _doc(out)["report"]["pass"] is False


def test_check_scaling(capsys):
    code, _, _ = _invoke(capsys, "check-scaling", "--basis", "haar",
                         "--function", "haar_scaling", "--krange", "4")
    assert code == 0
    code, _, _ = _invoke(capsys, "check-scaling", "--basis", "haar",
                         "--function", "piecewise[(0,2):1/2]", "--krange", "4")
    assert code == 1


def test_filter_verbs(tmp_path, capsys):
    code, out, _ = _invoke(capsys, "filter", "extract", "--basis", "haar",
                           "--function", "haar_scaling", "--krange", "4")
    assert code == 0
    h_doc = _doc(out)["filter"]
    assert h_doc["0"][0] == pytest.approx(1 / math.sqrt(2))

    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(h_doc))
    code, out, _ = _invoke(capsys, "filter", "mirror", "--coeffs", f"@{h_path}")
    assert code == 0
    assert _doc(out)["filter"]["0"][0] == pytest.approx(-1 / math.sqrt(2))

    code, _, _ = _invoke(capsys, "filter", "check-orthogonality", "--coeffs", f"@{h_path}")
    assert code == 0
    code, _, _ = _invoke(capsys, "filter", "check-pair", "--coeffs", f"@{h_path}")
    assert code == 0
    code, out, _ = _invoke(capsys, "filter", "reconstruct", "--basis", "haar",
                           "--function", "haar_scaling", "--coeffs", f"@{h_path}",
                           "--window", "6", "--mmax", "70", "--tol", "1e-10")
    assert code == 0
    doc = _doc(out)
    assert doc["report"]["pass"] is True
    psi_entries = {(e["i_or_j"], e["n_or_m"]): e["re"] for e in doc["wavelet_coords"]["entries"]
                   if abs(e["re"]) > 1e-6}
    assert psi_entries in ({(1, 0): pytest.approx(1.0)}, {(1, 0): pytest.approx(-1.0)})


def test_filter_orthogonality_failure_exit(capsys):
    code, _, _ = _invoke(capsys, "filter", "check-orthogonality",
                         "--coeffs", '{"0": [0.5, 0], "1": [0.5, 0]}')
    assert code == 1


_HAAR_COEFFS = '{"0": [0.7071067811865476, 0], "1": [0.7071067811865476, 0]}'


@pytest.mark.parametrize("verb", ["check-orthogonality", "check-pair"])
@pytest.mark.parametrize("grid", ["0", "-3"])
def test_empty_filter_grid_exits_2_naming_the_grid(capsys, verb, grid):
    code, out, err = _invoke(capsys, "filter", verb, "--coeffs", _HAAR_COEFFS, "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"swl: error: the circle grid needs at least 1 point, got grid={grid}\n"


@pytest.mark.parametrize("argv", [
    ("coords", "--function", "gaussian(1)"),
    ("fourier-check", "--fhat", "haar_phi"),
    ("filter", "check-orthogonality", "--coeffs", _HAAR_COEFFS),
])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "-1e-300"])
def test_bad_tolerance_exits_2_when_parsed(monkeypatch, capsys, argv, tol):
    # a negative or non-finite --tol is refused before any work is done
    import swl.cli

    calls = []
    for name in ("oracle_F_coords", "check_filter_orthogonality", "periodize"):
        monkeypatch.setattr(swl.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    code, out, err = _invoke(capsys, *argv, f"--tol={tol}")
    assert (code, out, calls) == (2, "", [])
    assert f"error: argument --tol: must be a finite, non-negative number, got '{tol}'" in err
    assert "Traceback" not in err


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = _invoke(capsys, "filter", "check-orthogonality", "--coeffs", _HAAR_COEFFS,
                           "--tol", "0")
    assert code in (0, 1) and _doc(out)["config"]["tol"] == 0.0


def test_usage_errors_exit_two(capsys):
    assert _invoke(capsys, "coords", "--basis", "haar", "--function", "nonsense(")[0] == 2
    assert _invoke(capsys, "coords", "--basis", "klein", "--function", "haar_wavelet")[0] == 2
    assert _invoke(capsys, "filter", "mirror", "--coeffs", "not-json")[0] == 2
    assert _invoke(capsys, "fourier-check", "--fhat", "bogus")[0] == 2
    # window too small for the transform support
    assert _invoke(capsys, "fourier-check", "--fhat", "shannon_psi", "--krange", "0")[0] == 2


def test_deterministic_output(capsys):
    args = ("alpha", "--basis", "haar", "--row", "0", "2", "--mmax", "6")
    _, first, _ = _invoke(capsys, *args)
    _, second, _ = _invoke(capsys, *args)
    assert first == second
    # canonical floats: 17 significant digits survive a JSON round trip
    doc = json.loads(first)
    assert doc["entries"][0]["re"] == pytest.approx(1 / math.sqrt(2))


# one usage error per subcommand, caught by its own parser
_USAGE = {
    "coords": ("--basis", "haar"),
    "alpha": ("--row", "1"),
    "act": ("-p", "1"),
    "check-wavelet": ("--pq", "x"),
    "check-scaling": ("--krange", "1.5"),
    "fourier-check": ("--check", "translates"),
    "filter": ("bogus",),
}


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", [
    ("alpha", "--basis", "exponential", "--entry", "1", "0", "+", "1", "2"),
    ("fourier-check", "--fhat", "zero", "--grid", "8", "--krange", "1"),
    ("coords", "--help"),
    ("filter", "bogus"),
])
def test_a_subcommand_request_builds_two_parsers(monkeypatch, capsys, argv):
    built = _count_parsers(monkeypatch)
    _invoke(capsys, *argv)
    assert built == ["swl", f"swl {argv[0]}"]


@pytest.mark.parametrize("argv", [("--version",), ("--help",), ("bogus",), ()])
def test_a_request_without_a_subcommand_builds_one_parser(monkeypatch, capsys, argv):
    built = _count_parsers(monkeypatch)
    _invoke(capsys, *argv)
    assert built == ["swl"]


@pytest.mark.parametrize("command", sorted(_USAGE))
def test_subcommand_help(capsys, command):
    code, out, err = _invoke(capsys, command, "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: swl {command} ")


@pytest.mark.parametrize("command", sorted(_USAGE))
def test_subcommand_usage_error_exits_two(capsys, command):
    code, out, err = _invoke(capsys, command, *_USAGE[command])
    assert code == 2 and out == ""
    assert f"\nswl {command}: error: " in err


@pytest.mark.parametrize("argv", [
    ("fourier-check", "--fhat", "indicator(1/0,1)"),
    ("fourier-check", "--fhat", "indicator(1,0)"),
    ("check-wavelet", "--function", "haar_wavelet", "--pq", "1", "--labels", "x1"),
    ("filter", "check-orthogonality", "--coeffs", '{"0": {"a": 1}}'),
    ("filter", "check-orthogonality", "--coeffs", "[1,2]"),
    ("act", "--coords", "@list", "-p", "0", "-q", "0"),
    ("act", "--coords", "@string_re", "-p", "0", "-q", "0"),
    ("act", "-p", "0", "-q", "0"),
    ("check-wavelet",),
    ("check-scaling",),
    ("filter", "extract"),
    ("filter", "mirror"),
    ("filter", "check-pair"),
    ("filter", "reconstruct"),
    ("filter", "reconstruct", "--coeffs", '{"0": [0.7071067811865476, 0]}'),
    # numbers past what the arithmetic holds, and non-finite filter coefficients
    ("coords", "--basis", "haar", "--function", "piecewise[(0,1):x^99999]"),
    ("act", "--basis", "haar", "--function", "haar_wavelet", "-p", "99999999999999999999",
     "-q", "0", "--window", "2"),
    ("filter", "check-orthogonality", "--coeffs", '{"0":[NaN,0]}'),
    ("filter", "check-orthogonality", "--coeffs", '{"0":[1e400,0]}'),
    # a coefficient file of another basis or of the other model
    ("act", "--basis", "haar", "--coords", "@exp_g", "--model", "G", "-p", "0", "-q", "0"),
    ("check-wavelet", "--basis", "haar", "--coords", "@exp_g"),
    ("check-scaling", "--basis", "haar", "--coords", "@exp_f"),
    ("check-wavelet", "--basis", "exponential", "--coords", "@exp_f"),
    ("check-scaling", "--basis", "exponential", "--coords", "@exp_g"),
    # a completeness label that is not one of the family's
    ("check-wavelet", "--basis", "haar", "--function", "haar_wavelet", "--labels", "+0,+-1",
     "--pq", "1", "--window", "3"),
    # D^-3000 spreads psi over 2^3000 boxes, more than any array holds
    ("act", "--basis", "haar", "--function", "haar_wavelet", "-p", "-3000", "-q", "1"),
])
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, argv):
    # "@name" stands for a coefficient file holding files[name]
    files = {
        "list": "[1, 2]",
        "string_re": json.dumps({"model": "F", "basis": "haar", "entries": [
            {"i_or_j": 1, "n_or_m": 0, "re": "1", "im": 0.0}]}),
        "exp_f": json.dumps({"model": "F", "basis": "exponential", "entries": [
            {"i_or_j": 0, "n_or_m": 0, "re": 1.0, "im": 0.0}]}),
        "exp_g": json.dumps({"model": "G", "basis": "exponential", "entries": [
            {"s": "+", "i_or_j": 1, "n_or_m": 0, "re": 0.5, "im": 0.0},
            {"s": "-", "i_or_j": 0, "n_or_m": 1, "re": 0.5, "im": 0.0}]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = _invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("swl: error: ") and "Traceback" not in err


@pytest.mark.parametrize("model, entry, argv, message", [
    ("F", {"i_or_j": -1, "n_or_m": 0}, ("act", "-p", "0", "-q", "1"), "got i=-1"),
    ("G", {"s": "+", "i_or_j": -1, "n_or_m": 0}, ("act", "--model", "G", "-p", "1", "-q", "0"),
     "got j=-1"),
    ("F", {"i_or_j": -1, "n_or_m": 0}, ("check-scaling",), "got i=-1"),
])
def test_coefficient_file_labels_are_checked_where_it_is_read(tmp_path, capsys, model, entry,
                                                              argv, message):
    # no transfer or D runs on these keys, so only the file's reader can
    # find the label outside the family's label set; a valid key comes first
    first = {"s": "+", "i_or_j": 1, "n_or_m": 0} if model == "G" else {"i_or_j": 1, "n_or_m": 0}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_version": 1, "model": model, "basis": "haar", "entries": [
        {**first, "re": 0.6, "im": 0.0}, {**entry, "re": 0.8, "im": 0.0}]}))
    code, out, err = _invoke(capsys, argv[0], "--basis", "haar", "--coords", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"swl: error: haar labels are non-negative, {message}\n"
    # the exponential family's labels are every integer
    path.write_text(path.read_text().replace('"haar"', '"exponential"'))
    code, out, err = _invoke(capsys, argv[0], "--basis", "exponential", "--coords", str(path),
                             *argv[1:])
    assert code in (0, 1) and err == ""


def test_a_spread_past_the_longest_array_names_its_boxes(capsys):
    # D^-61 T psi spreads over 2^61 unit boxes: more complex128 alphas than
    # one array can hold, refused before any array of them is built
    code, out, err = _invoke(capsys, "act", "--function", "haar_wavelet", "-p", "-61", "-q", "1")
    assert (code, out) == (2, "")
    assert "2^61 boxes" in err and "Traceback" not in err


@pytest.mark.parametrize("labels, message", [
    ("+0,+-1", "haar labels are non-negative, got j=-1"),
    ("+0,+x", "invalid literal for int() with base 10: 'x'"),
    # no labels: a rank of 0 of 0 would pass without testing anything
    (",", "no completeness labels in ','"),
])
def test_bad_completeness_label_exits_before_any_check(monkeypatch, capsys, labels, message):
    # the labels are input, so they are rejected before the oracle and the
    # orthonormality run
    import swl.cli

    calls = []
    for name in ("oracle_G_coords", "check_wavelet_orthonormality"):
        def counting(*args, _name=name, _real=getattr(swl.cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(swl.cli, name, counting)
    code, out, err = _invoke(capsys, "check-wavelet", "--basis", "haar", "--function",
                             "haar_wavelet", "--pq", "3", "--window", "6", "--labels", labels)
    assert (code, out, err) == (2, "", f"swl: error: {message}\n")
    assert calls == []


def test_out_of_memory_exits_two_without_traceback(monkeypatch, capsys):
    import swl.cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(swl.cli, "AlphaMatrix", exhausted)
    code, out, err = _invoke(capsys, "act", "--basis", "haar", "--function", "haar_wavelet",
                             "-p", "1", "-q", "0")
    assert (code, out, err) == (2, "", "swl: error: out of memory: the request is too large\n")


def test_console_entry_exits_with_the_check_verdict(monkeypatch, capsys):
    import swl.cli

    monkeypatch.setattr(sys, "argv", ["swl", "check-wavelet", "--function", "haar_scaling",
                                      "--pq", "1", "--window", "4"])
    with pytest.raises(SystemExit) as exit_:
        swl.cli.entry()
    assert exit_.value.code == 1
    assert _doc(capsys.readouterr().out)["report"]["pass"] is False


def test_exponential_coarse_columns_walk_only_the_window(capsys):
    # D^-70 moves the dilation coordinates to scales near -70, where an exponential
    # column has about 2^70 rows, none of them inside the window's translation range
    code, out, err = _invoke(capsys, "act", "--basis", "exponential", "--function",
                             "haar_wavelet", "-p", "-70", "-q", "1", "--window", "2",
                             "--mmax", "2")
    assert (code, err) == (0, "")
    assert _doc(out)["entries"] == []


@pytest.mark.parametrize("basis", ["haar", "exponential"])
def test_scale_past_double_range_is_an_input_error(capsys, basis):
    # the amplitude 2^(m/2) of a scale-1100 element is past double range
    code, out, err = _invoke(capsys, "coords", "--basis", basis, "--function",
                             "piecewise[(0,1):1]", "--model", "G", "--window", "1",
                             "--mmax", "1100")
    assert (code, out) == (2, "")
    assert err.startswith("swl: error: numbers out of range: ")


def test_scale_past_double_range_names_the_scale_and_the_limit(capsys):
    # CI's smoke request: the first window scale whose amplitude overflows
    code, out, err = _invoke(capsys, "coords", "--basis", "haar", "--function", "haar_wavelet",
                             "--model", "G", "--window", "2", "--mmax", "1100")
    assert (code, out) == (2, "")
    assert err == ("swl: error: numbers out of range: scale 1024 is past 1023, where the "
                   "amplitude 2^(scale/2) leaves double range\n")


def test_python_int_endpoints_give_the_closed_forms(capsys):
    # at scales up to 70 the exact route's endpoints over one power of two are
    # past 2^62 (Python ints); psi against the box K(+, 0, m) is -2^(-1/2) at
    # m = 1 and 2^(-m/2) above, and the other window elements give 0
    code, out, err = _invoke(capsys, "coords", "--basis", "haar", "--function", "haar_wavelet",
                             "--model", "G", "--window", "2", "--mmax", "70")
    entries = [{"s": "+", "i_or_j": 0, "n_or_m": m, "im": 0.0,
                "re": -math.sqrt(0.5) if m == 1 else math.sqrt(2.0 ** -m)} for m in range(1, 71)]
    config = {"basis": "haar", "function": "haar_wavelet", "model": "G", "tol": 1e-10, "window": 2}
    doc = {"basis": "haar", "model": "G", "entries": entries, "config": config,
           "scale_tail_bound": 2.0 ** -70, "schema_version": 1}
    assert (code, err) == (0, "")
    assert out == canonical_json(doc) + "\n"


@pytest.mark.parametrize("argv", [
    ("check-scaling", "--function", "indicator(0,2)", "--krange", "-1"),
    ("check-wavelet", "--function", "haar_wavelet", "--pq", "-1"),
    ("filter", "extract", "--function", "haar_scaling", "--krange", "-1"),
    ("filter", "check-orthogonality", "--krange", "-1",
     "--coeffs", '{"0": [0.7071067811865476, 0], "1": [0.7071067811865476, 0]}'),
    ("filter", "check-pair", "--coeffs", '{"0": [1, 0], "1": [1, 0]}', "--krange", "-1"),
])
def test_negative_grid_radius_is_an_input_error(capsys, argv):
    # an empty grid would make the check pass vacuously
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "non-negative" in err


def test_filter_extract_echoes_only_what_it_reads(capsys):
    # --basis and the other shared options are accepted but do not change extraction
    outs = [_invoke(capsys, "filter", "extract", "--function", "haar_scaling", "--krange", "2",
                    *extra)[1] for extra in ((), ("--basis", "exponential", "--window", "3"))]
    assert outs[0] == outs[1]
    assert _doc(outs[0])["config"] == {"function": "haar_scaling", "krange": 2}


# -- fuzz: mini-language and filter JSON through the whole CLI -------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_NUM = st.one_of(st.builds("{}/{}".format, st.integers(-9, 9), st.sampled_from([1, 2, 4, 8])),
                 st.sampled_from(["0.5", "-1.25", "1/3", "1/0", "99999999999999999999", "x", ""]))
_TERM = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]), _NUM,
                  st.sampled_from(["", "x", "*x", "x^2", "*x^3", "x^12", "x^9999", "**2"]))
_POLY = st.lists(_TERM, min_size=1, max_size=3).map("".join)


def _pieces(cuts, polys):
    # sorted dyadic breakpoints in quarters, so that most texts parse
    cuts = sorted(set(cuts))
    return "piecewise[" + "; ".join(
        f"({a}/4,{b}/4):{p}" for a, b, p in zip(cuts[::2], cuts[1::2], polys)) + "]"


_SPEC = st.one_of(
    st.builds(_pieces, st.lists(st.integers(-12, 12), min_size=2, max_size=6),
              st.lists(_POLY, min_size=3, max_size=3)),
    st.sampled_from(["haar_wavelet", "haar_scaling", "zero", "gaussian(1)", "gaussian(0)",
                     "indicator(0,3/4)", "piecewise[]", "piecewise[(0,1):"]),
    st.builds("indicator({},{})".format, _NUM, _NUM),
    st.builds("gaussian({})".format, _NUM),
    st.lists(st.builds("({},{}):{}".format, _NUM, _NUM, _POLY), max_size=3).map(
        lambda ps: "piecewise[" + "; ".join(ps) + "]"),
    st.text(max_size=24),
)
_REAL = st.one_of(st.floats(), st.integers(-(10 ** 20), 10 ** 20))
_ANY = st.one_of(_REAL, st.text(max_size=2), st.none(), st.lists(_REAL, max_size=3))
_FILTER = st.one_of(
    st.dictionaries(st.integers(-4, 4).map(str), st.lists(_REAL, min_size=2, max_size=2),
                    min_size=1, max_size=4).map(json.dumps),
    st.dictionaries(st.one_of(st.integers(-(10 ** 20), 10 ** 20).map(str), st.text(max_size=2)),
                    _ANY, max_size=3).map(json.dumps),
    st.text(max_size=24).filter(lambda t: not t.startswith("@")),  # "@" names a file
)


def _exits_cleanly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err


@settings(max_examples=150)
@given(text=_SPEC, basis=st.sampled_from(["haar", "exponential"]),
       model=st.sampled_from(["F", "G"]))
def test_function_text_never_crashes_the_cli(text, basis, model):
    _exits_cleanly("coords", "--basis", basis, "--model", model, "--function", text,
                   "--window", "1", "--mmax", "2")


@settings(max_examples=150)
@given(text=_FILTER, verb=st.sampled_from(["check-orthogonality", "check-pair", "mirror"]))
def test_filter_text_never_crashes_the_cli(text, verb):
    _exits_cleanly("filter", verb, "--coeffs", text, "--krange", "1", "--grid", "8")
