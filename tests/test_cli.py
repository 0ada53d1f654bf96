"""Command-line workflows: construction, verification, minimization, exit codes."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import operator
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crsphere
from crsphere import GraphEmbedding, RankToleranceError, ar_embedding, certify
from crsphere.cli import EXIT_DATA, CliError, _load_embedding, main


def run(*argv):
    return main(list(argv))


def manifest_of(out: Path) -> dict:
    return json.loads(out.with_name(out.name + ".manifest.json").read_text())


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("construct", "--preset", "ar"),
         "4b465f132a204f6906fcfad074633a32b31ba831921d7075816aaf670fecc5bc"),
        (("construct", "--preset", "q-block", "--n", "2"),
         "b278157e497a4c5eee2a7f87ac4f83ded17335b20ef1d91a52be57545d71cf61"),
        (("construct", "--preset", "radial", "--m", "3"),
         "eb2d627741f1a0c7511fba626a6a72c09ec8103b698bc9d0d97f193115cd4fa9"),
        (("identity-check",),
         "41b502deafd3f415bc111c7b347938bef5b31ef61a9851c3ca66b26c94c2358a"),
    ],
    ids=["construct-ar", "construct-q-block-n2", "construct-radial-m3", "identity-check"],
)
def test_output_bytes_pinned(tmp_path, capsys, argv, digest):
    """The embedding file of construct, or the stdout of identity-check, byte for byte."""
    out = tmp_path / "e.json"
    extra = ("--out", str(out)) if argv[0] == "construct" else ()
    assert run(*argv, *extra) == 0
    data = out.read_bytes() if extra else capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


class TestConstruct:
    def test_ar_preset(self, tmp_path, capsys):
        out = tmp_path / "ar.json"
        assert run("construct", "--preset", "ar", "--out", str(out)) == 0
        E = GraphEmbedding.loads(out.read_text())
        assert (E.m, E.q, E.label) == (2, 1, "ahern-rudin")
        assert "S^3 -> C^3" in capsys.readouterr().out

    def test_q_block_preset(self, tmp_path):
        out = tmp_path / "q2.json"
        assert run("construct", "--preset", "q-block", "--n", "2", "--out", str(out)) == 0
        E = GraphEmbedding.loads(out.read_text())
        assert (E.m, E.q) == (4, 1)

    def test_control_presets(self, tmp_path):
        for kind in ("holomorphic", "zero", "radial"):
            out = tmp_path / f"{kind}.json"
            assert run("construct", "--preset", kind, "--m", "3", "--out", str(out)) == 0
            assert GraphEmbedding.loads(out.read_text()).label.startswith(kind)

    def test_bad_block_count(self, tmp_path):
        out = tmp_path / "x.json"
        for n in ("0", "33"):
            assert run("construct", "--preset", "q-block", "--n", n, "--out", str(out)) == 64
        assert not out.exists()

    def test_bad_control_dimension(self, tmp_path):
        out = tmp_path / "x.json"
        for m in ("1", "65"):
            assert run("construct", "--preset", "radial", "--m", m, "--out", str(out)) == 64
        assert not out.exists()

    def test_unknown_preset_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("construct", "--preset", "banana", "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 64

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(out))
        manifest = json.loads((tmp_path / "ar.json.manifest.json").read_text())
        assert manifest["command"] == "construct"
        assert manifest["for"] == "ar.json"
        assert "tool_version" in manifest
        assert manifest["config"] == {"preset": "ar", "n": None, "m": None, "out": str(out)}
        assert manifest["inputs"] == {}


class TestIdentityCheck:
    def test_clean_run(self, capsys):
        assert run("identity-check") == 0
        out = capsys.readouterr().out
        assert "lhs (3 terms)" in out
        assert "identity holds" in out

    def test_fault_injection(self, capsys):
        assert run("identity-check", "--inject-fault") == 1
        out = capsys.readouterr().out
        assert "residual (1 terms)" in out

    def test_report_file(self, tmp_path):
        report = tmp_path / "id.json"
        assert run("identity-check", "--report", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["holds"] is True
        assert payload["residual"]["terms"] == []
        manifest = manifest_of(report)
        assert manifest["command"] == "identity-check"
        assert manifest["config"] == {"inject_fault": False, "report": str(report)}
        assert manifest["inputs"] == {}

    def test_no_report_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("identity-check") == 0
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def _write_ar(self, tmp_path):
        out = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(out))
        return out

    def test_ar_verifies(self, tmp_path, capsys):
        emb = self._write_ar(tmp_path)
        report = tmp_path / "rep.json"
        code = run("verify", str(emb), "--samples", "2000", "--report", str(report))
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["verdict"].startswith("all-regular")
        assert rep["extras"]["equivalence"]["disagreements"] == []
        assert "0 disagreements" in capsys.readouterr().out

    def test_manifest(self, tmp_path):
        emb = self._write_ar(tmp_path)
        report = tmp_path / "rep.json"
        assert run("verify", str(emb), "--samples", "1000", "--seed", "7",
                   "--workers", "2", "--report", str(report)) == 0
        manifest = manifest_of(report)
        assert manifest["command"] == "verify"
        assert manifest["for"] == "rep.json"
        assert manifest["config"] == {
            "embedding": str(emb), "samples": 1000, "seed": 7, "tol": 1e-8,
            "workers": 2, "report": str(report), "hist": None,
        }
        assert manifest["inputs"] == {str(emb): sha256_of(emb)}

    def test_failure_manifest(self, tmp_path):
        emb = tmp_path / "holo.json"
        run("construct", "--preset", "holomorphic", "--m", "2", "--out", str(emb))
        report = tmp_path / "rep.json"
        hist = tmp_path / "h.csv"
        assert run("verify", str(emb), "--samples", "500", "--tol", "1e-6",
                   "--report", str(report), "--hist", str(hist)) == 2
        manifest = manifest_of(report)
        assert manifest["config"] == {
            "embedding": str(emb), "samples": 500, "seed": 42, "tol": 1e-6,
            "workers": None, "report": str(report), "hist": str(hist),
        }
        assert manifest["inputs"] == {str(emb): sha256_of(emb)}

    def test_internal_fault_exits_70(self, tmp_path, monkeypatch, capsys):
        emb = self._write_ar(tmp_path)

        def broken_sweep(E, cfg):
            raise RankToleranceError("injected fault")

        monkeypatch.setattr("crsphere.cli.sweep", broken_sweep)
        report = tmp_path / "r.json"
        assert run("verify", str(emb), "--samples", "100", "--report", str(report)) == 70
        assert "RankToleranceError: injected fault" in capsys.readouterr().err
        assert not (tmp_path / "r.json.manifest.json").exists()

    def test_control_fails_with_witness(self, tmp_path, capsys):
        emb = tmp_path / "holo.json"
        run("construct", "--preset", "holomorphic", "--m", "2", "--out", str(emb))
        report = tmp_path / "rep.json"
        code = run("verify", str(emb), "--samples", "500", "--report", str(report))
        assert code == 2
        assert "witness point" in capsys.readouterr().out
        assert json.loads(report.read_text())["verdict"] == "failure-found"

    def test_corrupt_embedding(self, tmp_path):
        bad = tmp_path / "bad.json"
        surrogate = json.dumps(ar_embedding().to_json_dict()).replace("ahern-rudin", "\\ud800")
        for content in (
            b"{broken",
            b"\xff\xfe",  # not UTF-8
            b"[" * 200_000,  # nested too deeply for the JSON parser
            b'{"m": 1000000, "q": 1, "label": "x", "f": [{"m": 1000000, "terms": []}]}',
            surrogate.encode(),  # a label that cannot be printed
        ):
            bad.write_bytes(content)
            assert run("verify", str(bad), "--report", str(tmp_path / "r.json")) == 65
            assert list(tmp_path.iterdir()) == [bad]  # no report, no manifest

    @pytest.mark.parametrize(
        "field, value",
        [("re", "1/0"), ("re", "1e400"), ("alpha", [1.5, 0]),
         ("beta", [1, 4000]), ("re", "17e307"), ("re", "1e-1000000")],
        ids=["zero-denominator", "overflow", "fractional-exponent",
             "degree-above-bound", "derivative-overflow", "decimal-exponent-above-bound"],
    )
    def test_malformed_term_is_data_error(self, tmp_path, field, value):
        emb = self._write_ar(tmp_path)
        data = json.loads(emb.read_text())
        data["f"][0]["terms"][0][field] = value
        emb.write_text(json.dumps(data))
        assert run("verify", str(emb), "--samples", "100",
                   "--report", str(tmp_path / "r.json")) == 65

    @pytest.mark.parametrize(
        "poly_m, fields",
        [(2, {"m": 2.7, "q": 1.9}), (2, {"q": "1"}), (2.0, {})],
        ids=["fractional-m-q", "string-q", "float-polynomial-m"],
    )
    def test_non_integer_dimension_is_data_error(self, tmp_path, poly_m, fields):
        emb = self._write_ar(tmp_path)
        data = json.loads(emb.read_text())
        data.update(fields)
        data["f"][0]["m"] = poly_m
        emb.write_text(json.dumps(data))
        assert run("verify", str(emb), "--samples", "100",
                   "--report", str(tmp_path / "r.json")) == 65

    def test_missing_embedding(self, tmp_path):
        nope, report = str(tmp_path / "nope.json"), str(tmp_path / "r.json")
        assert run("verify", nope, "--report", report) == 65
        # the configs check --samples/--tol before the embedding is read, while
        # multistart_minimize checks --restarts after it
        assert run("verify", nope, "--samples", "0", "--report", report) == 64
        assert run("minimize", nope, "--tol", "0", "--report", report) == 64
        assert run("minimize", nope, "--restarts", "0", "--report", report) == 65

    def test_histogram_export(self, tmp_path):
        emb = self._write_ar(tmp_path)
        hist = tmp_path / "h.csv"
        run("verify", str(emb), "--samples", "1000",
            "--report", str(tmp_path / "r.json"), "--hist", str(hist))
        assert hist.read_text().startswith("bin_left,bin_right,count")

    def test_byte_identical_reports_across_runs_and_workers(self, tmp_path):
        emb = self._write_ar(tmp_path)
        reports = []
        for sub, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            d = tmp_path / sub
            d.mkdir()
            rep = d / "report.json"
            code = run("verify", str(emb), "--samples", "4000",
                       "--seed", "42", "--workers", workers, "--report", str(rep))
            assert code == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_report_round_trips_through_reader(self, tmp_path):
        emb = self._write_ar(tmp_path)
        report = tmp_path / "rep.json"
        run("verify", str(emb), "--samples", "500", "--report", str(report))
        text = report.read_text()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


class TestMinimize:
    def test_ar_cross_check_gap(self, tmp_path, capsys):
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        report = tmp_path / "min.json"
        code = run("minimize", str(emb), "--restarts", "8", "--report", str(report))
        assert code == 0
        cc = json.loads(report.read_text())["extras"]["ar_cross_check"]
        assert cc["gap"] <= 1e-6
        assert (cc["profile_min"], cc["profile_argmin_t"]) == (1 / 9, 1 / 3)
        assert "cross-check" in capsys.readouterr().out

    def test_radial_control_reports_zero(self, tmp_path, capsys):
        emb = tmp_path / "radial.json"
        run("construct", "--preset", "radial", "--m", "2", "--out", str(emb))
        report = tmp_path / "min.json"
        assert run("minimize", str(emb), "--restarts", "2", "--report", str(report)) == 2
        rep = json.loads(report.read_text())
        assert rep["best_value"] <= 1e-18
        assert rep["verdict"] == "failure-found"
        witness = [complex(*w) for w in rep["argmin_z"]]
        assert capsys.readouterr().out.splitlines()[-1] == f"witness point: {witness}"

    def test_manifest(self, tmp_path):
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        report = tmp_path / "min.json"
        assert run("minimize", str(emb), "--restarts", "2", "--seed", "3",
                   "--objective", "det", "--report", str(report)) == 0
        manifest = manifest_of(report)
        assert manifest["command"] == "minimize"
        assert manifest["config"] == {
            "embedding": str(emb), "restarts": 2, "seed": 3, "tol": 1e-8,
            "objective": "det", "report": str(report),
        }
        assert manifest["inputs"] == {str(emb): sha256_of(emb)}

    def test_iteration_cap_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(certify, "_MAX_ITER", 5)
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        assert run("minimize", str(emb), "--restarts", "2",
                   "--report", str(tmp_path / "min.json")) == 0
        assert ("warning: 3 restart(s) did not converge (iteration cap or stalled step)"
                in capsys.readouterr().out)

    def test_removed_iteration_flags_are_usage_errors(self, tmp_path):
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        for flag, value in (("--max-iter", "5"), ("--step-tol", "1e-3")):
            with pytest.raises(SystemExit) as exc:
                run("minimize", str(emb), flag, value, "--report", str(tmp_path / "r.json"))
            assert exc.value.code == 64

    def test_zero_restarts_usage_error(self, tmp_path):
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        assert run("minimize", str(emb), "--restarts", "0",
                   "--report", str(tmp_path / "r.json")) == 64

    def test_det_objective(self, tmp_path):
        emb = tmp_path / "ar.json"
        run("construct", "--preset", "ar", "--out", str(emb))
        report = tmp_path / "min.json"
        assert run("minimize", str(emb), "--restarts", "4", "--objective", "det",
                   "--report", str(report)) == 0
        rep = json.loads(report.read_text())
        assert rep["objective"] == "det_sq"
        assert abs(rep["best_value"] - 1 / 9) < 1e-6


def test_cli_import_loads_no_scipy(tmp_path):
    src = Path(crsphere.__file__).resolve().parent.parent
    emb, report = tmp_path / "ar.json", tmp_path / "min.json"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import crsphere.cli; "
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        f"crsphere.cli.main(['construct', '--preset', 'ar', '--out', {str(emb)!r}]); "
        f"code = crsphere.cli.main(['minimize', {str(emb)!r}, '--restarts', '2', "
        f"'--report', {str(report)!r}]); "
        "print(loaded, code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "[] 0 []"


def _overflowing_ar(tmp_path) -> Path:
    """The ar embedding plus 64 terms zbar_1^e with coefficient 2.5e306.

    It passes the loader's bounds, but its values overflow a float.
    """
    emb = tmp_path / "ovf.json"
    run("construct", "--preset", "ar", "--out", str(emb))
    data = json.loads(emb.read_text())
    data["f"][0]["terms"] += [
        {"alpha": [0, 0], "beta": [e, 0], "re": "2.5e306", "im": "0"} for e in range(1, 65)
    ]
    emb.write_text(json.dumps(data))
    return emb


@pytest.mark.parametrize(
    "argv",
    [("verify", "--samples", "2000"), ("minimize", "--restarts", "2")],
    ids=["verify", "minimize"],
)
def test_overflowing_embedding_is_data_error(tmp_path, capsys, argv):
    emb = _overflowing_ar(tmp_path)
    report = tmp_path / "r.json"
    assert run(argv[0], str(emb), *argv[1:], "--report", str(report)) == 65
    assert "cannot be evaluated in floating point" in capsys.readouterr().err
    assert not report.exists()
    assert not (tmp_path / "r.json.manifest.json").exists()


@pytest.mark.parametrize(
    "preset, argv",
    [
        ("ar", ("verify", "--samples", "0")),
        ("ar", ("verify", "--tol", "0")),
        ("ar", ("verify", "--workers", "0")),
        ("ar", ("verify", "--seed", "-1")),
        ("ar", ("minimize", "--tol", "0")),
        ("ar", ("minimize", "--seed", "-1")),
        ("q-block", ("minimize", "--objective", "det")),
        ("ar", ("verify", "--tol", "1")),
        ("ar", ("verify", "--tol", "inf")),
        ("ar", ("minimize", "--tol", "inf")),
        ("ar", ("verify", "--workers", "65")),  # refused before any thread starts
        # from tol 0.1 on every full-rank point would be marginal
        ("ar", ("verify", "--tol", "0.5")),
        ("ar", ("minimize", "--tol", "0.1")),
    ],
    ids=["verify-samples-0", "verify-tol-0", "verify-workers-0", "verify-seed-negative",
         "minimize-tol-0", "minimize-seed-negative", "minimize-det-non-square",
         "verify-tol-1", "verify-tol-inf", "minimize-tol-inf", "verify-workers-65",
         "verify-tol-0.5", "minimize-tol-0.1"],
)
def test_bad_flag_value_is_usage_error(tmp_path, capsys, preset, argv):
    emb = tmp_path / "e.json"
    run("construct", "--preset", preset, "--n", "2", "--out", str(emb))
    assert run(argv[0], str(emb), *argv[1:], "--report", str(tmp_path / "r.json")) == 64
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--preset", "ar", "--out", "{missing}"),
        ("verify", "{emb}", "--samples", "500", "--report", "{missing}"),
        ("verify", "{emb}", "--samples", "500", "--report", "{tmp}/r.json",
         "--hist", "{missing}"),
    ],
    ids=["construct-out", "verify-report", "verify-hist"],
)
def test_unwritable_output_is_cantcreat(tmp_path, capsys, argv):
    emb = tmp_path / "ar.json"
    run("construct", "--preset", "ar", "--out", str(emb))
    missing = tmp_path / "no-such-dir" / "x"
    argv = [a.format(emb=emb, missing=missing, tmp=tmp_path) for a in argv]
    assert run(*argv) == 73
    err = capsys.readouterr().err
    assert f"cannot write {missing}" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [emb, tmp_path / "ar.json.manifest.json"]


_IN_RANGE = {
    "samples": st.integers(1, 2_000),
    "restarts": st.integers(1, 4),
    "workers": st.integers(1, 8),
    "seed": st.integers(0, 2**32),
    "tol": st.floats(0, 1e-3, exclude_min=True),
}
_OUT_OF_RANGE = {
    "samples": st.integers(max_value=0),
    "restarts": st.integers(max_value=0),
    "workers": st.integers(max_value=0) | st.integers(65, 10**6),  # refused, never started
    "seed": st.integers(max_value=-1),
    "tol": st.sampled_from([math.nan, math.inf, -math.inf])
    | st.floats(max_value=0) | st.floats(0.1, 1, exclude_max=True) | st.floats(min_value=1),
}
_SETTINGS = {"verify": ("samples", "seed", "tol", "workers"),
             "minimize": ("restarts", "seed", "tol")}


@st.composite
def _flag_values(draw):
    """A command and a value for each of its range-checked flags, some out of range."""
    command = draw(st.sampled_from(sorted(_SETTINGS)))
    bad = draw(st.sets(st.sampled_from(_SETTINGS[command])))
    values = {name: draw((_OUT_OF_RANGE if name in bad else _IN_RANGE)[name])
              for name in _SETTINGS[command]}
    return command, values, bad


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_flag_values())
def test_flag_values_exit_usage_exactly_when_out_of_range(case):
    command, values, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        emb, report = Path(tmp) / "ar.json", Path(tmp) / "r.json"
        emb.write_text(ar_embedding().dumps() + "\n")
        # --flag=value, so argparse does not take a negative value for a flag
        argv = [command, str(emb), "--report", str(report)]
        argv += [f"--{name}={value!r}" for name, value in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(*argv)
        if bad:
            assert code == 64
            assert any(f"--{name}" in err.getvalue() for name in bad)
            assert sorted(Path(tmp).iterdir()) == [emb]  # no report, no manifest
        else:
            assert code == 0, err.getvalue()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
_AR = ar_embedding().to_json_dict()


def _paths(node, prefix=()):
    """Every key path into a JSON value, the empty path first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


@st.composite
def _ar_mutations(draw):
    """The ar embedding file with one field replaced by any JSON value, or deleted."""
    data = copy.deepcopy(_AR)
    path = draw(st.sampled_from(list(_paths(_AR))[1:]))
    parent = functools.reduce(operator.getitem, path[:-1], data)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON)
    return json.dumps(data).encode()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(st.binary(), _JSON.map(lambda v: json.dumps(v).encode()), _ar_mutations()))
def test_loader_returns_embedding_or_data_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.json"
        path.write_bytes(content)
        try:
            E = _load_embedding(str(path))
        except CliError as exc:
            assert exc.code == EXIT_DATA
        else:
            assert isinstance(E, GraphEmbedding)
