"""Command-line interface: exit statuses, output formats, determinism."""

import json
import subprocess
import sys
import warnings

import pytest

from qfrac.cli import main


def run_cli(args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestVerify:
    def test_i0d_passes(self):
        code, out, _ = run_cli(["verify", "--id", "I0d", "--q", "0.5", "--z", "1.3"])
        assert code == 0
        assert "passed=True" in out

    def test_i5_passes(self):
        code, out, _ = run_cli(["verify", "--id", "I5", "--q", "0.5", "--a", "1.2",
                                "--c", "1.4", "--n", "3"])
        assert code == 0

    def test_parameter_window_is_usage_error(self):
        code, _, err = run_cli(["verify", "--id", "I5", "--q", "0.5", "--a", "1.2",
                                "--c", "0.5", "--n", "3"])
        assert code == 2
        assert "c outside (1, 1/q)" in err

    def test_missing_parameters_usage_error(self):
        code, _, err = run_cli(["verify", "--id", "I5", "--q", "0.5"])
        assert code == 2
        assert "missing" in err

    def test_q_out_of_range(self):
        code, _, err = run_cli(["verify", "--id", "I0d", "--q", "1.5"])
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as e:
            run_cli(["verify", "--id", "I0d", "--q", "0.5", "--bogus", "1"])
        assert e.value.code == 2

    def test_failing_variant_returns_one(self):
        code, out, _ = run_cli(["verify", "--id", "I11", "--q", "0.5", "--a", "0.8",
                                "--c", "1.2", "--tval", "0.25", "--variant", "q"])
        assert code == 1
        assert "passed=False" in out


    def test_numerical_breakdown_is_a_failure(self, tmp_path):
        # z = 1e-300 overflows the theta series: NonConvergent, no traceback
        out = tmp_path / "v.json"
        code, stdout, _ = run_cli(["verify", "--id", "I0d", "--q", "0.5", "--z", "1e-300",
                                   "--out", str(out)])
        assert code == 1
        assert "passed=False" in stdout and "NonConvergent" in stdout
        row, = json.loads(out.read_text())
        assert row["passed"] is False and "NonConvergent" in row["notes"]

    def test_overflow_emits_no_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, _ = run_cli(["verify", "--id", "I0d", "--q", "0.5", "--z", "1e-300"])
        assert code == 1 and "passed=False" in stdout
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSuite:
    def test_empty_grid_json(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, err = run_cli(["suite", "--grid", "empty", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == []

    def test_byte_identical_reports(self, tmp_path):
        # determinism: two runs of the same (cheap) configuration
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(["suite", "--grid", "empty", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(["suite", "--grid", "empty", "--format", "csv",
                              "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0].startswith("case,id,variant")


class TestKernel:
    def test_section6_rows(self, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run_cli(["kernel", "--section", "6", "--q", "0.5", "--a", "0.8",
                              "--c", "1.3", "--a3", "0.2", "--a4", "0.1",
                              "--points", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "phi1,phi2,kernel_over_w,series,abs_residual"
        assert len(lines) == 4
        worst = max(float(l.split(",")[-1]) for l in lines[1:])
        assert worst < 1e-6

    def test_section7_rows(self, tmp_path):
        out = tmp_path / "k7.csv"
        code, _, _ = run_cli(["kernel", "--section", "7", "--q", "0.5",
                              "--t1", "0.4", "--t2", "0.3", "--t3", "0.2",
                              "--t4", "0.1", "--r", "0.5", "--points", "2",
                              "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_missing_params(self):
        code, _, err = run_cli(["kernel", "--section", "6", "--q", "0.5"])
        assert code == 2


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["sweep", "--id", "I5", "--q", "0.5", "--c", "1.2",
                              "--n", "2", "--vary", "a=0.4,1.0",
                              "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,max_abs,max_rel,status"
        assert len(lines) == 3
        assert all(l.endswith("pass") for l in lines[1:])

    def test_sweep_records_skips(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["sweep", "--id", "I5", "--q", "0.5", "--n", "2",
                              "--a", "1.0", "--vary", "c=1.2,2.5",
                              "--out", str(out)])
        assert code == 0  # skipped cases do not fail the sweep
        text = out.read_text()
        assert "skip" in text

    def test_sweep_records_breakdown_as_fail(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(["sweep", "--id", "I0d", "--q", "0.5",
                              "--vary", "z=1.3,1e-300", "--out", str(out)])
        assert code == 1
        lines = out.read_text().strip().splitlines()
        assert lines[1].endswith(",pass")
        assert lines[2].startswith("1e-300,inf,inf,fail: NonConvergent")

    def test_bad_vary_spec(self):
        code, _, err = run_cli(["sweep", "--id", "I5", "--q", "0.5",
                                "--vary", "garbage"])
        assert code == 2


class TestEval:
    def test_hermite(self, tmp_path):
        out = tmp_path / "e.csv"
        code, _, _ = run_cli(["eval", "--fn", "hermite", "--q", "0.5", "--n", "1",
                              "--theta", "1.0471975511965976", "--out", str(out)])
        assert code == 0
        val = out.read_text().strip().splitlines()[1].split(",")[1]
        assert float(val) == pytest.approx(1.0, rel=1e-12)  # 2 cos(pi/3)

    def test_unknown_fn(self):
        code, _, err = run_cli(["eval", "--fn", "nope", "--q", "0.5"])
        assert code == 2
        assert "choices" in err


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "qfrac", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "suite" in proc.stdout
