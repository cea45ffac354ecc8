"""The tools' job runners: ``byte_gate.py run`` and ``config_sweep.py``
write every job, then fail if a job did."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_gate.py"


def _byte_gate():
    spec = importlib.util.spec_from_file_location("byte_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_exits_1_after_writing_every_job(tmp_path, monkeypatch, capsys):
    gate = _byte_gate()
    space = {"space": {"kappa": 0.0, "tau": 0.5}, "output": {"basename": "s", "formats": ["json"]}}
    jobs = [
        ("broken", "classify", {"space": {"kappa": 0.0}}),  # a config error: exit 2
        ("fine", "classify", space),
    ]
    monkeypatch.setattr(gate, "_jobs", lambda: jobs)
    assert gate.run(str(tmp_path / "a")) == 1
    codes = {name: (tmp_path / "a" / name / "exit_code").read_text() for name, _, _ in jobs}
    assert codes == {"broken": "2\n", "fine": "0\n"}
    assert (tmp_path / "a" / "fine" / "out" / "s.classify.json").exists()
    assert "nonzero exit: broken: exit 2" in capsys.readouterr().err
    monkeypatch.setattr(gate, "_jobs", lambda: jobs[1:])
    assert gate.run(str(tmp_path / "b")) == 0


def test_sweep_writes_every_job_and_fails_on_a_traceback(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("config_sweep", TOOL.parent / "config_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.sweep(1, 2, str(tmp_path / "a")) == 0
    jobs = ("chart", "verify-17", "verify-41", "export", "deform")
    assert {p.name for p in (tmp_path / "a").iterdir()} == {f"{k:04d}-{job}" for k in range(2) for job in jobs}
    assert "exit outside {0, 1, 2} or a traceback: 0" in capsys.readouterr().out

    def crash(argv):
        raise ValueError("not a BcvHelixError")

    monkeypatch.setattr(sweep.byte_gate.load_cli(), "main", crash)
    assert sweep.sweep(1, 1, str(tmp_path / "b")) == 1
    assert "0000-chart: exit crash" in capsys.readouterr().out
    assert "Traceback" in (tmp_path / "b" / "0000-chart" / "stderr").read_text()


@pytest.mark.parametrize(
    "stdout, stderr, problem",
    [
        ("", "error: one\nerror: two\n", "no report and 2 stderr lines, not one error line"),
        ("", "", "no report and 0 stderr lines, not one error line"),
        ("", "warning: not an error line\n", "no report and 1 stderr lines, not one error line"),
        ('{"checks": {}, "pass": true}\n', "error: beside a report\n", "a report and 1 stderr lines"),
    ],
    ids=["two-error-lines", "silent", "other-line", "report-and-stderr"],
)
def test_sweep_fails_on_stderr_that_breaks_the_report_rule(tmp_path, monkeypatch, capsys, stdout, stderr, problem):
    # a job without a report prints exactly one error line on stderr, and a
    # job with one prints nothing there
    spec = importlib.util.spec_from_file_location("config_sweep", TOOL.parent / "config_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def main(argv):
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        return 1

    monkeypatch.setattr(sweep.byte_gate.load_cli(), "main", main)
    assert sweep.sweep(1, 1, str(tmp_path / "a")) == 1
    out = capsys.readouterr().out
    assert "exit outside {0, 1, 2} or a traceback: 0" in out
    assert "stderr output with a report, or not one error line without one: 5" in out
    assert f"0000-chart: exit 1, {problem}" in out
