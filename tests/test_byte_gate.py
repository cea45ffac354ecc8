"""``tools/byte_gate.py run`` writes every job, then fails if any job did."""

import importlib.util
from pathlib import Path

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
