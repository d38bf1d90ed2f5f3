import run
from workloads import DEFAULT_SEED


def test_every_failing_command_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "check_output", lambda cmd, text, seed: ["forced"])
    res = run.run_once("exact", DEFAULT_SEED, False, 170.0, "test")
    assert res["attempted"] == 13
    assert res["failed"] == 13
    assert len(res["problems"]) == 13
    assert list(tmp_path.iterdir()) == []  # the run's directory is gone
