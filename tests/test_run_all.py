"""``benchmarks/run_all.py`` stamps exactly the artifacts it regenerated
(or was named), never the others — on a temporary root, so the
committed ``BENCH_*.json`` files are left alone."""

import json

import pytest

from benchmarks import run_all

NAMES = ("grounding", "lifted", "serve")
OLD = {"git_sha": "old", "stamped_unix": 1, "value": 42}


@pytest.fixture
def root(tmp_path, monkeypatch):
    for name in NAMES:
        run_all.artifact_path(name, tmp_path).write_text(json.dumps(OLD))
    monkeypatch.setattr(run_all, "git_sha", lambda: "new")
    return tmp_path


def stamps(root):
    return {
        name: json.loads(run_all.artifact_path(name, root).read_text())[
            "git_sha"]
        for name in NAMES
    }


def test_run_stamps_only_the_modules_that_ran(root, monkeypatch):
    ran = []
    monkeypatch.setattr(
        run_all, "run_module", lambda module: ran.append(module) or 0)
    assert run_all.main(["lifted"], root=root) == 0
    assert ran == [run_all.ARTIFACT_MODULES["lifted"]]
    assert stamps(root) == {"grounding": "old", "lifted": "new", "serve": "old"}
    payload = json.loads(run_all.artifact_path("lifted", root).read_text())
    assert payload["value"] == 42 and payload["stamped_unix"] > 1


def test_failed_module_stamps_nothing(root, monkeypatch):
    monkeypatch.setattr(run_all, "run_module", lambda module: 3)
    assert run_all.main(["lifted", "serve"], root=root) == 3
    assert set(stamps(root).values()) == {"old"}


def test_stamp_only_named_artifacts(root):
    assert run_all.main(["--stamp-only", "grounding", "serve"], root=root) == 0
    assert stamps(root) == {"grounding": "new", "lifted": "old", "serve": "new"}


def test_stamp_only_without_names_stamps_everything(root):
    assert run_all.main(["--stamp-only"], root=root) == 0
    assert set(stamps(root).values()) == {"new"}


def test_stamp_only_rejects_a_name_without_artifact(root):
    with pytest.raises(SystemExit):
        run_all.main(["--stamp-only", "columnar"], root=root)
    assert set(stamps(root).values()) == {"old"}
