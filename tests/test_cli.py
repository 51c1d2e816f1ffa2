"""Tests for the command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.finite import TupleIndependentTable
from repro.io import tuple_independent_to_json
from repro.relational import Schema

schema = Schema.of(R=1, S=2)
R, S = schema["R"], schema["S"]


@pytest.fixture
def table_file(tmp_path):
    table = TupleIndependentTable(schema, {
        R(1): 0.5, R(2): 0.25, S(1, 2): 0.8,
    })
    path = tmp_path / "table.json"
    path.write_text(tuple_independent_to_json(table))
    return str(path)


class TestInfo:
    def test_describes_table(self, table_file, capsys):
        assert main(["info", table_file]) == 0
        out = capsys.readouterr().out
        assert "TupleIndependentTable" in out
        assert "facts         : 3" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_exact_query(self, table_file, capsys):
        assert main(["query", table_file, "EXISTS x. R(x)"]) == 0
        out = capsys.readouterr().out
        assert "P(Q) = 0.625" in out  # 1 − 0.5·0.75

    def test_strategy_flag(self, table_file, capsys):
        assert main([
            "query", table_file, "R(1) AND S(1, 2)",
            "--strategy", "lineage",
        ]) == 0
        out = capsys.readouterr().out
        assert "0.4" in out

    def test_open_world_query(self, table_file, capsys):
        assert main([
            "query", table_file, "R(3)",
            "--open-world", "0.25,0.5", "--epsilon", "0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "P(Q) = 0.0" in out  # small but formatted
        assert "truncated" in out

    def test_bad_open_world_spec(self, table_file):
        with pytest.raises(SystemExit):
            main(["query", table_file, "R(1)", "--open-world", "bogus"])


class TestMarginals:
    def test_per_tuple(self, table_file, capsys):
        assert main(["marginals", table_file, "R(x)"]) == 0
        out = capsys.readouterr().out
        assert "(1,) : 0.5" in out
        assert "(2,) : 0.25" in out

    def test_boolean_rejected(self, table_file):
        with pytest.raises(SystemExit):
            main(["marginals", table_file, "EXISTS x. R(x)"])


class TestStrategyFlagEverywhere:
    """``--strategy`` reaches the finite evaluator in the open world too,
    and a sampled answer prints as an estimate with its half-width."""

    OPEN = ["--open-world", "0.2,0.5", "--epsilon", "0.05"]

    @staticmethod
    def run(capsys, *argv):
        assert main([*argv, "--stats", "json"]) == 0
        captured = capsys.readouterr()
        return captured.out, json.loads(captured.err)

    @pytest.mark.parametrize("command", [
        ["query", "EXISTS x. R(x)", *OPEN],
        ["query", "EXISTS x. R(x)", "--open-world", "0.2,0.5",
         "--sweep", "0.05"],
        ["marginals", "R(x)", *OPEN],
    ], ids=["query", "query-sweep", "marginals"])
    def test_open_world_answers_use_the_strategy(
            self, table_file, capsys, command):
        kind, text, *flags = command
        out, stats = self.run(
            capsys, kind, table_file, text, *flags, "--strategy", "bdd")
        assert stats["strategy"] == "bdd"
        assert "truncated at n = " in out

    def test_a_sampled_answer_is_printed_as_an_estimate(
            self, table_file, capsys):
        out, stats = self.run(
            capsys, "query", table_file, "EXISTS x. R(x)",
            "--strategy", "sampled")
        assert stats["strategy"] == "sampled"
        assert stats["sample_batches"] > 0
        assert "exact" not in out
        assert out.startswith("P(Q) = 0.6")
        assert f"± {stats['sampling_error']:.3g}  (sampled estimate" in out

    def test_sampled_marginals_are_printed_as_estimates(
            self, table_file, capsys):
        out, stats = self.run(
            capsys, "marginals", table_file, "R(x)", "--strategy", "sampled")
        assert stats["strategy"] == "sampled"
        assert stats["sampling_error"] > 0
        lines = out.splitlines()
        assert lines and all(
            f"± {stats['sampling_error']:.3g}  (sampled estimate; "
            "closed world)" in line for line in lines)

    def test_a_sampled_open_world_answer_carries_its_sampling_error(
            self, table_file, capsys):
        out, stats = self.run(
            capsys, "query", table_file, "EXISTS x. R(x)", *self.OPEN,
            "--strategy", "sampled")
        assert stats["strategy"] == "sampled"
        assert stats["sampling_error"] > 0
        assert (f"± {stats['sampling_error']:.3g}  (sampled estimate; "
                "±0.05, truncated at n = ") in out
