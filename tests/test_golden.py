"""The CLI's outputs on fixed inputs match the committed golden record
(see ``tests/golden.py`` for what it holds and how it is compared)."""

import golden


def test_cli_outputs_match_the_golden_record(tmp_path):
    problems = golden.compare(golden.outputs(tmp_path), golden.load())
    assert not problems, "\n".join(problems)
