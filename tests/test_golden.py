"""Golden CLI corpus: exact stdout, stderr and exit code of fixed commands.

``golden_cli.json`` lists argv lists with the exit code and the output
bytes `onsager` gave for them; every command is run in-process and must
reproduce both streams exactly, so a change in how any coefficient,
element or report is printed shows up here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from onsager import cli
from onsager.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: " ".join(case["argv"]))
def test_golden_cli(case, monkeypatch):
    monkeypatch.delenv("ONSAGER_CONFIG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"], case["stderr"])


def test_golden_cli_warm_reuse(monkeypatch):
    """The whole corpus twice over in one process: no state leaks between calls."""
    monkeypatch.delenv("ONSAGER_CONFIG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        for case in CORPUS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(case["argv"])
            assert (code, out.getvalue(), err.getvalue()) == \
                (case["exit"], case["stdout"], case["stderr"]), case["argv"]


# keys of the dicts an element or a verify result would be written from
_ELEMENT_KEYS = {"words", "factors", "counterexample"}


def _holds_element_dict(value) -> bool:
    if isinstance(value, dict):
        return not _ELEMENT_KEYS.isdisjoint(value) or any(map(_holds_element_dict, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_element_dict, value))
    return False


def test_element_replies_bypass_the_dict_writer(monkeypatch):
    """normalize and bracket replies and verify reports are written as text
    from the numerators: no element or result dict reaches an encoder, and
    they keep their golden bytes."""
    def guarded(encode):
        def checked(*args, **kwargs):
            if _holds_element_dict(args):
                raise AssertionError("element reply built as a dict")
            return encode(*args, **kwargs)
        return checked

    monkeypatch.delenv("ONSAGER_CONFIG", raising=False)
    monkeypatch.setattr(cli, "_ENCODE", guarded(cli._ENCODE))
    # json.dumps and json.dump reach the encoder through these
    monkeypatch.setattr(json.JSONEncoder, "encode", guarded(json.JSONEncoder.encode))
    monkeypatch.setattr(json.JSONEncoder, "iterencode", guarded(json.JSONEncoder.iterencode))
    cases = [case for case in CORPUS if case["argv"][0] in ("normalize", "bracket", "verify")
             and "json" in case["argv"] and case["exit"] == 0]
    assert len(cases) >= 8 and sum(case["argv"][0] == "verify" for case in cases) >= 2
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
        assert (code, out.getvalue(), err.getvalue()) == (0, case["stdout"], ""), case["argv"]
