"""Smoke tests of scripts/pairtime.py: the repo's tree against itself, two
rounds of one training step or one held-out pass; the output format only,
no timing."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "pairtime.py"


def _pairtime():
    spec = importlib.util.spec_from_file_location("pairtime", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("attention, extra, timed, unit", [
    ("token", [], "steps", "step"),
    ("dim", ["--eval"], "held-out passes", "pass"),
], ids=["steps", "eval"])
def test_the_tree_against_itself(tmp_path, corpus_path, capsys, attention, extra, timed,
                                 unit):
    pairtime = _pairtime()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        f"data = {corpus_path}\nattention = {attention}\nheads = 2\nhead_dim = 8\n"
        "seq_len = 48\nd_model = 32\nlayers = 1\nffn_width = 64\nbatch_size = 4\n"
        "steps = 20\nwarmup = 5\nseed = 13\neval_batches = 2\n", encoding="utf-8")
    src = str(ROOT / "src")
    pairtime.main(["--config", str(cfg), "--a", src, "--b", src, "--rounds", "2",
                   "--steps", "1", "--set", "dropout = 0.2"] + extra)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0] == (f"{cfg} dropout = 0.2: 2 rounds of 1 {timed} per tree after a "
                        "warm-up round, a first in even rounds")
    number = r"\d+\.\d{3}"
    for tag, line in zip("ab", lines[1:3]):
        assert re.fullmatch(rf"{tag} {re.escape(src)}: median {number} ms/{unit} "
                            rf"\[{number}, {number}\]", line), line
    assert re.fullmatch(r"b / a: median \d+\.\d{4} \[\d+\.\d{4}, \d+\.\d{4}\], "
                        r"b faster in [012] of 2 rounds", lines[3]), lines[3]
    # the two trees are imported as two packages, not one
    assert sys.modules["tree_a.model"] is not sys.modules["tree_b.model"]


def test_bad_arguments_exit_before_any_step(tmp_path, corpus_path, capsys):
    pairtime = _pairtime()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"data = {corpus_path}\n", encoding="utf-8")
    src = str(ROOT / "src")
    for extra, message in ((["--set", "stepz=5"], "unknown key 'stepz'"),
                           (["--rounds", "0"], "--rounds and --steps must be at least 1"),
                           (["--b", str(tmp_path)], "no dimattn package")):
        with pytest.raises(SystemExit) as exit_:
            pairtime.main(["--config", str(cfg), "--a", src, "--b", src] + extra)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err, extra
