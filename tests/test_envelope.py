"""Smoke test of scripts/envelope.py: two 20-step runs of a tiny config."""

import importlib.util
from pathlib import Path

import pytest

from dimattn import model

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "envelope.py"


def _envelope():
    spec = importlib.util.spec_from_file_location("envelope", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_a_tiny_config(tmp_path, corpus_path, capsys):
    envelope = _envelope()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        f"data = {corpus_path}\n"
        "seq_len = 48\nd_model = 32\nlayers = 1\nconvs = 2\nhead_dim = 16\n"
        "ffn_width = 64\nbatch_size = 4\nsteps = 20\nwarmup = 5\n"
        "eval_interval = 10\neval_batches = 2\nseed = 13\n", encoding="utf-8")
    run_cfg = envelope.config.load_config(cfg)
    runs = [envelope.run_one(run_cfg, k, str(tmp_path)) for k in range(2)]
    assert runs[0][0] == "unperturbed" and len(runs[0][1]) == 20
    # run 1 moves one entry of the first tensor, and init is restored after
    assert runs[1][0] == "embed"
    assert model.init_params is envelope._INIT

    envelope.report(runs, 5, str(tmp_path / "run0" / "metrics.csv"))
    out = capsys.readouterr().out
    assert "run  1 embed" in out
    assert "criterion 10.1 passes in" in out and "of 2 runs" in out
    assert f"held-out NLL {runs[0][2]:.4f} inside" in out
    assert out.count("steps ") == 4  # four 5-step buckets

    # one run per tensor at most, checked before anything trains
    tensors = len(model._param_specs(run_cfg))
    with pytest.raises(SystemExit):
        envelope.main(["--config", str(cfg), "--runs", str(tensors + 2)])
    assert f"--runs must be in [1, {tensors + 1}]" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        envelope.main(["--config", str(cfg), "--set", "stepz=5"])
    assert "unknown key 'stepz'" in capsys.readouterr().err
