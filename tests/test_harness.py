import dataclasses

import numpy as np
import pytest

from dimattn import checkpoint, cli, config, data, model
from dimattn.tensor import make_rng


class TestBuildCorpus:
    def test_char_hand_fixture(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ab\nab", encoding="utf-8")
        vocab, ids = data.build_corpus(path, "char")
        assert vocab.tokens == list(data.RESERVED) + ["a", "b"]
        a, b = vocab.index["a"], vocab.index["b"]
        assert ids.tolist() == [a, b, data.EOS_ID, a, b]

    def test_word_vocab_cap(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("red blue red green red blue", encoding="utf-8")
        vocab, ids = data.build_corpus(path, "whitespace_word", vocab_cap=1)
        assert vocab.size == 6  # five reserved + "red"
        kept = vocab.index["red"]
        assert set(ids.tolist()) == {kept, data.UNK_ID}

    def test_deterministic(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("the quick fox\nthe slow fox", encoding="utf-8")
        v1, s1 = data.build_corpus(path, "whitespace_word")
        v2, s2 = data.build_corpus(path, "whitespace_word")
        assert v1.tokens == v2.tokens
        assert np.array_equal(s1, s2)

    def test_vocab_order_frequency_then_lexicographic(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("b b a a c", encoding="utf-8")
        vocab, _ = data.build_corpus(path, "whitespace_word")
        assert vocab.tokens[5:] == ["a", "b", "c"]  # ties broken by spelling

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty corpus"):
            data.build_corpus(path, "char")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            data.build_corpus(tmp_path / "nope.txt", "char")


class TestWindows:
    def test_lossless_reconstruction(self, rng):
        for _ in range(10):
            ids = rng.integers(0, 50, int(rng.integers(1, 300)))
            win, pad = data.windows(ids, int(rng.integers(1, 40)))
            assert np.array_equal(win.reshape(-1)[~pad.reshape(-1)], ids)

    def test_pad_fill(self):
        win, pad = data.windows(np.arange(5), 3)
        assert win.shape == (2, 3)
        assert win[1].tolist() == [3, 4, data.PAD_ID]
        assert pad[1].tolist() == [False, False, True]


class TestMlmMask:
    def test_zero_selection(self, rng):
        tokens = rng.integers(5, 30, 50)
        inputs, targets, sel = data.apply_mlm_mask(tokens, make_rng(0), 30,
                                                   select_p=0.0)
        assert np.array_equal(inputs, tokens)
        assert not sel.any()
        assert (targets == data.IGNORE_ID).all()

    def test_full_selection_all_mask(self, rng):
        tokens = rng.integers(5, 30, 50)
        inputs, targets, sel = data.apply_mlm_mask(
            tokens, make_rng(0), 30, select_p=1.0, mask_p=1.0, random_p=0.0,
            keep_p=0.0)
        assert sel.all()
        assert (inputs == data.MASK_ID).all()
        assert np.array_equal(targets, tokens)

    def test_reserved_never_selected(self):
        tokens = np.array([data.PAD_ID, data.EOS_ID, data.MASK_ID, 7, 8])
        _, _, sel = data.apply_mlm_mask(tokens, make_rng(1), 30, select_p=1.0)
        assert sel.tolist() == [False, False, False, True, True]

    def test_all_reserved_flags_empty_mask(self):
        tokens = np.full(6, data.EOS_ID)
        _, _, sel = data.apply_mlm_mask(tokens, make_rng(2), 30)
        assert not sel.any()  # caller sees an empty selection

    def test_bad_probabilities(self, rng):
        with pytest.raises(ValueError, match="sum to 1"):
            data.apply_mlm_mask(rng.integers(5, 9, 4), make_rng(0), 9,
                                mask_p=0.5, random_p=0.1, keep_p=0.1)

    def test_statistics(self):
        stream = make_rng(3).integers(5, 40, 100_000)
        inputs, targets, sel = data.apply_mlm_mask(stream, make_rng(4), 40)
        frac = sel.mean()
        assert abs(frac - 0.15) <= 0.01
        masked = (inputs[sel] == data.MASK_ID).mean()
        kept = ((inputs[sel] == stream[sel]) & (inputs[sel] != data.MASK_ID)).mean()
        rand = 1.0 - masked - kept
        assert abs(masked - 0.8) <= 0.02
        assert abs(rand - 0.1) <= 0.02
        assert abs(kept - 0.1) <= 0.02

    def test_batch_invariant_targets(self, corpus_path):
        vocab, ids = data.build_corpus(corpus_path, "char")
        win, pad = data.windows(ids, 40)
        batch = data.mlm_batch(win, pad, vocab.size, seed=0, step=3, batch_size=4)
        assert (batch.targets[batch.mask] >= 5).all()
        assert (batch.targets[~batch.mask] == data.IGNORE_ID).all()
        assert not batch.mask[batch.pad].any()


class TestRunConfig:
    def test_parse_types_and_comments(self):
        cfg = config.parse_config(
            "# a comment\n"
            "task = clm\n"
            "steps=50\n"
            "lr = 0.002   # inline comment\n"
            "tie_embeddings = false\n")
        assert cfg.task == "clm"
        assert cfg.steps == 50
        assert cfg.lr == pytest.approx(0.002)
        assert cfg.tie_embeddings is False

    def test_unknown_key_rejected(self):
        with pytest.raises(config.ConfigError, match="unknown key"):
            config.parse_config("learning_rate = 0.1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(config.ConfigError, match="key=value"):
            config.parse_config("steps 50\n")

    def test_block_and_train_fields_reachable(self):
        own = {f.name for f in dataclasses.fields(config.RunConfig)}
        for cls in (model.BlockConfig, model.TrainConfig):
            for f in dataclasses.fields(cls):
                if f.name not in ("vocab_size", "n_max"):
                    assert f.name in own, f"{cls.__name__}.{f.name}"
        cfg = config.parse_config("seq_len = 7\nheads = 2\nd_model = 6\nattention = token\n"
                                  "seed = 3\nclip = 0.5\n")
        bc = cfg.block_config(vocab_size=13)
        assert (bc.vocab_size, bc.n_max, bc.heads, bc.d_model) == (13, 7, 2, 6)
        tc = cfg.train_config()
        assert (tc.seed, tc.clip) == (3, 0.5)

    def test_echo_covers_every_field(self):
        cfg = config.RunConfig()
        lines = cfg.echo_lines()
        assert len(lines) == len(cfg.as_dict())
        assert any(line.startswith("seq_len=") for line in lines)


def test_package_exports_resolve():
    import dimattn
    missing = [name for name in dimattn.__all__ if not hasattr(dimattn, name)]
    assert not missing


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, corpus_path):
    """A 6-step masked-LM run; returns its checkpoint path."""
    root = tmp_path_factory.mktemp("tiny-run")
    cfg = root / "tiny.cfg"
    cfg.write_text(
        f"data = {corpus_path}\nseq_len = 16\nd_model = 8\nlayers = 1\nconvs = 2\n"
        "head_dim = 4\nffn_width = 16\nbatch_size = 2\nsteps = 6\nwarmup = 2\n"
        "eval_interval = 6\neval_batches = 1\n", encoding="utf-8")
    assert cli.main(["train-mlm", "--config", str(cfg),
                     "--ckpt-dir", str(root / "run")]) == 0
    return root / "run" / "final.ckpt"


class TestEvalRejectsMismatch:
    def test_other_vocabulary(self, tiny_run, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text("abc cab bca\n" * 200, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(tiny_run), "--data", str(other)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "embed" in err

    def test_unknown_manifest_key(self, tiny_run, tmp_path, capsys):
        params, cfg = checkpoint.load_checkpoint(tiny_run)
        path = tmp_path / "odd.ckpt"
        checkpoint.save_checkpoint(path, params, {**cfg, "warp_factor": 9})
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "warp_factor" in err


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["transmogrify"])
        assert e.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["verify", "--tolerance", "1"])
        assert e.value.code == 2

    def test_flops_csv(self, capsys):
        rc = cli.main(["flops", "--N", "100", "--d", "64", "--heads", "8",
                       "--convs", "8", "--groups", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("variant,N,d,heads")
        assert any(line.startswith("token,100,64,8") for line in lines)
        assert any(line.startswith("dim,100,64,,1,8") for line in lines)

    def test_bench_unknown_variant_exits_2(self, capsys):
        assert cli.main(["bench", "--variants", "warp_drive", "--N", "64",
                         "--d", "8"]) == 2

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 5\n", encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_train_eval_roundtrip(self, tmp_path, corpus_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            f"data = {corpus_path}\n"
            "seq_len = 32\n"
            "d_model = 16\n"
            "layers = 1\n"
            "convs = 2\n"
            "head_dim = 8\n"
            "ffn_width = 32\n"
            "batch_size = 2\n"
            "steps = 12\n"
            "warmup = 4\n"
            "eval_interval = 6\n"
            "eval_batches = 2\n",
            encoding="utf-8")
        ckpt_dir = tmp_path / "run"
        rc = cli.main(["train-mlm", "--config", str(cfg),
                       "--ckpt-dir", str(ckpt_dir), "--seed", "9"])
        assert rc == 0
        metrics = (ckpt_dir / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "step,split,nll"
        assert metrics[1].startswith("0,train,")
        assert any(",valid," in line for line in metrics)
        run_log = (ckpt_dir / "run.log").read_text()
        assert "seed=9" in run_log  # --seed override echoed
        assert "steps=12" in run_log

        rc = cli.main(["eval", "--ckpt", str(ckpt_dir / "final.ckpt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid nll:" in out

    def test_train_clm_smoke(self, tmp_path, corpus_path):
        cfg = tmp_path / "clm.cfg"
        cfg.write_text(
            f"data = {corpus_path}\n"
            "seq_len = 24\nd_model = 16\nlayers = 1\nconvs = 2\nhead_dim = 8\n"
            "ffn_width = 32\nbatch_size = 2\nsteps = 8\nwarmup = 4\n"
            "eval_interval = 4\neval_batches = 2\n", encoding="utf-8")
        ckpt_dir = tmp_path / "clm-run"
        assert cli.main(["train-clm", "--config", str(cfg),
                         "--ckpt-dir", str(ckpt_dir)]) == 0
        assert (ckpt_dir / "final.ckpt").exists()
