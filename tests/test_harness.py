import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dimattn import checkpoint, cli, config, data, train, verify
from dimattn.tensor import make_rng


class TestBuildCorpus:
    def test_char_hand_fixture(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ab\nab", encoding="utf-8")
        vocab, ids = data.build_corpus(path, "char")
        assert vocab.tokens == list(data.RESERVED) + ["a", "b"]
        a, b = vocab.tokens.index("a"), vocab.tokens.index("b")
        assert ids.tolist() == [a, b, data.EOS_ID, a, b]

    def test_word_vocab_cap(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("red blue red green red blue", encoding="utf-8")
        vocab, ids = data.build_corpus(path, "whitespace_word", vocab_cap=1)
        assert vocab.size == 6  # five reserved + "red"
        kept = vocab.tokens.index("red")
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

    @staticmethod
    def _loop_oracle(path, tokenizer, vocab_cap):
        """The per-token loop build_corpus replaced: (tokens, ids)."""
        with open(path, encoding="utf-8") as f:
            text = f.read()
        split = list if tokenizer == "char" else str.split
        lines = [split(line) for line in text.split("\n")]
        counts = {}
        for line in lines:
            for tok in line:
                counts[tok] = counts.get(tok, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        if vocab_cap:
            ordered = ordered[:vocab_cap]
        tokens = list(data.RESERVED) + ordered
        index = {t: i for i, t in enumerate(tokens)}
        ids = []
        for i, line in enumerate(lines):
            if i:
                ids.append(data.EOS_ID)
            ids.extend(index.get(t, data.UNK_ID) for t in line)
        return tokens, ids

    @pytest.mark.parametrize("tokenizer", ["char", "whitespace_word"])
    @pytest.mark.parametrize("vocab_cap", [0, 3])
    @pytest.mark.parametrize("text", [
        "the cat\nsat on  the mat\n\nthe end\n",
        "zeta alpha\talpha\r\nbeta\x1c gamma  ",  # no trailing newline
        "ünï cödé ünï\n€ € \U0001d11e\nx",
    ])
    def test_matches_loop_oracle(self, tmp_path, tokenizer, vocab_cap, text):
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        vocab, ids = data.build_corpus(path, tokenizer, vocab_cap)
        tokens, want = self._loop_oracle(path, tokenizer, vocab_cap)
        assert vocab.tokens == tokens
        assert ids.dtype == np.int64 and ids.tolist() == want
        if vocab_cap:
            assert data.UNK_ID in want

    @pytest.mark.parametrize("vocab_cap", [0, 20])
    def test_synthetic_corpus_matches_loop_oracle(self, corpus_path, vocab_cap):
        for tokenizer in ("char", "whitespace_word"):
            vocab, ids = data.build_corpus(corpus_path, tokenizer, vocab_cap)
            tokens, want = self._loop_oracle(corpus_path, tokenizer, vocab_cap)
            assert vocab.tokens == tokens
            assert ids.tolist() == want


class TestWindows:
    def test_lossless_reconstruction(self, rng):
        for _ in range(10):
            ids = rng.integers(0, 50, int(rng.integers(1, 300)))
            win, pad = data.windows(ids, int(rng.integers(1, 40)))
            assert np.array_equal(win.reshape(-1)[~pad.reshape(-1)], ids)
            assert (win[pad] == data.PAD_ID).all()

    def test_pad_fill(self):
        win, pad = data.windows(np.arange(5), 3)
        assert win.shape == (2, 3)
        assert win[1].tolist() == [3, 4, data.PAD_ID]
        assert pad[1].tolist() == [False, False, True]


class TestMlmMask:
    def test_zero_selection(self, rng, monkeypatch):
        monkeypatch.setattr(data, "SELECT_P", 0.0)
        tokens = rng.integers(5, 30, 50)
        inputs, targets, sel = data.apply_mlm_mask(tokens, make_rng(0), 30)
        assert np.array_equal(inputs, tokens)
        assert not sel.any()
        assert (targets == data.IGNORE_ID).all()

    def test_full_selection_all_mask(self, rng, monkeypatch):
        monkeypatch.setattr(data, "SELECT_P", 1.0)
        monkeypatch.setattr(data, "MASK_P", 1.0)
        tokens = rng.integers(5, 30, 50)
        inputs, targets, sel = data.apply_mlm_mask(tokens, make_rng(0), 30)
        assert sel.all()
        assert (inputs == data.MASK_ID).all()
        assert np.array_equal(targets, tokens)

    def test_reserved_never_selected(self, monkeypatch):
        monkeypatch.setattr(data, "SELECT_P", 1.0)
        tokens = np.array([data.PAD_ID, data.EOS_ID, data.MASK_ID, 7, 8])
        _, _, sel = data.apply_mlm_mask(tokens, make_rng(1), 30)
        assert sel.tolist() == [False, False, False, True, True]

    def test_all_reserved_flags_empty_mask(self):
        tokens = np.full(6, data.EOS_ID)
        _, _, sel = data.apply_mlm_mask(tokens, make_rng(2), 30)
        assert not sel.any()  # caller sees an empty selection

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
            "lr = 0.002   # inline comment\n")
        assert cfg.task == "clm"
        assert cfg.steps == 50
        assert cfg.lr == pytest.approx(0.002)

    def test_unknown_key_rejected(self):
        # the last three were model switches that are now fixed
        for line in ("learning_rate = 0.1", "tie_embeddings = false",
                     "learned_positions = true", "scale_positions = true"):
            with pytest.raises(config.ConfigError, match="unknown key"):
                config.parse_config(line + "\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(config.ConfigError, match="key=value"):
            config.parse_config("steps 50\n")

    def test_block_config_sets_only_vocab_size(self):
        cfg = config.parse_config("seq_len = 7\nheads = 2\nd_model = 6\nattention = token\n"
                                  "seed = 3\nclip = 0.5\n")
        assert cfg.vocab_size == 0
        bc = cfg.block_config(vocab_size=13)
        assert bc.vocab_size == 13
        assert dataclasses.replace(bc, vocab_size=0) == cfg

    def test_vocab_size_is_not_a_key(self):
        with pytest.raises(config.ConfigError, match="unknown key"):
            config.parse_config("vocab_size = 40\n")
        assert len(config.KEYS) == 28

    def test_infinite_clip_means_no_clipping(self):
        assert config.parse_config("clip = inf\n").clip == float("inf")

    def test_echo_covers_every_field(self):
        cfg = config.RunConfig()
        lines = cfg.echo_lines()
        assert len(lines) == len(cfg.as_dict())
        assert any(line.startswith("seq_len=") for line in lines)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cfg = config.load_config(path)
    bc = cfg.block_config(vocab_size=40)
    assert (bc.vocab_size, bc.steps) == (40, cfg.steps)


@pytest.mark.parametrize("module, unloaded", [
    # cli.main pins the BLAS threads, which holds only if numpy is not yet
    # loaded when the console script imports the module
    ("dimattn.cli", ["numpy"]),
    # the oracles and their checks are never on the training path
    ("dimattn.train", ["dimattn.attention", "dimattn.masked", "dimattn.analysis",
                       "dimattn.verify"]),
], ids=["cli", "train"])
def test_cli_import_leaves_numpy_unloaded(module, unloaded):
    env = {k: v for k, v in os.environ.items() if k not in cli.THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys, {module}; print([m for m in {unloaded!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, retained", [
    (["flops", "--N", "8", "--d", "4", "--heads", "2", "--groups", "2"], True),
    (["bench", "--variants", "bogus"], False),
], ids=["flops", "bench"])
def test_heap_policy_per_subcommand(monkeypatch, capsys, argv, retained):
    calls = []
    monkeypatch.setattr(train, "_retain_heap", lambda: calls.append(argv[0]))
    cli.main(argv)
    assert calls == ([argv[0]] if retained else [])


# the verify suites that the acceptance criteria call
CRITERIA_SUITES = {
    "factored_equivalence", "masked_equivalence", "causality",
    "covariance_identity", "tensor_representations", "gradient_ops",
    "gradient_end_to_end", "flops_consistency", "masking_statistics",
}


def test_criteria_suites_exist():
    assert {name for name, _ in verify.SUITES} == CRITERIA_SUITES


TINY_CONFIG = ("seq_len = 16\nd_model = 8\nlayers = 1\nconvs = 2\nhead_dim = 4\n"
               "ffn_width = 16\nbatch_size = 2\nsteps = 6\nwarmup = 2\n"
               "eval_interval = 6\neval_batches = 1\n")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, corpus_path):
    """A 6-step masked-LM run; returns its checkpoint path."""
    root = tmp_path_factory.mktemp("tiny-run")
    cfg = root / "tiny.cfg"
    cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}", encoding="utf-8")
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

    def test_same_size_other_vocabulary(self, tiny_run, corpus_path, tmp_path, capsys):
        # one letter swapped for a character the corpus lacks
        text = Path(corpus_path).read_text(encoding="utf-8")
        letter = next(c for c in "etaoinshr" if c in text)
        fresh = next(c for c in "QZXJKVW#@%" if c not in text)
        other = tmp_path / "other.txt"
        other.write_text(text.replace(letter, fresh), encoding="utf-8")
        sizes = {data.build_corpus(p)[0].size for p in (corpus_path, other)}
        assert len(sizes) == 1
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(tiny_run), "--data", str(other)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "vocabulary differs" in err

    def test_version_1_file(self, tiny_run, tmp_path, capsys):
        path = tmp_path / "v1.ckpt"
        _rewrite_manifest(tiny_run, path, lambda m: m["manifest"].update(version=1))
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "unsupported checkpoint version 1" in err

    def test_split_token_projection(self, corpus_path, tmp_path, capsys):
        # a token checkpoint from before the fused q|k|v projection
        cfg = tmp_path / "token.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}attention = token\nheads = 2\n",
                       encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg),
                         "--ckpt-dir", str(tmp_path / "run")]) == 0
        params, manifest = checkpoint.load_checkpoint(tmp_path / "run" / "final.ckpt")
        wqkv = params.pop("l0.attn.wqkv")
        for name, block in zip(("wq", "wk", "wv"), np.split(wqkv, 3, axis=1)):
            params["l0.attn." + name] = block
        # beside the original: the manifest's corpus path is relative to it
        path = tmp_path / "run" / "split.ckpt"
        checkpoint.save_checkpoint(path, params, manifest)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "'l0.attn.wq'" in err

    def test_same_corpus_reproduces_training_nll(self, tiny_run):
        logged = (tiny_run.parent / "run.log").read_text().splitlines()[-1]
        nll = train.evaluate_checkpoint(str(tiny_run))["valid_nll"]
        assert logged == f"final_valid_nll={nll:.12g}"

    def test_unknown_manifest_key(self, tiny_run, tmp_path, capsys):
        params, cfg = checkpoint.load_checkpoint(tiny_run)
        path = tmp_path / "odd.ckpt"
        checkpoint.save_checkpoint(path, params, {**cfg, "warp_factor": 9})
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "warp_factor" in err

    @pytest.mark.parametrize("key,value", [("task", "bogus"), ("valid_fraction", 1.5),
                                           ("layers", "2")])
    def test_bad_manifest_value(self, tiny_run, tmp_path, capsys, key, value):
        params, cfg = checkpoint.load_checkpoint(tiny_run)
        path = tmp_path / "odd.ckpt"
        checkpoint.save_checkpoint(path, params, {**cfg, key: value})
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert key in err


def _rewrite_manifest(src, dst, edit):
    """Rebuild checkpoint src as dst with edit(members) applied to its
    {name: array} members, in which "manifest" is the decoded JSON; a
    manifest left as bytes is stored as they are."""
    with np.load(src) as npz:
        members = {name: npz[name] for name in npz.files}
    members["manifest"] = json.loads(members["manifest"].tobytes())
    edit(members)
    if "manifest" in members:
        text = members["manifest"]
        if not isinstance(text, bytes):
            text = json.dumps(text, sort_keys=True).encode("utf-8")
        members["manifest"] = np.frombuffer(text, np.uint8)
    with open(dst, "wb") as f:
        np.savez(f, **members)


class TestEvalRejectsMalformedCheckpoint:
    """A file that is not a whole checkpoint exits 2 and prints no NLL."""

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("manifest"), "no manifest member"),
        (lambda m: m.update(manifest=b'{"version": 3'), "corrupt checkpoint"),
        (lambda m: m["manifest"].update(version=2), "unsupported checkpoint version 2"),
        (lambda m: m["manifest"].update(config=[1]), "no config dict"),
        (lambda m: m.update({"l0.ffn.w1": m["l0.ffn.w1"].astype(np.int64)}),
         "'l0.ffn.w1' has dtype int64"),
    ], ids=["no-manifest", "manifest-not-json", "version-2", "config-not-dict",
            "int64-tensor"])
    def test_bad_manifest(self, tiny_run, tmp_path, capsys, edit, message, corpus_path):
        path = tmp_path / "bad.ckpt"
        _rewrite_manifest(tiny_run, path, lambda m: None)
        assert cli.main(["eval", "--ckpt", str(path), "--data", corpus_path]) == 0
        _rewrite_manifest(tiny_run, path, edit)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert message in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor(self, tiny_run, tmp_path, capsys, value):
        params, cfg = checkpoint.load_checkpoint(tiny_run)
        params["l0.ffn.w1"][3, 5] = value
        path = tmp_path / "nan.ckpt"
        checkpoint.save_checkpoint(path, params, cfg)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "'l0.ffn.w1' holds a non-finite value" in err

    def test_non_finite_nll(self, tiny_run, monkeypatch, capsys):
        monkeypatch.setattr(train, "cross_entropy_masked_fwd",
                            lambda *args: (float("inf"), None))
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(tiny_run)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "held-out NLL is inf" in err

    def test_eight_byte_file(self, tmp_path, capsys):
        # a zip's local-file signature and nothing else of it
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"PK\x03\x04\x00\x00\x00\x00")
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "corrupt checkpoint" in err


class TestCheckpointIntegrity:
    """A flipped bit anywhere in a checkpoint either exits 2 with one stderr
    line and no NLL, or changes nothing that the load returns."""

    @staticmethod
    def _check_copy(blob, tiny_run, path, corpus_path, capsys):
        path.write_bytes(blob)
        capsys.readouterr()
        code = cli.main(["eval", "--ckpt", str(path), "--data", corpus_path])
        out, err = capsys.readouterr()
        if code == 2:
            assert "valid nll" not in out
            assert len(err.splitlines()) == 1, err
            with pytest.raises(ValueError):
                checkpoint.load_checkpoint(path)
            return False
        assert code == 0
        (params, cfg), (want, want_cfg) = map(checkpoint.load_checkpoint, (path, tiny_run))
        assert cfg == want_cfg and sorted(params) == sorted(want)
        for name in want:
            assert params[name].dtype == want[name].dtype
            assert params[name].tobytes() == want[name].tobytes()
        return True

    def test_one_flip_in_every_member(self, tiny_run, tmp_path, corpus_path, capsys):
        blob = tiny_run.read_bytes()
        rng = np.random.default_rng(0)
        with zipfile.ZipFile(tiny_run) as zf:
            infos = zf.infolist()
        assert "manifest.npy" in [info.filename for info in infos]
        for info in infos:
            # the member's data follows its local header, name and extra field
            name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len
            bit = int(rng.integers(8 * start, 8 * (start + info.compress_size)))
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert not self._check_copy(bytes(flipped), tiny_run, tmp_path / "flip.ckpt",
                                        corpus_path, capsys), info.filename

    def test_random_flips(self, tiny_run, tmp_path, corpus_path, capsys):
        blob = tiny_run.read_bytes()
        rng = np.random.default_rng(1)
        rejected = 0
        for bit in rng.integers(0, 8 * len(blob), size=200):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            rejected += not self._check_copy(bytes(flipped), tiny_run,
                                             tmp_path / "flip.ckpt", corpus_path, capsys)
        assert rejected > 100

    @pytest.mark.parametrize("kind", ["parent-format", "npy-file", "truncated-zip"])
    def test_not_a_version_3_file(self, tiny_run, tmp_path, capsys, kind):
        path = tmp_path / "other.ckpt"
        if kind == "parent-format":
            path.write_bytes(b"TCKPT1" + struct.pack("<Q", 2) + b"{}")
        elif kind == "npy-file":
            with open(path, "wb") as f:
                np.save(f, np.ones(3))
        else:
            blob = tiny_run.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert err.count("\n") == 1 and "corrupt checkpoint" in err


class TestCorpusPathRelativeToCheckpoint:
    @pytest.mark.parametrize("given", ["relative", "absolute"])
    def test_two_checkouts_write_the_same_bytes(self, corpus_path, tmp_path, monkeypatch,
                                                given):
        blobs = []
        for checkout in ("a", "b"):
            root = tmp_path / checkout
            root.mkdir()
            shutil.copy(corpus_path, root / "corpus.txt")
            corpus = "corpus.txt" if given == "relative" else root / "corpus.txt"
            (root / "tiny.cfg").write_text(f"data = {corpus}\n{TINY_CONFIG}",
                                           encoding="utf-8")
            monkeypatch.chdir(root)
            assert cli.main(["train-mlm", "--config", "tiny.cfg", "--ckpt-dir", "run"]) == 0
            blobs.append((root / "run" / "final.ckpt").read_bytes())
        assert blobs[0] == blobs[1]
        # eval from a third directory finds the corpus through the checkpoint
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        run = Path("..", "a", "run")
        nll = train.evaluate_checkpoint(str(run / "final.ckpt"))["valid_nll"]
        logged = (run / "run.log").read_text().splitlines()[-1]
        assert logged == f"final_valid_nll={nll:.12g}"

    def test_checkpoint_directory_behind_a_symlink(self, corpus_path, tmp_path,
                                                   monkeypatch):
        (tmp_path / "real").mkdir()
        (tmp_path / "top").mkdir()
        (tmp_path / "top" / "link").symlink_to(tmp_path / "real")
        shutil.copy(corpus_path, tmp_path / "top" / "corpus.txt")
        (tmp_path / "top" / "tiny.cfg").write_text(f"data = corpus.txt\n{TINY_CONFIG}",
                                                   encoding="utf-8")
        monkeypatch.chdir(tmp_path / "top")
        assert cli.main(["train-mlm", "--config", "tiny.cfg",
                         "--ckpt-dir", "link/run"]) == 0
        monkeypatch.chdir(tmp_path)
        nll = train.evaluate_checkpoint("top/link/run/final.ckpt")["valid_nll"]
        logged = (tmp_path / "real" / "run" / "run.log").read_text().splitlines()[-1]
        assert logged == f"final_valid_nll={nll:.12g}"


class TestRunLog:
    def test_environment_recorded(self, tiny_run):
        lines = (tiny_run.parent / "run.log").read_text().splitlines()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env = [f"numpy={np.__version__}", f"blas={blas['name']} {blas['version']}"]
        env += [f"{var}={os.environ.get(var, 'unset')}" for var in cli.THREAD_VARS]
        env.append(f"heap={train._retain_heap()}")
        assert env[-1] in ("heap=retained", "heap=default (no mallopt)",
                           "heap=default (mallopt failed)")
        # after the config echo, before the final NLL
        i = lines.index(env[0])
        assert lines[i - 1].startswith("valid_windows=")
        assert lines[i:] == env + [lines[-1]]
        assert lines[-1].startswith("final_valid_nll=")


# Minor page faults of each of 8 training steps, in a fresh process so the
# heap's history is the run's own; prints null where mallopt is missing.
_FAULT_SCRIPT = """
import json, resource
import numpy as np
from dimattn import model, train
from dimattn.config import RunConfig

if train._retain_heap() != "retained":
    print("null")
    raise SystemExit
faults = {}
for attention, task in (("dim", "mlm"), ("dim", "clm"), ("token", "mlm")):
    cfg = RunConfig(task=task, vocab_size=40, layers=1, attention=attention,
                    seq_len=100, batch_size=8, d_model=128, warmup=4)
    params = model.init_params(cfg, 0)
    state = model.AdamState()
    rng = np.random.default_rng(0)
    counts = []
    for step in range(8):
        ids, targets = rng.integers(0, 40, (2, 8, 100))
        mask = rng.random((8, 100)) < 0.15
        mask[:, 0] = True
        batch = (ids, targets, mask, np.zeros((8, 100), dtype=bool))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.train_step(batch, params, state, cfg, step)
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    faults[f"{attention} {task}"] = counts
print(json.dumps(faults))
"""


def test_training_steps_do_not_fault():
    # after two warm-up steps a training step reuses the heap it freed; the
    # heap layout moves with the size of the environment and with hash
    # seeding, so the script runs as given, with one more 500-byte variable,
    # and with PYTHONHASHSEED set
    env = dict(os.environ, **{var: "1" for var in cli.THREAD_VARS})
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    for extra in ({}, {"DIMATTN_FAULT_PAD": "x" * 500}, {"PYTHONHASHSEED": "0"}):
        out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env={**env, **extra},
                             check=True, capture_output=True, text=True).stdout
        faults = json.loads(out.splitlines()[-1])
        if faults is None:
            pytest.skip("no glibc mallopt: the heap keeps the allocator's defaults")
        for name, counts in faults.items():
            assert max(counts[2:]) <= 50, (sorted(extra), name, counts)


# bad values; all but the tokenizer and the corpora are config values
BAD_VALUES = [
    ("mlm", "precision = f16"),
    ("mlm", "norm_mode = bogus"),
    ("clm", "norm_mode = bogus"),
    ("mlm", "vocab_cap = -1"),
    ("mlm", "valid_fraction = 1.5"),
    ("mlm", "valid_fraction = 0"),
    ("mlm", "eval_batches = 0"),
    ("mlm", "attention = foo"),
    ("mlm", "tokenizer = bpe"),
    ("mlm", "dropout = 1.5"),
    ("mlm", "lr = -1"),
    ("mlm", "lr = inf"),
    ("mlm", "eps = inf"),
    ("mlm", "seq_len = 0"),
    ("mlm", "head_dim = -2"),
    ("mlm", "attention = token\nheads = 0"),
    ("mlm", "groups = 0"),
    ("mlm", "d_model = 0"),
    ("mlm", "layers = 0"),
    ("mlm", "layers = -1"),
    ("mlm", "data = {empty}"),
    ("clm", "data = {one_window}"),
]
CONFIG_VALUES = [(task, line) for task, line in BAD_VALUES
                 if not line.startswith(("tokenizer", "data"))]


class TestBadConfigValues:
    """Each value is rejected with exit 2 before a step runs: no NLL is
    printed and no checkpoint is written."""

    @pytest.mark.parametrize("task,line", BAD_VALUES)
    def test_exits_2(self, task, line, tmp_path, corpus_path, capsys):
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "one.txt").write_text("abcabc\n", encoding="utf-8")
        line = line.format(empty=tmp_path / "empty.txt", one_window=tmp_path / "one.txt")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}{line}\n", encoding="utf-8")
        rc = cli.main([f"train-{task}", "--config", str(cfg),
                       "--ckpt-dir", str(tmp_path / "run")])
        out, err = capsys.readouterr()
        assert rc == 2, err
        assert "nll" not in out
        assert not (tmp_path / "run" / "final.ckpt").exists()

    @pytest.mark.parametrize("task,line", CONFIG_VALUES)
    def test_rejected_when_built(self, task, line):
        with pytest.raises(config.ConfigError):
            config.parse_config(f"task = {task}\n{TINY_CONFIG}{line}\n")

    def test_eval_on_one_window_corpus_exits_2(self, tiny_run, tmp_path, capsys):
        short = tmp_path / "one.txt"
        short.write_text("abcabc\n", encoding="utf-8")
        assert cli.main(["eval", "--ckpt", str(tiny_run), "--data", str(short)]) == 2
        out, err = capsys.readouterr()
        assert "valid nll" not in out
        assert "empty held-out split" in err

    def test_unscored_eval_raises(self, tmp_path):
        # the held-out windows hold only end-of-line tokens, which masking
        # never selects
        corpus = tmp_path / "tail.txt"
        corpus.write_text("abcd" * 400 + "\n" * 400, encoding="utf-8")
        cfg = config.parse_config(f"data = {corpus}\n{TINY_CONFIG}")
        with pytest.raises(ValueError, match="no held-out token"):
            train.run_training(cfg, str(tmp_path / "run"), log=lambda line: None)


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

    def test_flops_out_file_equals_stdout(self, tmp_path, capsys):
        argv = ["flops", "--N", "37", "--d", "5", "--heads", "3", "--groups", "2",
                "--convs", "3", "--projections"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "flops.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    @pytest.mark.parametrize("argv", [
        ["flops", "--N", "0"],
        ["flops", "--d", "-3"],
        ["bench", "--repeats", "3"],
        ["bench", "--N", "6x4"],
        ["bench", "--N", "0"],
        ["bench", "--variants", "masked_streaming", "--N", "0", "--d", "8", "--repeats", "5"],
        ["bench", "--variants", "masked_naive,masked_streaming", "--N", "64", "--d", "0",
         "--repeats", "5"],
        ["verify", "--seed", "-1"],
    ], ids=["flops-N-0", "flops-d-neg", "bench-repeats-3", "bench-N-6x4", "bench-N-0",
            "bench-causal-N-0", "bench-causal-d-0", "verify-seed-neg"])
    def test_bad_number_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_flops_unwritable_out_exits_2(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        assert cli.main(["flops", "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_bench_unwritable_out_exits_2_before_the_sweep(self, tmp_path, capsys,
                                                           monkeypatch, where):
        from dimattn import analysis

        def sweep(*args, **kwargs):
            raise AssertionError("the timed sweep ran")

        monkeypatch.setattr(analysis, "bench_sweep", sweep)
        out = tmp_path / "missing" / "b.csv" if where == "missing-dir" else tmp_path
        assert cli.main(["bench", "--N", "64", "--d", "8", "--repeats", "5",
                         "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert len(err.splitlines()) == 1

    def test_train_unwritable_metrics_exits_2_before_any_step(self, tmp_path, corpus_path,
                                                             capsys, monkeypatch):
        from dimattn import model

        steps = []
        monkeypatch.setattr(model, "train_step", lambda *args: steps.append(args[-1]))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}", encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg), "--ckpt-dir", str(tmp_path / "run"),
                         "--metrics", str(tmp_path / "missing" / "m.csv")]) == 2
        assert steps == []
        out, err = capsys.readouterr()
        assert "final valid nll" not in out
        assert len(err.splitlines()) == 1

    def test_bench_unknown_variant_exits_2(self, capsys):
        assert cli.main(["bench", "--variants", "warp_drive", "--N", "64",
                         "--d", "8"]) == 2

    def test_bad_seed_override_exits_2(self, tmp_path, corpus_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}", encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg), "--seed", "-1",
                         "--ckpt-dir", str(tmp_path / "run")]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, prefix", [
        (["verify", "--seed", "-1"], "cannot run verify: "),
        (["bench", "--N", "0"], "cannot run bench: "),
        (["flops", "--N", "0"], "cannot run flops: "),
        (["eval", "--ckpt", "{tmp}/missing.ckpt"], "cannot run eval: "),
        (["train-mlm", "--config", "{tmp}/bad.cfg"], "config error: "),
    ], ids=["verify", "bench", "flops", "eval", "train-mlm"])
    def test_one_line_per_error(self, tmp_path, corpus_path, capsys, argv, prefix):
        (tmp_path / "bad.cfg").write_text(f"data = {corpus_path}\n{TINY_CONFIG}layers = 0\n",
                                          encoding="utf-8")
        assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(prefix), err

    @pytest.mark.parametrize("steps, message", [(1, "held-out NLL is nan"),
                                                (2, "non-finite training loss")])
    def test_diverged_run_exits_2(self, tmp_path, corpus_path, capsys, recwarn, steps,
                                  message):
        # the first step at lr = 1e300 leaves NaN weights: a one-step run meets
        # them in its held-out pass, a two-step run in its second step
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}lr = 1e300\nsteps = {steps}\n",
                       encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg),
                         "--ckpt-dir", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "final valid nll" not in out
        assert len(err.splitlines()) == 1 and message in err, err
        assert err.startswith("cannot run train-mlm: ")
        assert not (tmp_path / "run").exists()  # the run made it, so it removes it
        assert not recwarn.list  # numpy's warnings would print lines of their own

    def test_diverged_run_keeps_a_directory_that_existed(self, tmp_path, corpus_path,
                                                          capsys):
        # a failed run removes the outermost directory it made, sub/, and
        # keeps run/, which was there before, with its contents
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(f"data = {corpus_path}\n{TINY_CONFIG}lr = 1e300\nsteps = 1\n",
                       encoding="utf-8")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "notes.txt").write_text("kept\n", encoding="utf-8")
        assert cli.main(["train-mlm", "--config", str(cfg),
                         "--ckpt-dir", str(tmp_path / "run" / "sub" / "deeper")]) == 2
        assert "held-out NLL is nan" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["notes.txt"]
        assert (tmp_path / "run" / "notes.txt").read_text(encoding="utf-8") == "kept\n"

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
