"""Corpus loading, vocabulary, masked-LM batching.

Reserved ids sit at fixed positions 0-4: PAD, UNK, MASK, BOS, EOS.  The
vocabulary is built deterministically (frequency descending, ties broken
lexicographically) and newlines in the corpus become EOS tokens.  The id
stream is cut into non-overlapping fixed-length windows, padding the final
window; padded positions are never selected for masking and are excluded
from the loss.

Masking follows the usual masked-LM recipe: each non-reserved token is
independently selected with probability 0.15, and a selected token is
replaced by MASK 80% of the time, by a random non-reserved token 10%, and
left unchanged 10%.  All draws come from generators derived from the run
seed plus a step counter, so batch order can never change results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .tensor import derived_rng

PAD_ID, UNK_ID, MASK_ID, BOS_ID, EOS_ID = range(5)
RESERVED = ("<pad>", "<unk>", "<mask>", "<bos>", "<eos>")
IGNORE_ID = -1

_STREAM_BATCH = 0xBA
_STREAM_MASK = 0x3A
_STREAM_EVAL = 0xE7


@dataclass
class Vocab:
    tokens: list  # id -> token, reserved entries first

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if self.tokens[:5] != list(RESERVED):
            raise ValueError("vocab must start with the five reserved tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)


def _token_stream(text: str, tokenizer: str):
    """The corpus as one array of tokens in order, with each newline kept
    as its own token; returns (stream, newline).  "char" gives code points,
    "whitespace_word" the maximal runs of non-whitespace, as str.split()
    cuts each line."""
    if tokenizer == "char":
        return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32), ord("\n")
    if tokenizer == "whitespace_word":
        # \s is the whitespace str.split() splits on
        return np.array(re.findall(r"\n|[^\s]+", text), dtype=object), "\n"
    raise ValueError(f"unknown tokenizer {tokenizer!r}")


def build_corpus(path, tokenizer: str = "char", vocab_cap: int = 0):
    """Read a UTF-8 text file into (Vocab, id stream).

    Newlines become EOS ids; out-of-vocabulary tokens become UNK.  vocab_cap
    bounds the number of non-reserved entries (0 means unbounded).
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stream, newline = _token_stream(text, tokenizer)
    eos = stream == newline
    if eos.all():
        raise ValueError(f"empty corpus: {path}")
    # unique tokens in ascending order; a stable sort on the count keeps
    # that order among ties
    uniq, inverse, counts = np.unique(stream[~eos], return_inverse=True,
                                      return_counts=True)
    ordered = np.argsort(-counts, kind="stable")
    if vocab_cap:
        ordered = ordered[:vocab_cap]
    table = np.full(uniq.size, UNK_ID, dtype=np.int64)
    table[ordered] = np.arange(len(RESERVED), len(RESERVED) + ordered.size)
    ids = np.full(stream.size, EOS_ID, dtype=np.int64)
    ids[~eos] = table[inverse]
    tokens = uniq[ordered].tolist()
    if tokenizer == "char":
        tokens = [chr(c) for c in tokens]
    return Vocab(list(RESERVED) + tokens), ids


def windows(ids: np.ndarray, n: int):
    """Cut the stream into [num_windows, n] plus pad flags; PAD fills the tail.

    Concatenating the windows and dropping padded positions reproduces the
    stream exactly.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    total = len(ids)
    num = (total + n - 1) // n
    out = np.full((num, n), PAD_ID, dtype=np.int64)
    pad = np.ones((num, n), dtype=bool)
    flat = out.reshape(-1)
    flat[:total] = ids
    pad.reshape(-1)[:total] = False
    return out, pad


def apply_mlm_mask(tokens: np.ndarray, rng: np.random.Generator,
                   vocab_size: int, select_p: float = 0.15, mask_p: float = 0.8,
                   random_p: float = 0.1, keep_p: float = 0.1):
    """Mask one token row; returns (inputs, targets, selected flags).

    Targets hold the original token at selected positions and IGNORE_ID
    elsewhere.  Reserved tokens (ids 0-4, including padding) are never
    selected.  All three random draws happen for every position so the
    consumed stream length does not depend on token content.
    """
    if abs(mask_p + random_p + keep_p - 1.0) > 1e-12:
        raise ValueError("mask/random/keep probabilities must sum to 1")
    tokens = np.asarray(tokens)
    n = tokens.shape[0]
    sel_draw = rng.random(n)
    split_draw = rng.random(n)
    rand_words = rng.integers(len(RESERVED), vocab_size, size=n)
    eligible = tokens >= len(RESERVED)
    selected = eligible & (sel_draw < select_p)
    inputs = tokens.copy()
    use_mask = selected & (split_draw < mask_p)
    use_random = selected & (split_draw >= mask_p) & (split_draw < mask_p + random_p)
    inputs[use_mask] = MASK_ID
    inputs[use_random] = rand_words[use_random]
    targets = np.where(selected, tokens, IGNORE_ID)
    return inputs, targets, selected


@dataclass
class MaskedBatch:
    inputs: np.ndarray    # [B, N] ids fed to the model
    targets: np.ndarray   # [B, N] originals at selected positions, IGNORE_ID elsewhere
    mask: np.ndarray      # [B, N] bool, selected positions
    pad: np.ndarray       # [B, N] bool, padding positions

    def __post_init__(self):
        if not np.all(self.targets[self.mask] >= 0):
            raise ValueError("every flagged position must carry its original token")


def split_windows(win: np.ndarray, pad: np.ndarray, valid_fraction: float):
    """Deterministic train/valid split: the trailing fraction is validation."""
    num = win.shape[0]
    n_valid = max(1, int(round(num * valid_fraction))) if valid_fraction > 0 else 0
    n_valid = min(n_valid, num - 1) if num > 1 else 0
    cut = num - n_valid
    return (win[:cut], pad[:cut]), (win[cut:], pad[cut:])


def mlm_batch(win, pad, vocab_size, seed, step, batch_size, eval_mode=False):
    """Assemble one masked batch; eval batches use per-window mask streams."""
    num = win.shape[0]
    if eval_mode:
        rows = np.arange(step * batch_size, min((step + 1) * batch_size, num))
    else:
        rows = derived_rng(seed, _STREAM_BATCH, step).integers(0, num, size=batch_size)
    inputs, targets, flags = [], [], []
    for j, r in enumerate(rows):
        if eval_mode:
            rng = derived_rng(seed, _STREAM_EVAL, int(r))
        else:
            rng = derived_rng(seed, _STREAM_MASK, step, j)
        inp, tgt, sel = apply_mlm_mask(win[r], rng, vocab_size)
        inputs.append(inp)
        targets.append(tgt)
        flags.append(sel)
    return MaskedBatch(
        inputs=np.stack(inputs),
        targets=np.stack(targets),
        mask=np.stack(flags),
        pad=pad[rows],
    )


def clm_batch(win, pad, seed, step, batch_size, eval_mode=False):
    """Next-token batch: position i predicts token i+1; pads and the final
    position carry no loss."""
    num = win.shape[0]
    if eval_mode:
        rows = np.arange(step * batch_size, min((step + 1) * batch_size, num))
    else:
        rows = derived_rng(seed, _STREAM_BATCH, step).integers(0, num, size=batch_size)
    ids = win[rows]
    pads = pad[rows]
    targets = np.full_like(ids, IGNORE_ID)
    targets[:, :-1] = ids[:, 1:]
    mask = np.zeros_like(pads)
    mask[:, :-1] = ~pads[:, :-1] & ~pads[:, 1:]
    targets = np.where(mask, targets, IGNORE_ID)
    return MaskedBatch(inputs=ids, targets=targets, mask=mask, pad=pads)


def synth_corpus(path, n_chars: int, seed: int = 0, topics: int = 6):
    """Write a deterministic synthetic topic-coded corpus of >= n_chars chars.

    The text is a stream of topic segments.  Each topic owns a disjoint set
    of consonants (vowels are shared), and every word is a fresh uniform
    string over its topic's letters, so a masked character is predictable
    from the surrounding window content (which reveals the topic) while the
    immediate neighbors carry no extra information beyond that.  This gives
    desk-scale masked-LM runs a clean window-global learning signal without
    shipping any external text.
    """
    rng = derived_rng(seed, 0xC0)
    vowels = "aeiou"
    consonants = "bcdfghjklmnprstvwz"
    per_topic = len(consonants) // topics
    topic_chars = []
    for t in range(topics):
        cons = consonants[t * per_topic:(t + 1) * per_topic]
        topic_chars.append(cons + vowels)

    chunks = []
    size = 0
    while size < n_chars:
        letters = topic_chars[int(rng.integers(0, topics))]
        sentences = 3 + int(rng.integers(0, 4))
        parts = []
        for _ in range(sentences):
            words = []
            for _ in range(4 + int(rng.integers(0, 6))):
                length = 3 + int(rng.integers(0, 5))
                idx = rng.integers(0, len(letters), size=length)
                words.append("".join(letters[int(i)] for i in idx))
            parts.append(" ".join(words) + ".")
        segment = " ".join(parts)
        chunks.append(segment)
        size += len(segment) + 1
    text = "\n".join(chunks) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path
