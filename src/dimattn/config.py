"""The run configuration: one dataclass, its checks, and the key=value parser.

`RunConfig` is the only configuration type.  The trainer, the model, the
optimizer and the evaluator all read it, and `__post_init__` checks every
value, so a config is checked wherever it is built: from a file, from a
checkpoint manifest or in code.  It is frozen; overrides go through
`dataclasses.replace`, which checks again.

The file format is one `key = value` pair per line, `#` starts a comment,
blank lines are ignored.  Unknown keys are rejected so typos fail loudly;
every effective value is echoed into the run log at startup.  `vocab_size`
is not a key: it comes from the corpus (`block_config`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .grad import NORM_MODES


class ConfigError(ValueError):
    pass


_POSITIVE = ("seq_len", "d_model", "layers", "heads", "groups", "convs", "ffn_width",
             "batch_size", "steps", "warmup", "eval_interval", "eval_batches")
_NON_NEGATIVE = ("vocab_cap", "head_dim", "seed", "vocab_size")


@dataclass(frozen=True)
class RunConfig:
    # task and data
    task: str = "mlm"
    data: str = ""
    tokenizer: str = "char"
    vocab_cap: int = 0
    seq_len: int = 100
    # model
    d_model: int = 128
    layers: int = 2
    attention: str = "dim"
    heads: int = 8            # token kind
    groups: int = 1           # dim kind
    convs: int = 8            # dim kind: filters per group
    head_dim: int = 0         # dim kind; 0 means d_model // (groups * convs)
    ffn_width: int = 256
    norm_mode: str = "softmax_rows_over_k"
    dropout: float = 0.1
    precision: str = "f64"
    # training
    seed: int = 0
    batch_size: int = 8
    steps: int = 2000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    warmup: int = 400
    clip: float = 1.0
    eval_interval: int = 100
    valid_fraction: float = 0.1
    eval_batches: int = 8
    # from the corpus, not a config key
    vocab_size: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            want = (int, float) if type(f.default) is float else type(f.default)
            if isinstance(value, bool) or not isinstance(value, want):
                raise ConfigError(f"{f.name} must be {type(f.default).__name__}, "
                                  f"got {value!r}")
        if self.task not in ("mlm", "clm"):
            raise ConfigError(f"task must be mlm or clm, got {self.task!r}")
        if self.attention not in ("token", "dim"):
            raise ConfigError(f"attention kind must be 'token' or 'dim', got {self.attention!r}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.norm_mode not in NORM_MODES:
            raise ConfigError(f"unknown norm mode {self.norm_mode!r}, expected one of {NORM_MODES}")
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("Adam betas must lie in (0, 1)")
        if not (self.lr >= 0 and self.eps > 0 and self.clip > 0):  # NaN fails too
            raise ConfigError("lr must be >= 0; eps and clip must be > 0")
        if not 0.0 < self.valid_fraction < 1.0:
            raise ConfigError(f"valid_fraction must lie in (0, 1), got {self.valid_fraction}")
        if self.attention == "token":
            if self.d_model % self.heads != 0:
                raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        elif self.head_dim == 0:
            gc = self.groups * self.convs
            if self.d_model % gc != 0:
                raise ConfigError(f"d_model {self.d_model} not divisible by groups*convs "
                                  f"{gc}; set head_dim explicitly")
            # the derived width is stored, so the manifest records it
            object.__setattr__(self, "head_dim", self.d_model // gc)

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def block_config(self, vocab_size: int) -> RunConfig:
        """This config for a corpus of `vocab_size` tokens."""
        return replace(self, vocab_size=vocab_size)

    def echo_lines(self) -> list:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# every field but vocab_size, with the type its value is parsed as
KEYS = {f.name: type(f.default) for f in fields(RunConfig) if f.name != "vocab_size"}


def _convert(key: str, raw: str, target_type):
    try:
        return target_type(raw.strip())
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw, KEYS[key])
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    cfg = parse_config(text)
    if not cfg.data:
        raise ConfigError("config must set data=<corpus path>")
    return cfg
