"""Flat key=value run configuration.

One `key = value` pair per line, `#` starts a comment, blank lines ignored.
Unknown keys are rejected so typos fail loudly; every effective value is
echoed into the run log at startup.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .model import BlockConfig, TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
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
    heads: int = 8
    groups: int = 1
    convs: int = 8
    head_dim: int = 0
    ffn_width: int = 256
    norm_mode: str = "softmax_rows_over_k"
    dropout: float = 0.1
    tie_embeddings: bool = True
    learned_positions: bool = False
    scale_positions: bool = False
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

    def _shared(self, cls, *own) -> dict:
        """The fields of `cls` a RunConfig carries under the same name."""
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in own}

    def block_config(self, vocab_size: int) -> BlockConfig:
        return BlockConfig(vocab_size=vocab_size, n_max=self.seq_len,
                           **self._shared(BlockConfig, "vocab_size", "n_max"))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._shared(TrainConfig))

    def echo_lines(self) -> list:
        return [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _convert(key: str, raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


def parse_config(text: str) -> RunConfig:
    known = {f.name: f.type for f in fields(RunConfig)}
    types = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _convert(key, raw, types[key]))
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    cfg = parse_config(text)
    if not cfg.data:
        raise ConfigError("config must set data=<corpus path>")
    if cfg.task not in ("mlm", "clm"):
        raise ConfigError(f"task must be mlm or clm, got {cfg.task!r}")
    return cfg
