"""Training hyperparameter bundle shared by pretraining and adapter stages."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TrainHyper:
    batch_size: int = 128
    steps: int = 0
    epochs: int = 0
    base_lr: float = 1e-4
    warmup_steps: int = 10_000
    tau: float = 0.05
    p_cs: float = 0.0
    seed: int = 0
    mask_rate: float = 0.15

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        if not 0.0 <= self.p_cs <= 1.0:
            raise ValueError(f"code-switch probability must be in [0,1], got {self.p_cs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if min(self.steps, self.epochs) < 0:
            raise ValueError("steps and epochs must be >= 0")
