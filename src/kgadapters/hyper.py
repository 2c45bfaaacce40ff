"""The training hyperparameters a profile sets per stage; seeds are trainer arguments."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_number_fields


@dataclass
class TrainHyper:
    batch_size: int = 128
    steps: int = 0
    epochs: int = 0
    base_lr: float = 1e-4
    warmup_steps: int = 10_000

    def __post_init__(self):
        check_number_fields(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if min(self.steps, self.epochs) < 0:
            raise ValueError("steps and epochs must be >= 0")
