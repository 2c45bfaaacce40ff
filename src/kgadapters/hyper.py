"""The training hyperparameters a profile sets per stage; seeds are trainer arguments."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_fields


@dataclass
class TrainHyper:
    batch_size: int = 128
    steps: int = 0
    epochs: int = 0
    base_lr: float = 1e-4
    warmup_steps: int = 10_000

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "steps": 0, "epochs": 0, "warmup_steps": 1})
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
