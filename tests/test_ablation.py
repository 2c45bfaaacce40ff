"""Ablation grid smoke test on the micro config."""

import re

import pytest

from kgadapters.ablation import build_variant, run_ablation
from kgadapters.errors import ConfigError
from kgadapters.pipeline import Workspace

from test_pipeline import integrate_only, micro_config


@pytest.fixture(scope="module")
def integrated(tmp_path_factory):
    ws = Workspace(micro_config(tmp_path_factory.mktemp("ablation")))
    integrate_only(ws, ws.config.adapter_kinds)
    return ws


def test_default_variants_follow_configured_kinds(integrated):
    grid = run_ablation(integrated, tasks=("alignment",))
    assert list(grid) == ["base", "EP", "TP", "LARGE", "FUSION"]
    for variant, tasks in grid.items():
        assert tasks["alignment"].overall().n > 0, variant
        assert tasks["alignment"].variant == variant


def test_unconfigured_variant_rejected(integrated):
    with pytest.raises(ConfigError, match=re.escape(
            "unknown variant 'ES' (have ('base', 'EP', 'TP', 'LARGE', 'FUSION'))")):
        build_variant(integrated, "ES", integrated.load_data()[1])
