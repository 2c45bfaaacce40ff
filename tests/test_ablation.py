"""Ablation grid smoke test on the micro config."""

import pytest

from kgadapters.pipeline import Workspace, run_stage

from test_pipeline import integrate_only, micro_config


@pytest.fixture(scope="module")
def integrated(tmp_path_factory):
    ws = Workspace(micro_config(tmp_path_factory.mktemp("ablation")))
    integrate_only(ws, ws.config.adapter_kinds)
    return ws


def test_default_variants_follow_configured_kinds(integrated):
    """Only EP and TP are configured and integrated: the grid asks for no
    other adapter checkpoint and integrates LARGE on first use."""
    grid = run_stage(integrated, "ablate", tasks=("alignment",))
    assert list(grid) == ["base", "EP", "TP", "LARGE", "FUSION"]
    for variant, tasks in grid.items():
        assert list(tasks) == ["alignment"], variant
        assert tasks["alignment"].overall().n > 0, variant
        assert tasks["alignment"].variant == variant
    assert sorted(p.name for p in integrated.ckpt_dir.iterdir()) == [
        "adapter_EP.ckpt", "adapter_LARGE.ckpt", "adapter_TP.ckpt", "pretrain.ckpt"]
