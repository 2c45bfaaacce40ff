"""Ablation grid smoke test on the micro config."""

import dataclasses
import shutil

import pytest

from kgadapters import cli, pipeline
from kgadapters.pipeline import Workspace, run_stage

from test_pipeline import integrate_only, micro_config, write_config


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


@pytest.fixture(scope="module")
def repretrained(integrated, tmp_path_factory):
    """A copy of the integrated run, adapter_LARGE included, whose pretrain
    was then re-run with one step more: every adapter checkpoint holds a
    stale backbone."""
    config, run_dir = integrated.config, tmp_path_factory.mktemp("repretrained") / "run"
    shutil.copytree(integrated.root, run_dir)
    ws = Workspace(dataclasses.replace(
        config, out_dir=str(run_dir),
        hyper_overrides={**config.hyper_overrides, "pretrain": {"steps": 26, "warmup_steps": 5}}))
    if not ws.ckpt("adapter_LARGE").exists():
        run_stage(ws, "integrate", kind="LARGE")
    run_stage(ws, "pretrain")
    return ws


@pytest.mark.parametrize("stale", ["EP", "TP", "LARGE"])
def test_stale_adapter_exits_one_before_any_variant_trains(repretrained, tmp_path, monkeypatch,
                                                           capsys, stale):
    """One stale adapter checkpoint beside re-integrated others, with
    adapter_LARGE still to integrate unless it is the stale one: `ablate`
    names it and trains nothing, neither a variant nor the LARGE adapter."""
    shutil.copytree(repretrained.root, tmp_path / "run")
    ws = Workspace(dataclasses.replace(repretrained.config, out_dir=str(tmp_path / "run")))
    for kind in ws.config.adapter_kinds:
        if kind != stale:
            run_stage(ws, "integrate", kind=kind)
    if stale != "LARGE":
        ws.ckpt("adapter_LARGE").unlink()
    checkpoints = sorted(ws.ckpt_dir.iterdir())
    trained = []
    monkeypatch.setattr(pipeline, "train_task", lambda *a: trained.append(a[4]))
    monkeypatch.setattr(pipeline, "train_adapter", lambda *a: trained.append(a[0]))
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    assert cli.main(["--config", str(cfg), "ablate", "--tasks", "alignment"]) == 1
    assert capsys.readouterr().err == (
        f"error: {ws.ckpt(f'adapter_{stale}')}: backbone differs from pretrain checkpoint: "
        f"re-run integrate\n")
    assert trained == []
    assert sorted(ws.ckpt_dir.iterdir()) == checkpoints
    assert not list(ws.report_dir.glob("ablation_*"))
