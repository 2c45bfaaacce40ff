"""Golden hashes of the micro pipeline: the behaviour oracle for refactors.

The micro config of test_pipeline.py is run with all four adapter kinds
through gen-synthetic, pretrain, integrate x4, fuse and finetune for both
tasks, plus the LARGE ablation adapter. Every checkpoint's blob SHA-256 and
the SHA-256 of every loss curve CSV are pinned below, and so are the SHA-256
of the ablation grid and the EP+TP transfer benchmark run on that workspace
and the SHA-256 of every file in its data directory.

Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, x86-64 Haswell
kernels); the values did not change between 1 and 2 BLAS threads. A change
that moves any of these hashes must name the change and say why in
CHANGES.md: a refactor keeps them byte-identical.

Moved by "Integrate only the trained adapter and read a model from its
parameters": an integrate checkpoint holds only encoder.* and its own
adapter, and every adapter is drawn from the same insert seed as the first
of the configured kinds. So adapter_EP loses the three untrained adapters it
carried, adapter_TP/ES/TS get a new initial adapter (and with it their
integrate curves), and every fused and finetuned checkpoint, their curves
and the ablation grid move with them. The pretrain blob and curve, the
adapter_LARGE blob, the integrate_EP and integrate_LARGE curves, the
adapter.EP.* bytes and every data file are unchanged.

Moved again by "Delete the attention key bias": encoder.<m>.attn.bk is gone,
because its exact gradient is 0 (q.bk is the same for every key of a query
and cancels in the softmax) while Adam moved it on roundoff. The backbone
loses one tensor per layer and every later parameter follows a different
pretraining trajectory, so every checkpoint blob, every curve and the
ablation grid move; the data files do not.
"""

import hashlib
import json

import pytest

from kgadapters.ablation import run_ablation, run_transfer_benchmark, train_large_adapter
from kgadapters.checkpoint import read_manifest
from kgadapters.pipeline import TASKS, Workspace, run_stage

from test_pipeline import micro_config

KINDS = ["EP", "TP", "ES", "TS"]

CHECKPOINT_BLOB_SHA256 = {
    "adapter_EP":
        "4fc18a55177e63528898e093bf75c4100d9ee44b7c370b5c88a4e48be83e0ccc",
    "adapter_ES":
        "c8503f218ddc9a610a502d8f9326e26f8af68ba27bc626be935677de4be86279",
    "adapter_LARGE":
        "458178d8c103027059ebade663223636b213c357aaa895459b85ea6982525bba",
    "adapter_TP":
        "f3f80e1f8b5375fddded29a8ee4be78bf75260f86e7a4fd41135409f420fe395",
    "adapter_TS":
        "966ddff31a214e12e48f20d1dda167c85da1e2fef74157b1a25a38e8f7618b2a",
    "finetuned_alignment":
        "6e7ce92573f98136d8237f8d17b0f3989683a010685caae3236204290c6e0ff3",
    "finetuned_completion":
        "3ad60bae5faf4603039e2eafe7ed4109b8111284fd3b38e5a673bb0aae1311e8",
    "fused_alignment":
        "a7ecfa32fdf915811397a98a8f6d5ec21b68e4cc39632015dc1a8538cb3ee07d",
    "fused_completion":
        "488207d186a85c9f7b3ac9928eda09d3f1f57c575b610c86aeb56092ddde0804",
    "pretrain":
        "6ddf68467a8551a038f7672cb472ffe144dc6a46e895ac93e0e951b47dc09a1b",
}

CURVE_CSV_SHA256 = {
    "finetune_alignment":
        "cb68b38400c422a4dd502bf8cd0485bb3fada005b1997e0de563256382c545d2",
    "finetune_completion":
        "d72701e27b8819df917b2794627e6969ff2a6b98e9b58d5ac185e5790b8d90af",
    "fuse_alignment":
        "77a98d10c9f75dbb2f26c0348af41d3c3f021553a3ed305d53944e5cb9b905db",
    "fuse_completion":
        "ce7435604183cb1c23d890a8f4857238a5a781c36691af6397efb037277dd013",
    "integrate_EP":
        "ea9df0c920fe6594eff7ac8727d0669b77c181f3d33797119dc1fe3d8a1cc22a",
    "integrate_ES":
        "2a5761d059d666221069b45cc85b96d319c36205dc635fa88cd9659249488916",
    "integrate_LARGE":
        "e6be84db9d38a1c8e97ff6476e66ce91e86c15d866d820a19a165ec6f9cd2028",
    "integrate_TP":
        "3bc39e1a207e09ceb2adf109c9285d093f42a2d7798a11073b4800b9e966413c",
    "integrate_TS":
        "7fe19077c5337b227365ce8de89dd5d2596214b2daff690d341f23a9ff64de49",
    "pretrain":
        "ecf18244e9b13d0d18b7c1642101ec3bcc0e530d992e9248f93583e152217a55",
}

# json.dumps(..., sort_keys=True) of {"ablation": run_ablation(ws).to_dict(),
# "transfer": run_transfer_benchmark(ws, "alignment", ["EP", "TP"]) as dicts},
# each report dict without the "split" and "categories" keys that reports
# gained after this value was pinned
ABLATION_SHA256 = "511fc9e8c1e9d4674d356217224d0989eaba0877a3f809bcfdcd734917e5cbef"

# the 12 files save_dataset writes plus vocab.txt
DATA_FILE_SHA256 = {
    "align_test.tsv":
        "9722da169e28f488c8bd173e5728321c8d146b59ef2d8e61ea1e5ede1c315135",
    "align_train.tsv":
        "b823b5a9fdf2492f35156cf812665ab14fcb94b87c08930e7843d87be57db2b6",
    "c1.tsv":
        "3317b53fa5956619a1386d72372c99f77e338dfd81db4380b4c0e55561077d3a",
    "c2.tsv":
        "fe5e1375141a72f1bfee95f9c5a9424a3b321846407e59dea0dc6d566c24565b",
    "comp_test.tsv":
        "17771fa7a97dd2b1b6153a050492966909107627ec98bb525556ce7b87f1e5dd",
    "comp_train.tsv":
        "7543d957219ec1fc1dab00ca1ef4aef3056f6c027d03e89c2c7e3fd7d6e2f74c",
    "config.json":
        "e377f60602397e82d05b3dd6cb9abb2aebd23163b313c42eff63ff9b81fffc84",
    "entities.tsv":
        "43d8ec2c9073c840c84de2f800a87422de8d5fa4a7172eb9ba950036d825313f",
    "mlm.tsv":
        "2364adf036934fc6f189c70cd55b88a56cf9a8d690ade8b73b3a7181febfb93f",
    "relations.tsv":
        "95bd2c5a6272b93c464219e7221b9eca11e5d176f29faafe8295490325321e24",
    "split.tsv":
        "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
    "triples.tsv":
        "29dd2aafaa6887b586cc1c700481c70c72b7cb7f068f46d19e7056af477efede",
    "vocab.txt":
        "55b4aacbd416aaf971466878ac9c24129afc9bc8249337c1522b43f6208bf1d4",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    config = micro_config(tmp_path_factory.mktemp("golden"))
    config.adapter_kinds = list(KINDS)
    ws = Workspace(config)
    run_stage(ws, "gen-synthetic")
    run_stage(ws, "pretrain")
    for kind in KINDS:
        run_stage(ws, "integrate", kind=kind)
    for task in TASKS:
        run_stage(ws, "fuse", task=task)
        run_stage(ws, "finetune", task=task)
    train_large_adapter(ws)
    return ws


def checkpoint_hashes(ws: Workspace) -> dict[str, str]:
    return {p.stem: read_manifest(p)["blob_sha256"]
            for p in sorted(ws.ckpt_dir.glob("*.ckpt"))}


def curve_hashes(ws: Workspace) -> dict[str, str]:
    return {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.log_dir.glob("*.csv"))}


def test_checkpoint_blobs_match_golden(golden_run):
    assert checkpoint_hashes(golden_run) == CHECKPOINT_BLOB_SHA256


def test_loss_curves_match_golden(golden_run):
    assert curve_hashes(golden_run) == CURVE_CSV_SHA256


def test_data_files_match_golden(golden_run):
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(golden_run.data_dir.iterdir())} == DATA_FILE_SHA256


def pinned_fields(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in ("split", "categories")}


def test_ablation_grid_matches_golden(golden_run):
    transfer = run_transfer_benchmark(golden_run, "alignment", ["EP", "TP"])
    ablation = run_ablation(golden_run)
    split = golden_run.load_data()[0].split
    for report in [*transfer.values(), *(r for tasks in ablation.variants.values()
                                         for r in tasks.values())]:
        assert report.split == split, report.variant
    grid = ablation.to_dict()
    grid["variants"] = {v: {t: pinned_fields(r) for t, r in tasks.items()}
                        for v, tasks in grid["variants"].items()}
    payload = {"ablation": grid,
               "transfer": {name: pinned_fields(r.to_dict()) for name, r in transfer.items()}}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == ABLATION_SHA256
