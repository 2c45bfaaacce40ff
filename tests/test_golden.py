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
        "ab2d677b88b838af6aff17a7830bb0cbbda9c50ac35d463003f559ab77b7f06f",
    "adapter_ES":
        "07eca4e1f0afab7643b91b0cf18a4099d7995ce38dc7464780e17be429c15be1",
    "adapter_LARGE":
        "0de8c6d72b4bbf7697041960a84503ac600d1bf8e39da809260aa196b6611885",
    "adapter_TP":
        "6d9b6cff788f45d8df75375e99277e6cb07066ff23b8b5bc28d6a2b582d78def",
    "adapter_TS":
        "12305419c44bbfc07c3418ca61a696073029601709a28c16aeaa8707aed02c3c",
    "finetuned_alignment":
        "9434368a52cd69aeb4c0e233f83d7bb0c3c7594684405b5c393905d6d5ceae53",
    "finetuned_completion":
        "3b2152635ab708a5313d3ac87a24d9ae6eb534f93ce12ea1a7a0dc07c5afbd28",
    "fused_alignment":
        "8e9abcc7ef8edb029c82a7de291002331fbea9a3a497fb230e81dece48fdba8b",
    "fused_completion":
        "3d55b8c10257d82f88ea627f3723f9fa20f239d598486373580c29853559a785",
    "pretrain":
        "2338c755337aa7fa772b8b467936667f8774d2be09215cbc3ceb594f3fd1a212",
}

CURVE_CSV_SHA256 = {
    "finetune_alignment":
        "7e24376e2e93095947ea59916d0fc20a2f17ce06058cfd5917074598323fe912",
    "finetune_completion":
        "a91d6d7eb0b683ba052503c042df76fe3d64d31ec21b9c3286cbef91995c77d7",
    "fuse_alignment":
        "220103d80d215549a5b2101b6114437357ea46855bc616d0b879276d3e4281c5",
    "fuse_completion":
        "d7a8ee832929feefb8a4b1d189358684ae707a44f6dc4dbf844e358c3ab14fe5",
    "integrate_EP":
        "a9bed5c4437d50a28d6c836d672325b8a00dbb02f80ce6a3cc49c7e3f425bbad",
    "integrate_ES":
        "7dcedb72f84150994f905e9d06d8fdb4d53767dd8e9010841ac984e0079b3278",
    "integrate_LARGE":
        "b0377b24ff1075cac4ea0cc66bfefd2f4a7b1bb22e171271e44454f82097e6c0",
    "integrate_TP":
        "a3fea806ddd7cf6703c9a2ebd322ab1bc1ca20bc2401287e7a486c185f733150",
    "integrate_TS":
        "37b9985a48a79b3ceec71f5487e74b5e113ebb1463c525375de09bb7182e0328",
    "pretrain":
        "b00efc64ab7ddcd3837fe961cf726d70980ca796512ad0562a458cc78a91afdd",
}

# json.dumps(..., sort_keys=True) of {"ablation": run_ablation(ws).to_dict(),
# "transfer": run_transfer_benchmark(ws, "alignment", ["EP", "TP"]) as dicts},
# each report dict without the "split" and "categories" keys that reports
# gained after this value was pinned
ABLATION_SHA256 = "6b818a207f746253fdf6372b1e714ef9caceba077ebc9a004954328c42e39631"

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
