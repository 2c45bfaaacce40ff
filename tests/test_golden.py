"""Golden hashes of the micro pipeline: the behaviour oracle for refactors.

The micro config of test_pipeline.py is run with all four adapter kinds
through gen-synthetic, pretrain, integrate x4, fuse and finetune for both
tasks, plus the LARGE ablation adapter. Every checkpoint's blob SHA-256 and
the SHA-256 of every loss curve CSV are pinned below, and so are the SHA-256
of the ablation grid run on that workspace and the SHA-256 of every file in
its data directory.

Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, x86-64 Haswell
kernels); the values are the same under 1 and 2 BLAS threads, which
test_pins_hold_under_another_blas_thread_count checks by running these pins
again in a subprocess with the other of the two counts. A change
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

Moved again by "Run the encoder's position-wise layers on real tokens
only": every position-wise layer runs on the packed real-token rows, so the
weight-gradient reductions sum over those N rows instead of over B slices of
T padded rows, and float32 rounding moves. Forward bits are unchanged, so an
untrained model embeds and ranks as before; every checkpoint blob, every
curve and the ablation grid move, the data files do not. Every step of every
curve stays within 2.4e-6 of its value before the change.

ABLATION_SHA256 re-pinned by "Delete run_transfer_benchmark": the hashed
payload held the ablation grid and the EP+TP transfer benchmark, whose two
reports equal the grid's base and FUSION alignment reports of a run
configured with those two adapters; it now holds the grid alone. The grid's
content does not move: the new value was computed before the deletion.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgadapters.ablation import run_ablation
from kgadapters.checkpoint import read_manifest
from kgadapters.pipeline import TASKS, Workspace, run_stage

from test_pipeline import micro_config

KINDS = ["EP", "TP", "ES", "TS"]

CHECKPOINT_BLOB_SHA256 = {
    "adapter_EP":
        "1e5d13a1a30b2368957ed94b6a1309415ac20f4d2e46da7a2c7823dcd7b5fe72",
    "adapter_ES":
        "e27a35288f856debc632091185fa961414d462c182be316aa2c2799a10f1bc56",
    "adapter_LARGE":
        "e053e9714f2f542aa97c49b515fabbf9ba75c6ad9ced9056864875b145a251cd",
    "adapter_TP":
        "2df77af856d2b1fd41cc49666e6a1e14e7597ef4aa391b355a320515d154b9a9",
    "adapter_TS":
        "c6d6396f61a274345f6b10e3c8552b01fef2713ee1e9444c5d72c9df6a107e74",
    "finetuned_alignment":
        "db5ddcf5002f33b3d578461eacb418d7e5daa2959b3a60d6f2f4a3122ffb564e",
    "finetuned_completion":
        "d6007126f8a6d968ece2d453912da1bb8d8c4e4d41610cbe9b5e76cb0f1eef5a",
    "fused_alignment":
        "38ead0c514df480f9d8f9d00ccd93da6b829a0bff07001280bd28d8160bbb43a",
    "fused_completion":
        "f22a26d9d84387ca613928c91215a6a14f68795122781058564b027c2b76248c",
    "pretrain":
        "7000312ceea38c9c98cb72bdd87183219a75c15f2d14253a684b69bc5c71d8ed",
}

CURVE_CSV_SHA256 = {
    "finetune_alignment":
        "01732dd4be0f20c813958dbecbc6ded893bb1fd1038ac7b6d10c4323999cd3c4",
    "finetune_completion":
        "be8b36645ce3acdeabf4a19cfd73cfb0803a02210d06dd02fa025b69358e92fd",
    "fuse_alignment":
        "e18a6c0c533f33897dc2f212548454f205eb35a397fab7e3e9b258ff00069331",
    "fuse_completion":
        "cf9ccf24243b80eef79b20d86350f7a3179b005f7560cc1613c96d3cf3057c50",
    "integrate_EP":
        "811aca4e48f8fd3877c219299c8846119d95d57a2367278027fa49b8f9dcd747",
    "integrate_ES":
        "1e85b601a4861d91102d516ba900e802cfb803b03165de2c1260855ad6577b73",
    "integrate_LARGE":
        "05e413c4fc0b44e649ff986d8b305595a23003cb8f401124d2bb621a50b99769",
    "integrate_TP":
        "1499a73b7901d96e37c5cb179f6b0d9d40ba2ce4bc06df9dd7af2f2cf5e9d4ef",
    "integrate_TS":
        "13f56ca79e51ca87a310bf47bfd7ee8225b72553a383cea9488cb242268c3465",
    "pretrain":
        "f88b9ec245e40a49e4566eaa878a1dd176e70ff5baffd8d67eae915f06044a05",
}

# json.dumps(..., sort_keys=True) of {"ablation": {"seed", "config_hash",
# "variants": run_ablation(ws) as dicts}}, each report dict without the
# "split" and "categories" keys that reports gained after this value was
# pinned
ABLATION_SHA256 = "35d0568cef80043ed5d0394761ddea9d7a55ebf259cf9b5f0c1efc9ba4f3cf1e"

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
    run_stage(ws, "integrate", kind="LARGE")
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
    ablation = run_ablation(golden_run)
    split = golden_run.load_data()[0].split
    for report in (r for tasks in ablation.values() for r in tasks.values()):
        assert report.split == split, report.variant
    grid = {"seed": golden_run.config.seed, "config_hash": golden_run.config.config_hash(),
            "variants": {v: {t: pinned_fields(r.to_dict()) for t, r in tasks.items()}
                         for v, tasks in ablation.items()}}
    digest = hashlib.sha256(json.dumps({"ablation": grid}, sort_keys=True).encode()).hexdigest()
    assert digest == ABLATION_SHA256


def test_pins_hold_under_another_blas_thread_count(tmp_path):
    """The pins above, run in a fresh interpreter under 1 BLAS thread, or
    under 2 when this process is pinned to 1; the subprocess skips this test."""
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    here = Path(__file__).resolve()
    pins = f"tests/{here.name}"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path}",
         pins, "--deselect", f"{pins}::test_pins_hold_under_another_blas_thread_count"],
        cwd=here.parents[1], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert out.returncode == 0, out.stdout + out.stderr
    assert "4 passed, 1 deselected" in out.stdout, out.stdout
