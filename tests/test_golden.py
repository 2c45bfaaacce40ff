"""Golden hashes of the micro pipeline: the behaviour oracle for refactors.

The micro config of test_pipeline.py is run with all four adapter kinds
through gen-synthetic, pretrain, integrate x4, fuse and finetune for both
tasks, plus the LARGE ablation adapter. Every checkpoint's blob SHA-256 and
the SHA-256 of every loss curve CSV are pinned below, and so are the SHA-256
of the ablation grid run on that workspace and the SHA-256 of every file in
its data directory.

Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, x86-64 SkylakeX
kernels, which its DYNAMIC_ARCH picks on an AVX-512 CPU; under
OPENBLAS_CORETYPE=Haswell every checkpoint blob and curve differs); the
values are the same under 1 and 2 BLAS threads, which
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

Moved again by "Fusion is one attention over stacked paths": the fusion
layer scores <x Q K^T, A_n> and projects the weighted sum of the stacked
paths with V once, where it took <xQ, A_n K> and summed the V-projected
paths. The two agree to 1e-12 in float64 (test_adapters.py checks it),
but float32 rounding moves, so the fused_* and finetuned_* blobs, the
fuse_* and finetune_* curves and the ablation grid's two FUSION checkpoint
hashes move; its metrics do not. The pretrain and adapter_* blobs, the
pretrain and integrate curves and every data file are unchanged. Every step
of every curve stays within 9.6e-7 of its value before the change.

Moved again by "Data drawn by the array": gen_synthetic draws each quantity
with one Generator call over an array (the label lengths, the words without
replacement, C1's lead lengths, tail lengths and context words a chunk at a
time, the MLM corpus's shapes and branches a language at a time), where it
made one rng.integers call per draw. So every data file but config.json
and split.tsv differs, vocab.txt with them, and every checkpoint blob, every
curve and the ablation grid move. The curves cannot be matched step by step
with those before the change: pretraining reads another corpus and every
later stage trains on other triples, labels and sentences. The values are the same
under 1 and 2 BLAS threads, and MULTI_BLOCK_* do not move.

MULTI_BLOCK_* pin a few MLM pretraining steps of an encoder whose token
table, 3300 x 64, spans three of Adam's 1 << 16-element blocks and a
ragged tail, which the micro vocabulary never does. Batches of two short
sentences mask one or two tokens, so the tied head's data gradient stays
below the size at which OpenBLAS splits its 3300-long reduction between two
threads; a larger batch gives other bits under 2 BLAS threads than under 1.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgadapters.checkpoint import read_manifest
from kgadapters.encoder import EncoderConfig, mlm_pretrain
from kgadapters.optim import TrainHyper
from kgadapters.pipeline import TASKS, Workspace, run_stage
from kgadapters.vocab import SPECIALS, Vocab

from test_pipeline import micro_config

KINDS = ["EP", "TP", "ES", "TS"]

CHECKPOINT_BLOB_SHA256 = {
    "adapter_EP":
        "9823d1e86f8a9a70e32942927d7aebb011e84931ad43844901044dadea2b08e4",
    "adapter_ES":
        "2ea285f2df69a3df7f313749eef696cd4c5bc0f5272007c2ab7d29736db678c4",
    "adapter_LARGE":
        "be1c01f8ac78dc4c3cf78f4086f6fdecfaa354308d243f005b48dcf4302fe2e0",
    "adapter_TP":
        "9559eaaa1a8fe89f31eaa06776151a85a1caecef3d38633d6cea3a1bc421d1de",
    "adapter_TS":
        "d6b53ccd11387c4d92eb0e5eab2d664dde76f2842601f4f21b39e355d8fa0ffa",
    "finetuned_alignment":
        "f6fab3eeaef21b3ba11cf8d3a224a0fbd87c7e649250baf19d6c00a7fd0820f3",
    "finetuned_completion":
        "e7e75935559888cfe068d6992c76e0f020bc431f301939aa53d910388e841258",
    "fused_alignment":
        "4741eb9f9ee91ad64893ff810c583e7ea938898a709bdbbc287dd91ac605b737",
    "fused_completion":
        "ec6cac7b4f8a84c137dde71664ebce81c00baaae639c62936b66b1416d5f95e3",
    "pretrain":
        "9268edb877b193be85e356974cb97e7c1e82b790ae85641e9f78cf8e1d5c4ead",
}

CURVE_CSV_SHA256 = {
    "finetune_alignment":
        "7f2a8b5d88a854a545a60854b5b2277a35f229f53e0e6d0faf2876722b597e8c",
    "finetune_completion":
        "858f5053956483298bab2fe83cb5799395e2beb806495451acde373a9d9a51a4",
    "fuse_alignment":
        "28d680a90406adc8fb912547838832b5ef7d07ba1348d93be97f28f38d131bf4",
    "fuse_completion":
        "eee5468831dedd76b4eaaae880d2bd15719320e8e9c948956ad1c822e01f428c",
    "integrate_EP":
        "ec3e5a9c731f3e570c6b6c63ec8e4d043736895bcd7cc8c7e628381ec82f9a66",
    "integrate_ES":
        "52ac3aa9e234b97e4888a25e24c3c2006fc5a6265f45386f85275f52be255d48",
    "integrate_LARGE":
        "619a858ec1f5e943d5e70774a31b56e58a25f99d416303d244a53c030805fa06",
    "integrate_TP":
        "351a3278abdd02dc45ebb129c07ecb1466ae94427c157685bdbc9edf3d8d9ad3",
    "integrate_TS":
        "a7ac6a2c391f23e9725a0842de68429c15c43dc64e65d275970ecf2140ded839",
    "pretrain":
        "81190f37691cedba8e23497f4d76b821fcbf7782e90ad56d68e533bd89c6e5b4",
}

# json.dumps(..., sort_keys=True) of {"ablation": {"seed", "config_hash",
# "variants": run_stage(ws, "ablate", tasks=TASKS) as dicts}}, each report
# dict without the "split" and "categories" keys that reports gained after
# this value was pinned
ABLATION_SHA256 = "393b568720caf59d99e6658a8c29b9753bc22f9af85e4c68d8abaa876446edd5"

# the 12 files save_dataset writes plus vocab.txt
DATA_FILE_SHA256 = {
    "align_test.tsv":
        "38c8243912be3c96ff9f2aae3795794457a0363a1c2b495092010b6fae71b07e",
    "align_train.tsv":
        "080f2f1f3325fd2d353d1d77c895df64158dbade113a6ed3d03959c1671875f3",
    "c1.tsv":
        "6bb31f322619e085d460dbbca3a74cec0f24c2ae273eecdf0e72046ad4ab7eb0",
    "c2.tsv":
        "6f65994d5cadf8e2e999cc07282b8e02baa0381b06e6c8c184d6687ddf8ee010",
    "comp_test.tsv":
        "bbbd67bcf9919a4beae28072265a5c7481a22e2a94957764e787165ef8168065",
    "comp_train.tsv":
        "458d9b4950e4121e65da2bcaaabfa2cf2baf1147c3a5d49d884847a18d583915",
    "config.json":
        "e377f60602397e82d05b3dd6cb9abb2aebd23163b313c42eff63ff9b81fffc84",
    "entities.tsv":
        "d51d93aa74b1c4afd7a383a86af35d3d36c15b712fd60ab6ff6fa5a0de59b907",
    "mlm.tsv":
        "f5f4ad6f6ca6db721d9e67d10a701f5e65f7028bea11e71cf0b206a9ae7f6224",
    "relations.tsv":
        "53cd956cfa0adcdffbb8ca726a934df53205aa61aec5ed412bcc63adbd84b11c",
    "split.tsv":
        "c10e0c0d583eabf189d835cac2f5bebf617d0c3e19df17d34225a95d850f04a2",
    "triples.tsv":
        "48660c13cabd09b62404f0b61fa579020795f9b40682e564ba920167755e1f44",
    "vocab.txt":
        "ae676781509e67237ab43fc474369227f18cbbd44059a376f8cf9858053a9a09",
}

# ParamSet.checksum() and the losses of multi_block_pretrain()
MULTI_BLOCK_CHECKSUM = "46c8ece1b9320100252e2c974f9969e3aae80de5c49720dcad90c8a68c95ef9a"
MULTI_BLOCK_LOSSES = [8.38115119934082, 7.999415874481201, 8.233360290527344,
                      8.172337532043457, 7.981156349182129, 7.991677761077881]


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
    ablation = run_stage(golden_run, "ablate", tasks=TASKS)
    split = golden_run.load_data()[0].split
    for report in (r for tasks in ablation.values() for r in tasks.values()):
        assert report.split == split, report.variant
    grid = {"seed": golden_run.config.seed, "config_hash": golden_run.config.config_hash(),
            "variants": {v: {t: pinned_fields(r.to_dict()) for t, r in tasks.items()}
                         for v, tasks in ablation.items()}}
    digest = hashlib.sha256(json.dumps({"ablation": grid}, sort_keys=True).encode()).hexdigest()
    assert digest == ABLATION_SHA256


def multi_block_pretrain():
    rng = np.random.default_rng(30)
    words = [f"w{i}" for i in range(3300 - len(SPECIALS))]
    corpus = [("xx", [words[j] for j in rng.integers(0, len(words), size=rng.integers(3, 7))])
              for _ in range(100)]
    vocab = Vocab(list(SPECIALS) + words)
    config = EncoderConfig(layers=1, d_model=64, n_heads=4, ff_dim=128, max_seq_len=8,
                           vocab_size=len(vocab))
    hyper = TrainHyper(batch_size=2, steps=6, base_lr=2e-3, warmup_steps=2)
    return mlm_pretrain(corpus, config, hyper, 30, vocab)


def test_multi_block_pretrain_matches_golden():
    params, curve = multi_block_pretrain()
    n = params.get("encoder.emb.tok").size
    assert n > 3 << 16 and n % (1 << 16), n         # three blocks and a ragged tail
    assert params.checksum() == MULTI_BLOCK_CHECKSUM
    assert [loss for _, _, loss in curve] == MULTI_BLOCK_LOSSES


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
    assert "5 passed, 1 deselected" in out.stdout, out.stdout
