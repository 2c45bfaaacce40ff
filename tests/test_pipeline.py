"""Stage orchestration, checkpoint format, determinism, CLI exit codes."""

import dataclasses
import json
import re
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgadapters import autodiff as ad
from kgadapters import checkpoint, cli, optim, pipeline
from kgadapters.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from kgadapters.data import LanguageSplit, load_split
from kgadapters.encoder import EncoderConfig
from kgadapters.errors import ConfigError, DataError
from kgadapters.optim import TrainHyper
from kgadapters.params import ParamSet
from kgadapters.pipeline import DATA_FILES, PipelineConfig, Workspace, load_model, run_stage
from kgadapters.evaluation import LanguageResult, MetricReport, emit_report
from kgadapters.objectives import ep_pair_universe, es_eligible, ts_ingest
from kgadapters.synthetic import SyntheticConfig, load_dataset
from kgadapters.vocab import Vocab


def micro_config(out_dir, seed=7) -> PipelineConfig:
    return PipelineConfig(
        out_dir=str(out_dir), seed=seed, profile="desk",
        synthetic=SyntheticConfig(
            languages=4, entities=20, relations=3, triples=50,
            sentences_per_entity=1, vocab_size=15, seed=3,
            sup=2, zs_in=1, zs_un=1, mlm_sentences_per_lang=30),
        encoder={"layers": 1, "d_model": 32, "n_heads": 2, "ff_dim": 64,
                 "max_seq_len": 16},
        adapter_kinds=["EP", "TP"], bottleneck=4,
        hyper_overrides={
            "pretrain": {"steps": 25, "warmup_steps": 5},
            "adapter": {"steps": 8, "warmup_steps": 3, "batch_size": 8},
            "fuse_alignment": {"steps": 4, "warmup_steps": 2, "batch_size": 8},
            "fuse_completion": {"steps": 4, "warmup_steps": 2, "batch_size": 8},
            "finetune_alignment": {"steps": 3, "warmup_steps": 2, "batch_size": 8},
            "finetune_completion": {"steps": 3, "warmup_steps": 2, "batch_size": 8},
        })


def write_config(config: PipelineConfig, path) -> None:
    path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")


def integrate_only(ws: Workspace, kinds) -> None:
    run_stage(ws, "gen-synthetic")
    run_stage(ws, "pretrain")
    for kind in kinds:
        run_stage(ws, "integrate", kind=kind)


def run_micro_pipeline(ws: Workspace) -> None:
    integrate_only(ws, ws.config.adapter_kinds)
    run_stage(ws, "fuse", task="alignment")
    run_stage(ws, "finetune", task="alignment")


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    ws = Workspace(micro_config(tmp_path_factory.mktemp("micro")))
    run_micro_pipeline(ws)
    return ws


@pytest.fixture(scope="module")
def large_run(micro_run):
    """The micro run with the LARGE adapter integrated too."""
    run_stage(micro_run, "integrate", kind="LARGE")
    return micro_run


def tensor_groups(path) -> set[str]:
    """`encoder` and `adapter.<kind>`/`fusion` prefixes of a checkpoint's tensors."""
    names = [t["name"] for t in read_manifest(path)["tensors"]]
    return {".".join(n.split(".")[:2]) if n.startswith("adapter.") else n.split(".")[0]
            for n in names}


class TestMerge:
    def test_merge_onto_an_existing_name_raises(self):
        """A wrong assembly fails loudly rather than replacing a group."""
        a, b = ParamSet(), ParamSet()
        a.add("adapter.EP.0.W_down", np.zeros((4, 2), dtype=np.float32))
        b.add("adapter.EP.0.W_down", np.ones((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="duplicate parameter name 'adapter.EP.0.W_down'"):
            a.merge(b, "adapter.EP.")
        np.testing.assert_array_equal(a.get("adapter.EP.0.W_down"), 0.0)


def rewrite_manifest(path, edit) -> None:
    """Replace a checkpoint file's manifest by `edit` of it; the blob stays."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<I", raw[8:12])
    header = json.dumps(edit(json.loads(raw[12:12 + mlen])), sort_keys=True).encode("utf-8")
    path.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(header)) + header
                     + raw[12 + mlen:])


def edit_first_tensor(**entry):
    """A manifest edit that replaces the first tensor entry by `entry`."""
    def edit(manifest):
        manifest["tensors"][0] = entry
        return manifest
    return edit


# an edit of a checkpoint's manifest that leaves valid JSON of another shape
MALFORMED_MANIFESTS = {
    "empty_object": lambda m: {},
    "list": lambda m: [],
    "no_provenance": lambda m: {k: v for k, v in m.items() if k != "provenance"},
    "provenance_not_object": lambda m: {**m, "provenance": []},
    "hash_not_string": lambda m: {**m, "blob_sha256": None},
    "tensors_not_list": lambda m: {**m, "tensors": {}},
    "tensor_without_shape": edit_first_tensor(name="adapter.EP.0.W_down"),
    "tensor_without_name": edit_first_tensor(shape=[4, 2]),
    "shape_not_integers": edit_first_tensor(name="adapter.EP.0.W_down", shape=[4.0, 2]),
    "shape_negative": edit_first_tensor(name="adapter.EP.0.W_down", shape=[-4, -2]),
    "shape_bool": edit_first_tensor(name="adapter.EP.0.W_down", shape=[True, 8]),
    "duplicate_name": edit_first_tensor(name="encoder.emb.tok", shape=[4, 2]),
}


class TestCheckpointFormat:
    def make_params(self):
        rng = np.random.default_rng(0)
        p = ParamSet()
        p.add("adapter.EP.0.W_down", rng.standard_normal((4, 2)).astype(np.float32))
        p.add("encoder.emb.tok", rng.standard_normal((6, 4)).astype(np.float32))
        return p

    def test_roundtrip_bitwise(self, tmp_path):
        p = self.make_params()
        path1, path2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(path1, p, {"stage": "test"})
        loaded, manifest = load_checkpoint(path1)
        assert loaded.checksum() == p.checksum()
        save_checkpoint(path2, loaded, {"stage": "test"})
        assert path1.read_bytes() == path2.read_bytes()

    def test_manifest_holds_only_name_and_shape(self, tmp_path):
        """So equal arrays save to the same bytes whatever groups trained
        before: here each run trains a different group on a loss whose
        gradient is zero, which leaves every array as it was."""
        hyper = TrainHyper(batch_size=1, steps=2, base_lr=0.1, warmup_steps=1)

        def zero_loss_at():
            return lambda lv: ad.tsum(ad.mul(lv["encoder.emb.tok"], 0.0))

        files = []
        for i, prefix in enumerate(("encoder.", "adapter.", "")):
            p = self.make_params()
            optim.train(p, prefix, zero_loss_at, hyper)
            assert p.checksum() == self.make_params().checksum()
            path = tmp_path / f"{i}.ckpt"
            save_checkpoint(path, p, {"stage": "test"})
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]
        assert read_manifest(tmp_path / "0.ckpt")["tensors"] == [
            {"name": "adapter.EP.0.W_down", "shape": [4, 2]},
            {"name": "encoder.emb.tok", "shape": [6, 4]}]

    def test_manifest_with_trainable_keys_loads(self, tmp_path):
        """A file whose tensor entries still carry a `trainable` key loads to
        the same arrays."""
        p = self.make_params()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, p, {"stage": "test"})

        def edit(manifest):
            for spec in manifest["tensors"]:
                spec["trainable"] = spec["name"].startswith("adapter.")
            return manifest

        rewrite_manifest(path, edit)
        loaded, loaded_manifest = load_checkpoint(path)
        assert [spec["trainable"] for spec in loaded_manifest["tensors"]] == [True, False]
        assert loaded.names() == p.names()
        for name in p:
            np.testing.assert_array_equal(loaded.get(name), p.get(name))

    def test_truncated_blob_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(DataError, match="hash mismatch"):
            load_checkpoint(path)

    def test_corrupted_blob_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="hash mismatch"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        raw = bytearray(path.read_bytes())
        raw[6:8] = b"99"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_truncated_manifest_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", len(raw))
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"{path}: truncated manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, error", [
        ([40, 2], "blob too short for tensor 'adapter.EP.0.W_down'"),
        ([4, 1], "16 trailing bytes in blob")], ids=["too_short", "trailing"])
    def test_manifest_shape_unlike_the_blob_detected(self, tmp_path, shape, error):
        """The manifest is not hashed: a shape edited in it leaves the blob's
        hash as it was, and the blob's length unlike the shapes'."""
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())

        def edit(manifest):
            manifest["tensors"][0]["shape"] = shape
            return manifest

        rewrite_manifest(path, edit)
        with pytest.raises(DataError, match=f"{path}: {error}"):
            load_checkpoint(path)

    def test_saving_a_tensor_that_is_not_float32_rejected(self, tmp_path):
        p = self.make_params()
        p.add("encoder.emb.pos", np.zeros((2, 4)))
        with pytest.raises(DataError, match="'encoder.emb.pos' is float64"):
            save_checkpoint(tmp_path / "t.ckpt", p)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_manifest_of_another_shape_names_the_file(self, tmp_path, case):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        rewrite_manifest(path, MALFORMED_MANIFESTS[case])
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(DataError, match=f"{re.escape(str(path))}: manifest is not an "
                                                f"object of tensors"):
                read(path)

    def test_non_json_manifest_names_the_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, self.make_params())
        raw = bytearray(path.read_bytes())
        raw[12] = ord("#")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"{path}: manifest is not JSON"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_failed_write_leaves_no_checkpoint(self, monkeypatch, tmp_path):
        class DiskFull:
            """A file that takes the first 4 bytes of a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:4])
                raise OSError(28, "No space left on device")

        path = tmp_path / "t.ckpt"
        save_checkpoint(tmp_path / "kept.ckpt", self.make_params())
        kept = (tmp_path / "kept.ckpt").read_bytes()
        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **kw: DiskFull(open(*a, **kw)), raising=False)
        for target in (path, tmp_path / "kept.ckpt"):
            with pytest.raises(OSError, match="No space"):
                save_checkpoint(target, self.make_params())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.ckpt"]
        assert (tmp_path / "kept.ckpt").read_bytes() == kept


class TestStages:
    def test_manifest_lists_adapter_tensor_names(self, large_run):
        for kind in ("EP", "LARGE"):
            assert tensor_groups(large_run.ckpt(f"adapter_{kind}")) == {
                "encoder", f"adapter.{kind}"}, kind

    def test_integrate_leaves_backbone_bytes_identical(self, micro_run):
        pre, _ = load_checkpoint(micro_run.ckpt("pretrain"))
        ep, _ = load_checkpoint(micro_run.ckpt("adapter_EP"))
        assert pre.checksum("encoder.") == ep.checksum("encoder.")

    def test_fuse_trains_only_fusion_group(self, micro_run):
        ep, _ = load_checkpoint(micro_run.ckpt("adapter_EP"))
        fused, _ = load_checkpoint(micro_run.ckpt("fused_alignment"))
        assert fused.checksum("encoder.") == ep.checksum("encoder.")
        assert fused.checksum("adapter.EP.") == ep.checksum("adapter.EP.")
        assert fused.names("fusion.")

    def test_missing_prerequisite_names_required_stage(self, tmp_path):
        ws = Workspace(micro_config(tmp_path / "empty"))
        run_stage(ws, "gen-synthetic")
        with pytest.raises(ConfigError, match="pretrain"):
            run_stage(ws, "integrate", kind="EP")

    def test_fuse_without_adapters_errors(self, tmp_path):
        ws = Workspace(micro_config(tmp_path / "nofuse"))
        run_stage(ws, "gen-synthetic")
        run_stage(ws, "pretrain")
        with pytest.raises(ConfigError, match="adapter"):
            run_stage(ws, "fuse", task="alignment")

    def test_fuse_with_a_missing_adapter_errors(self, tmp_path):
        ws = Workspace(micro_config(tmp_path / "half"))
        integrate_only(ws, ["EP"])
        with pytest.raises(ConfigError, match="adapter_TP.ckpt .run the 'integrate' stage"):
            run_stage(ws, "fuse", task="alignment")
        assert not ws.ckpt("fused_alignment").exists()

    def test_unknown_kind_rejected(self, micro_run):
        with pytest.raises(ConfigError, match="not in configured"):
            run_stage(micro_run, "integrate", kind="ES")

    def test_model_mode_follows_checkpoint(self, large_run):
        # LARGE: two adapters of width 4 plus fusion at d = 32
        widths = {"EP": 4, "TP": 4, "LARGE": 55}
        expected = {
            "pretrain": ("none", []),
            "adapter_EP": ("single", ["EP"]),
            "adapter_TP": ("single", ["TP"]),
            "adapter_LARGE": ("single", ["LARGE"]),
            "fused_alignment": ("fusion", ["EP", "TP"]),
            "finetuned_alignment": ("fusion", ["EP", "TP"]),
        }
        for name, want in expected.items():
            model, _ = load_model(large_run, name, "test")
            assert (model.mode, model.kinds) == want, name
            assert {k: model.params.get(f"adapter.{k}.0.W_down").shape[1]
                    for k in model.kinds} == {k: widths[k] for k in model.kinds}, name

    def test_eval_emits_hashes(self, micro_run):
        report = run_stage(micro_run, "eval", task="alignment",
                           checkpoint="fused_alignment")
        manifest = read_manifest(micro_run.ckpt("fused_alignment"))
        assert report.checkpoint_hash == manifest["blob_sha256"]
        assert report.config_hash == micro_run.config.config_hash()
        assert "config_hash" not in manifest["provenance"]


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        ws1 = Workspace(micro_config(tmp_path / "r1"))
        ws2 = Workspace(micro_config(tmp_path / "r2"))
        for ws in (ws1, ws2):
            run_micro_pipeline(ws)
            report = run_stage(ws, "eval", task="alignment",
                               checkpoint="finetuned_alignment")
            emit_report([report], "json", ws.report_dir / "r.json")
            emit_report([report], "tsv", ws.report_dir / "r.tsv")
        for name in ("pretrain", "adapter_EP", "adapter_TP",
                     "fused_alignment", "finetuned_alignment"):
            assert ws1.ckpt(name).read_bytes() == ws2.ckpt(name).read_bytes(), name
        for rep in ("r.json", "r.tsv"):
            assert ((ws1.report_dir / rep).read_bytes()
                    == (ws2.report_dir / rep).read_bytes()), rep

    def test_adapter_order_does_not_change_checkpoints(self, tmp_path):
        workspaces = []
        for kinds in (["TP", "EP"], ["EP", "TP"]):
            ws = Workspace(dataclasses.replace(micro_config(tmp_path / "".join(kinds)),
                                               adapter_kinds=kinds))
            integrate_only(ws, kinds)
            run_stage(ws, "fuse", task="alignment")
            workspaces.append(ws)
        for name in ("adapter_EP", "adapter_TP", "fused_alignment"):
            assert (read_manifest(workspaces[0].ckpt(name))["blob_sha256"]
                    == read_manifest(workspaces[1].ckpt(name))["blob_sha256"]), name


class TestReports:
    def make_report(self):
        report = MetricReport(task="alignment", variant="demo", k=10, seed=1,
                              profile="desk", checkpoint_hash="ch", config_hash="cf",
                              split=LanguageSplit(sup=["ab"], zs_in=[], zs_un=[]))
        report.per_language["ab"] = LanguageResult(n=8, hit1=0.131, hitk=0.5, mrr=0.262)
        return report

    def test_values_render_with_one_decimal(self, tmp_path):
        path = tmp_path / "r.tsv"
        emit_report([self.make_report()], "tsv", path)
        text = path.read_text(encoding="utf-8")
        assert "\t13.1\t" in text
        assert "26.2" in text

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        report = self.make_report()
        emit_report([report], "json", path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == [report.to_dict()]

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report([], "tsv", tmp_path / "x.tsv")

    def test_cli_report_renders_like_emit_report(self, tmp_path):
        report = self.make_report()
        emit_report([report, report], "json", tmp_path / "r.json")
        emit_report([report, report], "tsv", tmp_path / "want.tsv")
        assert cli.main(["report", "--input", str(tmp_path / "r.json"),
                         "--output", str(tmp_path / "got.tsv")]) == 0
        got = (tmp_path / "got.tsv").read_text(encoding="utf-8")
        assert got == (tmp_path / "want.tsv").read_text(encoding="utf-8")
        assert got.count("demo\tall\toverall\t8\t13.1\t50.0\t26.2\n") == 2

    def test_cli_report_of_ablation_file_exits_one(self, tmp_path, capsys):
        """`report` reads the list `emit_report` writes: a variant -> task
        grid of reports, one bare report and other JSON values exit 1."""
        report = self.make_report().to_dict()
        ablation = {"seed": 1, "config_hash": "cf", "variants": {"demo": {"alignment": report}}}
        path = tmp_path / "ablation.json"
        for payload in (ablation, report, 3, None, "text", [["list"]], [], {}):
            path.write_text(json.dumps(payload), encoding="utf-8")
            assert cli.main(["report", "--input", str(path),
                             "--output", str(tmp_path / "out.tsv")]) == 1
            assert capsys.readouterr().err == f"error: {path} holds no list of metric reports\n"
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("split"), "report 'demo' holds no language split: re-run eval"),
        (lambda d: d["per_language"]["ab"].update(hit1="x"), "hit1 must be a number, got 'x'"),
        (lambda d: d["per_language"].update(zz=d["per_language"]["ab"]),
         "report 'demo': languages ['zz'] not in its split"),
        (lambda d: d.update(variant=3), "variant must be a string, got 3"),
        (lambda d: d["split"].update(sup="ab"), "sup must be a list, got 'ab'")],
        ids=["no-split", "metric-not-a-number", "unknown-language", "variant-not-a-string",
             "split-category-not-a-list"])
    def test_cli_report_of_a_malformed_report_exits_one(self, tmp_path, capsys, edit, message):
        """One line of stderr, and no TSV, for a stored report that does not
        render."""
        report = self.make_report().to_dict()
        edit(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps([report]), encoding="utf-8")
        assert cli.main(["report", "--input", str(path),
                         "--output", str(tmp_path / "out.tsv")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out.tsv").exists()


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """CLI `eval --checkpoint adapter_EP` and `ablate --tasks alignment` on a
    micro workspace with EP and TP integrated but no adapter_LARGE; returns the
    workspace and the number of dataset loads each command made."""
    tmp = tmp_path_factory.mktemp("cli")
    config = micro_config(tmp / "run")
    ws = Workspace(config)
    integrate_only(ws, config.adapter_kinds)
    cfg = tmp / "cfg.json"
    write_config(config, cfg)
    real_load, calls, loads = pipeline.load_dataset, [], {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "load_dataset", lambda path: calls.append(path) or real_load(path))
        for command in (["eval", "--task", "alignment", "--checkpoint", "adapter_EP"],
                        ["ablate", "--tasks", "alignment"]):
            calls.clear()
            assert cli.main(["--config", str(cfg), *command]) == 0
            loads[command[0]] = len(calls)
    return ws, loads


class TestCliReports:
    def test_eval_loads_dataset_once(self, cli_reports):
        assert cli_reports[1]["eval"] == 1

    def test_ablate_loads_dataset_once(self, cli_reports):
        # the integrate stage of the missing LARGE adapter reuses the grid's parse
        assert cli_reports[1]["ablate"] == 1

    def test_reports_are_json_and_tsv_of_each_command(self, cli_reports):
        assert sorted(p.name for p in cli_reports[0].report_dir.iterdir()) == [
            "ablation_alignment.json", "ablation_alignment.tsv",
            "eval_alignment_adapter_EP.json", "eval_alignment_adapter_EP.tsv"]

    @pytest.mark.parametrize("name", ["eval_alignment_adapter_EP", "ablation_alignment"])
    def test_report_reproduces_written_tsv(self, cli_reports, name, tmp_path):
        reports = cli_reports[0].report_dir
        assert cli.main(["report", "--input", str(reports / f"{name}.json"),
                         "--output", str(tmp_path / "got.tsv")]) == 0
        assert (tmp_path / "got.tsv").read_bytes() == (reports / f"{name}.tsv").read_bytes()


def copy_run(ws: Workspace, tmp_path) -> Workspace:
    """A fresh Workspace, nothing loaded yet, on a copy of the run directory of `ws`."""
    shutil.copytree(ws.root, tmp_path / "run")
    return Workspace(dataclasses.replace(ws.config, out_dir=str(tmp_path / "run")))


def count_parses(monkeypatch) -> list:
    """The data directories `pipeline.load_dataset` parses from now on."""
    parses, real = [], pipeline.load_dataset
    monkeypatch.setattr(pipeline, "load_dataset", lambda path: parses.append(path) or real(path))
    return parses


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """Every stage, ablate included, on one micro Workspace, with LARGE
    integrated before the grid; returns the workspace, the number of dataset
    parses of the whole run, the checkpoints the ablate stage read and its grid."""
    ws = Workspace(micro_config(tmp_path_factory.mktemp("staged")))
    real_read, reads = pipeline.load_checkpoint, []
    with pytest.MonkeyPatch.context() as mp:
        parses = count_parses(mp)
        mp.setattr(pipeline, "load_checkpoint",
                   lambda path: reads.append(Path(path).name) or real_read(path))
        run_micro_pipeline(ws)
        run_stage(ws, "integrate", kind="LARGE")
        run_stage(ws, "eval", task="alignment", checkpoint="finetuned_alignment")
        reads.clear()
        grid = run_stage(ws, "ablate", tasks=("alignment",))
    return ws, len(parses), reads, grid


@pytest.fixture(scope="module")
def ablate_integrating_large(staged_run, tmp_path_factory):
    """The ablate stage of `staged_run` again, on a fresh Workspace over a copy
    of its run directory without adapter_LARGE.ckpt; returns the workspace,
    the checkpoints the stage read and its grid."""
    ws = copy_run(staged_run[0], tmp_path_factory.mktemp("no_large"))
    ws.ckpt("adapter_LARGE").unlink()
    real_read, reads = pipeline.load_checkpoint, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "load_checkpoint",
                   lambda path: reads.append(Path(path).name) or real_read(path))
        grid = run_stage(ws, "ablate", tasks=("alignment",))
    return ws, reads, grid


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A micro run directory holding its generated data only."""
    ws = Workspace(micro_config(tmp_path_factory.mktemp("generated")))
    run_stage(ws, "gen-synthetic")
    return ws


class TestDataCache:
    def test_one_parse_for_every_stage_of_a_workspace(self, staged_run):
        assert staged_run[1] == 1

    def test_ablate_reads_each_checkpoint_once(self, staged_run):
        assert sorted(staged_run[2]) == ["adapter_EP.ckpt", "adapter_LARGE.ckpt",
                                         "adapter_TP.ckpt", "pretrain.ckpt"]

    def test_ablate_integrating_large_reads_no_checkpoint_twice(self, ablate_integrating_large):
        """LARGE is integrated from the base the grid loaded and used as
        trained: adapter_LARGE.ckpt is written but never read back."""
        assert sorted(ablate_integrating_large[1]) == ["adapter_EP.ckpt", "adapter_TP.ckpt",
                                                       "pretrain.ckpt"]

    def test_ablate_integrating_large_saves_and_scores_what_a_loaded_large_does(
            self, staged_run, ablate_integrating_large):
        ws, _, grid = ablate_integrating_large
        assert (read_manifest(ws.ckpt("adapter_LARGE"))["blob_sha256"]
                == read_manifest(staged_run[0].ckpt("adapter_LARGE"))["blob_sha256"])
        assert ({v: {t: r.to_dict() for t, r in tasks.items()} for v, tasks in grid.items()}
                == {v: {t: r.to_dict() for t, r in tasks.items()}
                    for v, tasks in staged_run[3].items()})

    def test_stages_leave_the_shared_data_as_parsed(self, staged_run):
        from test_data import assert_same_dataset     # test_data imports this module
        ws = staged_run[0]
        ds, vocab = ws.load_data()
        assert ws.load_data()[0] is ds
        assert_same_dataset(ds, load_dataset(ws.data_dir))
        fresh = Vocab.load(ws.data_dir / "vocab.txt")
        assert (vocab.id_to_token, vocab.token_to_id) == (fresh.id_to_token, fresh.token_to_id)

    def test_edit_between_two_stages_parses_again(self, generated, tmp_path, monkeypatch):
        ws = copy_run(generated, tmp_path)
        parses = count_parses(monkeypatch)
        run_stage(ws, "pretrain")
        sentences, sha = len(ws.load_data()[0].mlm_corpus), ws.data_sha256
        path = ws.data_dir / "mlm.tsv"
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[1:]),
                        encoding="utf-8")
        run_stage(ws, "pretrain")
        assert len(parses) == 2
        assert len(ws.load_data()[0].mlm_corpus) == sentences - 1
        assert ws.data_sha256 != sha
        assert read_manifest(ws.ckpt("pretrain"))["provenance"]["data_sha256"] == ws.data_sha256

    def test_malformed_edit_raises_as_on_a_fresh_workspace(self, generated, tmp_path):
        ws = copy_run(generated, tmp_path)
        ws.load_data()
        path = ws.data_dir / "c1.tsv"
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        fields = first.split("\t")
        fields[2] = "x"
        path.write_text("\t".join(fields) + "\n" + rest, encoding="utf-8")
        for _ in range(2):      # the cached data is not served after a failed parse
            with pytest.raises(DataError) as cached:
                run_stage(ws, "pretrain")
            with pytest.raises(DataError) as fresh:
                Workspace(ws.config).load_data()
            assert str(cached.value) == str(fresh.value)
            assert str(cached.value).startswith(f"{path}:1: span ")

    @pytest.mark.parametrize("name", [n for n in DATA_FILES if n != "config.json"])
    def test_deleted_data_file_exits_one_naming_it(self, generated, tmp_path, capsys, name):
        """config.json is not among them: without it there is no data directory."""
        ws = copy_run(generated, tmp_path)
        ws.load_data()
        path = ws.data_dir / name
        path.unlink()
        message = f"[Errno 2] No such file or directory: '{path}'"
        with pytest.raises(FileNotFoundError) as cached:
            run_stage(ws, "pretrain")
        assert str(cached.value) == message
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        assert cli.main(["--config", str(cfg), "pretrain"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ws.ckpt("pretrain").exists()


class TestRunLog:
    def test_rerun_stage_appends_both_runs(self, tmp_path):
        ws = Workspace(micro_config(tmp_path))
        run_stage(ws, "gen-synthetic")
        run_stage(ws, "pretrain")
        run_stage(ws, "pretrain")
        lines = (ws.log_dir / "runlog.jsonl").read_text(encoding="utf-8").splitlines()
        steps = [r["step"] for r in map(json.loads, lines) if r["stage"] == "pretrain"]
        n = ws.config.hyper("pretrain").steps
        assert steps == list(range(1, n + 1)) * 2


def _override(stage, **values):
    def edit(raw):
        raw["hyper_overrides"].setdefault(stage, {}).update(values)
    return edit


# config fault -> (edit of the micro config's JSON object, command, text of the error)
CONFIG_FAULTS = {
    "encoder_unknown_key": (lambda raw: raw["encoder"].update(bogus=1),
                            ["pretrain"], "encoder: "),
    "encoder_vocab_size": (lambda raw: raw["encoder"].update(vocab_size=9),
                           ["pretrain"], "vocab_size"),
    "n_heads_not_dividing_d_model": (lambda raw: raw["encoder"].update(n_heads=3),
                                     ["pretrain"], "must divide d_model"),
    "override_unknown_key": (_override("adapter", bogus=1),
                             ["train-adapter", "--kind", "ep"], "hyper_overrides.adapter: "),
    "override_unknown_stage": (_override("fuse"), ["pretrain"], "unknown stage(s) ['fuse']"),
    **{f"override_{key}": (_override(stage, **{key: value}), command,
                           f"hyper_overrides.{stage}: TrainHyper.__init__() got an "
                           f"unexpected keyword argument '{key}'")
       for stage, key, value, command in [
           ("pretrain", "mask_rate", 0.15, ["pretrain"]),
           ("adapter", "tau", 0.05, ["train-adapter", "--kind", "ep"]),
           ("adapter", "p_cs", 0.5, ["train-adapter", "--kind", "tp"]),
           ("fuse_alignment", "seed", 5, ["pretrain"])]},
    "batch_size_zero": (_override("adapter", batch_size=0),
                        ["train-adapter", "--kind", "ep"], "batch_size"),
    "warmup_steps_zero": (_override("pretrain", warmup_steps=0), ["pretrain"], "warmup_steps"),
    "base_lr_zero": (_override("pretrain", base_lr=0.0), ["pretrain"], "base_lr"),
    "base_lr_infinite": (_override("pretrain", base_lr=float("inf")), ["pretrain"],
                         "base_lr must be positive and finite, got inf"),
    "steps_fraction": (_override("adapter", steps=2.5), ["train-adapter", "--kind", "ep"],
                       "hyper_overrides.adapter: steps must be an integer, got 2.5"),
    "steps_zero": (_override("pretrain", steps=0), ["pretrain"], "stage pretrain: "),
    "bottleneck_zero": (lambda raw: raw.update(bottleneck=0),
                        ["train-adapter", "--kind", "ep"], "bottleneck"),
    "bottleneck_fraction": (lambda raw: raw.update(bottleneck=4.5),
                            ["train-adapter", "--kind", "ep"],
                            "bottleneck must be an integer, got 4.5"),
    "eval_k_bool": (lambda raw: raw.update(eval_k=True), ["eval", "--task", "alignment"],
                    "eval_k must be an integer, got True"),
    "out_dir_number": (lambda raw: raw.update(out_dir=5), ["gen-synthetic"],
                       "out_dir must be a string, got 5"),
    "out_dir_null": (lambda raw: raw.update(out_dir=None), ["gen-synthetic"],
                     "out_dir must be a string, got None"),
    "overrides_list": (lambda raw: raw.update(hyper_overrides=["pretrain"]), ["pretrain"],
                       "hyper_overrides must be an object, got ['pretrain']"),
    "override_stage_list": (lambda raw: raw["hyper_overrides"].update(pretrain=[1]),
                            ["pretrain"], "hyper_overrides.pretrain must be an object, got [1]"),
    "synthetic_zs_in_negative": (lambda raw: raw["synthetic"].update(zs_in=-1),
                                 ["gen-synthetic"], "zs_in must be >= 0, got -1"),
    "synthetic_18_languages": (lambda raw: raw["synthetic"].update(languages=18, sup=16),
                               ["gen-synthetic"], "at most 17 languages supported"),
    "unknown_profile": (lambda raw: raw.update(profile="nope"), ["pretrain"],
                        "unknown profile 'nope'"),
    "duplicate_adapter_kinds": (lambda raw: raw.update(adapter_kinds=["EP", "EP"]),
                                ["train-adapter", "--kind", "ep"], "adapter_kinds"),
    "unknown_adapter_kind": (lambda raw: raw.update(adapter_kinds=["EP", "XX"]),
                             ["pretrain"], "adapter_kinds"),
    "eval_k_zero": (lambda raw: raw.update(eval_k=0), ["eval", "--task", "alignment"],
                    "eval_k must be >= 1, got 0"),
    "seed_negative": (lambda raw: raw.update(seed=-1), ["pretrain"], "seed must be >= 0, got -1"),
    "synthetic_seed_negative": (lambda raw: raw["synthetic"].update(seed=-1), ["gen-synthetic"],
                                "seed must be >= 0, got -1"),
    "synthetic_triples_all_test": (lambda raw: raw["synthetic"].update(triples=1),
                                   ["gen-synthetic"], "triples (1) must leave a training triple"),
    "synthetic_entities_all_test": (
        lambda raw: raw["synthetic"].update(entities=10, triples=50, test_fraction=0.96),
        ["gen-synthetic"], "entities (10) must leave a training entity"),
    "base_lr_string": (_override("pretrain", base_lr="fast"), ["pretrain"],
                       "hyper_overrides.pretrain: base_lr must be a number, got 'fast'"),
    **{f"synthetic_{name}_string": ((lambda raw, name=name: raw["synthetic"].update({name: "0.5"})),
                                    ["gen-synthetic"], f"{name} must be a number, got '0.5'")
       for name in ("test_fraction", "gloss_rate", "fact_rate")},
    **{f"synthetic_{name}_zero": ((lambda raw, name=name: raw["synthetic"].update({name: 0})),
                                  [command], f"{name} must be >= 1, got 0")
       for name, command in [("triples", "gen-synthetic"), ("vocab_size", "gen-synthetic"),
                             ("sentences_per_entity", "gen-synthetic"),
                             ("relation_pool_size", "gen-synthetic"),
                             ("label_max_words", "gen-synthetic"),
                             ("mlm_sentences_per_lang", "pretrain")]},
    **{f"synthetic_{name}_{value}": ((lambda raw, name=name, value=value:
                                      raw["synthetic"].update({name: value})),
                                     [command], f"{name} must be in [0, 1], got {value}")
       for name, value, command in [("gloss_rate", 2.0, "gen-synthetic"),
                                    ("fact_rate", -1.0, "pretrain")]},
}


@pytest.mark.parametrize("make", [
    lambda v: PipelineConfig(out_dir="run", bottleneck=v), lambda v: TrainHyper(steps=v),
    lambda v: EncoderConfig(layers=v), lambda v: SyntheticConfig(entities=v)])
@pytest.mark.parametrize("value", [20.5, True])
def test_config_int_fields_reject_fractions_and_bools(make, value):
    with pytest.raises(ConfigError, match=f"must be an integer, got {value}"):
        make(value)


# the micro config's fields, as key paths into its JSON object, each with the
# config class whose annotation types it
SWEEP_FIELDS = [
    *((("synthetic", f.name), SyntheticConfig) for f in dataclasses.fields(SyntheticConfig)),
    *((("encoder", key), EncoderConfig) for key in micro_config("run").encoder),
    *(((name,), PipelineConfig) for name in ("seed", "bottleneck", "eval_k", "out_dir",
                                             "profile", "encoder", "hyper_overrides",
                                             "adapter_kinds", "synthetic")),
    *((("hyper_overrides", stage, f.name), TrainHyper)
      for stage in micro_config("run").hyper_overrides for f in dataclasses.fields(TrainHyper))]
SWEEP_VALUES = [0, 1, -1, 0.5, None, "a", True]
# annotation -> (whether a JSON value has that type, what an error calls the type)
JSON_TYPES = {"int": (lambda v: type(v) is int, "an integer"),
              "float": (lambda v: type(v) in (int, float), "a number"),
              "str": (lambda v: type(v) is str, "a string"),
              "dict": (lambda v: type(v) is dict, "an object"),
              "list[str]": (lambda v: type(v) is list, "a list"),
              "SyntheticConfig": (lambda v: type(v) is dict, "an object")}


@pytest.mark.parametrize("path, cls", SWEEP_FIELDS, ids=[".".join(p) for p, _ in SWEEP_FIELDS])
def test_config_sweep_rejects_at_load_in_one_line(tmp_path, capsys, path, cls):
    """Each of SWEEP_VALUES in one field of the micro config: a value of
    another JSON type than the field's annotation is rejected with the
    message that names the field and its type, and a config that
    `from_json` rejects makes `gen-synthetic` exit 1 with one line of stderr
    naming the field. A config that loads is not run."""
    cfg = tmp_path / "cfg.json"
    fits, what = JSON_TYPES[{f.name: f.type for f in dataclasses.fields(cls)}[path[-1]]]
    for value in SWEEP_VALUES:
        raw = dataclasses.asdict(micro_config(tmp_path / "run"))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        try:
            PipelineConfig.from_json(cfg)
        except ConfigError as exc:
            assert fits(value) or f"{path[-1]} must be {what}, got {value!r}" in str(exc)
        else:
            assert fits(value), f"{value!r} loaded"
            continue
        assert cli.main(["--config", str(cfg), "gen-synthetic"]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad config file {cfg}: ") and err.count("\n") == 1, err
        assert path[-1] in err, err
    assert not (tmp_path / "run").exists()


def test_gen_synthetic_that_cannot_draw_its_triples_exits_one(tmp_path, capsys):
    """Two relations with one tail each hold 18 distinct triples of 10
    entities, fewer than the 50 asked for."""
    config = micro_config(tmp_path / "run")
    synthetic = dataclasses.replace(config.synthetic, entities=10, relations=2,
                                    relation_pool_size=1, triples=50)
    write_config(dataclasses.replace(config, synthetic=synthetic), tmp_path / "cfg.json")
    assert cli.main(["--config", str(tmp_path / "cfg.json"), "gen-synthetic"]) == 1
    assert capsys.readouterr().err == ("error: could not generate enough distinct triples; "
                                       "increase entities or relation_pool_size\n")
    assert not list((tmp_path / "run" / "data").iterdir())


@pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
def test_config_fault_exits_one_when_the_config_loads(micro_run, tmp_path, capsys, case):
    edit, command, text = CONFIG_FAULTS[case]
    run_dir = tmp_path / "run"
    shutil.copytree(micro_run.root, run_dir)
    raw = {**dataclasses.asdict(micro_run.config), "out_dir": str(run_dir)}
    edit(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in (run_dir / "checkpoints").iterdir()}
    assert cli.main(["--config", str(cfg), *command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config file {cfg}: ") and text in err, err
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in (run_dir / "checkpoints").iterdir()} == before


def drop_label(path, rid: str, lang: str) -> None:
    """Remove the label in `lang` of record `rid` of entities.tsv or relations.tsv."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec, labels = line.split("\t")
        if rec == rid:
            labels = "|".join(p for p in labels.split("|") if not p.startswith(f"{lang}="))
        lines.append(f"{rec}\t{labels}\n")
    path.write_text("".join(lines), encoding="utf-8")


def first_row(path, lang: str) -> tuple[int, list[str]]:
    """(line number, fields) of the first record in `lang` of a task file."""
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split("\t")
        if fields[0] == lang:
            return n, fields
    raise AssertionError(f"{path} has no record in {lang}")


def relation_label_missing(data_dir) -> str:
    """The relation of a supervised language's first completion training
    record loses its label in that language."""
    lang = load_split(data_dir / "split.tsv").sup[-1]
    n, (_, _, rel, _) = first_row(data_dir / "comp_train.tsv", lang)
    drop_label(data_dir / "relations.tsv", rel, lang)
    return f"{data_dir / 'comp_train.tsv'}:{n}: relation {rel!r} has no label in {lang!r}"


def tail_label_missing(data_dir) -> str:
    """The tail of a completion training record in a supervised language other
    than the base one loses its label in that language. The tail is a
    test-split entity, so align_train.tsv reads none of its labels, and
    align_test.tsv reads only the base one."""
    others = load_split(data_dir / "split.tsv").sup[1:]
    trained = {line.split("\t")[2]
               for line in (data_dir / "align_train.tsv").read_text(encoding="utf-8").splitlines()}
    rows = [line.split("\t")
            for line in (data_dir / "comp_train.tsv").read_text(encoding="utf-8").splitlines()]
    lang, tail = next((lang, tail) for lang, _, _, tail in rows
                      if lang in others and tail not in trained)
    drop_label(data_dir / "entities.tsv", tail, lang)
    n = next(n for n, (l, head, _, t) in enumerate(rows, 1) if l == lang and tail in (head, t))
    return f"{data_dir / 'comp_train.tsv'}:{n}: entity {tail!r} has no label in {lang!r}"


def head_label_missing(data_dir) -> str:
    """The head entity of the zero-shot-unseen language's first completion
    test query loses its label in that language."""
    (lang,) = load_split(data_dir / "split.tsv").zs_un
    n, (_, head, _, _) = first_row(data_dir / "comp_test.tsv", lang)
    drop_label(data_dir / "entities.tsv", head, lang)
    return f"{data_dir / 'comp_test.tsv'}:{n}: entity {head!r} has no label in {lang!r}"


def split_without_sup(data_dir) -> str:
    """Every supervised language of split.tsv becomes zero-shot-in."""
    path = data_dir / "split.tsv"
    path.write_text(path.read_text(encoding="utf-8").replace("sup\t", "zs_in\t"),
                    encoding="utf-8")
    return f"{path}: no supervised (sup) language"


# case -> (edit of the data directory that returns the expected message, the
# command that met the fault, the run's adapter kinds)
DATA_FAULTS = {
    "relation_label_missing_in_a_sup_language": (
        relation_label_missing, ["train-fusion", "--task", "completion"], ["EP", "TP"]),
    "tail_label_missing_in_a_sup_language": (
        tail_label_missing, ["train-adapter", "--kind", "tp"], ["EP", "TP"]),
    "head_label_missing_in_the_zs_un_language": (
        head_label_missing, ["eval", "--task", "completion", "--checkpoint", "fused_alignment"],
        ["EP", "TP"]),
    "split_without_a_sup_language": (
        split_without_sup, ["train-adapter", "--kind", "ts"], ["EP", "TP", "TS"]),
}


@pytest.mark.parametrize("case", sorted(DATA_FAULTS))
def test_data_fault_exits_one_at_load(micro_run, tmp_path, capsys, case):
    """A data directory that a stage would fail on part-way is rejected when
    it loads; a test record's missing gold label stays a rank of inf."""
    edit, command, kinds = DATA_FAULTS[case]
    run_dir = tmp_path / "run"
    shutil.copytree(micro_run.root, run_dir)
    ws = Workspace(dataclasses.replace(micro_run.config, out_dir=str(run_dir),
                                       adapter_kinds=kinds))
    message = edit(ws.data_dir)
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    before = {p.name: p.read_bytes() for p in ws.ckpt_dir.iterdir()}
    assert cli.main(["--config", str(cfg), *command]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in ws.ckpt_dir.iterdir()} == before
    assert not list(ws.report_dir.glob("eval_*"))


def vocab_resized(ws: Workspace) -> None:
    """200 tokens inserted after the specials of vocab.txt."""
    path = ws.data_dir / "vocab.txt"
    tokens = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(tokens[:4] + [f"new{i}" for i in range(200)] + tokens[4:]) + "\n",
                    encoding="utf-8")


def vocab_swapped(ws: Workspace) -> None:
    """Two non-special tokens of vocab.txt swapped: a vocabulary of the same
    size, which the checkpoint's row count cannot tell apart."""
    path = ws.data_dir / "vocab.txt"
    tokens = path.read_text(encoding="utf-8").splitlines()
    tokens[4], tokens[5] = tokens[5], tokens[4]
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")


def regenerated(ws: Workspace) -> None:
    """gen-synthetic re-run with another synthetic seed."""
    synthetic = dataclasses.replace(ws.config.synthetic, seed=ws.config.synthetic.seed + 1)
    run_stage(Workspace(dataclasses.replace(ws.config, synthetic=synthetic)), "gen-synthetic")


def test_every_checkpoint_records_the_fingerprint_of_its_data(micro_run):
    data_sha256 = Workspace(micro_run.config).data_sha256
    recorded = {p.name: read_manifest(p)["provenance"]["data_sha256"]
                for p in micro_run.ckpt_dir.glob("*.ckpt")}
    assert len(recorded) >= 5 and set(recorded.values()) == {data_sha256}


@pytest.mark.parametrize("edit, command, ckpt", [
    (vocab_resized, ["train-adapter", "--kind", "ep"], "pretrain"),
    (vocab_resized, ["train-fusion", "--task", "alignment"], "pretrain"),
    (vocab_resized, ["finetune", "--task", "alignment"], "fused_alignment"),
    (vocab_resized, ["eval", "--task", "alignment"], "fused_alignment"),
    (vocab_resized, ["ablate", "--tasks", "alignment"], "pretrain"),
    (vocab_swapped, ["train-adapter", "--kind", "ep"], "pretrain"),
    (vocab_swapped, ["eval", "--task", "alignment"], "fused_alignment"),
    (regenerated, ["eval", "--task", "alignment"], "fused_alignment")],
    ids=["vocab_resized-train-adapter", "vocab_resized-train-fusion", "vocab_resized-finetune",
         "vocab_resized-eval", "vocab_resized-ablate", "vocab_swapped-train-adapter",
         "vocab_swapped-eval", "regenerated-eval"])
def test_data_the_checkpoint_was_not_trained_on_exits_one(micro_run, tmp_path, capsys,
                                                          edit, command, ckpt):
    """The data directory edited after the run: the first checkpoint a
    command loads was trained on other data, whatever the edit."""
    ws = copy_run(micro_run, tmp_path)
    recorded = read_manifest(ws.ckpt(ckpt))["provenance"]["data_sha256"]
    edit(ws)
    now = Workspace(ws.config).data_sha256
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    before = {p.name: p.read_bytes() for d in (ws.ckpt_dir, ws.report_dir) for p in d.iterdir()}
    assert cli.main(["--config", str(cfg), *command]) == 1
    assert capsys.readouterr().err == (
        f"error: {ws.ckpt(ckpt)}: trained on data {recorded[:12]}, but {ws.data_dir} holds "
        f"data {now[:12]}: re-run pretrain\n")
    assert {p.name: p.read_bytes() for d in (ws.ckpt_dir, ws.report_dir)
            for p in d.iterdir()} == before


@pytest.mark.parametrize("recorded", [{}, {"data_sha256": None}], ids=["missing", "null"])
def test_checkpoint_without_a_data_fingerprint_exits_one(micro_run, tmp_path, capsys,
                                                         recorded):
    """A checkpoint written before the stages recorded the data they trained
    on, or whose manifest holds null for it."""
    ws = copy_run(micro_run, tmp_path)
    params, manifest = load_checkpoint(ws.ckpt("adapter_EP"))
    provenance = {**{k: v for k, v in manifest["provenance"].items() if k != "data_sha256"},
                  **recorded}
    save_checkpoint(ws.ckpt("adapter_old"), params, provenance)
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                     "--checkpoint", "adapter_old"]) == 1
    assert capsys.readouterr().err == (
        f"error: {ws.ckpt('adapter_old')}: trained on data none, but {ws.data_dir} holds "
        f"data {ws.data_sha256[:12]}: re-run pretrain\n")
    assert not list(ws.report_dir.glob("*adapter_old*"))


@pytest.mark.parametrize("recorded, error", [
    ({"data_sha256": 5}, "trained on data 5, but "),
    ({"encoder": []}, "provenance.encoder is [], not an object")], ids=["fingerprint", "encoder"])
def test_checkpoint_provenance_of_another_type_exits_one(micro_run, tmp_path, capsys,
                                                         recorded, error):
    ws = copy_run(micro_run, tmp_path)
    params, manifest = load_checkpoint(ws.ckpt("adapter_EP"))
    save_checkpoint(ws.ckpt("adapter_odd"), params, {**manifest["provenance"], **recorded})
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                     "--checkpoint", "adapter_odd"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ws.ckpt('adapter_odd')}: {error}"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["empty_object", "list", "tensor_without_shape",
                                  "no_provenance"])
def test_checkpoint_manifest_of_another_shape_exits_one(micro_run, tmp_path, capsys, case):
    ws = copy_run(micro_run, tmp_path)
    rewrite_manifest(ws.ckpt("adapter_EP"), MALFORMED_MANIFESTS[case])
    cfg = tmp_path / "cfg.json"
    write_config(ws.config, cfg)
    assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                     "--checkpoint", "adapter_EP"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ws.ckpt('adapter_EP')}: manifest is not an object"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_paper_profile_loads():
    config = PipelineConfig(out_dir="run", profile="paper")
    assert config.hyper("adapter", 1280).steps == 10 * 1280 // 128


def test_epochs_resolve_to_steps_of_the_data_size(micro_run, tmp_path):
    """With steps 0, a stage runs epochs x (data size // batch) steps, one
    curve row each; a kind's data size is what its sampler draws from (EP's
    ordered label pairs), and LARGE's the sum of the four kinds'."""
    run_dir = tmp_path / "run"
    shutil.copytree(micro_run.root, run_dir)
    by_epoch = {"steps": 0, "epochs": 1, "batch_size": 8}
    overrides = micro_run.config.hyper_overrides
    ws = Workspace(dataclasses.replace(micro_run.config, out_dir=str(run_dir), hyper_overrides={
        **overrides, "adapter": {**overrides["adapter"], **by_epoch},
        "fuse_alignment": {**overrides["fuse_alignment"], **by_epoch}}))
    for kind in ("EP", "TP"):
        run_stage(ws, "integrate", kind=kind)
    run_stage(ws, "fuse", task="alignment")
    ds, _ = ws.load_data()
    sizes = {"integrate_EP": len(ep_pair_universe(ds.mlkg, ds.split.adapter_langs)),
             "integrate_TP": len(ds.train_triples), "fuse_alignment": len(ds.align_train)}
    for curve, size in sizes.items():
        rows = (ws.log_dir / f"{curve}.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 1 * (size // 8) >= 1, curve
    kinds = {"EP": sizes["integrate_EP"], "TP": sizes["integrate_TP"],
             "ES": len(es_eligible(ds.c1, ds.mlkg, ds.split.adapter_langs)),
             "TS": len(ts_ingest(ds.c2))}
    assert {kind: pipeline.make_sampler(ds, kind)[1] for kind in (*kinds, "LARGE")} == {
        **kinds, "LARGE": sum(kinds.values())}


@pytest.fixture(scope="module")
def two_layer_run(tmp_path_factory):
    """The micro config with two encoder layers, pretrained."""
    micro = micro_config(tmp_path_factory.mktemp("two_layer"))
    ws = Workspace(dataclasses.replace(micro, encoder={**micro.encoder, "layers": 2}))
    run_stage(ws, "gen-synthetic")
    run_stage(ws, "pretrain")
    return ws


# encoder field, its run config value and the value the two-layer pretrain
# checkpoint holds; unchecked, layers 1 trains a truncated model, n_heads 4
# trains on a backbone whose attention was pretrained split in 2 heads, and
# the others fail inside encode
@pytest.mark.parametrize("field, value, found", [
    ("layers", 1, 2), ("layers", 3, 2), ("max_seq_len", 4, 16), ("d_model", 16, 32),
    ("ff_dim", 32, 64), ("n_heads", 4, 2)])
def test_encoder_config_unlike_the_checkpoint_exits_one(two_layer_run, tmp_path, capsys,
                                                        field, value, found):
    ws = two_layer_run
    cfg = tmp_path / "cfg.json"
    write_config(dataclasses.replace(ws.config, encoder={**ws.config.encoder, field: value}),
                 cfg)
    assert cli.main(["--config", str(cfg), "train-adapter", "--kind", "ep"]) == 1
    assert capsys.readouterr().err == (
        f"error: {ws.ckpt('pretrain')}: encoder.{field} is {value} in the run config "
        f"but {found} in the checkpoint: re-run pretrain\n")
    assert [p.name for p in ws.ckpt_dir.iterdir()] == ["pretrain.ckpt"]


def test_run_config_without_n_heads_runs_every_stage(tmp_path, capsys):
    """The encoder config may leave n_heads to its default; the checkpoints
    record the config as written, and every later stage reads it so."""
    micro = micro_config(tmp_path / "run")
    encoder = {k: v for k, v in micro.encoder.items() if k != "n_heads"}
    config = dataclasses.replace(micro, encoder=encoder, adapter_kinds=["EP"])
    cfg = tmp_path / "cfg.json"
    write_config(config, cfg)
    for command in (["gen-synthetic"], ["pretrain"], ["train-adapter", "--kind", "ep"],
                    ["eval", "--task", "alignment", "--checkpoint", "adapter_EP"]):
        assert cli.main(["--config", str(cfg), *command]) == 0, capsys.readouterr().err
    ws = Workspace(config)
    assert "n_heads" not in read_manifest(ws.ckpt("adapter_EP"))["provenance"]["encoder"]
    assert list(ws.report_dir.glob("*adapter_EP*"))


@pytest.mark.parametrize("base_lr", [1e30, 1e300])
def test_divergence_is_one_line_of_stderr(micro_run, tmp_path, capsys, base_lr):
    """Numpy's overflow warnings do not reach stderr before the failure."""
    run_dir = tmp_path / "run"
    shutil.copytree(micro_run.root, run_dir)
    raw = {**dataclasses.asdict(micro_run.config), "out_dir": str(run_dir)}
    _override("pretrain", base_lr=base_lr)(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["--config", str(cfg), "pretrain"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def test_es_span_cut_off_by_max_seq_len_exits_one(tmp_path, capsys):
    """A fault the config check lets through: the data's ES entity spans run
    past max_seq_len 4. It needs a backbone pretrained at that width, so it
    runs its own stages rather than a copy of the micro run."""
    micro = micro_config(tmp_path / "run")
    config = dataclasses.replace(micro, encoder={**micro.encoder, "max_seq_len": 4},
                                 adapter_kinds=["ES"])
    cfg = tmp_path / "cfg.json"
    write_config(config, cfg)
    for command in (["gen-synthetic"], ["pretrain"]):
        assert cli.main(["--config", str(cfg), *command]) == 0
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "train-adapter", "--kind", "es"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: pooling span \(\d+, \d+\) truncated away at "
                        r"max_seq_len=4\n", err), err


class TestCliExitCodes:
    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\"nonsense\": true}", encoding="utf-8")
        assert cli.main(["--config", str(cfg), "pretrain"]) == 1

    def test_unknown_synthetic_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path), "synthetic": {"bogus": 1}}),
                       encoding="utf-8")
        assert cli.main(["--config", str(cfg), "gen-synthetic"]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad config file {cfg}: ")

    def test_non_json_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json", encoding="utf-8")
        assert cli.main(["--config", str(cfg), "pretrain"]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not JSON: ")

    def test_non_json_report_input_names_the_file(self, tmp_path, capsys):
        report = tmp_path / "bad.json"
        report.write_text("not json", encoding="utf-8")
        assert cli.main(["report", "--input", str(report),
                         "--output", str(tmp_path / "out.tsv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: report file {report} is not JSON: ")
        assert not (tmp_path / "out.tsv").exists()

    def test_missing_config_and_out_exits_one(self):
        assert cli.main(["pretrain"]) == 1

    def test_pretrain_before_gen_synthetic_exits_one(self, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path), "pretrain"]) == 1
        assert capsys.readouterr().err == (
            "error: run the 'gen-synthetic' stage first (no data directory)\n")

    def test_report_of_a_directory_exits_one(self, tmp_path, capsys):
        assert cli.main(["report", "--input", str(tmp_path),
                         "--output", str(tmp_path / "out.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_eval_of_two_adapters_without_fusion_exits_one(self, micro_run, tmp_path, capsys):
        """An integrate checkpoint written when each held every configured
        adapter: the model it holds cannot be told from its parameters."""
        ws = copy_run(micro_run, tmp_path)
        params, manifest = load_checkpoint(ws.ckpt("adapter_EP"))
        params.merge(load_checkpoint(ws.ckpt("adapter_TP"))[0], "adapter.TP.")
        save_checkpoint(ws.ckpt("adapter_old"), params, manifest["provenance"])
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                         "--checkpoint", "adapter_old"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ws.ckpt('adapter_old')}: checkpoint holds adapters "
                              f"['EP', 'TP'] and no fusion")
        assert "re-run integrate" in err and err.count("\n") == 1
        assert not list(ws.report_dir.glob("*adapter_old*"))

    def test_eval_of_a_checkpoint_without_its_encoder_config_exits_one(self, micro_run,
                                                                        tmp_path, capsys):
        """A checkpoint written before the stages recorded the encoder config:
        its head count is unknown."""
        ws = copy_run(micro_run, tmp_path)
        params, manifest = load_checkpoint(ws.ckpt("adapter_EP"))
        provenance = {k: v for k, v in manifest["provenance"].items() if k != "encoder"}
        save_checkpoint(ws.ckpt("adapter_old"), params, provenance)
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                         "--checkpoint", "adapter_old"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ws.ckpt('adapter_old')}: encoder.n_heads is {ws.config.encoder['n_heads']} "
            f"in the run config but None in the checkpoint: re-run pretrain\n")
        assert not list(ws.report_dir.glob("*adapter_old*"))

    @pytest.mark.parametrize("missing", ["encoder.emb.tok", "encoder.emb.pos",
                                         "encoder.0.ff.w1"])
    def test_eval_of_a_checkpoint_without_an_encoder_tensor_exits_one(self, micro_run,
                                                                      tmp_path, capsys, missing):
        """The pretrain checkpoint's provenance over every tensor of it but one
        that the model's shapes are read from."""
        ws = copy_run(micro_run, tmp_path)
        params, manifest = load_checkpoint(ws.ckpt("pretrain"))
        partial = ParamSet()
        for name in params.names():
            if name != missing:
                partial.add(name, params.get(name))
        save_checkpoint(ws.ckpt("partial"), partial, manifest["provenance"])
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                         "--checkpoint", "partial"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ws.ckpt('partial')}: holds no tensor {missing!r}: not a checkpoint "
            f"of an encoder\n")
        assert not list(ws.report_dir.glob("*partial*"))

    @pytest.mark.parametrize("command", [["train-fusion", "--task", "alignment"],
                                         ["ablate", "--tasks", "alignment"]],
                             ids=["train-fusion", "ablate"])
    def test_integrate_checkpoint_of_another_kind_exits_one(self, micro_run, tmp_path, capsys,
                                                            command):
        """adapter_EP.ckpt replaced by a copy of adapter_TP.ckpt: no command
        fuses or scores the TP adapter in EP's place."""
        ws = copy_run(micro_run, tmp_path)
        shutil.copyfile(ws.ckpt("adapter_TP"), ws.ckpt("adapter_EP"))
        ws.ckpt("fused_alignment").unlink()
        reports = sorted(ws.report_dir.iterdir())
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        assert cli.main(["--config", str(cfg), *command]) == 1
        assert capsys.readouterr().err == (
            f"error: {ws.ckpt('adapter_EP')}: holds adapters ['TP'], not ['EP']: "
            f"re-run integrate\n")
        assert not ws.ckpt("fused_alignment").exists()
        assert sorted(ws.report_dir.iterdir()) == reports

    def test_eval_of_an_unknown_checkpoint_says_it_does_not_exist(self, micro_run, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "cfg.json"
        write_config(micro_run.config, cfg)
        assert cli.main(["--config", str(cfg), "eval", "--task", "alignment",
                         "--checkpoint", "nope"]) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'eval' requires checkpoint nope.ckpt "
            f"(no such checkpoint exists under {micro_run.ckpt_dir})\n")

    def test_contract_violation_exits_three(self, monkeypatch, tmp_path):
        from kgadapters.errors import ContractViolation

        def boom(ws, stage, **kw):
            raise ContractViolation("frozen group changed")

        monkeypatch.setattr(cli, "run_stage", boom)
        assert cli.main(["--out", str(tmp_path), "pretrain"]) == 3

    def test_numeric_error_exits_two(self, monkeypatch, tmp_path):
        from kgadapters.autodiff import NumericError

        def boom(ws, stage, **kw):
            raise NumericError("non-finite loss")

        monkeypatch.setattr(cli, "run_stage", boom)
        assert cli.main(["--out", str(tmp_path), "pretrain"]) == 2

    def test_frozen_group_change_in_train_fusion_exits_three(self, monkeypatch, tmp_path,
                                                            capsys):
        pc = micro_config(tmp_path / "run")
        integrate_only(Workspace(pc), pc.adapter_kinds)
        cfg = tmp_path / "cfg.json"
        write_config(pc, cfg)
        real_step = optim.adam_step

        def faulty_step(params, grads, state, lr):
            out = real_step(params, grads, state, lr)
            name = "adapter.EP.0.W_up"
            params.set_data(name, params.get(name) * 2.0)
            return out

        monkeypatch.setattr(optim, "adam_step", faulty_step)
        assert cli.main(["--config", str(cfg), "train-fusion", "--task", "alignment"]) == 3
        assert "adapter.EP.0.W_up" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoints" / "fused_alignment.ckpt").exists()

    def test_parameter_changed_during_eval_exits_three(self, micro_run, tmp_path, monkeypatch,
                                                       capsys):
        """An evaluation that rebinds a parameter of the model it scores: the
        frozen check `train` uses holds every parameter during evaluation."""
        ws = copy_run(micro_run, tmp_path)
        cfg = tmp_path / "cfg.json"
        write_config(ws.config, cfg)
        real_eval = pipeline.eval_alignment

        def rebinding_eval(model, *args, **kw):
            model.params.set_data("encoder.emb.tok", model.params.get("encoder.emb.tok") * 2.0)
            return real_eval(model, *args, **kw)

        monkeypatch.setattr(pipeline, "eval_alignment", rebinding_eval)
        assert cli.main(["--config", str(cfg), "eval", "--task", "alignment"]) == 3
        assert capsys.readouterr().err == ("contract violation: frozen parameter "
                                           "'encoder.emb.tok' changed during evaluation\n")
        assert not list(ws.report_dir.glob("eval_*"))

    @pytest.mark.parametrize("given", ["ep", "EP", "Ep"])
    def test_kind_is_read_in_either_case(self, given):
        args = cli.build_parser().parse_args(["--out", "run", "train-adapter", "--kind", given])
        assert args.kind == "EP"

    def test_train_large_adapter_via_cli(self, micro_run, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(micro_run.config, cfg)
        assert cli.main(["--config", str(cfg), "train-adapter", "--kind", "large"]) == 0
        assert read_manifest(micro_run.ckpt("adapter_LARGE"))["provenance"]["kind"] == "LARGE"
        assert tensor_groups(micro_run.ckpt("adapter_LARGE")) == {"encoder", "adapter.LARGE"}

    def test_each_writing_command_prints_its_path(self, micro_run, tmp_path, capsys):
        config = micro_config(tmp_path / "run")
        write_config(config, tmp_path / "cfg.json")
        ws = Workspace(config)
        commands = [
            (["gen-synthetic"], f"synthetic benchmark written to {ws.data_dir}"),
            (["pretrain"], f"pretrained backbone checkpoint: {ws.ckpt('pretrain')}"),
            (["train-adapter", "--kind", "ep"],
             f"integrated adapter checkpoint: {ws.ckpt('adapter_EP')}"),
            (["train-adapter", "--kind", "tp"],
             f"integrated adapter checkpoint: {ws.ckpt('adapter_TP')}"),
            (["train-fusion", "--task", "alignment"],
             f"fused checkpoint: {ws.ckpt('fused_alignment')}"),
            (["finetune", "--task", "alignment"],
             f"finetuned checkpoint: {ws.ckpt('finetuned_alignment')}")]
        for argv, line in commands:
            assert cli.main(["--config", str(tmp_path / "cfg.json"), *argv]) == 0
            assert capsys.readouterr().out == line + "\n"
        # the CLI runs the same stages as run_stage: the micro run's checkpoints
        blobs = {p.name: read_manifest(p)["blob_sha256"] for p in ws.ckpt_dir.iterdir()}
        assert len(blobs) == 5 and blobs == {name: read_manifest(micro_run.ckpt_dir / name)["blob_sha256"]
                         for name in blobs}
        with pytest.raises(ConfigError, match=re.escape(
                "unknown stage 'nope' (have ('gen-synthetic', 'pretrain', 'integrate', "
                "'fuse', 'finetune', 'eval', 'ablate'))")):
            run_stage(ws, "nope")


def test_unknown_task_rejected_before_any_stage_work(tmp_path):
    """Checked before the data or a checkpoint is looked for, or a run
    directory made."""
    ws = Workspace(micro_config(tmp_path / "run"))
    with pytest.raises(ConfigError, match=re.escape(
            "unknown task 'nope' (have ('completion', 'alignment'))")):
        run_stage(ws, "eval", task="nope")
    assert not ws.data_dir.exists() and not ws.ckpt_dir.exists()


def test_cli_start_up_imports_no_scipy():
    """Every CLI stage is its own process: a fresh interpreter importing the
    CLI loads numpy and no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, kgadapters.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
