"""Stage orchestration, checkpoint format, determinism, CLI exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from kgadapters import checkpoint, cli, optim, pipeline
from kgadapters.ablation import AblationReport
from kgadapters.adapters import adapter_param_count, fusion_param_count, large_adapter_bottleneck
from kgadapters.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from kgadapters.errors import ConfigError, DataError
from kgadapters.params import ParamSet
from kgadapters.pipeline import (PipelineConfig, RunLog, Workspace, load_model,
                                 model_from_checkpoint, run_stage)
from kgadapters.evaluation import LanguageResult, MetricReport, emit_report
from kgadapters.synthetic import SyntheticConfig


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


class TestCheckpointFormat:
    def make_params(self):
        rng = np.random.default_rng(0)
        p = ParamSet()
        p.add("adapter.EP.0.W_down", rng.standard_normal((4, 2)).astype(np.float32))
        p.add("encoder.emb.tok", rng.standard_normal((6, 4)).astype(np.float32),
              trainable=False)
        return p

    def test_roundtrip_bitwise(self, tmp_path):
        p = self.make_params()
        path1, path2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(path1, p, {"stage": "test"})
        loaded, manifest = load_checkpoint(path1)
        assert loaded.checksum() == p.checksum()
        assert loaded.is_trainable("adapter.EP.0.W_down")
        assert not loaded.is_trainable("encoder.emb.tok")
        save_checkpoint(path2, loaded, {"stage": "test"})
        assert path1.read_bytes() == path2.read_bytes()

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
    def test_manifest_lists_adapter_tensor_names(self, micro_run):
        manifest = read_manifest(micro_run.ckpt("adapter_EP"))
        names = [t["name"] for t in manifest["tensors"]]
        assert "adapter.EP.0.W_down" in names
        assert "adapter.TP.0.W_up" in names
        assert any(n.startswith("encoder.") for n in names)

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

    def test_model_mode_follows_checkpoint(self, micro_run):
        run_stage(micro_run, "integrate", kind="LARGE")
        cfg = micro_run.config
        d, layers = cfg.encoder["d_model"], cfg.encoder["layers"]
        budget = (len(cfg.adapter_kinds) * adapter_param_count(layers, d, cfg.bottleneck)
                  + fusion_param_count(layers, d))
        expected = {
            "pretrain": ("none", None, [], {}),
            "adapter_EP": ("single", "EP", ["EP", "TP"], {"EP": 4, "TP": 4}),
            "adapter_LARGE": ("single", "LARGE", ["LARGE"],
                              {"LARGE": large_adapter_bottleneck(budget, d, layers)}),
            "fused_alignment": ("fusion", None, ["EP", "TP"], {"EP": 4, "TP": 4}),
            "finetuned_alignment": ("fusion", None, ["EP", "TP"], {"EP": 4, "TP": 4}),
        }
        for name, want in expected.items():
            model = load_model(micro_run, name, "test")
            assert (model.mode, model.single_kind, model.kinds, model.bottlenecks) == want, name

    def test_integrate_checkpoint_without_its_own_kind_rejected(self, micro_run):
        params, manifest = load_checkpoint(micro_run.ckpt("adapter_EP"))
        manifest["provenance"]["adapter_kinds"] = ["TP"]
        with pytest.raises(DataError, match="not its own 'EP'"):
            model_from_checkpoint(micro_run, params, manifest)

    def test_eval_emits_hashes(self, micro_run):
        report = run_stage(micro_run, "eval", task="alignment",
                           checkpoint="fused_alignment")
        manifest = read_manifest(micro_run.ckpt("fused_alignment"))
        assert report.checkpoint_hash == manifest["blob_sha256"]
        assert report.config_hash == micro_run.config.config_hash()


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


class TestReports:
    def make_report(self):
        report = MetricReport(task="alignment", variant="demo", k=10, seed=1,
                              profile="desk", checkpoint_hash="ch", config_hash="cf")
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
        ablation = AblationReport(variants={"demo": {"alignment": self.make_report()}})
        path = tmp_path / "ablation.json"
        path.write_text(json.dumps(ablation.to_dict()), encoding="utf-8")
        assert cli.main(["report", "--input", str(path),
                         "--output", str(tmp_path / "out.tsv")]) == 1
        assert "ablation_<task>.json" in capsys.readouterr().err
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

    def test_ablate_loads_dataset_twice(self, cli_reports):
        # once for the grid, once in the integrate stage of the missing LARGE adapter
        assert cli_reports[1]["ablate"] == 2

    @pytest.mark.parametrize("name", ["eval_alignment_adapter_EP", "ablation_alignment"])
    def test_report_reproduces_written_tsv(self, cli_reports, name, tmp_path):
        reports = cli_reports[0].report_dir
        assert cli.main(["report", "--input", str(reports / f"{name}.json"),
                         "--output", str(tmp_path / "got.tsv")]) == 0
        assert (tmp_path / "got.tsv").read_bytes() == (reports / f"{name}.tsv").read_bytes()


class TestRunLog:
    def test_monotone_step_enforced(self, tmp_path):
        log = RunLog(tmp_path / "log.jsonl")
        log.record("stage", 1, "loss", 1.0)
        log.record("stage", 2, "loss", 0.9)
        log.record("other", 0, "loss", 5.0)
        with pytest.raises(ValueError, match="monotone"):
            log.record("stage", 1, "loss", 0.8)


class TestCliExitCodes:
    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\"nonsense\": true}", encoding="utf-8")
        assert cli.main(["--config", str(cfg), "pretrain"]) == 1

    def test_missing_config_and_out_exits_one(self):
        assert cli.main(["pretrain"]) == 1

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

    def test_train_large_adapter_via_cli(self, micro_run, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(micro_run.config, cfg)
        assert cli.main(["--config", str(cfg), "train-adapter", "--kind", "large"]) == 0
        provenance = read_manifest(micro_run.ckpt("adapter_LARGE"))["provenance"]
        assert (provenance["kind"], provenance["adapter_kinds"]) == ("LARGE", ["LARGE"])

    def test_gen_and_pretrain_via_cli(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(micro_config(tmp_path / "run"), cfg)
        assert cli.main(["--config", str(cfg), "gen-synthetic"]) == 0
        assert cli.main(["--config", str(cfg), "pretrain"]) == 0
        assert (tmp_path / "run" / "checkpoints" / "pretrain.ckpt").exists()
