import json
import time

import numpy as np
import pytest

from snl import blocks, cli, linalg, verify
from snl.errors import ShapeError


def test_verify_filter_no_match_is_usage_error(capsys):
    assert cli.run(["verify", "--filter", "no-such-group"]) == 2


def test_verify_single_group(tmp_path, capsys):
    code = cli.run(["verify", "--filter", "matmul", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "matmul-associativity" in out and "pass" in out
    assert (tmp_path / "verify.csv").read_text().startswith("name,passed,detail")


# Scripts run `snl verify --filter NAME` for each group and expect "1/1
# invariant groups passed", so the names are pinned and none contains another.
VERIFY_GROUP_NAMES = (
    "matmul-associativity", "jacobi-reconstruction", "affinity-row-stochastic",
    "expdot-positivity", "rw-sym-spectrum-match", "crisscross-rowsums",
    "laplacian-eigenvalue-bound", "gft-roundtrip", "spectral-equivalence",
    "chebyshev-basis-change", "filter-automorphism", "unification-table",
    "tied-weight-identities", "snl-symmetry", "block-equivariance",
    "block-output-shape",
)


def test_verify_filter_selects_each_group_alone():
    assert tuple(name for name, _ in verify.GROUPS) == VERIFY_GROUP_NAMES
    for name in VERIFY_GROUP_NAMES:
        results = verify.run_verify(name)
        assert [r["name"] for r in results] == [name]
        assert results[0]["passed"], results[0]["detail"]


def test_verify_holds_no_tape(monkeypatch):
    # the groups run their samples as stacks and never call the B=1
    # block_forward, whose tape would stay held for later callers
    monkeypatch.setattr(blocks, "_held", None)
    honest, calls = blocks.block_forward, []
    monkeypatch.setattr(blocks, "block_forward", lambda *a: calls.append(a) or honest(*a))
    assert all(r["passed"] for r in verify.run_verify())
    assert calls == [] and blocks._held is None


def test_gradcheck_single_variant(tmp_path, capsys):
    code = cli.run(["gradcheck", "--variant", "NL", "--out", str(tmp_path)])
    assert code == 0
    assert "NL" in capsys.readouterr().out
    assert (tmp_path / "gradcheck.csv").exists()


def test_shared_parser_keeps_no_state_between_runs(capsys):
    # the parser is built once per process: a --tol given to one run must
    # not become the default of the next, which prints what a first run
    # prints; at 1e-12 the error floor, noise / tol, moves every max_rel,
    # so a default left at 1e-12 would show
    cli.build_parser.cache_clear()
    assert cli.run(["gradcheck", "--variant", "NL"]) == 0
    first = capsys.readouterr().out
    for tol in ("1e-3", "1e-12"):
        assert cli.run(["gradcheck", "--variant", "NL", "--tol", tol]) == 0
        tuned = capsys.readouterr().out
        assert cli.run(["gradcheck", "--variant", "NL"]) == 0
        assert capsys.readouterr().out == first
    assert tuned != first
    assert cli.build_parser().parse_args(["gradcheck"]).tol == cli.GRADCHECK_TOL
    assert cli.build_parser.cache_info().misses == 1


def test_gradcheck_unknown_variant():
    assert cli.run(["gradcheck", "--variant", "NOPE"]) == 2


def test_train_writes_metrics(tmp_path, capsys):
    cfg = {
        "block": {"variant": "SNL", "c_in": 4, "c_s": 2},
        "dataset": {"n_samples": 32},
        "steps": 20,
        "eval_every": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.run(["train", "--config", str(cfg_path), "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,loss,accuracy"
    assert len(lines) == 3  # steps 10 and 20


def test_train_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 5, "bogus": 1}))
    assert cli.run(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_train_unknown_dataset_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"shape": "weird"}}))
    assert cli.run(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", [
    '{"steps": 0}',
    '{"eval_every": 0}',
    '{"batch_size": 0}',
    '{"dataset": null}',
    '{"dataset": []}',
    '{"dataset": {"n_samples": 0}}',
    '{"dataset": {"noise": -0.5}}',
    '{"dataset": {"channels": "4"}}',
    '{"steps": "ten"}',
    '{"steps": 2.5}',
    '{"steps": true}',
    '{"lr": "x"}',
    '{"lr": NaN}',
    '{"block": 5}',
    '{"block": {"variant": "SNL", "c_in": "4", "c_s": 2}}',
    '{"block": {"variant": "CHEB_K", "c_in": 4, "c_s": 2, "order": 2.5}}',
    '{"block": {"variant": "SNL", "c_in": 4, "c_s": 2, "backprop_affinity": "no"}}',
    '{"block": {"variant": "SNL", "c_in": true, "c_s": 1}}',
])
def test_train_bad_config_is_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.run(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_missing_config():
    assert cli.run(["train", "--config", "/no/such/file.json", "--out", "/tmp/x"]) == 2


def test_export_attention(tmp_path):
    rng = np.random.default_rng(0)
    feat = tmp_path / "feat.csv"
    linalg.save_csv(rng.normal(0.0, 0.3, size=(64, 4)), feat)
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    out = tmp_path / "att"
    code = cli.run([
        "export-attention", "--input", str(feat), "--block", str(block),
        "--positions", "0,63", "--out", str(out),
    ])
    assert code == 0
    for pos in (0, 63):
        raw = (out / f"attention_{pos:04d}.pgm").read_bytes()
        assert raw.startswith(b"P5\n8 8\n255\n")
        assert len(raw) == len(b"P5\n8 8\n255\n") + 64


def test_export_attention_bad_position(tmp_path):
    rng = np.random.default_rng(1)
    feat = tmp_path / "feat.csv"
    linalg.save_csv(rng.normal(0.0, 0.3, size=(64, 4)), feat)
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    code = cli.run([
        "export-attention", "--input", str(feat), "--block", str(block),
        "--positions", "999", "--out", str(tmp_path / "att"),
    ])
    assert code == 2


def test_export_attention_nonsquare_needs_height(tmp_path):
    rng = np.random.default_rng(2)
    feat = tmp_path / "feat.csv"
    linalg.save_csv(rng.normal(0.0, 0.3, size=(12, 4)), feat)
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    args = ["export-attention", "--input", str(feat), "--block", str(block),
            "--positions", "0", "--out", str(tmp_path / "att")]
    assert cli.run(args) == 2
    assert cli.run(args + ["--height", "3"]) == 0


def test_bench_writes_csv(tmp_path, capsys):
    code = cli.run(["bench", "--sizes", "16,36", "--orders", "2,4", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "variant,n,order,seconds"
    assert "K-scaling" in capsys.readouterr().out
    # the SGD step's and evaluate's rows, at the toy task's N = 64
    assert [line.rsplit(",", 1)[0] for line in lines[1:3]] == ["train_step,64,2",
                                                              "evaluate,64,2"]


def test_bench_times_each_variant_backward_at_the_largest_size(tmp_path, capsys):
    code = cli.run(["bench", "--sizes", "16,9", "--orders", "2,3", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "variant,n,order,seconds"
    rows = [line.split(",") for line in lines if "_fwd_bwd," in line]
    want = [[f"{v}_fwd_bwd", "16", "2"] for v in blocks.VARIANTS if v != "CHEB_K"]
    want += [["CHEB_K_fwd_bwd", "16", k] for k in ("2", "3")]
    assert [row[:3] for row in rows] == want
    assert all(float(row[3]) > 0.0 for row in rows)
    out = capsys.readouterr().out.splitlines()
    timed = [line for line in out if " N=" in line]
    assert len(timed) == len(lines) - 1
    assert all("IQR" in line for line in timed)


def test_bench_fails_a_filter_superlinear_in_k(tmp_path, capsys, monkeypatch):
    # a filter that takes K^2 time: the increment ratio reads 2.0 > 1.5; it
    # still returns the filter, which the verify row's groups read
    honest = blocks.generalized_forward

    def slow(a, z, weights):
        time.sleep(2e-4 * len(weights) ** 2)
        return honest(a, z, weights)

    monkeypatch.setattr(blocks, "generalized_forward", slow)
    code = cli.run(["bench", "--sizes", "16", "--orders", "2,4,8", "--out", str(tmp_path)])
    assert code == 1
    assert "grows faster than linearly" in capsys.readouterr().err
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines if line.startswith("CHEB_K_filter")] == [
        ["CHEB_K_filter", "16", k] for k in ("2", "4", "8")]


@pytest.mark.parametrize("flags", [
    ["export-attention", "--height", "0"],
    ["export-attention", "--height", "-3"],
    ["bench", "--sizes", "x"],
    ["bench", "--sizes", "0"],
    ["bench", "--sizes", "16", "--orders", "x"],
    ["bench", "--sizes", "16", "--orders", "0"],
])
def test_bad_numeric_flag_is_config_error(tmp_path, capsys, flags):
    # rejected before any work, with an error line rather than a traceback
    feat, block = tmp_path / "feat.csv", tmp_path / "block.json"
    linalg.save_csv(np.random.default_rng(3).normal(0.0, 0.3, size=(12, 4)), feat)
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    if flags[0] == "export-attention":
        flags = flags + ["--input", str(feat), "--block", str(block),
                         "--positions", "0", "--out", str(tmp_path / "att")]
    assert cli.run(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["export-attention", "--positions", "a"],
    ["export-attention", "--positions", "0", "--seed", "-1"],
    ["gradcheck", "--variant", "NL", "--seed", "-1"],
    ["train", "--seed", "-1"],
])
def test_bad_position_or_seed_is_usage_error(tmp_path, capsys, flags):
    # an error line and exit 2 rather than a ValueError traceback
    feat, block, cfg = tmp_path / "feat.csv", tmp_path / "block.json", tmp_path / "cfg.json"
    linalg.save_csv(np.random.default_rng(4).normal(0.0, 0.3, size=(16, 4)), feat)
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    cfg.write_text(json.dumps({"steps": 2, "eval_every": 2, "dataset": {"n_samples": 8}}))
    if flags[0] == "export-attention":
        flags = flags + ["--input", str(feat), "--block", str(block), "--out", str(tmp_path / "att")]
    if flags[0] == "train":
        flags = flags + ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert cli.run(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def export_files(tmp_path):
    """A 4x4 feature CSV and an SNL block config for export-attention."""
    feat, block = tmp_path / "feat.csv", tmp_path / "block.json"
    linalg.save_csv(np.random.default_rng(5).normal(0.0, 0.3, size=(16, 4)), feat)
    block.write_text(json.dumps({"variant": "SNL", "c_in": 4, "c_s": 2}))
    return feat, block


def test_non_numeric_csv_cell_is_an_error_line(tmp_path, capsys):
    # a ShapeError, as a ragged CSV gives, rather than a ValueError traceback
    feat, block = export_files(tmp_path)
    feat.write_text(feat.read_text().replace(",", ",x", 1))
    with pytest.raises(ShapeError, match="non-numeric"):
        linalg.load_csv(feat)
    code = cli.run(["export-attention", "--input", str(feat), "--block", str(block),
                    "--positions", "0", "--out", str(tmp_path / "att")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--input", "--block"])
def test_export_attention_file_flag_naming_a_directory_is_usage_error(tmp_path, capsys, flag):
    feat, block = export_files(tmp_path)
    files = {"--input": str(feat), "--block": str(block), flag: str(tmp_path)}
    code = cli.run(["export-attention", "--input", files["--input"], "--block",
                    files["--block"], "--positions", "0", "--out", str(tmp_path / "att")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "gradcheck", "train", "export-attention",
                                     "bench"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # an error line and exit 2 rather than a FileExistsError traceback;
    # train and bench check --out before they start work
    out = tmp_path / "taken"
    out.write_text("")
    feat, block = export_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2, "eval_every": 2, "dataset": {"n_samples": 8}}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli.harness, "gen_dataset", no_work)
    flags = {"verify": ["--filter", "matmul"], "gradcheck": ["--variant", "NL"],
             "train": ["--config", str(cfg)],
             "export-attention": ["--input", str(feat), "--block", str(block),
                                  "--positions", "0"],
             "bench": ["--sizes", "16"]}[command]
    assert cli.run([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == ""


def test_usage_error_exit_code():
    assert cli.run(["not-a-command"]) == 2
