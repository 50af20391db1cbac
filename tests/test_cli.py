import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import fork_graph, joint_by_enumeration
from stochcirc import fixture_text
from stochcirc.cli import main
from stochcirc.lowprec import total_variation
from stochcirc.mrf import random_dot_stereogram
from stochcirc.pgm import read_pgm, write_pgm


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(fixture_text("three_var_fork.json"))
    return path


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_selftest_passes(runner, tmp_path):
    result = invoke(runner, ["--out-dir", str(tmp_path), "selftest"])
    assert result.exit_code == 0, result.output
    assert "selftest ok" in result.output


def test_unknown_subcommand_usage_error(runner):
    result = runner.invoke(main, ["definitely-not-a-command"])
    assert result.exit_code == 2


def test_fg_validate_good_and_bad(runner, tmp_path, model_file):
    assert invoke(runner, ["fg", "validate", str(model_file)]).exit_code == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": [{"name": "X", "arity": 2}], '
                   '"factors": [{"name": "f", "vars": ["X"], "table": [1]}]}')
    result = runner.invoke(main, ["fg", "validate", str(bad)])
    assert result.exit_code == 3


def test_query_marginals_match_oracle(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "11", "--out-dir", str(out), "query",
                             str(model_file), "--evidence", "C=1",
                             "--sweeps", "40000"])
    assert result.exit_code == 0, result.output
    rows = (out / "marginals.csv").read_text().strip().split("\n")
    assert rows[0] == "variable,value,probability,stderr"
    est = {}
    for line in rows[1:]:
        name, value, prob, _ = line.split(",")
        est.setdefault(name, {})[int(value)] = float(prob)
    joint = joint_by_enumeration(fork_graph({"C": 1}))
    exact_a = joint.sum(axis=(1, 2))
    assert total_variation([est["A"][0], est["A"][1]], exact_a) < 0.02
    meta = json.loads((out / "query_meta.json").read_text())
    assert meta["seed"] == 11
    assert "time" not in json.dumps(meta).lower()


def test_query_rejects_unknown_evidence_variable(runner, tmp_path, model_file):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "query",
                                  str(model_file), "--evidence", "Q=1"])
    assert result.exit_code == 3


def test_run_trace_artifact(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "3", "--out-dir", str(out), "run",
                             str(model_file), "--sweeps", "50"])
    assert result.exit_code == 0, result.output
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "A,B,C"
    assert len(lines) == 51
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["params"]["fault_rate"] == 0.0


def test_compile_artifact(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--out-dir", str(out), "compile", str(model_file)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "assembly.json").read_text())
    assert doc["schedule"] == [["A"], ["B", "C"]]
    assert doc["coloring"]["B"] == doc["coloring"]["C"] != doc["coloring"]["A"]


def test_precision_sweep_artifact(runner, tmp_path):
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "5", "--out-dir", str(out),
                             "precision-sweep", "--outcomes", "50",
                             "--per-bin", "50", "--bits", "4,8"])
    assert result.exit_code == 0, result.output
    lines = (out / "precision_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "entropy_bits,total_bits,frac_bits,mean_kl,max_kl,n"
    bits = {int(line.split(",")[1]) for line in lines[1:]}
    assert bits == {4, 8}


def test_gate_sample_artifact(runner, tmp_path):
    cpt = tmp_path / "cpt.json"
    cpt.write_text('{"m": 1, "n": 1, "rows": [[0.25, 0.75], [1.0, 0.0]]}')
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "9", "--out-dir", str(out), "gate",
                             "sample", "--cpt", str(cpt), "--input", "0",
                             "-n", "20000"])
    assert result.exit_code == 0, result.output
    lines = (out / "gate_sample.csv").read_text().strip().split("\n")
    freq1 = float(lines[2].split(",")[2])
    assert abs(freq1 - 0.75) < 0.01


def test_stereo_pipeline(runner, tmp_path):
    pair, _ = random_dot_stereogram(12, 12, 1, seed=0)
    left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
    write_pgm(left, pair.first)
    write_pgm(right, pair.second)
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "2", "--out-dir", str(out), "stereo",
                             str(left), str(right), "-d", "3",
                             "--sweeps", "60"])
    assert result.exit_code == 0, result.output
    labels = read_pgm(out / "stereo_labels.pgm")
    assert labels.shape == (12, 12)
    energy = (out / "stereo_energy.csv").read_text().strip().split("\n")
    assert energy[0] == "sweep,energy"
    assert len(energy) == 61
    # most interior pixels at the true shift (gray level 127 for d=1 of 3)
    assert (labels[:, 1:] == 127).mean() > 0.8


def test_motion_pipeline(runner, tmp_path):
    rng = np.random.default_rng(4)
    first = rng.integers(0, 256, size=(10, 10)).astype(np.uint8)
    second = np.roll(first, -1, axis=0)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, first)
    write_pgm(b, second)
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "6", "--out-dir", str(out), "motion",
                             str(a), str(b), "-d", "5", "--sweeps", "60"])
    assert result.exit_code == 0, result.output
    assert (out / "motion_labels.pgm").exists()
    assert (out / "motion_meta.json").exists()


def test_dpmm_pipeline(runner, tmp_path):
    data = tmp_path / "data.txt"
    rows = [[0] * 8] * 6 + [[1] * 8] * 6
    data.write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "8", "--out-dir", str(out), "dpmm",
                             "run", str(data), "--sweeps", "150",
                             "--burn-in", "50"])
    assert result.exit_code == 0, result.output
    hist = (out / "cluster_counts.csv").read_text().strip().split("\n")
    counts = {int(l.split(",")[0]): int(l.split(",")[1]) for l in hist[1:]}
    assert max(counts, key=counts.get) == 2
    assert any(p.name.startswith("cluster_00") for p in out.iterdir())
    assign = (out / "assignments.csv").read_text().strip().split("\n")
    assert len(assign) == 151


def test_spike_pipeline(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "10", "--out-dir", str(out), "spike",
                             "run", str(model_file), "--sweeps", "100"])
    assert result.exit_code == 0, result.output
    raster = (out / "raster.csv").read_text().strip().split("\n")
    assert raster[0] == "time,variable,unit"
    trace = (out / "spike_trace.csv").read_text().strip().split("\n")
    assert trace[0] == "A,B,C"
    assert len(trace) == 101


def test_fault_report_pipeline(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "12", "--out-dir", str(out),
                             "fault-report", str(model_file),
                             "--sweeps", "4000"])
    assert result.exit_code == 0, result.output
    lines = (out / "fault_report.csv").read_text().strip().split("\n")
    assert lines[0] == "fault_rate,kl_bits"
    assert len(lines) == 5


def test_byte_identical_reruns_and_thread_independence(runner, tmp_path, model_file):
    outputs = []
    for trial, threads in [(0, "1"), (1, "1"), (2, "4")]:
        out = tmp_path / f"out{trial}"
        result = invoke(runner, ["--seed", "99", "--out-dir", str(out),
                                 "--threads", threads, "query",
                                 str(model_file), "--sweeps", "3000"])
        assert result.exit_code == 0, result.output
        outputs.append((out / "marginals.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_float_format_flag(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--format", "float", "--out-dir", str(out),
                             "query", str(model_file), "--sweeps", "2000"])
    assert result.exit_code == 0, result.output


def test_global_schedule_and_fault_flags(runner, tmp_path, model_file):
    out = tmp_path / "out"
    result = invoke(runner, ["--schedule", "random-scan", "--fault-rate",
                             "0.01", "--seed", "4", "--out-dir", str(out),
                             "run", str(model_file), "--sweeps", "500"])
    assert result.exit_code == 0, result.output
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["params"]["fault_rate"] == 0.01
    assert meta["params"]["schedule"] == "random-scan"


def test_dpmm_idx_input(runner, tmp_path):
    images = np.zeros((8, 2, 4), dtype=np.uint8)
    images[4:] = 255
    blob = bytes([0, 0, 0x08, 3])
    for dim in images.shape:
        blob += dim.to_bytes(4, "big")
    blob += images.tobytes()
    idx = tmp_path / "digits.idx"
    idx.write_bytes(blob)
    out = tmp_path / "out"
    result = invoke(runner, ["--seed", "1", "--out-dir", str(out), "dpmm",
                             "run", str(idx), "--idx", "--sweeps", "100",
                             "--burn-in", "20"])
    assert result.exit_code == 0, result.output
    hist = (out / "cluster_counts.csv").read_text().strip().split("\n")
    counts = {int(l.split(",")[0]): int(l.split(",")[1]) for l in hist[1:]}
    assert max(counts, key=counts.get) == 2


def test_bad_format_flag(runner, tmp_path, model_file):
    result = runner.invoke(main, ["--format", "nope,x", "--out-dir",
                                  str(tmp_path), "query", str(model_file)])
    assert result.exit_code == 6


@pytest.mark.parametrize("args", [
    [], ["gate", "sample"], ["precision-sweep"], ["fg", "validate"],
    ["compile"], ["query"], ["run"], ["fault-report"], ["stereo"],
    ["motion"], ["dpmm", "run"], ["spike", "run"], ["selftest"],
])
def test_every_subcommand_has_help(runner, args):
    result = runner.invoke(main, args + ["--help"])
    assert result.exit_code == 0
    assert "Usage" in result.output


@pytest.mark.parametrize("text, code", [
    ('{"m": 1, "n": 1, "rows": [[0.5, 0.5], [1.0, 0.0]]', 3),  # malformed JSON
    ('{"m": 1, "rows": [[0.5, 0.5], [1.0, 0.0]]}', 6),          # no "n" field
])
def test_gate_sample_bad_cpt_exit_codes(runner, tmp_path, text, code):
    cpt = tmp_path / "cpt.json"
    cpt.write_text(text)
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "gate", "sample",
                                  "--cpt", str(cpt), "--input", "0"])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["precision-sweep", "--bits", "4,x"],
    ["query", "{model}", "--evidence", "A=x"],
    ["fault-report", "{model}", "--rates", "0,x"],
    ["stereo", "{left}", "{right}", "--anneal", "2,x"],
])
def test_malformed_number_exit_6(runner, tmp_path, model_file, args):
    pair, _ = random_dot_stereogram(12, 12, 1, seed=0)
    paths = {"model": model_file, "left": tmp_path / "l.pgm", "right": tmp_path / "r.pgm"}
    write_pgm(paths["left"], pair.first)
    write_pgm(paths["right"], pair.second)
    argv = ["--out-dir", str(tmp_path / "out")] + [a.format(**paths) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(runner, tmp_path, model_file, threads):
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "--threads", threads,
                                  "query", str(model_file), "--sweeps", "10"])
    assert result.exit_code == 2
    assert not (tmp_path / "marginals.csv").exists()


def test_threads_help_says_serial_and_result_independent(runner):
    text = " ".join(runner.invoke(main, ["--help"]).output.split())
    assert "updates run serially" in text
    assert "never changes results" in text


@pytest.mark.parametrize("text", [
    '{"variables": [{"name": "X", "arity": 2}], '
    '"factors": [{"name": "f", "vars": ["X"], "table": [NaN, 1]}]}',
    '{"variables": [{"name": "X", "arity": 2}], '
    '"factors": [{"name": "f", "vars": ["X"], "table": [1, Infinity]}]}',
    '{"variables": [{"name": "X", "arity": 2}], '
    '"factors": [{"name": "f", "vars": ["X"], "table": [-Infinity, 1]}]}',
])
def test_non_finite_weight_is_a_model_error(runner, tmp_path, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    result = runner.invoke(main, ["fg", "validate", str(model)])
    assert result.exit_code == 3, result.output
    assert "non-finite" in result.output
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "query", str(model),
                                  "--sweeps", "10"])
    assert result.exit_code == 3, result.output


@pytest.mark.parametrize("entry", ['{"arity": 2}', '{"name": "X"}', '"X"',
                                   '{"name": "X", "arity": "two"}'])
def test_variable_entry_without_name_or_arity_exit_3(runner, tmp_path, entry):
    model = tmp_path / "model.json"
    model.write_text('{"variables": [' + entry + '], "factors": []}')
    result = runner.invoke(main, ["fg", "validate", str(model)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)


def test_factor_entry_without_table_exit_3(runner, tmp_path):
    model = tmp_path / "model.json"
    model.write_text('{"variables": [{"name": "X", "arity": 2}], '
                     '"factors": [{"name": "f", "vars": ["X"]}]}')
    result = runner.invoke(main, ["fg", "validate", str(model)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("rows", ["1 0 1\n1 0 x\n", "1 0 1\n1 0\n", "0 1 256\n257 0 1\n",
                                  "0 1 1\n-1 0 1\n"])
def test_dpmm_data_with_non_integer_entry_exit_6(runner, tmp_path, rows):
    data = tmp_path / "data.txt"
    data.write_text(rows)
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out-dir", str(out), "dpmm", "run",
                                  str(data), "--sweeps", "2", "--burn-in", "0"])
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists() or list(out.iterdir()) == []


def _dpmm_outputs(runner, tmp_path, name, global_args):
    """(assignments.csv, dpmm_run_meta.json) of one run on a shared data file."""
    data = tmp_path / "data.txt"
    data.write_text("0 1 1 0\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 1 1\n1 1 1 0\n")
    out = tmp_path / name
    result = invoke(runner, ["--seed", "3", "--out-dir", str(out)] + global_args
                    + ["dpmm", "run", str(data), "--sweeps", "30", "--burn-in", "0"])
    assert result.exit_code == 0, result.output
    return ((out / "assignments.csv").read_text(),
            (out / "dpmm_run_meta.json").read_text())


def test_dpmm_honors_an_explicit_format(runner, tmp_path):
    default = _dpmm_outputs(runner, tmp_path, "default", [])
    assert _dpmm_outputs(runner, tmp_path, "wide", ["--format", "16,8"]) == default
    narrow = _dpmm_outputs(runner, tmp_path, "narrow", ["--format", "8,4"])
    assert narrow[0] != default[0]
    assert narrow[1] != default[1]
    assert json.loads(narrow[1])["params"]["format"] == [8, 4]


@pytest.mark.parametrize("command", [["query"], ["spike", "run"]], ids=["query", "spike"])
def test_chain_meta_records_the_format_and_the_run(runner, tmp_path, model_file, command):
    metas = {}
    for fmt in ("8,4", "float"):
        out = tmp_path / fmt
        result = invoke(runner, ["--seed", "5", "--out-dir", str(out), "--format", fmt]
                        + command + [str(model_file), "--evidence", "C=1",
                                     "--sweeps", "20", "--burn-in", "3"])
        assert result.exit_code == 0, result.output
        name = "_".join(command) + "_meta.json"
        metas[fmt] = json.loads((out / name).read_text())["params"]
    assert metas["8,4"] != metas["float"]
    assert metas["8,4"]["format"] == [8, 4] and metas["float"]["format"] is None
    for params in metas.values():
        assert (params["seed"], params["kernel"], params["sweeps"], params["burn_in"],
                params["clamped"]) == (5, "gibbs", 20, 3, {"C": 1})


@pytest.mark.parametrize("fmt, message", [("float", "fixed-point"), ("32,0", "wider than"),
                                          ("12,0", "wider than")])
def test_dpmm_format_without_a_usable_fixed_point_word_exit_6(runner, tmp_path, model_file,
                                                              fmt, message):
    output = _invoke_rejected(runner, tmp_path, model_file,
                              ["--format", fmt, "dpmm", "run", "{data}", "--sweeps", "2"])
    assert message in output


def test_dpmm_idx_file_with_no_images_exit_6(runner, tmp_path):
    idx = tmp_path / "empty.idx"
    idx.write_bytes(bytes([0, 0, 0x08, 3]) + b"".join(d.to_bytes(4, "big") for d in (0, 2, 3)))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out-dir", str(out), "dpmm", "run", str(idx), "--idx"])
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert "empty data file" in result.output
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--format", "nope", "fg", "validate", "{model}"],
    ["--format", "nope", "precision-sweep", "--outcomes", "10", "--per-bin", "10"],
    ["--format", "nope", "selftest"],
    ["--fault-rate", "2", "query", "{model}", "--sweeps", "10"],
    ["--fault-rate", "-0.1", "gate", "sample", "--cpt", "{cpt}", "--input", "0"],
])
def test_global_flags_are_validated_for_every_subcommand(runner, tmp_path, model_file,
                                                         args):
    cpt = tmp_path / "cpt.json"
    cpt.write_text('{"m": 1, "n": 1, "rows": [[0.5, 0.5], [1.0, 0.0]]}')
    out = tmp_path / "out"
    argv = ["--out-dir", str(out)] + [a.format(model=model_file, cpt=cpt) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


def _fork_with_evidence(tmp_path, evidence: str):
    """The fork fixture with `"evidence": <evidence>` (raw JSON) appended."""
    model = tmp_path / "model.json"
    model.write_text(fixture_text("three_var_fork.json").rstrip().rstrip("}")
                     + ', "evidence": ' + evidence + "}")
    return model


@pytest.mark.parametrize("value", ["1.5", '"1"', "true"])
def test_non_integer_evidence_in_model_exit_3(runner, tmp_path, value):
    model = _fork_with_evidence(tmp_path, '{"C": ' + value + "}")
    result = runner.invoke(main, ["fg", "validate", str(model)])
    assert result.exit_code == 3, result.output
    assert "must be an integer" in result.output
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "query", str(model),
                                  "--sweeps", "10"])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "marginals.csv").exists()


def test_integer_evidence_in_model_clamps_the_query(runner, tmp_path):
    model = _fork_with_evidence(tmp_path, '{"C": 1}')
    assert runner.invoke(main, ["fg", "validate", str(model)]).exit_code == 0
    result = runner.invoke(main, ["--out-dir", str(tmp_path), "query", str(model),
                                  "--sweeps", "10"])
    assert result.exit_code == 0, result.output
    assert "C,1,1.0," in (tmp_path / "marginals.csv").read_text()


@pytest.mark.parametrize("evidence", ['["C"]', "5", '"C=1"'])
def test_evidence_that_is_not_an_object_exit_3(runner, tmp_path, evidence):
    model = _fork_with_evidence(tmp_path, evidence)
    result = runner.invoke(main, ["fg", "validate", str(model)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", ["3x3", "2x3", "-1x-4", "-2x-2"])
def test_dpmm_image_shape_that_does_not_hold_the_pixels_exit_6(runner, tmp_path, shape):
    # -1x-4 and -2x-2 multiply to the 4 pixels: only a size below 1 rejects them
    data = tmp_path / "data.txt"
    data.write_text("1 0 1 0\n1 0 1 1\n0 1 0 1\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out-dir", str(out), "dpmm", "run", str(data),
                                  "--sweeps", "2", "--burn-in", "0",
                                  "--image-shape", shape])
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_gate_sample_draw_count_below_one_exit_6(runner, tmp_path, draws):
    cpt = tmp_path / "cpt.json"
    cpt.write_text('{"m": 1, "n": 1, "rows": [[0.5, 0.5], [1.0, 0.0]]}')
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out-dir", str(out), "gate", "sample",
                                  "--cpt", str(cpt), "--input", "0", "-n", draws])
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert "-n must be at least 1" in result.output
    assert not out.exists()


def test_precision_sweep_per_bin_zero_exit_6(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out-dir", str(out), "precision-sweep",
                                  "--outcomes", "5", "--per-bin", "0", "--bits", "4"])
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert "at least one distribution per bin" in result.output
    assert not (out / "precision_sweep.csv").exists()


def _invoke_rejected(runner, tmp_path, model_file, args):
    """Invoke args with numpy warnings as errors; the run must exit 6 and
    write no artifact. Returns the output."""
    pair, _ = random_dot_stereogram(6, 6, 1, seed=0)
    data = tmp_path / "data.txt"
    data.write_text("1 0 1 0\n1 0 1 1\n0 1 0 1\n")
    paths = {"model": model_file, "data": data,
             "left": tmp_path / "l.pgm", "right": tmp_path / "r.pgm"}
    write_pgm(paths["left"], pair.first)
    write_pgm(paths["right"], pair.second)
    out = tmp_path / "out"
    argv = ["--out-dir", str(out)] + [a.format(**paths) for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, argv)
    assert result.exit_code == 6, result.output
    assert isinstance(result.exception, SystemExit)
    assert not out.exists() or list(out.iterdir()) == []
    return result.output


@pytest.mark.parametrize("args, message", [
    (["query", "{model}", "--sweeps", "10", "--burn-in", "-5"], "burn-in must be"),
    (["run", "{model}", "--sweeps", "10", "--burn-in", "-5"], "burn-in must be"),
    (["spike", "run", "{model}", "--sweeps", "10", "--burn-in", "-5"], "burn-in must be"),
    (["dpmm", "run", "{data}", "--sweeps", "2", "--burn-in", "-3"], "burn-in must be"),
    (["dpmm", "run", "{data}", "--sweeps", "0"], "at least one sweep"),
    (["dpmm", "run", "{data}", "--sweeps", "-2"], "at least one sweep"),
], ids=["query", "run", "spike", "dpmm-burn-in", "dpmm-sweeps-0", "dpmm-sweeps-neg"])
def test_negative_burn_in_or_no_sweeps_exit_6(runner, tmp_path, model_file, args, message):
    assert message in _invoke_rejected(runner, tmp_path, model_file, args)


@pytest.mark.parametrize("args", [
    ["--anneal", "2"], ["--anneal", "2,1,0.5"], ["--anneal", "2,nan"],
    ["--anneal", "2,inf"], ["--anneal", "0,1"], ["--sweeps", "-4"],
])
def test_bad_anneal_ladder_or_sweep_count_exit_6(runner, tmp_path, model_file, args):
    _invoke_rejected(runner, tmp_path, model_file,
                     ["stereo", "{left}", "{right}", "-d", "3", "--sweeps", "4"] + args)


@pytest.mark.parametrize("mode", ["stereo", "motion"])
@pytest.mark.parametrize("args", [["--lam", "nan"], ["--tau", "nan"], ["--lam", "-2000"],
                                  ["--lam", "inf"]])
def test_bad_smoothness_options_exit_6_without_warnings(runner, tmp_path, model_file,
                                                        mode, args):
    output = _invoke_rejected(runner, tmp_path, model_file,
                              [mode, "{left}", "{right}", "-d", "3", "--sweeps", "4"] + args)
    assert "smoothness table" in output


@pytest.mark.parametrize("rates", ["0,-0.5", "0,nan", "1.5"])
def test_fault_rate_outside_unit_interval_exit_6(runner, tmp_path, model_file, rates):
    output = _invoke_rejected(runner, tmp_path, model_file,
                              ["fault-report", "{model}", "--sweeps", "10", "--rates", rates])
    assert "bit flip rate must be in [0, 1]" in output


@pytest.mark.parametrize("args", [["--alpha", "nan"], ["--alpha", "inf"],
                                  ["--beta-on", "nan"], ["--beta-off", "inf"]])
def test_non_finite_dpmm_prior_exit_6(runner, tmp_path, model_file, args):
    output = _invoke_rejected(runner, tmp_path, model_file,
                              ["dpmm", "run", "{data}", "--sweeps", "2"] + args)
    assert "finite and positive" in output
