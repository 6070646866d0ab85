"""Command line surface: artifacts, determinism, exit-status contract."""

import json
import subprocess
import sys

import pytest

from su3mag.cli import main


def run_cli(args):
    return main(args)


def test_verify_eps_zero_rejected(tmp_path, capsys):
    code = run_cli(["verify", "--case", "regular", "--eps", "0",
                    "--out", str(tmp_path)])
    assert code == 2


def test_centralizer_su2(tmp_path, capsys):
    code = run_cli(["centralizer", "--algebra", "su2", "--sub", "torus",
                    "--m-only", "--max-degree", "2", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "generators_su2_torus.txt").read_text()
    assert "1 * y^2 + 1 * z^2" in text
    assert "relations none" in text


def test_centralizer_su3_cases(tmp_path):
    code = run_cli(["centralizer", "--algebra", "su3", "--sub", "torus",
                    "--m-only", "--max-degree", "3", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "generators_su3_torus.txt").read_text()
    assert text.count("generator ") == 5
    code = run_cli(["centralizer", "--algebra", "su3", "--sub", "irregular-A",
                    "--m-only", "--max-degree", "4", "--out", str(tmp_path)])
    text = (tmp_path / "generators_su3_irregular-A.txt").read_text()
    assert text.count("generator ") == 1
    assert "x4^2" in text


def test_flow_command(tmp_path):
    code = run_cli(["flow", "--case", "irregular", "--eps", "0.1",
                    "--seed", "3", "--t-end", "1.0", "--dt", "1e-3",
                    "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "trajectory_irregular.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header[0] == "t" and "re_g00" in header and "X_x4" in header
    assert header[-1] == "R"
    doc = json.loads((tmp_path / "conservation_irregular.json").read_text())
    assert all(e["pass"] for e in doc["functions"])
    assert len(doc["functions"]) == 9
    assert doc["nsteps"] == 1000


def test_brackets_command(tmp_path):
    code = run_cli(["brackets", "--case", "regular", "--eps", "0.1",
                    "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "brackets_regular.txt").read_text()
    assert "{u1,u2}_2 = 2 * v^1" in text
    assert "coupling sign corrected" in text
    assert "eps -> 0 degeneration" in text
    doc = json.loads((tmp_path / "brackets_regular.json").read_text())
    assert doc["slice_table"]["u1,u2"] == "2 * v^1"
    code = run_cli(["brackets", "--case", "irregular", "--eps", "0.1",
                    "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "brackets_irregular.txt").read_text()
    assert "Phi(P)" in text


def test_verify_determinism_small_config(tmp_path):
    config = {
        "case": "irregular", "eps": 0.1, "seed": 11, "samples": 10,
        "rank_samples": 3, "t_end": 0.5, "dt": 1e-3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = run_cli(["verify", "--case", "irregular", "--config", str(cfg),
                     "--out", str(out1)])
    code2 = run_cli(["verify", "--case", "irregular", "--config", str(cfg),
                     "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "verify_irregular.json").read_bytes()
    b2 = (out2 / "verify_irregular.json").read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["passed"] is True
    assert any(c["name"] == "pi1_rank" for c in doc["checks"])


def test_verify_exit_status_contract(tmp_path, monkeypatch):
    """Nonzero exit iff at least one certificate check failed; the report
    is still written."""
    from su3mag import reports
    from su3mag.certify import CertificateReport

    def failing(config):
        rep = CertificateReport(case_tag=config["case"], seed=config["seed"])
        rep.add("synthetic", 0.0, 1.0, 1e-10)
        return rep

    monkeypatch.setattr(reports, "run_verification", failing)
    code = run_cli(["verify", "--case", "regular", "--eps", "0.1",
                    "--seed", "1", "--out", str(tmp_path)])
    assert code == 1
    assert (tmp_path / "verify_regular.json").exists()


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SU3MAG_OUTDIR", str(tmp_path / "envout"))
    code = run_cli(["brackets", "--case", "irregular", "--eps", "0.2"])
    assert code == 0
    assert (tmp_path / "envout" / "brackets_irregular.txt").exists()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "su3mag.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "brackets" in proc.stdout


@pytest.mark.parametrize("args", [
    ["flow", "--dt", "0"],
    ["flow", "--dt", "-1"],
    ["verify", "--dt=-1e-3"],
    ["verify", "--eps", "nan"],
    ["flow", "--eps", "inf"],
    ["brackets", "--eps", "nan"],
    ["flow", "--dt", "nan"],
    ["verify", "--t-end", "inf"],
    ["flow", "--t-end", "nan"],
    ["flow", "--t-end", "1.0", "--dt", "0.3"],
], ids=lambda a: " ".join(a))
def test_bad_numbers_are_one_line_errors(tmp_path, capsys, args):
    code = run_cli(args + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_bad_config_is_a_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path in (tmp_path / "missing.json", bad, listed):
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, path
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err
    assert not (tmp_path / "out").exists()


def test_vacuous_flow_fails(tmp_path):
    """t_end/dt rounding to zero steps must not report a passing flow."""
    proc = subprocess.run([sys.executable, "-m", "su3mag.cli", "flow",
                           "--case", "irregular", "--t-end", "0.01",
                           "--dt", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: t_end/dt = 0.01 rounds to zero steps\n"
    assert not (tmp_path / "conservation_irregular.json").exists()


def _one_line_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_zero_samples_are_refused(tmp_path, capsys):
    """A sampled check that draws nothing must not pass."""
    from su3mag.reports import default_config, run_verification
    for key in ("samples", "rank_samples"):
        config = dict(default_config("irregular"), **{key: 0})
        with pytest.raises(ValueError, match="at least 1"):
            run_verification(config)
    err = _one_line_error(capsys, run_cli(
        ["verify", "--case", "irregular", "--samples", "0",
         "--out", str(tmp_path)]))
    assert "samples" in err
    err = _one_line_error(capsys, run_cli(
        ["verify", "--case", "irregular", "--rank-samples", "0",
         "--out", str(tmp_path / "out")]))
    assert err == "error: rank_samples must be at least 1, got 0\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank_samples": 0}))
    err = _one_line_error(capsys, run_cli(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]))
    assert "rank_samples" in err
    assert not (tmp_path / "out").exists()


def test_rank_samples_flag_beats_the_config(tmp_path, monkeypatch):
    from su3mag import reports
    from su3mag.certify import CertificateReport
    seen = []

    def record(config):
        seen.append(config)
        return CertificateReport(case_tag=config["case"], seed=config["seed"])

    monkeypatch.setattr(reports, "run_verification", record)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rank_samples": 3}))
    assert run_cli(["verify", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    assert seen[-1]["rank_samples"] == 3
    assert run_cli(["verify", "--config", str(cfg), "--rank-samples", "5",
                    "--out", str(tmp_path)]) == 0
    assert seen[-1] == dict(reports.default_config("regular"),
                            rank_samples=5)


@pytest.mark.parametrize("key", ["seed", "samples", "rank_samples"])
@pytest.mark.parametrize("value", ["x", 2.5, True, -1])
def test_bad_config_integers_are_one_line_errors(tmp_path, capsys, key,
                                                 value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    commands = [["verify"]] + ([["flow"]] if key == "seed" else [])
    for command in commands:
        err = _one_line_error(capsys, run_cli(
            command + ["--config", str(cfg), "--out", str(tmp_path / "o")]))
        assert key in err
    assert not (tmp_path / "o").exists()


def test_config_case_is_honoured(tmp_path, monkeypatch):
    from su3mag import reports
    from su3mag.certify import CertificateReport
    seen = []

    def record(config):
        seen.append(config)
        return CertificateReport(case_tag=config["case"], seed=config["seed"])

    monkeypatch.setattr(reports, "run_verification", record)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "irregular", "t_end": 0.01}))
    assert run_cli(["verify", "--config", str(cfg),
                    "--out", str(tmp_path / "v")]) == 0
    assert seen[-1]["case"] == "irregular"
    assert seen[-1] == dict(reports.default_config("irregular"),
                            t_end=0.01)
    assert (tmp_path / "v" / "verify_irregular.json").exists()
    # an explicit flag still wins over the config
    assert run_cli(["verify", "--config", str(cfg), "--case", "regular",
                    "--out", str(tmp_path / "v")]) == 0
    assert seen[-1]["case"] == "regular"
    # with neither, the case is regular
    assert run_cli(["verify", "--out", str(tmp_path / "v")]) == 0
    assert seen[-1] == reports.default_config("regular")
    assert run_cli(["flow", "--config", str(cfg),
                    "--out", str(tmp_path / "f")]) == 0
    assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
        "conservation_irregular.json", "trajectory_irregular.csv"]
    assert run_cli(["brackets", "--config", str(cfg),
                    "--out", str(tmp_path / "b")]) == 0
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "brackets_irregular.json", "brackets_irregular.txt"]


@pytest.mark.parametrize("command", ["verify", "flow", "brackets"])
def test_unknown_config_case_is_a_one_line_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "singular"}))
    err = _one_line_error(capsys, run_cli(
        [command, "--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert "'singular'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key", [
    ("verify", "sampels"), ("flow", "sampels"), ("flow", "max-rows"),
    ("verify", "max_rows"), ("brackets", "sampels")])
def test_an_unknown_config_key_is_a_one_line_error(tmp_path, capsys,
                                                   monkeypatch, command, key):
    """A config key the command does not take, a misspelt one or a flag's
    dashed name, ends in one error line naming it, exit 2, before any
    work and with no output; only flow takes max_rows."""
    from su3mag import cli, reports

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(reports, "run_verification", no_work)
    monkeypatch.setattr(cli, "integrate_flow", no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 3, "t_end": 0.01}))
    err = _one_line_error(capsys, run_cli(
        [command, "--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert err == f"error: config {cfg} has unknown key {key!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", ["unknown-key", "missing"])
def test_centralizer_refuses_a_config(tmp_path, capsys, config):
    """centralizer reads no config, so argparse refuses --config with
    exit 2, whether the file holds an unknown key or does not exist,
    before any output."""
    cfg = tmp_path / "cfg.json"
    if config == "unknown-key":
        cfg.write_text(json.dumps({"sampels": 3}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["centralizer", "--algebra", "su2", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry", [{"t_end": "x"}, {"dt": -1},
                                   {"t_end": 0.01, "dt": 1},
                                   {"eps": "0.1"}, {"eps": True},
                                   {"dt": "1e-3"}])
def test_brackets_checks_the_flow_keys_of_its_config(tmp_path, capsys,
                                                    entry):
    """brackets loads the run config as verify does, so a bad eps, t_end
    or dt in its config file is a one-line error too, not ignored.  A
    number must be a JSON number: the string "0.1" and true are refused,
    not read as 0.1 and 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    _one_line_error(capsys, run_cli(
        ["brackets", "--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert not (tmp_path / "o").exists()


def test_flow_reads_max_rows_from_the_config(tmp_path):
    """flow takes max_rows from the config as it takes --max-rows; the
    flag wins over the config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "irregular", "t_end": 0.05,
                               "max_rows": 5}))
    assert run_cli(["flow", "--config", str(cfg),
                    "--out", str(tmp_path / "c")]) == 0
    csv = (tmp_path / "c" / "trajectory_irregular.csv").read_text()
    assert len(csv.splitlines()) == 1 + 5  # 51 points at stride 11
    assert run_cli(["flow", "--config", str(cfg), "--max-rows", "10",
                    "--out", str(tmp_path / "f")]) == 0
    csv = (tmp_path / "f" / "trajectory_irregular.csv").read_text()
    assert len(csv.splitlines()) == 1 + 9  # 51 points at stride 6


@pytest.mark.parametrize("value", [0, -3, "x", 2.5, True])
def test_a_bad_config_max_rows_is_a_one_line_error(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_rows": value}))
    err = _one_line_error(capsys, run_cli(
        ["flow", "--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert "max_rows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rows", ["0", "-3"])
def test_flow_max_rows_below_one_is_refused_before_integrating(
        tmp_path, capsys, monkeypatch, rows):
    from su3mag import cli

    def no_flow(*args, **kwargs):
        raise AssertionError("the flow was integrated")

    monkeypatch.setattr(cli, "integrate_flow", no_flow)
    err = _one_line_error(capsys, run_cli(
        ["flow", "--case", "irregular", "--t-end", "0.01",
         "--max-rows", rows, "--out", str(tmp_path / "out")]))
    assert err == f"error: --max-rows must be at least 1, got {rows}\n"
    assert not (tmp_path / "out").exists()


def test_flow_max_rows_caps_the_csv_rows(tmp_path):
    """--max-rows is a cap: an 11-point flow at --max-rows 5 writes every
    third point, 4 rows under the header (6 at a stride of 11 // 5)."""
    code = run_cli(["flow", "--case", "irregular", "--t-end", "0.01",
                    "--dt", "1e-3", "--max-rows", "5",
                    "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory_irregular.csv").read_text().splitlines()
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(times) == 4
    assert times == pytest.approx([0.0, 3e-3, 6e-3, 9e-3])


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_centralizer_max_degree_below_one_is_refused(tmp_path, capsys,
                                                     degree):
    err = _one_line_error(capsys, run_cli(
        ["centralizer", "--algebra", "su2", "--max-degree", degree,
         "--out", str(tmp_path / "out")]))
    assert err == f"error: --max-degree must be at least 1, got {degree}\n"
    assert not (tmp_path / "out").exists()


def test_centralizer_max_degree_one_reports_a_generator(tmp_path):
    code = run_cli(["centralizer", "--algebra", "su2", "--max-degree", "1",
                    "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "generators_su2_torus.txt").read_text()
    assert text.startswith("generator q1_1 degree 1\n  1 * x^1\n")


@pytest.mark.parametrize("args, message", [
    (["--algebra", "su2", "--sub", "irregular-A"],
     "su2 supports only the torus subalgebra"),
    (["--algebra", "su3", "--max-degree", "9"],
     "--max-degree must be at most 8, got 9"),
], ids=["su2-irregular-A", "max-degree-9"])
def test_centralizer_bad_selection_is_refused_before_work(
        tmp_path, capsys, monkeypatch, args, message):
    from su3mag import reports

    def no_work(*args, **kwargs):
        raise AssertionError("the generators were computed")

    monkeypatch.setattr(reports, "indecomposable_generators", no_work)
    err = _one_line_error(capsys, run_cli(
        ["centralizer"] + args + ["--out", str(tmp_path / "out")]))
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["flow", "--case", "regular", "--eps", "1e200", "--t-end", "0.01"],
    ["verify", "--case", "irregular", "--eps", "1e200", "--samples", "2",
     "--t-end", "0.01"],
], ids=lambda a: a[0])
def test_numerical_breakdown_is_a_one_line_error(tmp_path, args):
    """A huge eps breaks the numerics (a NaN drift at step 0 of the flow,
    an overflowing power in verify): one error line on stderr, with no
    traceback or warning, and no output files."""
    proc = subprocess.run([sys.executable, "-m", "su3mag.cli", *args,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and \
        proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["flow", "--t-end", "1e5", "--dt", "1e-9"],
    ["verify", "--t-end", "1e5", "--dt", "1e-9", "--samples", "1",
     "--rank-samples", "1"],
], ids=lambda a: a[0])
def test_a_flow_too_long_to_allocate_is_a_one_line_error(tmp_path, args):
    """1e14 steps ask for petabytes, beyond the address space, so the
    request fails before anything is allocated: one MemoryError line on
    stderr, exit 1, and no output files."""
    proc = subprocess.run([sys.executable, "-m", "su3mag.cli", *args,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: MemoryError: ") and \
        proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out").exists()


def test_a_partner_flow_too_coarse_for_its_step_is_a_one_line_error(
        tmp_path, capsys):
    """At eps 10 the pairing's partner flow drifts off the group beyond
    the integrator's guard: one error line naming the drift, exit 1, and
    no report."""
    code = run_cli(["verify", "--case", "regular", "--eps", "10", "--seed",
                    "3", "--samples", "5", "--rank-samples", "5", "--t-end",
                    "0.1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: RuntimeError: unitarity drift ") and \
        err.endswith(" exceeds limit at step 0\n") and \
        err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
