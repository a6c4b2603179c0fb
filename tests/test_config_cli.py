"""Config round-trips and the CLI contract (exit codes, schemas, determinism)."""

import json
import math
import os

import pytest

from brownian_unicycle import (cli, d2_closed, d4_closed, fourth_moment,
                               general_moments, low_moments, NoiseParams,
                               SpeedRatioProfile)
from brownian_unicycle.cli import main
from brownian_unicycle.config import (config_from_dict, dump_config,
                                      load_config)
from brownian_unicycle.exceptions import ConfigError

BASE_DOC = {
    "profile": {"kind": "constant", "mu0": 5.0, "theta0": 0.0, "s_max": 1.0},
    "noise": {"k_r": 0.01, "k_theta": 0.01},
    "sim": {"s_final": 1.0, "steps": 200, "trials": 150, "master_seed": 42},
    "quadrature": {"nodes_per_level": 16},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def ramp_config_path(tmp_path):
    doc = dict(BASE_DOC)
    doc["profile"] = {"kind": "polynomial", "coeffs": [0.0, 10.0],
                      "theta0": 0.0, "s_max": 1.0}
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_config_round_trip(config_path):
    cfg = load_config(config_path)
    doc = dump_config(cfg)
    assert "quadrature" not in doc
    assert config_from_dict(doc) == cfg


def test_config_defaults():
    cfg = config_from_dict({
        "profile": {"kind": "constant", "mu0": 1.0, "s_max": 2.0},
        "noise": {"k_r": 0.0, "k_theta": 0.0},
    })
    assert cfg.sim.steps == 10000
    assert cfg.sim.trials == 100000
    assert cfg.sim.s_final == 2.0
    assert cfg.sim.master_seed == 0


def test_config_table_profile():
    cfg = config_from_dict({
        "profile": {"kind": "table", "samples": [[0.0, 1.0], [1.0, 2.0]],
                    "theta0": 0.1},
        "noise": {"k_r": 0.1, "k_theta": 0.1},
    })
    assert cfg.profile.kind == "table"
    assert cfg.profile.s_max == 1.0


@pytest.mark.parametrize("doc", [
    {},
    {"profile": {"kind": "spiral"}, "noise": {"k_r": 0, "k_theta": 0}},
    {"profile": {"kind": "constant", "mu0": 1.0, "s_max": 1.0},
     "noise": {"k_r": -1, "k_theta": 0}},
    {"profile": {"kind": "constant", "mu0": 1.0, "s_max": 1.0},
     "noise": {"k_r": 0, "k_theta": 0}, "sim": {"steps": 0}},
    # Sections that are not JSON objects.
    {"profile": [1], "noise": {"k_r": 0, "k_theta": 0}},
    {"profile": {"kind": "constant", "mu0": 1.0, "s_max": 1.0},
     "noise": {"k_r": 0, "k_theta": 0}, "quadrature": [1]},
    # Whole numbers that are not whole, and arrays that are not arrays.
    *[{"profile": {"kind": "constant", "mu0": 1.0, "s_max": 1.0},
       "noise": {"k_r": 0, "k_theta": 0}, "sim": {key: value}}
      for key, value in (("steps", 2.5), ("trials", 10.9),
                         ("master_seed", 3.7), ("steps", True))],
    *[{"profile": {"kind": "polynomial", "coeffs": coeffs, "s_max": 1.0},
       "noise": {"k_r": 0, "k_theta": 0}}
      for coeffs in ("12", {"3": 1, "7": 2})],
    *[{"profile": {"kind": "table", "samples": samples},
       "noise": {"k_r": 0, "k_theta": 0}}
      for samples in ({"01": 1, "23": 2}, ["01", "23"])],
])
def test_bad_configs_raise(doc):
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_accepts_integral_float_counts():
    sim = dict(BASE_DOC["sim"], steps=200.0, trials=1e5)
    cfg = config_from_dict(dict(BASE_DOC, sim=sim))
    assert (cfg.sim.steps, cfg.sim.trials) == (200, 100000)
    assert isinstance(cfg.sim.trials, int)


@pytest.mark.parametrize("quadrature", [{"rel_tol": 1e-9},
                                        {"nodes_per_level": 16}, None])
def test_quadrature_section_at_the_fixed_target_loads(quadrature):
    # Files written by older versions carry the target itself, or only
    # keys that are no longer read; neither changes the configuration.
    doc = {k: v for k, v in BASE_DOC.items() if k != "quadrature"}
    if quadrature is not None:
        doc["quadrature"] = quadrature
    assert config_from_dict(doc) == config_from_dict(BASE_DOC)


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-6])
def test_other_rel_tol_exits_2(tmp_path, capsys, rel_tol):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(dict(BASE_DOC, quadrature={"rel_tol": rel_tol})),
                    encoding="utf-8")
    assert main(["--config", str(path), "moment", "2", "2", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "quadrature.rel_tol" in captured.err
    assert "Traceback" not in captured.err


def test_config_ignores_output_section():
    doc = dict(BASE_DOC, output={"dir": "results"})
    cfg = config_from_dict(doc)
    assert cfg == config_from_dict(BASE_DOC)
    assert "output" not in dump_config(cfg)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,key", [("noise", "k_r"), ("noise", "k_theta"),
                                         ("profile", "mu0"),
                                         ("profile", "theta0"),
                                         ("profile", "s_max"),
                                         ("sim", "steps"), ("sim", "trials"),
                                         ("sim", "master_seed")])
def test_non_finite_json_config_exits_2(tmp_path, capsys, section, key, literal):
    # Python's json reads these literals as floats; NaN must not slip
    # through a `< 0` check and come out as a "value": NaN with exit 0.
    text = json.dumps(BASE_DOC).replace(
        f'"{key}": {BASE_DOC[section][key]}', f'"{key}": {literal}')
    assert literal in text
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for command in (["d2"], ["--closed-form", "d4"], ["moment", "1", "1", "0"]):
        assert main(["--config", str(path), *command]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["profile", "noise", "sim", "quadrature"])
def test_section_not_an_object_exits_2(tmp_path, capsys, section):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_DOC, **{section: [1]})),
                    encoding="utf-8")
    assert main(["--config", str(path), "d2"]) == 2
    err = capsys.readouterr().err
    assert f"config section '{section}' must be a JSON object" in err
    assert "Traceback" not in err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_success(config_path, capsys):
    assert main(["--config", config_path, "moment", "1", "1", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"p", "q", "r", "value_re", "value_im",
                           "err_estimate", "terms", "wall_time"}
    assert record["value_re"] == pytest.approx(
        d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0), rel=1e-6)


def test_exit_code_usage(config_path, capsys):
    assert main(["--config", config_path, "traj", "--", "-3"]) == 1
    capsys.readouterr()


def test_exit_code_missing_command():
    assert main([]) == 1


@pytest.mark.parametrize("args", [
    ["--seed", "-1", "d2"], ["--seed", str(2 ** 64), "d2"],
    ["--threads", "0", "d2"], ["--no-such-option", "d2"],
    ["d2", "--config", "x"], ["moment", "1", "1"], ["moment", "-1", "0", "0"],
    ["reproduce", "table3"]], ids=" ".join)
def test_usage_errors_exit_1_with_one_line(config_path, capsys, args):
    assert main(["--config", config_path, *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args", [["--help"], ["moment", "--help"]])
def test_help_exits_0_with_usage_on_stdout(capsys, args):
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("Usage: ")
    assert ("P Q R" in captured.out) == (args[0] == "moment")
    assert captured.err == ""


def test_exit_code_config(capsys):
    assert main(["--config", "/does/not/exist.json", "d2"]) == 2
    assert main(["d2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["d2"], ["d4"], ["moment", "1", "1", "0"],
                                     ["simulate"], ["traj", "0"], ["traj", "2"]])
def test_non_finite_integrand_exits_4(tmp_path, capsys, command):
    doc = dict(BASE_DOC, sim=dict(BASE_DOC["sim"], s_final=100.0))
    doc["profile"] = {"kind": "polynomial", "coeffs": [0.0, 1e306],
                      "s_max": 100.0}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # Exactly one line on stderr: no numpy RuntimeWarning ahead of it.
    assert main(["--config", str(path), *command]) == 4
    err = capsys.readouterr().err
    assert err.startswith("non-finite integrand:") and err.count("\n") == 1


@pytest.mark.parametrize("noise,command", [
    ({"k_r": 1e200, "k_theta": 0.01}, ["d4"]),
    ({"k_r": 1e200, "k_theta": 0.01}, ["moment", "4", "0", "0"]),
    ({"k_r": 0.01, "k_theta": 1e308}, ["moment", "2", "0", "0"]),
    ({"k_r": 0.01, "k_theta": 1e308}, ["d4"]),
], ids=["d4-k_r", "moment-k_r", "moment-k_theta", "d4-k_theta"])
def test_huge_noise_exits_4(tmp_path, capsys, noise, command):
    # k_r**2 of the <D^4> table and of the moment's terms pass the float
    # range, and so does the decay 0.5 w^2 k_theta that grades the chain
    # rule's panels.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(BASE_DOC, noise=noise)), encoding="utf-8")
    assert main(["--config", str(path), *command]) == 4
    err = capsys.readouterr().err
    assert err.startswith("non-finite integrand:") and err.count("\n") == 1
    assert ("k_r" if noise["k_r"] > 1.0 else "k_theta") in err


def _long_config(tmp_path):
    # 100 rad of turning: constant mu0 = 5, K = 0.01, s = 20.
    doc = dict(BASE_DOC, sim=dict(BASE_DOC["sim"], s_final=20.0),
               noise={"k_r": 0.01, "k_theta": 0.01}, quadrature={})
    doc["profile"] = dict(BASE_DOC["profile"], s_max=20.0)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_d2_on_a_long_curve_prints_the_closed_form(tmp_path, capsys):
    assert main(["--config", _long_config(tmp_path), "d2"]) == 0
    record = json.loads(capsys.readouterr().out)
    want = d2_closed(5.0, NoiseParams(0.01, 0.01), 20.0)
    assert abs(record["value"] - want) <= 1e-12 * want
    assert record["err_estimate"] < 1e-6 * want


def _curve_config(tmp_path, s):
    # 5 s rad of turning: constant mu0 = 5, K = 0.01.
    doc = dict(BASE_DOC, sim=dict(BASE_DOC["sim"], s_final=s),
               noise={"k_r": 0.01, "k_theta": 0.01}, quadrature={})
    doc["profile"] = dict(BASE_DOC["profile"], s_max=s)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_moment_past_the_old_node_cap_exits_0(tmp_path, capsys):
    # 1000 rad of turning at s = 200, which the dense operators refused:
    # the O(n) carry resolves <u^2 w^2> = <D^4>.
    assert main(["--config", _curve_config(tmp_path, 200.0),
                 "moment", "2", "2", "0"]) == 0
    record = json.loads(capsys.readouterr().out)
    want = d4_closed(5.0, NoiseParams(0.01, 0.01), 200.0)
    assert abs(record["value_re"] - want) <= 1e-11 * want


def test_moment_past_the_node_budget_exits_3(tmp_path, capsys):
    # <u^4 w^4 theta~^4> at s = 2000: its node values would pass the budget.
    assert main(["--config", _curve_config(tmp_path, 2000.0),
                 "moment", "4", "4", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused:") and err.count("\n") == 1
    assert "budget" in err


@pytest.mark.parametrize("command", ["d2", "d4"])
def test_d2_with_no_correct_digit_exits_4(tmp_path, capsys, monkeypatch,
                                          command):
    # A <D^2> whose estimate exceeds its magnitude is refused by d2 and by
    # the variance of d4.
    monkeypatch.setattr(low_moments, "mean_squared_distance_with_error",
                        lambda *args: (0.1217, 1.3))
    assert main(["--config", _long_config(tmp_path), command]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical consistency failure:")
    assert err.count("\n") == 1


def test_moment_with_no_correct_digit_exits_4(config_path, capsys, monkeypatch):
    def no_digit(*args):
        return general_moments.MomentResult(0.0123 - 0.004j, 0.05, 7)

    monkeypatch.setattr(general_moments, "displacement_heading_moment", no_digit)
    assert main(["--config", config_path, "moment", "2", "2", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical consistency failure:")
    assert err.count("\n") == 1


def test_exit_code_envelope(config_path, capsys):
    assert main(["--config", config_path, "moment", "9", "9", "0"]) == 3
    capsys.readouterr()


def test_envelope_force_runs(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["quadrature"] = {"nodes_per_level": 4, "max_dim_deterministic": 3,
                         "qmc_samples": 64}
    path = tmp_path / "force.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "--force", "moment", "5", "4", "0"]) == 0
    capsys.readouterr()


def test_closed_form_requires_constant(ramp_config_path, capsys):
    assert main(["--config", ramp_config_path, "--closed-form", "d2"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command output


def test_moment_out_file_has_no_wall_time(config_path, tmp_path, capsys):
    out = tmp_path / "moment.json"
    assert main(["--config", config_path, "moment", "0", "0", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text(encoding="utf-8"))
    assert "wall_time" not in record
    assert record["value_re"] == pytest.approx(0.01, rel=1e-12)


def test_d2_methods_agree(config_path, capsys):
    assert main(["--config", config_path, "d2"]) == 0
    quadrature = json.loads(capsys.readouterr().out)
    assert main(["--config", config_path, "--closed-form", "d2"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert quadrature["method"] == "quadrature"
    assert closed["method"] == "closed-form"
    assert quadrature["value"] == pytest.approx(closed["value"], rel=1e-8)


def test_d2_reports_error_of_its_own_integral(config_path, capsys):
    assert main(["--config", config_path, "d2"]) == 0
    record = json.loads(capsys.readouterr().out)
    exact = d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0)
    assert math.isfinite(record["err_estimate"])
    assert abs(record["value"] - exact) <= record["err_estimate"] + 1e-13


@pytest.mark.parametrize("flags", [(), ("--closed-form",)])
def test_d4_computes_fourth_moment_once(config_path, capsys, monkeypatch, flags):
    calls = []
    d4_moment = fourth_moment.d4_moment

    def counting(*args, **kwargs):
        calls.append(args)
        return d4_moment(*args, **kwargs)

    monkeypatch.setattr(fourth_moment, "d4_moment", counting)
    assert main(["--config", config_path, *flags, "d4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(calls) == (0 if flags else 1)
    assert record["variance_d2"] == pytest.approx(0.0012, abs=1e-4)


def test_d4_refuses_negative_variance(config_path, capsys, monkeypatch):
    monkeypatch.setattr(fourth_moment, "d4_moment", lambda *a, **k: 0.0)
    assert main(["--config", config_path, "d4"]) == 4
    capsys.readouterr()


def test_d4_closed_form(config_path, capsys):
    assert main(["--config", config_path, "--closed-form", "d4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["variance_d2"] == pytest.approx(0.0012, abs=1e-4)


def test_d4_quadrature_path(ramp_config_path, capsys):
    assert main(["--config", ramp_config_path, "d4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "quadrature"
    assert record["variance_d2"] == pytest.approx(0.0026, abs=2e-4)


def test_d4_quadrature_matches_closed_form_at_large_k_theta_s(tmp_path, capsys):
    doc = {"profile": {"kind": "constant", "mu0": 5.0, "s_max": 10.0},
           "noise": {"k_r": 4.0, "k_theta": 4.0}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "d4"]) == 0
    quadrature = json.loads(capsys.readouterr().out)
    assert main(["--config", str(path), "--closed-form", "d4"]) == 0
    closed = json.loads(capsys.readouterr().out)
    for key in ("value", "variance_d2"):
        assert quadrature[key] == pytest.approx(closed[key], rel=1e-10)


def test_console_entry_point(config_path, subprocess_env):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "brownian_unicycle", "--config", config_path,
         "moment", "0", "0", "2"],
        capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["value_re"] == pytest.approx(0.01, rel=1e-12)


def test_cli_runs_without_scipy(config_path, subprocess_env):
    import subprocess
    import sys

    script = ("import sys; sys.modules['scipy'] = None; "
              "from brownian_unicycle.cli import main; "
              f"sys.exit(main(['--config', {config_path!r}, 'd2']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["value"] == pytest.approx(
        d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0), rel=1e-8)


def test_simulate_json_and_per_trial_csv(config_path, tmp_path, capsys):
    per_trial = tmp_path / "trials.csv"
    assert main(["--config", config_path, "simulate",
                 "--per-trial", str(per_trial)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["trials"] == 150
    assert "d2" in record["statistics"]["quantities"]
    lines = per_trial.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "trial_index,x,y,theta,d2"
    assert len(lines) == 151


def test_simulate_out_identical_at_default_threads(config_path, tmp_path,
                                                   capsys, monkeypatch):
    seen = []
    collect = cli.collect_samples

    def spy(config, threads):
        seen.append(threads)
        return collect(config, threads)

    monkeypatch.setattr(cli, "collect_samples", spy)
    # Three usable CPUs on a host of 64: the default counts the former.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    one, default = tmp_path / "one.json", tmp_path / "default.json"
    assert main(["--config", config_path, "--threads", "1", "simulate",
                 "--out", str(one)]) == 0
    assert main(["--config", config_path, "simulate", "--out", str(default)]) == 0
    capsys.readouterr()
    assert seen == [1, 3]
    assert one.read_bytes() == default.read_bytes()


def test_default_threads_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cli._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_simulate_seed_override(config_path, capsys):
    assert main(["--config", config_path, "simulate"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["--config", config_path, "--seed", "99", "simulate"]) == 0
    reseeded = json.loads(capsys.readouterr().out)
    assert base["master_seed"] == 42
    assert reseeded["master_seed"] == 99
    assert base["statistics"] != reseeded["statistics"]


def test_traj_schema_and_determinism(config_path, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--config", config_path, "traj", "2", "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["--config", config_path, "traj", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    lines = data1.decode("utf-8").split("\n")
    assert lines[0] == "path_id,s,x,y,theta"
    assert "\r" not in data1.decode("utf-8")
    ids = {line.split(",")[0] for line in lines[1:] if line}
    assert ids == {"0", "1", "2"}
    # 3 paths, steps+1 rows each, plus header and trailing newline
    assert len(lines) == 1 + 3 * 201 + 1


def test_traj_deterministic_only(config_path, capsys):
    assert main(["--config", config_path, "traj", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = {line.split(",")[0] for line in lines[1:] if line}
    assert ids == {"0"}
    # Noise-free path obeys the circle identity within the trapezoid error.
    last = lines[-1].split(",")
    x, y = float(last[2]), float(last[3])
    import math
    expected = 2.0 / 25.0 * (1.0 - math.cos(5.0))
    assert x * x + y * y == pytest.approx(expected, abs=1e-5)


def test_reproduce_csv_schema_and_determinism(config_path, tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["--config", config_path, "reproduce", "table1",
            "--trials", "50,100"]
    assert main(args + ["--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("K,trials,mc_mean_d2,mc_var_d2,"
                        "analytic_mean_d2,analytic_var_d2,n_sigma_deviation")
    assert len(lines) == 1 + 2 * 2  # two K levels, two trial counts
    first = lines[1].split(",")
    assert float(first[4]) == pytest.approx(
        d2_closed(5.0, NoiseParams(0.01, 0.01), 1.0), rel=1e-12)


def test_reproduce_analytic_columns_compute_d2_once(config_path, capsys,
                                                   monkeypatch):
    ramp = SpeedRatioProfile.polynomial((0.0, 10.0), theta0=0.0, s_max=1.0)
    want = {}
    for level in (0.01, 1.0):
        params = NoiseParams(level, level)
        want[level] = (low_moments.mean_squared_distance(ramp, params, 1.0),
                       fourth_moment.variance_d2(ramp, params, 1.0))
    calls = []
    checked = low_moments.checked_mean_squared_distance

    def counting(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)

    # The public <D^2> and variance_d2 both read the checked one.
    monkeypatch.setattr(low_moments, "checked_mean_squared_distance", counting)
    monkeypatch.setattr(fourth_moment, "checked_mean_squared_distance", counting)
    assert main(["--config", config_path, "reproduce", "table2",
                 "--trials", "10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(calls) == len(rows) == 2
    for row in rows:
        assert (float(row[4]), float(row[5])) == want[float(row[0])]


def test_reproduce_rejects_bad_trials(config_path, capsys):
    assert main(["--config", config_path, "reproduce", "table1",
                 "--trials", "10,abc"]) == 1
    capsys.readouterr()
