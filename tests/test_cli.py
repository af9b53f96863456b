"""Tests for the command-line front end: exit codes, files, report formats."""

import csv
import io
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chrelax import (FieldSpec, Grid, NonFiniteState, RateFit, build_scenario, cli, config, experiments,
                     parse_config, run, stepper)
from chrelax.cli import (_DIAGNOSTIC_BLOCK_ROWS, _write_diagnostics, dispatch,
                         write_report)
from chrelax.experiments import StudyReport, Verdict
from chrelax.model import State

TINY = (
    "grid.n = 8\ntime.T = 5e-3\ntime.dt = 1e-3\npotential.kind = regular\n"
    "init.phi0.kind = constant\ninit.phi0.value = 0.25\n"
    "init.sigma0.kind = constant\ninit.sigma0.value = 0.5\n"
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- usage and config errors -------------------------------------------------


def test_unknown_subcommand_prints_usage(capsys):
    assert dispatch(["explode", "--config", "x"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "usage:" in err


def test_removed_jobs_flag_is_a_usage_error(capsys):
    assert dispatch(["sweep-alpha", "--config", "x", "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert "--jobs" in err and "usage:" in err


def test_missing_config_flag(capsys):
    assert dispatch(["simulate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_config_file(capsys):
    assert dispatch(["simulate", "--config", "/no/such/file.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(TINY.encode() + b"# \xff\n")
    assert dispatch(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: ") and "utf-8" in err


def test_repeated_rung_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY + "study.alphas = 0.25, 0.25, 0.125\n")
    assert dispatch(["sweep-alpha", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: study.alphas repeats the rung 0.25\n"


@pytest.mark.parametrize("ladder", ["0.25, inf", "0.25, nan, 0.125"])
def test_non_finite_rung_is_an_error_before_any_run(tmp_path, capsys, monkeypatch, ladder):
    runs = []
    monkeypatch.setattr(experiments, "run", lambda *args, **kwargs: runs.append(args))
    cfg = write_cfg(tmp_path, TINY + f"study.alphas = {ladder}\n")
    assert dispatch(["sweep-alpha", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: study.alphas must be a nonempty positive ladder of finite rungs\n"
    assert runs == []


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key,name", [("model.alpha", "alpha"), ("model.tau", "tau"),
                                      ("model.chi", "chi"), ("model.P.p0", "p0")])
def test_non_finite_model_coefficient_is_a_config_error(tmp_path, capsys, key, name, value):
    path = write_cfg(tmp_path, TINY + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{name} must be finite, got {value}" in err
    assert not list(out.rglob("*.csv"))  # refused before the run


@pytest.mark.parametrize("setting,message", [
    ("solver.cg_tol = 1e300", "cg_tol must be positive and below 1"),
    ("solver.cg_tol = 1", "cg_tol must be positive and below 1"),
    ("grid.length = 1e300", "leave 4/h^2 not finite"),
    ("grid.length = 1e-300", "leave 4/h^2 not finite"),
])
def test_out_of_range_tolerance_or_cell_size_is_an_error(tmp_path, capsys, setting, message):
    path = write_cfg(tmp_path, TINY + setting + "\n")
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not list(out.rglob("*.csv"))  # refused before the run


def test_config_issues_print_path_and_line(tmp_path, capsys):
    path = write_cfg(tmp_path, "grid.n = sixty\nbogus = 1\n")
    assert dispatch(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert path in err
    assert "line 1" in err and "TypeError" in err
    assert "line 2" in err and "UnknownKey" in err
    assert "MissingRequired" in err


def test_runtime_error_exits_one(tmp_path, capsys, monkeypatch):
    # the alpha sweep refuses a non-constant proliferation rate
    monkeypatch.chdir(tmp_path)  # the default output.dir is made before the run
    path = write_cfg(tmp_path, TINY + "model.P.kind = ramp\n")
    assert dispatch(["sweep-alpha", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "constant" in err


@pytest.mark.parametrize("setting,field", [
    ("solver.cg_tol = -1", "cg_tol"),
    ("solver.newton_tol = -1", "newton_tol"),
    ("solver.newton_max_iter = 0", "newton_max_iter"),
])
def test_invalid_solver_setting_exits_one(tmp_path, capsys, setting, field):
    path = write_cfg(tmp_path, TINY + setting + "\n")
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert not list(out.rglob("*.csv"))  # refused before the run


def test_seed_is_an_option_of_check_only(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, TINY)
    assert dispatch(["simulate", "--config", path, "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "usage:" in err
    seeds = []

    def suite(cfg, seed):
        seeds.append(seed)
        return StudyReport(study="check", digest="d", columns=["check"], rows=[])

    monkeypatch.setattr(experiments, "invariant_suite", suite)
    out = str(tmp_path / "results")
    assert dispatch(["check", "--config", path, "--out", out, "--seed", "1"]) == 0
    assert seeds == [1]


def test_unwritable_out_is_an_error_before_the_run(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    path = write_cfg(tmp_path, TINY)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    out = str(tmp_path / "afile" / "sub")
    assert dispatch(["simulate", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and out in err
    assert runs == []


def test_unwritable_study_output_is_an_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "afile").write_text("")
    text = TINY + f"model.alpha = 0.1\noutput.dir = {tmp_path / 'afile' / 'sub'}\n"
    path = write_cfg(tmp_path, text)
    studies = []
    plain = experiments.sweep_eps

    def sweep_eps(cfg):
        studies.append(cfg)
        return plain(cfg)

    monkeypatch.setattr(experiments, "sweep_eps", sweep_eps)
    # output.dir under a regular file: refused before the study runs
    assert dispatch(["sweep-eps", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert studies == []
    # a directory where the table goes: refused once the study is done
    out = tmp_path / "results"
    (out / f"sweep-eps_{parse_config(text).digest()}.csv").mkdir(parents=True)
    assert dispatch(["sweep-eps", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert len(studies) == 1


# -- simulate ------------------------------------------------------------------


def test_simulate_writes_diagnostics(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY)
    out = tmp_path / "results"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "simulate: 5 steps" in msg
    files = list(out.glob("diagnostics_*.csv"))
    assert len(files) == 1
    rows = read_csv(files[0])
    assert rows[0] == ["step", "t", "mass_phi", "mass_sigma", "mass_v"]
    assert len(rows) == 7  # header + initial + 5 steps
    assert float(rows[1][2]) == 0.25  # mass of the constant initial phase
    assert float(rows[1][3]) == 0.5


def test_simulate_summary_reports_newton_iterations(tmp_path, capsys, monkeypatch):
    from chrelax import cli
    runs, plain = [], cli.run

    def recorded(*args, **kwargs):
        runs.append(plain(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recorded)
    path = write_cfg(tmp_path, TINY)
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines()
               if "diagnostics ->" in s]
    its = runs[0].newton_iters
    assert line.startswith(
        f"simulate: 5 steps, {its.sum()} Newton iterations "
        f"(at most {its.max()} per step), diagnostics -> ")


def test_diagnostics_bytes_match_csv_writer(tmp_path):
    n = 16 * _DIAGNOSTIC_BLOCK_ROWS + 5  # many write blocks, the last one partial
    rng = np.random.default_rng(41)
    traj = SimpleNamespace(
        step_times=np.arange(n) * 1e-3, mass_phi=rng.standard_normal(n),
        mass_sigma=rng.standard_normal(n), mass_v=rng.standard_normal(n))
    traj.mass_phi[:3] = [-0.0, 5e-324, 1e300]
    path = _write_diagnostics(traj, str(tmp_path), "d")
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["step", "t", "mass_phi", "mass_sigma", "mass_v"])
    for k in range(n):
        w.writerow([k] + [f"{float(c[k]):.17g}" for c in (
            traj.step_times, traj.mass_phi, traj.mass_sigma, traj.mass_v)])
    with open(path, "rb") as fh:
        assert fh.read() == buf.getvalue().encode()


def test_simulate_dump_fields_round_trip(tmp_path):
    path = write_cfg(tmp_path, TINY + "output.dump_fields = true\n")
    out = tmp_path / "results"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 0
    rundirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(rundirs) == 1
    # 5 fields for each of the 6 recorded steps
    files = sorted(p.name for p in rundirs[0].iterdir())
    assert len(files) == 30
    assert "phi_000000.csv" in files and "phi_000005.csv" in files
    phi0 = Grid(8).load_field(rundirs[0] / "phi_000000.csv")
    np.testing.assert_array_equal(phi0, np.full(8, 0.25))


# -- the field writer -------------------------------------------------------


DUMPING = TINY + "output.dump_fields = true\n"


def in_process_dumps(text, rundir):
    """{file name: bytes} of every record point of the config ``text``, each
    field written by ``Grid.dump_field`` from the observer of ``run``."""
    sc = build_scenario(parse_config(text))
    rundir.mkdir()

    def dump(state):
        step = int(round(state.t / sc.scheme.dt))
        for name in ("mu", "v", "phi", "sigma", "xi"):
            sc.grid.dump_field(getattr(state, name), rundir / f"{name}_{step:06d}.csv")

    run(sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T, sc.scheme,
        observe=dump)
    return {p.name: p.read_bytes() for p in rundir.iterdir()}


def dumped(out, text):
    return {p.name: p.read_bytes()
            for p in (out / parse_config(text).digest()).iterdir()}


@pytest.mark.parametrize("step", [0, 5])  # the first and the last record point
def test_blocked_field_write_is_one_error_line(tmp_path, capsys, step):
    path = write_cfg(tmp_path, DUMPING)
    out = tmp_path / "results"
    blocked = out / parse_config(DUMPING).digest() / f"phi_{step:06d}.csv"
    blocked.mkdir(parents=True)
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and str(blocked) in err
    assert err.count("\n") == 1
    assert_no_child_process()


def test_writer_error_wins_over_the_broken_pipe(tmp_path, capsys, monkeypatch):
    # the writer fails on the first record point and has exited when the
    # second is sent, so the observer's write raises BrokenPipeError
    state = State(*[np.zeros(8)] * 5, t=0.0)  # TINY's grid has 8 cells

    def two_records(*args, observe):
        observe(state)
        deadline = time.monotonic() + 30.0
        # WNOWAIT leaves the writer to be reaped by the join
        while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
            assert time.monotonic() < deadline, "the writer did not exit"
            time.sleep(1e-3)
        observe(state)

    monkeypatch.setattr(cli, "run", two_records)
    path = write_cfg(tmp_path, DUMPING)
    out = tmp_path / "results"
    blocked = out / parse_config(DUMPING).digest() / "mu_000000.csv"
    blocked.mkdir(parents=True)
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and str(blocked) in err
    assert "Broken pipe" not in err
    assert_no_child_process()


def test_run_error_wins_and_earlier_record_points_are_written(tmp_path, capsys, monkeypatch):
    expected = in_process_dumps(DUMPING, tmp_path / "expected")
    plain, calls = stepper.step_sigma, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NonFiniteState("injected")
        return plain(*args)

    monkeypatch.setattr(stepper, "step_sigma", failing)
    path = write_cfg(tmp_path, DUMPING)
    out = tmp_path / "results"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: step 3 (t = 0.003), substep sigma: injected\n"
    files = dumped(out, DUMPING)
    assert sorted(files) == sorted(f"{name}_{step:06d}.csv" for step in (0, 1, 2)
                                   for name in ("mu", "v", "phi", "sigma", "xi"))
    assert files == {name: expected[name] for name in files}
    assert_no_child_process()


def test_forked_and_in_process_writers_write_the_same_bytes(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, DUMPING)
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path / "forked")]) == 0
    assert_no_child_process()
    forked = dumped(tmp_path / "forked", DUMPING)
    assert len(forked) == 30
    assert forked == in_process_dumps(DUMPING, tmp_path / "expected")
    monkeypatch.delattr(os, "fork")
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path / "local")]) == 0
    assert dumped(tmp_path / "local", DUMPING) == forked


def test_dumping_simulate_formats_fields_outside_its_process(tmp_path, monkeypatch):
    # every Grid.dump_field call runs in the forked writer: the solver's
    # process counts none, while the writer writes all 30 files
    calls = []
    dump_field = Grid.dump_field
    monkeypatch.setattr(Grid, "dump_field",
                        lambda *args: calls.append(1) or dump_field(*args))
    path = write_cfg(tmp_path, DUMPING)
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 0
    assert calls == []
    assert len(dumped(out, DUMPING)) == 30
    assert_no_child_process()


@pytest.mark.parametrize("command", ["simulate", "sweep-alpha"])
@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_is_a_config_error(tmp_path, capsys, command, horizon):
    text = TINY.replace("time.T = 5e-3", f"time.T = {horizon}")
    path = write_cfg(tmp_path, text)
    assert dispatch([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: horizon T = {horizon} is not a finite number of steps")


@pytest.mark.parametrize("command", ["simulate", "sweep-alpha"])
@pytest.mark.parametrize("horizon", ["time.T = 1e300", "time.dt = 1e-300"])
def test_too_many_steps_is_a_config_error(tmp_path, capsys, command, horizon):
    key = horizon.split(" = ")[0]
    text = "".join(line for line in TINY.splitlines(True) if not line.startswith(key))
    path = write_cfg(tmp_path, text + horizon + "\n")
    assert dispatch([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon T = ") and err.count("error:") == 1
    assert f"more than the {stepper.MAX_STEPS} a run may take" in err


def test_phase_whose_norm_overflows_is_an_error(tmp_path, capsys):
    # |phi|_h overflows, so the phase step's roundoff floor and its tolerance
    # are infinite and would accept the unsolved guess
    path = write_cfg(tmp_path, TINY.replace("value = 0.25", "value = 1e300"))
    out = tmp_path / "out"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: step 1 (t = 0.001), substep phi: phase step "
                          "tolerance is not finite")
    assert not list(out.glob("diagnostics_*.csv"))


@pytest.mark.parametrize("setting,where", [
    ("init.mu0.value = 1e300", "step 1 (t = 0.001), substep phi: overflow"),
    ("model.chi = 1e300", "step 2 (t = 0.002), substep phi: overflow"),
    ("model.tau = 1e-300", "step 2 (t = 0.002), substep phi: phase line search"),
    ("init.sigma0.value = 1e308", "step 1 (t = 0.001), substep phi: overflow"),
], ids=["mu0", "chi", "tau", "sigma0-sum"])
def test_huge_finite_value_is_one_error_line(tmp_path, capsys, setting, where):
    # the run raises numpy's floating-point errors instead of printing its
    # warnings, so the refusal is the only line on stderr (the phi0 case is
    # test_phase_whose_norm_overflows_is_an_error)
    path = write_cfg(tmp_path, FUZZ_BASE + setting + "\n")
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and err.count("\n") == 1


# an alpha = 0 run that initial_state admits (tau * p0 = 1): with chi = 2 and a
# strong pulse its period-2 phase sawtooth grows, and the guard stops it
GUARDED = """\
grid.n = 32
time.T = 0.4
time.dt = 0.02
potential.kind = regular
potential.epsilon = 1e-3
model.alpha = 0
model.tau = 0.5
model.P.kind = constant
model.P.p0 = 2
model.chi = 2
init.phi0.kind = cosine_bump
init.phi0.amplitude = 0.5
controls.u1.kind = gaussian_pulse
controls.u1.amplitude = 4.7
controls.u1.width = 0.15
controls.u1.t_off = 1
"""


def test_admitted_limit_run_can_trip_the_guard(tmp_path, capsys):
    path = write_cfg(tmp_path, GUARDED)
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith("error: step 17 (t = 0.34), substep phi: "
                          "alpha = 0 limit scheme unstable")


def test_simulate_defaults_to_configured_outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, TINY + "output.dir = from_config\n")
    assert dispatch(["simulate", "--config", path]) == 0
    assert (tmp_path / "from_config").is_dir()


# -- config fuzz -----------------------------------------------------------------

# 8 cells, 4 steps and two-rung ladders; each case sets one key of the
# schema to one hostile value of its kind
FUZZ_BASE = (
    "grid.n = 8\ntime.T = 4e-3\ntime.dt = 1e-3\npotential.kind = regular\n"
    "study.alphas = 0.5, 0.25\nstudy.epsilons = 1e-2, 1e-3\nstudy.deltas = 1, 0.5\n"
)
HOSTILE = {
    "float": ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300"),
    "int": ("0", "-1", "3", "100000"),
    "float_list": ("nan", "inf", "0", "-1", "", "0.5, 0.5", "1e300"),
}
HOSTILE["int_list"] = HOSTILE["float_list"]
# the commands and the key prefixes they are fuzzed on
FUZZED = {"simulate": ("",), "sweep-alpha": ("study.", "model.")}


@pytest.fixture(scope="module")
def fuzz_exits(tmp_path_factory):
    """(command, key, value) -> (exit code, stderr), or (None, the
    exception's repr) when one escaped ``dispatch``, as a numpy
    RuntimeWarning does under this suite's warning filter."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "run.cfg", str(tmp / "out")
    exits = {}
    for command, prefixes in FUZZED.items():
        for key, (kind, _) in config.SCHEMA.items():
            if key.startswith("output.") or not key.startswith(prefixes):
                continue
            base = "".join(line for line in FUZZ_BASE.splitlines(True)
                           if not line.startswith(key + " "))
            for value in HOSTILE.get(kind, ()):
                path.write_text(f"{base}{key} = {value}\n")
                stderr = io.StringIO()
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                        code = dispatch([command, "--config", str(path), "--out", out])
                except Exception as e:  # the failure this test reports
                    code, stderr = None, io.StringIO(repr(e))
                exits[command, key, value] = code, stderr.getvalue()
    return exits


def test_config_fuzz_ends_in_an_exit_code(fuzz_exits):
    # no exception escapes dispatch, the exit code is 0, 1 or 2, and an
    # exit 1 says why on an error line
    assert len(fuzz_exits) > 700
    bad = {case: got for case, got in fuzz_exits.items()
           if got[0] not in (0, 1, 2) or (got[0] == 1 and "error:" not in got[1])}
    assert bad == {}


def test_config_fuzz_refuses_non_finite_model_coefficients(fuzz_exits):
    keys = ("model.alpha", "model.tau", "model.chi", "model.P.p0")
    got = {(command, key, value): fuzz_exits[command, key, value][0]
           for command in FUZZED for key in keys for value in ("nan", "inf", "-inf")}
    assert got == dict.fromkeys(got, 1)

def test_writer_exit_without_an_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # an exception that cannot be pickled leaves the error pipe empty, and
    # the writer's exit status is all that reports the failure
    class Unpicklable(Exception):  # a local class pickles by no name
        pass

    def failing(*args):
        raise Unpicklable("not sent")

    monkeypatch.setattr(cli, "_write_record", failing)
    path = write_cfg(tmp_path, DUMPING)
    out = tmp_path / "results"
    assert dispatch(["simulate", "--config", path, "--out", str(out)]) == 1
    rundir = out / parse_config(DUMPING).digest()
    assert capsys.readouterr().err == (f"error: cannot write output: the field writer "
                                       f"of {rundir} exited with status 1\n")
    assert_no_child_process()


def test_initial_fields_are_built_once_per_run(tmp_path, monkeypatch):
    # build_scenario and run each build the four initial fields once
    builds = []
    build = FieldSpec.build
    monkeypatch.setattr(FieldSpec, "build",
                        lambda self, grid: builds.append(self) or build(self, grid))
    sc = build_scenario(parse_config(TINY))
    assert len(builds) == 4
    run(sc.params, sc.potential, sc.controls, sc.init, sc.grid, sc.T, sc.scheme)
    assert len(builds) == 8
    builds.clear()
    path = write_cfg(tmp_path, TINY)
    assert dispatch(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert len(builds) == 8


# -- study dispatch --------------------------------------------------------------

CONTDEP = TINY + """\
model.alpha = 0.1
study.perturb_u1.kind = gaussian_pulse
study.perturb_u1.center_x = 0.3
study.deltas = 1, 0.5
"""
SEPARATION = """\
grid.n = 8
time.T = 0.01
time.dt = 1e-3
potential.kind = logarithmic
potential.epsilon = 1e-3
model.alpha = 0.1
init.phi0.kind = tanh_interface
init.sigma0.kind = constant
init.sigma0.value = 0.3
"""


@pytest.mark.parametrize("command,text,columns", [
    ("contdep", CONTDEP, ["delta", "lhs", "rhs", "ratio"]),
    ("separation", SEPARATION, ["r_min", "r_max", "xi_sup", "margin", "epsilon"]),
], ids=["contdep", "separation"])
def test_contdep_and_separation_write_their_tables(tmp_path, capsys, command, text,
                                                   columns):
    path = write_cfg(tmp_path, text)
    out = tmp_path / "results"
    assert dispatch([command, "--config", path, "--out", str(out)]) == 0
    table = out / f"{command}_{parse_config(text).digest()}.csv"
    assert sorted(out.iterdir()) == [table]
    assert capsys.readouterr().out.startswith(f"{command}: wrote {table}\n")
    rows = read_csv(table)
    assert rows[0] == columns and len(rows) == 3
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row)


def test_failed_contdep_verdict_exits_two_and_writes_its_table(tmp_path, capsys,
                                                               monkeypatch):
    # the second rung changes nothing, so the ratio spread is unbounded
    lhs = iter([1e-3, 0.0])
    monkeypatch.setattr(experiments, "contdep_lhs", lambda norms: next(lhs))
    path = write_cfg(tmp_path, CONTDEP)
    out = tmp_path / "results"
    assert dispatch(["contdep", "--config", path, "--out", str(out)]) == 2
    assert "contdep: FAIL" in capsys.readouterr().out
    assert len(read_csv(out / f"contdep_{parse_config(CONTDEP).digest()}.csv")) == 3


def test_separation_of_another_potential_exits_one(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY)
    out = tmp_path / "results"
    assert dispatch(["separation", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: the separation study applies to the logarithmic potential "
                   "only, got 'regular'\n")
    assert list(out.iterdir()) == []


def test_sweep_eps_writes_report(tmp_path, capsys):
    cfg = TINY + "model.alpha = 0.1\nstudy.epsilons = 1e-2, 1e-3\n"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "results"
    code = dispatch(["sweep-eps", "--config", path, "--out", str(out)])
    msg = capsys.readouterr().out
    assert code == 0, msg
    assert "sweep-eps: wrote" in msg and "sweep-eps: pass" in msg
    files = list(out.glob("sweep-eps_*.csv"))
    assert len(files) == 1
    rows = read_csv(files[0])
    assert rows[0] == ["epsilon", "d_phi", "d_mu", "d_sigma", "max_abs_phi"]
    assert len(rows) == 3
    # values round-trip through the 17-digit format
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row)


def test_check_negative_control_exits_two(tmp_path, capsys, jacobi_solves):
    # a loose Jacobi-CG solve breaks conservation, which check must catch
    cfg = "grid.n = 64\ntime.T = 0.25\ntime.dt = 1e-3\npotential.kind = regular\nsolver.cg_tol = 1e-2\n"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "results"
    code = dispatch(["check", "--config", path, "--out", str(out)])
    msg = capsys.readouterr().out
    assert code == 2, msg
    assert "check: FAIL" in msg
    assert "conservation_mass=FAIL" in msg
    rows = read_csv(next(iter(out.glob("check_*.csv"))))
    assert rows[0] == ["check", "observed", "threshold", "verdict"]
    table = {r[0]: r[3] for r in rows[1:]}
    assert table["conservation_mass"] == "fail"
    # the operator identities do not depend on the solver tolerance
    assert table["operator_identities"] == "pass"


# -- reports ------------------------------------------------------------------


def fabricated_report(fit=None):
    return StudyReport(
        study="sweep-alpha", digest="abc123def456",
        columns=["alpha", "err"],
        rows=[(0.25, 0.5), (0.125, 0.42)],
        fit=fit,
        verdicts=[Verdict("rate_slope", True, ">= 0.24", 0.3)])


def test_write_report_is_deterministic(tmp_path):
    fit = RateFit(slope=0.3, intercept=-1.0, residual=0.01, npoints=2)
    report = fabricated_report(fit)
    paths = write_report(report, str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in paths] == [
        "sweep-alpha_abc123def456.csv",
        "sweep-alpha_abc123def456_summary.csv"]
    first = [Path(p).read_bytes() for p in paths]
    again = write_report(report, str(tmp_path))
    assert [Path(p).read_bytes() for p in again] == first
    rows = read_csv(paths[1])
    assert rows[0] == ["slope", "intercept", "residual", "verdict"]
    assert rows[1][0] == "0.29999999999999999" and rows[1][3] == "pass"


def test_write_report_without_fit_writes_single_file(tmp_path):
    paths = write_report(fabricated_report(), str(tmp_path))
    assert len(paths) == 1
    rows = read_csv(paths[0])
    assert rows[0] == ["alpha", "err"]
    assert float(rows[1][0]) == 0.25
