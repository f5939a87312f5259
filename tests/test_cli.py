import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spikeants import cli, engine
from spikeants.circuit import format_weights, parse_weights, trained_reference_weights
from spikeants.cli import main
from spikeants.config import parse_config

ARENA = """\
width 12
height 12
food_quantity 6
random_ants 2
map
############
#..........#
#..........#
#...FF.....#
#...FF.....#
#..........#
#..........#
#..........#
#..........#
#..........#
#..........#
############
"""

TRAIN_ARENA = """\
width 12
height 12
food_quantity 50
random_ants 1
map
RRRRRRRRRRRR
R..........R
R...##.....R
R..........R
R....FF....R
R....FF....R
R..........R
R..........R
R.....#....R
R..........R
R..........R
RRRRRRRRRRRR
"""


def run_module(*args, **kwargs):
    """`python -m spikeants` with these arguments in a subprocess, which
    does not see pytest's pythonpath setting, so `src` is put on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "spikeants", *args],
                          capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture
def arena(tmp_path):
    p = tmp_path / "arena.txt"
    p.write_text(ARENA)
    return p


@pytest.fixture
def train_arena(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text(TRAIN_ARENA)
    return p


class TestValidate:
    def test_ok_exit_zero(self, arena, capsys):
        assert main(["validate", "--scenario", str(arena)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_brain_ticks_shown(self, capsys):
        """Before the verdict, `validate` shows the brain ticks a run of
        the config would step: world ticks x ants x `ant_brain_steps`."""
        assert main(["validate", "--scenario", "@foraging"]) == 0
        assert capsys.readouterr().out == (
            "1000 world ticks x 10 ants x 10 ant_brain_steps = 100000 brain ticks\n"
            "ok: 60x60, 270 food units, 10 ants\n")

    def test_brain_ticks_shown_for_a_phase_schedule(self, tmp_path, capsys):
        """A set phase_schedule is the whole run: its phases' ticks are
        the world ticks, and world_ticks is not read."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("world_ticks = 7\nn_ants = 3\nant_brain_steps = 4\n"
                       "phase_schedule = training:20,foraging:50\n")
        assert main(["validate", "--scenario", "@foraging", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (
            "70 world ticks x 3 ants x 4 ant_brain_steps = 840 brain ticks\n"
            "ok: 60x60, 270 food units, 3 ants\n")

    def test_parse_error_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("width 3\nheight 2\nmap\n##\n##\n")
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent.txt"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_config_read_from_a_pipe(self):
        """A config that is not a regular file, here the process's
        standard input, is read like one."""
        proc = run_module("validate", "--scenario", "@foraging", "--config", "/dev/stdin",
                          input="n_ants = 3\n")
        assert proc.returncode == 0, proc.stderr
        assert "3 ants" in proc.stdout

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["validate", "--scenario", "@foraging", "--config", str(tmp_path)]) == 1
        assert f"error: {tmp_path} is a directory" in capsys.readouterr().err

    def test_bad_config_rejected(self, arena, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mystery_knob = 3\n")
        assert main(["validate", "--scenario", str(arena),
                     "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_overflowing_counter_weight_rejected(self, tmp_path, capsys):
        """A potential span whose energy counter weight overflows fails
        validation by its key, not the run's wiring."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("neuron_threshold = 1e308\nneuron_rest = -1e308\n"
                       "neuron_refractory_potential = -1e308\n")
        assert main(["validate", "--scenario", "@foraging", "--config", str(cfg)]) == 1
        assert "neuron_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, n_ants, shown", [
        ("@foraging", 3, "3 ants"),
        ("@training", 3, "3 ants"),
    ])
    def test_ant_count_follows_config(self, scenario, n_ants, shown, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n_ants = {n_ants}\n")
        assert main(["validate", "--scenario", scenario, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(shown)

    def test_n_ants_below_explicit_spawns_rejected(self, tmp_path, capsys):
        scen = tmp_path / "spawns.txt"
        scen.write_text("width 4\nheight 3\nheading 0 N\nheading 1 E\nmap\n"
                        "####\n#AA#\n####\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_ants = 1\n")
        assert main(["validate", "--scenario", str(scen), "--config", str(cfg)]) == 1
        assert "below the 2 explicit spawns" in capsys.readouterr().err

    def test_random_ants_beyond_empty_cells_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_ants = 4000\n")
        assert main(["validate", "--scenario", "@foraging", "--config", str(cfg)]) == 1
        assert "not enough empty cells for random spawns" in capsys.readouterr().err

    def test_negative_seed_rejected(self, arena, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = -1\n")
        assert main(["validate", "--scenario", str(arena), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"

    def test_tick_count_beyond_int64_rejected(self, tmp_path, capsys):
        """Dead times and delays must fit a state key's 64-bit fields; a
        config past that fails validation in one line, not the run."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("neuron_refractory_ticks = 18446744073709551616\n"
                       "circuit_pacemaker_period = 18446744073709551618\n"
                       "circuit_np_pulse_count = 1\n")
        assert main(["validate", "--scenario", "@foraging", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: neuron_refractory_ticks must be at most 2**63 - 1 ticks\n")


    def test_repeated_key_rejected(self, arena, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert main(["validate", "--scenario", str(arena), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: line 2: repeated key 'seed'\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["ant_deposit_amount_positive",
                                     "ant_deposit_amount_negative"])
    def test_overflowing_deposit_fails_before_any_tick(self, command, key, tmp_path,
                                                       capsys, monkeypatch):
        """With 10 ants a cell could hold 10 * 1e308 / rho: rejected up
        front, naming the key, instead of a field that turns inf."""
        def no_tick(*args, **kwargs):
            raise AssertionError("an ant stepped")
        monkeypatch.setattr(engine, "step_ant", no_tick)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = 1e308\n")
        out = tmp_path / "out.csv"
        argv = {"validate": [], "run": ["--out-csv", str(out), "--reference-weights"]}[command]
        assert main([command, "--scenario", "@foraging", "--config", str(cfg), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = 1e+308 with 10 ants ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestRunCommand:
    def test_writes_csv_and_json(self, arena, tmp_path):
        csv = tmp_path / "out.csv"
        js = tmp_path / "out.json"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(csv),
                     "--out-json", str(js), "--ticks", "40", "--seed", "7",
                     "--reference-weights"])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "tick,total_food,neg_cells,pos_cells,harm_contacts,boundary_resets"
        assert len(lines) == 41
        summary = json.loads(js.read_text())
        assert summary["seed"] == 7
        assert summary["ticks"] == 40

    def test_same_seed_identical_bytes(self, arena, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["run", "--scenario", str(arena), "--out-csv", str(out),
                  "--ticks", "200", "--seed", "7"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pheromone_flag_changes_output(self, arena, tmp_path):
        outs = {}
        for flag, name in (("--pheromone", "on.csv"), ("--no-pheromone", "off.csv")):
            out = tmp_path / name
            main(["run", "--scenario", str(arena), "--out-csv", str(out),
                  "--ticks", "400", "--seed", "7", flag])
            outs[name] = out.read_text()
        assert outs["on.csv"] != outs["off.csv"]
        final_off = outs["off.csv"].splitlines()[-1].split(",")
        assert final_off[2] == "0"  # no negative marks without deposition

    def test_frame_dumps_deterministic(self, arena, tmp_path):
        dirs = []
        for name in ("f1", "f2"):
            d = tmp_path / name
            main(["run", "--scenario", str(arena), "--out-csv",
                  str(tmp_path / f"{name}.csv"), "--ticks", "60", "--seed", "3",
                  "--frames-dir", str(d), "--frame-every", "30"])
            dirs.append(d)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == ["frame_00000030.ppm", "frame_00000060.ppm"]
        for n in names:
            assert (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()

    def test_frame_every_below_one_rejected(self, arena, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(out),
                     "--frames-dir", str(tmp_path / "frames"), "--frame-every", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --frame-every must be at least 1\n"
        assert not out.exists()

    def test_ticks_cannot_override_schedule(self, arena, tmp_path, capsys):
        cfg = tmp_path / "ps.cfg"
        cfg.write_text("phase_schedule = foraging:30\n")
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(out),
                     "--config", str(cfg), "--ticks", "5"])
        assert code == 1
        assert capsys.readouterr().err == "error: --ticks cannot override phase_schedule\n"
        assert not out.exists()


class TestTrainCommand:
    def test_train_exports_weights(self, train_arena, tmp_path):
        wfile = tmp_path / "weights.txt"
        csv = tmp_path / "train.csv"
        code = main(["train", "--scenario", str(train_arena),
                     "--out-weights", str(wfile), "--out-csv", str(csv),
                     "--ticks", "1200", "--seed", "3"])
        assert code == 0
        weights = parse_weights(wfile.read_text())
        assert len(weights) == 6
        assert csv.read_text().count("\n") == 1201

    def test_train_writes_json_summary(self, train_arena, tmp_path):
        js = tmp_path / "train.json"
        assert main(["train", "--scenario", str(train_arena), "--out-weights",
                     str(tmp_path / "w.txt"), "--out-json", str(js),
                     "--ticks", "40", "--seed", "3"]) == 0
        summary = json.loads(js.read_text())
        assert summary["seed"] == 3
        assert summary["ticks"] == 40

    def test_trained_weights_feed_run(self, train_arena, arena, tmp_path):
        wfile = tmp_path / "weights.txt"
        main(["train", "--scenario", str(train_arena), "--out-weights",
              str(wfile), "--ticks", "1200", "--seed", "3"])
        out = tmp_path / "run.csv"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(out),
                     "--ticks", "50", "--weights", str(wfile)])
        assert code == 0


    def test_trained_weights_feed_run_off_zero_floor(self, train_arena, arena, tmp_path):
        """Untrained pathways start inside [w_min, w_max], so a run with
        the same config accepts the weights training wrote."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("stdp_w_min = 0.2\n")
        wfile = tmp_path / "weights.txt"
        assert main(["train", "--scenario", str(train_arena), "--out-weights", str(wfile),
                     "--ticks", "1", "--config", str(cfg)]) == 0
        assert all(0.2 <= w <= 1.0 for w in parse_weights(wfile.read_text()).values())
        assert main(["run", "--scenario", str(arena), "--out-csv", str(tmp_path / "run.csv"),
                     "--ticks", "5", "--weights", str(wfile), "--config", str(cfg)]) == 0


class TestOutputPaths:
    def test_missing_weights_dir_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("training ran")
        monkeypatch.setattr(cli, "run_training", no_run)
        target = tmp_path / "missing" / "w.txt"
        code = main(["train", "--scenario", "@training", "--out-weights", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("argv", [
        ["run", "--out-csv", "{ok}", "--out-json", "{missing}"],
        ["compare", "--out-on", "{ok}", "--out-off", "{missing}"],
    ], ids=["run", "compare"])
    def test_missing_output_dir_fails_before_running(self, arena, tmp_path, capsys,
                                                     monkeypatch, argv):
        monkeypatch.setattr(cli, "run", None)
        monkeypatch.setattr(cli, "compare", None)
        missing = tmp_path / "missing" / "x"
        argv = [a.format(ok=tmp_path / "ok", missing=missing) for a in argv]
        assert main([*argv, "--scenario", str(arena)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {missing}: no such directory\n"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--out-weights", "{dir}"], "cannot write {dir}: it is a directory"),
        (["run", "--out-csv", "{tmp}/o.csv", "--out-json", "{dir}"],
         "cannot write {dir}: it is a directory"),
        (["train", "--out-weights", "{tmp}/a.txt", "--out-csv", "{tmp}/a.txt"],
         "--out-weights and --out-csv both write {tmp}/a.txt"),
        (["compare", "--out-on", "{tmp}/x.csv", "--out-off", "{tmp}/./x.csv"],
         "--out-on and --out-off both write {tmp}/./x.csv"),
        (["run", "--out-csv", "{tmp}/d", "--frames-dir", "{tmp}/d"],
         "--out-csv and --frames-dir both write {tmp}/d"),
    ], ids=["train_into_dir", "json_into_dir", "train_same_file", "compare_same_file",
            "csv_is_frames_dir"])
    def test_unwritable_outputs_fail_before_running(self, arena, tmp_path, capsys,
                                                    monkeypatch, argv, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        for name in ("run", "run_training", "compare"):
            monkeypatch.setattr(cli, name, no_run)
        (tmp_path / "dir").mkdir()
        fill = dict(tmp=tmp_path, dir=tmp_path / "dir")
        argv = [a.format(**fill) for a in argv]
        assert main([*argv, "--scenario", str(arena)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(**fill)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arena.txt", "dir"]

    def test_frames_dir_that_is_a_file(self, arena, tmp_path, capsys, monkeypatch):
        def no_tick(*args, **kwargs):
            raise AssertionError("an ant stepped")
        monkeypatch.setattr(engine, "step_ant", no_tick)
        blocker = tmp_path / "frames"
        blocker.write_text("not a directory")
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(out),
                     "--frames-dir", str(blocker), "--ticks", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err
        assert not out.exists()

    def test_frames_dir_not_created_when_the_run_fails_first(self, tmp_path, capsys):
        scen = tmp_path / "open.txt"
        scen.write_text("width 3\nheight 3\nmap\n...\n...\n...\n")
        frames = tmp_path / "frames" / "run"
        code = main(["run", "--scenario", str(scen), "--out-csv", str(tmp_path / "out.csv"),
                     "--frames-dir", str(frames), "--ticks", "5"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: foraging scenarios must be enclosed by walls\n"
        assert not (tmp_path / "frames").exists()

    def test_frames_dir_created_when_the_run_starts(self, arena, tmp_path):
        frames = tmp_path / "frames" / "run"
        code = main(["run", "--scenario", str(arena), "--out-csv", str(tmp_path / "out.csv"),
                     "--frames-dir", str(frames), "--ticks", "5"])
        assert code == 0
        assert frames.is_dir() and not any(frames.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["run", "--scenario", "{arena}", "--weights", "{w}", "--out-csv", "{w}"],
         "--out-csv would overwrite the --weights file {w}"),
        (["compare", "--scenario", "{arena}", "--weights", "{w}", "--out-on", "{tmp}/on.csv",
          "--out-off", "{tmp}/./w.txt"],
         "--out-off would overwrite the --weights file {tmp}/./w.txt"),
        (["run", "--scenario", "{arena}", "--config", "{c}", "--out-csv", "{c}"],
         "--out-csv would overwrite the --config file {c}"),
        (["train", "--scenario", "{arena}", "--config", "{c}", "--out-weights", "{c}"],
         "--out-weights would overwrite the --config file {c}"),
        (["run", "--scenario", "{arena}", "--out-csv", "{tmp}/o.csv", "--out-json", "{arena}"],
         "--out-json would overwrite the --scenario file {arena}"),
        (["render", "--scenario", "{arena}", "--out", "{arena}"],
         "--out would overwrite the --scenario file {arena}"),
    ], ids=["run_weights", "compare_weights", "run_config", "train_config", "run_scenario",
            "render_scenario"])
    def test_output_over_an_input_fails_before_running(self, arena, tmp_path, capsys,
                                                       monkeypatch, argv, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        for name in ("run", "run_training", "compare", "render_snapshot"):
            monkeypatch.setattr(cli, name, no_run)
        inputs = {"w": tmp_path / "w.txt", "c": tmp_path / "c.txt", "arena": arena}
        inputs["w"].write_text(format_weights(trained_reference_weights()))
        inputs["c"].write_text("seed = 3\n")
        before = {p: p.read_bytes() for p in inputs.values()}
        fill = dict(inputs, tmp=tmp_path)
        assert main([a.format(**fill) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message.format(**fill)}\n"
        assert {p: p.read_bytes() for p in inputs.values()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arena.txt", "c.txt", "w.txt"]


class TestFlagConflicts:
    def test_weights_sources_conflict(self, arena, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text("")
        code = main(["run", "--scenario", str(arena), "--out-csv",
                     str(tmp_path / "o.csv"), "--weights", str(wfile),
                     "--reference-weights"])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_bundled_scenario_names(self, tmp_path):
        out = tmp_path / "ref.csv"
        code = main(["run", "--scenario", "@foraging", "--out-csv", str(out),
                     "--ticks", "5"])
        assert code == 0
        assert main(["validate", "--scenario", "@nonsense"]) == 1


class TestCompareCommand:
    def test_paired_outputs(self, arena, tmp_path):
        on, off, summ = (tmp_path / n for n in ("on.csv", "off.csv", "s.json"))
        code = main(["compare", "--scenario", str(arena), "--out-on", str(on),
                     "--out-off", str(off), "--out-summary", str(summ),
                     "--ticks", "150", "--seed", "5", "--reference-weights"])
        assert code == 0
        assert on.read_text().splitlines()[0] == off.read_text().splitlines()[0]
        summary = json.loads(summ.read_text())
        assert set(summary) >= {"food_consumed_enabled", "food_consumed_disabled",
                                "consumption_advantage"}


class TestReferenceWeights:
    @pytest.mark.parametrize("command, text", [
        ("run", "stdp_w_max = 0.8\n"),
        ("compare", "stdp_w_min = 0.5\nstdp_w_max = 2.0\n"),
    ])
    def test_reference_weights_follow_the_config_bounds(self, command, text, arena,
                                                        tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        outs = {"run": ["--out-csv", str(tmp_path / "o.csv")],
                "compare": ["--out-on", str(tmp_path / "on.csv"),
                            "--out-off", str(tmp_path / "off.csv")]}[command]
        code = main([command, "--scenario", str(arena), *outs, "--ticks", "20",
                     "--reference-weights", "--config", str(cfg)])
        assert (code, capsys.readouterr().err) == (0, "")


class TestRenderCommand:
    def test_renders_ppm(self, arena, tmp_path):
        out = tmp_path / "world.ppm"
        assert main(["render", "--scenario", str(arena), "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n12 12\n255\n")
        assert len(data) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


class TestDefaults:
    def test_defaults_loadable(self, capsys):
        assert main(["defaults"]) == 0
        text = capsys.readouterr().out
        cfg = parse_config(text)
        assert cfg.circuit.pacemaker_period == 10

    def test_module_entry_point(self, arena):
        proc = run_module("validate", "--scenario", str(arena))
        assert proc.returncode == 0
        assert "ok:" in proc.stdout


# Each subcommand's options: option string -> (dest, default, or "required").
SUBCOMMAND_OPTIONS = {
    "train": {
        "--scenario": ("scenario", "required"), "--out-weights": ("out_weights", "required"),
        "--out-csv": ("out_csv", None), "--out-json": ("out_json", None),
        "--config": ("config", None), "--seed": ("seed", None), "--ticks": ("ticks", None),
    },
    "run": {
        "--scenario": ("scenario", "required"), "--out-csv": ("out_csv", "required"),
        "--out-json": ("out_json", None), "--weights": ("weights", None),
        "--reference-weights": ("reference_weights", False),
        "--pheromone": ("pheromone", None), "--no-pheromone": ("pheromone", None),
        "--frames-dir": ("frames_dir", None), "--frame-every": ("frame_every", 100),
        "--config": ("config", None), "--seed": ("seed", None), "--ticks": ("ticks", None),
    },
    "compare": {
        "--scenario": ("scenario", "required"), "--out-on": ("out_on", "required"),
        "--out-off": ("out_off", "required"), "--out-summary": ("out_summary", None),
        "--weights": ("weights", None), "--reference-weights": ("reference_weights", False),
        "--config": ("config", None), "--seed": ("seed", None), "--ticks": ("ticks", None),
    },
    "render": {"--scenario": ("scenario", "required"), "--out": ("out", "required")},
    "validate": {"--scenario": ("scenario", "required"), "--config": ("config", None)},
    "defaults": {},
}


class TestParser:
    @staticmethod
    def options():
        """Each subcommand's parser and its actions, `--help` left out."""
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return parser, {name: [a for a in p._actions if a.dest != "help"]
                        for name, p in sub.choices.items()}

    def test_each_subcommand_takes_exactly_its_options(self):
        parser, options = self.options()
        assert set(options) == set(SUBCOMMAND_OPTIONS)
        for command, actions in options.items():
            given = [arg for a in actions if a.required for arg in (a.option_strings[0], "x")]
            parsed = vars(parser.parse_args([command, *given]))
            got = {s: (a.dest, "required" if a.required else parsed[a.dest])
                   for a in actions for s in a.option_strings}
            assert got == SUBCOMMAND_OPTIONS[command], command

    def test_shared_options_have_one_help_text(self):
        helps: dict[str, set] = {}
        for actions in self.options()[1].values():
            for a in actions:
                helps.setdefault(a.option_strings[0], set()).add(a.help)
        assert {flag: h for flag, h in helps.items() if len(h) > 1} == {}
