"""trace.csv written by the trace writer's helper process.

Every streamed file must hold the bytes of the in-process writer and of the
row-at-a-time oracle, and every verb must leave no child process behind,
whatever its sessions do. Each wait on the helper has a timeout.
"""

import json
import multiprocessing
import os
import signal

import pytest

from gds import cli, engine, tracewriter
from gds.engine import Trace, run
from gds.errors import SimulationFault
from gds.presets import experiment_one_raw
from test_engine import (
    PRESET_ANGLES,
    PRESET_ORIENTATION,
    drawn_session,
    reference_to_csv,
    special_value_records,
)

BLOCK = engine._CSV_BLOCK
READY_TIMEOUT_S = 60.0


class Recorder:
    """A stream that passes everything on to a ``TraceWriter`` and keeps
    what it was handed: the full blocks, the last block's length and what
    ``finish`` returned."""

    def __init__(self, writer):
        self.writer = writer
        self.puts = []
        self.finished = []

    def put(self, block):
        self.puts.append(len(block))
        self.writer.put(block)

    def finish(self, path, last):
        done = self.writer.finish(path, last)
        self.finished.append((len(last), done))
        return done


@pytest.fixture
def writer():
    """A helper that has said it is ready, closed after the test."""
    w = tracewriter.TraceWriter()
    assert w.ready(READY_TIMEOUT_S), "the helper did not start"
    yield w
    w.close()
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_cpus(monkeypatch):
    """A host with two usable CPUs, whatever this one has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def ready_helpers(two_cpus, monkeypatch):
    """Verbs start helpers that are ready before the first session runs
    (on a host with more than one usable CPU); returns the writers they
    started."""
    started = []

    class ReadyWriter(tracewriter.TraceWriter):
        def __init__(self):
            super().__init__()
            assert self.ready(READY_TIMEOUT_S), "the helper did not start"
            started.append(self)

    monkeypatch.setattr(tracewriter, "TraceWriter", ReadyWriter)
    return started


def assert_streamed_matches(trace, tmp_path):
    """Write ``trace`` through its stream, then again in process (its
    stream is spent), and by the oracle: three equal files."""
    streamed, here, want = (tmp_path / name for name in ("streamed.csv", "here.csv", "want.csv"))
    trace.to_csv(str(streamed))
    assert trace.stream is None
    trace.to_csv(str(here))
    reference_to_csv(trace, str(want))
    assert streamed.read_bytes() == here.read_bytes() == want.read_bytes()


def short_scenario(tmp_path, max_sim_time=3.0):
    raw = experiment_one_raw("with", 0)
    raw["max_sim_time"] = max_sim_time
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    return str(path)


def tree(root):
    """Every file under ``root``: relative path -> bytes."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


class TestStreamedBytes:
    @pytest.mark.parametrize(
        "n, puts, last",
        [
            # full blocks only: the last full one is handed over by to_csv
            (2 * BLOCK, 1, BLOCK),
            (BLOCK, 0, BLOCK),
            # shorter than one block: to_csv hands over the only one
            (300, 0, 300),
            (2 * BLOCK + 1, 2, 1),
            (0, 0, 0),
        ],
    )
    def test_block_edges_match_in_process_and_oracle(self, n, puts, last, writer, tmp_path):
        stream = Recorder(writer)
        trace = Trace(dt=1e-3, condition="with", config_digest="edges", stream=stream)
        for record in special_value_records(n, seed=n):
            trace.append(record)
        assert stream.puts == [engine._BLOCK_BYTES] * puts
        assert_streamed_matches(trace, tmp_path)
        assert stream.finished == [(last * engine._RECORD_SIZE, True)]

    @pytest.mark.parametrize("condition", ["with", "without"])
    def test_drawn_sessions_match_in_process_and_oracle(self, condition, writer, tmp_path):
        # TestPhaseBodies' preset sessions: every phase body, a target
        # switch in either condition
        sc = drawn_session(condition, 0, PRESET_ANGLES, PRESET_ORIENTATION, 0.05, 14.0)
        stream = Recorder(writer)
        trace = run(sc, stream=stream)
        assert len(stream.puts) == (len(trace) - 1) // BLOCK
        assert_streamed_matches(trace, tmp_path)
        assert stream.finished[0][1] is True

    def test_one_helper_writes_trace_after_trace(self, writer, tmp_path):
        for n in (700, 5, 2 * BLOCK):
            trace = Trace(dt=1e-3, condition="with", config_digest="many", stream=writer)
            for record in special_value_records(n, seed=n):
                trace.append(record)
            assert_streamed_matches(trace, tmp_path)

    def test_gds_run_writes_the_in_process_bytes(self, ready_helpers, tmp_path, monkeypatch):
        scenario = short_scenario(tmp_path)
        traces = []
        run_scenario = cli.run_scenario

        def kept(*args, **kwargs):
            traces.append(run_scenario(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "run_scenario", kept)
        finished = []
        finish = tracewriter.TraceWriter.finish

        def counted(self, path, last):
            finished.append(finish(self, path, last))
            return finished[-1]

        monkeypatch.setattr(tracewriter.TraceWriter, "finish", counted)
        argv = ["run", "--scenario", scenario, "--condition", "both", "--seeds", "0,1"]
        assert cli.main([*argv, "--out", str(tmp_path / "streamed")]) == cli.EXIT_SIM_FAULT
        assert len(ready_helpers) == 1 and finished == [True] * 4
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main([*argv, "--out", str(tmp_path / "here")]) == cli.EXIT_SIM_FAULT
        assert len(ready_helpers) == 1 and len(finished) == 4
        assert tree(tmp_path / "streamed") == tree(tmp_path / "here")
        trace = traces[0]
        reference_to_csv(trace, str(tmp_path / "want.csv"))
        got = tmp_path / "streamed" / trace.condition / "seed_0" / "trace.csv"
        assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestLifecycle:
    def test_compare_leaves_no_child(self, two_cpus, tmp_path, monkeypatch):
        started = []
        start = tracewriter.start
        monkeypatch.setattr(tracewriter, "start", lambda: started.append(start()) or started[-1])
        argv = ["compare", "--scenario", short_scenario(tmp_path, 1.0), "--seeds", "0"]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_SIM_FAULT
        assert len(started) == 1 and started[0] is not None
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--no-trace"],
            ["run", "--no-trace"],
            ["run"],  # no --out: nothing is written
            ["sweep", "--param", "operator.push_force", "--values", "25"],
        ],
        ids=["compare-no-trace", "run-no-trace", "run-no-out", "sweep"],
    )
    def test_verbs_that_write_no_trace_start_no_helper(self, argv, tmp_path, monkeypatch):
        monkeypatch.setattr(tracewriter, "TraceWriter", None)  # calling it fails
        verb, *extra = argv
        args = [verb, "--scenario", short_scenario(tmp_path, 0.5), *extra]
        if verb != "run" or extra:
            args += ["--out", str(tmp_path / "out")]
        assert cli.main(args) == cli.EXIT_SIM_FAULT
        assert multiprocessing.active_children() == []

    def test_faulted_session_leaves_the_in_process_files(self, ready_helpers, tmp_path, monkeypatch):
        # seed 1's session raises after it has streamed blocks; seed 0's
        # files are written, and nothing of seed 1's
        step = engine.World.step

        def faulting(world):
            if world.sc.operator.seed == 1 and world.k == 3 * BLOCK + 7:
                raise SimulationFault("injected")
            step(world)

        monkeypatch.setattr(engine.World, "step", faulting)
        argv = ["run", "--scenario", short_scenario(tmp_path), "--condition", "without",
                "--seeds", "0,1"]
        assert cli.main([*argv, "--out", str(tmp_path / "streamed")]) == cli.EXIT_SIM_FAULT
        assert len(ready_helpers) == 1
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main([*argv, "--out", str(tmp_path / "here")]) == cli.EXIT_SIM_FAULT
        files = tree(tmp_path / "streamed")
        assert sorted(files) == [
            os.path.join("without", "seed_0", name)
            for name in ("events.json", "metrics.json", "trace.csv")
        ]
        assert files == tree(tmp_path / "here")

    def test_unwritable_path_raises_the_in_process_error(self, ready_helpers, tmp_path, monkeypatch):
        # a directory where trace.csv goes
        argv = ["run", "--scenario", short_scenario(tmp_path, 1.0), "--seeds", "0"]
        for out in ("streamed", "here"):
            (tmp_path / out / "with" / "seed_0" / "trace.csv").mkdir(parents=True)
        with pytest.raises(OSError) as streamed:
            cli.main([*argv, "--out", str(tmp_path / "streamed")])
        assert len(ready_helpers) == 1
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.raises(OSError) as here:
            cli.main([*argv, "--out", str(tmp_path / "here")])
        assert len(ready_helpers) == 1
        assert type(streamed.value) is type(here.value) is IsADirectoryError
        assert streamed.value.filename == str(tmp_path / "streamed" / "with" / "seed_0" / "trace.csv")

    def test_one_cpu_starts_no_helper_and_writes_the_same_bytes(
        self, ready_helpers, tmp_path, monkeypatch
    ):
        argv = ["compare", "--scenario", short_scenario(tmp_path, 1.5), "--seeds", "0"]
        assert cli.main([*argv, "--out", str(tmp_path / "two")]) == cli.EXIT_SIM_FAULT
        assert len(ready_helpers) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert tracewriter.usable_cpus() == 1
        monkeypatch.setattr(tracewriter, "TraceWriter", None)  # calling it fails
        assert cli.main([*argv, "--out", str(tmp_path / "one")]) == cli.EXIT_SIM_FAULT
        assert multiprocessing.active_children() == []
        assert tree(tmp_path / "two") == tree(tmp_path / "one")

    def test_a_lost_helper_leaves_the_file_to_the_parent(self, writer, tmp_path):
        stream = Recorder(writer)
        trace = Trace(dt=1e-3, condition="with", config_digest="lost", stream=stream)
        records = special_value_records(3 * BLOCK + 5, seed=3)
        for record in records[: BLOCK + 1]:
            trace.append(record)
        (helper,) = multiprocessing.active_children()
        os.kill(helper.pid, signal.SIGKILL)
        helper.join(READY_TIMEOUT_S)
        assert not helper.is_alive()
        for record in records[BLOCK + 1 :]:
            trace.append(record)
        assert_streamed_matches(trace, tmp_path)
        assert stream.finished == [(5 * engine._RECORD_SIZE, False)]
        assert not writer.ready()
