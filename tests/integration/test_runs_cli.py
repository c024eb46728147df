"""CLI: ``--ledger`` recording, ``repro runs list/show/diff``, ``repro dash``.

The ISSUE acceptance flow: two identical ``repro sweep --ledger`` runs
must diff as byte-identical deterministic metrics, and ``repro dash``
must emit one self-contained HTML file from the ledger + bench history.
"""

import json

import pytest

from repro.cli import main
from repro.obs import disable_metrics, disable_tracing
from repro.obs.ledger import RunLedger, RunRecord
from repro.schema import SCHEMA_VERSION

FIG1 = """
DO I = 1, 100
  S1: B(I) = A(I-2) + E(I+1)
  S2: G(I-3) = A(I-1) * E(I+2)
  S3: A(I) = B(I) + C(I+3)
ENDDO
"""


@pytest.fixture(autouse=True)
def clean_obs():
    disable_tracing()
    disable_metrics()
    yield
    disable_tracing()
    disable_metrics()


@pytest.fixture
def ledger_path(tmp_path):
    return str(tmp_path / "ledger.jsonl")


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.f"
    path.write_text(FIG1)
    return str(path)


def _sweep(ledger_path, *extra):
    return main(
        ["sweep", "--n", "30", "FLQ52", "--ledger", ledger_path, *extra]
    )


class TestLedgerRecording:
    def test_sweep_appends_a_run_record(self, ledger_path):
        assert _sweep(ledger_path) == 0
        (record,) = RunLedger(ledger_path).load()
        assert record.command == "sweep"
        assert record.outcome == "ok"
        assert record.argv[0] == "sweep" and "--ledger" in record.argv
        assert record.options_hash is not None
        assert record.metrics is not None
        assert any(
            name.startswith("sim.")
            for name in record.metrics["deterministic"]["counters"]
        )

    def test_serial_mode_recorded(self, ledger_path):
        assert _sweep(ledger_path) == 0
        (record,) = RunLedger(ledger_path).load()
        assert record.mode == "serial (no pool requested)"

    def test_min_pool_work_recorded_in_mode(self, ledger_path):
        """S1: the chosen mode and the threshold in force land in the record."""
        # QCD is 6 loops x 4 machines = 24 evaluations, under the
        # calibrated threshold's floor of 32 whatever the probe measures.
        argv = ["sweep", "--n", "30", "QCD", "--jobs", "2", "--ledger", ledger_path]
        assert main(argv) == 0
        (record,) = RunLedger(ledger_path).load()
        assert "below min-work threshold" in record.mode
        assert record.calibration["source"] == "probe"
        assert f"min_pool_work={record.calibration['min_pool_work']}" in record.mode

    def test_simulate_deadlock_outcome(self, ledger_path, loop_file, capsys):
        code = main(
            [
                "simulate",
                loop_file,
                "--scheduler",
                "list",
                "--n",
                "12",
                "--inject",
                "drop:pair=0",
                "--ledger",
                ledger_path,
            ]
        )
        assert code == 2
        (record,) = RunLedger(ledger_path).load()
        assert record.outcome == "deadlock"
        assert "DeadlockError" in record.error
        assert "sync" in record.timelines  # the hung schedule's timeline

    def test_journal_artifact_recorded(self, ledger_path, loop_file, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        assert (
            main(
                ["--journal-out", journal, "compile", loop_file, "--ledger", ledger_path]
            )
            == 0
        )
        (record,) = RunLedger(ledger_path).load()
        assert journal in record.artifacts

    def test_ledger_lines_are_schema_stamped(self, ledger_path):
        assert _sweep(ledger_path) == 0
        with open(ledger_path, encoding="utf-8") as handle:
            (line,) = handle.read().splitlines()
        data = json.loads(line)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "run"


class TestZeroOverhead:
    def test_sweep_stdout_byte_identical_with_and_without_ledger(
        self, ledger_path, capsys
    ):
        assert main(["sweep", "--n", "30", "FLQ52"]) == 0
        plain = capsys.readouterr().out
        assert _sweep(ledger_path) == 0
        recorded = capsys.readouterr().out
        assert plain == recorded


class TestProgressFlag:
    def test_tty_less_progress_degrades_to_plain_lines(self, capsys):
        """S6 at the CLI: captured stderr gets log lines, never ``\\r``."""
        assert main(["sweep", "--n", "30", "FLQ52", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[corpus]" in err
        assert "\r" not in err


class TestRunsCommands:
    def test_list_empty(self, ledger_path, capsys):
        assert main(["runs", "list", "--ledger", ledger_path]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_list_and_show(self, ledger_path, capsys):
        assert _sweep(ledger_path) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--ledger", ledger_path]) == 0
        listing = capsys.readouterr().out
        (record,) = RunLedger(ledger_path).load()
        assert record.run_id in listing
        assert main(["runs", "show", record.run_id[:6], "--ledger", ledger_path]) == 0
        detail = capsys.readouterr().out
        assert "argv: sweep" in detail
        assert "mode: serial" in detail
        assert "deterministic counters" in detail

    def test_show_unknown_id_fails(self, ledger_path, capsys):
        assert _sweep(ledger_path) == 0
        assert main(["runs", "show", "zzzz", "--ledger", ledger_path]) == 1
        assert "no run" in capsys.readouterr().err

    def test_diff_identical_runs_exits_zero(self, ledger_path, capsys):
        """The acceptance flow: same invocation twice -> byte-identical."""
        assert _sweep(ledger_path) == 0
        assert _sweep(ledger_path) == 0
        a, b = [r.run_id for r in RunLedger(ledger_path).load()]
        capsys.readouterr()
        assert main(["runs", "diff", a, b, "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "identical across" in out
        assert "(same options hash, as required)" in out

    def test_diff_detects_drift_and_exits_nonzero(self, ledger_path, capsys):
        ledger = RunLedger(ledger_path)
        for run_id, stalls in (("a" * 12, 4), ("b" * 12, 9)):
            ledger.append(
                RunRecord(
                    run_id=run_id,
                    timestamp=0.0,
                    command="sweep",
                    argv=("sweep",),
                    options_hash="feedfacecafe",
                    git_sha="deadbeef",
                    machine={},
                    wall_s=1.0,
                    outcome="ok",
                    metrics={
                        "deterministic": {
                            "counters": {"sim.stalls": stalls},
                            "histograms": {},
                        },
                        "all": {},
                    },
                )
            )
        assert main(["runs", "diff", "a" * 12, "b" * 12, "--ledger", ledger_path]) == 1
        out = capsys.readouterr().out
        assert "DRIFT despite identical options hash" in out

    def test_runs_commands_never_self_record(self, ledger_path):
        assert _sweep(ledger_path) == 0
        before = len(RunLedger(ledger_path).load())
        assert main(["runs", "list", "--ledger", ledger_path]) == 0
        assert len(RunLedger(ledger_path).load()) == before


class TestDashCommand:
    def test_dashboard_from_ledger_and_history(
        self, ledger_path, tmp_path, capsys
    ):
        """The acceptance flow: >=2 runs, a bench trend, a sync timeline,
        all in one self-contained file."""
        assert _sweep(ledger_path) == 0
        assert _sweep(ledger_path) == 0
        history = str(tmp_path / "bench.jsonl")
        for _ in range(2):
            assert (
                main(
                    [
                        "bench",
                        "record",
                        "--suite",
                        "fig",
                        "--n",
                        "20",
                        "--history",
                        history,
                    ]
                )
                == 0
            )
        out = str(tmp_path / "dashboard.html")
        assert (
            main(
                [
                    "dash",
                    "--out",
                    out,
                    "--ledger",
                    ledger_path,
                    "--history",
                    history,
                ]
            )
            == 0
        )
        html = open(out, encoding="utf-8").read()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count('data-run="1"') >= 2
        assert "<svg" in html  # the bench trend chart
        assert "sync (sync-aware scheduler)" in html  # embedded sync timeline
        assert 'src="http' not in html and 'href="http' not in html

    def test_dash_works_with_empty_inputs(self, ledger_path, tmp_path, capsys):
        out = str(tmp_path / "dashboard.html")
        history = str(tmp_path / "missing.jsonl")
        assert (
            main(
                [
                    "dash",
                    "--out",
                    out,
                    "--ledger",
                    ledger_path,
                    "--history",
                    history,
                    "--no-walkthrough",
                ]
            )
            == 0
        )
        assert "no runs recorded" in open(out, encoding="utf-8").read()
