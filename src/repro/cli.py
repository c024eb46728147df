"""Command-line interface: ``python -m repro <command>`` (or the ``repro``
console script).

Since the service split (PR 7) this module is a thin argparse client of
:mod:`repro.service.ops`: every subcommand is an entry in
:data:`repro.service.ops.OP_REGISTRY`, which contributes its subparser,
its ``--help`` epilogue row, and its implementation (a typed op
returning an :class:`~repro.service.ops.OpResult`).  The HTTP service
(``repro serve``, :mod:`repro.service.server`) is a second client of the
same registry, so the two surfaces cannot drift on supported
operations.  Subcommand output is byte-identical to the pre-split
driver — enforced by ``tests/integration/test_cli_parity.py``.

Global flags work with every command and share one recording tracer:
``--profile`` prints the recorded spans as a per-stage table on stderr;
``--trace-out FILE`` writes them as a Chrome trace-event file (load it
at ``chrome://tracing`` or https://ui.perfetto.dev); ``--journal-out
FILE`` writes them plus a metrics snapshot as JSON lines.  See
``docs/observability.md`` and ``docs/service.md``.

The pre-split helpers (``cmd_compile`` … ``cmd_dash``, ``SCHEDULERS``,
``_read_source``, ``_sweep_results``, …) were removed in 2.0.0; import
the ops from :mod:`repro.service.ops` instead (``docs/api.md`` has the
migration table).
"""

from __future__ import annotations

import argparse
import sys

from repro.service.ops import OP_REGISTRY, OpResult, op_epilog


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.ledger import DEFAULT_LEDGER

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hwang (IPPS 1997) instruction-scheduling reproduction toolkit",
        epilog=op_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="time the pipeline stages (recorded spans) and print a table to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record pipeline spans and write a Chrome trace-event file",
    )
    parser.add_argument(
        "--journal-out",
        metavar="FILE",
        default=None,
        help="record pipeline spans/metrics and write a JSON-lines journal",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _ledger_flag(p) -> None:
        """Arm the run ledger for this subcommand (``repro sweep --ledger
        ...``; argparse global flags would have to precede the
        subcommand, so the flag lives on each subparser instead)."""
        p.add_argument(
            "--ledger",
            metavar="FILE",
            nargs="?",
            default=None,
            const=DEFAULT_LEDGER,
            help="append a run record to this JSONL ledger "
            f"(bare --ledger means {DEFAULT_LEDGER}; see `repro runs` / "
            "`repro dash`; default: off)",
        )

    for spec in OP_REGISTRY.values():
        spec.configure(sub, _ledger_flag)
    return parser


def _emit(result: OpResult) -> None:
    """Write an op's captured streams to the real stdout/stderr."""
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    recorder = None
    journal_registry = None
    progress_sink = None
    if args.profile or args.trace_out or args.journal_out:
        from repro.obs import RecordingTracer, add_tracer

        recorder = RecordingTracer()
        add_tracer(recorder)
        if args.journal_out and args.command != "metrics":
            from repro.obs import enable_metrics

            journal_registry = enable_metrics()
        if args.journal_out:
            from repro.obs import RecordingProgressSink, add_progress_sink

            progress_sink = RecordingProgressSink()
            add_progress_sink(progress_sink)
    # --ledger on a workload subcommand arms the run recorder.  The query
    # ops (spec.records=False: `runs`, `dash`, `serve`, `loadtest`) take
    # --ledger as the store to READ/serve and never record themselves.
    run_recorder = None
    if getattr(args, "ledger", None) and args.spec.records:
        from repro.obs.ledger import RunRecorder, _set_recorder

        command = args.command
        if getattr(args, "bench_command", None):
            command = f"{args.command} {args.bench_command}"
        run_recorder = RunRecorder(command, args.ledger, argv=raw_argv)
        _set_recorder(run_recorder)
    exit_code: int | None = None
    try:
        result = args.spec.run(args)
        _emit(result)
        exit_code = result.exit_code
        return exit_code
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        exit_code = 0
        return 0
    except BaseException as err:
        if run_recorder is not None:
            run_recorder.finish("error", f"{type(err).__name__}: {err}")
        raise
    finally:
        if recorder is not None:
            from repro.obs import remove_tracer

            remove_tracer(recorder)
            if journal_registry is not None:
                from repro.obs import disable_metrics

                disable_metrics()
            if progress_sink is not None:
                from repro.obs import remove_progress_sink

                remove_progress_sink(progress_sink)
            if args.trace_out:
                from repro.obs import write_chrome_trace

                write_chrome_trace(args.trace_out, recorder.events)
                print(f"wrote {len(recorder.events)} spans to {args.trace_out}", file=sys.stderr)
            if args.journal_out:
                from repro.obs import write_journal

                write_journal(
                    args.journal_out,
                    recorder.events,
                    journal_registry,
                    progress=progress_sink.events if progress_sink else None,
                )
                print(f"wrote journal to {args.journal_out}", file=sys.stderr)
        if run_recorder is not None:
            from repro.obs.ledger import _set_recorder

            if args.trace_out:
                run_recorder.add_artifact(args.trace_out)
            if args.journal_out:
                run_recorder.add_artifact(args.journal_out)
            outcome = "ok" if exit_code in (0, None) else f"exit {exit_code}"
            run_recorder.finish(outcome)
            _set_recorder(None)
        if args.profile:
            from repro.obs import stage_table

            print(
                f"\n== pipeline stage profile ==\n{stage_table(recorder.events)}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
