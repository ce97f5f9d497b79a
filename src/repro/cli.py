"""Command-line interface.

Examples::

    python -m repro generate SAF TF
    python -m repro simulate "MarchC-" SAF TF ADF CFIN CFID
    python -m repro simulate "{any(w0); up(r0,w1); down(r1)}" SAF
    python -m repro simulate MarchC- SAF TF --store results.sqlite
    python -m repro campaign examples/campaign_table3.json --store results.sqlite
    python -m repro serve results.sqlite --socket verdict.sock
    python -m repro campaign examples/campaign_table3.json --jobs 4 \\
        --store repro+unix://verdict.sock
    python -m repro store stats --socket verdict.sock
    python -m repro campaign examples/campaign_table3.json \\
        --metrics metrics.json --trace spans.jsonl
    python -m repro report metrics.json
    python -m repro report diff baseline.json current.json \\
        --fail-on-regression 0.01
    python -m repro catalog
    python -m repro models
    python -m repro table3
    python -m repro dot tpg CFID
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import coverage_report
from .core.config import GeneratorConfig
from .core.generator import MarchTestGenerator
from .faults.faultlist import FaultList
from .faults.library import MODEL_REGISTRY
from .kernel import BACKENDS, SimulationKernel
from .march.catalog import CATALOG, by_name
from .march.test import MarchTest, parse_march


def _resolve_test(text: str) -> MarchTest:
    """A catalog name or literal March notation."""
    try:
        return by_name(text)
    except KeyError:
        return parse_march(text, name="cli")


def _fault_list(names: List[str]) -> FaultList:
    return FaultList.from_names(*names)


#: The CLI's simulation backend when ``--backend`` is not given.  The
#: word-packed engine packs the whole standard fault library, so the
#: generator verifies each candidate in one packed shared-prefix walk
#: of its order realizations; ``--backend serial`` remains selectable
#: as the scalar reference.
DEFAULT_BACKEND = "bitparallel"


def _telemetry_for(args: argparse.Namespace):
    """A live Telemetry handle when --metrics/--trace asked for one.

    ``None`` otherwise, so uninstrumented invocations keep the shared
    no-op telemetry and its zero-cost guarantee.
    """
    if (getattr(args, "metrics", None) is None
            and getattr(args, "trace", None) is None):
        return None
    from .telemetry import Telemetry

    return Telemetry()


def _write_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Flush --metrics / --trace artifacts, if they were requested."""
    if telemetry is None:
        return
    from .telemetry import write_snapshot, write_span_log

    if getattr(args, "metrics", None):
        write_snapshot(telemetry.snapshot(), args.metrics)
    if getattr(args, "trace", None):
        write_span_log(telemetry.span_trees(), args.trace)


def _kernel(args: argparse.Namespace, telemetry=None) -> SimulationKernel:
    """The simulation kernel for one CLI invocation."""
    return SimulationKernel(
        backend=getattr(args, "backend", DEFAULT_BACKEND),
        store=getattr(args, "store", None),
        store_readonly=getattr(args, "store_readonly", False),
        telemetry=telemetry,
    )


def _maybe_print_stats(args: argparse.Namespace, kernel: SimulationKernel) -> None:
    if getattr(args, "sim_stats", False):
        print(f"simulation {kernel.describe_stats()}")


def cmd_generate(args: argparse.Namespace) -> int:
    telemetry = _telemetry_for(args)
    config = GeneratorConfig(
        prefer_uniform_start=not args.no_start_constraint,
        tighten=not args.no_tighten,
        polish=not args.no_polish,
        selection_limit=1 if args.no_equivalence else args.selection_limit,
        backend=args.backend,
        store_path=args.store,
        store_readonly=args.store_readonly,
        telemetry=telemetry,
    )
    generator = MarchTestGenerator(config)
    try:
        report = generator.generate(_fault_list(args.faults))
        print(report.summary())
        _maybe_print_stats(args, generator.kernel)
    finally:
        # Snapshot after close so checkpoint timings land in it.
        generator.kernel.close()
        _write_telemetry(args, telemetry)
    return 0 if report.verified else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    test = _resolve_test(args.test)
    faults = _fault_list(args.faults)
    telemetry = _telemetry_for(args)
    kernel = _kernel(args, telemetry)
    try:
        report = coverage_report(test, faults, size=args.size, kernel=kernel)
        print(report)
        _maybe_print_stats(args, kernel)
    finally:
        kernel.close()
        _write_telemetry(args, telemetry)
    return 0 if all(m.complete for m in report.models) else 1


def cmd_catalog(args: argparse.Namespace) -> int:
    for name in sorted(CATALOG, key=lambda n: CATALOG[n].complexity):
        test = CATALOG[name]
        print(f"{name:10s} {test.complexity_label:>4s}  {test}")
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    for name in sorted(MODEL_REGISTRY):
        model = MODEL_REGISTRY[name]()
        classes = model.classes()
        print(
            f"{name:6s} {type(model).__name__:28s}"
            f" {len(classes):2d} BFE classes"
        )
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    rows = [
        ("SAF",),
        ("SAF", "TF"),
        ("SAF", "TF", "ADF"),
        ("SAF", "TF", "ADF", "CFIN"),
        ("SAF", "TF", "ADF", "CFIN", "CFID"),
        ("CFIN",),
    ]
    paper = [4, 5, 6, 6, 10, 5]
    generator = MarchTestGenerator()
    failures = 0
    for names, expected in zip(rows, paper):
        report = generator.generate(_fault_list(list(names)))
        ok = report.complexity == expected
        failures += not ok
        print(
            f"{'+'.join(names):28s} {report.complexity_label:>4s}"
            f" (paper {expected}n) {report.elapsed_seconds:6.2f}s"
            f" {'ok' if ok else 'DIFFERS'}  {report.test}"
        )
    return 1 if failures else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .simulator.coverage import coverage_matrix, demotion_redundant_blocks

    test = _resolve_test(args.test)
    faults = _fault_list(args.faults)
    telemetry = _telemetry_for(args)
    kernel = _kernel(args, telemetry)
    try:
        report = coverage_report(test, faults, size=args.size, kernel=kernel)
        print(report)
        cases = faults.instances(args.size)
        cm = coverage_matrix(test, cases, args.size, kernel=kernel)
        # The verdict covers every order realization; the Coverage
        # Matrix only the ascending one.
        redundant = demotion_redundant_blocks(
            test, cases, args.size, kernel=kernel
        )
        if not all(model.complete for model in report.models):
            verdict = "incomplete"
        else:
            verdict = "redundant" if redundant else "non-redundant"
        print(f"covers all cases : {cm.covers_all}")
        print(f"block analysis   : {verdict}"
              f" ({len(cm.blocks)} elementary blocks)")
        if redundant:
            blocks = ", ".join(block.describe(test) for block in redundant)
            print(f"redundant blocks : {blocks}")
        _maybe_print_stats(args, kernel)
    finally:
        kernel.close()
        _write_telemetry(args, telemetry)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from .diagnosis import build_dictionary_for

    test = _resolve_test(args.test)
    faults = _fault_list(args.faults)
    telemetry = _telemetry_for(args)
    kernel = _kernel(args, telemetry)
    try:
        dictionary = build_dictionary_for(
            test, faults, args.size, kernel=kernel
        )
        print(f"fault cases        : {dictionary.case_count}")
        print(f"distinct syndromes : {dictionary.syndromes}")
        print(f"unique resolution  : {dictionary.resolution() * 100:.0f}%")
        undetected = dictionary.undetected_cases()
        if undetected:
            print(f"undetected         : {', '.join(undetected)}")
        _maybe_print_stats(args, kernel)
    finally:
        kernel.close()
        _write_telemetry(args, telemetry)
    return 0 if not undetected else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import time

    from .store.campaign import CampaignSpec, run_campaign, summarize, \
        write_manifest

    spec = CampaignSpec.from_file(args.spec)

    pipe_gone = False
    # Operator-facing progress rate only: never lands in the manifest
    # or any compared artifact, so wall time is the right clock here.
    # repro-lint: disable=injectable-clock -- display-only elapsed time
    started = time.monotonic()

    def live_progress(done: int, total: int, record: dict) -> None:
        # A consumer cutting the pipe short (| head) must cost the
        # progress lines, never the campaign or its manifest.
        nonlocal pipe_gone
        if pipe_gone:
            return
        status = (
            "ok" if record["error"] is None
            else f"FAILED: {record['error']}"
        )
        timing = (
            f" {record['seconds'] * 1e3:8.1f} ms"
            if record["seconds"] is not None else ""
        )
        # repro-lint: disable=injectable-clock -- same progress display
        elapsed = time.monotonic() - started
        rate = done / elapsed if elapsed > 0 else 0.0
        try:
            print(
                f"[{done}/{total}] {record['backend']}"
                f" @ size {record['size']}"
                f" {record['test']}{timing} {status}"
                f" [{elapsed:.1f}s, {rate:.1f} jobs/s]",
                flush=True,
            )
        except BrokenPipeError:
            pipe_gone = True

    from .store.service import ServiceUnavailableError

    try:
        manifest = run_campaign(
            spec,
            store_path=args.store,
            store_readonly=args.store_readonly,
            jobs=args.jobs,
            progress=live_progress,
        )
    except ServiceUnavailableError as error:
        # The up-front daemon probe failed: with no store to run
        # against, one diagnostic, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Persist the artifact before printing: a consumer cutting the
    # pipe short (| head) must not cost the manifest.
    path = write_manifest(manifest, args.manifest)
    if args.metrics or args.trace:
        # Campaign jobs always run instrumented; the artifacts are
        # derived from the manifest rather than a process-local
        # registry so --jobs N sees every worker's numbers.
        from .telemetry import write_snapshot, write_span_log

        if args.metrics:
            write_snapshot(
                (manifest.get("telemetry") or {}).get("metrics", {}),
                args.metrics,
            )
        if args.trace:
            trees = [
                span
                for record in manifest["jobs"]
                if record.get("telemetry")
                for span in record["telemetry"]["spans"]
            ]
            write_span_log(trees, args.trace)
    if not pipe_gone:
        try:
            print(summarize(manifest))
            print(f"wrote {path}")
        except BrokenPipeError:
            pass
    return 1 if manifest["totals"]["failed"] else 0


def cmd_report(args: argparse.Namespace) -> int:
    import json as json_module
    import os

    from .telemetry.report import (
        ReportError,
        diff_payloads,
        load_payload,
        render_diff,
        render_report,
        report_json,
    )

    def emit(text: str) -> bool:
        # Reports are long tables; `| head` must cut them quietly,
        # not with a traceback (same contract as campaign progress).
        try:
            print(text, flush=True)
            return True
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return False

    try:
        if args.paths and args.paths[0] == "diff":
            if len(args.paths) != 3:
                raise ReportError(
                    "repro report diff needs exactly two files: diff A B"
                )
            kind_a, payload_a = load_payload(args.paths[1])
            kind_b, payload_b = load_payload(args.paths[2])
            threshold = (
                args.fail_on_regression
                if args.fail_on_regression is not None else 0.0
            )
            diff = diff_payloads(
                kind_a, payload_a, kind_b, payload_b, threshold
            )
            if args.json:
                emit(json_module.dumps(diff, indent=2, sort_keys=True))
            else:
                emit(render_diff(diff))
            # Informational by default; only --fail-on-regression turns
            # a regression into a failing exit code (CI gate).
            if args.fail_on_regression is not None and diff["regressions"]:
                return 1
            return 0
        if len(args.paths) != 1:
            raise ReportError(
                "repro report renders one file (or: repro report diff A B)"
            )
        kind, payload = load_payload(args.paths[0])
        if args.json:
            emit(json_module.dumps(
                report_json(kind, payload), indent=2, sort_keys=True,
            ))
        else:
            emit(render_report(kind, payload))
        return 0
    except ReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from .store.service import VerdictService

    service = VerdictService(
        args.store,
        args.socket,
        idle_timeout=args.idle_timeout,
        checkpoint_interval=args.checkpoint_interval,
        hot_lru_size=args.hot_lru_size,
        max_clients=args.max_clients,
    )
    service.start()

    def on_signal(signum: int, frame: object) -> None:
        service.request_stop()

    # SIGTERM/SIGINT flag the stop; the teardown (WAL checkpoint,
    # socket unlink) runs below, in the main thread.
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    print(
        f"verdict service: store {service.store_path} on"
        f" {service.socket_path} (pid {os.getpid()});"
        f" point clients at --store {service.url}",
        flush=True,
    )
    try:
        service.wait()
        summary = service.snapshot_stats()
    finally:
        service.stop()
    stats = summary["store_stats"]
    print(
        f"verdict service stopped: {summary['row_stats']['rows']} rows,"
        f" {stats['hits']} hits / {stats['misses']} misses /"
        f" {stats['writes']} writes over"
        f" {summary['clients']['total']} client(s)"
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    import json as json_module

    from .store import FaultDictionaryStore, StoreError

    def emit(payload: dict, human: str) -> None:
        if args.json:
            print(json_module.dumps(payload, indent=2, sort_keys=True))
        else:
            print(human)

    if getattr(args, "socket", None) and getattr(args, "path", None):
        # Silent precedence would compact/inspect the daemon's store
        # while the operator believes PATH was touched.
        raise StoreError(
            f"give either a store PATH or --socket, not both"
            f" (got {args.path} and --socket {args.socket})"
        )

    if args.store_command == "ping":
        from .store.service import ServiceStore

        # One probe: ping answers "is it up *right now*", and scripts
        # polling in a loop supply their own cadence.
        client = ServiceStore(args.socket, timeout=args.timeout)
        try:
            # health, not ping: same liveness answer plus row totals
            # and service-time figures, still one round trip.
            payload = client.health()
        except StoreError as error:
            if args.json:
                print(json_module.dumps(
                    {"ok": False, "error": str(error)},
                    indent=2, sort_keys=True,
                ))
            else:
                print(f"no verdict service on {args.socket}: {error}",
                      file=sys.stderr)
            return 1
        finally:
            client.close()
        rows = payload.get("rows") or {}
        emit(payload, (
            f"verdict service on {args.socket}: pid {payload['pid']},"
            f" protocol {payload['protocol']},"
            f" store {payload['store']}"
            f" ({rows.get('rows', 0)} rows)"
        ))
        return 0

    if args.store_command == "stats":
        if args.socket:
            from .store.service import ServiceStore

            with ServiceStore(args.socket) as client:
                payload = client.server_stats()
                # Same connection: the metrics registry rides along so
                # scripts get counters + histograms without a second
                # client.
                payload["metrics"] = client.metrics()
            rows = payload["row_stats"]
            store_stats = payload["store_stats"]
            clients = payload["clients"]
            per_client = ", ".join(
                f"#{client_id}: {c['hits']}h/{c['misses']}m/{c['writes']}w"
                for client_id, c in sorted(
                    clients["per_client"].items(), key=lambda kv: int(kv[0])
                )
            )
            emit(payload, (
                f"service [{args.socket}] pid {payload['pid']}:"
                f" {rows['rows']} rows,"
                f" {store_stats['hits']} hits / {store_stats['misses']}"
                f" misses / {store_stats['writes']} writes,"
                f" {clients['active']}/{clients['total']} client(s)"
                f" connected ({per_client})"
            ))
            return 0
        if args.path is None:
            raise StoreError("store stats needs a PATH or --socket")
        with FaultDictionaryStore(args.path, readonly=True) as store:
            stats = store.row_stats()
        domains = ", ".join(
            f"{domain}: {count}"
            for domain, count in sorted(stats["by_domain"].items())
        )
        emit(stats, (
            f"store [{args.path}] schema {stats['schema_version']}:"
            f" {stats['rows']} rows ({domains or 'empty'}),"
            f" {stats['bytes']} bytes"
        ))
        return 0

    if args.store_command == "compact":
        from pathlib import Path

        if args.socket:
            from .store.service import ServiceStore

            with ServiceStore(args.socket) as client:
                stats = client.compact(
                    max_rows=args.max_rows,
                    max_age=args.max_age,
                    vacuum=not args.no_vacuum,
                )
        else:
            if args.path is None:
                raise StoreError("store compact needs a PATH or --socket")
            # Writable opens create missing files; a compaction target
            # must already exist or a typo'd path would silently
            # "compact" a fresh empty store.
            if not Path(args.path).exists():
                raise StoreError(f"store {args.path} does not exist")
            with FaultDictionaryStore(args.path) as store:
                stats = store.compact(
                    max_rows=args.max_rows,
                    max_age=args.max_age,
                    vacuum=not args.no_vacuum,
                )
        emit(stats, (
            f"store [{stats['path']}]: {stats['rows_before']} rows ->"
            f" {stats['rows_after']}"
            f" (-{stats['removed_by_age']} by age,"
            f" -{stats['removed_by_cap']} by cap),"
            f" {stats['bytes_before']} -> {stats['bytes_after']} bytes"
        ))
        return 0

    if args.store_command == "shutdown":
        from .store.service import ServiceStore

        with ServiceStore(args.socket) as client:
            payload = client.shutdown_server(drain=args.drain)
        emit(payload, (
            f"verdict service on {args.socket} "
            + ("draining (in-flight batches finish, then it stops)"
               if args.drain else "stopping")
        ))
        return 0

    if args.store_command == "merge":
        totals = {"source_rows": 0, "inserted": 0, "merged": 0}
        with FaultDictionaryStore(args.dest) as store:
            for source in args.sources:
                stats = store.merge_from(source)
                for field in totals:
                    totals[field] += stats[field]
        emit(totals, (
            f"store [{args.dest}]: merged {len(args.sources)} sources,"
            f" {totals['source_rows']} rows read,"
            f" {totals['inserted']} inserted,"
            f" {totals['merged']} conflict-resolved"
        ))
        return 0

    raise AssertionError(args.store_command)


def cmd_export(args: argparse.Namespace) -> int:
    from .export import to_assembly, to_csv

    test = _resolve_test(args.test)
    if args.format == "csv":
        print(to_csv(test, args.size))
    elif args.format == "asm":
        print(to_assembly(test))
    else:
        from .render import march_to_latex

        print(march_to_latex(test))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from . import viz
    from .memory.mealy import good_machine

    if args.what == "m0":
        print(viz.mealy_dot(good_machine(), "M0"))
        return 0
    if args.what == "tpg":
        from .core.selection import enumerate_selections
        from .patterns.tpg import TestPatternGraph

        faults = _fault_list(args.faults)
        selection = next(enumerate_selections(faults.classes(), 1))
        tpg = TestPatternGraph()
        for cls_name, pattern in selection.choices:
            tpg.add(pattern, cls_name)
        print(viz.tpg_dot(tpg))
        return 0
    raise AssertionError(args.what)


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .devtools.lint import render_json, render_text, run_lint

    paths = list(args.paths)
    if not paths:
        # Bare `repro lint` in a checkout lints the usual gate targets;
        # anywhere else it lints the installed package itself.
        paths = [p for p in ("src/repro", "benchmarks") if Path(p).exists()]
        if not paths:
            paths = [str(Path(__file__).parent)]
    try:
        result = run_lint(paths, only=args.rule or ())
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        print(f"repro lint: {error.args[0]}", file=sys.stderr)
        return 2
    render = render_json if args.json else render_text
    sys.stdout.write(
        render(result.findings, result.checked_files, result.waived)
    )
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic March test generation (Benso et al., DATE 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_options(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--store", metavar="PATH", default=None,
            help="persistent fault-dictionary store: an SQLite file"
                 " path, or a repro+unix:///path/to.sock verdict-service"
                 " URL (see `repro serve`); verdicts are read through"
                 " and written through it, so repeated invocations share"
                 " simulation work across processes",
        )
        command_parser.add_argument(
            "--store-readonly", action="store_true",
            help="open the store for lookups only (no verdict writes)",
        )

    def add_telemetry_options(
        command_parser: argparse.ArgumentParser,
    ) -> None:
        command_parser.add_argument(
            "--metrics", metavar="PATH", default=None,
            help="write a JSON metrics snapshot (counters, gauges,"
                 " latency histograms) on exit; render or diff it with"
                 " `repro report`",
        )
        command_parser.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write the span trace as JSON-lines (one span per"
                 " line, with depth/parent/seconds) on exit",
        )

    def add_kernel_options(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--backend", choices=sorted(BACKENDS), default=DEFAULT_BACKEND,
            help="simulation kernel execution backend"
                 f" (default: {DEFAULT_BACKEND}; serial is the scalar"
                 " reference engine)",
        )
        command_parser.add_argument(
            "--sim-stats", action="store_true",
            help="print the kernel's cache hit/miss/eviction statistics,"
                 " the store's second-tier counters (with --store) and"
                 " the per-backend task routing breakdown",
        )
        add_telemetry_options(command_parser)
        add_store_options(command_parser)

    gen = sub.add_parser("generate", help="generate a March test")
    gen.add_argument("faults", nargs="+", help="fault model names (e.g. SAF TF)")
    gen.add_argument("--no-equivalence", action="store_true",
                     help="disable Section 5 class enumeration")
    gen.add_argument("--no-start-constraint", action="store_true",
                     help="disable the f.4.4 start-state preference")
    gen.add_argument("--no-tighten", action="store_true")
    gen.add_argument("--no-polish", action="store_true")
    gen.add_argument("--selection-limit", type=int, default=128)
    add_kernel_options(gen)
    gen.set_defaults(fn=cmd_generate)

    sim = sub.add_parser("simulate", help="fault-simulate a March test")
    sim.add_argument("test", help="catalog name or March notation")
    sim.add_argument("faults", nargs="+")
    sim.add_argument("--size", type=int, default=3)
    add_kernel_options(sim)
    sim.set_defaults(fn=cmd_simulate)

    cat = sub.add_parser("catalog", help="list known March tests")
    cat.set_defaults(fn=cmd_catalog)

    models = sub.add_parser("models", help="list fault models")
    models.set_defaults(fn=cmd_models)

    table = sub.add_parser("table3", help="reproduce the paper's Table 3")
    table.set_defaults(fn=cmd_table3)

    analyze = sub.add_parser(
        "analyze", help="coverage + non-redundancy analysis of a test"
    )
    analyze.add_argument("test")
    analyze.add_argument("faults", nargs="+")
    analyze.add_argument("--size", type=int, default=3)
    add_kernel_options(analyze)
    analyze.set_defaults(fn=cmd_analyze)

    diag = sub.add_parser(
        "diagnose", help="build a syndrome dictionary for a test"
    )
    diag.add_argument("test")
    diag.add_argument("faults", nargs="+")
    diag.add_argument("--size", type=int, default=3)
    add_kernel_options(diag)
    diag.set_defaults(fn=cmd_diagnose)

    camp = sub.add_parser(
        "campaign",
        help="run a declarative tests x faults x sizes x backends sweep,"
             " deduplicated through the store",
    )
    camp.add_argument("spec", help="campaign spec (JSON file)")
    camp.add_argument(
        "--manifest", metavar="PATH", default="campaign_manifest.json",
        help="where to write the machine-readable results manifest",
    )
    camp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker-pool width: fan the campaign's jobs out over N"
             " processes (default 1 = sequential); the manifest stays"
             " deterministic regardless of N",
    )
    add_telemetry_options(camp)
    add_store_options(camp)
    camp.set_defaults(fn=cmd_campaign)

    report = sub.add_parser(
        "report",
        help="render a metrics snapshot, campaign manifest or kernel"
             " bench record as a table, or `report diff A B` to compare"
             " two for coverage/timing regressions",
    )
    report.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="one file to render, or: diff OLD NEW",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the machine-readable JSON report instead of text",
    )
    report.add_argument(
        "--fail-on-regression", type=float, default=None, metavar="THRESH",
        help="with diff: exit 1 when coverage drops by more than THRESH"
             " (absolute fraction) or timings regress by more than"
             " THRESH (relative ratio); without this flag the diff is"
             " informational and always exits 0",
    )
    report.set_defaults(fn=cmd_report)

    from .store.service import (
        DEFAULT_CHECKPOINT_INTERVAL_SECONDS,
        DEFAULT_HOT_LRU_SIZE,
        DEFAULT_IDLE_TIMEOUT_SECONDS,
        DEFAULT_MAX_CLIENTS,
    )

    serve = sub.add_parser(
        "serve",
        help="run the verdict-service daemon: one process owns the"
             " writable store, every client talks to it over a Unix"
             " socket instead of opening SQLite",
        epilog="The daemon runs a single-threaded event loop serving"
               " pipelined length-prefixed JSON frames; the wire"
               " contract is specified in docs/PROTOCOL.md and the"
               " operator's runbook (start/stop, tuning, liveness"
               " probing, drain-then-exit rolling restarts) is"
               " docs/OPERATIONS.md.",
    )
    serve.add_argument("store", help="store file (SQLite) the daemon owns")
    serve.add_argument(
        "--socket", metavar="SOCK", default=None,
        help="Unix socket path to listen on (default: <store>.sock);"
             " clients connect with --store repro+unix://SOCK",
    )
    serve.add_argument(
        "--idle-timeout", type=float,
        default=DEFAULT_IDLE_TIMEOUT_SECONDS, metavar="SECONDS",
        help="reap a client connection after SECONDS without a request"
             " (its ledger entry retires cleanly; the client"
             " reconnects on its next request); 0 disables"
             f" (default {DEFAULT_IDLE_TIMEOUT_SECONDS:g} s)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float,
        default=DEFAULT_CHECKPOINT_INTERVAL_SECONDS,
        metavar="SECONDS",
        help="fold the store's WAL back into the main file every"
             " SECONDS in the background; 0 disables"
             f" (default {DEFAULT_CHECKPOINT_INTERVAL_SECONDS:g} s)",
    )
    serve.add_argument(
        "--hot-lru-size", type=int, default=DEFAULT_HOT_LRU_SIZE,
        metavar="N",
        help="keep up to N verdicts in an in-memory hot tier so"
             " read-mostly traffic never touches SQLite; recency is per"
             " (signature, size, domain) group (hits surface as"
             " repro.service.hot_lru.* metrics); 0 disables and every"
             f" lookup goes to the store (default {DEFAULT_HOT_LRU_SIZE})",
    )
    serve.add_argument(
        "--max-clients", type=int, default=DEFAULT_MAX_CLIENTS,
        metavar="N",
        help="refuse connections beyond N concurrent clients (the"
             " refused client sees a transient hangup);"
             f" 0 removes the cap (default {DEFAULT_MAX_CLIENTS})",
    )
    serve.set_defaults(fn=cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect and maintain a persistent fault-dictionary store",
        epilog="Daemon-facing subcommands (--socket) talk to a `repro"
               " serve` daemon, which reaps idle clients after"
               f" {DEFAULT_IDLE_TIMEOUT_SECONDS:g} s and checkpoints"
               f" its WAL every {DEFAULT_CHECKPOINT_INTERVAL_SECONDS:g}"
               " s by default; see docs/OPERATIONS.md for the runbook"
               " and docs/PROTOCOL.md for the wire contract.",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="row population, per-domain breakdown, file size;"
                      " with --socket, a verdict service's full ledger"
                      " including per-client hit/miss/write counters"
    )
    store_stats.add_argument(
        "path", nargs="?", default=None, help="store file (SQLite)"
    )
    store_stats.add_argument(
        "--socket", metavar="SOCK", default=None,
        help="ask the verdict service on this Unix socket instead of"
             " opening a store file",
    )
    store_compact = store_sub.add_parser(
        "compact",
        help="prune stale rows (LRU by last_used) and reclaim disk space",
    )
    store_compact.add_argument(
        "path", nargs="?", default=None, help="store file (SQLite)"
    )
    store_compact.add_argument(
        "--socket", metavar="SOCK", default=None,
        help="compact through the verdict service on this Unix socket"
             " instead of opening a store file",
    )
    store_compact.add_argument(
        "--max-rows", type=int, default=None, metavar="N",
        help="keep at most N rows, dropping the least recently used",
    )
    store_compact.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="drop rows not used within the last SECONDS seconds",
    )
    store_compact.add_argument(
        "--no-vacuum", action="store_true",
        help="skip the VACUUM that returns freed pages to the filesystem",
    )
    store_merge = store_sub.add_parser(
        "merge",
        help="fold one or more source stores into a destination store"
             " (newest last_used wins conflicting verdicts)",
    )
    store_merge.add_argument("dest", help="destination store file")
    store_merge.add_argument(
        "sources", nargs="+", help="source store files to merge in"
    )
    store_shutdown = store_sub.add_parser(
        "shutdown",
        help="gracefully stop a verdict-service daemon (it checkpoints"
             " its WAL and unlinks the socket)",
    )
    store_shutdown.add_argument(
        "--socket", metavar="SOCK", required=True,
        help="Unix socket the verdict service listens on",
    )
    store_shutdown.add_argument(
        "--drain", action="store_true",
        help="drain-then-exit (rolling restart): immediately refuse new"
             " connections, finish the batches already received from"
             " every client, checkpoint the WAL, then stop -- see"
             " docs/OPERATIONS.md",
    )
    store_ping = store_sub.add_parser(
        "ping",
        help="probe verdict-service liveness: exit 0 with the health"
             " payload (identity, row totals, service times), exit 1 if"
             " nothing answers (no store file is opened client-side)",
    )
    store_ping.add_argument(
        "--socket", metavar="SOCK", required=True,
        help="Unix socket the verdict service listens on",
    )
    store_ping.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="socket timeout for the single probe (default 5)",
    )
    for store_parser in (store_stats, store_compact, store_merge,
                         store_shutdown, store_ping):
        store_parser.add_argument(
            "--json", action="store_true",
            help="print the machine-readable JSON report instead of text",
        )
    store.set_defaults(fn=cmd_store)

    export = sub.add_parser("export", help="compile a test to a program")
    export.add_argument("test")
    export.add_argument("--format", choices=["csv", "asm", "latex"],
                        default="asm")
    export.add_argument("--size", type=int, default=8)
    export.set_defaults(fn=cmd_export)

    dot = sub.add_parser("dot", help="emit Graphviz for the paper's figures")
    dot.add_argument("what", choices=["m0", "tpg"])
    dot.add_argument("faults", nargs="*", default=["CFID"])
    dot.set_defaults(fn=cmd_dot)

    lint = sub.add_parser(
        "lint",
        help="run the project's static-analysis rules (docs/LINTS.md)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/repro, benchmarks)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report",
    )
    lint.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule (repeatable)",
    )
    lint.set_defaults(fn=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
