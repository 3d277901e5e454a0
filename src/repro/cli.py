"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro suppression --controller pox --seed 7 --json
    python -m repro interruption
    python -m repro compliance
    python -m repro campaign run matrix.xml --workers 4 --trace
    python -m repro campaign status matrix.xml
    python -m repro campaign report matrix.xml
    python -m repro interruption --controller pox --trace run.jsonl
    python -m repro trace run-pox-secure.jsonl
    python -m repro lint attack.xml --system sys.xml
    python -m repro lint --all --json
    python -m repro compile --system sys.xml --attack-model model.xml \\
        --attack attack.xml --output attack_module.py
    python -m repro graph --system sys.xml --attack attack.xml
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

CONTROLLERS = ("floodlight", "pox", "ryu")


def _print_run_record(experiment: str, attack: Optional[str], controller: str,
                      fail_mode: str, seed: int, params: dict, metrics: dict,
                      wall_duration_s: float,
                      trace: Optional[dict] = None,
                      topology: str = "enterprise") -> None:
    """Emit one single-shot run in the campaign ResultStore record schema.

    Durations are explicit: ``wall_duration_s`` is what this process
    measured around the run; the simulated horizon is lifted from
    ``metrics["sim_duration_s"]`` by ``make_record``.  ``topology`` is
    the network the run used: a fabric name for fabric runs.
    """
    from repro.campaign import RunDescriptor, make_record

    descriptor = RunDescriptor(
        experiment=experiment, attack=attack, controller=controller,
        topology=topology, fail_mode=fail_mode, seed=seed,
        params=dict(params),
    )
    record = make_record(descriptor.to_dict(), "ok", metrics,
                         duration_s=wall_duration_s, trace=trace)
    print(json.dumps(record, sort_keys=True))


def _make_collector(enabled: bool):
    if not enabled:
        return None
    from repro.obs import TraceCollector

    return TraceCollector()


def _dump_trace(tracer, base_path: str, label: str, multi: bool):
    """Write one cell's trace; per-cell suffixes when a command runs many."""
    if tracer is None:
        return None
    from pathlib import Path

    path = Path(base_path)
    if multi:
        suffix = path.suffix or ".jsonl"
        path = path.with_name(f"{path.stem}-{label}{suffix}")
    tracer.dump_jsonl(path)
    print(f"trace: {tracer.events_total} event(s) -> {path}",
          file=sys.stderr)
    return {"path": str(path), "events": tracer.events_total}


def _cmd_suppression(args: argparse.Namespace) -> int:
    from repro.experiments import run_suppression_experiment

    if args.full:
        config = dict(ping_trials=60, iperf_trials=30, iperf_duration_s=10.0,
                      iperf_gap_s=10.0, warmup_s=30.0)
    else:
        config = dict(ping_trials=args.ping_trials, iperf_trials=args.iperf_trials,
                      iperf_duration_s=args.iperf_duration, iperf_gap_s=2.0,
                      warmup_s=5.0)
    controllers = CONTROLLERS if args.controller == "all" else (args.controller,)
    if not args.json:
        header = (f"{'controller':<11} {'mode':<9} {'throughput':>12} "
                  f"{'median RTT':>12} {'loss':>6} {'PACKET_INs':>11}")
        print(header)
        print("-" * len(header))
    for controller in controllers:
        for attacked in (False, True):
            started = time.time()
            tracer = _make_collector(bool(args.trace))
            result = run_suppression_experiment(controller, attacked,
                                                seed=args.seed, trace=tracer,
                                                **config)
            # Suppression always runs baseline + attack, so per-cell
            # trace files are always suffixed.
            trace_info = _dump_trace(
                tracer, args.trace,
                f"{controller}-{'attack' if attacked else 'baseline'}",
                multi=True,
            ) if tracer is not None else None
            if args.json:
                _print_run_record(
                    "suppression",
                    "flow-mod-suppression" if attacked else "passthrough",
                    controller, "secure", args.seed, config,
                    result.record(), time.time() - started,
                    trace=trace_info,
                )
                continue
            rtt = (f"{result.median_rtt_s * 1000:.2f} ms"
                   if result.median_rtt_s is not None else "inf (*)")
            throughput = (f"{result.mean_throughput_mbps:.2f} Mbps"
                          if not result.denial_of_service else "0.0 (*)")
            print(f"{controller:<11} {'attack' if attacked else 'baseline':<9} "
                  f"{throughput:>12} {rtt:>12} {result.ping_loss_rate:>6.0%} "
                  f"{result.packet_ins:>11}")
    return 0


def _cmd_interruption(args: argparse.Namespace) -> int:
    from repro.dataplane import FailMode
    from repro.experiments import run_interruption_experiment

    controllers = CONTROLLERS if args.controller == "all" else (args.controller,)
    for controller in controllers:
        for mode in (FailMode.STANDALONE, FailMode.SECURE):
            started = time.time()
            tracer = _make_collector(bool(args.trace))
            result = run_interruption_experiment(controller, mode,
                                                 seed=args.seed, trace=tracer)
            trace_info = _dump_trace(
                tracer, args.trace, f"{controller}-{mode.value}", multi=True,
            ) if tracer is not None else None
            if args.json:
                _print_run_record(
                    "interruption", "connection-interruption", controller,
                    mode.value, args.seed, {}, result.record(),
                    time.time() - started,
                    trace=trace_info,
                )
                continue
            row = result.row()
            notes = []
            if result.unauthorized_increased_access:
                notes.append("UNAUTHORIZED ACCESS")
            if result.denial_of_service:
                notes.append("DENIAL OF SERVICE")
            if not result.interruption_happened:
                notes.append("phi2 never fired")
            print(f"{controller}/{mode.value}: "
                  + " ".join(f"{k}={v}" for k, v in row.items()
                             if k.startswith(("ext", "int")))
                  + (f"  [{'; '.join(notes)}]" if notes else ""))
    return 0


def _cmd_compliance(args: argparse.Namespace) -> int:
    from repro.experiments.compliance import run_cell, run_compliance_suite

    if args.json:
        started = time.time()
        metrics = run_cell()
        _print_run_record("compliance", None, "none", "secure", 0, {},
                          metrics, time.time() - started)
        return 0 if metrics["all_passed"] else 1
    report = run_compliance_suite()
    print(report.render())
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------- #
# Generated fabrics
# ---------------------------------------------------------------------- #


def _cmd_fabric_gen(args: argparse.Namespace) -> int:
    from repro.dataplane.fabrics import generate_fabric, partition_topology, cut_links

    fabric = generate_fabric(args.name)
    topo = fabric.topology
    info = {
        "fabric": fabric.name,
        "switches": fabric.switch_count,
        "hosts": fabric.host_count,
        "links": len(topo.links),
        "groups": len(fabric.groups),
    }
    if args.regions:
        partition = partition_topology(topo, args.regions,
                                       groups=fabric.groups or None)
        info["regions"] = [len(devices) for devices in partition]
        info["cut_links"] = cut_links(topo, partition)
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"{fabric.name}: {info['switches']} switches, "
              f"{info['hosts']} hosts, {info['links']} links, "
              f"{info['groups']} partition groups")
        if args.regions:
            sizes = ", ".join(str(s) for s in info["regions"])
            print(f"{len(info['regions'])} regions ({sizes} devices), "
                  f"{info['cut_links']} cut links")
    return 0


def _cmd_fabric_run(args: argparse.Namespace) -> int:
    from repro.experiments.fabric import run_fabric_experiment

    kwargs = {}
    if args.workload:
        kwargs["workload"] = args.workload
    if args.packets is not None:
        kwargs["packets"] = args.packets
    if args.horizon is not None:
        kwargs["horizon_s"] = args.horizon
    started = time.time()
    tracer = _make_collector(bool(args.trace))
    result = run_fabric_experiment(
        topology=args.name,
        controller=None if args.controller == "none" else args.controller,
        attack=args.attack,
        fail_mode=args.fail_mode,
        seed=args.seed,
        regions=args.regions,
        shards=args.shards,
        pairs=args.pairs,
        trace=tracer,
        **kwargs,
    )
    trace_info = _dump_trace(tracer, args.trace, args.name, multi=False)
    metrics = result.record()
    if args.json:
        _print_run_record("fabric", args.attack,
                          args.controller, args.fail_mode, args.seed,
                          {"topology": args.name, "shards": args.shards},
                          metrics, time.time() - started,
                          trace=trace_info, topology=args.name)
        return 0
    print(f"{result.fabric}: {result.switches} switches / {result.hosts} hosts "
          f"in {result.regions} regions on {result.shards} shard(s)")
    if result.packets_sent:
        print(f"udp: {result.packets_delivered}/{result.packets_sent} delivered "
              f"({100 * result.delivery_rate:.1f}%)")
    if result.ping_sent:
        rtt = (f", median rtt {result.median_rtt_s * 1000:.2f} ms"
               if result.median_rtt_s is not None else "")
        print(f"ping: {result.ping_received}/{result.ping_sent} answered{rtt}")
    if result.controller:
        print(f"control: {result.packet_ins} packet-ins, "
              f"{result.flow_mods_seen} flow-mods seen, "
              f"{result.flow_mods_dropped} dropped")
    print(f"events: {result.processed_events} across {result.epochs} epochs "
          f"({result.epochs_skipped} skipped, {result.epochs_widened} widened), "
          f"{result.cross_shard_messages} cross-shard messages")
    if result.shards > 1:
        per_msg = (result.exchange_bytes / result.cross_shard_messages
                   if result.cross_shard_messages else 0.0)
        print(f"exchange: {result.exchange_bytes} bytes in "
              f"{result.exchange_blobs} blobs ({per_msg:.1f} B/message)")
        worker_cpu = ", ".join(f"{cpu:.2f}" for cpu in result.worker_cpu_s)
        print(f"cpu: coordinator {result.coordinator_cpu_s:.2f}s, "
              f"workers [{worker_cpu}]s")
    print(f"wall {result.wall_s:.2f}s, "
          f"{result.wall_packets_per_sec:.0f} pkt/s wall, "
          f"{result.capacity_packets_per_sec:.0f} pkt/s capacity")
    return 0


# ---------------------------------------------------------------------- #
# Adversarial workloads
# ---------------------------------------------------------------------- #


def _cmd_workload_list(args: argparse.Namespace) -> int:
    from repro.workloads import list_sources

    sources = list_sources()
    if args.json:
        print(json.dumps(sources, indent=2, sort_keys=True))
        return 0
    width = max(len(s["name"]) for s in sources)
    for source in sources:
        needs = " [needs controller]" if source["needs_controller"] else ""
        adversarial = " [adversarial]" if source.get("adversarial") else ""
        print(f"{source['name']:<{width}}  "
              f"{source['description']}{needs}{adversarial}")
    return 0


def _cmd_workload_run(args: argparse.Namespace) -> int:
    from repro.experiments.fabric import run_fabric_experiment

    workload_params = {}
    if args.schedule:
        workload_params["schedule"] = args.schedule
    if args.senders is not None:
        workload_params["senders"] = args.senders
    if args.duration is not None:
        workload_params["duration_s"] = args.duration
    if args.keys is not None:
        workload_params["keys"] = args.keys
    if args.spoof_macs is not None:
        workload_params["spoof_macs"] = args.spoof_macs
    started = time.time()
    tracer = _make_collector(bool(args.trace))
    result = run_fabric_experiment(
        topology=args.topology,
        controller=None if args.controller == "none" else args.controller,
        attack=args.attack,
        fail_mode=args.fail_mode,
        seed=args.seed,
        shards=args.shards,
        workload=args.source,
        workload_params=workload_params,
        table_capacity=args.table_capacity,
        table_eviction=args.table_eviction,
        trace=tracer,
    )
    trace_info = _dump_trace(tracer, args.trace, args.source, multi=False)
    metrics = dict(result.record(), experiment="workload")
    if args.json:
        _print_run_record("workload", args.attack,
                          args.controller, args.fail_mode, args.seed,
                          {"topology": args.topology, "workload": args.source,
                           "shards": args.shards},
                          metrics, time.time() - started,
                          trace=trace_info, topology=args.topology)
        return 0
    print(f"{args.source} on {result.fabric}: {result.switches} switches / "
          f"{result.hosts} hosts on {result.shards} shard(s)")
    print(f"synthesized {result.packets_synthesized} frames over "
          f"{result.sim_duration_s:.2f}s sim")
    if result.packets_sent:
        print(f"udp: {result.packets_delivered}/{result.packets_sent} "
              f"delivered ({100 * result.delivery_rate:.1f}%)")
    if result.controller:
        print(f"control: {result.switch_packet_ins} PACKET_INs "
              f"({result.packet_in_rate:.0f}/s), "
              f"{result.flow_mods_seen} flow-mods seen")
    evictions = {
        "capacity": result.evictions_capacity,
        "idle": result.evictions_idle,
        "hard": result.evictions_hard,
        "delete": result.evictions_delete,
    }
    counted = ", ".join(f"{k} x{v}" for k, v in evictions.items() if v)
    print(f"tables: occupancy peak {result.table_occupancy_peak}, "
          f"{result.table_misses} misses"
          + (f", evictions: {counted}" if counted else ", no evictions"))
    print(f"wall {result.wall_s:.2f}s, "
          f"{result.processed_events} events across {result.epochs} epochs")
    return 0


# ---------------------------------------------------------------------- #
# Defense plane
# ---------------------------------------------------------------------- #


def _cmd_detect_list(args: argparse.Namespace) -> int:
    from repro.defense import list_detectors

    detectors = list_detectors()
    if args.json:
        print(json.dumps(detectors, indent=2, sort_keys=True))
        return 0
    width = max(len(d["name"]) for d in detectors)
    for detector in detectors:
        extra = ""
        if detector["requires"]:
            state = "available" if detector["available"] else "missing"
            extra = f" [optional: {detector['requires']} {state}]"
        print(f"{detector['name']:<{width}}  {detector['description']}{extra}")
    return 0


def _cmd_detect_run(args: argparse.Namespace) -> int:
    from repro.experiments.fabric import run_fabric_experiment
    from repro.obs import render_detections

    workload_params = {}
    if args.schedule:
        workload_params["schedule"] = args.schedule
    if args.senders is not None:
        workload_params["senders"] = args.senders
    if args.duration is not None:
        workload_params["duration_s"] = args.duration
    detector_params = {}
    if args.threshold_pps is not None:
        detector_params["threshold_pps"] = args.threshold_pps
    if args.ratio is not None:
        detector_params["ratio"] = args.ratio
    started = time.time()
    result = run_fabric_experiment(
        topology=args.topology,
        controller=None if args.controller == "none" else args.controller,
        fail_mode=args.fail_mode,
        seed=args.seed,
        shards=args.shards,
        workload=args.source,
        workload_params=workload_params,
        table_capacity=args.table_capacity,
        table_eviction=args.table_eviction,
        detectors=args.detectors,
        detector_params=detector_params,
    )
    metrics = dict(result.record(), experiment="workload")
    if args.json:
        _print_run_record("detect", None, args.controller, args.fail_mode,
                          args.seed,
                          {"topology": args.topology,
                           "workload": args.source,
                           "detectors": args.detectors,
                           "shards": args.shards},
                          metrics, time.time() - started,
                          topology=args.topology)
        return 0
    print(f"{args.source} on {result.fabric}: {result.switches} switches / "
          f"{result.hosts} hosts on {result.shards} shard(s), "
          f"{result.sim_duration_s:.2f}s sim")
    print(f"sketch digest: {result.sketch_digest}")
    print(render_detections(result.detections,
                            metrics.get("sketch_summary")))
    return 0


# ---------------------------------------------------------------------- #
# Campaigns
# ---------------------------------------------------------------------- #


def _campaign_store(args: argparse.Namespace):
    from pathlib import Path

    from repro.campaign import ResultStore

    return ResultStore(args.store
                       or Path(args.spec).with_suffix(".results.jsonl"))


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import os

    from repro.campaign import build_report, load_spec, run_campaign

    spec = load_spec(args.spec)
    store = _campaign_store(args)
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr))
    workers = args.workers if args.workers is not None \
        else (os.cpu_count() or 1)
    summary = run_campaign(
        spec, store, workers=workers,
        timeout_s=args.timeout, retries=args.retries, progress=progress,
        trace=bool(getattr(args, "trace", False)),
        preflight=not getattr(args, "no_preflight", False),
    )
    if args.json:
        print(json.dumps({
            "campaign": summary.campaign,
            "total": summary.total,
            "skipped": summary.skipped,
            "executed": summary.executed,
            "succeeded": summary.succeeded,
            "failed": summary.failed,
            "retries_used": summary.retries_used,
            "lint_rejected": summary.lint_rejected,
            "duration_s": round(summary.duration_s, 3),
            "failed_run_ids": summary.failed_run_ids,
            "processes_spawned": summary.processes_spawned,
            "worker_runs": summary.worker_runs,
            "store": str(store.path),
        }, sort_keys=True))
    else:
        print(summary.render())
        print(build_report(spec, store.records()).render())
    return 0 if summary.complete else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import load_spec

    spec = load_spec(args.spec)
    store = _campaign_store(args)
    descriptors = spec.expand()
    completed = store.completed_ids()
    pending = [d for d in descriptors if d.run_id not in completed]
    # Pool observability: the highest runs_executed seen per worker pid
    # across recorded runs (absent for pre-pool or single-shot records).
    workers = {}
    for record in store.records():
        worker = record.get("worker")
        if isinstance(worker, dict) and worker.get("pid") is not None:
            pid = str(worker["pid"])
            runs = int(worker.get("runs_executed") or 0)
            workers[pid] = max(workers.get(pid, 0), runs)
    payload = {
        "campaign": spec.name,
        "store": str(store.path),
        "total": len(descriptors),
        "completed": len(descriptors) - len(pending),
        "pending": len(pending),
        "pending_runs": [
            {"run_id": d.run_id, "label": d.label()} for d in pending
        ],
        "worker_runs": workers,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"campaign {spec.name}: {payload['completed']}/"
              f"{payload['total']} runs complete ({store.path})")
        for pid, runs in sorted(workers.items()):
            print(f"  worker pid {pid}: {runs} run(s) executed")
        for entry in payload["pending_runs"]:
            print(f"  pending {entry['run_id']} [{entry['label']}]")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import build_report, load_spec

    spec = load_spec(args.spec)
    store = _campaign_store(args)
    report = build_report(spec, store.records(),
                          digests=bool(getattr(args, "digests", False)))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if not report.missing_runs and not report.failed_runs else 1


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    from pathlib import Path

    from repro.campaign import (
        CampaignAggregator,
        CampaignScheduler,
        ResultStore,
        load_spec,
    )

    if args.store:
        store_path = Path(args.store)
    elif args.specs:
        store_path = Path(args.specs[0]).with_suffix(".results.jsonl")
    else:
        print("campaign serve: pass at least one spec or --store "
              "(required with --inbox-only serving)", file=sys.stderr)
        return 2
    store = ResultStore(store_path, shards=args.shards)
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True))
    workers = args.workers if args.workers is not None \
        else (os.cpu_count() or 1)
    aggregator = CampaignAggregator()
    scheduler = CampaignScheduler(
        store, workers=workers, progress=progress,
        aggregator=aggregator, stream_path=store.events_path,
        trace=bool(args.trace), preflight=not args.no_preflight,
    )
    stopping = {"flag": False}

    def _request_stop(signum, frame):
        stopping["flag"] = True

    restore = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            restore.append((signum, signal.signal(signum, _request_stop)))
        except (ValueError, OSError):  # non-main thread: keep defaults
            pass
    idle_exit_s = args.idle_exit
    if idle_exit_s is None and not args.inbox:
        idle_exit_s = 0.0  # no inbox to wait on: exit once drained
    try:
        for spec_path in args.specs:
            scheduler.submit(load_spec(spec_path), timeout_s=args.timeout,
                             retries=args.retries)
        jobs = scheduler.serve(inbox=args.inbox, idle_exit_s=idle_exit_s,
                               stop=lambda: stopping["flag"])
    finally:
        for signum, handler in restore:
            signal.signal(signum, handler)
    if args.json:
        print(json.dumps({
            "store": str(store.path),
            "stream": str(store.events_path),
            "jobs": [{
                "campaign": job.summary.campaign,
                "total": job.summary.total,
                "skipped": job.summary.skipped,
                "executed": job.summary.executed,
                "succeeded": job.summary.succeeded,
                "failed": job.summary.failed,
                "retries_used": job.summary.retries_used,
                "duration_s": round(job.summary.duration_s, 3),
                "processes_spawned": job.summary.processes_spawned,
                "done": job.done,
            } for job in jobs],
            "processes_spawned": scheduler.processes_spawned,
            "stream_seconds": round(scheduler.stream_seconds, 4),
            "aggregate": aggregator.snapshot(),
        }, sort_keys=True))
    else:
        for job in jobs:
            print(job.summary.render())
        if aggregator.records_seen:
            print(aggregator.render())
    return 1 if any(job.summary.failed for job in jobs) else 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    from pathlib import Path

    path = Path(args.path)
    if path.name == "events.jsonl" or path.name.endswith(".events.jsonl"):
        tail_path = path
    else:
        from repro.campaign import ResultStore

        tail_path = ResultStore(path).events_path  # the store or its .d
    deadline = time.time() + args.timeout if args.timeout else None
    offset = 0
    if not args.from_start and tail_path.exists():
        offset = tail_path.stat().st_size
    seen = 0
    pending = b""
    while True:
        if tail_path.exists():
            size = tail_path.stat().st_size
            if size < offset:  # stream rotated/compacted away: restart
                offset = 0
                pending = b""
            if size > offset:
                with tail_path.open("rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
                offset += len(chunk)
                pending += chunk
                while b"\n" in pending:
                    line, pending = pending.split(b"\n", 1)
                    text = line.decode("utf-8", "replace").strip()
                    if not text:
                        continue
                    print(text, flush=True)
                    seen += 1
                    if args.count and seen >= args.count:
                        return 0
        if deadline is not None and time.time() >= deadline:
            return 1 if args.count and seen < args.count else 0
        time.sleep(0.1)


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from repro.campaign import load_spec

    source = Path(args.spec)
    spec = load_spec(source)  # validate before spooling
    inbox = Path(args.inbox)
    inbox.mkdir(parents=True, exist_ok=True)
    target = inbox / source.name
    serial = 1
    while target.exists():
        target = inbox / f"{source.stem}.{serial}{source.suffix}"
        serial += 1
    # Write-then-rename so the serving scheduler never reads a partial
    # spec file; the .part suffix keeps the scanner away meanwhile.
    part = target.with_name(target.name + ".part")
    part.write_bytes(source.read_bytes())
    os.replace(part, target)
    if args.json:
        print(json.dumps({"campaign": spec.name, "spooled": str(target)},
                         sort_keys=True))
    else:
        print(f"submitted campaign {spec.name} -> {target}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_events, render_summary, render_timeline, summarize

    events = load_events(args.trace_file)
    if not events:
        print(f"no events in {args.trace_file}", file=sys.stderr)
        return 1
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0
    if not args.summary_only:
        print(render_timeline(events, kinds=args.kinds or None,
                              limit=args.limit))
        print()
    print(render_summary(summary))
    return 0


def _load_system(path: str):
    from repro.core.compiler import parse_system_model_xml

    with open(path, encoding="utf-8") as handle:
        return parse_system_model_xml(handle.read())


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.core.compiler import (
        generate_attack_source,
        parse_attack_model_xml,
        parse_attack_states_xml,
    )

    system = _load_system(args.system)
    with open(args.attack, encoding="utf-8") as handle:
        attack = parse_attack_states_xml(handle.read(), system)
    if args.attack_model:
        with open(args.attack_model, encoding="utf-8") as handle:
            model = parse_attack_model_xml(handle.read(), system)
        attack.validate_against(model)
        print(f"validated against attacker model "
              f"({len(model.attacked_connections())} attacked connections)",
              file=sys.stderr)
    source = generate_attack_source(attack)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote executable attack code to {args.output}", file=sys.stderr)
    else:
        print(source)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.core.compiler import parse_attack_states_xml

    system = _load_system(args.system)
    with open(args.attack, encoding="utf-8") as handle:
        attack = parse_attack_states_xml(handle.read(), system)
    print(attack.graph.to_dot())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.compiler import CompileError, parse_attack_states_xml
    from repro.core.model.threat import AttackModel
    from repro.lint import build_registry_attack, failure_report, lint_attack

    try:
        if args.system:
            system = _load_system(args.system)
        else:
            from repro.experiments.enterprise import enterprise_system_model

            system = enterprise_system_model()
        if args.attack_model:
            from repro.core.compiler import parse_attack_model_xml

            with open(args.attack_model, encoding="utf-8") as handle:
                model = parse_attack_model_xml(handle.read(), system)
        else:
            # The broadest attacker: every declared rule is admissible, so
            # only genuinely malformed attacks produce capability errors.
            model = AttackModel.no_tls_everywhere(system)
    except (OSError, CompileError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    names = list(args.name or [])
    if args.all:
        from repro.attacks import list_attacks

        names.extend(n for n in list_attacks() if n not in names)

    reports = []
    for name in names:
        try:
            attack = build_registry_attack(name, system)
        except Exception as exc:
            reports.append(
                failure_report(name, f"{type(exc).__name__}: {exc}"))
            continue
        reports.append(lint_attack(attack, model))
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            reports.append(failure_report(path, str(exc)))
            continue
        try:
            attack = parse_attack_states_xml(text, system, strict=False)
        except CompileError as exc:
            reports.append(failure_report(path, str(exc), line=exc.line))
            continue
        reports.append(lint_attack(attack, model))

    if not reports:
        print("nothing to lint: pass attack XML paths, --name, or --all",
              file=sys.stderr)
        return 2
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.json:
        print(json.dumps({
            "attacks": len(reports),
            "errors": errors,
            "warnings": warnings,
            "reports": [r.to_dict() for r in reports],
        }, sort_keys=True))
    else:
        for report in reports:
            print(report.render_text(verbose=not args.quiet))
        print(f"linted {len(reports)} attack(s): "
              f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.core.compiler import parse_attack_states_xml
    from repro.core.lang.render import render_attack_text

    system = _load_system(args.system)
    with open(args.attack, encoding="utf-8") as handle:
        attack = parse_attack_states_xml(handle.read(), system)
    print(render_attack_text(attack))
    return 0


def _sim_seconds(text: str) -> float:
    """argparse type for a span of simulated seconds: finite and positive."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number of seconds, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type for a count: a non-negative integer."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative count, got {text!r}")
    return value


def _positive_count(text: str) -> int:
    """argparse type for a size: a positive integer."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive count, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATTAIN attack-injection framework (DSN 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    suppression = subparsers.add_parser(
        "suppression", help="run the Fig. 11 flow-mod suppression experiment"
    )
    suppression.add_argument("--controller", default="all",
                             choices=CONTROLLERS + ("all",))
    suppression.add_argument("--full", action="store_true",
                             help="use the paper's full 60-ping/30-iperf timing")
    suppression.add_argument("--ping-trials", type=_positive_count, default=10)
    suppression.add_argument("--iperf-trials", type=_positive_count, default=2)
    suppression.add_argument("--iperf-duration", type=_sim_seconds, default=2.0)
    suppression.add_argument("--seed", type=int, default=0,
                             help="root seed for the run's random streams")
    suppression.add_argument("--json", action="store_true",
                             help="emit campaign-schema JSONL records")
    suppression.add_argument("--trace", metavar="PATH",
                             help="export a per-cell control-plane trace "
                                  "(JSONL; cells suffix the file name)")
    suppression.set_defaults(handler=_cmd_suppression)

    interruption = subparsers.add_parser(
        "interruption", help="run the Table II connection-interruption experiment"
    )
    interruption.add_argument("--controller", default="all",
                              choices=CONTROLLERS + ("all",))
    interruption.add_argument("--seed", type=int, default=0,
                              help="root seed for the run's random streams")
    interruption.add_argument("--json", action="store_true",
                              help="emit campaign-schema JSONL records")
    interruption.add_argument("--trace", metavar="PATH",
                              help="export a per-cell control-plane trace "
                                   "(JSONL; cells suffix the file name)")
    interruption.set_defaults(handler=_cmd_interruption)

    compliance = subparsers.add_parser(
        "compliance", help="run the OFTest-style switch compliance suite"
    )
    compliance.add_argument("--json", action="store_true",
                            help="emit a campaign-schema JSON record")
    compliance.set_defaults(handler=_cmd_compliance)

    fabric = subparsers.add_parser(
        "fabric",
        help="generate datacenter fabrics and run sharded workloads on them")
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    fabric_gen = fabric_sub.add_parser(
        "gen", help="generate a fabric and print its shape")
    fabric_gen.add_argument("name",
                            help="fabric descriptor (fat-tree-k4, "
                                 "leaf-spine-8x4, waxman-s64-h128)")
    fabric_gen.add_argument("--regions", type=_positive_count, default=None,
                            help="also partition into N regions")
    fabric_gen.add_argument("--json", action="store_true",
                            help="machine-readable output")
    fabric_gen.set_defaults(handler=_cmd_fabric_gen)

    fabric_run = fabric_sub.add_parser(
        "run", help="run a sharded workload (optionally attacked) on a fabric")
    fabric_run.add_argument("name", help="fabric descriptor")
    fabric_run.add_argument("--controller", default="none",
                            choices=("none",) + CONTROLLERS,
                            help="controller model (none = proactive routes)")
    fabric_run.add_argument("--attack", default=None,
                            help="registered attack name (needs a controller)")
    fabric_run.add_argument("--fail-mode", default="secure",
                            choices=("secure", "standalone"))
    fabric_run.add_argument("--seed", type=int, default=0)
    fabric_run.add_argument("--regions", type=_positive_count, default=None,
                            help="region count (default: fabric groups)")
    fabric_run.add_argument("--shards", type=_positive_count, default=1,
                            help="worker processes executing the regions")
    fabric_run.add_argument("--workload", default=None,
                            help="udp, ping, or a registered traffic "
                                 "source (see `repro workload list`)")
    fabric_run.add_argument("--pairs", type=_count, default=4,
                            help="communicating host pairs")
    fabric_run.add_argument("--packets", type=_count, default=None,
                            help="packets (or pings) per pair")
    fabric_run.add_argument("--horizon", type=_sim_seconds, default=None,
                            help="simulated seconds to run")
    fabric_run.add_argument("--trace", metavar="PATH", default=None,
                            help="write the merged region trace to PATH")
    fabric_run.add_argument("--json", action="store_true",
                            help="emit the run record as JSON")
    fabric_run.set_defaults(handler=_cmd_fabric_run)

    workload = subparsers.add_parser(
        "workload",
        help="run adversarial traffic generators (floods, table overflow)")
    workload_sub = workload.add_subparsers(dest="workload_command",
                                           required=True)

    workload_list = workload_sub.add_parser(
        "list", help="list the registered traffic sources")
    workload_list.add_argument("--json", action="store_true",
                               help="emit the source table as JSON")
    workload_list.set_defaults(handler=_cmd_workload_list)

    workload_run = workload_sub.add_parser(
        "run", help="drive one traffic source on a generated fabric")
    workload_run.add_argument("source",
                              help="traffic source name (see `workload list`)")
    workload_run.add_argument("--topology", default="fat-tree-k4",
                              help="fabric descriptor (default fat-tree-k4)")
    workload_run.add_argument("--controller", default="none",
                              choices=("none",) + CONTROLLERS)
    workload_run.add_argument("--attack", default=None,
                              help="registry attack composed on the control "
                                   "channel")
    workload_run.add_argument("--fail-mode", default="secure",
                              choices=("secure", "insecure"))
    workload_run.add_argument("--seed", type=int, default=0)
    workload_run.add_argument("--shards", type=_positive_count, default=1,
                              help="worker processes executing the regions")
    workload_run.add_argument("--schedule", default=None,
                              help="rate schedule: constant:PPS, "
                                   "ramp:START:END:DUR, "
                                   "burst:PEAK:BASE:PERIOD:DUTY, "
                                   "onoff:PPS:ON:OFF")
    workload_run.add_argument("--senders", type=int, default=None,
                              help="sending hosts (default: fabric pairs)")
    workload_run.add_argument("--duration", type=_sim_seconds, default=None,
                              help="emission window in simulated seconds")
    workload_run.add_argument("--keys", type=int, default=None,
                              help="distinct flow keys (table-overflow)")
    workload_run.add_argument("--spoof-macs", type=int, default=None,
                              help="spoofed MAC pool size, 0=fresh each "
                                   "packet (packetin-flood)")
    workload_run.add_argument("--table-capacity", type=_positive_count,
                              default=None,
                              help="bound every switch flow table")
    workload_run.add_argument("--table-eviction", default="refuse",
                              choices=("refuse", "lru", "fifo"))
    workload_run.add_argument("--trace", metavar="PATH", default=None,
                              help="write the merged region trace to PATH")
    workload_run.add_argument("--json", action="store_true",
                              help="emit the run record as JSON")
    workload_run.set_defaults(handler=_cmd_workload_run)

    detect = subparsers.add_parser(
        "detect",
        help="run sketch-fed detectors against adversarial workloads")
    detect_sub = detect.add_subparsers(dest="detect_command", required=True)

    detect_list = detect_sub.add_parser(
        "list", help="list the registered detectors")
    detect_list.add_argument("--json", action="store_true",
                             help="emit the detector table as JSON")
    detect_list.set_defaults(handler=_cmd_detect_list)

    detect_run = detect_sub.add_parser(
        "run", help="score detectors on one workload run with known "
                    "attack ground truth")
    detect_run.add_argument("source",
                            help="traffic source name (see `workload list`)")
    detect_run.add_argument("--detectors", default="pktin-rate,newkey-ratio",
                            help="comma-separated detector names "
                                 "(see `detect list`)")
    detect_run.add_argument("--topology", default="fat-tree-k4",
                            help="fabric descriptor (default fat-tree-k4)")
    detect_run.add_argument("--controller", default="pox",
                            choices=("none",) + CONTROLLERS)
    detect_run.add_argument("--fail-mode", default="secure",
                            choices=("secure", "insecure"))
    detect_run.add_argument("--seed", type=int, default=0)
    detect_run.add_argument("--shards", type=_positive_count, default=1,
                            help="worker processes executing the regions")
    detect_run.add_argument("--schedule", default=None,
                            help="rate schedule (see `workload run`)")
    detect_run.add_argument("--senders", type=int, default=None,
                            help="sending hosts (default: fabric pairs)")
    detect_run.add_argument("--duration", type=_sim_seconds, default=None,
                            help="emission window in simulated seconds")
    detect_run.add_argument("--threshold-pps", type=float, default=None,
                            help="pktin-rate alarm threshold (PACKET_IN/s)")
    detect_run.add_argument("--ratio", type=float, default=None,
                            help="newkey-ratio alarm threshold in (0,1]")
    detect_run.add_argument("--table-capacity", type=_positive_count,
                            default=None,
                            help="bound every switch flow table")
    detect_run.add_argument("--table-eviction", default="refuse",
                            choices=("refuse", "lru", "fifo"))
    detect_run.add_argument("--json", action="store_true",
                            help="emit the run record as JSON")
    detect_run.set_defaults(handler=_cmd_detect_run)

    campaign = subparsers.add_parser(
        "campaign",
        help="run/inspect attack-matrix campaigns (parallel, resumable)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _common_campaign_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", help="campaign spec file (.xml/.json/.py)")
        sub.add_argument("--store",
                         help="result store path (default: "
                              "<spec>.results.jsonl; records live in "
                              "<store>.d/)")
        sub.add_argument("--json", action="store_true",
                         help="machine-readable output")

    campaign_run = campaign_sub.add_parser(
        "run", help="execute the spec's pending runs in parallel")
    _common_campaign_args(campaign_run)
    campaign_run.add_argument("--workers", type=int, default=None,
                              help="parallel worker processes "
                                   "(default: os.cpu_count())")
    campaign_run.add_argument("--timeout", type=float, default=None,
                              help="per-run wall-clock timeout (seconds)")
    campaign_run.add_argument("--retries", type=int, default=None,
                              help="extra attempts after a worker failure")
    campaign_run.add_argument("--quiet", action="store_true",
                              help="suppress per-run progress on stderr")
    campaign_run.add_argument("--trace", action="store_true",
                              help="collect per-run control-plane traces "
                                   "into <store>.d/traces/<run_id>.jsonl")
    campaign_run.add_argument("--no-preflight", action="store_true",
                              help="skip the lint pre-flight that rejects "
                                   "defective attack cells before workers "
                                   "spawn")
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status", help="show completed vs. pending runs")
    _common_campaign_args(campaign_status)
    campaign_status.set_defaults(handler=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate the store into security metrics")
    _common_campaign_args(campaign_report)
    campaign_report.add_argument("--digests", action="store_true",
                                 help="add per-cell count/mean/p50/p95 "
                                      "digests for every numeric metric")
    campaign_report.set_defaults(handler=_cmd_campaign_report)

    campaign_serve = campaign_sub.add_parser(
        "serve", help="long-lived scheduler: run specs, accept more via an "
                      "inbox, stream records as they complete")
    campaign_serve.add_argument("specs", nargs="*",
                                help="campaign spec files to submit at start")
    campaign_serve.add_argument("--store",
                                help="result store path (default: "
                                     "<first spec>.results.jsonl; records "
                                     "live in <store>.d/)")
    campaign_serve.add_argument("--shards", type=_positive_count, default=None,
                                help="shard fan-out when creating a new "
                                     "store (default: 8)")
    campaign_serve.add_argument("--inbox", metavar="DIR",
                                help="spool directory scanned for new spec "
                                     "files while serving")
    campaign_serve.add_argument("--workers", type=int, default=None,
                                help="parallel worker processes "
                                     "(default: os.cpu_count())")
    campaign_serve.add_argument("--idle-exit", type=float, default=None,
                                help="exit after this many idle seconds "
                                     "(default: serve forever with --inbox, "
                                     "exit when drained without)")
    campaign_serve.add_argument("--timeout", type=float, default=None,
                                help="per-run wall-clock timeout (seconds)")
    campaign_serve.add_argument("--retries", type=int, default=None,
                                help="extra attempts after a worker failure")
    campaign_serve.add_argument("--trace", action="store_true",
                                help="collect per-run control-plane traces "
                                     "into <store>.d/traces/<run_id>.jsonl")
    campaign_serve.add_argument("--no-preflight", action="store_true",
                                help="skip the lint pre-flight")
    campaign_serve.add_argument("--quiet", action="store_true",
                                help="suppress per-run progress on stderr")
    campaign_serve.add_argument("--json", action="store_true",
                                help="machine-readable job + aggregate "
                                     "summary on exit")
    campaign_serve.set_defaults(handler=_cmd_campaign_serve)

    campaign_watch = campaign_sub.add_parser(
        "watch", help="follow a serving campaign's streamed records "
                      "(tail -f over the events JSONL)")
    campaign_watch.add_argument("path",
                                help="store path, <store>.d directory, or "
                                     "events JSONL file")
    campaign_watch.add_argument("--count", type=int, default=None,
                                help="exit 0 after N records (exit 1 if the "
                                     "timeout expires first)")
    campaign_watch.add_argument("--timeout", type=float, default=None,
                                help="give up after this many seconds")
    campaign_watch.add_argument("--from-start", action="store_true",
                                help="replay the stream from the beginning "
                                     "instead of only new records")
    campaign_watch.set_defaults(handler=_cmd_campaign_watch)

    campaign_submit = campaign_sub.add_parser(
        "submit", help="spool a spec file into a serving scheduler's inbox")
    campaign_submit.add_argument("spec", help="campaign spec file to submit")
    campaign_submit.add_argument("--inbox", required=True, metavar="DIR",
                                 help="the serve --inbox directory")
    campaign_submit.add_argument("--json", action="store_true",
                                 help="machine-readable output")
    campaign_submit.set_defaults(handler=_cmd_campaign_submit)

    trace = subparsers.add_parser(
        "trace", help="render an exported control-plane trace "
                      "(timeline + per-rule summary)"
    )
    trace.add_argument("trace_file", help="trace JSONL file to render")
    trace.add_argument("--kinds", nargs="*",
                       help="only show these event kinds in the timeline")
    trace.add_argument("--limit", type=int, default=None,
                       help="cap the timeline at N events")
    trace.add_argument("--summary-only", action="store_true",
                       help="skip the timeline, print only the summary")
    trace.add_argument("--json", action="store_true",
                       help="emit the summary as JSON")
    trace.set_defaults(handler=_cmd_trace)

    compile_cmd = subparsers.add_parser(
        "compile", help="compile attack XML into executable Python code"
    )
    compile_cmd.add_argument("--system", required=True,
                             help="system-model XML file")
    compile_cmd.add_argument("--attack", required=True,
                             help="attack-states XML file")
    compile_cmd.add_argument("--attack-model",
                             help="attacker-capabilities XML file (validates)")
    compile_cmd.add_argument("--output", "-o",
                             help="write generated code here (default stdout)")
    compile_cmd.set_defaults(handler=_cmd_compile)

    lint = subparsers.add_parser(
        "lint", help="static-analyse attack descriptions (ATNxxx diagnostics)"
    )
    lint.add_argument("paths", nargs="*",
                      help="attack-states XML files to lint")
    lint.add_argument("--name", action="append", metavar="ATTACK",
                      help="lint a registered attack by name (repeatable)")
    lint.add_argument("--all", action="store_true",
                      help="lint every registered attack")
    lint.add_argument("--system",
                      help="system-model XML (default: the enterprise "
                           "evaluation topology)")
    lint.add_argument("--attack-model",
                      help="attacker-capabilities XML for the Γ_NC checks "
                           "(default: no-TLS attacker on every connection)")
    lint.add_argument("--quiet", action="store_true",
                      help="hide info-severity diagnostics")
    lint.add_argument("--json", action="store_true",
                      help="emit reports as JSON")
    lint.set_defaults(handler=_cmd_lint)

    graph = subparsers.add_parser(
        "graph", help="render an attack's state graph in Graphviz dot"
    )
    graph.add_argument("--system", required=True)
    graph.add_argument("--attack", required=True)
    graph.set_defaults(handler=_cmd_graph)

    show = subparsers.add_parser(
        "show", help="render an attack in the paper's Fig. 10(a) notation"
    )
    show.add_argument("--system", required=True)
    show.add_argument("--attack", required=True)
    show.set_defaults(handler=_cmd_show)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
