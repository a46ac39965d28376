"""Command-line front end: ``python -m repro <command>``.

Two families of commands:

* **demos** — compact versions of the headline experiments
  (``port-contention``, ``aes``, ``key-recovery``, ``defenses``,
  ``matrix``, ``oracle``);
* **service** — the experiment job server and its client
  (``serve``, ``submit``, ``status``, ``watch``, ``jobs``); see
  ``docs/SERVICE.md``.

Run with no (or an unknown) command to get the usage summary on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys


def _demo_port(args):
    from repro.core.attacks.port_contention import PortContentionAttack
    attack = PortContentionAttack(measurements=args.samples)
    threshold = attack.calibrate()
    print(f"threshold: {threshold:.0f} cycles")
    for secret in (0, 1):
        result = attack.run(secret=secret, threshold=threshold)
        print(f"secret={secret}: {result.above_threshold}/"
              f"{len(result.samples)} above threshold, "
              f"{result.replays} replays, verdict="
              f"{'div' if result.verdict else 'mul'} "
              f"({'correct' if result.correct else 'WRONG'})")


def _demo_aes(args):
    from repro.core.attacks.aes_cache import AESCacheAttack
    from repro.crypto.aes import encrypt_block
    key = bytes(range(16))
    ciphertext = encrypt_block(key, b"attack at dawn!!")
    attack = AESCacheAttack(key, ciphertext)
    fig11 = attack.run_figure11()
    print("Figure 11 (Td1 line latencies per replay):")
    for replay, latencies in enumerate(fig11.replay_latencies):
        print(f"  replay {replay}: {latencies}")
    print(f"extracted {fig11.extracted_lines}, truth "
          f"{fig11.truth_lines}, noise-free: {fig11.noise_free}")
    result = attack.run_full_extraction()
    print(f"full extraction: recall {result.union_recall():.3f}, "
          f"precision {result.union_precision():.3f}, victim ok: "
          f"{result.plaintext_ok}")


def _demo_key(args):
    from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
    from repro.crypto.aes import encrypt_block
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintexts = [b"sixteen byte msg", b"another message!",
                  b"third ciphertext"]
    ciphertexts = [encrypt_block(key, p) for p in plaintexts]
    result = AESKeyRecoveryAttack(key).run(ciphertexts)
    print(f"high nibbles recovered: {result.bytes_recovered}/16 "
          f"({result.bits_recovered} key bits), all correct: "
          f"{result.all_correct}")


def _demo_defenses(args):
    from repro.evaluation.defenses.fences import evaluate_fence_on_flush
    from repro.evaluation.defenses.tsgx import evaluate_tsgx
    fence = evaluate_fence_on_flush(replays=8)
    print(f"fence-on-flush: leaked transmits "
          f"{fence.transmit_issues_undefended} -> "
          f"{fence.transmit_issues_defended}")
    tsgx = evaluate_tsgx()
    print(f"T-SGX: OS faults {tsgx.os_faults_seen}, replay windows "
          f"{tsgx.replay_windows_observed}/{tsgx.threshold}, victim "
          f"terminated: {tsgx.victim_terminated}")


def _demo_matrix(args):
    from repro.evaluation import MatrixRunner
    from repro.memo import resolve_store
    store = resolve_store(args.cache_dir, enabled=not args.no_cache)
    runner = MatrixRunner(
        attacks=tuple(args.attacks) if args.attacks else (),
        defenses=tuple(args.defenses) if args.defenses else (),
        overrides={"port-contention":
                   {"measurements": args.samples,
                    "calibrate_samples": max(200, args.samples // 2)}},
        workers=args.workers, store=store)
    matrix = runner.run()
    print(matrix.summary_markdown())
    print()
    print(matrix.detail_markdown())
    report = runner.last_run_report
    if store is not None and report is not None:
        cache = report.cache
        degraded = sum(cache.get(k, 0) for k in
                       ("corrupt", "stale", "rejected"))
        print()
        print(f"trial cache [{store.root}]: "
              f"{report.cached_trials} of {len(report.results)} cells "
              f"served from cache ({cache.get('hits', 0)} hits, "
              f"{cache.get('misses', 0)} misses, "
              f"{cache.get('stores', 0)} stored, "
              f"{degraded} degraded)")


def _demo_oracle(args):
    from repro.tools import oraclecheck
    argv = []
    if args.attacks:
        argv += ["--attacks", *args.attacks]
    if args.defenses:
        argv += ["--defenses", *args.defenses]
    argv += ["--samples", str(args.samples)]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.json:
        argv.append("--json")
    return oraclecheck.main(argv)


# --- service commands -----------------------------------------------------


def _client(args):
    from repro.service import ServiceClient
    if args.host is not None and args.port is not None:
        return ServiceClient(address=(args.host, args.port))
    return ServiceClient(state_dir=args.state_dir)


def _spec_from_args(args):
    from repro.service import JobSpec
    return JobSpec(
        attacks=tuple(args.attacks) if args.attacks else (),
        defenses=tuple(args.defenses) if args.defenses else (),
        overrides=json.loads(args.overrides) if args.overrides else {},
        master_seed=args.master_seed, label=args.label,
        workers=args.workers)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_serve(args):
    from repro.service import serve

    def announce(server):
        print(f"repro service listening on "
              f"{server.host}:{server.port} "
              f"(state: {server.state_dir})", flush=True)

    serve(args.state_dir, host=args.host or "127.0.0.1",
          port=args.port or 0, cache_dir=args.cache_dir,
          on_ready=announce)


def _cmd_submit(args):
    client = _client(args)
    submitted = client.submit(_spec_from_args(args))
    _emit(submitted)
    if args.wait:
        status = client.wait(submitted["job"], timeout=args.timeout)
        _emit(status)
        if status["state"] != "done":
            return 1
    return 0


def _cmd_status(args):
    status = _client(args).status(args.job)
    status.pop("ok", None)
    _emit(status)
    return 0


def _cmd_watch(args):
    for event in _client(args).watch(args.job):
        _emit(event)
    return 0


def _cmd_jobs(args):
    for status in _client(args).jobs():
        _emit(status)
    return 0


def _add_endpoint_args(parser) -> None:
    parser.add_argument("--state-dir", default=None,
                        help="server state directory "
                             "(its endpoint.json locates the server)")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MicroScope reproduction demos and the "
                    "experiment job service")
    sub = parser.add_subparsers(dest="demo", required=True)
    port = sub.add_parser("port-contention",
                          help="Figure 10 in miniature")
    port.add_argument("--samples", type=int, default=1500)
    port.set_defaults(fn=_demo_port)
    aes = sub.add_parser("aes", help="Figure 11 + full extraction")
    aes.set_defaults(fn=_demo_aes)
    key = sub.add_parser("key-recovery",
                         help="attack-driven round-key nibbles")
    key.set_defaults(fn=_demo_key)
    defenses = sub.add_parser("defenses", help="Section 8 in brief")
    defenses.set_defaults(fn=_demo_defenses)
    matrix = sub.add_parser(
        "matrix", help="attack x defense evaluation matrix")
    matrix.add_argument("--attacks", nargs="*", default=None,
                        help="rows to run (default: all)")
    matrix.add_argument("--defenses", nargs="*", default=None,
                        help="columns to run (default: all)")
    matrix.add_argument("--samples", type=int, default=600,
                        help="port-contention Monitor samples")
    matrix.add_argument("--workers", type=int, default=None)
    matrix.add_argument("--cache-dir", default=None,
                        help="content-addressed trial cache directory "
                             "(default: $REPRO_CACHE_DIR, else off)")
    matrix.add_argument("--no-cache", action="store_true",
                        help="disable the trial cache even if "
                             "--cache-dir/$REPRO_CACHE_DIR is set")
    matrix.set_defaults(fn=_demo_matrix)

    oracle = sub.add_parser(
        "oracle", help="taint-oracle vs statistical-verdict "
                       "cross-check (repro.tools.oraclecheck)")
    oracle.add_argument("--attacks", nargs="*", default=None)
    oracle.add_argument("--defenses", nargs="*", default=None)
    oracle.add_argument("--samples", type=int, default=600)
    oracle.add_argument("--workers", type=int, default=None)
    oracle.add_argument("--cache-dir", default=None)
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(fn=_demo_oracle)

    serve = sub.add_parser(
        "serve", help="run the experiment job server")
    serve.add_argument("--state-dir", required=True,
                       help="directory for jobs, journals and the "
                            "shared trial store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port "
                            "(written to endpoint.json)")
    serve.add_argument("--cache-dir", default=None,
                       help="trial store directory "
                            "(default: <state-dir>/store)")
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a matrix job to a running server")
    _add_endpoint_args(submit)
    submit.add_argument("--attacks", nargs="*", default=None)
    submit.add_argument("--defenses", nargs="*", default=None)
    submit.add_argument("--overrides", default=None,
                        help="per-attack overrides as JSON, e.g. "
                             '\'{"port-contention": '
                             '{"measurements": 400}}\'')
    submit.add_argument("--master-seed", type=int, default=None)
    submit.add_argument("--label", default=None)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes "
                             "(exit 1 if it fails)")
    submit.add_argument("--timeout", type=float, default=None)
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser(
        "status", help="one job's state, progress and metrics")
    _add_endpoint_args(status)
    status.add_argument("job")
    status.set_defaults(fn=_cmd_status)

    watch = sub.add_parser(
        "watch", help="stream a job's progress events")
    _add_endpoint_args(watch)
    watch.add_argument("job")
    watch.set_defaults(fn=_cmd_watch)

    jobs = sub.add_parser("jobs", help="list every job")
    _add_endpoint_args(jobs)
    jobs.set_defaults(fn=_cmd_jobs)

    args = parser.parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
