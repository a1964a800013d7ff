#!/usr/bin/env python3
"""Validate scol-cli JSON output against tools/report_schema.json.

Single-report mode (default):
    scol-cli ... | python3 tools/check_report.py [--expect-status colored]

Campaign JSONL mode (one report per line, the `scol-cli campaign` stream):
    python3 tools/check_report.py --jsonl [--expect-oracle-clean] \
        [--expect-jobs N] < runs.jsonl

Serve mode (the scol-serve NDJSON response stream, docs/SERVE.md):
    scol-serve < requests.ndjson | python3 tools/check_report.py --serve \
        [--expect-no-errors] [--min-hits N]

Serve mode validates every envelope (solve / stats / shutdown / error)
and recurses into each solve envelope's "report" with the single-report
schema; served reports must additionally carry wall_ms == 0, the
byte-stable mode the report cache depends on.

Stdlib only (CI runs it without installing anything). Exits non-zero with
a message naming every violation (line-numbered in --jsonl and --serve
modes).
"""
import argparse
import json
import pathlib
import sys

KIND_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "num": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "obj": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}


def check(report: dict, schema: dict, campaign_line: bool = False
          ) -> list[str]:
    errors = []

    def require(obj, spec, where):
        for key, kind in spec.items():
            if key not in obj:
                errors.append(f"missing key {where}{key}")
            elif not KIND_CHECKS[kind](obj[key]):
                errors.append(
                    f"key {where}{key} has type {type(obj[key]).__name__}, "
                    f"wanted {kind}")

    require(report, schema["required"], "")
    if isinstance(report.get("scenario"), dict):
        require(report["scenario"], schema["scenario_required"], "scenario.")
    status = report.get("status")
    if status not in schema["status_values"]:
        errors.append(f"status {status!r} not in {schema['status_values']}")

    if campaign_line:
        require(report, schema["campaign_required"], "")
        if isinstance(report.get("oracle"), dict):
            require(report["oracle"], schema["oracle_required"], "oracle.")
            oracle = report["oracle"]
            if oracle.get("ok") is True and oracle.get("violations"):
                errors.append("oracle.ok true but violations non-empty")
            if oracle.get("ok") is False and not oracle.get("violations"):
                errors.append("oracle.ok false without a violation message")
        if report.get("lists") not in schema["lists_values"]:
            errors.append(
                f"lists {report.get('lists')!r} not in "
                f"{schema['lists_values']}")

    # Cross-field consistency: rounds equal the ledger total; a colored
    # report names at least one color on a non-empty graph.
    ledger = report.get("ledger")
    if isinstance(ledger, dict) and isinstance(report.get("rounds"), int):
        total = sum(v for v in ledger.values() if isinstance(v, int))
        if total != report["rounds"]:
            errors.append(f"rounds {report['rounds']} != ledger total {total}")
    if status == "colored":
        scenario = report.get("scenario", {})
        if scenario.get("n", 0) > 0 and report.get("colors_used", 0) <= 0:
            errors.append("colored report with no colors used")
    if status == "failed" and not report.get("failure_reason"):
        errors.append("failed report without failure_reason")
    # Exchange pricing (--shards P prices a finished report on a P-shard
    # partition; it executes nothing): a report that carries
    # metrics.shards must carry the whole exchange block, price its
    # exchange from the ledger (one update per boundary pair per round,
    # so messages are a multiple of rounds and zero on a single shard or
    # a round-free run), and agree with the line-level "shards" field
    # when both are present.
    metrics = report.get("metrics")
    if isinstance(metrics, dict) and "shards" in metrics:
        require(metrics, schema["shard_metrics_required"], "metrics.")
        counters = tuple(schema["shard_metrics_required"])
        rounds = report.get("rounds")
        if all(isinstance(metrics.get(k), int) for k in counters) \
                and isinstance(rounds, int):
            messages = metrics["exchange_messages"]
            if metrics["shards"] < 1:
                errors.append(f"metrics.shards {metrics['shards']} < 1")
            if any(metrics[k] < 0 for k in counters):
                errors.append("negative shard exchange counter")
            if metrics["shards"] == 1 or rounds == 0:
                if messages != 0:
                    errors.append(
                        f"exchange_messages {messages} != 0 with shards "
                        f"{metrics['shards']}, rounds {rounds}")
            elif messages % rounds != 0:
                errors.append(
                    f"exchange_messages {messages} is not a multiple of "
                    f"rounds {rounds}")
        if isinstance(report.get("shards"), int) \
                and report["shards"] != metrics["shards"]:
            errors.append(
                f"line shards {report['shards']} != metrics.shards "
                f"{metrics['shards']}")
    # "skipped" only exists on campaign lines (the probe filter); a
    # skipped line must say why, and a single-run report can never skip.
    if status == "skipped":
        if not campaign_line:
            errors.append("skipped status outside a campaign JSONL line")
        elif not isinstance(report.get("skip_reason"), str) \
                or not report["skip_reason"]:
            errors.append("skipped line without a skip_reason")
    return errors


def check_jsonl(stream, schema: dict, args) -> list[str]:
    errors = []
    reports = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            report = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not valid JSON: {e}")
            continue
        for e in check(report, schema, campaign_line=True):
            errors.append(f"line {lineno}: {e}")
        reports.append(report)

    # An empty stream must not validate clean (a truncated or crashed
    # campaign would otherwise pass); `--expect-jobs 0` opts a genuinely
    # empty shard back in.
    if not reports and args.expect_jobs != 0:
        errors.append("no JSONL lines parsed (pass --expect-jobs 0 if an "
                      "empty shard is intended)")
    # Stream-level consistency: the "job" field is the line's position in
    # the (shard's slice of the) grid — strictly increasing, and dense
    # from 0 for an unsharded run.
    jobs = [r.get("job") for r in reports if isinstance(r.get("job"), int)]
    if any(b <= a for a, b in zip(jobs, jobs[1:])):
        errors.append("job indices are not strictly increasing")
    if args.expect_jobs is not None and len(reports) != args.expect_jobs:
        errors.append(f"expected {args.expect_jobs} lines, got {len(reports)}")
    if args.expect_colored is not None:
        colored = sum(1 for r in reports if r.get("status") == "colored")
        if colored < args.expect_colored:
            errors.append(
                f"expected >= {args.expect_colored} colored lines, got "
                f"{colored}")
    if args.expect_oracle_clean:
        dirty = sum(1 for r in reports
                    if isinstance(r.get("oracle"), dict)
                    and r["oracle"].get("ok") is not True)
        if dirty:
            errors.append(f"{dirty} line(s) with oracle violations")
    if args.expect_no_failed:
        failed = sum(1 for r in reports if r.get("status") == "failed")
        if failed:
            errors.append(f"{failed} line(s) with status 'failed' "
                          f"(--expect-no-failed)")
    if args.expect_shards is not None:
        # A campaign priced with --shards P stamps every line (skipped
        # ones included) with the shard count P it was priced on, and
        # every line that actually solved must carry the exchange block
        # (check() above validated its shape and invariants).
        for lineno, r in enumerate(reports, start=1):
            if r.get("shards") != args.expect_shards:
                errors.append(
                    f"line {lineno}: shards {r.get('shards')!r} != "
                    f"{args.expect_shards} (--expect-shards)")
            elif r.get("status") != "skipped" \
                    and not isinstance(
                        r.get("metrics", {}).get("shards"), int):
                errors.append(
                    f"line {lineno}: solved line without shard exchange "
                    f"metrics (--expect-shards)")
    if not errors:
        colored = sum(1 for r in reports if r.get("status") == "colored")
        failed = sum(1 for r in reports if r.get("status") == "failed")
        skipped = sum(1 for r in reports if r.get("status") == "skipped")
        print(f"check_report: ok ({len(reports)} jsonl lines, "
              f"{colored} colored, {failed} failed, {skipped} skipped)")
    return errors


def check_serve(stream, schema: dict, args) -> list[str]:
    errors = []
    responses = 0
    error_envelopes = 0
    report_hits = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            env = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not valid JSON: {e}")
            continue
        responses += 1

        def bad(msg):
            errors.append(f"line {lineno}: {msg}")

        if not isinstance(env, dict):
            bad("envelope is not an object")
            continue
        if not isinstance(env.get("ok"), bool):
            bad("envelope without a boolean 'ok'")
            continue
        if "id" not in env:
            bad("envelope without an 'id' echo")

        if not env["ok"]:
            error_envelopes += 1
            if not isinstance(env.get("error"), str) or not env["error"]:
                bad("error envelope without an 'error' message")
            continue
        if "stats" in env or "shutdown" in env:
            payload = env.get("stats", env.get("shutdown"))
            if not isinstance(payload, dict):
                bad("control envelope payload is not an object")
            elif "stats" in env:
                for section in ("graphs", "reports", "server"):
                    if not isinstance(payload.get(section), dict):
                        bad(f"stats envelope without a '{section}' section")
            continue

        # A solve envelope: cache verdicts, telemetry, and a full report.
        cache = env.get("cache")
        if not isinstance(cache, dict):
            bad("solve envelope without a 'cache' object")
        else:
            require_in = schema["serve_cache_verdicts"]
            for key in ("graph", "report"):
                if cache.get(key) not in require_in:
                    bad(f"cache.{key} {cache.get(key)!r} not in {require_in}")
            digest = cache.get("hash")
            if not (isinstance(digest, str) and len(digest) == 32
                    and all(c in "0123456789abcdef" for c in digest)):
                bad("cache.hash is not 32 lowercase hex characters")
            if cache.get("report") == "hit":
                report_hits += 1
        telemetry = env.get("telemetry")
        if not isinstance(telemetry, dict):
            bad("solve envelope without a 'telemetry' object")
        else:
            for key, kind in schema["serve_telemetry_required"].items():
                if not KIND_CHECKS[kind](telemetry.get(key)):
                    bad(f"telemetry.{key} is not a {kind}")
        report = env.get("report")
        if not isinstance(report, dict):
            bad("solve envelope without a 'report' object")
            continue
        for e in check(report, schema):
            bad(e)
        if report.get("wall_ms") != 0:
            bad("served report with non-zero wall_ms (must be untimed)")

    if responses == 0:
        errors.append("no serve responses parsed")
    if args.expect_no_errors and error_envelopes:
        errors.append(f"{error_envelopes} error envelope(s) "
                      f"(--expect-no-errors)")
    if args.min_hits is not None and report_hits < args.min_hits:
        errors.append(
            f"expected >= {args.min_hits} report-cache hits, got "
            f"{report_hits}")
    if not errors:
        print(f"check_report: ok ({responses} serve responses, "
              f"{report_hits} report hits, {error_envelopes} errors)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--expect-status", default=None,
                        help="additionally require this status value")
    parser.add_argument("--jsonl", action="store_true",
                        help="validate a campaign JSONL stream instead of "
                             "one report")
    parser.add_argument("--serve", action="store_true",
                        help="validate a scol-serve NDJSON response stream")
    parser.add_argument("--expect-no-errors", action="store_true",
                        help="--serve: fail on any error envelope")
    parser.add_argument("--min-hits", type=int, default=None,
                        help="--serve: require at least this many "
                             "report-cache hits")
    parser.add_argument("--expect-oracle-clean", action="store_true",
                        help="fail if any JSONL line has oracle.ok != true")
    parser.add_argument("--expect-jobs", type=int, default=None,
                        help="require exactly this many JSONL lines")
    parser.add_argument("--expect-colored", type=int, default=None,
                        help="require at least this many colored lines "
                             "(an all-failed campaign must not pass)")
    parser.add_argument("--expect-no-failed", action="store_true",
                        help="fail if any JSONL line has status 'failed' "
                             "(probe-filtered grids answer every cell)")
    parser.add_argument("--expect-shards", type=int, default=None,
                        help="require every JSONL line to carry this "
                             "pricing shard count and every solved "
                             "line its exchange metrics")
    parser.add_argument("--schema",
                        default=pathlib.Path(__file__).parent /
                        "report_schema.json")
    args = parser.parse_args()

    schema = json.loads(pathlib.Path(args.schema).read_text())

    if args.serve:
        errors = check_serve(sys.stdin, schema, args)
        for e in errors:
            print(f"check_report: {e}", file=sys.stderr)
        return 1 if errors else 0

    if args.jsonl:
        errors = check_jsonl(sys.stdin, schema, args)
        for e in errors:
            print(f"check_report: {e}", file=sys.stderr)
        return 1 if errors else 0

    try:
        report = json.load(sys.stdin)
    except json.JSONDecodeError as e:
        print(f"check_report: stdin is not valid JSON: {e}", file=sys.stderr)
        return 1

    errors = check(report, schema)
    if args.expect_status and report.get("status") != args.expect_status:
        errors.append(
            f"expected status {args.expect_status!r}, got "
            f"{report.get('status')!r}")
    if errors:
        for e in errors:
            print(f"check_report: {e}", file=sys.stderr)
        return 1
    print(f"check_report: ok ({report['algorithm']} -> {report['status']}, "
          f"{report['colors_used']} colors, {report['rounds']} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
