// scol-serve wire protocol: newline-delimited JSON, one request per
// line, one response per line, responses in arrival order.
//
// Request object (unknown fields are rejected — a typo'd "alog" must not
// silently run defaults):
//
//   {"op": "solve",            // default; also "probe", "stats",
//    "id": <int|string>,       //   "shutdown"; id optional, echoed
//    "gen": "grid:rows=20",    // scenario spec, XOR
//    "hash": "<32 hex>",       //   content digest of a resident graph
//    "algo": "sparse",         // required for solve
//    "seed": 1, "k": -1,       // optional
//    "lists": "uniform",       // "uniform" | "random"
//    "palette": -1,
//    "params": {"d": 4},       // scalars only
//    "round_budget": -1,
//    "probe_budget": 0,        // probe op: sampled above n + m > B
//    "with_coloring": false}
//
// Response envelope for a solve:
//
//   {"id": ..., "ok": true,
//    "cache": {"graph": "hit", "report": "miss", "hash": "<32 hex>"},
//    "telemetry": {"queue_ms": 0.1, "solve_ms": 2.3, "batch": 4},
//    "report": { ...exactly the scol-cli report object... }}
//
// The nested "report" value is spliced in as cached bytes, so it is
// byte-identical to `scol-cli --no-timing` for the same request — the
// envelope (telemetry, cache verdicts) is where nondeterminism lives.
// Errors: {"id": ..., "ok": false, "error": "<message>"}.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "scol/api/json.h"
#include "scol/api/oneshot.h"
#include "scol/io/probe.h"
#include "scol/serve/hash.h"

namespace scol {

enum class ServeOp { kSolve, kProbe, kStats, kShutdown };

/// One parsed request line.
struct ServeRequest {
  ServeOp op = ServeOp::kSolve;
  Json id;                       ///< null when the client sent none
  std::optional<Digest> digest;  ///< set when addressed by "hash"
  OneShotSpec spec;              ///< solve parameters ("gen" → scenario)
  /// Probe cost bounds for op:"probe" ("probe_budget" on the wire). The
  /// entry's probe is memoized, so the first probe of a resident graph
  /// fixes the options used for it (cache.h).
  ProbeOptions probe_options;
};

/// Parses one request line into `req`. Throws PreconditionError on
/// malformed JSON, non-object documents, unknown/mistyped fields, or a
/// missing "algo". "id" is read before every other field, so when a later
/// one throws, req.id still names the request for its error envelope.
void parse_request(const std::string& line, ServeRequest& req);

/// Envelope builders. `report_json` is spliced verbatim (it is already
/// serialized — possibly straight out of the report cache).
std::string solve_envelope(const Json& id, bool graph_hit, bool report_hit,
                           const Digest& digest, double queue_ms,
                           double solve_ms, std::size_t batch,
                           const std::string& report_json);
std::string error_envelope(const Json& id, const std::string& message);
/// Generic success envelope with one named, already-built payload object
/// (used for "stats" and "shutdown" responses).
std::string payload_envelope(const Json& id, const std::string& key,
                             const Json& payload);

}  // namespace scol
