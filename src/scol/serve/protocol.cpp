#include "scol/serve/protocol.h"

#include <cstdio>

#include "scol/api/registry.h"
#include "scol/util/check.h"

namespace scol {

namespace {

std::int64_t want_int(const Json& v, const char* field) {
  SCOL_REQUIRE(v.is_int(),
               + ("field '" + std::string(field) + "' wants an integer"));
  return v.as_int();
}

std::string want_str(const Json& v, const char* field) {
  SCOL_REQUIRE(v.is_str(),
               + ("field '" + std::string(field) + "' wants a string"));
  return v.as_str();
}

ParamBag params_from_json(const Json& v) {
  SCOL_REQUIRE(v.is_object(), + "field 'params' wants an object");
  ParamBag bag;
  for (const auto& [name, value] : v.members()) {
    if (value.is_int()) {
      bag.set_int(name, value.as_int());
    } else if (value.is_real()) {
      bag.set_real(name, value.as_real());
    } else if (value.is_bool()) {
      bag.set_flag(name, value.as_bool());
    } else if (value.is_str()) {
      bag.set_str(name, value.as_str());
    } else {
      SCOL_REQUIRE(false, + ("param '" + name + "' wants a scalar"));
    }
  }
  return bag;
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  const Json doc = Json::parse(line);
  SCOL_REQUIRE(doc.is_object(), + "request wants a JSON object");

  ServeRequest req;
  // The server never times reports (envelope telemetry carries latency),
  // and always validates: a cached verdict must be a checked verdict.
  req.spec.include_timing = false;
  req.spec.validate = true;

  bool have_gen = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "op") {
      const std::string op = want_str(value, "op");
      if (op == "solve") {
        req.op = ServeOp::kSolve;
      } else if (op == "probe") {
        req.op = ServeOp::kProbe;
      } else if (op == "stats") {
        req.op = ServeOp::kStats;
      } else if (op == "shutdown") {
        req.op = ServeOp::kShutdown;
      } else {
        SCOL_REQUIRE(false, + ("unknown op '" + op + "'"));
      }
    } else if (key == "id") {
      SCOL_REQUIRE(value.is_int() || value.is_str(),
                   + "field 'id' wants an integer or string");
      req.id = value;
    } else if (key == "gen") {
      req.spec.scenario = want_str(value, "gen");
      have_gen = true;
    } else if (key == "hash") {
      req.digest = Digest::from_hex(want_str(value, "hash"));
    } else if (key == "algo") {
      req.spec.algorithm = want_str(value, "algo");
    } else if (key == "seed") {
      req.spec.seed =
          static_cast<std::uint64_t>(want_int(value, "seed"));
    } else if (key == "k") {
      req.spec.k = static_cast<Vertex>(want_int(value, "k"));
    } else if (key == "lists") {
      req.spec.lists_mode = want_str(value, "lists");
      require_lists_mode(req.spec.lists_mode);
    } else if (key == "palette") {
      req.spec.palette = static_cast<Color>(want_int(value, "palette"));
    } else if (key == "params") {
      req.spec.params = params_from_json(value);
    } else if (key == "round_budget") {
      req.spec.round_budget = want_int(value, "round_budget");
    } else if (key == "probe_budget") {
      req.probe_options.budget = want_int(value, "probe_budget");
    } else if (key == "with_coloring") {
      SCOL_REQUIRE(value.is_bool(),
                   + "field 'with_coloring' wants a boolean");
      req.spec.with_coloring = value.as_bool();
    } else {
      SCOL_REQUIRE(false, + ("unknown request field '" + key + "'"));
    }
  }

  if (req.op == ServeOp::kSolve)
    SCOL_REQUIRE(!req.spec.algorithm.empty(),
                 + "solve request wants 'algo'");
  if (req.op == ServeOp::kSolve || req.op == ServeOp::kProbe)
    SCOL_REQUIRE(!(have_gen && req.digest.has_value()),
                 + "request wants 'gen' or 'hash', not both");
  return req;
}

namespace {

void append_id(std::string& out, const Json& id) {
  out += "{\"id\":";
  out += id.dump();  // null / integer / escaped string
  out += ",\"ok\":";
}

std::string format_ms(double ms) {
  // Envelope latencies are diagnostics, not contract: fixed 3 decimals
  // (microsecond resolution) keeps them short and schema-friendly.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::string solve_envelope(const Json& id, bool graph_hit, bool report_hit,
                           const Digest& digest, double queue_ms,
                           double solve_ms, std::size_t batch,
                           const std::string& report_json) {
  std::string out;
  out.reserve(160 + report_json.size());
  append_id(out, id);
  out += "true,\"cache\":{\"graph\":\"";
  out += graph_hit ? "hit" : "miss";
  out += "\",\"report\":\"";
  out += report_hit ? "hit" : "miss";
  out += "\",\"hash\":\"";
  out += digest.hex();
  out += "\"},\"telemetry\":{\"queue_ms\":";
  out += format_ms(queue_ms);
  out += ",\"solve_ms\":";
  out += format_ms(solve_ms);
  out += ",\"batch\":";
  out += std::to_string(batch);
  // Spliced, not re-serialized: cached bytes go out exactly as stored.
  out += "},\"report\":";
  out += report_json;
  out += "}";
  return out;
}

std::string error_envelope(const Json& id, const std::string& message) {
  std::string out;
  append_id(out, id);
  out += "false,\"error\":";
  out += Json::str(message).dump();
  out += "}";
  return out;
}

std::string payload_envelope(const Json& id, const std::string& key,
                             const Json& payload) {
  std::string out;
  append_id(out, id);
  out += "true,\"";
  out += key;
  out += "\":";
  out += payload.dump();
  out += "}";
  return out;
}

}  // namespace scol
