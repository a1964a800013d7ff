// Minimal JSON value tree: the ColoringReport serializer and the wire
// parser of the serving layer.
//
// scol-cli emits every run as one machine-readable JSON report — the
// ingestion format the scol-serve daemon and CI's schema check consume.
// The tree is deliberately tiny (objects keep insertion order): enough
// for reports, telemetry dumps, bench output, and the newline-delimited
// request/response protocol of serve/ without an external dependency.
// parse() is strict recursive descent over one document; the writer's
// output always round-trips through it byte-identically (shortest
// round-trip doubles, minimal escapes), which is what lets cached report
// JSON be compared and re-emitted verbatim.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scol/api/params.h"
#include "scol/api/report.h"

namespace scol {

class Json {
 public:
  Json() = default;  // null
  static Json boolean(bool v);
  static Json integer(std::int64_t v);
  static Json real(double v);
  static Json str(std::string v);
  static Json array();
  static Json object();
  static Json from_param(const ParamBag::Value& v);

  /// Strict parse of exactly one JSON document (trailing whitespace
  /// allowed, anything else throws PreconditionError naming the byte
  /// offset). Numbers lex as kInt when they are integral without '.', 'e'
  /// and fit std::int64_t, else kReal — mirroring the writer, so
  /// parse(x.dump()).dump() == x.dump().
  static Json parse(const std::string& text);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_real() const { return kind_ == Kind::kReal; }
  bool is_number() const { return is_int() || is_real(); }
  bool is_str() const { return kind_ == Kind::kStr; }
  bool is_array() const { return kind_ == Kind::kArr; }
  bool is_object() const { return kind_ == Kind::kObj; }

  /// Typed readers; each throws PreconditionError on a kind mismatch
  /// (as_real widens an int).
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_real() const;
  const std::string& as_str() const;

  /// Object lookup: the member value, or nullptr when absent (or when
  /// this is not an object).
  const Json* get(const std::string& key) const;

  /// Array / object element counts (0 for scalars).
  std::size_t size() const;
  /// Array element (throws on kind mismatch or out-of-range).
  const Json& at(std::size_t i) const;
  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object field (insertion-ordered; replaces an existing key).
  Json& set(const std::string& key, Json value);
  /// Array element.
  Json& push(Json value);
  /// Pre-sizes an array's backing storage (Json nodes are large, so
  /// growth reallocations are worth avoiding when the count is known).
  Json& reserve(std::size_t n);

  /// Compact serialization (indent < 0) or pretty with `indent` spaces.
  std::string dump(int indent = -1) const;

 private:
  enum class Kind { kNull, kBool, kInt, kReal, kStr, kArr, kObj };
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double real_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// The ParamBag as a JSON object (insertion order preserved).
Json to_json(const ParamBag& bag);

/// The full report: algorithm, status, colors_used, rounds, wall_ms,
/// ledger breakdown, metrics, certificate/failure when present, and the
/// coloring itself when include_coloring is set.
Json to_json(const ColoringReport& report, bool include_coloring = false);

}  // namespace scol
