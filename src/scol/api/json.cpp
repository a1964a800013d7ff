#include "scol/api/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scol {

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::real(double v) {
  Json j;
  j.kind_ = Kind::kReal;
  j.real_ = v;
  return j;
}

Json Json::str(std::string v) {
  Json j;
  j.kind_ = Kind::kStr;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArr;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObj;
  return j;
}

Json Json::from_param(const ParamBag::Value& v) {
  if (std::holds_alternative<std::int64_t>(v))
    return integer(std::get<std::int64_t>(v));
  if (std::holds_alternative<double>(v)) return real(std::get<double>(v));
  if (std::holds_alternative<bool>(v)) return boolean(std::get<bool>(v));
  return str(std::get<std::string>(v));
}

bool Json::as_bool() const {
  SCOL_REQUIRE(kind_ == Kind::kBool, + "as_bool() needs a JSON bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  SCOL_REQUIRE(kind_ == Kind::kInt, + "as_int() needs a JSON integer");
  return int_;
}

double Json::as_real() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  SCOL_REQUIRE(kind_ == Kind::kReal, + "as_real() needs a JSON number");
  return real_;
}

const std::string& Json::as_str() const {
  SCOL_REQUIRE(kind_ == Kind::kStr, + "as_str() needs a JSON string");
  return str_;
}

const Json* Json::get(const std::string& key) const {
  if (kind_ != Kind::kObj) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArr) return arr_.size();
  if (kind_ == Kind::kObj) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  SCOL_REQUIRE(kind_ == Kind::kArr, + "at() needs a JSON array");
  SCOL_REQUIRE(i < arr_.size(), + "JSON array index out of range");
  return arr_[i];
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  static const std::vector<std::pair<std::string, Json>> kEmpty;
  return kind_ == Kind::kObj ? obj_ : kEmpty;
}

Json& Json::set(const std::string& key, Json value) {
  SCOL_REQUIRE(kind_ == Kind::kObj, + "set() needs a JSON object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  SCOL_REQUIRE(kind_ == Kind::kArr, + "push() needs a JSON array");
  arr_.push_back(std::move(value));
  return *this;
}

Json& Json::reserve(std::size_t n) {
  SCOL_REQUIRE(kind_ == Kind::kArr, + "reserve() needs a JSON array");
  arr_.reserve(n);
  return *this;
}

namespace {

// Appends the escaped form of `s` straight into `out` — runs of clean
// characters go through one bulk append instead of per-character pushes.
// This sits on the campaign JSONL hot path (one call per string field
// per job line), so no temporaries.
void json_escape_to(std::string& out, const std::string& s) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* esc = nullptr;
    switch (c) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\t':
        esc = "\\t";
        break;
      case '\r':
        esc = "\\r";
        break;
      default:
        break;
    }
    if (esc == nullptr && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s, start, i - start);
    if (esc != nullptr) {
      out += esc;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    }
    start = i + 1;
  }
  out.append(s, start, s.size() - start);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";
  // Padding is appended directly (no per-node pad strings); compact mode
  // pads nothing.
  const auto pad_to = [&](int d) {
    if (pretty) out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      // std::to_string allocates a temporary per call — a coloring array
      // dumps thousands of integers, so format into a stack buffer.
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, res.ptr);
      break;
    }
    case Kind::kReal: {
      if (std::isfinite(real_)) {
        // Shortest decimal that parses back to the same double, so a
        // report survives a JSON round trip without numeric drift.
        char buf[64];
        for (int prec = 15; prec <= 17; ++prec) {
          std::snprintf(buf, sizeof(buf), "%.*g", prec, real_);
          if (std::strtod(buf, nullptr) == real_) break;
        }
        out += buf;
      } else {
        out += "null";  // JSON has no inf/nan
      }
      break;
    }
    case Kind::kStr:
      out += '"';
      json_escape_to(out, str_);
      out += '"';
      break;
    case Kind::kArr: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        pad_to(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += nl;
      }
      pad_to(depth);
      out += ']';
      break;
    }
    case Kind::kObj: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        pad_to(depth + 1);
        out += '"';
        json_escape_to(out, obj_[i].first);
        out += '"';
        out += colon;
        obj_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < obj_.size()) out += ',';
        out += nl;
      }
      pad_to(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

// Strict recursive-descent parser over one document. Kept symmetric with
// the writer: integral numbers without '.', 'e', or int64 overflow become
// kInt, everything else kReal, so writer output survives a round trip
// byte-identically (the serve report cache depends on that).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    SCOL_REQUIRE(pos_ == text_.size(),
                 + ("JSON: trailing content at offset " +
                    std::to_string(pos_)));
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("JSON: " + what + " at offset " +
                            std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Json parse_value(int depth) {
    // A depth limit turns a hostile deeply-nested request line into a
    // clean PreconditionError instead of a stack overflow.
    SCOL_REQUIRE(depth < 96, + "JSON: nesting deeper than 96 levels");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json::str(parse_string());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected a member name");
      std::string key = parse_string();
      expect(':');
      // Duplicate members: last one wins (set() replaces), matching the
      // common lenient reading; the protocol layer re-validates keys.
      obj.set(key, parse_value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value(depth + 1));
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const unsigned cp = parse_hex4();
          // Surrogate pairs and the BMP both encode as UTF-8; a lone
          // surrogate is rejected (it has no valid encoding).
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            append_utf8(out,
                        0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00));
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          } else {
            append_utf8(out, cp);
          }
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    SCOL_REQUIRE(pos_ + 4 <= text_.size(), + "JSON: truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        digits = true;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
      } else {
        break;
      }
      ++pos_;
    }
    if (!digits) fail("invalid number");
    const std::string tok = text_.substr(start, pos_ - start);
    // RFC 8259: no leading zeros ("01") — the writer never emits them,
    // and accepting them would let two spellings of one number coexist
    // on a wire where cached bytes are compared for equality.
    const std::size_t first = tok[0] == '-' ? 1 : 0;
    if (tok.size() > first + 1 && tok[first] == '0' &&
        tok[first + 1] >= '0' && tok[first + 1] <= '9')
      fail("leading zero in number");
    if (integral) {
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size())
        return Json::integer(v);
      // Integral lexeme that overflows int64: fall through to double.
    }
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("invalid number");
    return Json::real(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json to_json(const ParamBag& bag) {
  Json obj = Json::object();
  for (const auto& [name, value] : bag.items())
    obj.set(name, Json::from_param(value));
  return obj;
}

Json to_json(const ColoringReport& report, bool include_coloring) {
  Json obj = Json::object();
  obj.set("algorithm", Json::str(report.algorithm));
  obj.set("status", Json::str(to_string(report.status)));
  obj.set("colors_used", Json::integer(report.colors_used));
  obj.set("rounds", Json::integer(report.rounds));
  obj.set("wall_ms", Json::real(report.wall_ms));

  Json ledger = Json::object();
  for (const auto& [phase, rounds] : report.ledger.breakdown())
    ledger.set(phase, Json::integer(rounds));
  obj.set("ledger", std::move(ledger));
  obj.set("metrics", to_json(report.metrics));

  obj.set("deadline_exceeded", Json::boolean(report.deadline_exceeded));
  obj.set("round_budget_exceeded",
          Json::boolean(report.round_budget_exceeded));

  if (!report.failure_reason.empty())
    obj.set("failure_reason", Json::str(report.failure_reason));
  if (report.certificate.has_value()) {
    obj.set("certificate_kind", Json::str(report.certificate_kind));
    Json cert = Json::array();
    for (const Vertex v : *report.certificate) cert.push(Json::integer(v));
    obj.set("certificate", std::move(cert));
  }
  if (include_coloring && report.coloring.has_value()) {
    Json colors = Json::array();
    colors.reserve(report.coloring->size());
    for (const Color c : *report.coloring) colors.push(Json::integer(c));
    obj.set("coloring", std::move(colors));
  }
  return obj;
}

Json to_json(const GraphProbe& probe) {
  Json out = Json::object();
  out.set("n", Json::integer(probe.n));
  out.set("m", Json::integer(probe.m));
  out.set("max_degree", Json::integer(probe.max_degree));
  out.set("degeneracy", Json::integer(probe.degeneracy));
  out.set("degeneracy_exact", Json::boolean(probe.degeneracy_exact));
  out.set("degeneracy_lower", Json::integer(probe.degeneracy_lower));
  out.set("sampled", Json::boolean(probe.sampled));
  out.set("mad_upper", Json::real(probe.mad_upper));
  out.set("mad_exact", Json::boolean(probe.mad_exact));
  out.set("arboricity_upper", Json::integer(probe.arboricity_upper));
  out.set("arboricity_exact", Json::boolean(probe.arboricity_exact));
  out.set("components", Json::integer(probe.components));
  out.set("connected", Json::boolean(probe.connected));
  out.set("forest", Json::boolean(probe.forest));
  out.set("complete", Json::boolean(probe.complete));
  out.set("girth", Json::integer(probe.girth));
  out.set("girth_floor", Json::integer(probe.girth_floor));
  out.set("triangle_free", Json::boolean(probe.triangle_free));
  out.set("planar", Json::str(to_string(probe.planar)));
  return out;
}

Json scenario_json(const std::string& spec, const Graph& g) {
  Json out = Json::object();
  out.set("spec", Json::str(spec));
  out.set("n", Json::integer(g.num_vertices()));
  out.set("m", Json::integer(g.num_edges()));
  out.set("max_degree", Json::integer(g.max_degree()));
  return out;
}

}  // namespace scol
