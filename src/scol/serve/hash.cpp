#include "scol/serve/hash.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "scol/util/check.h"

namespace scol {

namespace {

// FNV-1a 128: prime 2^88 + 2^8 + 0x3b, offset basis per the FNV spec.
unsigned __int128 fnv_prime() {
  return (static_cast<unsigned __int128>(1) << 88) | 0x13b;
}

}  // namespace

unsigned __int128 Hasher::fnv_offset() {
  // 0x6c62272e07bb014262b821756295c58d
  return (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
         0x62b821756295c58dULL;
}

Hasher& Hasher::update(const void* data, std::size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  unsigned __int128 h = state_;
  const unsigned __int128 prime = fnv_prime();
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= prime;
  }
  state_ = h;
  return *this;
}

Digest Hasher::digest() const {
  Digest d;
  d.hi = static_cast<std::uint64_t>(state_ >> 64);
  d.lo = static_cast<std::uint64_t>(state_);
  return d;
}

std::string Digest::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

Digest Digest::from_hex(const std::string& hex) {
  SCOL_REQUIRE(hex.size() == 32, + "digest wants 32 hex characters");
  const auto half = [&](std::size_t offset) {
    std::uint64_t v = 0;
    const auto res =
        std::from_chars(hex.data() + offset, hex.data() + offset + 16, v, 16);
    SCOL_REQUIRE(res.ec == std::errc() && res.ptr == hex.data() + offset + 16,
                 + ("digest has non-hex characters: '" + hex + "'"));
    return v;
  };
  Digest d;
  d.hi = half(0);
  d.lo = half(16);
  return d;
}

Digest hash_graph(const Graph& g) {
  Hasher h;
  const Vertex n = g.num_vertices();
  h.update_u64(static_cast<std::uint64_t>(n));
  // Degrees then flattened adjacency: exactly the CSR content, without
  // reaching into the Graph's private arrays. Adjacency lists are sorted
  // by construction, so equal graphs produce equal byte streams.
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    h.update_u64(nbrs.size());
    if (!nbrs.empty())
      h.update(nbrs.data(), nbrs.size() * sizeof(Vertex));
  }
  return h.digest();
}

std::string canonical_params(const ParamBag& bag) {
  std::vector<std::pair<std::string, const ParamBag::Value*>> entries;
  entries.reserve(bag.items().size());
  for (const auto& [name, value] : bag.items())
    entries.emplace_back(name, &value);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [name, value] : entries) {
    if (!out.empty()) out += ',';
    out += name;
    out += '=';
    if (std::holds_alternative<std::int64_t>(*value)) {
      out += "i:" + std::to_string(std::get<std::int64_t>(*value));
    } else if (std::holds_alternative<double>(*value)) {
      // Shortest round-trip formatting, mirroring the JSON writer, so
      // the same double always canonicalizes to the same token.
      char buf[64];
      const double d = std::get<double>(*value);
      for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) break;
      }
      out += "r:";
      out += buf;
    } else if (std::holds_alternative<bool>(*value)) {
      out += std::get<bool>(*value) ? "f:true" : "f:false";
    } else {
      // Length-prefixed so an embedded ',' or '=' cannot forge another
      // entry's boundary.
      const std::string& s = std::get<std::string>(*value);
      out += "s:" + std::to_string(s.size()) + ":" + s;
    }
  }
  return out;
}

}  // namespace scol
