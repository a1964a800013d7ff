// Content addressing for the serving layer: a 128-bit FNV-1a digest over
// graph structure and canonical request fields.
//
// Two hashes make scol-serve's caches sound:
//
//  - hash_graph() digests the CSR itself (n, offsets, adjacency), so the
//    SAME graph content gets the SAME address no matter how it was named:
//    "grid" and "grid:rows=20,cols=20" generate identical graphs and
//    land on one cache entry, and a client that learned a digest can
//    resubmit by hash without shipping the graph again.
//
//  - canonical_params() flattens a ParamBag into a type-tagged,
//    name-sorted string, so permuted insertions of the same parameters
//    key identically while distinct values (or the same value at a
//    different type) never collide.
//
// 128 bits keeps accidental collisions out of reach for any realistic
// cache population; the digest is NOT cryptographic and must not be used
// to authenticate untrusted inputs.
#pragma once

#include <cstdint>
#include <string>

#include "scol/api/params.h"
#include "scol/graph/graph.h"

namespace scol {

/// A 128-bit content digest, printable as 32 lowercase hex characters.
struct Digest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest&) const = default;
  bool operator<(const Digest& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  std::string hex() const;
  /// Parses 32 hex characters; throws PreconditionError otherwise.
  static Digest from_hex(const std::string& hex);
};

/// Incremental 128-bit FNV-1a hasher (bytes in, Digest out).
class Hasher {
 public:
  Hasher& update(const void* data, std::size_t size);
  Hasher& update_u64(std::uint64_t v) { return update(&v, sizeof(v)); }
  Digest digest() const;

 private:
  unsigned __int128 state_ = fnv_offset();
  static unsigned __int128 fnv_offset();
};

/// Digest of a graph's exact CSR content (n, per-vertex degrees, sorted
/// adjacency). Isomorphic-but-relabeled graphs hash differently — this is
/// content addressing, not canonical-form hashing.
Digest hash_graph(const Graph& g);

/// Canonical flat encoding of a ParamBag: entries sorted by name, each
/// value tagged with its stored type ("i:"/"r:"/"f:"/"s:"). Insertion
/// order never leaks into the result.
std::string canonical_params(const ParamBag& bag);

}  // namespace scol
