// Core coloring types: colorings, list assignments, and validity checks.
//
// Colors are arbitrary non-negative integers (the paper's lists need not be
// {1..k}); kUncolored marks vertices not yet colored.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/rng.h"

namespace scol {

using Color = std::int32_t;
inline constexpr Color kUncolored = -1;

using Coloring = std::vector<Color>;

/// A k-list-assignment L: of(v) is the set of allowed colors of v (paper
/// §1.2: |L(v)| >= k for a k-list-assignment).
///
/// Two representations behind one interface, both handing out per-vertex
/// palettes as zero-copy spans:
/// - Explicit: flat CSR (offsets + one contiguous color array), mirroring
///   Graph, so a sweep over all lists is a linear scan, not a pointer
///   chase. Lists are appended in vertex order via append();
///   from_lists() converts the vector-of-vectors shape used by tests and
///   ad-hoc callers.
/// - Uniform: uniform_lists(n, k), the lists of ordinary k-coloring,
///   stores one shared [0, k) array plus n. Every of(v) is that array, so
///   the assignment costs O(k) memory rather than n·k, and the whole-
///   assignment queries (canonical, min_list_size, palette, respects_lists)
///   cost O(k) or O(1). Such an assignment is complete: append() refuses.
///
/// flat() is a forward view over all colors in vertex order whose O(1)
/// size() is Σ|L(v)| under both representations.
class ListAssignment {
 public:
  /// Forward range over every list's colors, concatenated in vertex
  /// order: the explicit color array once, or the shared uniform list n
  /// times. It refers to the assignment's storage and must not outlive it.
  class FlatView {
   public:
    class iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::forward_iterator_tag;
      using value_type = Color;
      using difference_type = std::ptrdiff_t;
      using pointer = const Color*;
      using reference = const Color&;

      iterator() = default;
      reference operator*() const { return base_[i_]; }
      iterator& operator++() {
        if (++i_ == len_) {
          i_ = 0;
          ++rep_;
        }
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class FlatView;
      iterator(const Color* base, std::size_t len, std::size_t rep)
          : base_(base), len_(len), rep_(rep) {}
      const Color* base_ = nullptr;
      std::size_t len_ = 0;  // colors per repetition
      std::size_t i_ = 0;    // position within the repetition
      std::size_t rep_ = 0;  // repetitions completed
    };

    iterator begin() const { return {base_, len_, 0}; }
    iterator end() const { return {base_, len_, reps_}; }
    std::size_t size() const { return len_ * reps_; }

   private:
    friend class ListAssignment;
    // An empty block repeats zero times, so begin() == end().
    FlatView(std::span<const Color> block, std::size_t reps)
        : base_(block.data()),
          len_(block.size()),
          reps_(block.empty() ? 0 : reps) {}
    const Color* base_;
    std::size_t len_;
    std::size_t reps_;
  };

  ListAssignment() = default;

  /// Number of vertices with a list.
  Vertex size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// True iff this is a uniform_lists(n, k) assignment: every of(v) is the
  /// one shared list [0, k).
  bool uniform() const { return uniform_; }

  /// The (sorted, duplicate-free when canonical) list of v, zero-copy.
  std::span<const Color> of(Vertex v) const {
    if (uniform_) return colors_;
    return {colors_.data() + offsets_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1] -
                                     offsets_[static_cast<std::size_t>(v)])};
  }

  /// Appends the list of vertex size() (lists are built in vertex order).
  void append(std::span<const Color> list) {
    SCOL_REQUIRE(!uniform_, + "a uniform assignment takes no more lists");
    colors_.insert(colors_.end(), list.begin(), list.end());
    offsets_.push_back(static_cast<std::int64_t>(colors_.size()));
    ++n_;
  }
  void append(std::initializer_list<Color> list) {
    append(std::span<const Color>(list.begin(), list.size()));
  }

  /// Pre-sizes the backing arrays (n lists, `total_colors` colors overall).
  void reserve(Vertex n, std::size_t total_colors) {
    offsets_.reserve(static_cast<std::size_t>(n) + 1);
    colors_.reserve(total_colors);
  }

  /// Converts from the vector-of-vectors shape.
  static ListAssignment from_lists(const std::vector<std::vector<Color>>& ls);

  /// All colors of all lists, concatenated in vertex order.
  FlatView flat() const {
    return uniform_ ? FlatView(colors_, static_cast<std::size_t>(n_))
                    : FlatView(colors_, 1);
  }

  /// The lists of `vertices`, in that order: list x of the result is
  /// of(vertices[x]). A uniform assignment stays uniform.
  ListAssignment select(std::span<const Vertex> vertices) const;

  /// Smallest list size (the k of the k-list-assignment).
  std::size_t min_list_size() const;

  /// The sorted distinct colors over all lists (the shared list when
  /// uniform and n > 0).
  std::vector<Color> palette() const;

  /// True iff every list is sorted and duplicate-free (the canonical form
  /// produced by the constructors below; algorithms may require it).
  bool canonical() const;

 private:
  friend ListAssignment uniform_lists(Vertex n, Color k);

  // Explicit: CSR offsets (size n+1) and the per-vertex slices. Uniform:
  // offsets_ unused, colors_ the shared [0, k).
  std::vector<std::int64_t> offsets_{0};
  std::vector<Color> colors_;
  Vertex n_ = 0;
  bool uniform_ = false;
};

/// The vector-of-vectors shape of an assignment, for algorithms that
/// mutate lists in place (the ERT construction shrinks its AvailableLists).
std::vector<std::vector<Color>> to_lists(const ListAssignment& lists);

/// The identical-lists assignment {0..k-1} for every vertex: list-coloring
/// with these lists is exactly ordinary k-coloring. Stored implicitly: one
/// shared k-array, whatever n.
ListAssignment uniform_lists(Vertex n, Color k);

/// Random k-subsets of a palette of `palette_size` colors.
ListAssignment random_lists(Vertex n, Color k, Color palette_size, Rng& rng);

/// All vertices uncolored.
Coloring empty_coloring(Vertex n);

/// True iff every vertex is colored and no edge is monochromatic.
bool is_proper(const Graph& g, const Coloring& c);

/// True iff no edge with both ends colored is monochromatic (partial
/// colorings allowed).
bool is_partial_proper(const Graph& g, const Coloring& c);

/// True iff every colored vertex uses a color from its list.
bool respects_lists(const Coloring& c, const ListAssignment& lists);

/// Number of distinct colors used (ignores uncolored vertices).
Vertex count_colors(const Coloring& c);

/// True iff color x is in the (sorted) list.
bool list_contains(std::span<const Color> list, Color x);

}  // namespace scol
