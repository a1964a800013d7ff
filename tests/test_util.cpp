// util module: checked errors, deterministic RNG, primes, table printer.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "scol/coloring/small_color_set.h"
#include "scol/util/check.h"
#include "scol/util/prime.h"
#include "scol/util/rng.h"
#include "scol/util/table.h"

namespace scol {
namespace {

TEST(Check, ThrowsTypedErrors) {
  EXPECT_THROW(SCOL_REQUIRE(false, + "user error"), PreconditionError);
  EXPECT_THROW(SCOL_CHECK(false, + "bug"), InternalError);
  EXPECT_NO_THROW(SCOL_REQUIRE(true));
  EXPECT_NO_THROW(SCOL_CHECK(true));
}

TEST(Check, MessagesContainContext) {
  try {
    SCOL_REQUIRE(1 == 2, + "custom context");
    FAIL();
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.below(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowMatchesTwoDivisionFormula) {
  // below() skips the threshold division when r >= bound; every draw and
  // every rejection must match the textbook formula that always divides.
  // At 2^63 + 1 the threshold is 2^63 - 1, so about half the draws reject.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  813,
                                  (std::uint64_t{1} << 32) - 1,
                                  (std::uint64_t{1} << 32) + 1,
                                  std::uint64_t{1} << 63,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t bound : bounds) {
    Rng fast(bound ^ 0x5eed), reference(bound ^ 0x5eed);
    const std::uint64_t threshold = -bound % bound;
    for (int i = 0; i < 100000; ++i) {
      std::uint64_t expected;
      do {
        expected = reference.next();
      } while (expected < threshold);
      ASSERT_EQ(fast.below(bound), expected % bound)
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(fast.next(), reference.next()) << "bound " << bound;
  }
}

TEST(Rng, UniformBoundsInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto x = rng.uniform(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prime, Basics) {
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(13));
  EXPECT_FALSE(is_prime(1));
  EXPECT_FALSE(is_prime(15));
  EXPECT_EQ(next_prime(14), 17);
  EXPECT_EQ(next_prime(17), 17);
  EXPECT_EQ(next_prime(0), 2);
}

TEST(Table, AlignsAndCsv) {
  Table t({"a", "bb"});
  t.row(1, "x");
  t.row(22, 3.5);
  std::ostringstream text, csv;
  t.print(text);
  t.print_csv(csv);
  EXPECT_NE(text.str().find("bb"), std::string::npos);
  EXPECT_EQ(csv.str(), "a,bb\n1,x\n22,3.500\n");
}

TEST(Table, RejectsWrongWidth) {
  Table t({"one", "two"});
  EXPECT_THROW(t.row(1), InternalError);
}

TEST(SmallColorSet, InsertContainsClear) {
  SmallColorSet s;
  EXPECT_FALSE(s.contains(0));
  s.insert(0);
  s.insert(5);
  s.insert(5);  // duplicate is a no-op
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(64));
  s.clear();
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(5));
}

TEST(SmallColorSet, SmallestFreeDensePrefix) {
  SmallColorSet s;
  EXPECT_EQ(s.smallest_free(), 0);
  for (Color c = 0; c < 10; ++c) {
    s.insert(c);
    EXPECT_EQ(s.smallest_free(), c + 1);
  }
  // A gap wins over everything above it.
  s.clear();
  for (Color c = 0; c < 10; ++c)
    if (c != 3) s.insert(c);
  EXPECT_EQ(s.smallest_free(), 3);
}

TEST(SmallColorSet, WordBoundaries) {
  // The bitset packs 64 colors per word; 63/64/65 straddle the first
  // boundary and must not alias each other.
  SmallColorSet s;
  s.insert(63);
  EXPECT_TRUE(s.contains(63));
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.smallest_free(), 0);
  s.insert(64);
  s.insert(65);
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(65));
  // Fill word 0 completely: the scan must advance into word 1 and land on
  // the first zero bit there (66).
  for (Color c = 0; c < 64; ++c) s.insert(c);
  EXPECT_EQ(s.smallest_free(), 66);
}

TEST(SmallColorSet, ClearResetsHighWaterMark) {
  SmallColorSet s;
  s.insert(200);  // forces several words into use
  EXPECT_TRUE(s.contains(200));
  s.clear();
  EXPECT_FALSE(s.contains(200));
  EXPECT_EQ(s.smallest_free(), 0);
  // Reuse after clear behaves like a fresh set even though capacity is
  // retained.
  s.insert(1);
  EXPECT_EQ(s.smallest_free(), 0);
  s.insert(0);
  EXPECT_EQ(s.smallest_free(), 2);
  EXPECT_FALSE(s.contains(200));
}

TEST(SmallColorSet, MatchesReferenceSetRandomized) {
  Rng rng(99);
  SmallColorSet s;
  for (int round = 0; round < 20; ++round) {
    s.clear();
    std::set<Color> ref;
    for (int i = 0; i < 40; ++i) {
      const Color c = static_cast<Color>(rng.below(150));
      s.insert(c);
      ref.insert(c);
    }
    for (Color c = 0; c < 160; ++c)
      EXPECT_EQ(s.contains(c), ref.count(c) > 0) << "color " << c;
    Color free = 0;
    while (ref.count(free) > 0) ++free;
    EXPECT_EQ(s.smallest_free(), free);
  }
}

}  // namespace
}  // namespace scol
