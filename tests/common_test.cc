// Unit tests for the common module: Status/Result, Interner, Rng, string
// helpers.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/interner.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"

namespace lpath {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad query");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Corruption("a"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  LPATH_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 21);
  EXPECT_EQ(*ok, 21);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err = Doubled(0);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(InternerTest, InternIsIdempotent) {
  Interner in;
  Symbol a = in.Intern("NP");
  Symbol b = in.Intern("VP");
  EXPECT_NE(a, kNoSymbol);
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("NP"), a);
  EXPECT_EQ(in.name(a), "NP");
  EXPECT_EQ(in.name(b), "VP");
  EXPECT_EQ(in.size(), 2u);
}

TEST(InternerTest, LookupDoesNotInsert) {
  Interner in;
  EXPECT_EQ(in.Lookup("missing"), kNoSymbol);
  EXPECT_EQ(in.size(), 0u);
  Symbol a = in.Intern("x");
  EXPECT_EQ(in.Lookup("x"), a);
}

TEST(InternerTest, ManySymbolsStayStable) {
  Interner in;
  std::vector<Symbol> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(in.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(in.name(ids[i]), "sym" + std::to_string(i));
  }
}

/// A flat parent holding "NP", "VP", "saw" (ids 1..3), shared the way a
/// snapshot chain shares its base dictionary.
std::shared_ptr<const Interner> ThreeSymbolParent() {
  auto parent = std::make_shared<Interner>();
  parent->Intern("NP");
  parent->Intern("VP");
  parent->Intern("saw");
  return parent;
}

TEST(InternerOverlayTest, ParentIdsResolveThroughTheOverlay) {
  std::shared_ptr<const Interner> parent = ThreeSymbolParent();
  Interner overlay(parent);
  EXPECT_EQ(overlay.parent(), parent);
  EXPECT_EQ(overlay.end_id(), parent->end_id());
  EXPECT_EQ(overlay.size(), 3u);
  for (Symbol s = 1; s < parent->end_id(); ++s) {
    EXPECT_EQ(overlay.name(s), parent->name(s)) << s;
    EXPECT_EQ(overlay.Lookup(parent->name(s)), s) << s;
    // Interning a parent string returns the parent id and adds nothing.
    EXPECT_EQ(overlay.Intern(parent->name(s)), s) << s;
  }
  EXPECT_EQ(overlay.end_id(), parent->end_id());
  EXPECT_EQ(overlay.Lookup("missing"), kNoSymbol);
}

TEST(InternerOverlayTest, NewStringsTakeIdsFromTheParentsEnd) {
  std::shared_ptr<const Interner> parent = ThreeSymbolParent();
  Interner overlay(parent);
  const Symbol dog = overlay.Intern("dog");
  const Symbol cat = overlay.Intern("cat");
  EXPECT_EQ(dog, parent->end_id());
  EXPECT_EQ(cat, parent->end_id() + 1);
  EXPECT_EQ(overlay.Intern("dog"), dog);
  EXPECT_EQ(overlay.name(dog), "dog");
  EXPECT_EQ(overlay.name(cat), "cat");
  EXPECT_EQ(overlay.Lookup("cat"), cat);
  EXPECT_EQ(overlay.size(), 5u);
  EXPECT_EQ(overlay.end_id(), parent->end_id() + 2);
  // The parent is never written through the overlay.
  EXPECT_EQ(parent->size(), 3u);
  EXPECT_EQ(parent->Lookup("dog"), kNoSymbol);
}

TEST(InternerOverlayTest, CloneKeepsIdsAndCopiesOnlyOwnStrings) {
  std::shared_ptr<const Interner> parent = ThreeSymbolParent();
  Interner overlay(parent);
  overlay.Intern("dog");
  overlay.Intern("cat");
  Interner clone = overlay.Clone();
  // The clone shares the parent (no parent string is copied) ...
  EXPECT_EQ(clone.parent(), parent);
  EXPECT_EQ(clone.name(1).data(), parent->name(1).data());
  // ... and owns copies of the overlay's strings, under the same ids.
  ASSERT_EQ(clone.end_id(), overlay.end_id());
  for (Symbol s = 1; s < overlay.end_id(); ++s) {
    EXPECT_EQ(clone.name(s), overlay.name(s)) << s;
  }
  const Symbol dog = overlay.Lookup("dog");
  EXPECT_NE(clone.name(dog).data(), overlay.name(dog).data());
  // The clone extends independently of its source.
  const Symbol eel = clone.Intern("eel");
  EXPECT_EQ(eel, overlay.end_id());
  EXPECT_EQ(overlay.Lookup("eel"), kNoSymbol);
}

TEST(InternerOverlayTest, FlattenGivesAParentFreeCopyWithTheSameIds) {
  std::shared_ptr<const Interner> parent = ThreeSymbolParent();
  Interner overlay(parent);
  overlay.Intern("dog");
  overlay.Intern("cat");
  Interner flat = overlay.Flatten();
  EXPECT_EQ(flat.parent(), nullptr);
  ASSERT_EQ(flat.end_id(), overlay.end_id());
  for (Symbol s = 1; s < overlay.end_id(); ++s) {
    EXPECT_EQ(flat.name(s), overlay.name(s)) << s;
    EXPECT_EQ(flat.Lookup(overlay.name(s)), s) << s;
  }
  // A flat dictionary is a valid overlay parent again.
  auto shared_flat = std::make_shared<const Interner>(std::move(flat));
  Interner relayered(shared_flat);
  EXPECT_EQ(relayered.Intern("cat"), overlay.Lookup("cat"));
  EXPECT_EQ(relayered.Intern("eel"), overlay.end_id());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  Rng rng(5);
  DiscreteSampler s({1.0, 0.0, 3.0});
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) counts[s.Sample(&rng)] += 1;
  EXPECT_EQ(counts[1], 0);
  // 3:1 ratio within generous tolerance.
  EXPECT_GT(counts[2], counts[0] * 2);
  EXPECT_LT(counts[2], counts[0] * 4);
}

TEST(ZipfSamplerTest, RankOneIsMostFrequent) {
  Rng rng(11);
  ZipfSampler z(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) counts[z.Sample(&rng)] += 1;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StrUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("NP-SBJ", "NP"));
  EXPECT_FALSE(StartsWith("NP", "NP-SBJ"));
  EXPECT_TRUE(EndsWith("NP-SBJ", "-SBJ"));
  EXPECT_FALSE(EndsWith("SBJ", "NP-SBJ"));
}

TEST(StrUtilTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("NP*", "NP-SBJ"));
  EXPECT_TRUE(GlobMatch("NP*", "NP"));
  EXPECT_FALSE(GlobMatch("NP*", "VP"));
  EXPECT_TRUE(GlobMatch("*SBJ", "NP-SBJ"));
  EXPECT_TRUE(GlobMatch("N?-*", "NP-SBJ"));
  EXPECT_FALSE(GlobMatch("N?-*", "NPP-SBJ"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXXcYYb"));
}

TEST(StrUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-9876543), "-9,876,543");
}

}  // namespace
}  // namespace lpath
