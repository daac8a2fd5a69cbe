#include "util/flat.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace snd::util {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);

  map.insert_or_assign(2, "two");
  map.insert_or_assign(1, "one");
  map.insert_or_assign(3, "three");
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(*map.find(2), "two");
  EXPECT_TRUE(map.contains(1));
  EXPECT_FALSE(map.contains(4));

  map.insert_or_assign(2, "TWO");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(2), "TWO");

  EXPECT_TRUE(map.erase(2));
  EXPECT_FALSE(map.erase(2));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, IterationAscendingByKey) {
  FlatMap<int, int> map;
  for (int k : {5, 1, 4, 2, 3}) map.insert_or_assign(k, k * 10);
  std::vector<int> keys;
  for (const auto& [k, v] : map) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FlatMapTest, TryEmplaceOnlyInsertsWhenAbsent) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.try_emplace(1, 10));
  EXPECT_FALSE(map.try_emplace(1, 20));
  EXPECT_EQ(*map.find(1), 10);
}

TEST(FlatMapTest, GetOrInsertDefaultConstructs) {
  FlatMap<int, int> map;
  int& v = map.get_or_insert(7);
  EXPECT_EQ(v, 0);
  v = 42;
  EXPECT_EQ(*map.find(7), 42);
  EXPECT_EQ(map.get_or_insert(7), 42);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatSetTest, InsertContainsOrdering) {
  FlatSet<int> set;
  EXPECT_TRUE(set.insert(3));
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(2));
  EXPECT_FALSE(set.insert(2));  // duplicate
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(9));
  EXPECT_EQ(set.keys(), (std::vector<int>{1, 2, 3}));
}

/// The flat map's items, in iteration order, must equal the std::map's.
void expect_same(const FlatMap<int, int>& flat, const std::map<int, int>& reference,
                 std::size_t step) {
  ASSERT_EQ(flat.size(), reference.size()) << "step " << step;
  EXPECT_EQ(flat.empty(), reference.empty()) << "step " << step;
  auto it = reference.begin();
  for (const auto& [k, v] : flat) {
    ASSERT_EQ(k, it->first) << "step " << step;
    ASSERT_EQ(v, it->second) << "step " << step;
    ++it;
  }
}

TEST(FlatContainersTest, RandomOperationsMatchStdContainers) {
  // One seeded operation sequence drives FlatMap/FlatSet and std::map/
  // std::set side by side. Keys come from a small range so inserts,
  // overwrites, hits and misses all occur often; contents and iteration
  // order are compared after every step.
  Rng rng(0xf1a7);
  FlatMap<int, int> map;
  std::map<int, int> map_reference;
  FlatSet<int> set;
  std::set<int> set_reference;
  for (std::size_t step = 0; step < 4000; ++step) {
    const int key = static_cast<int>(rng.uniform_int(std::uint64_t{64}));
    const int value = static_cast<int>(rng.uniform_int(std::uint64_t{1000}));
    switch (rng.uniform_int(std::uint64_t{7})) {
      case 0:
        map.insert_or_assign(key, value);
        map_reference.insert_or_assign(key, value);
        break;
      case 1:
        EXPECT_EQ(map.try_emplace(key, value), map_reference.emplace(key, value).second);
        break;
      case 2:
        map.get_or_insert(key) += value;
        map_reference[key] += value;
        break;
      case 3:
        EXPECT_EQ(map.erase(key), map_reference.erase(key) == 1);
        break;
      case 4: {
        const int* found = map.find(key);
        const auto it = map_reference.find(key);
        ASSERT_EQ(found != nullptr, it != map_reference.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        EXPECT_EQ(map.contains(key), map_reference.contains(key));
        break;
      }
      case 5:
        EXPECT_EQ(set.insert(key), set_reference.insert(key).second);
        break;
      default:
        EXPECT_EQ(set.contains(key), set_reference.contains(key));
        if (rng.chance(0.05)) {
          map.clear();
          map_reference.clear();
          set.clear();
          set_reference.clear();
        }
        break;
    }
    expect_same(map, map_reference, step);
    ASSERT_EQ(set.keys(), std::vector<int>(set_reference.begin(), set_reference.end()))
        << "step " << step;
    EXPECT_EQ(set.size(), set_reference.size());
    EXPECT_EQ(set.empty(), set_reference.empty());
  }
}

}  // namespace
}  // namespace snd::util
