/**
 * @file
 * FlatMap tests: lookups survive growth, backward-shift erase keeps
 * every remaining entry reachable (also when a probe chain wraps past
 * the end of the table), and a million randomized operations agree
 * with std::unordered_map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"

using fugu::sim::FlatMap;
using fugu::sim::TableHealth;

namespace
{

constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ull;

/** Multiplicative inverse of kPhi mod 2^64 (Newton's iteration). */
constexpr std::uint64_t
inversePhi()
{
    std::uint64_t x = kPhi;
    for (int i = 0; i < 6; ++i)
        x *= 2 - kPhi * x;
    return x;
}

static_assert(kPhi * inversePhi() == 1);

/**
 * A key whose Fibonacci product has @p top20 as its top 20 bits, so
 * its home slot at any capacity up to 2^20 slots is the top
 * log2(capacity) bits of @p top20. @p low varies the rest.
 */
std::uint64_t
keyWithTop(std::uint64_t top20, std::uint64_t low)
{
    const std::uint64_t product =
        (top20 << 44) | (low & ((std::uint64_t{1} << 44) - 1));
    return product * inversePhi();
}

/** Keys homed on the last slot (chains wrap) and on slot 0. */
constexpr std::uint64_t kLast = 0xfffff;
constexpr std::uint64_t kFirst = 0;

TEST(FlatMapTest, EmptyMapFindsAndErasesNothing)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_FALSE(m.erase(42));
    TableHealth h;
    m.addHealth(h);
    EXPECT_EQ(h.entries, 0u);
    EXPECT_EQ(h.capacity, 0u);
}

TEST(FlatMapTest, GetOrCreateValueInitializesAndGrowthKeepsEntries)
{
    FlatMap<std::uint64_t> m;
    for (std::uint64_t k = 0; k < 10000; ++k) {
        std::uint64_t &v = m.getOrCreate(k);
        EXPECT_EQ(v, 0u);
        v = k * 3 + 1;
    }
    EXPECT_EQ(m.size(), 10000u);
    EXPECT_LE(m.size() * 10, m.capacity() * 7);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), k * 3 + 1);
    }
    // Re-creating an erased key starts from a fresh value.
    ASSERT_TRUE(m.erase(7));
    EXPECT_EQ(m.getOrCreate(7), 0u);
}

TEST(FlatMapTest, BackwardShiftEraseAcrossTheWrap)
{
    FlatMap<std::uint64_t> m;
    // Six keys homed on the last slot of a 16-slot table fill slots
    // 15, 0, 1, 2, 3, 4; two homed on slot 0 land at 5 and 6.
    std::vector<std::uint64_t> last, first;
    for (std::uint64_t i = 0; i < 6; ++i)
        last.push_back(keyWithTop(kLast, i));
    for (std::uint64_t i = 0; i < 2; ++i)
        first.push_back(keyWithTop(kFirst, i));
    for (std::uint64_t k : last)
        m.getOrCreate(k) = k;
    for (std::uint64_t k : first)
        m.getOrCreate(k) = k;
    ASSERT_EQ(m.capacity(), 16u);
    EXPECT_EQ(m.home(last[0]), 15u);
    EXPECT_EQ(m.home(first[0]), 0u);

    TableHealth before;
    m.addHealth(before);
    EXPECT_EQ(before.maxProbe, 7u); // first[1] sits 6 past its home

    // Erase the chain's head (slot 15): every later entry is pulled
    // back one slot, across the wrap, and stays reachable.
    ASSERT_TRUE(m.erase(last[0]));
    EXPECT_EQ(m.find(last[0]), nullptr);
    for (std::size_t i = 1; i < last.size(); ++i)
        ASSERT_NE(m.find(last[i]), nullptr) << i;
    for (std::uint64_t k : first) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), k);
    }
    TableHealth after;
    m.addHealth(after);
    EXPECT_EQ(after.entries, 7u);
    EXPECT_EQ(after.maxProbe, 6u);
    EXPECT_EQ(after.totalProbe, before.totalProbe - 1 - 7);

    // A key homed on slot 6 (empty now) sits at its home. Erasing
    // first[0] (slot 4) pulls first[1] back into the hole but must
    // leave the slot-6 key where it is: moving it before its home
    // would make it unreachable.
    const std::uint64_t mid = keyWithTop(0x60000, 0);
    m.getOrCreate(mid) = mid;
    ASSERT_EQ(m.home(mid), 6u);
    ASSERT_TRUE(m.erase(first[0]));
    EXPECT_FALSE(m.erase(first[0]));
    for (std::size_t i = 1; i < last.size(); ++i)
        ASSERT_NE(m.find(last[i]), nullptr) << i;
    ASSERT_NE(m.find(first[1]), nullptr);
    ASSERT_NE(m.find(mid), nullptr);
    EXPECT_EQ(*m.find(mid), mid);
    TableHealth end;
    m.addHealth(end);
    EXPECT_EQ(end.entries, 7u);
    EXPECT_EQ(end.maxProbe, 5u);
    EXPECT_EQ(end.totalProbe, 15u + 5u + 1u);
}

TEST(FlatMapTest, RandomizedOpsMatchUnorderedMap)
{
    std::mt19937_64 rng(2026);
    // Key pool: clusters that collide on the last slot (so chains
    // wrap past the table's end) and on slot 0, plus random keys.
    std::vector<std::uint64_t> pool;
    for (std::uint64_t i = 0; i < 48; ++i) {
        pool.push_back(keyWithTop(kLast, rng()));
        pool.push_back(keyWithTop(kFirst, rng()));
    }
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.push_back(keyWithTop(0x80000, rng()));
    const std::size_t clustered = pool.size();
    while (pool.size() < 1500) {
        const std::uint64_t k = rng();
        if (k != FlatMap<std::uint64_t>::kEmpty)
            pool.push_back(k);
    }

    FlatMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uniform_int_distribution<std::size_t> anyKey(0, pool.size() - 1);
    std::uniform_int_distribution<std::size_t> clusterKey(0,
                                                          clustered - 1);
    std::uniform_int_distribution<int> pct(0, 99);
    for (std::uint64_t op = 0; op < 1000000; ++op) {
        const std::uint64_t k =
            pool[pct(rng) < 40 ? clusterKey(rng) : anyKey(rng)];
        const int kind = pct(rng);
        if (kind < 40) {
            m.getOrCreate(k) = op;
            ref[k] = op;
        } else if (kind < 70) {
            const std::uint64_t *v = m.find(k);
            const auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << op;
            }
        } else {
            ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << op;
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << op;

        if (op % 50000 == 0) {
            for (std::uint64_t key : pool) {
                const std::uint64_t *v = m.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(v != nullptr, it != ref.end());
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
            }
            TableHealth h;
            m.addHealth(h);
            ASSERT_EQ(h.entries, ref.size());
        }
    }
}

} // namespace
