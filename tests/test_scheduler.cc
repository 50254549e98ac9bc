/**
 * @file
 * Warp scheduler unit tests: GTO greediness and oldest-first fallback,
 * LRR rotation and fairness, TLV active-set management, and the WarpMask
 * bit sets the schedulers pick from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sim/scheduler.hh"

namespace tango::sim {
namespace {

/** Pick from per-slot issuable flags and ages, building the core's view
 *  (slot mask, slots ordered by age, rank mask) the way SmCore does. */
int
pick(WarpScheduler &s, const std::vector<uint8_t> &issuable,
     const std::vector<uint64_t> &age)
{
    const auto n = static_cast<uint32_t>(issuable.size());
    std::vector<uint32_t> byAge(n);
    std::iota(byAge.begin(), byAge.end(), 0u);
    std::sort(byAge.begin(), byAge.end(),
              [&](uint32_t a, uint32_t b) { return age[a] < age[b]; });
    WarpMask bySlot, byRank;
    bySlot.assign(n);
    byRank.assign(n);
    for (uint32_t r = 0; r < n; r++) {
        if (issuable[byAge[r]]) {
            bySlot.set(byAge[r]);
            byRank.set(r);
        }
    }
    return s.pick(IssueView{bySlot, byAge, byRank});
}

std::vector<uint64_t>
agesInOrder(uint32_t n)
{
    std::vector<uint64_t> a(n);
    for (uint32_t i = 0; i < n; i++)
        a[i] = i;
    return a;
}

TEST(Gto, StaysGreedyOnSameWarp)
{
    auto s = makeScheduler(SchedPolicy::GTO);
    s->reset(4);
    std::vector<uint8_t> issuable = {1, 1, 1, 1};
    const auto ages = agesInOrder(4);
    const int first = pick(*s, issuable, ages);
    for (int k = 0; k < 5; k++)
        EXPECT_EQ(pick(*s, issuable, ages), first);
}

TEST(Gto, FallsBackToOldest)
{
    auto s = makeScheduler(SchedPolicy::GTO);
    s->reset(4);
    // Ages: slot 2 is oldest.
    std::vector<uint64_t> ages = {5, 7, 1, 9};
    std::vector<uint8_t> issuable = {1, 1, 1, 1};
    EXPECT_EQ(pick(*s, issuable, ages), 2);
    // Current warp stalls: next-oldest issuable picked.
    issuable[2] = 0;
    EXPECT_EQ(pick(*s, issuable, ages), 0);
    // And it becomes the new greedy target.
    issuable[2] = 1;
    EXPECT_EQ(pick(*s, issuable, ages), 0);
}

TEST(Gto, RetirementClearsGreedyTarget)
{
    auto s = makeScheduler(SchedPolicy::GTO);
    s->reset(3);
    std::vector<uint64_t> ages = {0, 1, 2};
    std::vector<uint8_t> issuable = {1, 1, 1};
    EXPECT_EQ(pick(*s, issuable, ages), 0);
    s->notifyRetired(0);
    issuable[0] = 0;
    EXPECT_EQ(pick(*s, issuable, ages), 1);
}

TEST(Lrr, RotatesThroughAllWarps)
{
    auto s = makeScheduler(SchedPolicy::LRR);
    s->reset(4);
    std::vector<uint8_t> issuable = {1, 1, 1, 1};
    const auto ages = agesInOrder(4);
    std::vector<int> picks;
    for (int k = 0; k < 8; k++)
        picks.push_back(pick(*s, issuable, ages));
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Lrr, SkipsStalledWarps)
{
    auto s = makeScheduler(SchedPolicy::LRR);
    s->reset(4);
    std::vector<uint8_t> issuable = {1, 0, 1, 0};
    const auto ages = agesInOrder(4);
    EXPECT_EQ(pick(*s, issuable, ages), 0);
    EXPECT_EQ(pick(*s, issuable, ages), 2);
    EXPECT_EQ(pick(*s, issuable, ages), 0);
}

TEST(Lrr, NoneIssuable)
{
    auto s = makeScheduler(SchedPolicy::LRR);
    s->reset(3);
    std::vector<uint8_t> issuable = {0, 0, 0};
    EXPECT_EQ(pick(*s, issuable, agesInOrder(3)), -1);
}

TEST(Tlv, PrefersActiveSet)
{
    auto s = makeScheduler(SchedPolicy::TLV);
    s->reset(16);   // active set = first 8
    std::vector<uint8_t> issuable(16, 1);
    const auto ages = agesInOrder(16);
    // All picks stay within the initial active set.
    for (int k = 0; k < 16; k++)
        EXPECT_LT(pick(*s, issuable, ages), 8);
}

TEST(Tlv, PromotesWhenActiveSetStalls)
{
    auto s = makeScheduler(SchedPolicy::TLV);
    s->reset(16);
    std::vector<uint8_t> issuable(16, 0);
    for (uint32_t i = 8; i < 16; i++)
        issuable[i] = 1;
    const auto ages = agesInOrder(16);
    const int p = pick(*s, issuable, ages);
    EXPECT_GE(p, 8);
    EXPECT_EQ(p, 8);   // oldest pending
}

TEST(Tlv, DemotionOnLongLatency)
{
    auto s = makeScheduler(SchedPolicy::TLV);
    s->reset(4);
    std::vector<uint8_t> issuable = {1, 1, 1, 1};
    const auto ages = agesInOrder(4);
    const int first = pick(*s, issuable, ages);
    s->notifyLongLatency(static_cast<uint32_t>(first));
    // The demoted warp is not picked while others are issuable.
    for (int k = 0; k < 3; k++)
        EXPECT_NE(pick(*s, issuable, ages), first);
}

TEST(AllPolicies, EmptyAndSingleSlot)
{
    for (auto pol : {SchedPolicy::GTO, SchedPolicy::LRR,
                     SchedPolicy::TLV}) {
        auto s = makeScheduler(pol);
        s->reset(1);
        std::vector<uint8_t> one = {1};
        EXPECT_EQ(pick(*s, one, agesInOrder(1)), 0) << schedName(pol);
        one[0] = 0;
        EXPECT_EQ(pick(*s, one, agesInOrder(1)), -1) << schedName(pol);
    }
}

TEST(WarpMask, FindAcrossWords)
{
    WarpMask m;
    m.assign(200);
    EXPECT_EQ(m.findFrom(0), -1);
    EXPECT_EQ(m.findCyclic(5), -1);
    m.set(3);
    m.set(64);
    m.set(199);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_EQ(m.findFrom(0), 3);
    EXPECT_EQ(m.findFrom(4), 64);
    EXPECT_EQ(m.findFrom(65), 199);
    EXPECT_EQ(m.findCyclic(100), 199);
    EXPECT_EQ(m.findCyclic(199), 199);
    m.reset(199);
    EXPECT_EQ(m.findCyclic(100), 3);   // wraps
    WarpMask other;
    other.assign(200);
    other.set(64);
    EXPECT_EQ(WarpMask::firstCommon(m, &other, 0), 64);
    EXPECT_EQ(WarpMask::firstCommon(m, &other, 65), -1);
}

TEST(WarpMask, EraseShiftsHigherBitsDown)
{
    WarpMask m;
    m.assign(150);
    for (uint32_t i : {0u, 10u, 63u, 64u, 100u, 149u})
        m.set(i);
    m.erase(10);   // bit 10 is set: removed, the rest move down
    std::vector<int> got;
    for (int i = m.findFrom(0); i >= 0;
         i = m.findFrom(static_cast<uint32_t>(i) + 1))
        got.push_back(i);
    EXPECT_EQ(got, (std::vector<int>{0, 62, 63, 99, 148}));
    m.erase(5);    // clear bit: only the shift
    got.clear();
    for (int i = m.findFrom(0); i >= 0;
         i = m.findFrom(static_cast<uint32_t>(i) + 1))
        got.push_back(i);
    EXPECT_EQ(got, (std::vector<int>{0, 61, 62, 98, 147}));
}

TEST(WarpMask, DrainVisitsAscendingAndClears)
{
    WarpMask m;
    m.assign(130);
    for (uint32_t i : {129u, 7u, 64u, 0u})
        m.set(i);
    std::vector<uint32_t> seen;
    m.drain([&](uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<uint32_t>{0, 7, 64, 129}));
    EXPECT_EQ(m.count(), 0u);
}

/** More slots than one mask word: each policy must reach the slots past
 *  bit 63 and agree with its single-word behaviour. */
TEST(AllPolicies, ManySlots)
{
    const uint32_t n = 150;
    // Ages descend with the slot index: slot 149 is the oldest.
    std::vector<uint64_t> ages(n);
    for (uint32_t i = 0; i < n; i++)
        ages[i] = n - i;
    std::vector<uint8_t> issuable(n, 0);
    issuable[70] = issuable[130] = issuable[149] = 1;

    auto gto = makeScheduler(SchedPolicy::GTO);
    gto->reset(n);
    EXPECT_EQ(pick(*gto, issuable, ages), 149);   // oldest
    issuable[149] = 0;
    EXPECT_EQ(pick(*gto, issuable, ages), 130);

    auto lrr = makeScheduler(SchedPolicy::LRR);
    lrr->reset(n);
    EXPECT_EQ(pick(*lrr, issuable, ages), 70);
    EXPECT_EQ(pick(*lrr, issuable, ages), 130);
    EXPECT_EQ(pick(*lrr, issuable, ages), 70);    // wraps past slot 149

    // The initial TLV active set (slots 0-7) is stalled: the oldest
    // pending issuable warp is promoted.
    auto tlv = makeScheduler(SchedPolicy::TLV);
    tlv->reset(n);
    EXPECT_EQ(pick(*tlv, issuable, ages), 130);
    EXPECT_EQ(pick(*tlv, issuable, ages), 130);   // now in the active set
}

} // namespace
} // namespace tango::sim
