/**
 * @file
 * SM core / GPU timing-model tests: cycle accounting, stall
 * classification, occupancy, CTA/warp sampling scaling, power plumbing,
 * and pinned statistics for SM shapes the golden corpus never reaches
 * (more than 64 warp slots, wake-ups beyond the timing wheel's span).
 */

#include <gtest/gtest.h>

#include "kernels/builder.hh"
#include "sim/digest.hh"
#include "sim/gpu.hh"

namespace tango::sim {
namespace {

/** A tiny ALU-only kernel: per-thread dependent chain of n adds. */
KernelLaunch
chainKernel(uint32_t n, Dim3 grid, Dim3 block)
{
    kern::Builder b("chain");
    kern::Reg acc = b.immU(1);
    for (uint32_t i = 0; i < n; i++)
        b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    KernelLaunch l;
    l.program = b.finish();
    l.grid = grid;
    l.block = block;
    return l;
}

/** A load-heavy kernel: each thread streams over a buffer.
 *  @param passes walks over the same addresses (reuse for the caches). */
KernelLaunch
streamKernel(uint32_t words, uint32_t buf, Dim3 grid, Dim3 block,
             uint32_t passes = 1)
{
    kern::Builder b("stream");
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg addr = b.shli(tx, 2);
    b.emit3i(Op::Add, DType::U32, addr, addr, buf);
    kern::Reg v = b.reg();
    kern::Reg sum = b.immF(0.0f);
    for (uint32_t p = 0; p < passes; p++) {
        for (uint32_t i = 0; i < words; i++) {
            b.ld(DType::F32, Space::Global, v, addr, i * 512);
            b.emit3(Op::Add, DType::F32, sum, sum, v);
        }
    }
    KernelLaunch l;
    l.program = b.finish();
    l.grid = grid;
    l.block = block;
    return l;
}

/** A kernel on every stall path: global loads strided across lines (DRAM
 *  misses, MSHR pressure), dependent SFU ops, shared-memory traffic and
 *  a CTA barrier.  Each CTA reads its own 64 KB window of @p buf. */
KernelLaunch
mixedKernel(uint32_t buf, Dim3 grid, Dim3 block)
{
    kern::Builder b("mixed");
    b.shared(block.x * 4);
    kern::Reg tx = b.movS(SReg::TidX);
    kern::Reg cta = b.movS(SReg::CtaIdX);
    kern::Reg addr = b.shli(tx, 2);
    kern::Reg base = b.shli(cta, 16);
    b.emit3(Op::Add, DType::U32, addr, addr, base);
    b.emit3i(Op::Add, DType::U32, addr, addr, buf);
    kern::Reg v = b.reg();
    kern::Reg sum = b.immF(1.0f);
    for (uint32_t i = 0; i < 8; i++) {
        b.ld(DType::F32, Space::Global, v, addr, i * 4096);
        b.emit3(Op::Add, DType::F32, sum, sum, v);
        b.emit2(Op::Rcp, DType::F32, sum, sum);
    }
    kern::Reg saddr = b.shli(tx, 2);
    b.st(DType::F32, Space::Shared, saddr, sum);
    b.bar();
    kern::Reg nb = b.addi(DType::U32, tx, 1);
    b.emit3i(Op::And, DType::U32, nb, nb, block.x - 1);
    kern::Reg naddr = b.shli(nb, 2);
    b.ld(DType::F32, Space::Shared, v, naddr);
    b.emit3(Op::Add, DType::F32, sum, sum, v);
    b.st(DType::F32, Space::Global, addr, sum);
    KernelLaunch l;
    l.program = b.finish();
    l.grid = grid;
    l.block = block;
    return l;
}

/** Digest of every statistic (names and exact values). */
uint64_t
statsDigest(const KernelStats &ks)
{
    uint64_t h = digest::kInit;
    for (const auto &[name, v] : ks.stats.all()) {
        digest::mixBytes(h, name.data(), name.size());
        digest::mixDouble(h, v);
    }
    return h;
}

/** Pinned statistics of one launch: any drift is a timing-model change. */
struct Pinned
{
    uint64_t smCycles;
    double issued;
    uint64_t digest;
};

void
expectPinned(const KernelStats &ks, const Pinned &want, const char *what)
{
    EXPECT_EQ(ks.smCycles, want.smCycles) << what;
    EXPECT_EQ(ks.stats.get("issued"), want.issued) << what;
    EXPECT_EQ(statsDigest(ks), want.digest) << what;
}

TEST(Core, DependentChainTakesLatencyPerOp)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(100, {1, 1, 1}, {32, 1, 1}),
                               p);
    // One warp, fully dependent adds: >= latency * n cycles.
    EXPECT_GE(ks.smCycles, 100u * opLatency(Op::Add));
    EXPECT_LT(ks.smCycles, 100u * opLatency(Op::Add) * 3);
    EXPECT_EQ(ks.stats.get("op.add"), 100.0 * 32);
}

TEST(Core, MoreWarpsHideLatency)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto one = gpu.launch(chainKernel(200, {1, 1, 1}, {32, 1, 1}),
                                p);
    const auto eight =
        gpu.launch(chainKernel(200, {1, 1, 1}, {256, 1, 1}), p);
    // Eight warps interleave: far less than 8x the single-warp time.
    EXPECT_LT(eight.smCycles, one.smCycles * 3);
}

TEST(Core, ExecDependencyStallsDominateChains)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(300, {1, 1, 1}, {32, 1, 1}),
                               p);
    const double execDep = ks.stats.get("stall.exec_dependency");
    double total = 0.0;
    for (size_t i = 0; i < numStalls; i++) {
        total += ks.stats.get(std::string("stall.") +
                              stallName(static_cast<Stall>(i)));
    }
    EXPECT_GT(execDep / total, 0.5);
}

TEST(Core, MemoryDependencyStallsDominateStreams)
{
    Gpu gpu(pascalGP102());
    const uint32_t buf = gpu.mem().allocate(1 << 20);
    SimPolicy p;
    p.fullSim = true;
    const auto ks =
        gpu.launch(streamKernel(64, buf, {1, 1, 1}, {32, 1, 1}), p);
    const double memDep = ks.stats.get("stall.memory_dependency");
    EXPECT_GT(memDep, ks.stats.get("stall.exec_dependency"));
}

TEST(Core, L1CachingReducesCycles)
{
    GpuConfig with = pascalGP102();
    GpuConfig without = pascalGP102();
    without.l1dBytes = 0;
    SimPolicy p;
    p.fullSim = true;

    Gpu g1(with);
    const uint32_t b1 = g1.mem().allocate(1 << 20);
    // Walk the same 32KB of lines four times: the 64KB L1 captures them
    // after the first pass.
    const auto hot = streamKernel(64, b1, {1, 1, 1}, {32, 1, 1}, 4);
    const auto k1 = g1.launch(hot, p);

    Gpu g0(without);
    const uint32_t b0 = g0.mem().allocate(1 << 20);
    EXPECT_EQ(b0, b1);
    const auto k0 = g0.launch(hot, p);

    EXPECT_LT(k1.smCycles, k0.smCycles);
    EXPECT_GT(k1.stats.get("mem.l1d.hits"), 0.0);
}

TEST(Core, OccupancyLimits)
{
    const GpuConfig cfg = pascalGP102();
    // Thread-limited: 2048 threads / 1024 per CTA.
    EXPECT_EQ(cfg.occupancyCtas(1024, 16, 0), 2u);
    // CTA-count-limited for tiny blocks.
    EXPECT_EQ(cfg.occupancyCtas(1, 16, 0), cfg.maxCtasPerSm);
    // Register-limited: 256 regs x 512 threads x 4B = 512KB > 256KB.
    EXPECT_EQ(cfg.occupancyCtas(512, 250, 0), 0u + 1u);
    // Shared-memory-limited.
    EXPECT_EQ(cfg.occupancyCtas(32, 16, cfg.smemBytesPerSm), 1u);
}

TEST(Core, CtaSamplingScalesStats)
{
    Gpu gpu(pascalGP102());
    // 64 identical CTAs; sample vs full must agree after scaling.
    const auto launch = chainKernel(50, {64, 1, 1}, {32, 1, 1});
    SimPolicy full;
    full.fullSim = true;
    full.maxResidentCtas = 4;
    const auto kf = gpu.launch(launch, full);

    SimPolicy sampled;
    sampled.maxResidentCtas = 4;
    sampled.maxSampledCtas = 8;
    const auto ks = gpu.launch(launch, sampled);

    EXPECT_EQ(ks.sampledCtas, 8u);
    EXPECT_DOUBLE_EQ(ks.scale, 8.0);
    EXPECT_NEAR(ks.stats.get("op.add"), kf.stats.get("op.add"),
                kf.stats.get("op.add") * 0.01);
    // Extrapolated whole-GPU cycles within 25% of the full simulation.
    EXPECT_NEAR(ks.gpuCycles, kf.gpuCycles, kf.gpuCycles * 0.25);
}

TEST(Core, WarpSamplingScalesStats)
{
    Gpu gpu(pascalGP102());
    const auto launch = chainKernel(50, {4, 1, 1}, {256, 1, 1});
    SimPolicy full;
    full.fullSim = true;
    const auto kf = gpu.launch(launch, full);

    SimPolicy sampled;
    sampled.maxWarpsPerCta = 2;
    sampled.maxSampledCtas = 4;
    const auto ks = gpu.launch(launch, sampled);

    EXPECT_EQ(ks.sampledWarpsPerCta, 2u);
    EXPECT_EQ(ks.totalWarpsPerCta, 8u);
    EXPECT_NEAR(ks.stats.get("op.add"), kf.stats.get("op.add"),
                kf.stats.get("op.add") * 0.01);
}

TEST(Core, WarpSamplingDisabledByBarriers)
{
    kern::Builder b("withbar");
    kern::Reg acc = b.immU(0);
    b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    b.bar();
    b.emit3i(Op::Add, DType::U32, acc, acc, 1);
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {128, 1, 1};

    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.maxWarpsPerCta = 1;
    const auto ks = gpu.launch(l, p);
    EXPECT_EQ(ks.sampledWarpsPerCta, 4u);   // sampling refused
}

TEST(Core, PowerAndEnergyArePositiveAndConsistent)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(chainKernel(100, {8, 1, 1}, {64, 1, 1}),
                               p);
    EXPECT_GT(ks.energyJ, 0.0);
    EXPECT_GT(ks.timeSec, 0.0);
    EXPECT_GT(ks.peakPowerW, gpu.staticPowerW(1) * 0.99);
    EXPECT_NEAR(ks.avgPowerW, ks.energyJ / ks.timeSec,
                ks.avgPowerW * 1e-9);
}

TEST(Core, ConstCacheStallsClassified)
{
    kern::Builder b("constload");
    b.constant(64);
    kern::Reg v = b.reg();
    kern::Reg sum = b.immU(0);
    for (int i = 0; i < 8; i++) {
        v = b.ldc(DType::U32, (i % 4) * 4);
        b.emit3(Op::Add, DType::U32, sum, sum, v);
    }
    KernelLaunch l;
    l.program = b.finish();
    l.grid = {1, 1, 1};
    l.block = {32, 1, 1};
    l.constData.resize(64, 0);

    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    const auto ks = gpu.launch(l, p);
    EXPECT_GT(ks.stats.get("evt.cc"), 0.0);
    EXPECT_GT(ks.stats.get("stall.constant_memory_dependency"), 0.0);
}

TEST(Core, ActiveSmEstimate)
{
    Gpu gpu(pascalGP102());
    SimPolicy p;
    p.fullSim = true;
    // One CTA can only keep one SM busy.
    const auto one = gpu.launch(chainKernel(10, {1, 1, 1}, {32, 1, 1}),
                                p);
    EXPECT_EQ(one.activeSms, 1u);
    // Hundreds of CTAs keep the whole die busy.
    SimPolicy s;
    s.maxSampledCtas = 4;
    const auto many =
        gpu.launch(chainKernel(10, {512, 1, 1}, {32, 1, 1}), s);
    EXPECT_EQ(many.activeSms, gpu.config().numSms);
}

/** 128 warp slots (4 resident 1024-thread CTAs on an SM widened to 128
 *  warps): the issuable and age masks span two words.  Every scheduler
 *  must reproduce the statistics pinned from the reference loop. */
TEST(Core, MoreThan64WarpSlotsPinned)
{
    GpuConfig cfg = pascalGP102();
    cfg.maxWarpsPerSm = 128;
    cfg.maxThreadsPerSm = 4096;
    cfg.regFileBytesPerSm = 1024 * 1024;
    const Pinned want[] = {
        {19590, 10496.0, 11893419034611997839ULL},   // GTO
        {17738, 10496.0, 17325067627569798287ULL},   // LRR
        {19467, 10496.0, 3255941207639645327ULL},    // TLV
    };
    const SchedPolicy pols[] = {SchedPolicy::GTO, SchedPolicy::LRR,
                                SchedPolicy::TLV};
    for (size_t i = 0; i < 3; i++) {
        cfg.scheduler = pols[i];
        Gpu gpu(cfg);
        const uint32_t buf = gpu.mem().allocate(8 << 16);
        SimPolicy p;
        p.fullSim = true;
        p.shards = 1;
        const auto ks =
            gpu.launch(mixedKernel(buf, {8, 1, 1}, {1024, 1, 1}), p);
        ASSERT_EQ(ks.residentCtas, 4u);
        EXPECT_EQ(ks.sampledCtas, 8u);
        expectPinned(ks, want[i], schedName(pols[i]));
    }
}

/** A DRAM latency three wheel spans long sends every memory wake-up to
 *  the overflow heap, alongside short ALU/SFU wake-ups in the wheel. */
TEST(Core, WakeUpsBeyondWheelSpanPinned)
{
    static_assert(3072 >= 2 * WakeQueue::span);
    GpuConfig cfg = pascalGP102();
    cfg.dramLatency = 3072;
    const Pinned want[] = {
        {50062, 1312.0, 3181659370298203279ULL},    // GTO
        {50079, 1312.0, 13450863764864425103ULL},    // TLV
    };
    const SchedPolicy pols[] = {SchedPolicy::GTO, SchedPolicy::TLV};
    for (size_t i = 0; i < 2; i++) {
        cfg.scheduler = pols[i];
        Gpu gpu(cfg);
        const uint32_t buf = gpu.mem().allocate(4 << 16);
        SimPolicy p;
        p.fullSim = true;
        p.shards = 1;
        const auto ks =
            gpu.launch(mixedKernel(buf, {4, 1, 1}, {256, 1, 1}), p);
        EXPECT_GT(ks.smCycles, uint64_t(cfg.dramLatency));
        expectPinned(ks, want[i], schedName(pols[i]));
    }
}

} // namespace
} // namespace tango::sim
