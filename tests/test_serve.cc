/**
 * @file
 * tango-serve end-to-end tests: protocol framing, request/response
 * parsing, and the daemon's production properties — in-flight dedup
 * (two clients submitting the identical cold JobSpec trigger exactly
 * one Engine simulation and both receive stats bit-identical to the
 * committed golden fixture), bounded admission (queue_full rejects),
 * and graceful drain (in-flight requests answered, new ones refused,
 * clean exit).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "metrics/scrape.hh"
#include "runtime/job.hh"
#include "runtime/run_cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

#ifndef TANGO_GOLDEN_DIR
#error "TANGO_GOLDEN_DIR must point at tests/golden"
#endif

namespace tango {
namespace {

using rt::JobResult;
using rt::JobSpec;
using rt::NetRun;

// ------------------------------------------------------------------ framing

TEST(ServeProtocol, FrameRoundTrip)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    const std::string payloads[] = {"", "x", std::string(100000, 'j'),
                                    "{\"type\":\"ping\"}"};
    for (const std::string &p : payloads) {
        ASSERT_TRUE(serve::writeFrame(sv[0], p));
        std::string got;
        ASSERT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Ok);
        EXPECT_EQ(got, p);
    }

    // Clean close at a frame boundary is Eof, not Error.
    ::close(sv[0]);
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Eof);
    ::close(sv[1]);
}

TEST(ServeProtocol, OversizedFrameRejected)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A length prefix past the cap must be refused without allocating.
    const uint8_t hdr[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(sv[0], hdr, 4), 4);
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Error);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, ClaimedLengthIsNotAllocatedUpFront)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A header claiming 60 MB (under the cap), 5 payload bytes, hang-up:
    // the reader must fail having grown its buffer by one chunk at most.
    const uint32_t claimed = 60u << 20;
    const uint8_t hdr[4] = {uint8_t(claimed >> 24), uint8_t(claimed >> 16),
                            uint8_t(claimed >> 8), uint8_t(claimed)};
    ASSERT_EQ(::write(sv[0], hdr, 4), 4);
    ASSERT_EQ(::write(sv[0], "12345", 5), 5);
    ::close(sv[0]);
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Error);
    EXPECT_LE(got.capacity(), serve::kFrameChunkBytes);
    ::close(sv[1]);
}

TEST(ServeProtocol, FrameLargerThanOneChunkRoundTrips)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string big(3 * serve::kFrameChunkBytes + 17, '\0');
    for (size_t i = 0; i < big.size(); i++)
        big[i] = static_cast<char>('a' + i % 26);
    // The writer blocks once the socket buffer fills, so it needs its
    // own thread while this one reads.
    std::thread writer([&] { EXPECT_TRUE(serve::writeFrame(sv[0], big)); });
    std::string got;
    EXPECT_EQ(serve::readFrame(sv[1], got), serve::FrameStatus::Ok);
    writer.join();
    EXPECT_EQ(got, big);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeProtocol, RequestRoundTrip)
{
    JobSpec job;
    job.net = "lstm";
    job.policy = "exact";
    job.functional = true;
    job.seqLen = 16;

    serve::Request req;
    std::string err;
    ASSERT_TRUE(serve::parseRequest(serve::makeRunRequest(7, job), req,
                                    &err))
        << err;
    EXPECT_EQ(req.type, serve::Request::Type::Run);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.job.toJson(), job.toJson());

    ASSERT_TRUE(serve::parseRequest(serve::makeStatsRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Stats);
    ASSERT_TRUE(
        serve::parseRequest(serve::makeMetricsRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Metrics);
    ASSERT_TRUE(serve::parseRequest(serve::makePingRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Ping);
    ASSERT_TRUE(
        serve::parseRequest(serve::makeShutdownRequest(), req, &err));
    EXPECT_EQ(req.type, serve::Request::Type::Shutdown);

    EXPECT_FALSE(serve::parseRequest("{\"type\":\"dance\"}", req, &err));
    EXPECT_FALSE(serve::parseRequest("{\"type\":\"run\",\"id\":1}", req,
                                     &err))
        << "run without a job object must be rejected";
}

TEST(ServeProtocol, ResultResponseRoundTrip)
{
    JobResult res;
    res.ok = false;
    res.error = "queue_full";
    res.served = "reject";
    res.latencyMs = 0.25;

    uint64_t id = 0;
    JobResult back;
    std::string err;
    ASSERT_TRUE(serve::parseResultResponse(
        serve::makeResultResponse(42, res), id, back, &err))
        << err;
    EXPECT_EQ(id, 42u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.error, "queue_full");
    EXPECT_EQ(back.served, "reject");
}

TEST(ServeProtocol, DeeplyNestedFrameIsAParseError)
{
    serve::Request req;
    std::string err;
    EXPECT_FALSE(
        serve::parseRequest(std::string(2 << 20, '['), req, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

// ----------------------------------------------------------------- harness

/** A started server on an ephemeral port plus a connect helper. */
struct TestServer
{
    explicit TestServer(serve::ServerOptions opt = {})
        : server(std::move(opt))
    {
        std::string err;
        if (!server.start(&err))
            ADD_FAILURE() << "server start failed: " << err;
    }

    serve::Client connect()
    {
        serve::Client c;
        std::string err;
        if (!c.connect("127.0.0.1", server.port(), &err))
            ADD_FAILURE() << "connect failed: " << err;
        return c;
    }

    serve::Server server;
};

JobSpec
gruExactJob()
{
    // Matches tests/golden/gru.json: full (unreduced) GRU, default
    // seqLen, policy "exact" with functional outputs, on the default
    // GP102 configuration.
    JobSpec job;
    job.net = "gru";
    job.policy = "exact";
    job.functional = true;
    return job;
}

std::string
goldenFixture(const std::string &name)
{
    std::ifstream in(std::string(TANGO_GOLDEN_DIR) + "/" + name + ".json",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden fixture " << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Serialize with the launch-memoization meta-counters pinned: they
 *  record how launches were *served*, not what was simulated, and are
 *  the one legitimate run-to-run difference (see test_golden_stats). */
std::string
canonicalRun(NetRun run)
{
    run.totals.set("mem.replayed_launches", 0.0);
    run.totals.set("mem.simulated_launches", 0.0);
    return rt::serializeNetRun(run);
}

/** Accounting invariant: every run request is resolved exactly once —
 *  rejected (draining / queue-full), refused as an invalid spec, or
 *  served from one of the four sources.  @p invalidSpecs is the number
 *  of run requests with a bad JobSpec (Metrics::invalid also counts
 *  malformed frames, which never reach runRequests, so the caller says
 *  how many of the invalids were run requests).  failures happen to
 *  already-served requests, so they bound rather than add. */
void
expectRunsAccounted(const serve::Server::Metrics &m,
                    uint64_t invalidSpecs = 0)
{
    EXPECT_EQ(m.runRequests, m.rejectedDraining + m.rejectedQueueFull +
                                 invalidSpecs + m.servedSim +
                                 m.servedJoin + m.servedMem + m.servedDisk)
        << "run=" << m.runRequests << " drain=" << m.rejectedDraining
        << " full=" << m.rejectedQueueFull << " invalid=" << invalidSpecs
        << " sim=" << m.servedSim << " join=" << m.servedJoin
        << " mem=" << m.servedMem << " disk=" << m.servedDisk;
    EXPECT_LE(m.failures,
              m.servedSim + m.servedJoin + m.servedMem + m.servedDisk);
}

// ------------------------------------------------------------------- serving

TEST(Serve, PingStatsAndInvalidSpec)
{
    TestServer ts;
    serve::Client client = ts.connect();

    std::string err;
    EXPECT_TRUE(client.ping(&err)) << err;

    std::string stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    const json::Reader::Value v = json::Reader(stats).parse();
    EXPECT_EQ(v.strOr("type"), "stats");
    EXPECT_EQ(v.u64Or("run_requests", 999), 0u);

    JobSpec bad;
    bad.net = "transformer";
    JobResult res;
    ASSERT_TRUE(client.run(bad, res, &err)) << err;
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unknown network"), std::string::npos);

    JobSpec traced = gruExactJob();
    traced.trace = true;
    ASSERT_TRUE(client.run(traced, res, &err)) << err;
    EXPECT_FALSE(res.ok) << "traced jobs must be refused";

    // Both run requests were refused as invalid specs; nothing served.
    expectRunsAccounted(ts.server.metrics(), 2);
}

/** A 2 MB frame of '[' used to overflow the connection thread's stack
 *  and kill the daemon; it must come back as a bad-request reply on a
 *  connection that keeps working. */
TEST(Serve, DeeplyNestedFrameGetsBadRequestReply)
{
    TestServer ts;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    std::string reply;
    ASSERT_TRUE(serve::writeFrame(fd, std::string(2 << 20, '[')));
    ASSERT_EQ(serve::readFrame(fd, reply), serve::FrameStatus::Ok);
    EXPECT_NE(reply.find("nesting too deep"), std::string::npos) << reply;
    ASSERT_TRUE(serve::writeFrame(fd, serve::makePingRequest()));
    EXPECT_EQ(serve::readFrame(fd, reply), serve::FrameStatus::Ok);
    ::close(fd);
    std::string err;
    EXPECT_TRUE(ts.connect().ping(&err)) << err;
}

TEST(Serve, ConcurrentIdenticalColdJobsSimulateOnceBitIdenticalToGolden)
{
    serve::ServerOptions opt;
    // Hold every simulation briefly so the second client's request
    // arrives while the first is still in flight — the dedup window.
    opt.runner = [](sim::Gpu &gpu, const JobSpec &spec) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    const JobSpec job = gruExactJob();
    auto submit = [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(job, res, &err)) << err;
        return res;
    };
    auto fa = std::async(std::launch::async, submit);
    auto fb = std::async(std::launch::async, submit);
    const JobResult a = fa.get();
    const JobResult b = fb.get();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;

    // Exactly one simulation: the Engine's miss counter is the number
    // of jobs actually simulated.
    const rt::Engine::CacheStats cache = ts.server.engine().cacheStats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.failures, 0u);

    // One request simulated; the other joined it (or, if it lost the
    // race entirely, was served the resident result).
    const serve::Server::Metrics m = ts.server.metrics();
    EXPECT_EQ(m.servedSim, 1u);
    EXPECT_EQ(m.servedJoin + m.servedMem, 1u);

    // Both clients got stats bit-identical to the committed fixture.
    NetRun golden;
    ASSERT_TRUE(rt::parseNetRunJson(goldenFixture("gru"), golden));
    const std::string want = canonicalRun(golden);
    EXPECT_EQ(canonicalRun(a.run), want);
    EXPECT_EQ(canonicalRun(b.run), want);

    // A repeat of the same job is now a warm memory hit.
    const JobResult warm = submit();
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.served, "mem");
    EXPECT_EQ(canonicalRun(warm.run), want);
    EXPECT_EQ(ts.server.engine().cacheStats().misses, 1u);
    expectRunsAccounted(ts.server.metrics());
}

TEST(Serve, QueueFullRejectsNewSimulationsButAdmitsJoins)
{
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    serve::ServerOptions opt;
    opt.queueMax = 1;
    opt.runner = [gate](sim::Gpu &gpu, const JobSpec &spec) {
        gate.wait();
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    JobSpec small = gruExactJob();   // cheap exact model

    // First job occupies the single admission slot.
    auto first = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(small, res, &err)) << err;
        return res;
    });
    while (ts.server.engine().inFlightSims() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A different job would need a second simulation: rejected.
    JobSpec other = small;
    other.net = "lstm";
    {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        ASSERT_TRUE(client.run(other, res, &err)) << err;
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.error, "queue_full");
    }

    // The identical job joins the in-flight simulation: admitted even
    // at the admission bound (it costs no new slot).
    auto joined = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(small, res, &err)) << err;
        return res;
    });

    release.set_value();
    const JobResult a = first.get();
    const JobResult j = joined.get();
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(j.ok) << j.error;

    const serve::Server::Metrics m = ts.server.metrics();
    EXPECT_EQ(m.rejectedQueueFull, 1u);
    EXPECT_EQ(m.servedSim, 1u);
    EXPECT_EQ(ts.server.engine().cacheStats().misses, 1u);
    expectRunsAccounted(m);
}

TEST(Serve, GracefulDrainFinishesInFlightAndRefusesNew)
{
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    serve::ServerOptions opt;
    opt.runner = [gate](sim::Gpu &gpu, const JobSpec &spec) {
        gate.wait();
        return rt::runJob(gpu, spec);
    };
    TestServer ts(opt);

    // Open both connections BEFORE the drain: draining refuses new run
    // requests on live connections (the listener itself is closed).
    serve::Client late = ts.connect();

    auto inflight = std::async(std::launch::async, [&]() -> JobResult {
        serve::Client client = ts.connect();
        JobResult res;
        std::string err;
        EXPECT_TRUE(client.run(gruExactJob(), res, &err)) << err;
        return res;
    });
    while (ts.server.engine().inFlightSims() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    ts.server.requestDrain();
    while (!ts.server.draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A run request during the drain is refused...
    JobResult res;
    std::string err;
    ASSERT_TRUE(late.run(gruExactJob(), res, &err)) << err;
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "draining");

    // ...but the in-flight one completes and is answered.
    release.set_value();
    const JobResult done = inflight.get();
    ASSERT_TRUE(done.ok) << done.error;

    ts.server.waitDrained();
    const serve::Server::Metrics m = ts.server.metrics();
    EXPECT_EQ(m.rejectedDraining, 1u);
    EXPECT_EQ(m.servedSim, 1u);
    expectRunsAccounted(m);
}

TEST(Serve, MetricsFrameScrapeDeltas)
{
    // The registry is process-wide and cumulative across every Server
    // in this binary, so the frame is asserted on DELTAS around one
    // served run, not absolute values.
    TestServer ts;
    serve::Client client = ts.connect();
    std::string err, text;

    ASSERT_TRUE(client.metrics(text, &err)) << err;
    metrics::Scrape before;
    ASSERT_TRUE(metrics::Scrape::parse(text, before, &err)) << err;

    JobResult res;
    ASSERT_TRUE(client.run(gruExactJob(), res, &err)) << err;
    ASSERT_TRUE(res.ok) << res.error;

    ASSERT_TRUE(client.metrics(text, &err)) << err;
    metrics::Scrape after;
    ASSERT_TRUE(metrics::Scrape::parse(text, after, &err)) << err;

    const auto delta = [&](const char *family) {
        return after.sum(family) - before.sum(family);
    };
    EXPECT_EQ(delta("tango_serve_run_requests_total"), 1.0);
    EXPECT_EQ(delta("tango_serve_served_total"), 1.0);
    EXPECT_EQ(delta("tango_serve_rejects_total"), 0.0);
    // Every served run was admitted under exactly one accuracy tier.
    EXPECT_EQ(delta("tango_serve_tier_total"),
              delta("tango_serve_served_total"));
    const metrics::Sample *sim =
        after.find("tango_serve_served_total", "how", "sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_GE(sim->value, 1.0);

    // The engine saw one miss for the cold job, and its in-flight gauge
    // is back to zero now that the run was answered.
    EXPECT_EQ(delta("tango_engine_cache_total"), 1.0);
    const metrics::Sample *depth =
        after.find("tango_engine_inflight_sims");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->value, 0.0);

    // The scrape-side latency histogram counted the run too.
    metrics::HistogramSnapshot hb, ha;
    const double countBefore =
        before.histogram("tango_serve_latency_us", hb)
            ? double(hb.count())
            : 0.0;
    ASSERT_TRUE(after.histogram("tango_serve_latency_us", ha));
    EXPECT_EQ(double(ha.count()) - countBefore, 1.0);

    // And the stats reply's bucket-bound percentiles agree with this
    // server's own view: one run recorded, p99 >= p50 >= 0.
    std::string stats;
    ASSERT_TRUE(client.stats(stats, &err)) << err;
    const json::Reader::Value v = json::Reader(stats).parse();
    const json::Reader::Value *lat = v.find("latency_ms");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->u64Or("count", 0), 1u);
    EXPECT_GE(lat->numOr("p99", -1.0), lat->numOr("p50", -1.0));
    EXPECT_GE(lat->numOr("p50", -1.0), 0.0);
}

TEST(Serve, ShutdownRequestTriggersDrain)
{
    TestServer ts;
    serve::Client client = ts.connect();
    std::string err;
    ASSERT_TRUE(client.shutdown(&err)) << err;
    ts.server.waitDrained();
    EXPECT_TRUE(ts.server.draining());
}

} // namespace
} // namespace tango
