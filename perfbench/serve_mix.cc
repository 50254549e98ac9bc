/**
 * @file
 * The serving workload, serve_mix: a serve::Server on loopback in this
 * process, fed by an open-loop Poisson schedule drawn from the seed.
 * Each request is timed from the moment it was due, so a stall also
 * charges the requests queued behind it.  Three request classes:
 *
 *  - hit:      sim-tier jobs pre-warmed in set-up (Engine memory hits);
 *  - estimate: estimate-tier jobs; RNNs draw a fresh seqLen, so the
 *              Estimator answers each one;
 *  - miss:     sim-tier gru/lstm with a fresh short seqLen, so each one
 *              is a real simulation beside the hits.
 *
 * Correctness: hit answers are compared with the pre-warm answer, whose
 * digest must match the reference; estimate and miss answers with an
 * in-process rt::runJob of the same spec after the timed phase (for an
 * estimate spec that is the Estimator's answer, or the simulation it falls
 * back to).  Any mismatch or ok=false answer is a failed operation.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "estimate/estimator.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench {

using namespace tango;

namespace {

enum Class
{
    Hit,
    Estimate,
    Miss,
    NumClasses
};
const char *const kClassName[NumClasses] = {"hit", "estimate", "miss"};

/** How long before a request's due time its connection stops sleeping
 *  and spins. */
constexpr std::chrono::milliseconds kSpinAhead{2};

/** One scheduled request and what became of it. */
struct Req
{
    uint64_t id = 0;
    double due = 0;   ///< seconds after the phase start
    Class cls = Hit;
    rt::JobSpec spec;

    double lateS = 0;     ///< sleep overshoot past due; -1 = sent late
    double rttS = 0;      ///< due -> parsed response
    double parseUs = 0;   ///< client parse of the response frame
    double serverMs = 0;  ///< the response's latencyMs
    double kb = 0;        ///< response frame size
    bool ok = false;
    std::string error;
    size_t runHash = 0;   ///< estimate and miss answers: see runHash()
    double cycles = 0;    ///< the answer's total GPU cycles
};

/** The workload's parameters, from workloads.json; every one is
 *  required. */
struct MixConfig
{
    std::string policy, platform;
    double rate = 0;          ///< requests per second
    unsigned conns = 0;
    unsigned workers = 0;
    double sloMs = 0;
    uint64_t prewarmPasses = 0;
    uint64_t warmPasses = 0;
    double share[NumClasses] = {};
    double zipfS = 0;
    std::vector<std::string> hit, estimate, miss;
    uint32_t estSeq[2] = {};
    uint32_t missSeq[2] = {};
};

std::vector<std::string>
strings(const JsonValue &cfg, const char *key)
{
    std::vector<std::string> out;
    if (const JsonValue *v = cfg.find(key)) {
        for (const auto &e : v->arr)
            out.push_back(e.str);
    }
    if (out.empty())
        throw std::runtime_error(std::string("serve_mix: no ") + key);
    return out;
}

void
range(const JsonValue &cfg, const char *key, uint32_t out[2])
{
    const JsonValue *v = cfg.find(key);
    if (!v || v->arr.size() != 2 || v->arr[0].num < 1 ||
        v->arr[1].num < v->arr[0].num)
        throw std::runtime_error(std::string("serve_mix: bad ") + key);
    out[0] = static_cast<uint32_t>(v->arr[0].num);
    out[1] = static_cast<uint32_t>(v->arr[1].num);
}

MixConfig
mixConfig(const JsonValue &cfg)
{
    MixConfig m;
    m.policy = cfg.strOr("policy");
    m.platform = cfg.strOr("platform");
    m.rate = cfg.numOr("rate_per_s");
    m.conns = static_cast<unsigned>(cfg.u64Or("connections"));
    m.workers = static_cast<unsigned>(cfg.u64Or("engine_workers"));
    m.sloMs = cfg.numOr("slo_ms");
    m.prewarmPasses = cfg.u64Or("prewarm_passes");
    m.warmPasses = cfg.u64Or("warm_passes");
    m.zipfS = cfg.numOr("zipf_s");
    const JsonValue *sh = cfg.find("shares");
    for (int c = 0; sh && c < NumClasses; c++)
        m.share[c] = sh->numOr(kClassName[c]);
    m.hit = strings(cfg, "hit");
    m.estimate = strings(cfg, "estimate");
    m.miss = strings(cfg, "miss");
    range(cfg, "estimate_seq", m.estSeq);
    range(cfg, "miss_seq", m.missSeq);
    if (m.policy.empty() || m.platform.empty())
        throw std::runtime_error("serve_mix: policy and platform required");
    if (m.rate <= 0 || m.sloMs <= 0 || m.conns == 0 || m.workers == 0 ||
        m.zipfS <= 0 || m.prewarmPasses == 0 || m.warmPasses == 0)
        throw std::runtime_error(
            "serve_mix: rate, slo, connections, workers, zipf_s, "
            "prewarm_passes and warm_passes must be positive");
    if (std::fabs(m.share[Hit] + m.share[Estimate] + m.share[Miss] - 1) >
        1e-9)
        throw std::runtime_error("serve_mix: shares must sum to 1");
    for (const auto &n : m.estimate) {
        if (n != "gru" && n != "lstm" &&
            std::find(m.hit.begin(), m.hit.end(), n) == m.hit.end())
            throw std::runtime_error("serve_mix: estimate CNN " + n +
                                     " needs a hit job to compare with");
    }
    return m;
}

bool
isRnn(const std::string &net)
{
    return net == "gru" || net == "lstm";
}

rt::JobSpec
simSpec(const MixConfig &m, const std::string &net, uint32_t seqLen = 0)
{
    rt::JobSpec s;
    s.net = net;
    s.policy = m.policy;
    s.platform = m.platform;
    s.seqLen = seqLen;
    return s;
}

/** The request schedule: Poisson arrivals, classes by share, items by
 *  zipf rank, fresh seqLens per net.  A pure function of the seed. */
std::vector<Req>
makePlan(const MixConfig &m, uint64_t seed, double seconds)
{
    std::mt19937_64 rng(seed);
    const auto uniform = [&] { return double(rng() >> 11) * 0x1p-53; };
    const auto zipf = [&](size_t n) {
        double total = 0;
        for (size_t k = 1; k <= n; k++)
            total += 1.0 / std::pow(double(k), m.zipfS);
        double u = uniform() * total;
        for (size_t k = 1; k <= n; k++) {
            u -= 1.0 / std::pow(double(k), m.zipfS);
            if (u <= 0)
                return k - 1;
        }
        return n - 1;
    };
    // Fresh seqLens walk the range in golden-ratio steps from a seeded
    // start, so every seed draws a different but evenly spread set and
    // the simulation cost of a run's misses does not depend on the seed.
    struct Walk
    {
        double u = -1;
        std::set<uint32_t> used;
    };
    std::map<std::string, Walk> walks;
    const auto fresh = [&](const std::string &key, const uint32_t r[2]) {
        Walk &w = walks[key];
        const uint32_t size = r[1] - r[0] + 1;
        if (w.used.size() > size / 2)
            throw std::runtime_error("serve_mix: seqLen range too small "
                                     "for the schedule");
        if (w.u < 0)
            w.u = uniform();
        while (true) {
            w.u = std::fmod(w.u + 0.6180339887498949, 1.0);
            const uint32_t s = r[0] + static_cast<uint32_t>(w.u * size);
            if (w.used.insert(s).second)
                return s;
        }
    };

    std::vector<Req> plan;
    double t = 0;
    while (true) {
        t += -std::log(1.0 - uniform()) / m.rate;
        if (t >= seconds)
            break;
        Req r;
        r.id = plan.size() + 1;
        r.due = t;
        const double u = uniform();
        r.cls = u < m.share[Hit]                  ? Hit
                : u < m.share[Hit] + m.share[Estimate] ? Estimate
                                                       : Miss;
        if (r.cls == Hit) {
            r.spec = simSpec(m, m.hit[zipf(m.hit.size())]);
        } else if (r.cls == Estimate) {
            const std::string net = m.estimate[zipf(m.estimate.size())];
            r.spec = simSpec(m, net,
                             isRnn(net) ? fresh("est/" + net, m.estSeq) : 0);
            r.spec.tier = rt::Tier::Estimate;
        } else {
            const std::string net = m.miss[zipf(m.miss.size())];
            r.spec = simSpec(m, net, fresh("miss/" + net, m.missSeq));
        }
        plan.push_back(std::move(r));
    }
    return plan;
}

/** The configured probability of drawing @p net in class @p cls: the
 *  class share times the net's zipf weight within the class list. */
double
stratumWeight(const MixConfig &m, Class cls, const std::string &net)
{
    const std::vector<std::string> &list =
        cls == Hit ? m.hit : cls == Estimate ? m.estimate : m.miss;
    double total = 0, w = 0;
    for (size_t k = 1; k <= list.size(); k++) {
        const double z = 1.0 / std::pow(double(k), m.zipfS);
        total += z;
        if (list[k - 1] == net)
            w = z;
    }
    return m.share[cls] * w / total;
}

/**
 * The round-trip p50 of the configured mix, in ms, over the requests of
 * class @p cls (NumClasses = all): the median round trip of each stratum
 * (class x net), combined as a geometric mean weighted by the stratum's
 * configured probability.  The strata's round trips range from about
 * 1 ms to over 100 ms, so the plain median of all requests falls between
 * strata, where it jumps with the draw and with small shifts of any one
 * stratum.
 */
double
mixP50Ms(const MixConfig &m, const std::vector<Req> &plan, Class cls)
{
    std::map<std::pair<Class, std::string>, std::vector<double>> strata;
    for (const Req &r : plan) {
        if (cls == NumClasses || r.cls == cls)
            strata[{r.cls, r.spec.net}].push_back(r.rttS * 1e3);
    }
    double logSum = 0, wSum = 0;
    for (const auto &[key, ms] : strata) {
        const double w = stratumWeight(m, key.first, key.second);
        logSum += w * std::log(median(ms));
        wSum += w;
    }
    return wSum > 0 ? std::exp(logSum / wSum) : 0.0;
}

/** One blocking loopback connection speaking the serve protocol. */
class Conn
{
  public:
    explicit Conn(uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_port = htons(port);
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&a), sizeof a) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect to the server failed");
        }
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    /** Send one run request and read its response frame. */
    bool roundTrip(uint64_t id, const rt::JobSpec &spec, std::string &resp)
    {
        return serve::writeFrame(fd_, serve::makeRunRequest(id, spec)) &&
               serve::readFrame(fd_, resp) == serve::FrameStatus::Ok;
    }

  private:
    int fd_ = -1;
};

/** The hash of a result frame's "run" object (the frame's tail): two
 *  answers carry the same NetRun exactly when their tails are equal. */
size_t
runHash(const std::string &frame)
{
    const size_t at = frame.find(",\"run\":");
    return at == std::string::npos
               ? 0
               : std::hash<std::string_view>()(
                     std::string_view(frame).substr(at));
}

/** runHash() of the frame the server would send for @p run. */
size_t
runHash(const rt::NetRun &run)
{
    rt::JobResult jr;
    jr.ok = true;
    jr.run = run;
    return runHash(serve::makeResultResponse(0, jr));
}

/** A running server, its connections and the pre-warmed hit answers. */
struct Serving
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<Conn>> conns;
    std::map<std::string, size_t> hitHash;        ///< by cache key
    std::map<std::string, double> hitCycles;      ///< by net
};

/** Run @p fn(i, conn) for i in [0, n) across the connections. */
void
acrossConns(Serving &sv, size_t n,
            const std::function<void(size_t, Conn &)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (auto &c : sv.conns) {
        threads.emplace_back([&, conn = c.get()] {
            for (size_t i; (i = next++) < n;)
                fn(i, *conn);
        });
    }
    for (auto &t : threads)
        t.join();
}

/** Set-up: start a server and open the client connections to it. */
void
startServer(const MixConfig &m, Serving &sv)
{
    serve::ServerOptions so;
    so.port = 0;
    so.queueMax = 1u << 20;   // admit every request: none is refused
    so.engine.threads = m.workers;
    sv.server = std::make_unique<serve::Server>(so);
    std::string err;
    if (!sv.server->start(&err))
        throw std::runtime_error("server start: " + err);
    sv.conns.clear();
    for (unsigned c = 0; c < m.conns; c++)
        sv.conns.push_back(std::make_unique<Conn>(sv.server->port()));
}

/**
 * Pre-warm every hit job through a fresh server (a cold pass over the hit
 * list).  Checks each pre-warm answer against its reference digest.
 * @return the pass time in seconds.
 */
double
prewarm(const Options &opt, const MixConfig &m, Serving &sv, double &insts,
        Result &res)
{
    std::mutex mu;
    const auto t0 = Clock::now();
    acrossConns(sv, m.hit.size(), [&](size_t i, Conn &conn) {
        const rt::JobSpec spec = simSpec(m, m.hit[i]);
        const std::string key = spec.cacheKey().str;
        std::string frame, why;
        uint64_t id = 0;
        rt::JobResult jr;
        const bool ok = conn.roundTrip(i + 1, spec, frame) &&
                        serve::parseResultResponse(frame, id, jr, &why) &&
                        jr.ok;
        std::lock_guard<std::mutex> lock(mu);
        res.attempted++;
        if (!ok)
            return res.fail(key + ": pre-warm failed " + why + jr.error);
        const std::string want = referenceDigest(opt, key);
        const std::string got = runDigest(jr.run);
        if (got != want)
            return res.fail(key + ": pre-warm digest " + got +
                            " != reference " + want);
        sv.hitHash[key] = runHash(frame);
        insts += warpInsts(jr.run);
        sv.hitCycles[m.hit[i]] = totalCycles(jr.run);
    });
    return secs(t0, Clock::now());
}

/**
 * Closed-loop passes over the hit list through the warm server, one round
 * trip at a time on one connection.  Each answer must carry the pre-warm
 * answer's run.
 * @return the time of each pass in seconds.
 */
std::vector<double>
warmPasses(const MixConfig &m, Serving &sv, uint64_t firstId, Result &res)
{
    std::vector<double> passS;
    Conn &conn = *sv.conns[0];
    uint64_t id = firstId;
    for (uint64_t p = 0; p < m.warmPasses; p++) {
        const auto t0 = Clock::now();
        for (const auto &net : m.hit) {
            const rt::JobSpec spec = simSpec(m, net);
            std::string frame, why;
            uint64_t got = 0;
            rt::JobResult jr;
            const bool ok = conn.roundTrip(++id, spec, frame) &&
                            serve::parseResultResponse(frame, got, jr, &why) &&
                            jr.ok && got == id;
            res.attempted++;
            const std::string key = spec.cacheKey().str;
            const auto it = sv.hitHash.find(key);
            if (!ok)
                res.fail(key + ": warm pass failed " + why + jr.error);
            else if (it == sv.hitHash.end() || it->second != runHash(frame))
                res.fail(key + ": warm answer differs from the pre-warm "
                               "answer");
        }
        passS.push_back(secs(t0, Clock::now()));
    }
    return passS;
}

/**
 * The open-loop phase.  Requests leave in due order on whichever
 * connection is free first: a free connection sleeps until the next
 * request is due, a busy one sends it late.  Each request is timed from
 * its due time either way.
 */
void
runPhase(Serving &sv, std::vector<Req> &plan, bool trace,
         std::vector<Spans> &threadSpans, Clock::time_point &start)
{
    std::atomic<size_t> next{0};
    start = Clock::now() + std::chrono::milliseconds(5);
    threadSpans.clear();
    for (size_t c = 0; c < sv.conns.size(); c++)
        threadSpans.emplace_back(start);

    const auto connLoop = [&](Conn &conn, Spans &sp) {
        std::string frame;
        for (size_t i; (i = next++) < plan.size();) {
            Req &r = plan[i];
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.due));
            if (Clock::now() < due) {
                // Sleep to shortly before the due time and spin the rest,
                // so the host's thread wake-up latency is not charged to
                // the request as generator lateness.
                std::this_thread::sleep_until(due - kSpinAhead);
                while (Clock::now() < due) {
                }
                r.lateS = secs(due, Clock::now());
            } else {
                r.lateS = -1;   // queued behind a busy connection
            }
            const auto sent = Clock::now();
            const bool io = conn.roundTrip(r.id, r.spec, frame);
            const auto recv = Clock::now();
            rt::JobResult jr;
            uint64_t id = 0;
            std::string why;
            const bool parsed =
                io && serve::parseResultResponse(frame, id, jr, &why);
            const auto done_at = Clock::now();
            r.rttS = secs(due, done_at);
            r.parseUs = secs(recv, done_at) * 1e6;
            r.kb = double(frame.size()) / 1024.0;
            r.serverMs = jr.latencyMs;
            r.ok = parsed && jr.ok && id == r.id;
            r.error = !io ? "transport error" : !parsed ? why : jr.error;
            if (r.ok && r.cls == Hit) {
                const auto it = sv.hitHash.find(r.spec.cacheKey().str);
                if (it == sv.hitHash.end() || it->second != runHash(frame)) {
                    r.ok = false;
                    r.error = "hit answer differs from the pre-warm answer";
                }
            } else if (r.ok) {
                r.runHash = runHash(frame);
                r.cycles = totalCycles(jr.run);
            }
            if (trace) {
                const int root = sp.add("client.request", r.id, due, done_at);
                sp.add("client.queue", r.id, due, sent, root);
                sp.add("client.wait", r.id, sent, recv, root);
                sp.add("client.parse", r.id, recv, done_at, root);
            }
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < sv.conns.size(); c++)
        threads.emplace_back(connLoop, std::ref(*sv.conns[c]),
                             std::ref(threadSpans[c]));
    for (auto &t : threads)
        t.join();
}

/** Run @p fn(i, gpu) for i in [0, n) on @p threads threads, each with a
 *  private Gpu of config @p cfg. */
void
onGpus(const sim::GpuConfig &cfg, size_t n, unsigned threads,
       const std::function<void(size_t, sim::Gpu &)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++) {
        pool.emplace_back([&] {
            sim::Gpu gpu(cfg);
            for (size_t i; (i = next++) < n;)
                fn(i, gpu);
        });
    }
    for (auto &t : pool)
        t.join();
}

/**
 * Server-side stages, timed on the same inputs in this process by calling
 * the public functions the server calls: parseRequest, Engine::submitJob
 * (on the now-resident key), the NetRun -> JobResult copy and
 * makeResultResponse.
 */
void
timeServerStages(Serving &sv, const std::vector<Req> &plan, Result &res)
{
    std::vector<double> parse, lookup, copy, ser;
    for (const Req &r : plan) {
        const std::string frame = serve::makeRunRequest(r.id, r.spec);
        auto t0 = Clock::now();
        serve::Request req;
        const bool ok = serve::parseRequest(frame, req);
        parse.push_back(secs(t0, Clock::now()) * 1e6);
        if (!ok)
            res.fail("parseRequest rejected a benchmark frame");
        t0 = Clock::now();
        const auto sub = sv.server->engine().submitJob(req.job);
        const double lookUs = secs(t0, Clock::now()) * 1e6;
        if (r.cls == Hit)
            lookup.push_back(lookUs);
        const rt::NetRun *run = sub.future.get();
        t0 = Clock::now();
        rt::JobResult jr;
        jr.ok = true;
        jr.run = *run;
        copy.push_back(secs(t0, Clock::now()) * 1e6);
        t0 = Clock::now();
        const std::string out = serve::makeResultResponse(r.id, jr);
        ser.push_back(secs(t0, Clock::now()) * 1e6);
    }
    res.set("stage.parse_us", median(parse), "us", parse.size());
    res.set("engine.lookup_us", median(lookup), "us", lookup.size());
    res.set("stage.copy_us", median(copy), "us", copy.size());
    res.set("stage.serialize_us", median(ser), "us", ser.size());
}

/** The registry counters the serve_mix metrics are deltas of. */
struct Scraped
{
    double runs = 0, memHits = 0, fallbacks = 0, simUs = 0;

    static Scraped now()
    {
        Scraped s;
        s.runs = scrapeSum("tango_serve_run_requests_total");
        s.memHits =
            scrapeLabeled("tango_engine_cache_total", "result", "mem_hit");
        s.fallbacks = scrapeSum("tango_estimate_fallbacks_total");
        s.simUs = scrapeSum("tango_engine_sim_wall_us_sum");
        return s;
    }
};

} // namespace

Result
runServeMix(const Options &opt)
{
    Result res;
    const MixConfig m = mixConfig(opt.cfg);
    std::vector<Req> plan = makePlan(m, opt.seed, opt.seconds);

    // Set-up, repeated prewarm_passes times: start a server, connect the
    // clients and pre-warm the hit jobs with a cold pass over them.  The
    // last server stays up for the timed phase.
    std::vector<double> setupS;
    double prewarmInsts = 0, prewarmS = 0;
    Serving sv;
    for (uint64_t r = 0; r < m.prewarmPasses; r++) {
        sv.conns.clear();
        sv.server.reset();
        const auto t0 = Clock::now();
        startServer(m, sv);
        prewarmS += prewarm(opt, m, sv, prewarmInsts, res);
        setupS.push_back(secs(t0, Clock::now()));
    }

    const Scraped before = Scraped::now();
    std::vector<Spans> threadSpans;
    Clock::time_point start;
    runPhase(sv, plan, opt.trace, threadSpans, start);
    const Scraped after = Scraped::now();
    // The checks below are the benchmark's own work, not the server's.
    const double rssMb = peakRssMb();
    const std::vector<double> passS = warmPasses(m, sv, plan.size(), res);

    // Checks after the timed phase, against in-process rt::runJob runs of
    // the same specs.  An estimate spec's run is the Estimator's answer, or
    // the simulation it falls back to; it is computed once per cache key.
    const sim::GpuConfig gpuCfg = simSpec(m, m.miss[0]).gpuConfig();
    sim::Gpu gpu(gpuCfg);
    std::map<std::string, size_t> estimated;
    std::vector<double> queryUs;
    // In-process time of each distinct estimate job, by the route the
    // Engine took (the estimate or its fallback): the Engine ran each once
    // during the phase, beside the misses.
    double estimateJobsUs = 0;
    std::vector<size_t> misses, estSims;   // plan indices
    for (size_t i = 0; i < plan.size(); i++) {
        Req &r = plan[i];
        res.attempted++;
        if (!r.ok) {
            res.fail(r.spec.cacheKey().str + ": " + r.error);
            continue;
        }
        if (r.cls == Miss) {
            misses.push_back(i);
            continue;
        }
        if (r.cls != Estimate)
            continue;
        rt::NetRun est;
        const auto t0 = Clock::now();
        estimate::Estimator::global().estimate(r.spec, est);
        queryUs.push_back(secs(t0, Clock::now()) * 1e6);
        const std::string key = r.spec.cacheKey().str;
        auto it = estimated.find(key);
        if (it == estimated.end()) {
            const auto t1 = Clock::now();
            const rt::NetRun answer = rt::runJob(gpu, r.spec);
            estimateJobsUs += secs(t1, Clock::now()) * 1e6;
            it = estimated.emplace(key, runHash(answer)).first;
        }
        if (it->second != r.runHash) {
            r.ok = false;
            res.fail(key + ": estimate answer differs from the in-process "
                           "run");
            continue;
        }
        if (isRnn(r.spec.net))
            estSims.push_back(i);
    }

    // Every miss runs again in-process: untraced for its answer, and traced
    // for its launches.
    double tracedMissS = 0, untracedMissS = 0;
    Spans missSpans(start);
    for (size_t i : misses) {
        Req &r = plan[i];
        const auto t0 = Clock::now();
        const rt::NetRun run = rt::runJob(gpu, r.spec);
        const double simS = secs(t0, Clock::now());
        std::string err;
        if (runHash(run) != r.runHash)
            err = "miss answer differs from the in-process run";
        if (opt.trace) {
            const TracedJob tj = tracedRunJob(gpu, r.spec, missSpans, r.id);
            tracedMissS += tj.wallS;
            untracedMissS += simS;
            const std::string diff = compareLaunches(tj.run, run);
            if (!diff.empty())
                err = "traced run: " + diff;
        }
        if (!err.empty()) {
            r.ok = false;
            res.fail(r.spec.cacheKey().str + ": " + err);
        }
    }

    // The sim tier of every RNN estimate spec, for the error metric.
    const unsigned checkThreads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<double> relErr(estSims.size());
    onGpus(gpuCfg, estSims.size(), checkThreads,
           [&](size_t k, sim::Gpu &g) {
        const Req &r = plan[estSims[k]];
        rt::JobSpec spec = r.spec;
        spec.tier = rt::Tier::Sim;
        const double sim = totalCycles(rt::runJob(g, spec));
        relErr[k] = std::fabs(r.cycles - sim) / sim;
    });
    for (const Req &r : plan) {
        if (r.ok && r.cls == Estimate && !isRnn(r.spec.net)) {
            const double sim = sv.hitCycles.at(r.spec.net);
            relErr.push_back(std::fabs(r.cycles - sim) / sim);
        }
    }

    // End-to-end metrics.
    std::vector<double> rtt, rttCls[NumClasses], late, parseUs, serverMs,
        unaccounted, kb[NumClasses];
    uint64_t sloOk = 0, nCls[NumClasses] = {};
    for (const Req &r : plan) {
        rtt.push_back(r.rttS * 1e3);
        rttCls[r.cls].push_back(r.rttS * 1e3);
        nCls[r.cls]++;
        if (r.lateS >= 0)
            late.push_back(r.lateS * 1e3);
        parseUs.push_back(r.parseUs);
        serverMs.push_back(r.serverMs);
        unaccounted.push_back(r.rttS * 1e3 - r.serverMs - r.parseUs / 1e3);
        kb[r.cls].push_back(r.kb);
        if (r.ok && r.rttS * 1e3 <= m.sloMs)
            sloOk++;
    }
    double lastDone = 0;
    for (const Req &r : plan)
        lastDone = std::max(lastDone, r.due + r.rttS);
    res.set("serve.throughput_rps", double(plan.size()) / lastDone, "1/s",
            plan.size());
    res.set("setup_s", median(setupS), "s", setupS.size());
    res.set("pass_s", median(passS), "s", passS.size());
    res.set("sim_kwips", prewarmInsts / prewarmS / 1e3, "kinst/s",
            setupS.size() * m.hit.size());
    res.set("peak_rss_mb", rssMb, "MB", 1);
    res.set("rtt_p50_ms", mixP50Ms(m, plan, NumClasses), "ms", rtt.size());
    res.set("rtt_p98_ms", quantile(rtt, 0.98), "ms", rtt.size());
    res.set("slo_ok_ratio", double(sloOk) / double(plan.size()), "ratio",
            plan.size());
    res.set("estimate_rel_err_p95", quantile(relErr, 0.95), "ratio",
            relErr.size());
    for (int c = 0; c < NumClasses; c++) {
        res.set(std::string("rtt_p50_ms.") + kClassName[c],
                mixP50Ms(m, plan, Class(c)), "ms", nCls[c]);
        res.set(std::string("result.kb.") + kClassName[c], median(kb[c]),
                "KB", nCls[c]);
    }
    res.set("gen.late_ms_p99", quantile(late, 0.99), "ms", late.size());
    res.set("stage.client_parse_us", median(parseUs), "us", parseUs.size());
    res.set("serve.server_ms", median(serverMs), "ms", serverMs.size());
    res.set("serve.unaccounted_ms", median(unaccounted), "ms",
            unaccounted.size());
    res.set("estimate.query_us", median(queryUs), "us", queryUs.size());
    const double runs = after.runs - before.runs;
    res.set("engine.hit_ratio",
            runs > 0 ? (after.memHits - before.memHits) / runs : 0, "ratio",
            static_cast<uint64_t>(runs));
    res.set("estimate.fallback_ratio",
            nCls[Estimate]
                ? (after.fallbacks - before.fallbacks) / double(nCls[Estimate])
                : 0,
            "ratio", nCls[Estimate]);
    // The time a miss spent anywhere but simulating, on average: its round
    // trip minus the Engine's simulation time for it.  That is the Engine's
    // whole simulation time over the phase less the estimate jobs it ran,
    // spread over the misses.
    double missRttMs = 0;
    for (double ms : rttCls[Miss])
        missRttMs += ms;
    const double missSimMs =
        ((after.simUs - before.simUs) - estimateJobsUs) / 1e3;
    res.set("engine.miss_wait_ms",
            nCls[Miss] ? (missRttMs - missSimMs) / double(nCls[Miss]) : 0,
            "ms", nCls[Miss]);

    if (opt.trace) {
        timeServerStages(sv, plan, res);

        Spans all(start);
        for (const auto &s : threadSpans)
            all.absorb(s);
        all.absorb(missSpans);
        simLayerMetrics(all.all(), std::max<double>(misses.size(), 1), res);
        res.set("sim.memo_mismatches",
                scrapeSum("tango_sim_memo_mismatches_total"), "count",
                nCls[Miss]);
        res.set("trace.overhead_ratio",
                untracedMissS > 0 ? tracedMissS / untracedMissS - 1.0 : 0,
                "ratio", misses.size());
        res.spans = all.all();
    }

    sv.conns.clear();
    sv.server.reset();
    return res;
}

void
printPlan(const Options &opt)
{
    if (opt.workload != "serve_mix") {
        for (const auto &j : opt.cfg.find("jobs")->arr)
            std::printf("%s\n",
                        jobFromConfig(opt.cfg, j).cacheKey().str.c_str());
        return;
    }
    for (const Req &r : makePlan(mixConfig(opt.cfg), opt.seed, opt.seconds))
        std::printf("%.6f %s %s\n", r.due, kClassName[r.cls],
                    r.spec.cacheKey().str.c_str());
}

} // namespace perfbench
