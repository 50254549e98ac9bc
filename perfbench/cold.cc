/**
 * @file
 * The cold workloads: cold_cnn and rnn_long.  Each pass runs the
 * workload's fixed job list through rt::runJob on one private sim::Gpu,
 * one thread, no Engine, so nothing is served from a cache and every
 * job's coldStart() empties the simulated caches.  The seed does not
 * change the job list.
 */

#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "estimate/estimator.hh"

namespace perfbench {

using namespace tango;

namespace {

const char *const kMismatches = "tango_sim_memo_mismatches_total";

struct ColdState
{
    std::vector<rt::JobSpec> specs;
    std::unique_ptr<sim::Gpu> gpu;
};

/** Everything a cold run needs before its first job: the job list from
 *  the config and the private Gpu it runs on. */
ColdState
setUp(const Options &opt)
{
    ColdState st;
    const JsonValue *jobs = opt.cfg.find("jobs");
    if (!jobs || jobs->arr.empty())
        throw std::runtime_error(opt.workload + ": no jobs configured");
    for (const auto &j : jobs->arr)
        st.specs.push_back(jobFromConfig(opt.cfg, j));
    for (const auto &s : st.specs) {
        const rt::JobSpec &f = st.specs[0];
        if (s.platform != f.platform || s.l1dBytes != f.l1dBytes ||
            s.sched != f.sched)
            throw std::runtime_error("cold jobs must share one platform");
    }
    st.gpu = std::make_unique<sim::Gpu>(st.specs[0].gpuConfig());
    return st;
}

/** Check one job's output against the reference recorded for it. */
void
checkRun(const Options &opt, const rt::JobSpec &spec, const rt::NetRun &run,
         Result &res)
{
    const std::string key = spec.cacheKey().str;
    const std::string want = referenceDigest(opt, key);
    if (want.empty())
        return res.fail(key + ": no reference digest");
    const std::string got = runDigest(run);
    if (got != want)
        res.fail(key + ": output digest " + got + " != reference " + want);
}

/**
 * The estimate tier's relative total-cycle error on the workload's jobs,
 * measured after the timed phase.  Each job is asked of the estimator
 * under the configured estimate policy and compared with the sim tier of
 * the same spec (the timed run itself when the policies agree).  A job
 * the estimator refuses is answered by the simulation it falls back to,
 * so its error is 0 and it counts in estimate.fallback_ratio.
 */
void
estimateError(const Options &opt, ColdState &st,
              const std::vector<double> &timedCycles, Result &res)
{
    const std::string estPolicy = opt.cfg.strOr("estimate_policy");
    std::vector<double> errs, queryUs;
    uint64_t fallbacks = 0;
    for (size_t i = 0; i < st.specs.size(); i++) {
        rt::JobSpec simSpec = st.specs[i];
        simSpec.policy = estPolicy;
        const double sim = simSpec.policy == st.specs[i].policy
                               ? timedCycles[i]
                               : totalCycles(rt::runJob(*st.gpu, simSpec));
        rt::JobSpec estSpec = simSpec;
        estSpec.tier = rt::Tier::Estimate;
        rt::NetRun est;
        std::string why;
        const auto t0 = Clock::now();
        const bool ok =
            estimate::Estimator::global().estimate(estSpec, est, &why);
        queryUs.push_back(secs(t0, Clock::now()) * 1e6);
        fallbacks += !ok;
        errs.push_back(ok ? std::fabs(totalCycles(est) - sim) / sim : 0.0);
    }
    res.set("estimate_rel_err_p95", quantile(errs, 0.95), "ratio",
            errs.size());
    res.set("estimate.query_us", median(queryUs), "us", queryUs.size());
    res.set("estimate.fallback_ratio",
            double(fallbacks) / double(st.specs.size()), "ratio",
            st.specs.size());
}

} // namespace

Result
runCold(const Options &opt)
{
    Result res;
    const uint64_t repeats = opt.cfg.u64Or("setup_repeats");
    const double sloMs = opt.cfg.numOr("slo_ms");
    if (sloMs <= 0 || repeats == 0 || opt.cfg.strOr("estimate_policy").empty())
        throw std::runtime_error(opt.workload + ": slo_ms, setup_repeats and "
                                                "estimate_policy required");

    // The set-up takes a fraction of a millisecond, and the host's speed
    // swings over seconds, so it is timed again after every pass: the
    // samples span the run rather than one moment of it.  Its cost depends
    // on the heap the previous job left (on GP102 about 0.16 ms after
    // squeezenet, 0.02 ms after resnet, gru or lstm), so it is always
    // timed after the same job, the last of the list.
    std::vector<double> setupS;
    const auto timeSetUps = [&] {
        for (uint64_t r = 0; r < repeats; r++) {
            const auto t0 = Clock::now();
            const ColdState spare = setUp(opt);
            setupS.push_back(secs(t0, Clock::now()));
        }
    };
    ColdState st = setUp(opt);

    const auto epoch = Clock::now();
    Spans spans(epoch);
    std::vector<double> passS, passKwips, opMs;
    std::vector<std::vector<double>> jobMs(st.specs.size());
    std::vector<double> cycles(st.specs.size());
    double untracedS = 0, tracedS = 0;
    uint64_t sloOk = 0, jobId = 0;
    const double mism0 = scrapeSum(kMismatches);
    while (true) {
        double pass = 0, passInsts = 0, passRunS = 0;
        for (size_t i = 0; i < st.specs.size(); i++) {
            const rt::JobSpec &spec = st.specs[i];
            const uint64_t failedBefore = res.failed;
            const auto t0 = Clock::now();
            const rt::NetRun run = rt::runJob(*st.gpu, spec);
            const double dt = secs(t0, Clock::now());
            res.attempted++;
            pass += dt;
            passRunS += dt;
            opMs.push_back(dt * 1e3);
            jobMs[i].push_back(dt * 1e3);
            passInsts += warpInsts(run);
            checkRun(opt, spec, run, res);
            if (opt.trace) {
                const TracedJob traced =
                    tracedRunJob(*st.gpu, spec, spans, ++jobId);
                tracedS += traced.wallS;
                untracedS += dt;
                pass += traced.wallS;
                const std::string diff = compareLaunches(traced.run, run);
                if (!diff.empty())
                    res.fail(spec.cacheKey().str + ": traced run: " + diff);
            }
            if (res.failed == failedBefore && dt * 1e3 <= sloMs)
                sloOk++;
            cycles[i] = totalCycles(run);
        }
        timeSetUps();
        passS.push_back(pass);
        passKwips.push_back(passInsts / passRunS / 1e3);
        // Whole passes only: start another while it would end nearer to
        // --seconds than stopping now does.
        if (secs(epoch, Clock::now()) + pass / 2 > opt.seconds)
            break;
    }

    // Before the estimate checks, which may simulate under another policy.
    const double rssMb = peakRssMb();
    estimateError(opt, st, cycles, res);

    if (opt.trace) {
        simLayerMetrics(spans.all(), double(jobId), res);
        res.set("sim.memo_mismatches", scrapeSum(kMismatches) - mism0,
                "count", jobId);
        res.set("trace.overhead_ratio", tracedS / untracedS - 1.0, "ratio",
                jobId);
        res.spans = spans.all();
    }
    res.set("setup_s", median(setupS), "s", setupS.size());
    res.set("pass_s", median(passS), "s", passS.size());
    res.set("sim_kwips", median(passKwips), "kinst/s", passKwips.size());
    res.set("peak_rss_mb", rssMb, "MB", 1);
    // The jobs' times form one cluster per job, so the median of them all
    // would fall between two clusters, on their noisiest members.  Each
    // job's median is taken instead, and averaged over the job list.
    double jobP50 = 0;
    for (const auto &ms : jobMs)
        jobP50 += median(ms) / double(jobMs.size());
    res.set("rtt_p50_ms", jobP50, "ms", opMs.size());
    res.set("rtt_p98_ms", quantile(opMs, 0.98), "ms", opMs.size());
    res.set("slo_ok_ratio", double(sloOk) / double(res.attempted), "ratio",
            res.attempted);
    return res;
}

} // namespace perfbench
