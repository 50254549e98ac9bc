#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "metrics/metrics.hh"
#include "metrics/scrape.hh"
#include "runtime/run_cache.hh"

namespace perfbench {

using namespace tango;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux reports KB
}

// ------------------------------------------------------------------ spans

int
Spans::begin(const std::string &name, uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.t0 = secs(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Spans::end(int idx)
{
    spans_[idx].t1 = secs(epoch_, Clock::now());
    if (open_.empty() || open_.back() != idx)
        throw std::logic_error("span " + spans_[idx].name +
                               " closed out of order");
    open_.pop_back();
}

int
Spans::add(const std::string &name, uint64_t id, Clock::time_point a,
           Clock::time_point b, int parent)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.t0 = secs(epoch_, a);
    s.t1 = secs(epoch_, b);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
Spans::absorb(const Spans &other)
{
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(std::move(s));
    }
}

namespace {

/** Self time of every span (duration minus its children's). */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++)
        self[i] = spans[i].t1 - spans[i].t0;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.t1 - s.t0;
    }
    return self;
}

} // namespace

bool
writeTrace(const std::string &path, const std::string &workload,
           const std::vector<Span> &spans, const Result &res)
{
    std::string out;
    json::ObjWriter o(out);
    o.str("workload", workload);
    o.key("spans");
    out += '[';
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (i)
            out += ",\n";
        json::ObjWriter so(out);
        so.str("name", s.name);
        so.num("t0", s.t0);
        so.num("t1", s.t1);
        so.num("parent", s.parent);
        so.u64("id", s.id);
        if (s.name == "sim.launch") {
            so.str("figType", s.figType);
            so.boolean("replayed", s.replayed);
            so.num("warps", s.warps);
            so.num("smCycles", s.smCycles);
            so.num("warpInsts", s.warpInsts);
        }
        so.close();
    }
    out += "]";
    o.key("metrics");
    json::ObjWriter mo(out);
    for (const auto &[name, m] : res.metrics) {
        mo.key(name.c_str());
        json::ObjWriter vo(out);
        vo.num("value", m.value);
        vo.str("unit", m.unit);
        vo.u64("samples", m.samples);
        vo.close();
    }
    mo.close();
    o.close();
    std::ofstream f(path);
    f << out << "\n";
    return bool(f);
}

// ---------------------------------------------------------------- outputs

namespace {

/** FNV-1a 64 over @p s, as 16 hex digits. */
std::string
digestHex(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Serialized form of one launch's KernelStats. */
std::string
kernelText(const sim::KernelStats &k)
{
    rt::NetRun one;
    one.layers.emplace_back();
    one.layers.back().kernels.push_back(k);
    return rt::serializeNetRun(one);
}

} // namespace

std::string
runDigest(const rt::NetRun &run)
{
    rt::NetRun copy = run;
    for (auto &l : copy.layers) {
        for (auto &k : l.kernels)
            k.replayed = false;
    }
    StatSet totals;
    for (const auto &[name, v] : run.totals.all()) {
        if (name != "mem.replayed_launches" &&
            name != "mem.simulated_launches")
            totals.set(name, v);
    }
    copy.totals = totals;
    return digestHex(rt::serializeNetRun(copy));
}

double
warpInsts(const rt::NetRun &run)
{
    double n = 0;
    for (const auto &l : run.layers) {
        for (const auto &k : l.kernels)
            n += k.stats.get("issued") / k.scale;
    }
    return n;
}

double
totalCycles(const rt::NetRun &run)
{
    double c = 0;
    for (const auto &l : run.layers)
        c += l.gpuCycles();
    return c;
}

std::string
referenceDigest(const Options &opt, const std::string &key)
{
    const JsonValue *w = opt.references.find(opt.workload.c_str());
    return w ? w->strOr(key.c_str()) : std::string();
}

// ------------------------------------------------------------------- jobs

rt::JobSpec
jobFromConfig(const JsonValue &cfg, const JsonValue &job)
{
    rt::JobSpec spec;
    spec.net = job.strOr("net");
    spec.policy = cfg.strOr("policy");
    if (spec.policy.empty())
        spec.policy = "bench";
    spec.platform = cfg.strOr("platform");
    if (spec.platform.empty())
        spec.platform = "GP102";
    spec.seqLen = static_cast<uint32_t>(
        job.u64Or("seqLen", cfg.u64Or("seqLen", 0)));
    const std::string why = spec.validate();
    if (!why.empty())
        throw std::runtime_error("bad job in workloads.json: " + why);
    return spec;
}

namespace {

/** A NetRun's kernels in launch order. */
std::vector<const sim::KernelStats *>
flatKernels(const rt::NetRun &run)
{
    std::vector<const sim::KernelStats *> out;
    for (const auto &l : run.layers) {
        for (const auto &k : l.kernels)
            out.push_back(&k);
    }
    return out;
}

} // namespace

std::string
compareLaunches(const rt::NetRun &traced, const rt::NetRun &untraced)
{
    const auto a = flatKernels(traced);
    const auto b = flatKernels(untraced);
    if (a.size() != b.size()) {
        return "launch count " + std::to_string(a.size()) + " traced vs " +
               std::to_string(b.size()) + " untraced";
    }
    for (size_t i = 0; i < b.size(); i++) {
        if (kernelText(*a[i]) != kernelText(*b[i]))
            return "launch " + std::to_string(i) + " (" + b[i]->name +
                   ") differs";
    }
    return "";
}

namespace {

/** The figure types whose timing time is reported per type. */
const std::vector<std::string> &
reportedFigTypes()
{
    static const std::vector<std::string> figs = {
        "Conv", "Pooling", "FC",  "Norm", "Eltwise",
        "Relu", "Scale",   "GRU", "LSTM", "Others"};
    return figs;
}

} // namespace

void
simLayerMetrics(const std::vector<Span> &spans, double jobs, Result &res)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> layerS;
    std::map<std::string, double> figS;
    struct Bin
    {
        double s = 0, insts = 0;
    };
    Bin bins[4];
    double timingS = 0, replayS = 0, cycles = 0, insts = 0, maxLaunch = 0;
    uint64_t nTiming = 0, nReplayed = 0;
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (s.name != "sim.launch") {
            layerS[s.name] += self[i];
            continue;
        }
        maxLaunch = std::max(maxLaunch, self[i]);
        if (s.replayed) {
            replayS += self[i];
            nReplayed++;
            continue;
        }
        nTiming++;
        timingS += self[i];
        cycles += s.smCycles;
        insts += s.warpInsts;
        const auto &figs = reportedFigTypes();
        const bool known =
            std::find(figs.begin(), figs.end(), s.figType) != figs.end();
        figS[known ? s.figType : "Others"] += self[i];
        const int bin = s.warps <= 8 ? 0 : s.warps <= 16 ? 1
                        : s.warps <= 32 ? 2 : 3;
        bins[bin].s += self[i];
        bins[bin].insts += s.warpInsts;
    }
    const uint64_t n = static_cast<uint64_t>(jobs);
    const auto perJobMs = [&](double s) { return s * 1e3 / jobs; };
    res.set("sim.timing_ms", perJobMs(timingS), "ms", nTiming);
    res.set("sim.replay_ms", perJobMs(replayS), "ms", nReplayed);
    res.set("sim.ns_per_sm_cycle", cycles > 0 ? timingS * 1e9 / cycles : 0,
            "ns/cycle", nTiming);
    res.set("sim.ns_per_warp_inst", insts > 0 ? timingS * 1e9 / insts : 0,
            "ns/inst", nTiming);
    const char *binNames[4] = {"w1-8", "w9-16", "w17-32", "w33-"};
    for (int b = 0; b < 4; b++) {
        res.set(std::string("sim.ns_per_warp_inst.") + binNames[b],
                bins[b].insts > 0 ? bins[b].s * 1e9 / bins[b].insts : 0,
                "ns/inst", nTiming);
    }
    for (const auto &fig : reportedFigTypes())
        res.set("sim.timing_ms." + fig, perJobMs(figS[fig]), "ms", n);
    res.set("sim.launch_ms_max", maxLaunch * 1e3, "ms", nTiming + nReplayed);
    res.set("sim.launches.timing", double(nTiming) / jobs, "count", n);
    res.set("sim.launches.replayed", double(nReplayed) / jobs, "count", n);
    res.set("sim.replay_ratio",
            nTiming + nReplayed
                ? double(nReplayed) / double(nTiming + nReplayed)
                : 0,
            "ratio", nTiming + nReplayed);
    res.set("nn.build_ms", perJobMs(layerS["nn.build"]), "ms", n);
    res.set("runtime.lower_ms", perJobMs(layerS["runtime.lower"]), "ms", n);
    res.set("runtime.other_ms", perJobMs(layerS["runtime.job"]), "ms", n);
}

void
zeroUnexercised(Result &res)
{
    static const std::vector<std::pair<const char *, const char *>> all = {
        {"engine.lookup_us", "us"},       {"engine.hit_ratio", "ratio"},
        {"engine.miss_wait_ms", "ms"},    {"stage.parse_us", "us"},
        {"stage.copy_us", "us"},          {"stage.serialize_us", "us"},
        {"stage.client_parse_us", "us"},  {"result.kb.hit", "KB"},
        {"result.kb.estimate", "KB"},     {"result.kb.miss", "KB"},
        {"serve.server_ms", "ms"},        {"serve.unaccounted_ms", "ms"},
        {"estimate.query_us", "us"},      {"estimate.fallback_ratio", "ratio"},
        {"gen.late_ms_p99", "ms"},        {"rtt_p50_ms.hit", "ms"},
        {"rtt_p50_ms.estimate", "ms"},    {"rtt_p50_ms.miss", "ms"},
    };
    for (const auto &[name, unit] : all) {
        if (!res.metrics.count(name))
            res.set(name, 0.0, unit, 0);
    }
}

namespace {

metrics::Scrape
scrapeNow()
{
    metrics::Scrape s;
    std::string err;
    if (!metrics::Scrape::parse(
            metrics::Registry::global().renderPrometheus(), s, &err))
        throw std::runtime_error("metrics scrape: " + err);
    return s;
}

} // namespace

double
scrapeSum(const std::string &name)
{
    return scrapeNow().sum(name);
}

double
scrapeLabeled(const std::string &name, const std::string &key,
              const std::string &value)
{
    double v = 0;
    const metrics::Scrape scrape = scrapeNow();
    for (const auto &s : scrape.samples()) {
        if (s.name == name && s.label(key) == value)
            v += s.value;
    }
    return v;
}

} // namespace perfbench
