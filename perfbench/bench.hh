/**
 * @file
 * Shared pieces of the tango benchmark binary (perfbench/): timing,
 * order statistics, the result record every workload fills, the span
 * recorder of the traced run and output digests.
 *
 * Every span is recorded by the benchmark, around calls into the
 * library's public functions (see probe.cc for the ones inside
 * rt::runJob); nothing under src/ is instrumented for the benchmark.
 */

#ifndef TANGO_PERFBENCH_BENCH_HH
#define TANGO_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runtime/job.hh"
#include "sim/gpu.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using JsonValue = tango::json::Reader::Value;

/** Seconds from @p a to @p b. */
inline double
secs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolation quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** One traced interval.  Spans of one job or request share an id. */
struct Span
{
    std::string name;
    double t0 = 0, t1 = 0;   ///< seconds since the recorder's epoch
    int parent = -1;         ///< index into the same recorder, -1 = root
    uint64_t id = 0;         ///< job or request id
    // Launch spans only.
    std::string figType;
    bool replayed = false;
    double warps = 0;        ///< resident warps (residentCtas x sampled)
    double smCycles = 0;     ///< cycles simulated on the one SM
    double warpInsts = 0;    ///< simulated warp instructions (issued/scale)
};

/** One reported metric: value, unit and how many samples it summarizes. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Traced runs: the spans to write when the run ends. */
    std::vector<Span> spans;
    /** One line per failed check, printed to stderr. */
    std::vector<std::string> failures;

    void set(const std::string &name, double v, const char *unit,
             uint64_t n)
    {
        metrics[name] = {v, unit, n};
    }
    /** Count one failed operation (wrong output or an error answer). */
    void fail(const std::string &why)
    {
        failed++;
        correct = false;
        failures.push_back(why);
    }
};

/** A workload's parameters (one object of perfbench/workloads.json). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root;        ///< checkout root (parent of perfbench/)
    JsonValue cfg;           ///< this workload's config object
    JsonValue references;    ///< perfbench/reference.json
};

// ------------------------------------------------------------------ spans

/** In-memory span recorder (one per thread); written when the run ends. */
class Spans
{
  public:
    explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

    /** Open a span as a child of the innermost open one. */
    int begin(const std::string &name, uint64_t id);
    /** Close span @p idx (must be the innermost open one). */
    void end(int idx);
    /** Record an already-measured interval under @p parent. */
    int add(const std::string &name, uint64_t id, Clock::time_point a,
            Clock::time_point b, int parent = -1);

    Span &at(int idx) { return spans_[idx]; }
    const std::vector<Span> &all() const { return spans_; }
    /** Append another recorder's spans (re-indexing parents). */
    void absorb(const Spans &other);

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Write spans and the per-layer metrics as one JSON document. */
bool writeTrace(const std::string &path, const std::string &workload,
                const std::vector<Span> &spans, const Result &res);

// ---------------------------------------------------------------- outputs

/**
 * Digest of a NetRun's serialized simulated statistics, ignoring what
 * only says how launches were served (the mem.replayed_launches /
 * mem.simulated_launches meta-counters and each kernel's replayed flag),
 * exactly as the golden fixtures do.
 */
std::string runDigest(const tango::rt::NetRun &run);

/** Simulated warp instructions of a run: issued / scale per launch,
 *  replayed launches included. */
double warpInsts(const tango::rt::NetRun &run);

/** Whole-GPU cycles of a run (sum over launches). */
double totalCycles(const tango::rt::NetRun &run);

/** The reference digest recorded for @p key, or "" when none. */
std::string referenceDigest(const Options &opt, const std::string &key);

// ------------------------------------------------------------------- jobs

/** A job spec from one {"net":..} object plus workload-wide fields. */
tango::rt::JobSpec jobFromConfig(const JsonValue &cfg, const JsonValue &job);

/** One traced rt::runJob: its result and the runtime.job span's length. */
struct TracedJob
{
    tango::rt::NetRun run;
    double wallS = 0;
};

/**
 * rt::runJob with its spans recorded into @p spans: runtime.job >
 * nn.build, runtime.lower (Gpu::coldStart and rt::lower / rt::lowerRnn,
 * which includes DSL emission) and one sim.launch per Gpu::launch.  The
 * inner spans come from link-time wrappers of those functions (probe.cc),
 * so the job that runs is the program's own runJob.
 */
TracedJob tracedRunJob(tango::sim::Gpu &gpu, const tango::rt::JobSpec &spec,
                       Spans &spans, uint64_t id);

/**
 * Compare a traced run with an untraced run of the same spec.
 * @return "" when equal launch for launch, else the first difference.
 */
std::string compareLaunches(const tango::rt::NetRun &traced,
                            const tango::rt::NetRun &untraced);

/** Fill the sim.*, nn.* and runtime.* per-layer metrics from the spans of
 *  @p jobs traced jobs (per-job averages). */
void simLayerMetrics(const std::vector<Span> &spans, double jobs,
                     Result &res);

/** Fill per-layer metrics a workload does not exercise with 0, so every
 *  workload reports the same names. */
void zeroUnexercised(Result &res);

/** Render the tango metrics registry and sum family @p name. */
double scrapeSum(const std::string &name);
/** Sum of the samples of @p name whose label @p key equals @p value. */
double scrapeLabeled(const std::string &name, const std::string &key,
                     const std::string &value);

/** The cold workloads (cold_cnn, rnn_long). */
Result runCold(const Options &opt);
/** The serving workload. */
Result runServeMix(const Options &opt);

/** Print a workload's plan (job list or request schedule), no runs. */
void printPlan(const Options &opt);

} // namespace perfbench

#endif // TANGO_PERFBENCH_BENCH_HH
