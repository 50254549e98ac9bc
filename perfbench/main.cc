/**
 * @file
 * tango-perfbench: the repository benchmark.  Runs one workload
 * (cold_cnn, rnn_long, serve_mix) or all three from one process, checks
 * every output, prints every metric by name with its unit and sample
 * count, and ends with one JSON result line.
 *
 *   tango-perfbench --workload W --seed N --seconds S --trace 0|1
 *                   [--root DIR] [--reference FILE]
 *   tango-perfbench --print-plan --workload W --seed N --seconds S
 *   tango-perfbench --update-reference
 *
 * --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
 * the per-layer ones (and writes the spans to
 * <root>/.bench_build/trace-<workload>.json).  Exit code 0
 * only when every operation succeeded and every output was correct.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hh"

extern char **environ;

namespace perfbench {
namespace {

using namespace tango;

const char *const kWorkloads[] = {"cold_cnn", "rnn_long", "serve_mix"};

JsonValue
readJson(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << f.rdbuf();
    return json::Reader(ss.str()).parse();
}

/** Metric names BENCHMARK.json lists under @p section. */
std::vector<std::string>
listed(const JsonValue &bench, const char *section)
{
    std::vector<std::string> out;
    if (const JsonValue *v = bench.find(section)) {
        for (const auto &m : v->arr)
            out.push_back(m.strOr("name"));
    }
    return out;
}

/** Drop every TANGO_* knob the caller's environment may carry, so runs
 *  measure the defaults (K=1, memo on, no disk cache), and point the
 *  estimator at the checkout's bundles. */
void
cleanEnvironment(const std::string &root)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "TANGO_", 6) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    }
    for (const auto &n : names)
        unsetenv(n.c_str());
    setenv("TANGO_ESTIMATE_WEIGHTS", (root + "/weights/estimate").c_str(), 1);
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Record the reference digests from in-process runs of every job the
 *  benchmark checks against one. */
int
updateReference(const std::string &root, const JsonValue &workloads)
{
    std::string out;
    json::ObjWriter o(out);
    for (const char *w : kWorkloads) {
        const JsonValue &cfg = *workloads.find(w);
        std::vector<rt::JobSpec> specs;
        if (const JsonValue *jobs = cfg.find("jobs")) {
            for (const auto &j : jobs->arr)
                specs.push_back(jobFromConfig(cfg, j));
        }
        if (const JsonValue *hits = cfg.find("hit")) {
            for (const auto &n : hits->arr) {
                JsonValue job;
                job.kind = JsonValue::Kind::Obj;
                JsonValue name;
                name.kind = JsonValue::Kind::Str;
                name.str = n.str;
                job.obj.emplace_back("net", name);
                specs.push_back(jobFromConfig(cfg, job));
            }
        }
        o.key(w);
        json::ObjWriter wo(out);
        for (const auto &s : specs) {
            sim::Gpu gpu(s.gpuConfig());
            const std::string d = runDigest(rt::runJob(gpu, s));
            std::fprintf(stderr, "%s %s\n", s.cacheKey().str.c_str(),
                         d.c_str());
            wo.str(s.cacheKey().str.c_str(), d);
        }
        wo.close();
    }
    o.close();
    std::ofstream f(root + "/perfbench/reference.json");
    f << out << "\n";
    return f ? 0 : 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    opt.root = ".";
    std::string reference, only = "all";
    bool printPlanOnly = false, update = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            only = val();
        else if (a == "--seed")
            opt.seed = std::stoull(val());
        else if (a == "--seconds")
            opt.seconds = std::stod(val());
        else if (a == "--trace")
            opt.trace = val() != "0";
        else if (a == "--root")
            opt.root = val();
        else if (a == "--reference")
            reference = val();
        else if (a == "--print-plan")
            printPlanOnly = true;
        else if (a == "--update-reference")
            update = true;
        else
            throw std::runtime_error("unknown argument " + a);
    }
    if (opt.seconds <= 0)
        throw std::runtime_error("--seconds must be positive");
    char *abs = realpath(opt.root.c_str(), nullptr);
    if (!abs)
        throw std::runtime_error("no such root " + opt.root);
    opt.root = abs;
    std::free(abs);
    cleanEnvironment(opt.root);

    const JsonValue bench = readJson(opt.root + "/BENCHMARK.json");
    const JsonValue workloads = readJson(opt.root + "/perfbench/workloads.json");
    if (update)
        return updateReference(opt.root, workloads);
    opt.references = readJson(reference.empty()
                                  ? opt.root + "/perfbench/reference.json"
                                  : reference);

    std::vector<std::string> names;
    for (const char *w : kWorkloads) {
        if (only == "all" || only == w)
            names.push_back(w);
    }
    if (names.empty())
        throw std::runtime_error("unknown workload " + only);

    const std::vector<std::string> wanted =
        listed(bench, opt.trace ? "per_layer" : "end_to_end");
    const std::vector<std::string> e2eList = listed(bench, "end_to_end");
    const std::set<std::string> e2e(e2eList.begin(), e2eList.end());
    std::string metricsJson;
    json::ObjWriter mo(metricsJson);
    Result total;
    for (const auto &w : names) {
        opt.workload = w;
        const JsonValue *cfg = workloads.find(w.c_str());
        if (!cfg)
            throw std::runtime_error("workloads.json has no " + w);
        opt.cfg = *cfg;
        if (printPlanOnly) {
            printPlan(opt);
            continue;
        }

        Result res = w == "serve_mix" ? runServeMix(opt) : runCold(opt);
        res.set("ops.attempted", double(res.attempted), "count", 1);
        res.set("ops.failed", double(res.failed), "count", 1);
        zeroUnexercised(res);
        const std::string traceOut =
            opt.root + "/.bench_build/trace-" + w + ".json";
        if (opt.trace && !writeTrace(traceOut, w, res.spans, res))
            throw std::runtime_error("cannot write " + traceOut);
        for (const auto &f : res.failures)
            std::fprintf(stderr, "FAILED %s: %s\n", w.c_str(), f.c_str());

        std::printf("== %s  seed=%llu  seconds=%g  trace=%d  attempted=%llu "
                    "failed=%llu\n",
                    w.c_str(), static_cast<unsigned long long>(opt.seed),
                    opt.seconds, int(opt.trace),
                    static_cast<unsigned long long>(res.attempted),
                    static_cast<unsigned long long>(res.failed));
        for (const auto &[name, m] : res.metrics) {
            std::printf("  %-34s %14.6g %-9s n=%-6llu %s\n", name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples),
                        e2e.count(name) ? "end-to-end" : "per-layer");
        }
        for (const auto &name : wanted) {
            const auto it = res.metrics.find(name);
            if (it == res.metrics.end())
                throw std::logic_error(w + " did not emit " + name);
            const std::string key =
                names.size() > 1 ? w + "." + name : name;
            mo.key(key.c_str());
            json::ObjWriter vo(metricsJson);
            vo.key("value");
            metricsJson += number(it->second.value);
            vo.str("unit", it->second.unit);
            vo.close();
        }
        total.attempted += res.attempted;
        total.failed += res.failed;
        total.correct = total.correct && res.correct;
    }
    if (printPlanOnly)
        return 0;
    mo.close();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                total.correct ? "true" : "false",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.failed),
                metricsJson.c_str());
    return total.correct && total.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tango-perfbench: %s\n", e.what());
        return 2;
    }
}
