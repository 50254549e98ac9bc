/**
 * @file
 * The traced run's spans inside rt::runJob, placed at link time.
 *
 * CMakeLists.txt links tango-perfbench with `-Wl,--wrap=<symbol>` for the
 * public functions runJob calls across translation units: the model
 * builders, Gpu::coldStart, rt::lower / rt::lowerRnn and Gpu::launch.  The
 * linker then sends every call the library makes to one of them to the
 * __wrap_ function below, which calls the original (__real_) and, when the
 * calling thread is tracing, records a span around it.  No file under src/
 * changes, and the traced job is the program's own rt::runJob, so the
 * runtime.job span's self time is runJob's own work (validation, NetRun
 * assembly, the loop-channel extrapolation, totals).
 *
 * The symbols are Itanium-mangled names; keep them in step with
 * PROBED_SYMBOLS in CMakeLists.txt.  A renamed or re-typed function leaves
 * its __real_ reference undefined, so the build fails rather than losing
 * the span.
 */

#include "bench.hh"
#include "nn/models/models.hh"
#include "runtime/lowering.hh"

#define SYM_BUILD_ANY                                                       \
    "_ZN5tango2nn6models8buildAnyERKNSt7__cxx1112basic_stringIcSt11char_"  \
    "traitsIcESaIcEEE"
#define SYM_BUILD_GRU "_ZN5tango2nn6models8buildGruEj"
#define SYM_BUILD_LSTM "_ZN5tango2nn6models9buildLstmEj"
#define SYM_COLD_START "_ZN5tango3sim3Gpu9coldStartEv"
#define SYM_LOWER "_ZN5tango2rt5lowerERKNS_2nn7NetworkERNS_3sim12DeviceMemoryEbj"
#define SYM_LOWER_RNN                                                       \
    "_ZN5tango2rt8lowerRnnERKNS_2nn8RnnModelERNS_3sim12DeviceMemoryEb"
#define SYM_LAUNCH                                                          \
    "_ZN5tango3sim3Gpu6launchERKNS0_12KernelLaunchERKNS0_9SimPolicyE"

namespace perfbench::probe {

using namespace tango;

// The originals.  A member function is declared as a free function taking
// `this` first, which is how the Itanium C++ ABI passes it.
nn::AnyModel realBuildAny(const std::string &) asm("__real_" SYM_BUILD_ANY);
nn::RnnModel realBuildGru(uint32_t) asm("__real_" SYM_BUILD_GRU);
nn::RnnModel realBuildLstm(uint32_t) asm("__real_" SYM_BUILD_LSTM);
void realColdStart(sim::Gpu *) asm("__real_" SYM_COLD_START);
rt::LoweredNet realLower(const nn::Network &, sim::DeviceMemory &, bool,
                         uint32_t) asm("__real_" SYM_LOWER);
rt::LoweredRnn realLowerRnn(const nn::RnnModel &, sim::DeviceMemory &,
                            bool) asm("__real_" SYM_LOWER_RNN);
sim::KernelStats realLaunch(sim::Gpu *, const sim::KernelLaunch &,
                            const sim::SimPolicy &) asm("__real_" SYM_LAUNCH);

namespace {

/** What the calling thread is tracing; null when it is not. */
struct Probe
{
    Spans *spans = nullptr;
    uint64_t id = 0;
    std::vector<std::string> figTypes;   ///< of the lowered kernels
    size_t next = 0;                     ///< next launch's kernel index
};
thread_local Probe *tl = nullptr;

/** Record a span named @p name around @p fn() when tracing. */
template <typename Fn>
auto
spanned(const char *name, Fn &&fn)
{
    if (!tl)
        return fn();
    Spans &spans = *tl->spans;
    const int s = spans.begin(name, tl->id);
    auto out = fn();
    spans.end(s);
    return out;
}

template <typename Lowered>
Lowered
remember(Lowered low)
{
    if (tl) {
        tl->figTypes.clear();
        for (const auto &k : low.kernels)
            tl->figTypes.push_back(k.figType);
        tl->next = 0;
    }
    return low;
}

} // namespace

nn::AnyModel
wrapBuildAny(const std::string &name) asm("__wrap_" SYM_BUILD_ANY);
nn::AnyModel
wrapBuildAny(const std::string &name)
{
    return spanned("nn.build", [&] { return realBuildAny(name); });
}

nn::RnnModel wrapBuildGru(uint32_t seqLen) asm("__wrap_" SYM_BUILD_GRU);
nn::RnnModel
wrapBuildGru(uint32_t seqLen)
{
    return spanned("nn.build", [&] { return realBuildGru(seqLen); });
}

nn::RnnModel wrapBuildLstm(uint32_t seqLen) asm("__wrap_" SYM_BUILD_LSTM);
nn::RnnModel
wrapBuildLstm(uint32_t seqLen)
{
    return spanned("nn.build", [&] { return realBuildLstm(seqLen); });
}

void wrapColdStart(sim::Gpu *gpu) asm("__wrap_" SYM_COLD_START);
void
wrapColdStart(sim::Gpu *gpu)
{
    spanned("runtime.lower", [&] {
        realColdStart(gpu);
        return 0;
    });
}

rt::LoweredNet wrapLower(const nn::Network &net, sim::DeviceMemory &mem,
                         bool upload, uint32_t maxLoop) asm("__wrap_" SYM_LOWER);
rt::LoweredNet
wrapLower(const nn::Network &net, sim::DeviceMemory &mem, bool upload,
          uint32_t maxLoop)
{
    return remember(spanned(
        "runtime.lower", [&] { return realLower(net, mem, upload, maxLoop); }));
}

rt::LoweredRnn wrapLowerRnn(const nn::RnnModel &model, sim::DeviceMemory &mem,
                            bool upload) asm("__wrap_" SYM_LOWER_RNN);
rt::LoweredRnn
wrapLowerRnn(const nn::RnnModel &model, sim::DeviceMemory &mem, bool upload)
{
    return remember(spanned(
        "runtime.lower", [&] { return realLowerRnn(model, mem, upload); }));
}

sim::KernelStats wrapLaunch(sim::Gpu *gpu, const sim::KernelLaunch &launch,
                            const sim::SimPolicy &policy) asm("__wrap_" SYM_LAUNCH);
sim::KernelStats
wrapLaunch(sim::Gpu *gpu, const sim::KernelLaunch &launch,
           const sim::SimPolicy &policy)
{
    if (!tl)
        return realLaunch(gpu, launch, policy);
    Spans &spans = *tl->spans;
    const int s = spans.begin("sim.launch", tl->id);
    sim::KernelStats ks = realLaunch(gpu, launch, policy);
    spans.end(s);
    // Raw statistics, before runJob applies any loop-channel work scale.
    Span &sp = spans.at(s);
    sp.figType = tl->next < tl->figTypes.size() ? tl->figTypes[tl->next]
                                                : std::string();
    tl->next++;
    sp.replayed = ks.replayed;
    sp.warps = double(ks.residentCtas) * ks.sampledWarpsPerCta;
    sp.smCycles = double(ks.smCycles);
    sp.warpInsts = ks.stats.get("issued") / ks.scale;
    return ks;
}

} // namespace perfbench::probe

namespace perfbench {

TracedJob
tracedRunJob(tango::sim::Gpu &gpu, const tango::rt::JobSpec &spec,
             Spans &spans, uint64_t id)
{
    probe::Probe p;
    p.spans = &spans;
    p.id = id;
    struct Arm
    {
        explicit Arm(probe::Probe *p) { probe::tl = p; }
        ~Arm() { probe::tl = nullptr; }
    } arm(&p);
    const int root = spans.begin("runtime.job", id);
    TracedJob out;
    out.run = tango::rt::runJob(gpu, spec);
    spans.end(root);
    out.wallS = spans.at(root).t1 - spans.at(root).t0;
    return out;
}

} // namespace perfbench
