/**
 * @file
 * The SIMT warp interpreter: functional execution of kernel programs.
 *
 * Unlike a trace generator, the interpreter computes *real values* — loads
 * read and stores write actual device memory, arithmetic produces real
 * results.  Small kernels can therefore run end-to-end on the simulator and
 * be checked bit-for-bit against the CPU reference implementation, while
 * the same execution drives the timing model through the Step records.
 *
 * Branch divergence is handled with a PDOM-style reconvergence stack keyed
 * by SSY-declared reconvergence points, as in real NVIDIA hardware.
 *
 * Execution dispatches on the decode-time ExecKind of each instruction
 * (sim/program.hh): operand sources and type decisions are resolved once
 * per static instruction, and each lane kind runs as a straight 32-lane
 * loop over pre-resolved register rows.
 */

#ifndef TANGO_SIM_INTERP_HH
#define TANGO_SIM_INTERP_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/digest.hh"
#include "sim/memory.hh"
#include "sim/program.hh"

namespace tango::sim {

/** Threads per warp. */
inline constexpr uint32_t warpSize = 32;

/** A lane mask (bit i = lane i active). */
using Mask = uint32_t;

/** Everything the timing model needs to know about one executed warp
 *  instruction. */
struct Step
{
    Op op = Op::Nop;
    DType type = DType::None;
    Unit unit = Unit::SP;
    uint32_t activeCount = 0;   ///< lanes that actually executed
    bool warpDone = false;      ///< warp retired with this step

    // Memory information (valid when isMem).
    bool isMem = false;
    bool isStore = false;
    Space space = Space::Global;
    uint32_t numSegments = 0;   ///< coalesced 128B global segments
    /**
     * Segment base byte addresses.
     *
     * Contract: only [0, numSegments) are defined, plus [0] for Const
     * loads; every other entry is *intentionally uninitialized* — zeroing
     * 128 bytes per dynamic instruction dominates small steps.  All
     * consumers (SmCore::memoryLatency in particular) must read only the
     * defined prefix; the memoization detector's Step-stream digest folds
     * raw per-lane addresses inside WarpExec instead of this array, so
     * MSan/valgrind runs stay clean under TANGO_STEP_SEGMENTS_ZEROED
     * (below).
     *
     * Building with -DTANGO_SANITIZE=memory (or any build that defines
     * TANGO_STEP_SEGMENTS_ZEROED) zero-initializes the array so that an
     * accidental out-of-contract read is a deterministic zero instead of
     * an uninitialized-value report storm, keeping real contract
     * violations findable.
     */
#ifdef TANGO_STEP_SEGMENTS_ZEROED
    uint32_t segments[warpSize] = {};
#else
    uint32_t segments[warpSize];
#endif
    uint32_t sharedSerialization = 1; ///< shared-memory bank conflict factor
    bool constUniform = true;   ///< constant access was a broadcast

    bool controlTransfer = false; ///< pc changed non-sequentially
    uint32_t numSrcRegs = 0;    ///< register-file read operands
    bool writesReg = false;     ///< register-file write-back
};

/**
 * Coalesce the active lanes' global addresses into 128-byte segments.
 *
 * Segments are emitted in first-appearance order over ascending lane index
 * (the order the per-lane memory model observes them), deduplicated with a
 * last-segment fast path — warps overwhelmingly touch runs of consecutive
 * addresses, so most lanes resolve without scanning the emitted list.
 *
 * @param addrs per-lane byte addresses (entries of inactive lanes ignored).
 * @param exec  active-lane mask.
 * @param out   receives the segment base addresses.
 * @return number of distinct segments written to @p out.
 */
uint32_t coalesceSegments(const uint32_t addrs[warpSize], Mask exec,
                          uint32_t out[warpSize]);

/**
 * Functional-only execution of one kernel launch: runs the same sampled
 * CTA/warp population a full SmCore simulation would run, computes real
 * values (loads/stores touch device memory) but no timing, and returns
 * the combined Step-stream digest.
 *
 * Warps execute round-robin within each CTA with correct barrier
 * semantics (a warp pauses after consuming a Bar until every live warp of
 * its CTA has arrived), so any race-free kernel produces exactly the
 * values and per-warp Step streams of the interleaved timing simulation.
 * Per-warp streams are digested independently and folded in (CTA order,
 * warp order) position — the same combination SmCore::run uses — so the
 * result is directly comparable and independent of interleaving.
 *
 * @param launch   the kernel.
 * @param decoded  @p launch's program, decoded.
 * @param cta_ids  linear CTA indices to execute (launch order).
 * @param warp_ids warp indices within each CTA to execute.
 * @param gmem     device global memory.
 * @return the combined Step-stream digest of the executed population.
 */
uint64_t runFunctionalOnly(const KernelLaunch &launch,
                           const DecodedProgram &decoded,
                           const std::vector<uint64_t> &cta_ids,
                           const std::vector<uint32_t> &warp_ids,
                           DeviceMemory &gmem);

/**
 * Execution state of one warp.
 *
 * The owning core provides global memory, the CTA's shared-memory block and
 * the launch's constant bank.  Registers are stored reg-major (one 32-lane
 * row per register), the layout the lane kinds loop over: a full warp runs
 * one vectorizable loop per instruction, a partial warp computes all lanes
 * and blends by the execution mask, a single active lane runs alone, and
 * Ld/St and the Generic kind touch active lanes only.
 */
class WarpExec
{
  public:
    /**
     * @param launch kernel being executed.
     * @param cta_id this warp's CTA coordinates.
     * @param warp_in_cta warp index within the CTA.
     * @param gmem device global memory.
     * @param smem the CTA's shared-memory block (smemBytes long).
     * @param dec  predecoded form of the launch's program; pass the shared
     *             per-kernel instance to decode once instead of per warp
     *             (nullptr = decode privately).
     */
    WarpExec(const KernelLaunch &launch, Dim3 cta_id, uint32_t warp_in_cta,
             DeviceMemory &gmem, std::vector<uint8_t> &smem,
             const DecodedProgram *dec = nullptr);

    /** @return whether every lane has retired. */
    bool done() const { return done_; }

    /** @return the next instruction to issue (after reconvergence). */
    const Instr &peek();

    /** @return the predecoded form of the next instruction to issue. */
    const DecodedInstr &peekDecoded();

    /** @return current pc (after reconvergence resolution). */
    uint32_t pc();

    /** Execute the next instruction for all active lanes. */
    Step step();

    /** Minimal result of a functional-only run segment: just enough for
     *  the caller to drive barriers and retirement.  Returned in
     *  registers — no Step record is assembled on the fast path. */
    struct StepLite
    {
        Op op = Op::Nop;       ///< the last instruction executed
        bool warpDone = false; ///< warp retired
    };

    /**
     * Value-only variant of step(): identical lane execution, control flow
     * and stream-hash folds, but none of the timing shaping (segment
     * coalescing, shared-memory bank conflicts, const-broadcast scan,
     * Step accounting fields).  Executes instructions *in a batch* — until
     * the warp either consumes a Bar (op == Op::Bar on return) or retires
     * (warpDone) — so the per-call cost amortizes over the whole
     * barrier-to-barrier segment.  This is what launch replay
     * (sim/gpu.cc) runs.
     */
    StepLite runFunctionalSegment();

    /**
     * Start folding this warp's executed-instruction stream into an
     * internal digest (readable via streamHash()).
     *
     * The digest covers everything the *timing model* consumes from the
     * stream — per step the pc and executing lane mask (which pin opcode,
     * unit, type and active count), the raw per-lane addresses of every
     * memory access (which pin coalesced segments, bank serialization and
     * const-broadcast shape), and branch outcomes — but no data values:
     * two executions with equal digests take bit-identical trips through
     * the timing model.  step() and runFunctionalSegment() fold
     * identically, so
     * digests from a full simulation and a functional-only replay are
     * directly comparable.  This is the self-validation primitive of the
     * launch-memoization layer (sim/gpu.cc): a replayed launch must
     * reproduce the digest recorded during full simulation, else the
     * replay is abandoned.
     */
    void enableStreamHash() { hashing_ = true; }

    /** @return the stream digest folded so far (kInit when disabled). */
    uint64_t streamHash() const { return streamHash_; }

    /** @return warp index within the CTA. */
    uint32_t warpInCta() const { return warpInCta_; }

    /** @return lane @p lane's value of register @p r (inspection). */
    uint32_t reg(uint32_t lane, uint8_t r) const
    {
        return regs_[size_t(r) * warpSize + lane];
    }

    /** @return the lane mask of predicate register @p p (inspection). */
    Mask pred(uint8_t p) const { return preds_[p]; }

  private:
    struct StackEntry
    {
        uint32_t pc;
        int32_t rpc;
        Mask mask;
        bool isReconv;
    };

    /** Pop/reconverge until the current path is executable (slow path;
     *  call through resolveFast()). */
    void resolve();

    /** Inline fast path of resolve(): the overwhelmingly common case —
     *  live lanes, no reconvergence point reached — is three compares
     *  and no call. */
    void resolveFast()
    {
        if (done_)
            return;
        if (active_ == 0 ||
            (rpc_ >= 0 && pc_ == static_cast<uint32_t>(rpc_))) {
            resolve();
        }
    }

    /** Shared body of step()/runFunctionalSegment(): one instruction per
     *  call in the Timing instantiation, a barrier-to-barrier batch in the
     *  functional one.  Both dispatch on DecodedInstr::kind into the same
     *  lane loops. */
    template <bool Timing>
    std::conditional_t<Timing, Step, StepLite> stepT();

    /** Fold the active lanes' memory addresses into the stream digest. */
    void foldAddrs(Mask exec, const uint32_t addrs[warpSize]);

    const KernelLaunch &launch_;
    const Program &prog_;
    const DecodedProgram *dec_ = nullptr;
    std::unique_ptr<DecodedProgram> ownDec_;  ///< used when none was shared
    DeviceMemory &gmem_;
    std::vector<uint8_t> &smem_;

    // Register state: reg-major [reg][lane].
    std::vector<uint32_t> regs_;
    std::vector<Mask> preds_;

    // Per-lane thread coordinates.
    uint32_t tidX_[warpSize], tidY_[warpSize], tidZ_[warpSize];
    Dim3 ctaId_;
    uint32_t warpInCta_ = 0;

    // Control flow.
    uint32_t pc_ = 0;
    int32_t rpc_ = -1;
    Mask active_ = 0;
    std::vector<StackEntry> stack_;
    bool done_ = false;

    // Stream digest (enableStreamHash()).
    bool hashing_ = false;
    uint64_t streamHash_ = digest::kInit;
};

} // namespace tango::sim

#endif // TANGO_SIM_INTERP_HH
