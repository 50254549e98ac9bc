/**
 * @file
 * Kernel programs and launch descriptors.
 *
 * A Program is a straight vector of Instr plus resource metadata (register
 * count, shared/constant memory bytes).  A KernelLaunch pairs a program with
 * a CUDA-style grid/block geometry — the same (gridDim, blockDim) pairs the
 * paper lists in Table III.
 */

#ifndef TANGO_SIM_PROGRAM_HH
#define TANGO_SIM_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/isa.hh"

namespace tango::sim {

/** CUDA-style 3-component dimension. */
struct Dim3
{
    uint32_t x = 1, y = 1, z = 1;

    uint64_t count() const { return uint64_t(x) * y * z; }
    bool operator==(const Dim3 &o) const = default;
};

/**
 * DSL source mapping: which kernel-DSL statement emitted each instruction.
 *
 * The kernel builder's scoped mark("label") API records the active label
 * for every instruction it appends, so per-PC profile counters can be
 * rolled back up to the statement that emitted them (conv.mac,
 * gru.gate_sigmoid, ...).  Label ids are interned; id 0 is always the
 * empty (unlabeled) string.  pcLabel is in lock-step with Program::code;
 * an empty table means "no debug info" and every pc maps to label 0.
 */
struct DebugInfo
{
    std::vector<std::string> labels{std::string()}; ///< id -> label text
    std::vector<uint16_t> pcLabel;                  ///< pc -> label id

    /** Intern @p label, returning its id (0 for the empty string). */
    uint16_t intern(const std::string &label);

    /** @return label id of @p pc (0 when out of range / unlabeled). */
    uint16_t labelId(uint32_t pc) const
    {
        return pc < pcLabel.size() ? pcLabel[pc] : 0;
    }

    /** @return label text of @p pc ("" when unlabeled). */
    const std::string &labelAt(uint32_t pc) const
    {
        return labels[labelId(pc)];
    }
};

/** A compiled kernel program. */
struct Program
{
    std::string name;            ///< kernel name, e.g. "alexnet.conv1_1"
    std::vector<Instr> code;     ///< the instruction stream
    uint32_t numRegs = 0;        ///< architectural registers per thread
    uint32_t numPreds = 0;       ///< predicate registers per thread
    uint32_t smemBytes = 0;      ///< static shared memory per CTA
    uint32_t cmemBytes = 0;      ///< constant-bank bytes referenced
    DebugInfo debug;             ///< pc -> DSL statement label mapping

    /** @return maximum number of simultaneously live registers
     *  (linear-scan def/use approximation; always <= numRegs). */
    uint32_t maxLiveRegs() const;

    /** @return full disassembly, one instruction per line. */
    std::string disassemble() const;

    /** Sanity-check operands, targets and register bounds; panics on error. */
    void validate() const;
};

/**
 * How the warp interpreter executes one static instruction, resolved once
 * at decode from the opcode, the type class (32-bit integer, signed, f32),
 * the compare op and whether a Set writes a predicate.
 *
 * The lane kinds (Mov through SetLeFP) are side-effect-free elementwise
 * ops on 32-bit values: WarpExec runs each as one straight 32-lane loop
 * over the pre-resolved source rows (DecodedInstr::src / immMask), so no
 * per-lane operand or type decision remains.  Set kinds name the
 * comparison after decode-time canonicalization (Gt/Ge become Lt/Le with
 * swapped sources); the trailing P writes a predicate bit, no suffix a
 * 0/1 register.  Arithmetic on u16/s16 runs the 32-bit kind of its
 * signedness and canonicalizes the result (DecodedInstr::narrow).
 * Everything rare — Div, Cvt, Abs, Selp and the SFU ops — is Generic, one
 * per-lane evaluator.
 */
enum class ExecKind : uint8_t {
    Nop,        ///< Nop, Retp, Callp, Bar: no lane work
    Ssy, Exit, Bra,
    MovSreg,    ///< mov from a special register
    Ld, St,
    Generic,    ///< rare ops: per-lane evaluator over the active lanes
    // Elementwise lane kinds.  I = any integer type, U/S = the
    // unsigned/signed variant where they differ, F = f32.  AddI through
    // Not are the arithmetic kinds (the ones a narrow type canonicalizes).
    Mov,
    AddI, AddF, SubI, SubF, MulI, MulF, MadI, MadF, Mad24,
    MinU, MinS, MinF, MaxU, MaxS, MaxF,
    Shl, ShrU, ShrS, And, Or, Xor, Not,
    SetEqI, SetEqF, SetNeI, SetNeF,
    SetLtU, SetLtS, SetLtF, SetLeU, SetLeS, SetLeF,
    SetEqIP, SetEqFP, SetNeIP, SetNeFP,
    SetLtUP, SetLtSP, SetLtFP, SetLeUP, SetLeSP, SetLeFP,
};

/**
 * One predecoded instruction: every per-instruction property the hot loops
 * of the interpreter and SM core would otherwise recompute per *dynamic*
 * instruction (execution kind and operand sources, unit lookups,
 * scoreboard source-register extraction, result latency).  All fields are
 * pure functions of the Instr, so decoding once per kernel cannot change
 * any simulated statistic.
 */
struct DecodedInstr
{
    ExecKind kind = ExecKind::Nop; ///< how the interpreter executes it
    Unit unit = Unit::SP;       ///< opUnitTyped(op, type)
    uint8_t dst = 0;            ///< Instr::dst
    /** Operand sources in the order the execution kind consumes them
     *  (Set Gt/Ge: swapped).  Bit i of immMask marks source i as the
     *  immediate `imm` instead of register row src[i]; sources the kind
     *  does not read are marked immediate too. */
    uint8_t src[3] = {};
    uint8_t immMask = 0;
    /** U16/S16 when an arithmetic lane kind's results are canonicalized
     *  to that type; None otherwise. */
    DType narrow = DType::None;
    uint32_t imm = 0;           ///< Instr::imm
    /** Scoreboard source registers (instrSourceRegs; immediates and
     *  predicate-file indices excluded).  Also equals Step::numSrcRegs. */
    uint8_t srcRegs[3] = {};
    uint8_t numSrcRegs = 0;
    bool writesReg = false;     ///< instrWritesReg
    bool isLdSt = false;        ///< Op::Ld or Op::St
    uint32_t latency = 1;       ///< opLatency(op)
};

/** A kernel program decoded once into a flat DecodedInstr array, indexed by
 *  pc in lock-step with Program::code. */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    const DecodedInstr &operator[](uint32_t pc) const { return ops_[pc]; }
    size_t size() const { return ops_.size(); }

  private:
    std::vector<DecodedInstr> ops_;
};

/** One kernel launch: program + geometry + parameter block. */
struct KernelLaunch
{
    std::shared_ptr<const Program> program;
    Dim3 grid;
    Dim3 block;
    /** Kernel parameters (32-bit words; pointers are global addresses). */
    std::vector<uint32_t> params;
    /** Constant-bank contents for this launch (dims, scales, ...). */
    std::vector<uint8_t> constData;

    uint64_t totalThreads() const { return grid.count() * block.count(); }
    uint32_t threadsPerCta() const
    {
        return static_cast<uint32_t>(block.count());
    }
    uint32_t warpsPerCta() const { return (threadsPerCta() + 31) / 32; }
};

} // namespace tango::sim

#endif // TANGO_SIM_PROGRAM_HH
