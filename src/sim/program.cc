#include "sim/program.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace tango::sim {

uint32_t
Program::maxLiveRegs() const
{
    // Linear-scan liveness approximation: a register is live from its first
    // write to its last read.  Control flow is ignored, which matches the
    // "max live" metric closely for the mostly-structured kernels we build.
    std::vector<int> firstWrite(numRegs, -1);
    std::vector<int> lastRead(numRegs, -1);
    uint8_t srcs[3];
    for (size_t pc = 0; pc < code.size(); pc++) {
        const Instr &ins = code[pc];
        const int n = instrSourceRegs(ins, srcs);
        for (int i = 0; i < n; i++) {
            if (srcs[i] < numRegs)
                lastRead[srcs[i]] = static_cast<int>(pc);
        }
        if (instrWritesReg(ins) && ins.dst < numRegs &&
            firstWrite[ins.dst] < 0) {
            firstWrite[ins.dst] = static_cast<int>(pc);
        }
    }
    // Sweep program points, counting intervals covering each point.
    uint32_t live = 0, maxLive = 0;
    std::vector<int> delta(code.size() + 1, 0);
    for (uint32_t r = 0; r < numRegs; r++) {
        if (firstWrite[r] < 0)
            continue;
        int end = std::max(lastRead[r], firstWrite[r]);
        delta[firstWrite[r]] += 1;
        delta[end + 1] -= 1;
    }
    for (size_t pc = 0; pc <= code.size(); pc++) {
        live += delta[pc];
        maxLive = std::max(maxLive, live);
    }
    return maxLive;
}

namespace {

/** Resolve the execution kind and its operand arity (the number of
 *  leading src[] entries it reads). */
std::pair<ExecKind, int>
execKind(const Instr &ins)
{
    using K = ExecKind;
    const bool f32 = ins.type == DType::F32;
    // Narrow values are stored canonicalized (sign- or zero-extended), so
    // the 32-bit kinds of the same signedness compute them exactly.
    const bool sgn = ins.type == DType::S32 || ins.type == DType::S16;
    // The f32 kind, or Generic where the op is not valid on f32 (Generic
    // reports that when it executes).
    const auto alu = [&](K i, K f, int n) -> std::pair<K, int> {
        return {f32 ? f : i, n};
    };
    switch (ins.op) {
      case Op::Nop: case Op::Retp: case Op::Callp: case Op::Bar:
        return {K::Nop, 0};
      case Op::Ssy: return {K::Ssy, 0};
      case Op::Exit: return {K::Exit, 0};
      case Op::Bra: return {K::Bra, 0};
      case Op::Ld: return {K::Ld, 1};
      case Op::St: return {K::St, 2};
      case Op::Mov:
        // Mov copies raw bits whatever its type (no narrowing).
        return ins.sreg != SReg::None ? std::pair{K::MovSreg, 0}
                                      : std::pair{K::Mov, 1};
      case Op::Add: return alu(K::AddI, K::AddF, 2);
      case Op::Sub: return alu(K::SubI, K::SubF, 2);
      case Op::Mul: return alu(K::MulI, K::MulF, 2);
      case Op::Mad: return alu(K::MadI, K::MadF, 3);
      case Op::Mad24: return alu(K::Mad24, K::Generic, 3);
      case Op::Min: return alu(sgn ? K::MinS : K::MinU, K::MinF, 2);
      case Op::Max: return alu(sgn ? K::MaxS : K::MaxU, K::MaxF, 2);
      case Op::Shl: return alu(K::Shl, K::Generic, 2);
      case Op::Shr: return alu(sgn ? K::ShrS : K::ShrU, K::Generic, 2);
      case Op::And: return alu(K::And, K::Generic, 2);
      case Op::Or: return alu(K::Or, K::Generic, 2);
      case Op::Xor: return alu(K::Xor, K::Generic, 2);
      case Op::Not: return alu(K::Not, K::Generic, 1);
      case Op::Set: {
        K k = K::Generic;
        switch (ins.cmp) {
          case Cmp::Eq: k = f32 ? K::SetEqF : K::SetEqI; break;
          case Cmp::Ne: k = f32 ? K::SetNeF : K::SetNeI; break;
          case Cmp::Lt: case Cmp::Gt:
            k = f32 ? K::SetLtF : sgn ? K::SetLtS : K::SetLtU;
            break;
          case Cmp::Le: case Cmp::Ge:
            k = f32 ? K::SetLeF : sgn ? K::SetLeS : K::SetLeU;
            break;
        }
        // The predicate kinds list the register kinds' comparisons in
        // the same order.
        static_assert(int(K::SetLeFP) - int(K::SetEqIP) ==
                      int(K::SetLeF) - int(K::SetEqI));
        if (ins.dstIsPred)
            k = K(int(k) - int(K::SetEqI) + int(K::SetEqIP));
        return {k, 2};
      }
      case Op::Abs: case Op::Cvt: case Op::Rcp: case Op::Rsqrt:
      case Op::Sqrt: case Op::Ex2: case Op::Lg2:
        return {K::Generic, 1};
      default:   // Div, Selp
        return {K::Generic, 2};
    }
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog)
{
    ops_.resize(prog.code.size());
    for (size_t pc = 0; pc < prog.code.size(); pc++) {
        const Instr &ins = prog.code[pc];
        DecodedInstr &d = ops_[pc];
        const auto [kind, arity] = execKind(ins);
        d.kind = kind;
        if ((ins.type == DType::U16 || ins.type == DType::S16) &&
            kind >= ExecKind::AddI && kind <= ExecKind::Not)
            d.narrow = ins.type;
        d.unit = opUnitTyped(ins.op, ins.type);
        d.dst = ins.dst;
        uint8_t src[3] = {ins.src[0], ins.src[1], ins.src[2]};
        // a > b is b < a and a >= b is b <= a, for f32 (NaN included) as
        // for integers.
        if (ins.op == Op::Set && (ins.cmp == Cmp::Gt || ins.cmp == Cmp::Ge))
            std::swap(src[0], src[1]);
        d.immMask = 0;
        for (int i = 0; i < 3; i++) {
            d.src[i] = i < arity ? src[i] : Instr::immReg;
            if (d.src[i] == Instr::immReg)
                d.immMask |= uint8_t(1u << i);
        }
        d.imm = ins.imm;
        d.numSrcRegs =
            static_cast<uint8_t>(instrSourceRegs(ins, d.srcRegs));
        d.writesReg = instrWritesReg(ins);
        d.isLdSt = ins.op == Op::Ld || ins.op == Op::St;
        d.latency = opLatency(ins.op);
    }
}

uint16_t
DebugInfo::intern(const std::string &label)
{
    for (size_t i = 0; i < labels.size(); i++) {
        if (labels[i] == label)
            return static_cast<uint16_t>(i);
    }
    TANGO_ASSERT(labels.size() < 0xffff, "label table overflow");
    labels.push_back(label);
    return static_cast<uint16_t>(labels.size() - 1);
}

std::string
Program::disassemble() const
{
    std::string out;
    char buf[32];
    for (size_t i = 0; i < code.size(); i++) {
        std::snprintf(buf, sizeof(buf), "%4zu: ", i);
        out += buf;
        out += disasm(code[i]);
        out += "\n";
    }
    return out;
}

void
Program::validate() const
{
    uint8_t srcs[3];
    for (size_t pc = 0; pc < code.size(); pc++) {
        const Instr &ins = code[pc];
        if (instrWritesReg(ins) && ins.dst >= numRegs)
            panic("%s: pc %zu writes r%u >= numRegs %u", name.c_str(), pc,
                  ins.dst, numRegs);
        const int n = instrSourceRegs(ins, srcs);
        for (int i = 0; i < n; i++) {
            if (srcs[i] >= numRegs)
                panic("%s: pc %zu reads r%u >= numRegs %u", name.c_str(),
                      pc, srcs[i], numRegs);
        }
        if (ins.pred != noPred && ins.pred >= numPreds)
            panic("%s: pc %zu guarded by p%u >= numPreds %u", name.c_str(),
                  pc, ins.pred, numPreds);
        if ((ins.op == Op::Bra || ins.op == Op::Ssy) &&
            (ins.target < 0 ||
             static_cast<size_t>(ins.target) > code.size())) {
            panic("%s: pc %zu branch target %d out of range", name.c_str(),
                  pc, ins.target);
        }
        if (ins.op == Op::Set && ins.dstIsPred && ins.dst >= numPreds)
            panic("%s: pc %zu sets p%u >= numPreds %u", name.c_str(), pc,
                  ins.dst, numPreds);
    }
    if (code.empty() || code.back().op != Op::Exit)
        panic("%s: program must end with exit", name.c_str());
    if (!debug.pcLabel.empty() && debug.pcLabel.size() != code.size())
        panic("%s: debug pcLabel covers %zu of %zu instructions",
              name.c_str(), debug.pcLabel.size(), code.size());
    for (uint16_t id : debug.pcLabel) {
        if (id >= debug.labels.size())
            panic("%s: debug label id %u out of range", name.c_str(), id);
    }
}

} // namespace tango::sim
