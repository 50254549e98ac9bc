/**
 * @file
 * Exhaustive ALU semantics: every arithmetic/logic opcode of the virtual
 * ISA executed on the interpreter against a C++ reference, over a sweep
 * of random operands and all integer types — on single lanes, and on
 * whole warps under every lane-mask shape, register/immediate operand
 * form and both execution entry points (step() and
 * runFunctionalSegment()).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "kernels/builder.hh"
#include "sim/interp.hh"
#include "sim/memory.hh"

namespace tango::sim {
namespace {

/** Execute `dst = op(a, b, c)` for one warp and return lane 0's result. */
uint32_t
runOp(Op op, DType t, uint32_t a, uint32_t b, uint32_t c,
      DType srcType = DType::None)
{
    DeviceMemory mem(1 << 16);
    const uint32_t out = mem.allocate(16);

    kern::Builder bld("alu");
    kern::Reg ra = bld.immU(a);
    kern::Reg rb = bld.immU(b);
    kern::Reg rc = bld.immU(c);
    kern::Reg rd = bld.reg();
    switch (op) {
      case Op::Mad:
        bld.mad(t, rd, ra, rb, rc);
        break;
      case Op::Cvt:
        rd = bld.cvt(t, srcType, ra);
        break;
      case Op::Abs:
      case Op::Not:
      case Op::Rcp:
      case Op::Rsqrt:
      case Op::Sqrt:
      case Op::Ex2:
      case Op::Lg2:
        bld.emit2(op, t, rd, ra);
        break;
      default:
        bld.emit3(op, t, rd, ra, rb);
        break;
    }
    kern::Reg addr = bld.immU(out);
    bld.st(DType::U32, Space::Global, addr, rd);
    KernelLaunch l;
    l.program = bld.finish();
    l.grid = l.block = {1, 1, 1};
    std::vector<uint8_t> smem(1);
    WarpExec w(l, {0, 0, 0}, 0, mem, smem);
    while (!w.done())
        w.step();
    return mem.read<uint32_t>(out);
}

float
f(uint32_t u)
{
    return std::bit_cast<float>(u);
}

uint32_t
u(float x)
{
    return std::bit_cast<uint32_t>(x);
}

class AluRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AluRandom, IntegerOpsMatchCpp)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 50; iter++) {
        const uint32_t a = rng.next();
        const uint32_t b = rng.next();
        EXPECT_EQ(runOp(Op::Add, DType::U32, a, b, 0), a + b);
        EXPECT_EQ(runOp(Op::Sub, DType::U32, a, b, 0), a - b);
        EXPECT_EQ(runOp(Op::Mul, DType::U32, a, b, 0), a * b);
        EXPECT_EQ(runOp(Op::And, DType::U32, a, b, 0), a & b);
        EXPECT_EQ(runOp(Op::Or, DType::U32, a, b, 0), a | b);
        EXPECT_EQ(runOp(Op::Xor, DType::U32, a, b, 0), a ^ b);
        EXPECT_EQ(runOp(Op::Not, DType::U32, a, 0, 0), ~a);
        EXPECT_EQ(runOp(Op::Shl, DType::U32, a, b, 0), a << (b & 31));
        EXPECT_EQ(runOp(Op::Shr, DType::U32, a, b, 0), a >> (b & 31));
        EXPECT_EQ(runOp(Op::Shr, DType::S32, a, b, 0),
                  uint32_t(int32_t(a) >> (b & 31)));
        EXPECT_EQ(runOp(Op::Min, DType::U32, a, b, 0), std::min(a, b));
        EXPECT_EQ(runOp(Op::Max, DType::U32, a, b, 0), std::max(a, b));
        EXPECT_EQ(runOp(Op::Min, DType::S32, a, b, 0),
                  uint32_t(std::min(int32_t(a), int32_t(b))));
        EXPECT_EQ(runOp(Op::Max, DType::S32, a, b, 0),
                  uint32_t(std::max(int32_t(a), int32_t(b))));
        EXPECT_EQ(runOp(Op::Abs, DType::S32, a, 0, 0),
                  uint32_t(std::abs(int32_t(a))));
        if (b != 0) {
            EXPECT_EQ(runOp(Op::Div, DType::U32, a, b, 0), a / b);
        }
    }
}

TEST_P(AluRandom, FloatOpsMatchCpp)
{
    Rng rng(GetParam() + 7);
    for (int iter = 0; iter < 50; iter++) {
        const float x = rng.gaussian() * 10.0f;
        const float y = rng.gaussian() * 10.0f + 0.1f;
        const uint32_t a = u(x), b = u(y);
        EXPECT_EQ(f(runOp(Op::Add, DType::F32, a, b, 0)), x + y);
        EXPECT_EQ(f(runOp(Op::Sub, DType::F32, a, b, 0)), x - y);
        EXPECT_EQ(f(runOp(Op::Mul, DType::F32, a, b, 0)), x * y);
        EXPECT_EQ(f(runOp(Op::Div, DType::F32, a, b, 0)), x / y);
        EXPECT_EQ(f(runOp(Op::Min, DType::F32, a, b, 0)),
                  std::fmin(x, y));
        EXPECT_EQ(f(runOp(Op::Max, DType::F32, a, b, 0)),
                  std::fmax(x, y));
        EXPECT_EQ(f(runOp(Op::Abs, DType::F32, a, 0, 0)), std::fabs(x));
        const float ax = std::fabs(x) + 0.01f;
        EXPECT_NEAR(f(runOp(Op::Sqrt, DType::F32, u(ax), 0, 0)),
                    std::sqrt(ax), 1e-5f * std::sqrt(ax) + 1e-7f);
        EXPECT_NEAR(f(runOp(Op::Rcp, DType::F32, u(ax), 0, 0)), 1.0f / ax,
                    1e-5f / ax);
        EXPECT_NEAR(f(runOp(Op::Rsqrt, DType::F32, u(ax), 0, 0)),
                    1.0f / std::sqrt(ax), 2e-5f);
    }
}

TEST_P(AluRandom, NarrowTypesCanonicalize)
{
    Rng rng(GetParam() + 13);
    for (int iter = 0; iter < 50; iter++) {
        const uint32_t a = rng.next();
        const uint32_t b = rng.next();
        EXPECT_EQ(runOp(Op::Add, DType::U16, a, b, 0), (a + b) & 0xffff);
        const uint32_t s = runOp(Op::Add, DType::S16, a, b, 0);
        EXPECT_EQ(s, uint32_t(int32_t(int16_t((a + b) & 0xffff))));
        EXPECT_EQ(runOp(Op::And, DType::U16, a, b, 0), (a & b) & 0xffff);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(AluEdge, Mad24MasksTo24Bits)
{
    // Raw-instruction program: d = mad24(a, b, c).
    DeviceMemory mem(1 << 16);
    const uint32_t out = mem.allocate(16);
    Program p;
    p.name = "mad24";
    p.numRegs = 5;
    auto movU = [&](uint8_t dst, uint32_t v) {
        Instr i;
        i.op = Op::Mov;
        i.type = DType::U32;
        i.dst = dst;
        i.src[0] = Instr::immReg;
        i.imm = v;
        p.code.push_back(i);
    };
    const uint32_t a = 0x12345678, b = 0x0abcdef0, c = 99;
    movU(0, a);
    movU(1, b);
    movU(2, c);
    movU(3, out);
    Instr mad;
    mad.op = Op::Mad24;
    mad.type = DType::U32;
    mad.dst = 4;
    mad.src[0] = 0;
    mad.src[1] = 1;
    mad.src[2] = 2;
    p.code.push_back(mad);
    Instr st;
    st.op = Op::St;
    st.type = DType::U32;
    st.space = Space::Global;
    st.src[0] = 3;
    st.src[1] = 4;
    p.code.push_back(st);
    Instr ex;
    ex.op = Op::Exit;
    p.code.push_back(ex);
    p.validate();

    KernelLaunch l;
    l.program = std::make_shared<Program>(p);
    l.grid = l.block = {1, 1, 1};
    std::vector<uint8_t> smem(1);
    WarpExec w(l, {0, 0, 0}, 0, mem, smem);
    while (!w.done())
        w.step();
    EXPECT_EQ(mem.read<uint32_t>(out),
              (a & 0xffffffu) * (b & 0xffffffu) + c);
}

TEST(AluEdge, CvtConversions)
{
    // f32 -> s32 truncates toward zero; s32 -> f32 exact for small ints.
    EXPECT_EQ(runOp(Op::Cvt, DType::S32, u(3.9f), 0, 0, DType::F32), 3u);
    EXPECT_EQ(runOp(Op::Cvt, DType::S32, u(-3.9f), 0, 0, DType::F32),
              uint32_t(-3));
    EXPECT_EQ(f(runOp(Op::Cvt, DType::F32, uint32_t(-7), 0, 0,
                      DType::S32)),
              -7.0f);
    EXPECT_EQ(f(runOp(Op::Cvt, DType::F32, 42u, 0, 0, DType::U32)),
              42.0f);
    // f32 -> u32 clamps negatives to zero.
    EXPECT_EQ(runOp(Op::Cvt, DType::U32, u(-5.0f), 0, 0, DType::F32), 0u);
}

TEST(AluEdge, DivByZeroIsZero)
{
    EXPECT_EQ(runOp(Op::Div, DType::U32, 42, 0, 0), 0u);
    EXPECT_EQ(runOp(Op::Div, DType::S32, 42, 0, 0), 0u);
}

TEST(AluEdge, ShiftsMaskAmount)
{
    EXPECT_EQ(runOp(Op::Shl, DType::U32, 1, 33, 0), 2u);   // 33 & 31 = 1
    EXPECT_EQ(runOp(Op::Shr, DType::U32, 4, 33, 0), 2u);
}

TEST(AluEdge, FloatSpecials)
{
    // exp2/log2 round trip.
    const float x = 3.0f;
    const float e = f(runOp(Op::Ex2, DType::F32, u(x), 0, 0));
    EXPECT_NEAR(e, 8.0f, 1e-4f);
    const float l = f(runOp(Op::Lg2, DType::F32, u(8.0f), 0, 0));
    EXPECT_NEAR(l, 3.0f, 1e-5f);
    // rcp(inf) = 0.
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(f(runOp(Op::Rcp, DType::F32, u(inf), 0, 0)), 0.0f);
}

TEST(AluEdge, FloatMinMaxTieAndNaNRule)
{
    // A tie returns the second operand, so the sign of a zero result is
    // fixed (ReLU is max(x, +0): -0 becomes +0); a NaN loses to a number.
    const uint32_t pz = u(0.0f), nz = u(-0.0f);
    const uint32_t nan = u(std::numeric_limits<float>::quiet_NaN());
    EXPECT_EQ(runOp(Op::Max, DType::F32, nz, pz, 0), pz);
    EXPECT_EQ(runOp(Op::Max, DType::F32, pz, nz, 0), nz);
    EXPECT_EQ(runOp(Op::Min, DType::F32, nz, pz, 0), pz);
    EXPECT_EQ(runOp(Op::Min, DType::F32, pz, nz, 0), nz);
    for (Op op : {Op::Min, Op::Max}) {
        EXPECT_EQ(runOp(op, DType::F32, nan, u(1.0f), 0), u(1.0f));
        EXPECT_EQ(runOp(op, DType::F32, u(1.0f), nan, 0), u(1.0f));
    }
}

TEST(AluEdge, MadIsFused)
{
    // mad.f32 must behave like fmaf (single rounding).
    DeviceMemory mem(1 << 16);
    const uint32_t out = mem.allocate(16);
    kern::Builder bld("fma");
    kern::Reg a = bld.immF(1.0f + 0x1p-23f);
    kern::Reg b = bld.immF(1.0f - 0x1p-23f);
    kern::Reg c = bld.immF(-1.0f);
    kern::Reg d = bld.reg();
    bld.mad(DType::F32, d, a, b, c);
    kern::Reg addr = bld.immU(out);
    bld.st(DType::F32, Space::Global, addr, d);
    KernelLaunch l;
    l.program = bld.finish();
    l.grid = l.block = {1, 1, 1};
    std::vector<uint8_t> smem(1);
    WarpExec w(l, {0, 0, 0}, 0, mem, smem);
    while (!w.done())
        w.step();
    const float got = mem.read<float>(out);
    const float want =
        std::fmaf(1.0f + 0x1p-23f, 1.0f - 0x1p-23f, -1.0f);
    EXPECT_EQ(got, want);
    EXPECT_NE(got, 0.0f);   // non-fused would round to exactly 0
}

// ----------------------------------------------------- whole-warp sweep

/** Canonical storage form of @p v for type @p t (the ISA's narrowing). */
uint32_t
canon(DType t, uint32_t v)
{
    if (t == DType::U16)
        return v & 0xffffu;
    if (t == DType::S16)
        return uint32_t(int32_t(int16_t(v & 0xffffu)));
    return v;
}

bool
signedType(DType t)
{
    return t == DType::S32 || t == DType::S16;
}

/** C++ reference for one lane of `set`: raw 32-bit registers compared
 *  as f32, signed or unsigned. */
bool
refCmp(Cmp c, DType t, uint32_t a, uint32_t b)
{
    const auto cmp = [c](auto x, auto y) {
        switch (c) {
          case Cmp::Eq: return x == y;
          case Cmp::Ne: return x != y;
          case Cmp::Lt: return x < y;
          case Cmp::Le: return x <= y;
          case Cmp::Gt: return x > y;
          case Cmp::Ge: return x >= y;
        }
        return false;
    };
    if (t == DType::F32)
        return cmp(f(a), f(b));
    if (signedType(t))
        return cmp(int32_t(a), int32_t(b));
    return cmp(a, b);
}

/** C++ reference for one lane of @p ins (a register-writing op; for selp
 *  @p c is the lane's predicate bit). */
uint32_t
refOp(const Instr &ins, uint32_t a, uint32_t b, uint32_t c)
{
    const DType t = ins.type;
    switch (ins.op) {
      case Op::Mov: return a;
      case Op::Selp: return c ? a : b;
      case Op::Set: return refCmp(ins.cmp, t, a, b) ? 1u : 0u;
      default: break;
    }
    if (t == DType::F32) {
        const float x = f(a), y = f(b), z = f(c);
        switch (ins.op) {
          case Op::Add: return u(x + y);
          case Op::Sub: return u(x - y);
          case Op::Mul: return u(x * y);
          case Op::Div: return u(x / y);
          case Op::Mad: return u(std::fmaf(x, y, z));
          // NaN loses to a number; a tie (+0/-0 too) returns y.
          case Op::Min: return u(x < y || std::isnan(y) ? x : y);
          case Op::Max: return u(x > y || std::isnan(y) ? x : y);
          case Op::Abs: return u(std::fabs(x));
          case Op::Rcp: return u(1.0f / x);
          case Op::Rsqrt: return u(1.0f / std::sqrt(x));
          case Op::Sqrt: return u(std::sqrt(x));
          case Op::Ex2: return u(std::exp2(x));
          case Op::Lg2: return u(std::log2(x));
          case Op::Cvt:
            return u(signedType(ins.type2) ? float(int32_t(a)) : float(a));
          default: break;
        }
        ADD_FAILURE() << "no f32 reference for " << opName(ins.op);
        return 0;
    }
    const bool s = signedType(t);
    uint32_t r = 0;
    switch (ins.op) {
      case Op::Add: r = a + b; break;
      case Op::Sub: r = a - b; break;
      case Op::Mul: r = a * b; break;
      case Op::Div:
        r = b == 0 ? 0
            : s    ? uint32_t(int32_t(a) / int32_t(b))
                   : a / b;
        break;
      case Op::Mad: r = a * b + c; break;
      case Op::Mad24: r = (a & 0xffffffu) * (b & 0xffffffu) + c; break;
      case Op::Min:
        r = s ? uint32_t(std::min(int32_t(a), int32_t(b))) : std::min(a, b);
        break;
      case Op::Max:
        r = s ? uint32_t(std::max(int32_t(a), int32_t(b))) : std::max(a, b);
        break;
      case Op::Abs: r = s ? uint32_t(std::abs(int32_t(a))) : a; break;
      case Op::And: r = a & b; break;
      case Op::Or: r = a | b; break;
      case Op::Xor: r = a ^ b; break;
      case Op::Not: r = ~a; break;
      case Op::Shl: r = a << (b & 31u); break;
      case Op::Shr:
        r = s ? uint32_t(int32_t(a) >> (b & 31u)) : a >> (b & 31u);
        break;
      case Op::Cvt:
        if (ins.type2 == DType::F32) {
            r = s ? uint32_t(int32_t(f(a)))
                  : uint32_t(f(a) < 0.0f ? 0.0f : f(a));
        } else {
            r = a;
        }
        break;
      default:
        ADD_FAILURE() << "no integer reference for " << opName(ins.op);
    }
    return canon(t, r);
}

/** Operand arity of the ops under test (selp's predicate not counted). */
int
arity(Op op)
{
    switch (op) {
      case Op::Mov: case Op::Not: case Op::Abs: case Op::Cvt:
      case Op::Rcp: case Op::Rsqrt: case Op::Sqrt: case Op::Ex2:
      case Op::Lg2:
        return 1;
      case Op::Mad: case Op::Mad24:
        return 3;
      default:
        return 2;
    }
}

/** One op under test; src[] and imm are filled per operand form. */
struct OpCase
{
    Op op;
    DType type;
    DType type2 = DType::None;
    Cmp cmp = Cmp::Eq;
    bool predDst = false;
};

std::string
caseName(const OpCase &c)
{
    std::string n = std::string(opName(c.op)) + "." + dtypeName(c.type);
    if (c.op == Op::Cvt)
        n += std::string(".") + dtypeName(c.type2);
    if (c.op == Op::Set) {
        static const char *cmps[] = {"eq", "ne", "lt", "le", "gt", "ge"};
        n += std::string(".") + cmps[int(c.cmp)] + (c.predDst ? ".p" : ".r");
    }
    return n;
}

std::vector<OpCase>
allOpCases()
{
    std::vector<OpCase> v;
    const DType ints[] = {DType::U32, DType::S32, DType::U16, DType::S16};
    for (DType t : ints) {
        for (Op op : {Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mad, Op::Mad24,
                      Op::Min, Op::Max, Op::Abs, Op::And, Op::Or, Op::Xor,
                      Op::Not, Op::Shl, Op::Shr, Op::Mov, Op::Selp})
            v.push_back({op, t});
    }
    for (Op op : {Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mad, Op::Min,
                  Op::Max, Op::Abs, Op::Rcp, Op::Rsqrt, Op::Sqrt, Op::Ex2,
                  Op::Lg2, Op::Mov, Op::Selp})
        v.push_back({op, DType::F32});
    v.push_back({Op::Cvt, DType::F32, DType::S32});
    v.push_back({Op::Cvt, DType::F32, DType::U32});
    v.push_back({Op::Cvt, DType::S32, DType::F32});
    v.push_back({Op::Cvt, DType::U32, DType::F32});
    v.push_back({Op::Cvt, DType::U16, DType::U32});
    v.push_back({Op::Cvt, DType::S16, DType::S32});
    for (DType t : {DType::U32, DType::S32, DType::U16, DType::S16,
                    DType::F32}) {
        for (int c = 0; c < 6; c++) {
            v.push_back({Op::Set, t, DType::None, Cmp(c), false});
            v.push_back({Op::Set, t, DType::None, Cmp(c), true});
        }
    }
    return v;
}

/** Which lanes execute the op: CTA thread count and per-lane guard. */
struct MaskCase
{
    const char *name;
    uint32_t threads;   ///< threads in the one-warp CTA
    Mask guard;         ///< lanes whose guard predicate p0 is set
    bool negate;        ///< guard is @!p0 instead of @p0
};

const MaskCase kMaskCases[] = {
    {"full", 32, 0xffffffffu, false},
    {"partial", 20, 0xffffffffu, false},   // 20 live lanes: blend path
    {"guarded", 32, 0x5a3c96e1u, false},
    {"negated", 32, 0x5a3c96e1u, true},
    {"sparse", 32, 0x00810004u, false},    // 3 lanes
    {"single", 1, 0xffffffffu, false},     // 1-thread CTA: one-lane path
};

/** A random operand of type @p t for @p op: edge values sometimes, and
 *  kept inside the domain where the C++ reference is defined. */
uint32_t
operandFor(const OpCase &c, int i, Rng &rng)
{
    uint32_t v;
    const DType t = (c.op == Op::Cvt) ? c.type2 : c.type;
    if (t == DType::F32) {
        static const float edge[] = {0.0f, -0.0f, 1.0f, -1.5f,
                                     std::numeric_limits<float>::infinity(),
                                     std::numeric_limits<float>::quiet_NaN(),
                                     1e-40f};
        v = rng.below(8) == 0 ? u(edge[rng.below(7)])
                              : u(rng.gaussian() * 100.0f);
        // float -> int conversion is only defined in range.
        if (c.op == Op::Cvt && !(std::fabs(f(v)) < 1e9f))
            v = u(3.5f);
    } else {
        static const uint32_t edge[] = {0u, 1u, 31u, 32u, 0x7fffffffu,
                                        0x80000000u, 0xffffffffu};
        v = canon(t, rng.below(8) == 0 ? edge[rng.below(7)] : rng.next());
        // abs(INT_MIN) and INT_MIN / -1 overflow.
        if (signedType(t) && v == 0x80000000u &&
            (c.op == Op::Abs || c.op == Op::Div))
            v = 7;
        if (c.op == Op::Div && i == 1 && signedType(t) && v == 0xffffffffu)
            v = 3;
    }
    return v;
}

/**
 * Run `@p0 op` (form @p immMask: bit i = source i is the immediate) on
 * one warp under mask case @p mc and check every lane: executed lanes
 * against refOp/refCmp, all others untouched.
 */
void
checkWarp(const OpCase &c, int immMask, const MaskCase &mc, bool segment,
          uint64_t seed)
{
    SCOPED_TRACE(caseName(c) + " imm=" + std::to_string(immMask) + " " +
                 mc.name + (segment ? " segment" : " step"));
    Rng rng(seed);
    DeviceMemory mem(1 << 16);
    // Per-lane inputs: a, b, c, the destination's prior value, the guard
    // flag and the prior predicate bit of p1.
    enum { A, B, C, D, G, P, NumArrays };
    uint32_t in[NumArrays][warpSize];
    for (uint32_t l = 0; l < warpSize; l++) {
        for (int i = 0; i < 3; i++)
            in[i][l] = operandFor(c, i, rng);
        in[D][l] = 0xd0d00000u | l;
        in[G][l] = (mc.guard >> l) & 1u;
        in[P][l] = rng.next() & 1u;
    }
    uint32_t base[NumArrays];
    for (int k = 0; k < NumArrays; k++) {
        base[k] = mem.allocate(sizeof in[k]);
        for (uint32_t l = 0; l < warpSize; l++)
            mem.write<uint32_t>(base[k] + 4 * l, in[k][l]);
    }
    const uint32_t imm = operandFor(c, rng.below(3), rng);

    // r0..r2 = a, b, c; r3 = dst; p0 = guard; p1 = pred dst / selp
    // source.  r4/r5 hold the lane offset, r6 a scratch flag.
    Program p;
    p.name = "alu_warp";
    p.numRegs = 7;
    p.numPreds = 2;
    const auto push = [&p](Instr i) { p.code.push_back(i); };
    Instr lid;
    lid.op = Op::Mov;
    lid.type = DType::U32;
    lid.dst = 4;
    lid.sreg = SReg::LaneId;
    push(lid);
    Instr shl;
    shl.op = Op::Shl;
    shl.type = DType::U32;
    shl.dst = 5;
    shl.src[0] = 4;
    shl.src[1] = Instr::immReg;
    shl.imm = 2;
    push(shl);
    const auto load = [&](uint8_t dst, uint32_t addr) {
        Instr ld;
        ld.op = Op::Ld;
        ld.type = DType::U32;
        ld.space = Space::Global;
        ld.dst = dst;
        ld.src[0] = 5;
        ld.imm = addr;
        push(ld);
    };
    const auto toPred = [&](uint8_t pred, uint32_t addr) {
        load(6, addr);
        Instr set;
        set.op = Op::Set;
        set.type = DType::U32;
        set.cmp = Cmp::Ne;
        set.dstIsPred = true;
        set.dst = pred;
        set.src[0] = 6;
        set.src[1] = Instr::immReg;
        set.imm = 0;
        push(set);
    };
    for (uint8_t r = 0; r < 4; r++)
        load(r, base[r]);
    toPred(0, base[G]);
    toPred(1, base[P]);

    Instr op;
    op.op = c.op;
    op.type = c.type;
    op.type2 = c.type2;
    op.cmp = c.cmp;
    op.dst = c.predDst ? 1 : 3;
    op.dstIsPred = c.predDst;
    op.pred = 0;
    op.predNeg = mc.negate;
    op.imm = imm;
    const int n = arity(c.op);
    for (int i = 0; i < n; i++)
        op.src[i] = (immMask >> i) & 1 ? Instr::immReg : uint8_t(i);
    if (c.op == Op::Selp)
        op.src[2] = 1;   // predicate p1
    push(op);
    Instr ex;
    ex.op = Op::Exit;
    push(ex);
    p.validate();

    KernelLaunch l;
    l.program = std::make_shared<Program>(p);
    l.grid = {1, 1, 1};
    l.block = {mc.threads, 1, 1};
    std::vector<uint8_t> smem(1);
    WarpExec w(l, {0, 0, 0}, 0, mem, smem);
    while (!w.done()) {
        if (segment)
            w.runFunctionalSegment();
        else
            w.step();
    }

    const Mask live = mc.threads >= warpSize ? 0xffffffffu
                                             : (1u << mc.threads) - 1;
    const Mask exec = live & (mc.negate ? ~mc.guard : mc.guard);
    const Mask p1Before = [&] {
        Mask m = 0;
        for (uint32_t l = 0; l < warpSize; l++)
            m |= (in[P][l] & 1u) << l;
        return m & live;
    }();
    for (uint32_t l = 0; l < warpSize; l++) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const bool ran = (exec >> l) & 1u;
        uint32_t src[3];
        for (int i = 0; i < 3; i++)
            src[i] = (immMask >> i) & 1 ? imm : in[i][l];
        if (c.predDst) {
            const bool want = ran ? refCmp(c.cmp, c.type, src[0], src[1])
                                  : (p1Before >> l) & 1u;
            EXPECT_EQ((w.pred(1) >> l) & 1u, want ? 1u : 0u);
            // The register file is untouched by a predicate write.
            EXPECT_EQ(w.reg(l, 3), (live >> l) & 1u ? in[D][l] : 0u);
            continue;
        }
        if (c.op == Op::Selp)
            src[2] = (p1Before >> l) & 1u;
        const uint32_t before = (live >> l) & 1u ? in[D][l] : 0u;
        const uint32_t want =
            ran ? refOp(op, src[0], src[1], src[2]) : before;
        EXPECT_EQ(w.reg(l, 3), want);
        EXPECT_EQ(w.pred(1), p1Before);
    }
}

TEST(AluWarp, EveryOpTypeMaskAndOperandForm)
{
    uint64_t seed = 1;
    for (const OpCase &c : allOpCases()) {
        const int n = arity(c.op);
        for (int immMask = 0; immMask < (1 << n); immMask++) {
            for (const MaskCase &mc : kMaskCases) {
                for (bool segment : {false, true}) {
                    checkWarp(c, immMask, mc, segment, seed);
                    if (::testing::Test::HasFailure())
                        return;   // one failing case says enough
                }
                seed++;
            }
        }
    }
}

} // namespace
} // namespace tango::sim
