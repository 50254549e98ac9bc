#include "sim/interp.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/logging.hh"
#include "sim/digest.hh"

namespace tango::sim {

namespace {

/** splitmix64 finalizer, used to derive the per-lane digest salts. */
constexpr uint64_t
splitmix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::array<uint64_t, warpSize>
makeLaneSalts()
{
    std::array<uint64_t, warpSize> s{};
    for (uint32_t i = 0; i < warpSize; i++)
        s[i] = splitmix64(i);
    return s;
}

/** Distinct salt per lane so the address digest is sensitive to which
 *  lane issued which address, not just the address multiset. */
constexpr std::array<uint64_t, warpSize> kLaneSalt = makeLaneSalts();

/** All 32 lanes active. */
constexpr Mask kFullMask = 0xffffffffu;

/**
 * Apply @p f to every active lane of @p exec in ascending lane order.
 *
 * Full warps — the overwhelmingly common case in the dense kernels — take
 * a plain counted loop the compiler can unroll and vectorize; sparse
 * masks fall back to bit iteration.  Identical visit order either way.
 */
template <typename F>
inline void
forLanes(Mask exec, F &&f)
{
    if (exec == kFullMask) {
        for (uint32_t lane = 0; lane < warpSize; lane++)
            f(lane);
    } else {
        for (Mask m = exec; m; m &= m - 1)
            f(static_cast<uint32_t>(std::countr_zero(m)));
    }
}

inline float
asF32(uint32_t u)
{
    return std::bit_cast<float>(u);
}

inline uint32_t
asU32(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/** Canonicalize a 32-bit value to its storage form for narrow types. */
inline uint32_t
canonical(DType t, uint32_t v)
{
    switch (t) {
      case DType::U16:
        return v & 0xffffu;
      case DType::S16:
        return static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int16_t>(v & 0xffffu)));
      default:
        return v;
    }
}

inline bool
isSigned(DType t)
{
    return t == DType::S32 || t == DType::S16;
}

inline bool
isFloat(DType t)
{
    return t == DType::F32;
}

/**
 * Full-warp f32 fused multiply-add over three register rows (the RNN cell
 * kernels' hottest instruction) into @p dp.
 *
 * Multi-versioned: on hosts with FMA3 the "fma" clone vectorizes to packed
 * vfmadd; the default clone lowers to libm's fmaf.  Both are IEEE
 * correctly rounded, so every clone produces bit-identical results and
 * simulated values do not depend on the host ISA.
 *
 * Not multi-versioned under ThreadSanitizer: target_clones emits an ifunc
 * whose instrumented resolver runs at relocation time, before the tsan
 * runtime has set up its thread state — every binary linking this TU then
 * segfaults in __tsan_func_entry before main.  The clones are
 * bit-identical anyway, so sanitized builds just take the default path.
 */
#if !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("default", "fma")))
#endif
void
madWarpF32(uint32_t *__restrict dp, const uint32_t *a, const uint32_t *b,
           const uint32_t *c)
{
    for (uint32_t l = 0; l < warpSize; l++)
        dp[l] =
            asU32(__builtin_fmaf(asF32(a[l]), asF32(b[l]), asF32(c[l])));
}

constexpr std::array<uint32_t, warpSize>
makeLaneTable(bool bits)
{
    std::array<uint32_t, warpSize> t{};
    for (uint32_t i = 0; i < warpSize; i++)
        t[i] = bits ? 1u << i : i;
    return t;
}

/** Bit l of a lane mask, as a table so per-lane mask tests vectorize. */
constexpr std::array<uint32_t, warpSize> kLaneBit = makeLaneTable(true);

/** The %laneid register row. */
constexpr std::array<uint32_t, warpSize> kLaneIds = makeLaneTable(false);

/** A source operand resolved to a register row... */
struct RowSrc
{
    const uint32_t *p;
    uint32_t operator[](uint32_t l) const { return p[l]; }
};

/** ...or to the instruction's immediate, the same in every lane. */
struct ImmSrc
{
    uint32_t v;
    uint32_t operator[](uint32_t) const { return v; }
};

/**
 * Call @p go with the first @p Arity sources of @p d, each a RowSrc or an
 * ImmSrc as decode resolved it (one instantiation per combination), and
 * ImmSrc{0} for the sources the kind does not read.
 */
template <int Arity, typename Go, typename... S>
inline void
withSources(const DecodedInstr &d, const uint32_t *regs, Go &&go, S... s)
{
    constexpr int i = sizeof...(S);
    if constexpr (i == 3) {
        go(s...);
    } else if constexpr (i >= Arity) {
        withSources<Arity>(d, regs, go, s..., ImmSrc{0});
    } else {
        if (d.immMask & (1u << i))
            withSources<Arity>(d, regs, go, s..., ImmSrc{d.imm});
        else
            withSources<Arity>(d, regs, go, s...,
                               RowSrc{regs + size_t(d.src[i]) * warpSize});
    }
}

/**
 * One lane of lane kind @p K: its result for sources (a, b, c); 0/1 for
 * the Set kinds (predicate or register form alike).  Every lane kind is a
 * total function of any 32-bit inputs — no UB, no traps — so computing
 * inactive lanes and discarding them is safe.
 */
template <ExecKind K>
inline uint32_t
laneEval(uint32_t a, uint32_t b, uint32_t c)
{
    using E = ExecKind;
    [[maybe_unused]] const float x = asF32(a), y = asF32(b), z = asF32(c);
    [[maybe_unused]] const auto sa = static_cast<int32_t>(a);
    [[maybe_unused]] const auto sb = static_cast<int32_t>(b);
    if constexpr (K == E::Mov) return a;
    else if constexpr (K == E::AddI) return a + b;
    else if constexpr (K == E::AddF) return asU32(x + y);
    else if constexpr (K == E::SubI) return a - b;
    else if constexpr (K == E::SubF) return asU32(x - y);
    else if constexpr (K == E::MulI) return a * b;
    else if constexpr (K == E::MulF) return asU32(x * y);
    else if constexpr (K == E::MadI) return a * b + c;
    else if constexpr (K == E::MadF) return asU32(__builtin_fmaf(x, y, z));
    else if constexpr (K == E::Mad24)
        return (a & 0xffffffu) * (b & 0xffffffu) + c;
    else if constexpr (K == E::MinU) return std::min(a, b);
    else if constexpr (K == E::MinS)
        return static_cast<uint32_t>(std::min(sa, sb));
    // min/max.f32: a NaN operand loses to a number, as in fmin/fmax, and
    // a tie (+0 against -0 included) returns the second operand, so the
    // sign of a zero result does not depend on how the compiler orders
    // the operands.
    else if constexpr (K == E::MinF) return asU32(x < y || y != y ? x : y);
    else if constexpr (K == E::MaxU) return std::max(a, b);
    else if constexpr (K == E::MaxS)
        return static_cast<uint32_t>(std::max(sa, sb));
    else if constexpr (K == E::MaxF) return asU32(x > y || y != y ? x : y);
    else if constexpr (K == E::Shl) return a << (b & 31u);
    else if constexpr (K == E::ShrU) return a >> (b & 31u);
    else if constexpr (K == E::ShrS)
        return static_cast<uint32_t>(sa >> (b & 31u));
    else if constexpr (K == E::And) return a & b;
    else if constexpr (K == E::Or) return a | b;
    else if constexpr (K == E::Xor) return a ^ b;
    else if constexpr (K == E::Not) return ~a;
    else if constexpr (K == E::SetEqI || K == E::SetEqIP) return a == b;
    else if constexpr (K == E::SetEqF || K == E::SetEqFP) return x == y;
    else if constexpr (K == E::SetNeI || K == E::SetNeIP) return a != b;
    else if constexpr (K == E::SetNeF || K == E::SetNeFP) return x != y;
    else if constexpr (K == E::SetLtU || K == E::SetLtUP) return a < b;
    else if constexpr (K == E::SetLtS || K == E::SetLtSP) return sa < sb;
    else if constexpr (K == E::SetLtF || K == E::SetLtFP) return x < y;
    else if constexpr (K == E::SetLeU || K == E::SetLeUP) return a <= b;
    else if constexpr (K == E::SetLeS || K == E::SetLeSP) return sa <= sb;
    else if constexpr (K == E::SetLeF || K == E::SetLeFP) return x <= y;
    else static_assert(K == E::Mov, "not a lane kind");
}

/** @return how many sources lane kind @p k reads. */
constexpr int
laneArity(ExecKind k)
{
    switch (k) {
      case ExecKind::Mov: case ExecKind::Not:
        return 1;
      case ExecKind::MadI: case ExecKind::MadF: case ExecKind::Mad24:
        return 3;
      default:
        return 2;
    }
}

/**
 * Write lane kind @p K of sources (a, b, c), canonicalized to @p narrow
 * (DecodedInstr::narrow), to row @p d for the lanes of @p exec.  A full
 * warp is one plain loop into a private row (the destination may alias a
 * source row, so computing into @p d directly would cost the vectorizer
 * its alias checks).  A partial warp computes all 32 lanes the same way,
 * then blends by the mask.  A single lane (a 1-thread CTA) is evaluated
 * alone: there the 32-lane loop costs about twice as much, while at four
 * lanes it is already the cheaper path for the f32 kinds.
 */
template <ExecKind K, typename A, typename B, typename C>
inline void
runLanes(uint32_t *d, Mask exec, A a, B b, C c, DType narrow = DType::None)
{
    if ((exec & (exec - 1)) == 0) {   // one lane or none
        if (exec) {
            const auto l = static_cast<uint32_t>(std::countr_zero(exec));
            d[l] = canonical(narrow, laneEval<K>(a[l], b[l], c[l]));
        }
        return;
    }
    uint32_t t[warpSize];
    if constexpr (K == ExecKind::MadF && std::is_same_v<A, RowSrc> &&
                  std::is_same_v<B, RowSrc> && std::is_same_v<C, RowSrc>) {
        madWarpF32(t, a.p, b.p, c.p);
    } else {
        for (uint32_t l = 0; l < warpSize; l++)
            t[l] = laneEval<K>(a[l], b[l], c[l]);
    }
    // One loop per type: canonical()'s switch inside the loop would not
    // vectorize.
    if (narrow == DType::U16) {
        for (uint32_t l = 0; l < warpSize; l++)
            t[l] &= 0xffffu;
    } else if (narrow == DType::S16) {
        for (uint32_t l = 0; l < warpSize; l++)
            t[l] = static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int16_t>(t[l])));
    }
    if (exec == kFullMask) {
        std::memcpy(d, t, sizeof t);
    } else {
        for (uint32_t l = 0; l < warpSize; l++)
            d[l] = (exec & kLaneBit[l]) ? t[l] : d[l];
    }
}

/** Execute register-writing lane kind @p K on the warp's register file. */
template <ExecKind K>
inline void
laneOp(const DecodedInstr &d, uint32_t *regs, Mask exec)
{
    uint32_t *dp = regs + size_t(d.dst) * warpSize;
    withSources<laneArity(K)>(d, regs, [&](auto a, auto b, auto c) {
        runLanes<K>(dp, exec, a, b, c, d.narrow);
    });
}

/** Execute predicate-writing Set kind @p K into @p pred: every lane is
 *  tested and the mask keeps the inactive lanes' old bits. */
template <ExecKind K>
inline void
setPredOp(const DecodedInstr &d, const uint32_t *regs, Mask &pred,
          Mask exec)
{
    withSources<2>(d, regs, [&](auto a, auto b, auto) {
        Mask r = 0;
        for (uint32_t l = 0; l < warpSize; l++)
            r |= kLaneBit[l] & (0u - laneEval<K>(a[l], b[l], 0));
        pred = (pred & ~exec) | (r & exec);
    });
}

/**
 * Per-lane addresses (@p base + @p imm) of all 32 lanes into @p addrs;
 * inactive lanes' addresses are computed but never checked or used.
 * @return whether every active lane's @p bytes-wide access ends at or
 *         below @p limit.
 */
template <typename A>
inline bool
laneAddrs(A base, uint32_t imm, Mask exec, uint64_t limit, uint32_t bytes,
          uint32_t addrs[warpSize])
{
    for (uint32_t l = 0; l < warpSize; l++)
        addrs[l] = base[l] + imm;
    if (limit < bytes)
        return exec == 0;
    if (limit - bytes >= 0xffffffffu)
        return true;
    const auto last = static_cast<uint32_t>(limit - bytes);
    Mask over = 0;
    for (uint32_t l = 0; l < warpSize; l++)
        over |= kLaneBit[l] & (0u - static_cast<uint32_t>(addrs[l] > last));
    return (over & exec) == 0;
}

/**
 * The Generic kind's evaluator: one lane of Div, Cvt, Abs, Selp (@p c is
 * the lane's predicate bit) or an SFU op.  Ops invalid for the type
 * panic here.
 */
uint32_t
evalGeneric(const Instr &ins, uint32_t a, uint32_t b, uint32_t c)
{
    if (ins.op == Op::Selp)
        return c ? a : b;
    if (isFloat(ins.type)) {
        const float x = asF32(a), y = asF32(b);
        float f = 0.0f;
        switch (ins.op) {
          case Op::Div: f = x / y; break;
          case Op::Abs: f = std::fabs(x); break;
          case Op::Rcp: f = 1.0f / x; break;
          case Op::Rsqrt: f = 1.0f / std::sqrt(x); break;
          case Op::Sqrt: f = std::sqrt(x); break;
          case Op::Ex2: f = std::exp2(x); break;
          case Op::Lg2: f = std::log2(x); break;
          case Op::Cvt:
            // f32 <- integer source
            f = isSigned(ins.type2)
                    ? static_cast<float>(static_cast<int32_t>(a))
                    : static_cast<float>(a);
            break;
          default:
            panic("op %s not valid on f32", opName(ins.op));
        }
        return asU32(f);
    }
    uint32_t r = 0;
    switch (ins.op) {
      case Op::Div:
        if (isSigned(ins.type)) {
            r = b ? static_cast<uint32_t>(static_cast<int32_t>(a) /
                                          static_cast<int32_t>(b))
                  : 0;
        } else {
            r = b ? a / b : 0;
        }
        break;
      case Op::Abs:
        r = isSigned(ins.type)
                ? static_cast<uint32_t>(std::abs(static_cast<int32_t>(a)))
                : a;
        break;
      case Op::Cvt:
        if (isFloat(ins.type2)) {
            const float x = asF32(a);
            r = isSigned(ins.type)
                    ? static_cast<uint32_t>(static_cast<int32_t>(x))
                    : static_cast<uint32_t>(x < 0.0f ? 0.0f : x);
        } else {
            r = a;
        }
        break;
      default:
        panic("op %s not valid on int", opName(ins.op));
    }
    return canonical(ins.type, r);
}

} // namespace

uint32_t
coalesceSegments(const uint32_t addrs[warpSize], Mask exec,
                 uint32_t out[warpSize])
{
    uint32_t n = 0;
    uint32_t last = 0;
    bool haveLast = false;
    for (Mask m = exec; m; m &= m - 1) {
        const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
        const uint32_t seg = addrs[lane] & ~127u;
        if (haveLast && seg == last)
            continue;
        bool found = false;
        for (uint32_t s = 0; s < n; s++) {
            if (out[s] == seg) {
                found = true;
                break;
            }
        }
        if (!found)
            out[n++] = seg;
        last = seg;
        haveLast = true;
    }
    return n;
}

WarpExec::WarpExec(const KernelLaunch &launch, Dim3 cta_id,
                   uint32_t warp_in_cta, DeviceMemory &gmem,
                   std::vector<uint8_t> &smem, const DecodedProgram *dec)
    : launch_(launch), prog_(*launch.program), dec_(dec), gmem_(gmem),
      smem_(smem), ctaId_(cta_id), warpInCta_(warp_in_cta)
{
    if (!dec_) {
        ownDec_ = std::make_unique<DecodedProgram>(prog_);
        dec_ = ownDec_.get();
    }
    regs_.assign(size_t(prog_.numRegs) * warpSize, 0);
    preds_.assign(std::max<uint32_t>(prog_.numPreds, 1), 0);

    const Dim3 &b = launch_.block;
    const uint32_t threads = static_cast<uint32_t>(b.count());
    active_ = 0;
    for (uint32_t lane = 0; lane < warpSize; lane++) {
        const uint32_t linear = warp_in_cta * warpSize + lane;
        if (linear >= threads) {
            tidX_[lane] = tidY_[lane] = tidZ_[lane] = 0;
            continue;
        }
        tidX_[lane] = linear % b.x;
        tidY_[lane] = (linear / b.x) % b.y;
        tidZ_[lane] = linear / (b.x * b.y);
        active_ |= (1u << lane);
    }
    done_ = (active_ == 0) || prog_.code.empty();
}

void
WarpExec::resolve()
{
    // Lanes that executed Exit are recorded by clearing them from every
    // mask as entries are popped; active_ lanes are always live.
    while (!done_) {
        if (rpc_ >= 0 && pc_ == static_cast<uint32_t>(rpc_)) {
            TANGO_ASSERT(!stack_.empty(), "reconvergence with empty stack");
            StackEntry e = stack_.back();
            stack_.pop_back();
            pc_ = e.pc;
            rpc_ = e.rpc;
            active_ = e.mask;
            continue;
        }
        if (active_ == 0) {
            if (stack_.empty()) {
                done_ = true;
                break;
            }
            StackEntry e = stack_.back();
            stack_.pop_back();
            pc_ = e.pc;
            rpc_ = e.rpc;
            active_ = e.mask;
            continue;
        }
        break;
    }
}

const Instr &
WarpExec::peek()
{
    resolveFast();
    TANGO_ASSERT(!done_, "peek on retired warp");
    return prog_.code[pc_];
}

const DecodedInstr &
WarpExec::peekDecoded()
{
    resolveFast();
    TANGO_ASSERT(!done_, "peek on retired warp");
    return (*dec_)[pc_];
}

uint32_t
WarpExec::pc()
{
    resolveFast();
    return pc_;
}

void
WarpExec::foldAddrs(Mask exec, const uint32_t addrs[warpSize])
{
    // Lane-salted combine: each active lane's address hashes
    // independently (no loop-carried multiply chain) and the products
    // XOR-merge, so the fold costs one round of ILP-friendly multiplies
    // instead of a 32-deep serial FNV chain.
    uint64_t acc = 0;
    forLanes(exec, [&](uint32_t lane) {
        acc ^= (uint64_t(addrs[lane]) ^ kLaneSalt[lane]) *
               0x9e3779b97f4a7c15ull;
    });
    digest::mix(streamHash_, acc);
}

Step
WarpExec::step()
{
    return stepT<true>();
}

WarpExec::StepLite
WarpExec::runFunctionalSegment()
{
    return stepT<false>();
}

template <bool Timing>
std::conditional_t<Timing, Step, WarpExec::StepLite>
WarpExec::stepT()
{
  // The functional instantiation batches: it loops here until the warp
  // retires or consumes a Bar, paying the call and frame setup once per
  // barrier-to-barrier segment instead of once per instruction.
  uint32_t *const regs = regs_.data();
  const auto row = [regs](uint8_t r) { return regs + size_t(r) * warpSize; };
  for (;;) {
    resolveFast();
    std::conditional_t<Timing, Step, StepLite> st;
    if (done_) {
        st.warpDone = true;
        return st;
    }
    const Instr &ins = prog_.code[pc_];
    const DecodedInstr &dec = (*dec_)[pc_];
    st.op = ins.op;
    if constexpr (Timing) {
        st.type = ins.type;
        st.unit = dec.unit;
        st.numSrcRegs = dec.numSrcRegs;
        st.writesReg = dec.writesReg;
    }

    // Guard predicate (for Bra the predicate is the branch condition and is
    // handled below instead).
    Mask exec = active_;
    if (ins.pred != noPred && dec.kind != ExecKind::Bra) {
        const Mask pv = preds_[ins.pred];
        exec &= ins.predNeg ? ~pv : pv;
    }
    if constexpr (Timing)
        st.activeCount = static_cast<uint32_t>(std::popcount(exec));

    // Fold the issue point: pc pins the static instruction (opcode, unit,
    // type, memory space), the mask pins which lanes executed it.
    if (hashing_)
        digest::mix(streamHash_, (uint64_t(pc_) << 32) | exec);

    uint32_t next_pc = pc_ + 1;

    switch (dec.kind) {
      case ExecKind::Nop:
        break;

      case ExecKind::Ssy:
        stack_.push_back({static_cast<uint32_t>(ins.target), rpc_, active_,
                          true});
        rpc_ = ins.target;
        break;

      case ExecKind::Exit: {
        // Exec-masked lanes retire.  Remaining lanes (if any) continue; if
        // none remain the resolver pops pending paths or retires the warp.
        const Mask dying = exec;
        active_ &= ~dying;
        for (auto &e : stack_)
            e.mask &= ~dying;
        // Surviving guarded-off lanes fall through; if none survive the
        // resolver pops pending paths or retires the warp.
        break;
      }

      case ExecKind::Bra: {
        Mask taken = active_;
        if (ins.pred != noPred) {
            const Mask pv = preds_[ins.pred];
            taken &= ins.predNeg ? ~pv : pv;
        }
        const Mask not_taken = active_ & ~taken;
        if constexpr (Timing)
            st.controlTransfer = true;
        if (taken == active_) {
            next_pc = static_cast<uint32_t>(ins.target);
        } else if (taken == 0) {
            next_pc = pc_ + 1;
            if constexpr (Timing)
                st.controlTransfer = false;
        } else {
            // Divergence: continue on the taken path, queue the rest.
            stack_.push_back({pc_ + 1, rpc_, not_taken, false});
            active_ = taken;
            next_pc = static_cast<uint32_t>(ins.target);
        }
        if constexpr (Timing)
            st.activeCount = static_cast<uint32_t>(std::popcount(active_));
        // Fold the outcome too: the continuation pc and surviving mask pin
        // the taken set even when a guard at the target would mask it.
        if (hashing_)
            digest::mix(streamHash_, (uint64_t(next_pc) << 32) | active_);
        break;
      }

      case ExecKind::MovSreg: {
        uint32_t *dp = row(dec.dst);
        const auto mov = [&](auto v) {
            runLanes<ExecKind::Mov>(dp, exec, v, ImmSrc{0}, ImmSrc{0});
        };
        switch (ins.sreg) {
          case SReg::TidX: mov(RowSrc{tidX_}); break;
          case SReg::TidY: mov(RowSrc{tidY_}); break;
          case SReg::TidZ: mov(RowSrc{tidZ_}); break;
          case SReg::CtaIdX: mov(ImmSrc{ctaId_.x}); break;
          case SReg::CtaIdY: mov(ImmSrc{ctaId_.y}); break;
          case SReg::CtaIdZ: mov(ImmSrc{ctaId_.z}); break;
          case SReg::NTidX: mov(ImmSrc{launch_.block.x}); break;
          case SReg::NTidY: mov(ImmSrc{launch_.block.y}); break;
          case SReg::NTidZ: mov(ImmSrc{launch_.block.z}); break;
          case SReg::LaneId: mov(RowSrc{kLaneIds.data()}); break;
          case SReg::WarpId: mov(ImmSrc{warpInCta_}); break;
          case SReg::None: break;
        }
        break;
      }

      case ExecKind::Ld: {
        if constexpr (Timing) {
            st.isMem = true;
            st.space = ins.space;
        }
        const uint32_t bytes = dtypeBytes(ins.type);
        const uint8_t *base = nullptr;
        uint64_t limit = 0;
        switch (ins.space) {
          case Space::Global:
            base = gmem_.data();
            limit = gmem_.backed();
            break;
          case Space::Shared:
            base = smem_.data();
            limit = smem_.size();
            break;
          case Space::Const:
            base = launch_.constData.data();
            limit = launch_.constData.size();
            break;
          case Space::Param:
            base = reinterpret_cast<const uint8_t *>(launch_.params.data());
            limit = launch_.params.size() * 4;
            break;
        }
        // One vectorized bounds check over the active lanes, then
        // unchecked copies.  Immediate-only addressing has base 0.
        uint32_t addrs[warpSize];
        const bool inRange =
            dec.immMask & 1u
                ? laneAddrs(ImmSrc{0}, dec.imm, exec, limit, bytes, addrs)
                : laneAddrs(RowSrc{row(dec.src[0])}, dec.imm, exec, limit,
                            bytes, addrs);
        TANGO_ASSERT(inRange, "load out of range");
        // Word loads (f32/u32/s32) dominate and need no narrowing.
        uint32_t *dp = row(dec.dst);
        if (bytes == 4) {
            forLanes(exec, [&](uint32_t lane) {
                std::memcpy(&dp[lane], base + addrs[lane], 4);
            });
        } else {
            forLanes(exec, [&](uint32_t lane) {
                uint32_t raw = 0;
                std::memcpy(&raw, base + addrs[lane], bytes);
                dp[lane] = canonical(ins.type, raw);
            });
        }
        if (hashing_)
            foldAddrs(exec, addrs);
        // Access shaping for the memory model (timing runs only).
        if constexpr (Timing) {
            if (ins.space == Space::Global) {
                st.numSegments = coalesceSegments(addrs, exec, st.segments);
            } else if (ins.space == Space::Shared) {
                // Bank-conflict count.  A touched-bank mask replaces the
                // "count == 0" first-touch test so the per-bank arrays
                // need no zeroing; conflict counts are unchanged (distinct
                // addresses hitting one bank serialize, broadcasts of one
                // address don't).
                uint32_t perBank[warpSize];
                uint32_t bankAddr[warpSize];
                Mask touched = 0;
                uint32_t maxSer = 1;
                for (Mask m = exec; m; m &= m - 1) {
                    const auto lane =
                        static_cast<uint32_t>(std::countr_zero(m));
                    const uint32_t bank = (addrs[lane] / 4) % warpSize;
                    if (!(touched & (1u << bank)) ||
                        bankAddr[bank] != addrs[lane]) {
                        perBank[bank] =
                            (touched & (1u << bank)) ? perBank[bank] + 1
                                                     : 1;
                        touched |= 1u << bank;
                        bankAddr[bank] = addrs[lane];
                    }
                    if (perBank[bank] > maxSer)
                        maxSer = perBank[bank];
                }
                st.sharedSerialization = maxSer;
            } else if (ins.space == Space::Const) {
                uint32_t first = 0;
                bool haveFirst = false;
                for (Mask m = exec; m; m &= m - 1) {
                    const auto lane =
                        static_cast<uint32_t>(std::countr_zero(m));
                    if (!haveFirst) {
                        first = addrs[lane];
                        haveFirst = true;
                    } else if (addrs[lane] != first) {
                        st.constUniform = false;
                        break;
                    }
                }
                // The constant-cache model probes lane 0's address.
                st.segments[0] = first;
            }
        }
        break;
      }

      case ExecKind::St: {
        if constexpr (Timing) {
            st.isMem = true;
            st.isStore = true;
            st.space = ins.space;
        }
        const uint32_t bytes = dtypeBytes(ins.type);
        uint8_t *base = nullptr;
        uint64_t limit = 0;
        switch (ins.space) {
          case Space::Global:
            base = gmem_.data();
            limit = gmem_.backed();
            break;
          case Space::Shared:
            base = smem_.data();
            limit = smem_.size();
            break;
          default:
            if (exec != 0)
                panic("store to read-only space");
            break;
        }
        uint32_t addrs[warpSize];
        const bool inRange =
            dec.immMask & 1u
                ? laneAddrs(ImmSrc{0}, dec.imm, exec, limit, bytes, addrs)
                : laneAddrs(RowSrc{row(dec.src[0])}, dec.imm, exec, limit,
                            bytes, addrs);
        TANGO_ASSERT(inRange, "store out of range");
        const auto store = [&](auto val) {
            if (bytes == 4) {
                forLanes(exec, [&](uint32_t lane) {
                    const uint32_t v = val[lane];
                    std::memcpy(base + addrs[lane], &v, 4);
                });
            } else {
                forLanes(exec, [&](uint32_t lane) {
                    const uint32_t v = val[lane];
                    std::memcpy(base + addrs[lane], &v, bytes);
                });
            }
        };
        if (dec.immMask & 2u)
            store(ImmSrc{dec.imm});
        else
            store(RowSrc{row(dec.src[1])});
        if (hashing_)
            foldAddrs(exec, addrs);
        if constexpr (Timing) {
            if (ins.space == Space::Global)
                st.numSegments = coalesceSegments(addrs, exec, st.segments);
        }
        break;
      }

      case ExecKind::Generic: {
        uint32_t immRow[warpSize];
        std::fill_n(immRow, warpSize, dec.imm);
        const uint32_t *a = dec.immMask & 1u ? immRow : row(dec.src[0]);
        const uint32_t *b = dec.immMask & 2u ? immRow : row(dec.src[1]);
        const uint32_t *c = dec.immMask & 4u ? immRow : row(dec.src[2]);
        // Selp's third operand is its predicate's lane bit.
        const bool selp = ins.op == Op::Selp;
        const Mask sel = selp ? preds_[ins.src[2]] : 0;
        uint32_t *dp = row(dec.dst);
        for (Mask m = exec; m; m &= m - 1) {
            const auto l = static_cast<uint32_t>(std::countr_zero(m));
            dp[l] = evalGeneric(ins, a[l], b[l], selp ? (sel >> l) & 1u : c[l]);
        }
        break;
      }

      case ExecKind::Mov: laneOp<ExecKind::Mov>(dec, regs, exec); break;
      case ExecKind::AddI: laneOp<ExecKind::AddI>(dec, regs, exec); break;
      case ExecKind::AddF: laneOp<ExecKind::AddF>(dec, regs, exec); break;
      case ExecKind::SubI: laneOp<ExecKind::SubI>(dec, regs, exec); break;
      case ExecKind::SubF: laneOp<ExecKind::SubF>(dec, regs, exec); break;
      case ExecKind::MulI: laneOp<ExecKind::MulI>(dec, regs, exec); break;
      case ExecKind::MulF: laneOp<ExecKind::MulF>(dec, regs, exec); break;
      case ExecKind::MadI: laneOp<ExecKind::MadI>(dec, regs, exec); break;
      case ExecKind::MadF: laneOp<ExecKind::MadF>(dec, regs, exec); break;
      case ExecKind::Mad24: laneOp<ExecKind::Mad24>(dec, regs, exec); break;
      case ExecKind::MinU: laneOp<ExecKind::MinU>(dec, regs, exec); break;
      case ExecKind::MinS: laneOp<ExecKind::MinS>(dec, regs, exec); break;
      case ExecKind::MinF: laneOp<ExecKind::MinF>(dec, regs, exec); break;
      case ExecKind::MaxU: laneOp<ExecKind::MaxU>(dec, regs, exec); break;
      case ExecKind::MaxS: laneOp<ExecKind::MaxS>(dec, regs, exec); break;
      case ExecKind::MaxF: laneOp<ExecKind::MaxF>(dec, regs, exec); break;
      case ExecKind::Shl: laneOp<ExecKind::Shl>(dec, regs, exec); break;
      case ExecKind::ShrU: laneOp<ExecKind::ShrU>(dec, regs, exec); break;
      case ExecKind::ShrS: laneOp<ExecKind::ShrS>(dec, regs, exec); break;
      case ExecKind::And: laneOp<ExecKind::And>(dec, regs, exec); break;
      case ExecKind::Or: laneOp<ExecKind::Or>(dec, regs, exec); break;
      case ExecKind::Xor: laneOp<ExecKind::Xor>(dec, regs, exec); break;
      case ExecKind::Not: laneOp<ExecKind::Not>(dec, regs, exec); break;
      case ExecKind::SetEqI: laneOp<ExecKind::SetEqI>(dec, regs, exec); break;
      case ExecKind::SetEqF: laneOp<ExecKind::SetEqF>(dec, regs, exec); break;
      case ExecKind::SetNeI: laneOp<ExecKind::SetNeI>(dec, regs, exec); break;
      case ExecKind::SetNeF: laneOp<ExecKind::SetNeF>(dec, regs, exec); break;
      case ExecKind::SetLtU: laneOp<ExecKind::SetLtU>(dec, regs, exec); break;
      case ExecKind::SetLtS: laneOp<ExecKind::SetLtS>(dec, regs, exec); break;
      case ExecKind::SetLtF: laneOp<ExecKind::SetLtF>(dec, regs, exec); break;
      case ExecKind::SetLeU: laneOp<ExecKind::SetLeU>(dec, regs, exec); break;
      case ExecKind::SetLeS: laneOp<ExecKind::SetLeS>(dec, regs, exec); break;
      case ExecKind::SetLeF: laneOp<ExecKind::SetLeF>(dec, regs, exec); break;

      case ExecKind::SetEqIP:
        setPredOp<ExecKind::SetEqIP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetEqFP:
        setPredOp<ExecKind::SetEqFP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetNeIP:
        setPredOp<ExecKind::SetNeIP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetNeFP:
        setPredOp<ExecKind::SetNeFP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLtUP:
        setPredOp<ExecKind::SetLtUP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLtSP:
        setPredOp<ExecKind::SetLtSP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLtFP:
        setPredOp<ExecKind::SetLtFP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLeUP:
        setPredOp<ExecKind::SetLeUP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLeSP:
        setPredOp<ExecKind::SetLeSP>(dec, regs, preds_[dec.dst], exec);
        break;
      case ExecKind::SetLeFP:
        setPredOp<ExecKind::SetLeFP>(dec, regs, preds_[dec.dst], exec);
        break;
    }

    pc_ = next_pc;
    resolveFast();
    st.warpDone = done_;
    if constexpr (Timing)
        return st;
    else if (st.warpDone || st.op == Op::Bar)
        return st;
  }
}

uint64_t
runFunctionalOnly(const KernelLaunch &launch, const DecodedProgram &decoded,
                  const std::vector<uint64_t> &cta_ids,
                  const std::vector<uint32_t> &warp_ids,
                  DeviceMemory &gmem)
{
    TANGO_ASSERT(launch.program != nullptr, "launch without program");
    const Dim3 grid = launch.grid;
    const auto coordOf = [&grid](uint64_t linear) {
        Dim3 c;
        c.x = static_cast<uint32_t>(linear % grid.x);
        c.y = static_cast<uint32_t>((linear / grid.x) % grid.y);
        c.z = static_cast<uint32_t>(linear / (uint64_t(grid.x) * grid.y));
        return c;
    };

    uint64_t combined = digest::kInit;
    std::vector<uint8_t> smem;
    std::vector<std::unique_ptr<WarpExec>> warps;
    std::vector<uint8_t> waiting;

    for (uint64_t linear : cta_ids) {
        smem.assign(std::max<uint32_t>(launch.program->smemBytes, 1), 0);
        const Dim3 coord = coordOf(linear);
        warps.clear();
        waiting.assign(warp_ids.size(), 0);
        uint32_t live = 0;
        for (uint32_t w : warp_ids) {
            warps.push_back(std::make_unique<WarpExec>(
                launch, coord, w, gmem, smem, &decoded));
            warps.back()->enableStreamHash();
            if (!warps.back()->done())
                live++;
        }

        // Round-robin the CTA's warps.  A warp runs until it retires or
        // consumes a Bar; once every live warp has arrived at the barrier
        // all of them are released.  This is the same release rule the
        // timing core applies (barrierArrived >= liveWarps), so race-free
        // kernels compute identical values in both executors.
        uint32_t atBarrier = 0;
        while (live > 0) {
            bool progressed = false;
            for (size_t i = 0; i < warps.size(); i++) {
                WarpExec &we = *warps[i];
                if (we.done() || waiting[i])
                    continue;
                progressed = true;
                const auto st = we.runFunctionalSegment();
                if (st.warpDone) {
                    live--;
                } else {
                    // Segment ended on a consumed Bar.
                    waiting[i] = 1;
                    atBarrier++;
                }
            }
            if (live > 0 && atBarrier >= live) {
                std::fill(waiting.begin(), waiting.end(), 0);
                atBarrier = 0;
            } else if (!progressed) {
                // Every remaining warp is parked at a barrier that can
                // no longer be released — matches the timing core's
                // deadlock panic, so a memoized kernel cannot hide one.
                panic("functional replay deadlock in kernel %s",
                      launch.program->name.c_str());
            }
        }

        // Fold per-warp digests in (CTA order, warp order) position so
        // the combination is independent of the interleaving above.
        for (const auto &wp : warps)
            digest::mix(combined, wp->streamHash());
    }
    return combined;
}

} // namespace tango::sim
