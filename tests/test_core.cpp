// Core tests: FPU semantics, Snitch program execution (ALU, memory,
// branches, CSRs, mul/div), FPU-subsystem offloading (pseudo-dual-issue),
// FREP loops with register staggering, and streamer CSR configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>

#include "core/fpu.hpp"
#include "core/sim.hpp"
#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"
#include "trace/ring.hpp"

namespace issr::core {
namespace {

using namespace issr::isa;

TEST(Fpu, ComputeSemantics) {
  EXPECT_EQ(fpu_compute(Op::kFmaddD, 2, 3, 4), 10.0);
  EXPECT_EQ(fpu_compute(Op::kFmsubD, 2, 3, 4), 2.0);
  EXPECT_EQ(fpu_compute(Op::kFnmsubD, 2, 3, 4), -2.0);
  EXPECT_EQ(fpu_compute(Op::kFnmaddD, 2, 3, 4), -10.0);
  EXPECT_EQ(fpu_compute(Op::kFaddD, 1.5, 2.5, 0), 4.0);
  EXPECT_EQ(fpu_compute(Op::kFsubD, 1.5, 2.5, 0), -1.0);
  EXPECT_EQ(fpu_compute(Op::kFmulD, 3, -2, 0), -6.0);
  EXPECT_EQ(fpu_compute(Op::kFdivD, 7, 2, 0), 3.5);
  EXPECT_EQ(fpu_compute(Op::kFsqrtD, 9, 0, 0), 3.0);
  EXPECT_EQ(fpu_compute(Op::kFsgnjD, 3, -1, 0), -3.0);
  EXPECT_EQ(fpu_compute(Op::kFsgnjnD, 3, -1, 0), 3.0);
  EXPECT_EQ(fpu_compute(Op::kFsgnjxD, -3, -1, 0), 3.0);
  EXPECT_EQ(fpu_compute(Op::kFminD, 2, 5, 0), 2.0);
  EXPECT_EQ(fpu_compute(Op::kFmaxD, 2, 5, 0), 5.0);
}

TEST(Fpu, MinMaxTiesAndNans) {
  // Bit-exact rule (fpu.cpp min_max): a +0/-0 tie yields rs1; one quiet
  // NaN yields the other operand, a signaling one comes back quieted; two
  // NaNs yield rs2 quieted.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double qnan = std::bit_cast<double>(0x7ff8'0000'0000'0001ull);
  const double snan = std::bit_cast<double>(0x7ff0'0000'0000'0002ull);
  for (const Op op : {Op::kFminD, Op::kFmaxD}) {
    EXPECT_EQ(bits(fpu_compute(op, 0.0, -0.0, 0)), bits(0.0));
    EXPECT_EQ(bits(fpu_compute(op, -0.0, 0.0, 0)), bits(-0.0));
    EXPECT_EQ(fpu_compute(op, qnan, 1.5, 0), 1.5);
    EXPECT_EQ(fpu_compute(op, 1.5, qnan, 0), 1.5);
    EXPECT_EQ(bits(fpu_compute(op, snan, 1.5, 0)), 0x7ff8'0000'0000'0002ull);
    EXPECT_EQ(bits(fpu_compute(op, qnan, snan, 0)), 0x7ff8'0000'0000'0002ull);
  }
}

TEST(Fpu, IntConversions) {
  EXPECT_EQ(fpu_compute_to_int(Op::kFeqD, 2, 2), 1u);
  EXPECT_EQ(fpu_compute_to_int(Op::kFltD, 2, 2), 0u);
  EXPECT_EQ(fpu_compute_to_int(Op::kFleD, 2, 2), 1u);
  EXPECT_EQ(fpu_compute_to_int(Op::kFcvtWD, -3.7, 0), static_cast<std::uint64_t>(-3));
  EXPECT_EQ(fpu_compute_from_int(Op::kFcvtDW, static_cast<std::uint64_t>(-5)),
            -5.0);
  const double pi = 3.14159;
  EXPECT_EQ(fpu_compute_from_int(
                Op::kFmvDX, fpu_compute_to_int(Op::kFmvXD, pi, 0)),
            pi);
}

TEST(Fpu, LatencyTable) {
  FpuParams p;
  EXPECT_EQ(fpu_latency(p, Op::kFmaddD), p.fma_latency);
  EXPECT_EQ(fpu_latency(p, Op::kFdivD), p.div_latency);
  EXPECT_EQ(fpu_latency(p, Op::kFsqrtD), p.sqrt_latency);
  EXPECT_EQ(fpu_latency(p, Op::kFsgnjD), p.misc_latency);
  EXPECT_TRUE(fpu_is_iterative(Op::kFdivD));
  EXPECT_FALSE(fpu_is_iterative(Op::kFmaddD));
}

/// Run an assembled program to completion and return the sim.
CcSimResult run_program(CcSim& sim, Assembler& a) {
  sim.set_program(a.assemble());
  return sim.run(1'000'000);
}

TEST(Snitch, AluAndBranches) {
  CcSim sim;
  Assembler a;
  // Compute sum 1..10 with a loop; store at kResult.
  const addr_t result = sim.alloc(8);
  a.li(kT0, 10);
  a.li(kT1, 0);
  Label loop = a.here();
  a.add(kT1, kT1, kT0);
  a.addi(kT0, kT0, -1);
  a.bne(kT0, kZero, loop);
  a.li(kT2, static_cast<std::int64_t>(result));
  a.sd(kT1, kT2, 0);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(result), 55u);
}

TEST(Snitch, LoadStoreAllWidths) {
  CcSim sim;
  const addr_t src = sim.alloc(16);
  const addr_t dst = sim.alloc(64);
  sim.mem().store_u64(src, 0xfedc'ba98'7654'3210ull);
  Assembler a;
  a.li(kS1, static_cast<std::int64_t>(src));
  a.li(kS2, static_cast<std::int64_t>(dst));
  a.lb(kT0, kS1, 0);
  a.sd(kT0, kS2, 0);
  a.lbu(kT0, kS1, 0);
  a.sd(kT0, kS2, 8);
  a.lh(kT0, kS1, 0);
  a.sd(kT0, kS2, 16);
  a.lhu(kT0, kS1, 0);
  a.sd(kT0, kS2, 24);
  a.lw(kT0, kS1, 4);
  a.sd(kT0, kS2, 32);
  a.lwu(kT0, kS1, 4);
  a.sd(kT0, kS2, 40);
  a.ld(kT0, kS1, 0);
  a.sd(kT0, kS2, 48);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(dst + 0), 0x10u);  // lb 0x10 positive
  EXPECT_EQ(sim.mem().load_u64(dst + 8), 0x10u);
  EXPECT_EQ(sim.mem().load_u64(dst + 16), 0x3210u);
  EXPECT_EQ(sim.mem().load_u64(dst + 24), 0x3210u);
  EXPECT_EQ(sim.mem().load_u64(dst + 32), 0xffff'ffff'fedc'ba98ull);  // lw sx
  EXPECT_EQ(sim.mem().load_u64(dst + 40), 0xfedc'ba98ull);            // lwu
  EXPECT_EQ(sim.mem().load_u64(dst + 48), 0xfedc'ba98'7654'3210ull);
}

TEST(Snitch, MulDivRem) {
  CcSim sim;
  const addr_t out = sim.alloc(32);
  Assembler a;
  a.li(kT0, -7);
  a.li(kT1, 3);
  a.li(kS2, static_cast<std::int64_t>(out));
  a.mul(kT2, kT0, kT1);
  a.sd(kT2, kS2, 0);
  a.div(kT2, kT0, kT1);
  a.sd(kT2, kS2, 8);
  a.rem(kT2, kT0, kT1);
  a.sd(kT2, kS2, 16);
  a.remu(kT2, kT1, kT1);
  a.sd(kT2, kS2, 24);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(static_cast<std::int64_t>(sim.mem().load_u64(out)), -21);
  EXPECT_EQ(static_cast<std::int64_t>(sim.mem().load_u64(out + 8)), -2);
  EXPECT_EQ(static_cast<std::int64_t>(sim.mem().load_u64(out + 16)), -1);
  EXPECT_EQ(sim.mem().load_u64(out + 24), 0u);
}

TEST(Snitch, CsrCycleAndHartid) {
  CcSim sim;
  const addr_t out = sim.alloc(16);
  Assembler a;
  a.li(kS2, static_cast<std::int64_t>(out));
  a.csrrs(kT0, kCsrMhartid, kZero);
  a.sd(kT0, kS2, 0);
  a.csrrs(kT1, kCsrCycle, kZero);
  a.sd(kT1, kS2, 8);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(out), 0u);
  EXPECT_GT(sim.mem().load_u64(out + 8), 0u);
}

TEST(Snitch, JalAndRet) {
  CcSim sim;
  const addr_t out = sim.alloc(8);
  Assembler a;
  Label func = a.make_label();
  Label done = a.make_label();
  a.li(kA0, 5);
  a.jal(kRa, func);
  a.li(kS2, static_cast<std::int64_t>(out));
  a.sd(kA0, kS2, 0);
  a.j(done);
  a.bind(func);  // doubles its argument
  a.add(kA0, kA0, kA0);
  a.ret();
  a.bind(done);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(out), 10u);
}

TEST(Fpss, FpArithmeticThroughOffload) {
  CcSim sim;
  const addr_t in = sim.alloc(16);
  const addr_t out = sim.alloc(8);
  sim.mem().store_f64(in, 2.5);
  sim.mem().store_f64(in + 8, 4.0);
  Assembler a;
  a.li(kS1, static_cast<std::int64_t>(in));
  a.li(kS2, static_cast<std::int64_t>(out));
  a.fld(kFa0, kS1, 0);
  a.fld(kFa1, kS1, 8);
  a.fmul_d(kFa2, kFa0, kFa1);
  a.fadd_d(kFa2, kFa2, kFa0);
  a.fsd(kFa2, kS2, 0);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.read_f64(out), 2.5 * 4.0 + 2.5);
}

TEST(Fpss, FpToIntWritebackAndCompare) {
  CcSim sim;
  const addr_t out = sim.alloc(16);
  Assembler a;
  a.li(kT0, 7);
  a.fcvt_d_w(kFa0, kT0);
  a.li(kT1, 3);
  a.fcvt_d_w(kFa1, kT1);
  a.flt_d(kT2, kFa1, kFa0);  // 3 < 7 -> 1
  a.fcvt_w_d(kT3, kFa0);     // 7
  a.li(kS2, static_cast<std::int64_t>(out));
  a.sd(kT2, kS2, 0);
  a.sd(kT3, kS2, 8);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(out), 1u);
  EXPECT_EQ(sim.mem().load_u64(out + 8), 7u);
}

TEST(Fpss, PseudoDualIssueOverlapsIntegerWork) {
  // A long fdiv chain should not block independent integer instructions:
  // the core keeps issuing while the FPU subsystem grinds.
  CcSimConfig cfg;
  CcSim sim(cfg);
  const addr_t out = sim.alloc(16);
  Assembler a;
  a.li(kT0, 9);
  a.fcvt_d_w(kFa0, kT0);
  a.fdiv_d(kFa1, kFa0, kFa0);
  a.fdiv_d(kFa1, kFa1, kFa0);  // dependent, iterative
  // Independent integer work the core can run under the divides.
  a.li(kT1, 0);
  for (int i = 0; i < 10; ++i) a.addi(kT1, kT1, 1);
  a.li(kS2, static_cast<std::int64_t>(out));
  a.sd(kT1, kS2, 0);
  a.csrrs(kT2, kCsrCycle, kZero);  // after int work, before fpu sync
  kernels::emit_fpss_sync(a);
  a.csrrs(kT3, kCsrCycle, kZero);  // after sync
  a.sub(kT3, kT3, kT2);
  a.sd(kT3, kS2, 8);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(out), 10u);
  // The sync had to wait for the divide chain: a nonzero gap proves the
  // core ran ahead of the FPU subsystem.
  EXPECT_GT(sim.mem().load_u64(out + 8), 3u);
}

TEST(Fpss, FrepRepeatsBlock) {
  // FREP over two instructions, 5 iterations: fa0 += 1.0 twice per iter.
  CcSim sim;
  const addr_t out = sim.alloc(8);
  Assembler a;
  a.li(kT0, 1);
  a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
  a.fzero(kFa0);
  a.li(kT1, 4);           // 5 iterations
  a.frep(kT1, 2);
  a.fadd_d(kFa0, kFa0, kFa1);
  a.fadd_d(kFa0, kFa0, kFa1);
  a.li(kS2, static_cast<std::int64_t>(out));
  kernels::emit_fpss_sync(a);
  a.fsd(kFa0, kS2, 0);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.read_f64(out), 10.0);
}

TEST(Fpss, FrepStaggersDestination) {
  // Stagger rd over 4 registers: 8 iterations of "fadd ft2, fa1, fa2"
  // write ft2..ft5 twice each with fa1+fa2.
  CcSim sim;
  const addr_t out = sim.alloc(32);
  Assembler a;
  a.li(kT0, 3);
  a.fcvt_d_w(kFa1, kT0);
  a.li(kT0, 4);
  a.fcvt_d_w(kFa2, kT0);
  kernels::emit_zero_accs(a, kFt2, 4);
  a.li(kT1, 7);  // 8 iterations
  a.frep(kT1, 1, /*stagger_max=*/3, /*stagger_mask=*/0b0001);
  a.fadd_d(kFt2, kFa1, kFa2);
  a.li(kS2, static_cast<std::int64_t>(out));
  kernels::emit_fpss_sync(a);
  a.fsd(kFt2, kS2, 0);
  a.fsd(kFt3, kS2, 8);
  a.fsd(kFt4, kS2, 16);
  a.fsd(kFt5, kS2, 24);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sim.read_f64(out + 8 * i), 7.0);
}

TEST(Fpss, FrepSingleIteration) {
  CcSim sim;
  const addr_t out = sim.alloc(8);
  Assembler a;
  a.li(kT0, 2);
  a.fcvt_d_w(kFa1, kT0);
  a.fzero(kFa0);
  a.li(kT1, 0);  // exactly one iteration
  a.frep(kT1, 1);
  a.fadd_d(kFa0, kFa0, kFa1);
  a.li(kS2, static_cast<std::int64_t>(out));
  kernels::emit_fpss_sync(a);
  a.fsd(kFa0, kS2, 0);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.read_f64(out), 2.0);
}

// --- FREP edge cases (pinned cycle counts) -----------------------------------
//
// Each shape's cycle count and stall buckets are pinned to the committed
// constants, so any timing drift in FREP sequencing fails loudly here
// before the differential fuzzer has to find it.

/// Stall buckets in trace::Bucket order: fp_compute, issue, barrier,
/// noc_contention, idx_serializer, tcdm_conflict, stream_starved, drain,
/// other.
using BucketPins = std::array<std::uint64_t, trace::kNumBuckets>;

BucketPins bucket_counts(const trace::StallBuckets& s) {
  BucketPins b{};
  std::copy(std::begin(s.counts), std::end(s.counts), b.begin());
  return b;
}

/// Run `build`'s program twice: under a trace sink, which ticks every
/// unit every cycle, and untraced, where the fused executor may run the
/// FREP replay. Expect both runs complete at the pinned cycle count and
/// stall buckets with equal core and FPSS counters, then value-check the
/// untraced sim.
template <typename Build>
void run_pinned(Build&& build, cycle_t pinned_cycles,
                const BucketPins& pinned_buckets,
                const std::function<void(CcSim&)>& check) {
  trace::RingBufferSink sink(1u << 12);
  CcSim traced;
  Assembler ta;
  build(traced, ta);
  traced.set_program(ta.assemble());
  traced.attach_trace(sink);
  const CcSimResult t = traced.run(1'000'000);

  CcSim sim;
  Assembler a;
  build(sim, a);
  const CcSimResult r = run_program(sim, a);
  ASSERT_FALSE(r.aborted) << r.fault.describe();
  ASSERT_FALSE(t.aborted) << t.fault.describe();
  EXPECT_EQ(r.cycles, pinned_cycles);
  EXPECT_EQ(t.cycles, pinned_cycles);
  EXPECT_EQ(bucket_counts(r.stalls), pinned_buckets);
  EXPECT_EQ(bucket_counts(t.stalls), pinned_buckets);
  EXPECT_EQ(r.core, t.core);
  EXPECT_EQ(r.fpss, t.fpss);
  check(sim);
}

TEST(FrepEdge, ZeroInstsIsNoOpLoop) {
  // frep_insts == 0 is unreachable through the assembler (it asserts) but
  // representable in the encoding; the sequencer must treat it as an
  // empty loop and leave the following FP op as a plain one-shot issue.
  CcSim sim;
  const addr_t out = sim.alloc(8);
  Assembler a;
  a.li(kT0, 1);
  a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
  a.fzero(kFa0);
  a.li(kT1, 9);   // ten iterations of an empty body
  a.frep(kT1, 1); // insts field patched to 0 below
  a.fadd_d(kFa0, kFa0, kFa1);  // NOT the loop body: runs exactly once
  a.li(kS2, static_cast<std::int64_t>(out));
  kernels::emit_fpss_sync(a);
  a.fsd(kFa0, kS2, 0);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  const isa::Program assembled = a.assemble();
  std::vector<insn_word_t> words = assembled.words();
  for (std::size_t i = 0; i < assembled.insts().size(); ++i) {
    if (assembled.insts()[i].op == Op::kFrep) words[i] &= ~(0xFu << 20);
  }
  sim.set_program(isa::Program(std::move(words)));
  const CcSimResult r = sim.run(1'000'000);
  ASSERT_FALSE(r.aborted) << r.fault.describe();
  EXPECT_EQ(r.cycles, 13u);
  EXPECT_EQ(sim.read_f64(out), 1.0);
}

TEST(FrepEdge, StaggerWrapsAtMaxPlusOne) {
  // stagger_max = 2 staggers rd over ft2..ft4; iteration max+1 must wrap
  // back to ft2. The body reads unstaggered ft2, so the wrap is visible
  // in the values: without it ft2 would stay at 1.0.
  addr_t out = 0;
  run_pinned(
      [&](CcSim& sim, Assembler& a) {
        out = sim.alloc(24);
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        kernels::emit_zero_accs(a, kFt2, 3);
        a.li(kT1, 3);  // four iterations: offsets 0,1,2 then wrap to 0
        a.frep(kT1, 1, /*stagger_max=*/2, /*stagger_mask=*/0b0001);
        a.fadd_d(kFt2, kFt2, kFa1);
        a.li(kS2, static_cast<std::int64_t>(out));
        kernels::emit_fpss_sync(a);
        a.fsd(kFt2, kS2, 0);
        a.fsd(kFt3, kS2, 8);
        a.fsd(kFt4, kS2, 16);
        kernels::emit_fpss_sync(a);
        kernels::emit_halt(a);
      },
      /*pinned_cycles=*/23u, BucketPins{4, 14, 0, 0, 0, 0, 0, 5, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.read_f64(out), 2.0);      // iter 0 and the wrap
        EXPECT_EQ(sim.read_f64(out + 8), 2.0);  // read ft2 after iter 0
        EXPECT_EQ(sim.read_f64(out + 16), 2.0);
      });
}

TEST(FrepEdge, ReplayOutlivesProgramEnd) {
  // The FREP body is the final FP instruction and the core halts right
  // behind it: replay keeps draining past the halt, and quiescence must
  // wait for the sequencer rather than truncate the loop.
  run_pinned(
      [&](CcSim&, Assembler& a) {
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        a.fzero(kFa0);
        a.li(kT1, 49);  // 50 iterations outlive the immediate halt
        a.frep(kT1, 1);
        a.fadd_d(kFa0, kFa0, kFa1);
        kernels::emit_halt(a);
      },
      /*pinned_cycles=*/205u, BucketPins{50, 6, 0, 0, 0, 0, 0, 149, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.cc().fpss().freg(static_cast<unsigned>(kFa0)), 50.0);
      });
}

TEST(FrepEdge, BackToBackFrepsReplayInOrder) {
  // A second FREP offloaded while the first is still replaying queues
  // behind it; the value pins the ordering (the second loop's read of
  // fa0 must observe the first loop's final sum).
  addr_t out = 0;
  run_pinned(
      [&](CcSim& sim, Assembler& a) {
        out = sim.alloc(16);
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        a.fzero(kFa0);
        a.fzero(kFa2);
        a.li(kT1, 9);
        a.frep(kT1, 1);
        a.fadd_d(kFa0, kFa0, kFa1);  // fa0 = 10 after loop 1
        a.li(kT2, 4);
        a.frep(kT2, 1);
        a.fadd_d(kFa2, kFa2, kFa0);  // fa2 = 5 * 10 after loop 2
        a.li(kS2, static_cast<std::int64_t>(out));
        kernels::emit_fpss_sync(a);
        a.fsd(kFa0, kS2, 0);
        a.fsd(kFa2, kS2, 8);
        kernels::emit_fpss_sync(a);
        kernels::emit_halt(a);
      },
      /*pinned_cycles=*/71u, BucketPins{15, 15, 0, 0, 0, 0, 0, 41, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.read_f64(out), 10.0);
        EXPECT_EQ(sim.read_f64(out + 8), 50.0);
      });
}

TEST(FrepEdge, IntegerOpInterleavedWithBody) {
  // Integer instructions execute on the core and never reach the FPU
  // subsystem, so an addi between the FREP head's two FP instructions is
  // not part of the captured body: the loop repeats the two fadds, and
  // the addi runs once. The captured body is not the two instructions
  // after the FREP, which this shape and the next two pin.
  addr_t out = 0;
  run_pinned(
      [&](CcSim& sim, Assembler& a) {
        out = sim.alloc(16);
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        a.fzero(kFa0);
        a.fzero(kFa2);
        a.li(kT2, 0);
        a.li(kT1, 2);  // three iterations
        a.frep(kT1, 2);
        a.fadd_d(kFa0, kFa0, kFa1);
        a.addi(kT2, kT2, 1);
        a.fadd_d(kFa2, kFa2, kFa0);  // fa2 = 1 + 2 + 3
        a.li(kS2, static_cast<std::int64_t>(out));
        kernels::emit_fpss_sync(a);
        a.fsd(kFa0, kS2, 0);
        a.fsd(kFa2, kS2, 8);
        kernels::emit_fpss_sync(a);
        kernels::emit_halt(a);
      },
      /*pinned_cycles=*/30u, BucketPins{6, 15, 0, 0, 0, 0, 0, 9, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.read_f64(out), 3.0);
        EXPECT_EQ(sim.read_f64(out + 8), 6.0);
        EXPECT_EQ(sim.cc().core().xreg(kT2), 1u);
      });
}

TEST(FrepEdge, BranchInsideBodyWindow) {
  // A jump right after the first body instruction: the second captured
  // fadd is the jump target, and the instructions jumped over are never
  // offloaded or executed.
  addr_t out = 0;
  run_pinned(
      [&](CcSim& sim, Assembler& a) {
        out = sim.alloc(16);
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        a.fzero(kFa0);
        a.fzero(kFa2);
        a.li(kT2, 0);
        a.li(kT1, 2);  // three iterations
        a.frep(kT1, 2);
        a.fadd_d(kFa0, kFa0, kFa1);
        const Label skip = a.make_label();
        a.j(skip);
        a.fmul_d(kFa2, kFa2, kFa2);
        a.addi(kT2, kT2, 1);
        a.bind(skip);
        a.fadd_d(kFa2, kFa2, kFa0);  // fa2 = 1 + 2 + 3
        a.li(kS2, static_cast<std::int64_t>(out));
        kernels::emit_fpss_sync(a);
        a.fsd(kFa0, kS2, 0);
        a.fsd(kFa2, kS2, 8);
        kernels::emit_fpss_sync(a);
        kernels::emit_halt(a);
      },
      /*pinned_cycles=*/30u, BucketPins{6, 15, 0, 0, 0, 0, 0, 9, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.read_f64(out), 3.0);
        EXPECT_EQ(sim.read_f64(out + 8), 6.0);
        EXPECT_EQ(sim.cc().core().xreg(kT2), 0u);
      });
}

TEST(FrepEdge, BodyWindowPastProgramEnd) {
  // The FREP is the second-to-last instruction and the last one jumps
  // back to the body, so fewer than frep_insts instructions follow the
  // FREP in the program.
  addr_t out = 0;
  run_pinned(
      [&](CcSim& sim, Assembler& a) {
        out = sim.alloc(16);
        const Label frep = a.make_label();
        const Label body = a.make_label();
        a.li(kT0, 1);
        a.fcvt_d_w(kFa1, kT0);  // fa1 = 1.0
        a.fzero(kFa0);
        a.fzero(kFa2);
        a.j(frep);
        a.bind(body);
        a.fadd_d(kFa0, kFa0, kFa1);
        a.fadd_d(kFa2, kFa2, kFa0);  // fa2 = 1 + 2 + 3
        a.li(kS2, static_cast<std::int64_t>(out));
        kernels::emit_fpss_sync(a);
        a.fsd(kFa0, kS2, 0);
        a.fsd(kFa2, kS2, 8);
        kernels::emit_fpss_sync(a);
        kernels::emit_halt(a);
        a.bind(frep);
        a.li(kT1, 2);  // three iterations
        a.frep(kT1, 2);
        a.j(body);
      },
      /*pinned_cycles=*/31u, BucketPins{6, 15, 0, 0, 0, 0, 0, 10, 0},
      [&](CcSim& sim) {
        EXPECT_EQ(sim.read_f64(out), 3.0);
        EXPECT_EQ(sim.read_f64(out + 8), 6.0);
      });
}

TEST(Streamer, CsrConfigurationArmsJobs) {
  CcSim sim;
  const addr_t data = sim.alloc(64);
  for (int i = 0; i < 8; ++i) sim.mem().store_f64(data + 8 * i, i + 0.5);
  const addr_t out = sim.alloc(8);
  Assembler a;
  kernels::emit_affine_job(a, 0, data, 8);
  kernels::emit_ssr_enable(a);
  a.fzero(kFa0);
  a.li(kT0, 7);
  a.frep(kT0, 1);
  a.fadd_d(kFa0, kFa0, kFt0);
  a.li(kS2, static_cast<std::int64_t>(out));
  kernels::emit_sync_and_disable(a);
  a.fsd(kFa0, kS2, 0);
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.read_f64(out), 8 * 0.5 + (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(Streamer, StatusCsrReflectsActivity) {
  CcSim sim;
  const addr_t data = sim.alloc(8192);
  const addr_t out = sim.alloc(8);
  Assembler a;
  kernels::emit_affine_job(a, 0, data, 1000);  // long-running job
  a.csrrs(kT0, ssr_csr(0, SsrCfgReg::kStatus), kZero);
  a.li(kS2, static_cast<std::int64_t>(out));
  a.sd(kT0, kS2, 0);
  kernels::emit_ssr_enable(a);
  // Drain the stream so the run can finish.
  a.li(kT1, 999);
  a.frep(kT1, 1);
  a.fsgnj_d(kFa0, kFt0, kFt0);
  kernels::emit_sync_and_disable(a);
  kernels::emit_halt(a);
  run_program(sim, a);
  EXPECT_EQ(sim.mem().load_u64(out) & 1u, 1u);  // job active bit
}

TEST(Snitch, BranchPenaltyConfigurable) {
  for (const unsigned pen : {0u, 2u}) {
    CcSimConfig cfg;
    cfg.cc.core.branch_penalty = pen;
    CcSim sim(cfg);
    Assembler a;
    a.li(kT0, 100);
    Label loop = a.here();
    a.addi(kT0, kT0, -1);
    a.bne(kT0, kZero, loop);
    kernels::emit_halt(a);
    const auto r = run_program(sim, a);
    // Loop body: 2 instructions + penalty per taken branch.
    const cycle_t expect = 100 * (2 + pen);
    EXPECT_NEAR(static_cast<double>(r.cycles), static_cast<double>(expect),
                8.0);
  }
}

}  // namespace
}  // namespace issr::core
