// Differential fuzz harness for the fused cycle executor
// (core/compile.hpp): seeded random programs — RV32I ALU/branch/memory
// mixes, FP blocks, FREP loops with stagger, SSR/ISSR stream jobs,
// boundary-adjacent branches — run once untraced (fused wherever the
// executor's gate allows) and once with a trace sink attached (every
// cycle ticked unit by unit, never fused), asserting bitwise-equal cycle
// counts, statistic counters, stall buckets, register files, and memory
// images. Both runs must also reproduce a pinned per-seed fingerprint of
// all of these. Every divergence prints the seed so the exact program
// replays under a debugger.
//
// The generator is a pure function of the seed (common/rng.hpp xoshiro,
// deterministic across platforms), so a CI failure line like
// "seed 137" reproduces locally with no corpus files.
//
// Constraints the generator honors (model-defined limits, each pinned
// by its own targeted test elsewhere):
//  - FREP does not nest (fpss.cpp asserts); back-to-back FREPs are fine.
//  - fld into a stream register (ft0/ft1) is unsupported.
//  - Stream jobs are consumed exactly: pops == configured count, so
//    every program terminates and the final sync cannot wedge.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sim.hpp"
#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"
#include "sparse/fiber.hpp"
#include "trace/ring.hpp"

namespace issr::core {
namespace {

using namespace issr::isa;

constexpr std::size_t kDataElems = 64;    ///< streamable doubles
constexpr std::size_t kIdxElems = 48;     ///< indirection indices
constexpr std::size_t kScratchSlots = 64; ///< load/store u64 slots

// Clobberable integer registers. Excludes t5/t6 (scratch of the
// kernels::emit_* helpers), s10/s11 (pinned base pointers below), and
// the counter set (next).
constexpr Xreg kXPool[] = {kT1, kT2, kS0, kS1, kA0, kA1, kA2, kA3,
                           kA4, kA5, kA6, kA7, kS2, kS3, kS4, kS5,
                           kS6, kS7};
// Loop/FREP trip counters. Loads and FPSS integer writebacks land in
// their destination register cycles after issue and the model lets the
// late writeback win a WAW race — so a counter clobbered mid-loop by a
// stale load never reaches zero. Counters therefore come from a set the
// generator never uses as a load or FPSS-comparison destination.
constexpr Xreg kXCounters[] = {kT0, kT3, kT4, kS8};
constexpr Xreg kScratchBase = kS10;  ///< holds the scratch block address
constexpr Xreg kDataBase = kS11;     ///< holds the staged-data address

// Clobberable FP registers. Excludes ft0/ft1 (stream registers),
// ft2..ft5 (stream-FREP stagger accumulators), and f24..f31 (plain-FREP
// stagger window) so staggered operand fields never wrap onto a stream
// register.
constexpr Freg kFPool[] = {kFt6, kFt7, kFs0, kFs1, kFa0, kFa1, kFa2, kFa3,
                           kFa4, kFa5, kFa6, kFa7, kFs2, kFs3, kFs4, kFs5};
constexpr unsigned kFrepWindowBase = 24;  ///< f24..f31: staggered bodies

/// Segment-mix profiles: every profile can draw every segment kind, the
/// weights just concentrate coverage (stream-heavy seeds spend their
/// cycles in the fused steady-state loop, branch-heavy seeds in the
/// block-boundary seams).
enum class Profile { kMixed, kStreamHeavy, kFrepHeavy, kBranchHeavy };

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&pool)[N]) {
  return pool[rng.uniform_int(0, N - 1)];
}

Xreg pick_x(Rng& rng) { return pick(rng, kXPool); }
Xreg pick_counter(Rng& rng) { return pick(rng, kXCounters); }
Freg pick_f(Rng& rng) { return pick(rng, kFPool); }

/// One random register-to-register ALU op, rd constrained to differ
/// from `avoid` (loop counters must survive their loop body).
void emit_alu_op(Rng& rng, Assembler& a, Xreg avoid) {
  Xreg rd = pick_x(rng);
  while (rd == avoid) rd = pick_x(rng);
  const Xreg rs1 = pick_x(rng);
  const Xreg rs2 = pick_x(rng);
  const auto imm = static_cast<std::int32_t>(rng.uniform_int(0, 4095)) - 2048;
  switch (rng.uniform_int(0, 15)) {
    case 0: a.add(rd, rs1, rs2); break;
    case 1: a.sub(rd, rs1, rs2); break;
    case 2: a.xor_(rd, rs1, rs2); break;
    case 3: a.or_(rd, rs1, rs2); break;
    case 4: a.and_(rd, rs1, rs2); break;
    case 5: a.sll(rd, rs1, rs2); break;
    case 6: a.srl(rd, rs1, rs2); break;
    case 7: a.sra(rd, rs1, rs2); break;
    case 8: a.slt(rd, rs1, rs2); break;
    case 9: a.sltu(rd, rs1, rs2); break;
    case 10: a.addi(rd, rs1, imm); break;
    case 11: a.xori(rd, rs1, imm); break;
    case 12: a.slli(rd, rs1, static_cast<unsigned>(rng.uniform_int(0, 63))); break;
    case 13: a.mul(rd, rs1, rs2); break;
    case 14: a.div(rd, rs1, rs2); break;  // div-by-zero is defined (-1)
    default: a.remu(rd, rs1, rs2); break;
  }
}

/// One random FP compute op on the pool registers (no loads/stores).
void emit_fp_op(Rng& rng, Assembler& a) {
  const Freg rd = pick_f(rng);
  const Freg rs1 = pick_f(rng);
  const Freg rs2 = pick_f(rng);
  const Freg rs3 = pick_f(rng);
  switch (rng.uniform_int(0, 9)) {
    case 0: a.fadd_d(rd, rs1, rs2); break;
    case 1: a.fsub_d(rd, rs1, rs2); break;
    case 2: a.fmul_d(rd, rs1, rs2); break;
    case 3: a.fmadd_d(rd, rs1, rs2, rs3); break;
    case 4: a.fnmsub_d(rd, rs1, rs2, rs3); break;
    case 5: a.fsgnjx_d(rd, rs1, rs2); break;
    case 6: a.fmin_d(rd, rs1, rs2); break;
    case 7: a.fmax_d(rd, rs1, rs2); break;
    case 8: a.fdiv_d(rd, rs1, rs2); break;  // iterative unit
    default: a.fmsub_d(rd, rs1, rs2, rs3); break;
  }
}

/// Ops crossing the core/FPSS boundary with an integer operand or an
/// integer result (the kFromInt and kToInt FPSS micro-op kinds).
void emit_fp_cross_op(Rng& rng, Assembler& a) {
  const Freg f = pick_f(rng);
  const Xreg x = pick_x(rng);
  switch (rng.uniform_int(0, 5)) {
    case 0: a.fcvt_d_w(f, x); break;
    case 1: a.fmv_d_x(f, x); break;
    case 2: a.fmv_x_d(x, f); break;
    case 3: a.fcvt_w_d(x, f); break;
    case 4: a.feq_d(x, f, pick_f(rng)); break;
    default: a.fle_d(x, f, pick_f(rng)); break;
  }
}

/// Aligned load/store pair against the scratch block.
void emit_mem_op(Rng& rng, Assembler& a) {
  const auto slot = static_cast<std::int32_t>(
      rng.uniform_int(0, kScratchSlots - 1) * 8);
  const Xreg r = pick_x(rng);
  switch (rng.uniform_int(0, 7)) {
    case 0: a.sd(r, kScratchBase, slot); break;
    case 1: a.sw(r, kScratchBase, slot + 4); break;
    case 2: a.sh(r, kScratchBase, slot + 2); break;
    case 3: a.sb(r, kScratchBase, slot + static_cast<std::int32_t>(
                                             rng.uniform_int(0, 7))); break;
    case 4: a.ld(r, kScratchBase, slot); break;
    case 5: a.lwu(r, kScratchBase, slot + 4); break;
    case 6: a.lhu(r, kScratchBase, slot + 2); break;
    default: a.fld(pick_f(rng), kScratchBase, slot); break;
  }
  if (rng.uniform_int(0, 1) == 0) {
    a.fsd(pick_f(rng), kScratchBase,
          static_cast<std::int32_t>(rng.uniform_int(0, kScratchSlots - 1) * 8));
  }
}

/// Bounded counted loop: the taken-backward-branch seam, with the body
/// constrained to never clobber the counter.
void emit_loop(Rng& rng, Assembler& a) {
  const Xreg c = pick_counter(rng);
  a.li(c, static_cast<std::int64_t>(rng.uniform_int(1, 5)));
  const Label top = a.here();
  const unsigned body = static_cast<unsigned>(rng.uniform_int(1, 3));
  for (unsigned i = 0; i < body; ++i) emit_alu_op(rng, a, c);
  a.addi(c, c, -1);
  a.bne(c, kZero, top);
}

/// Forward conditional branch over 1..3 instructions — lands the
/// not-taken/taken paths directly adjacent to whatever the next segment
/// emits (FREP setup, stream CSR writes, or the final halt).
void emit_skip(Rng& rng, Assembler& a) {
  const Xreg r1 = pick_x(rng);
  const Xreg r2 = pick_x(rng);
  const Label skip = a.make_label();
  switch (rng.uniform_int(0, 3)) {
    case 0: a.beq(r1, r2, skip); break;
    case 1: a.bne(r1, r2, skip); break;
    case 2: a.blt(r1, r2, skip); break;
    default: a.bgeu(r1, r2, skip); break;
  }
  const unsigned skipped = static_cast<unsigned>(rng.uniform_int(1, 3));
  for (unsigned i = 0; i < skipped; ++i) {
    if (rng.uniform_int(0, 2) == 0) {
      emit_fp_op(rng, a);
    } else {
      emit_alu_op(rng, a, kZero);
    }
  }
  a.bind(skip);
}

/// FREP over a plain (non-streaming) FP body confined to the f24..f31
/// stagger window so staggered operand fields stay off the stream
/// registers. Memory operations inside FREP bodies are model-rejected
/// (fpss.cpp asserts), so bodies are pure FP compute.
void emit_frep(Rng& rng, Assembler& a) {
  const unsigned reps = static_cast<unsigned>(rng.uniform_int(1, 6));
  const unsigned insts = static_cast<unsigned>(rng.uniform_int(1, 4));
  const bool stagger = rng.uniform_int(0, 1) == 1;
  const unsigned max = stagger ? static_cast<unsigned>(rng.uniform_int(1, 3)) : 0;
  const unsigned mask = stagger ? static_cast<unsigned>(rng.uniform_int(1, 15)) : 0;
  const Xreg c = pick_counter(rng);
  a.li(c, reps - 1);
  a.frep(c, insts, max, mask);
  auto wreg = [&](void) -> Freg {
    return static_cast<Freg>(
        rng.uniform_int(kFrepWindowBase, 31 - max));
  };
  for (unsigned i = 0; i < insts; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: a.fmadd_d(wreg(), wreg(), wreg(), wreg()); break;
      case 1: a.fadd_d(wreg(), wreg(), wreg()); break;
      case 2: a.fmul_d(wreg(), wreg(), wreg()); break;
      default: a.fsgnjx_d(wreg(), wreg(), wreg()); break;
    }
  }
}

/// SSR/ISSR stream segment mirroring the paper kernels: an affine job on
/// lane 0 and optionally an indirection job on lane 1, consumed exactly
/// by a staggered FREP accumulation into ft2..ft5, then sync+disable.
void emit_stream(Rng& rng, Assembler& a, addr_t data, addr_t idcs,
                 sparse::IndexWidth width, addr_t scratch) {
  const auto n = rng.uniform_int(1, kIdxElems);
  const bool indirect = rng.uniform_int(0, 1) == 1;
  const bool write_back = !indirect && rng.uniform_int(0, 2) == 0;
  const unsigned n_acc = static_cast<unsigned>(rng.uniform_int(1, 4));

  if (write_back) {
    // Write stream: each architectural write to ft0 stores one element.
    kernels::emit_affine_job(a, 0, scratch, n, 8, /*write=*/true);
    kernels::emit_ssr_enable(a);
    a.li(kT0, static_cast<std::int64_t>(n - 1));
    a.frep(kT0, 1);
    a.fsgnj_d(kFt0, pick_f(rng), pick_f(rng));
    kernels::emit_sync_and_disable(a);
    return;
  }

  kernels::emit_affine_job(a, 0, data, n);
  if (indirect) {
    kernels::emit_indirect_job(a, 1, data, idcs, n, width);
  }
  kernels::emit_ssr_enable(a);
  a.li(kT0, static_cast<std::int64_t>(n - 1));
  a.frep(kT0, 1, n_acc - 1, kernels::kStaggerRdRs3);
  if (indirect) {
    a.fmadd_d(kFt2, kFt0, kFt1, kFt2);
  } else {
    a.fmadd_d(kFt2, kFt0, pick_f(rng), kFt2);
  }
  kernels::emit_sync_and_disable(a);
}

/// Everything one run produced, down to register bit patterns.
struct SeedRun {
  CcSimResult r;
  addr_t data = 0, idcs = 0, scratch = 0;
  std::array<std::uint64_t, 32> x{};
  std::array<std::uint64_t, 32> f{};
  std::vector<std::uint64_t> mem;
};

/// Build and run the seed's program, traced or not. The generator's rng
/// stream never depends on `traced`, so both runs see the identical
/// program, staging layout, and configuration.
SeedRun run_program(std::uint64_t seed, Profile profile, bool traced,
                    std::string* listing = nullptr) {
  Rng rng(seed);
  trace::RingBufferSink sink(1u << 12);

  CcSimConfig cfg;
  // Unused draw: it keeps every seed's stream, and with it the pinned
  // fingerprints, unchanged.
  rng.uniform_int(0, 3);
  const cycle_t lat[] = {1, 1, 1, 2, 4, 16};
  cfg.mem_latency = lat[rng.uniform_int(0, 5)];
  CcSim sim(cfg);

  SeedRun t;
  std::vector<double> data(kDataElems);
  for (auto& d : data) d = rng.uniform(-4.0, 4.0);
  std::vector<std::uint32_t> idcs(kIdxElems);
  for (auto& i : idcs)
    i = static_cast<std::uint32_t>(rng.uniform_int(0, kDataElems - 1));
  const auto width = rng.uniform_int(0, 1) == 0 ? sparse::IndexWidth::kU16
                                                : sparse::IndexWidth::kU32;
  // The index base must be element-aligned (the serializer computes its
  // initial word offset as (idx_base - aligned_word) / elem_bytes); an
  // element-sized misalignment inside the 8-byte fetch word still
  // exercises the partial-first-word path.
  const unsigned elem_bytes = width == sparse::IndexWidth::kU16 ? 2u : 4u;
  const unsigned misalign =
      rng.uniform_int(0, 3) == 0 ? elem_bytes : 0;
  t.data = sim.stage(data);
  t.idcs = sim.stage_indices(idcs, width, misalign);
  t.scratch = sim.alloc(8 * kScratchSlots);

  Assembler a;
  a.li(kScratchBase, static_cast<std::int64_t>(t.scratch));
  a.li(kDataBase, static_cast<std::int64_t>(t.data));
  for (int i = 0; i < 6; ++i) {
    a.li(pick_x(rng), static_cast<std::int64_t>(rng.uniform_int(0, ~0ull)));
  }
  for (int i = 0; i < 4; ++i) {
    const Xreg x = pick_x(rng);
    a.li(x, static_cast<std::int64_t>(rng.uniform_int(0, 255)) - 128);
    a.fcvt_d_w(pick_f(rng), x);
  }
  a.fld(pick_f(rng), kDataBase, 0);
  for (unsigned f = 2; f <= 5; ++f) a.fzero(static_cast<Freg>(f));

  // Per-profile segment weights (indices into the switch below).
  const unsigned mixed[] = {0, 1, 2, 3, 4, 5, 6, 7};
  const unsigned stream[] = {6, 6, 6, 5, 2, 7, 0, 3};
  const unsigned frep[] = {5, 5, 5, 5, 2, 3, 1, 7};
  const unsigned branch[] = {1, 4, 4, 0, 2, 5, 1, 6};
  const unsigned* weights = profile == Profile::kStreamHeavy ? stream
                            : profile == Profile::kFrepHeavy ? frep
                            : profile == Profile::kBranchHeavy ? branch
                                                               : mixed;
  const unsigned nseg = static_cast<unsigned>(rng.uniform_int(4, 10));
  for (unsigned s = 0; s < nseg; ++s) {
    switch (weights[rng.uniform_int(0, 7)]) {
      case 0:
        for (int i = 0, n = static_cast<int>(rng.uniform_int(3, 8)); i < n; ++i)
          emit_alu_op(rng, a, kZero);
        break;
      case 1: emit_loop(rng, a); break;
      case 2: emit_mem_op(rng, a); break;
      case 3:
        for (int i = 0, n = static_cast<int>(rng.uniform_int(2, 6)); i < n; ++i) {
          if (rng.uniform_int(0, 2) == 0) {
            emit_fp_cross_op(rng, a);
          } else {
            emit_fp_op(rng, a);
          }
        }
        break;
      case 4: emit_skip(rng, a); break;
      case 5:
        emit_frep(rng, a);
        // Back-to-back FREPs: the second setup queues behind the
        // first replay and must not be skipped past by a block.
        if (rng.uniform_int(0, 2) == 0) emit_frep(rng, a);
        break;
      case 6: emit_stream(rng, a, t.data, t.idcs, width, t.scratch); break;
      default: kernels::emit_fpss_sync(a); break;
    }
  }
  // A boundary-adjacent branch over the final pre-halt instruction, then
  // the kernel epilogue idiom: sync, result store, sync, halt. The first
  // sync drains in-flight integer writebacks (fle/fcvt.w.d results) — a
  // halted core never pops them, so halting with one pending wedges the
  // CC (model-defined; real kernels always consume or sync).
  emit_skip(rng, a);
  kernels::emit_fpss_sync(a);
  a.fsd(pick_f(rng), kScratchBase, 8 * (kScratchSlots - 1));
  kernels::emit_fpss_sync(a);
  kernels::emit_halt(a);

  if (listing != nullptr) *listing = a.listing();
  sim.set_program(a.assemble());
  if (traced) sim.attach_trace(sink);
  t.r = sim.run(2'000'000);

  for (unsigned i = 0; i < 32; ++i) {
    t.x[i] = sim.cc().core().xreg(i);
    t.f[i] = std::bit_cast<std::uint64_t>(sim.cc().fpss().freg(i));
  }
  t.mem.reserve(kDataElems + kScratchSlots);
  for (std::size_t i = 0; i < kDataElems; ++i)
    t.mem.push_back(sim.mem().load_u64(t.data + 8 * i));
  for (std::size_t i = 0; i < kScratchSlots; ++i)
    t.mem.push_back(sim.mem().load_u64(t.scratch + 8 * i));
  return t;
}

/// FNV-1a over 64-bit words (little-endian byte order).
class Fnv1a {
 public:
  void add(std::uint64_t w) {
    for (unsigned b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One word per seed over every observable run_seed compares: cycles,
/// fault code and cycle, last pc, core/FPSS/lane counters, stall buckets,
/// both register files and the staged memory words.
std::uint64_t fingerprint(const SeedRun& t) {
  Fnv1a h;
  const CcSimResult& r = t.r;
  h.add(r.cycles);
  h.add(static_cast<std::uint64_t>(r.fault.code));
  h.add(r.fault.cycle);
  h.add(r.last_pc);
  const SnitchStats& c = r.core;
  for (const std::uint64_t v :
       {c.cycles, c.issued, c.loads, c.stores, c.branches, c.taken_branches,
        c.offloads, c.stall_raw, c.stall_offload, c.stall_mem, c.stall_sync,
        c.stall_barrier, c.stall_cfg}) {
    h.add(v);
  }
  const FpssStats& f = r.fpss;
  for (const std::uint64_t v :
       {f.issued, f.fp_compute, f.fmadd, f.fmul, f.flops, f.loads, f.stores,
        f.stall_stream, f.stall_raw, f.stall_mem, f.idle_cycles}) {
    h.add(v);
  }
  for (const ssr::LaneStats* l : {&r.ssr_lane, &r.issr_lane}) {
    for (const std::uint64_t v :
         {l->jobs_started, l->data_reqs, l->idx_word_reqs, l->elems_read,
          l->elems_written, l->port_mux_conflicts, l->reg_starved_cycles}) {
      h.add(v);
    }
  }
  for (const std::uint64_t v : r.stalls.counts) h.add(v);
  for (const std::uint64_t v : t.x) h.add(v);
  for (const std::uint64_t v : t.f) h.add(v);
  for (const std::uint64_t v : t.mem) h.add(v);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Run one seed untraced and traced, demand bitwise identity of every
/// observable, and that both fingerprints equal the pinned one. The seed
/// is in every failure message for replay.
void run_seed(std::uint64_t seed, Profile profile, std::uint64_t pinned) {
  const SeedRun u = run_program(seed, profile, /*traced=*/false);
  const SeedRun t = run_program(seed, profile, /*traced=*/true);
  const std::string what = "seed " + std::to_string(seed);
  EXPECT_EQ(hex(fingerprint(u)), hex(pinned)) << what << " (untraced)";
  EXPECT_EQ(hex(fingerprint(t)), hex(pinned)) << what << " (traced)";

  ASSERT_EQ(u.data, t.data) << what << " (staging nondeterminism)";
  ASSERT_EQ(u.scratch, t.scratch) << what << " (staging nondeterminism)";
  EXPECT_EQ(u.r.cycles, t.r.cycles) << what;
  EXPECT_EQ(u.r.aborted, t.r.aborted) << what;
  EXPECT_EQ(u.r.last_pc, t.r.last_pc) << what;
  EXPECT_EQ(u.r.fault.code, t.r.fault.code) << what;
  EXPECT_EQ(u.r.fault.cycle, t.r.fault.cycle) << what;
  EXPECT_EQ(u.r.core, t.r.core) << what << " (core stats)";
  EXPECT_EQ(u.r.fpss, t.r.fpss) << what << " (fpss stats)";
  EXPECT_EQ(u.r.ssr_lane, t.r.ssr_lane) << what << " (ssr lane stats)";
  EXPECT_EQ(u.r.issr_lane, t.r.issr_lane) << what << " (issr lane stats)";
  EXPECT_EQ(u.r.stalls, t.r.stalls) << what << " (stall buckets)";
  EXPECT_EQ(u.r.stalls.total(), u.r.cycles) << what << " (bucket sum)";
  std::string buckets;
  for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
    buckets += std::string(" ") + trace::to_string(static_cast<trace::Bucket>(b)) +
               "=" + std::to_string(u.r.stalls.counts[b]);
  }
  EXPECT_FALSE(u.r.aborted) << what << " (generator emitted a wedged program)\n"
                            << u.r.fault.describe() << "\nlast_next_event="
                            << u.r.fault.last_next_event << "\nbuckets:" << buckets;
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(u.x[r], t.x[r]) << what << " " << xreg_name(r);
    EXPECT_EQ(u.f[r], t.f[r]) << what << " " << freg_name(r);
  }
  ASSERT_EQ(u.mem.size(), t.mem.size()) << what;
  for (std::size_t w = 0; w < u.mem.size(); ++w) {
    EXPECT_EQ(u.mem[w], t.mem[w]) << what << " mem word " << w;
  }
}

/// Seeds are partitioned across profiles so the suite covers both the
/// steady-state fused loop and the seam-dense shapes; 200 total, seed
/// first + i pinned to pins[i].
template <std::size_t N>
void run_range(std::uint64_t first, Profile profile,
               const std::uint64_t (&pins)[N]) {
  for (std::uint64_t seed = first; seed < first + N; ++seed) {
    run_seed(seed, profile, pins[seed - first]);
    if (::testing::Test::HasFailure()) {
      std::string listing;
      run_program(seed, profile, /*traced=*/false, &listing);
      FAIL() << "first failing seed: " << seed
             << " — replay by running this seed alone; program:\n"
             << listing;
    }
  }
}

// Per-seed fingerprints. They were captured while the core still had a
// second, instruction-interpreting execution tier; both tiers agreed on
// every seed.
constexpr std::uint64_t kMixedPins[80] = {
    0x6ee920b1812ed135ull, 0xe4f9d4c63a9df194ull, 0xac578880c4c87babull,
    0xa871df44bf677029ull, 0x74bb0291ddbdce2bull, 0xcf95c16e6a3d9007ull,
    0x95b7b04ea263a376ull, 0x7dd5ea5a4a7ede52ull, 0xc873540de590a434ull,
    0x1cd54c589d6a7758ull, 0xe51041e84674d095ull, 0xc9fa56e7dc6c567full,
    0xd648bc1264eff4daull, 0x3147b11a4b92668eull, 0x3227279fcd79bdcaull,
    0xb9c76607955ee9c4ull, 0x97aaade86f1dc7a6ull, 0x12c687d49573e458ull,
    0xc975bf02c313d339ull, 0x75dd0c29c5202110ull, 0x75635fb15743ba75ull,
    0x94a1321ba9770529ull, 0x30b00abe217e8941ull, 0x3748c22a6c06908aull,
    0x8a78f8f4a71ec0d3ull, 0xb90bc27b58eb439dull, 0x2371bb78e6c3ba44ull,
    0x1694920256b98a86ull, 0xdbb389e21e205d56ull, 0xc1f4c376f1468f8full,
    0xdaa6076676b25737ull, 0x19027b8c34bc63f1ull, 0xd246f0c8e68ed015ull,
    0x0d27d2a10eda7329ull, 0x4a7e1ea522c19a70ull, 0xc3eecf7fe742d3c1ull,
    0xa007bc8493756d9eull, 0x152730c756d24d82ull, 0xc6b654bc445a40a9ull,
    0x187d6027b484a610ull, 0x51e9fe098c0a650full, 0x2954aef23c2f36f6ull,
    0x1afdd9207bba5a84ull, 0x1f858c4ccbb25672ull, 0xcdaf5ceb8aa2d86aull,
    0xd4dbeb8fe7013b38ull, 0xad575521d13a17c4ull, 0x44c21fe51c5bfc8eull,
    0xb29e48ce153caf10ull, 0x406ce5f3ed1178d1ull, 0x75a3671b4db1b1f5ull,
    0xeaa9c72762c049ffull, 0x05ce8500ad82edd0ull, 0x51b1d8f3dffc0b3dull,
    0x5c1de6ee9c14e736ull, 0x5f67896cc954fcc1ull, 0xa66f5d71a60c1d7full,
    0x1b21705810276e27ull, 0xa40a56823951ef3bull, 0xf6e5fa483d6d21e5ull,
    0x0bb862575ff54f12ull, 0xc9c615830c2fe321ull, 0xfaed10687e142fe7ull,
    0xae073ac12113bfb5ull, 0x5b5ab701ac761459ull, 0x06db3de5c0f99ad5ull,
    0x74bf5e5d3bfc097eull, 0x267901ca5fd25f85ull, 0x23d0df9d2f86964eull,
    0xfe33d374b5135bc9ull, 0x803a44398b4606d3ull, 0x8b3b3dceeb782498ull,
    0xfc9034737b778e7full, 0xac5cbef799fe91bfull, 0x7c411d506fcd381dull,
    0x1d879f029841daa7ull, 0xbfeab14fb5b6e783ull, 0xf86401585f2d6a43ull,
    0x1123b0845afa39ccull, 0xfc77d1703e0a58bcull,
};
constexpr std::uint64_t kStreamPins[40] = {
    0x22c265399399c7f7ull, 0x5b92c4a037bb1fe4ull, 0x6b0df0eb0e7d8148ull,
    0x5717e80006b73781ull, 0x1debe6fe782c362bull, 0x7c47aab90a966cf5ull,
    0x2c0f8729f4c28161ull, 0xd2795e51f8c66c7full, 0xe6ab92e334a20bb0ull,
    0xfafabe2940d22401ull, 0xd0352eb57b1a04ddull, 0x3ca3747bae53501full,
    0x2b24c37f94cdd7efull, 0xd316bbe1dc9661aeull, 0x31d396ec7fc2afc4ull,
    0x67108f374f9b666full, 0x632120ee41dbac2aull, 0xa5faeee9d0d9d62full,
    0xf62d57441cd79483ull, 0x19e188ace6a05b53ull, 0x12d084a97190ecf1ull,
    0x10b7087c4b2d4045ull, 0x818458e085c606daull, 0x4a35f1d39c73080aull,
    0xb2f40e31ea4d58e6ull, 0xdd8ca85b95e17fd0ull, 0x95e89fb70e5236fcull,
    0xbb898841a715e975ull, 0xd0e20d8e8f78987eull, 0xebd25ca749767d43ull,
    0x312cee83cf27820bull, 0x10f8cc151e3d3936ull, 0xdbc1a9704b15c5a1ull,
    0x22a2cb01573019b6ull, 0xf67f4a143f5cfd74ull, 0x8489a2518c6acec7ull,
    0x488f7f23a2095ff5ull, 0x64941dc1cad05c6full, 0xd042d18e7c08774bull,
    0x19aab32af069ddf8ull,
};
constexpr std::uint64_t kFrepPins[40] = {
    0xf38fe53afd3ff7bbull, 0xc24679cd728f596full, 0x894fcb0f0f07ec3aull,
    0x85901434539d242dull, 0xfae9fbfac8fa8605ull, 0xfa25faae2b690c11ull,
    0xe28f22a2127c62faull, 0x25d24f033a598c98ull, 0x41809830d1fd04dfull,
    0xc74f5c1bdcb4d14cull, 0xc77304c8c5cf32a2ull, 0x6619e711055f9afeull,
    0x91597b193308391cull, 0x859f6521b329557aull, 0xfb00e9a22f12c931ull,
    0xfba34c198d993a8cull, 0x88baf12e09757544ull, 0x2dc8dc90cefd5d29ull,
    0xfb7d9ef4bfb0985eull, 0x8f60d5809c8403a4ull, 0x625537622ead971cull,
    0xa759473c13805196ull, 0xb0db5209f8193966ull, 0x603e17d09c891d12ull,
    0xb7f3c15e09fc752dull, 0x894fcb8b2762f9b4ull, 0x9511a23eb3f8c91dull,
    0xf8229ba4c9815f8full, 0xe8f38c81bff30263ull, 0x3cbdff63450bc7f1ull,
    0x91d725e3d318410bull, 0xe1e15b0a24ff81caull, 0x2f1044706e26ad62ull,
    0x2e6b58e4a012113full, 0xd8fc5179f2010163ull, 0x524e0d31087fdda2ull,
    0x8dd6967e2ac5b39aull, 0x40c36258a758b8beull, 0xdb1d66aca6fed17aull,
    0xeb6e0ce95aac3bcbull,
};
constexpr std::uint64_t kBranchPins[40] = {
    0xb289f4c2aa69daa0ull, 0xafcdf02e316b6edeull, 0x3f3316cf7bc2cfdcull,
    0x59b7686b8b104fa7ull, 0x195f5877589a5b5dull, 0xe44c9f2bdb02306full,
    0x05eb762affbd90e8ull, 0xc65ec777685fb36cull, 0x300989820d534c83ull,
    0x61565246cf5aa5a2ull, 0x5c5008d337708411ull, 0x98c37c89154952e9ull,
    0xf92f54a5c52334e4ull, 0x826c6c3058e0c805ull, 0x960c3e24b0c84a6dull,
    0x90d9ebab87ab9485ull, 0x3e63850c1634cca3ull, 0x705ecb55b40af67full,
    0x648a62bb185733c6ull, 0x3ae9faa24c6293a9ull, 0x63d4e35d6e9d49caull,
    0xec83637003f8ef04ull, 0x81f540d27a101490ull, 0x048d0334e2fc2b14ull,
    0x96199d9a03bda44full, 0x570adf7010ebb86eull, 0xfa14e226b4a79c9dull,
    0xea7585d1e85706bcull, 0x8d312c32fd7d4d7dull, 0x33e8f08c82d470caull,
    0x62574515a0540bdeull, 0xc2a2b21ea83fbcdfull, 0xec9572682c6a4ee2ull,
    0x78422121c50899ddull, 0xfbe47e4f04e0dbcdull, 0x41123b16f9d8fc7dull,
    0xef72e4aa72dea7edull, 0x4448796c3c7a8e20ull, 0x3cb1eab1ae9beb2eull,
    0x49dfeedc13f04bc3ull,
};

TEST(CompiledDiff, MixedPrograms) { run_range(1, Profile::kMixed, kMixedPins); }

TEST(CompiledDiff, StreamHeavyPrograms) {
  run_range(1000, Profile::kStreamHeavy, kStreamPins);
}

TEST(CompiledDiff, FrepHeavyPrograms) {
  run_range(2000, Profile::kFrepHeavy, kFrepPins);
}

TEST(CompiledDiff, BranchHeavyPrograms) {
  run_range(3000, Profile::kBranchHeavy, kBranchPins);
}

}  // namespace
}  // namespace issr::core
