// Trace/telemetry subsystem tests: JSON string escaping, the ring-buffer
// collector, stall-bucket classification, the buckets-sum-to-cycles
// invariant across kernels and the cluster, Chrome trace export
// round-trip (syntactic validity, per-track monotonic timestamps,
// balanced slices), trace-on/off determinism, and the aborted-run status.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sim.hpp"
#include "driver/runner.hpp"
#include "driver/runs.hpp"
#include "isa/assembler.hpp"
#include "sparse/generate.hpp"
#include "trace/chrome.hpp"
#include "trace/ring.hpp"
#include "trace/stall.hpp"
#include "trace/trace.hpp"

namespace issr {
namespace {

using trace::Bucket;
using trace::Event;
using trace::Phase;
using trace::RingBufferSink;

// --- JSON escaping ----------------------------------------------------------

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(trace::json_escape("cc0/issr job-42"), "cc0/issr job-42");
  EXPECT_EQ(trace::json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(trace::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(trace::json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(trace::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(trace::json_escape(std::string("\b\f")), "\\b\\f");
  EXPECT_EQ(trace::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(trace::json_escape(std::string("\x1f", 1)), "\\u001f");
}

TEST(JsonEscape, LeavesUtf8Untouched) {
  EXPECT_EQ(trace::json_escape("μ-arch ✓"), "μ-arch ✓");
}

// --- Ring buffer collector --------------------------------------------------

TEST(RingBuffer, RecordsTracksAndEventsInOrder) {
  RingBufferSink sink(16);
  const auto t0 = sink.add_track("cc0", "core");
  const auto t1 = sink.add_track("cc0", "fpss");
  EXPECT_EQ(t0, 0u);
  EXPECT_EQ(t1, 1u);
  ASSERT_EQ(sink.tracks().size(), 2u);
  EXPECT_EQ(sink.tracks()[1].process, "cc0");
  EXPECT_EQ(sink.tracks()[1].name, "fpss");

  sink.record({1, t0, Phase::kBegin, "a", 0});
  sink.record({2, t1, Phase::kInstant, "b", 7});
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 1u);
  EXPECT_EQ(events[1].value, 7u);
  EXPECT_EQ(sink.overwritten(), 0u);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBufferSink sink(4);
  const auto t = sink.add_track("p", "t");
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record({i, t, Phase::kInstant, "e", i});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.overwritten(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // The retained window is the most recent events, oldest first.
  EXPECT_EQ(events.front().ts, 6u);
  EXPECT_EQ(events.back().ts, 9u);
}

// --- Bucket classification --------------------------------------------------

TEST(StallClassify, PriorityOrder) {
  trace::CycleObservation o;
  o.fp_compute = true;
  o.issued = true;
  o.port_conflict = true;
  EXPECT_EQ(trace::classify(o), Bucket::kFpCompute);
  o.fp_compute = false;
  EXPECT_EQ(trace::classify(o), Bucket::kIssue);
  o.issued = false;
  EXPECT_EQ(trace::classify(o), Bucket::kTcdmConflict);
  o.port_conflict = false;
  o.halted = true;
  EXPECT_EQ(trace::classify(o), Bucket::kDrain);
  o.halted = false;
  EXPECT_EQ(trace::classify(o), Bucket::kOther);
}

TEST(StallClassify, StreamStallSubdivision) {
  trace::CycleObservation o;
  o.stream_stall = true;
  EXPECT_EQ(trace::classify(o), Bucket::kStreamStarved);
  o.port_conflict = true;
  EXPECT_EQ(trace::classify(o), Bucket::kTcdmConflict);
  o.idx_serializer = true;  // serializer attribution wins over the port
  EXPECT_EQ(trace::classify(o), Bucket::kIdxSerializer);
  o.barrier_stall = true;  // barrier outranks every stream cause
  EXPECT_EQ(trace::classify(o), Bucket::kBarrier);
}

TEST(StarveCause, LatchedAtStarvationTime) {
  // An indirect read job with nothing fetched yet: the FPU-side pop
  // failure must latch kSerializer (the index path has produced no data
  // address), and the latch must survive the lane's subsequent tick —
  // which advances the pipeline past the state that explains the stall.
  mem::IdealMemory mem(1, 1);
  ssr::PortHub hub(mem.port(0));
  ssr::LaneParams params;
  params.has_indirection = true;
  ssr::Lane lane(params, hub.add_client());

  const addr_t base = 0x1000'0000;
  mem.store().store(base + 0x100, 0, 8);  // index word 0 -> data [0]
  lane.submit(ssr::make_indirect(base, base + 0x100, 1,
                                 sparse::IndexWidth::kU16, 0, false));
  ASSERT_TRUE(lane.active());
  EXPECT_FALSE(lane.can_pop());
  lane.note_starved();
  EXPECT_EQ(lane.last_starve_cause(), ssr::Lane::StarveCause::kSerializer);

  // While the index word is still in flight the whole index path remains
  // the attributed gate; once the data fetch itself is outstanding the
  // cause becomes memory latency.
  for (cycle_t t = 0; t < 3 && !lane.can_pop(); ++t) {
    mem.tick(t);
    hub.tick();
    lane.note_starved();
    EXPECT_NE(lane.last_starve_cause(),
              ssr::Lane::StarveCause::kPortContention);
    lane.tick(t);
  }
  EXPECT_EQ(lane.last_starve_cause(), ssr::Lane::StarveCause::kMemLatency);
}

TEST(StallBuckets, SumAndNames) {
  trace::StallBuckets b;
  b[Bucket::kFpCompute] = 3;
  b[Bucket::kOther] = 2;
  EXPECT_EQ(b.total(), 5u);
  EXPECT_DOUBLE_EQ(b.fraction(Bucket::kFpCompute), 0.6);
  for (unsigned i = 0; i < trace::kNumBuckets; ++i) {
    EXPECT_STRNE(trace::to_string(static_cast<Bucket>(i)), "?");
  }
}

// --- Invariant: buckets decompose every cycle, across kernels ---------------

TEST(StallInvariant, SpvvAllVariantsSumToCycles) {
  Rng rng(7);
  const auto a = sparse::random_sparse_vector(rng, 512, 128);
  const auto b = sparse::random_dense_vector(rng, 512);
  for (const auto variant :
       {kernels::Variant::kBase, kernels::Variant::kSsr,
        kernels::Variant::kIssr}) {
    for (const auto width : {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32}) {
      const auto r = driver::run_spvv_cc(variant, width, a, b);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(r.sim.stalls.total(), r.sim.cycles);
      // The FP-compute bucket is exactly the FPU arithmetic issue count
      // (at most one FP issue per cycle, and it outranks all buckets).
      EXPECT_EQ(r.sim.stalls[Bucket::kFpCompute], r.sim.fpss.fp_compute);
    }
  }
}

TEST(StallInvariant, CsrmvSumAndIssrStarvationShows) {
  Rng rng(11);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 48, 96, 6);
  const auto x = sparse::random_dense_vector(rng, 96);
  for (const auto variant :
       {kernels::Variant::kBase, kernels::Variant::kSsr,
        kernels::Variant::kIssr}) {
    const auto r =
        driver::run_csrmv_cc(variant, sparse::IndexWidth::kU16, a, x);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.sim.stalls.total(), r.sim.cycles);
    EXPECT_EQ(r.sim.stalls[Bucket::kFpCompute], r.sim.fpss.fp_compute);
  }

  // A long ISSR SpVV is port-mux limited (the paper's 4/5 ceiling): the
  // non-compute remainder must surface as stream-side attribution, not
  // vanish into "other".
  Rng rng2(13);
  const auto av = sparse::random_sparse_vector(rng2, 4096, 2048);
  const auto bv = sparse::random_dense_vector(rng2, 4096);
  const auto big = driver::run_spvv_cc(kernels::Variant::kIssr,
                                       sparse::IndexWidth::kU16, av, bv);
  ASSERT_TRUE(big.ok);
  const auto starved = big.sim.stalls[Bucket::kStreamStarved] +
                       big.sim.stalls[Bucket::kIdxSerializer] +
                       big.sim.stalls[Bucket::kTcdmConflict];
  EXPECT_GT(starved, big.sim.cycles / 20);
  EXPECT_LT(big.sim.stalls[Bucket::kOther], big.sim.cycles / 20);
}

TEST(StallInvariant, ClusterPerWorkerAndTotal) {
  Rng rng(17);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 64, 64, 8);
  const auto x = sparse::random_dense_vector(rng, 64);
  const auto r = driver::run_csrmv_sys(
      kernels::Variant::kIssr, sparse::IndexWidth::kU16, 1, 4, a, x, nullptr,
      true, {}, driver::SysTuning{.fabric = false});
  ASSERT_TRUE(r.ok);
  const auto& cl = r.sys.system.clusters[0];
  ASSERT_EQ(cl.stalls.size(), 4u);
  for (const auto& s : cl.stalls) {
    EXPECT_EQ(s.total(), cl.cycles);
  }
  EXPECT_EQ(cl.total_stalls().total(), cl.cycles * 4);
}

// --- Determinism: tracing must not perturb the simulation -------------------

TEST(TraceDeterminism, TracedRunMatchesUntraced) {
  Rng rng(23);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 32, 64, 5);
  const auto x = sparse::random_dense_vector(rng, 64);

  RingBufferSink sink;
  const auto plain =
      driver::run_csrmv_cc(kernels::Variant::kIssr, sparse::IndexWidth::kU16,
                           a, x);
  const auto traced =
      driver::run_csrmv_cc(kernels::Variant::kIssr, sparse::IndexWidth::kU16,
                           a, x, &sink);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(traced.ok);
  EXPECT_EQ(plain.sim.cycles, traced.sim.cycles);
  EXPECT_EQ(plain.sim.core.issued, traced.sim.core.issued);
  EXPECT_EQ(plain.sim.fpss.issued, traced.sim.fpss.issued);
  EXPECT_EQ(plain.sim.stalls, traced.sim.stalls);
  EXPECT_EQ(plain.y.vec(), traced.y.vec());
  EXPECT_GT(sink.recorded(), 0u);
}

// --- Chrome export round-trip -----------------------------------------------

/// Minimal JSON syntax scanner: verifies string/escape handling and
/// brace/bracket nesting without a JSON library. Returns true iff `s` is
/// structurally well-formed (single top-level value, balanced nesting).
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_top = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[':
        if (depth == 0 && seen_top) return false;
        ++depth;
        seen_top = true;
        break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && !escaped && seen_top;
}

TEST(ChromeTrace, RoundTripFromRealRun) {
  Rng rng(29);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 24, 48, 6);
  const auto x = sparse::random_dense_vector(rng, 48);
  RingBufferSink sink;
  const auto r = driver::run_csrmv_cc(kernels::Variant::kIssr,
                                      sparse::IndexWidth::kU16, a, x, &sink);
  ASSERT_TRUE(r.ok);
  ASSERT_GT(sink.size(), 0u);

  const std::string doc = trace::to_chrome_json(sink);
  EXPECT_TRUE(json_well_formed(doc));
  EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"cc0\""), std::string::npos);
  EXPECT_NE(doc.find("\"issr\""), std::string::npos);
  EXPECT_NE(doc.find("\"stall\""), std::string::npos);

  // Balanced slices: every begin has its end (close_trace sealed the
  // stall timeline), so B and E phase counts match.
  const auto count = [&](const char* needle) {
    std::size_t n = 0;
    for (std::size_t at = doc.find(needle); at != std::string::npos;
         at = doc.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"ph\":\"B\""), 0u);
}

TEST(ChromeTrace, TimestampsMonotonicPerTrack) {
  Rng rng(31);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 64, 64, 8);
  const auto x = sparse::random_dense_vector(rng, 64);
  RingBufferSink sink;
  const auto r = driver::run_csrmv_sys(
      kernels::Variant::kIssr, sparse::IndexWidth::kU16, 1, 2, a, x, &sink,
      true, {}, driver::SysTuning{.fabric = false});
  ASSERT_TRUE(r.ok);
  ASSERT_GT(sink.size(), 0u);
  std::map<std::uint32_t, cycle_t> last;
  for (const Event& e : sink.events()) {
    const auto it = last.find(e.track);
    if (it != last.end()) {
      EXPECT_GE(e.ts, it->second) << "track " << e.track << " went backward";
    }
    last[e.track] = e.ts;
  }
  // Cluster runs register per-worker, TCDM-bank, DMA and barrier tracks.
  EXPECT_GT(sink.tracks().size(), 32u);
  // The System of one registers them unprefixed, with no interconnect or
  // inter-cluster barrier track.
  for (const auto& t : sink.tracks()) {
    EXPECT_NE(t.process.rfind("c0.", 0), 0u) << t.process;
    EXPECT_NE(t.process, "noc");
    EXPECT_NE(t.process, "system");
  }
}

TEST(ChromeTrace, JsonValidatorCatchesCorruption) {
  EXPECT_TRUE(json_well_formed("{\"a\":[1,2,\"x\\\"y\"]}"));
  EXPECT_FALSE(json_well_formed("{\"a\":[1,2}"));
  EXPECT_FALSE(json_well_formed("{\"a\":\"unterminated}"));
  EXPECT_FALSE(json_well_formed("{}{}"));
}

// --- Trace file naming ------------------------------------------------------

TEST(TraceFiles, PathSanitizesScenarioName) {
  driver::Scenario s;
  s.kernel = driver::Kernel::kCsrmv;
  s.variant = kernels::Variant::kIssr;
  s.width = sparse::IndexWidth::kU16;
  s.family = sparse::MatrixFamily::kUniform;
  s.density = 0.05;
  s.cores = 8;
  const std::string path = driver::trace_file_path("out", s);
  EXPECT_EQ(path.find("out/"), 0u);
  EXPECT_EQ(path.find('/', 4), std::string::npos)
      << "scenario '/' separators must be flattened: " << path;
  EXPECT_NE(path.find(".trace.json"), std::string::npos);
}

// --- Aborted runs are distinguishable ---------------------------------------

TEST(AbortedRun, HitsCycleLimitWithStatusAndPc) {
  core::CcSim sim;
  isa::Assembler a;
  const isa::Label spin = a.here();
  a.j(spin);  // 1-instruction infinite loop
  sim.set_program(a.assemble());
  const auto r = sim.run(200);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.cycles, 200u);
  EXPECT_EQ(r.last_pc, isa::Program::kBaseAddr);
  // The abort is classified: a spinning core makes forward progress
  // every cycle, so this is the budget fault, not the no-progress one.
  EXPECT_EQ(r.fault.code, sim::FaultCode::kCycleLimit);
  EXPECT_EQ(r.fault.cycle, 200u);
  ASSERT_EQ(r.fault.harts.size(), 1u);
  EXPECT_EQ(r.fault.harts[0].pc, isa::Program::kBaseAddr);
  // The truncated run still satisfies the attribution invariant.
  EXPECT_EQ(r.stalls.total(), r.cycles);
}

TEST(AbortedRun, NormalFinishIsNotAborted) {
  core::CcSim sim;
  isa::Assembler a;
  a.ecall();
  sim.set_program(a.assemble());
  const auto r = sim.run(200);
  EXPECT_FALSE(r.aborted);
  EXPECT_FALSE(r.fault);
  EXPECT_LT(r.cycles, 200u);
}

}  // namespace
}  // namespace issr
