// Memory system tests: backing store, ideal ports, TCDM banking and
// arbitration, DMA transfers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "mem/backing_store.hpp"
#include "mem/dma.hpp"
#include "mem/ideal_mem.hpp"
#include "mem/interconnect.hpp"
#include "mem/main_mem.hpp"
#include "mem/tcdm.hpp"
#include "trace/ring.hpp"

namespace issr::mem {
namespace {

/// Optional-returning convenience over the in-place response slot.
std::optional<MemRsp> pop(MemPort& port) {
  MemRsp rsp;
  if (!port.pop_response(rsp)) return std::nullopt;
  return rsp;
}

TEST(BackingStore, TypedAccessRoundTrip) {
  BackingStore s;
  s.store_u8(5, 0xab);
  s.store_u16(100, 0x1234);
  s.store_u32(200, 0xdeadbeef);
  s.store_u64(300, 0x0123456789abcdefULL);
  s.store_f64(400, -3.25);
  EXPECT_EQ(s.load_u8(5), 0xab);
  EXPECT_EQ(s.load_u16(100), 0x1234);
  EXPECT_EQ(s.load_u32(200), 0xdeadbeefu);
  EXPECT_EQ(s.load_u64(300), 0x0123456789abcdefULL);
  EXPECT_EQ(s.load_f64(400), -3.25);
}

TEST(BackingStore, LittleEndianLayout) {
  BackingStore s;
  s.store_u32(0, 0x04030201);
  EXPECT_EQ(s.load_u8(0), 1);
  EXPECT_EQ(s.load_u8(3), 4);
}

TEST(BackingStore, UnallocatedReadsZero) {
  BackingStore s;
  EXPECT_EQ(s.load_u64(0x9999'0000), 0u);
  EXPECT_EQ(s.allocated_pages(), 0u);
}

TEST(BackingStore, CrossPageBlockOps) {
  BackingStore s;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  const addr_t base = BackingStore::kPageBytes - 123;
  s.write_block(base, data.data(), data.size());
  std::vector<std::uint8_t> back(data.size());
  s.read_block(base, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_GE(s.allocated_pages(), 3u);
}

TEST(BackingStore, UnalignedWideAccess) {
  BackingStore s;
  s.store_u64(3, 0x1122334455667788ULL);
  EXPECT_EQ(s.load_u64(3), 0x1122334455667788ULL);
  EXPECT_EQ(s.load_u8(3), 0x88);
}

// --- The TCDM's direct-indexed page window ----------------------------------

TEST(TcdmWindow, UntouchedReadsZeroAndOneWriteAllocatesOnePage) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  BackingStore& s = tcdm.store();
  for (addr_t a = 0; a < cfg.size_bytes(); a += BackingStore::kPageBytes / 2) {
    EXPECT_EQ(s.load_u64(cfg.base + a), 0u);
  }
  std::vector<std::uint8_t> all(cfg.size_bytes(), 0xff);
  s.read_block(cfg.base, all.data(), all.size());
  EXPECT_EQ(std::count(all.begin(), all.end(), 0),
            static_cast<std::ptrdiff_t>(all.size()));
  EXPECT_EQ(s.allocated_pages(), 0u);
  s.store_u32(cfg.base + 0x1234, 7);
  EXPECT_EQ(s.allocated_pages(), 1u);
  EXPECT_EQ(s.load_u32(cfg.base + 0x1234), 7u);
}

TEST(TcdmWindow, AccessesStraddlingBothEdgesMatchAPlainStore) {
  // Just outside the window, pages live in the hash map: accesses that
  // straddle an edge split between the two lookups. A store without a
  // window is the reference.
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  BackingStore& s = tcdm.store();
  BackingStore ref;
  const addr_t lo = cfg.base;
  const addr_t hi = cfg.base + cfg.size_bytes();
  for (const addr_t edge : {lo, hi}) {
    for (const unsigned bytes : {2u, 4u, 8u}) {
      const addr_t a = edge - bytes / 2;
      const std::uint64_t v = 0x0123456789abcdefull * (edge + bytes);
      s.store(a, v, bytes);
      ref.store(a, v, bytes);
      EXPECT_EQ(s.load(a, bytes), ref.load(a, bytes));
      EXPECT_EQ(s.load_u64(edge - 4), ref.load_u64(edge - 4));
    }
  }
  std::vector<std::uint8_t> data(3 * BackingStore::kPageBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  for (const addr_t start : {lo - 5000, hi - 7000}) {
    s.write_block(start, data.data(), data.size());
    ref.write_block(start, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    s.read_block(start, back.data(), back.size());
    EXPECT_EQ(back, data);
  }
  const addr_t span_lo = lo - 3 * BackingStore::kPageBytes;
  const std::size_t span = cfg.size_bytes() + 6 * BackingStore::kPageBytes;
  std::vector<std::uint8_t> got(span), want(span);
  s.read_block(span_lo, got.data(), span);
  ref.read_block(span_lo, want.data(), span);
  EXPECT_EQ(got, want);
  EXPECT_EQ(s.allocated_pages(), ref.allocated_pages());
}

TEST(TcdmWindow, PageMemoPathsSeeWindowPages) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  BackingStore& s = tcdm.store();
  const addr_t a = cfg.base + 3 * BackingStore::kPageBytes + 0x40;
  BackingStore::PageMemo memo;
  // An absent page reads zero and is not memoized.
  EXPECT_EQ(s.load_u64(a, memo), 0u);
  EXPECT_EQ(memo.data, nullptr);
  // A page written through the plain path is found on a memo miss.
  s.store_u64(a, 41);
  EXPECT_EQ(s.load_u64(a, memo), 41u);
  EXPECT_NE(memo.data, nullptr);
  s.store_u64(a + 8, 43);
  EXPECT_EQ(s.load_u64(a + 8, memo), 43u);
  // A memo-path store materializes a window page the plain path sees.
  BackingStore::PageMemo wmemo;
  const addr_t b = cfg.base + 9 * BackingStore::kPageBytes;
  s.store_u64(b, 42, wmemo);
  EXPECT_EQ(s.load_u64(b), 42u);
  EXPECT_EQ(s.allocated_pages(), 2u);
}

TEST(TcdmWindow, ArenaBackedPagesComeFromTheArena) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  Arena arena(BackingStore::kPageBytes);  // one chunk per page
  tcdm.store().set_arena(&arena);
  tcdm.store().store_u64(cfg.base, 1);
  tcdm.store().store_u64(cfg.base + cfg.size_bytes() - 8, 2);
  EXPECT_EQ(tcdm.store().allocated_pages(), 2u);
  EXPECT_EQ(arena.chunk_count(), 2u);
  EXPECT_EQ(tcdm.store().load_u64(cfg.base), 1u);
  EXPECT_EQ(tcdm.store().load_u64(cfg.base + cfg.size_bytes() - 8), 2u);
}

TEST(IdealMemory, SingleRequestLatency) {
  IdealMemory mem(1, /*latency=*/1);
  mem.store().store_u64(0x40, 77);
  auto& port = mem.port(0);
  // Cycle 0: push request (requester phase).
  ASSERT_TRUE(port.can_accept());
  port.push_request({0x40, false, 8, 0, 9});
  EXPECT_FALSE(port.can_accept());
  EXPECT_FALSE(pop(port).has_value());
  // Cycle 1: memory grants; response pops in the same cycle's
  // requester phase (latency 1).
  mem.tick(1);
  EXPECT_TRUE(port.can_accept());
  const auto rsp = pop(port);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->rdata, 77u);
  EXPECT_EQ(rsp->id, 9u);
}

TEST(IdealMemory, PipelinedThroughputOnePerCycle) {
  IdealMemory mem(1, 2);
  for (addr_t a = 0; a < 64; a += 8) mem.store().store_u64(a, a);
  auto& port = mem.port(0);
  unsigned received = 0;
  addr_t next = 0;
  for (cycle_t t = 0; t < 32; ++t) {
    mem.tick(t);
    while (auto rsp = pop(port)) {
      EXPECT_EQ(rsp->rdata, static_cast<std::uint64_t>(received * 8));
      ++received;
    }
    if (next < 64 && port.can_accept()) {
      port.push_request({next, false, 8, 0, 0});
      next += 8;
    }
  }
  EXPECT_EQ(received, 8u);
  // With latency 2 and full pipelining: 8 requests complete in ~10 cycles.
}

TEST(IdealMemory, WritesCommitOnGrant) {
  IdealMemory mem(2, 1);
  mem.port(0).push_request({0x10, true, 8, 0xfeed, 0});
  mem.tick(1);
  EXPECT_EQ(mem.store().load_u64(0x10), 0xfeedu);
  EXPECT_EQ(mem.port(0).stats().writes, 1u);
}

TEST(Tcdm, BankMappingWordInterleaved) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 0), 0u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8), 1u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8 * 31), 31u);
  EXPECT_EQ(tcdm.bank_of(cfg.base + 8 * 32), 0u);
  EXPECT_TRUE(tcdm.contains(cfg.base));
  EXPECT_TRUE(tcdm.contains(cfg.base + cfg.size_bytes() - 1));
  EXPECT_FALSE(tcdm.contains(cfg.base + cfg.size_bytes()));
}

TEST(Tcdm, ConflictSerializesSameBank) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  tcdm.store().store_u64(cfg.base, 42);
  // Both masters target bank 0 in the same cycle.
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.port(1).push_request({cfg.base, false, 8, 0, 1});
  tcdm.tick(1);
  // Exactly one granted.
  const bool p0 = pop(tcdm.port(0)).has_value();
  const bool p1 = pop(tcdm.port(1)).has_value();
  EXPECT_NE(p0, p1);
  EXPECT_EQ(tcdm.stats().grants, 1u);
  EXPECT_EQ(tcdm.stats().conflicts, 1u);
  tcdm.tick(2);
  EXPECT_TRUE(pop(tcdm.port(p0 ? 1 : 0)).has_value());
}

TEST(Tcdm, DifferentBanksProceedInParallel) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.port(1).push_request({cfg.base + 8, false, 8, 0, 1});
  tcdm.tick(1);
  EXPECT_TRUE(pop(tcdm.port(0)).has_value());
  EXPECT_TRUE(pop(tcdm.port(1)).has_value());
  EXPECT_EQ(tcdm.stats().conflicts, 0u);
}

TEST(Tcdm, RoundRobinIsFairUnderPersistentConflict) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 2);
  unsigned grants[2] = {0, 0};
  for (cycle_t t = 1; t <= 40; ++t) {
    for (unsigned m = 0; m < 2; ++m) {
      if (tcdm.port(m).can_accept()) {
        tcdm.port(m).push_request({cfg.base, false, 8, 0, m});
      }
    }
    tcdm.tick(t);
    for (unsigned m = 0; m < 2; ++m) {
      if (pop(tcdm.port(m))) ++grants[m];
    }
  }
  EXPECT_NEAR(static_cast<double>(grants[0]), static_cast<double>(grants[1]),
              2.0);
}

TEST(Tcdm, DmaClaimBlocksBank) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, 1);
  tcdm.port(0).push_request({cfg.base, false, 8, 0, 0});
  tcdm.claim_for_dma(0, 1);
  tcdm.tick(1);
  EXPECT_FALSE(pop(tcdm.port(0)).has_value());
  // Claim is per-cycle: next tick the core wins.
  tcdm.tick(2);
  EXPECT_TRUE(pop(tcdm.port(0)).has_value());
}

/// FNV-1a over 64-bit words (little-endian byte order).
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(const char* s) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ull;
    }
  }
};

/// Everything a TCDM exposes over one seeded traffic run.
struct ArbitrationPin {
  std::uint64_t responses;  ///< FNV over (cycle, master, id, rdata) pops
  std::uint64_t port_stats;  ///< FNV over every port's PortStats
  TcdmStats tcdm;
  std::uint64_t instants;  ///< FNV over the conflict-instant sequence
  std::size_t n_instants;
};

/// Drives `masters` ports with seeded 1/2/4/8-byte reads and writes, half
/// of them aimed at four hot banks so same-bank collisions are common,
/// and claims eight banks for the DMA every fifth cycle (wrapping past
/// the last bank when the first claimed bank is high).
ArbitrationPin run_arbitration(unsigned masters, std::uint64_t seed) {
  TcdmConfig cfg;
  Tcdm tcdm(cfg, masters);
  trace::RingBufferSink sink(std::size_t{1} << 16);
  tcdm.attach_trace(sink);
  Rng rng(seed);
  for (addr_t a = 0; a < cfg.size_bytes(); a += 8) {
    tcdm.store().store_u64(cfg.base + a, a * 0x9e3779b97f4a7c15ull);
  }
  const std::uint64_t words_per_bank = cfg.bank_bytes / 8;
  Fnv1a rsp_hash;
  std::uint32_t next_id = 0;
  for (cycle_t now = 0; now < 3000; ++now) {
    if (now % 5 == 0) {
      tcdm.claim_for_dma(
          static_cast<std::uint32_t>(rng.uniform_int(0, cfg.num_banks - 1)),
          8);
    }
    tcdm.tick(now);
    for (unsigned m = 0; m < masters; ++m) {
      MemPort& port = tcdm.port(m);
      MemRsp rsp;
      while (port.pop_response(rsp)) {
        rsp_hash.add(now);
        rsp_hash.add(m);
        rsp_hash.add(rsp.id);
        rsp_hash.add(rsp.rdata);
      }
      if (!port.can_accept() || rng.uniform_int(0, 3) == 0) continue;
      const std::uint64_t bank = rng.uniform_int(0, 1) == 0
                                     ? rng.uniform_int(0, 3) * 7
                                     : rng.uniform_int(0, cfg.num_banks - 1);
      const std::uint64_t row = rng.uniform_int(0, words_per_bank - 1);
      const auto bytes = static_cast<std::uint8_t>(1u << rng.uniform_int(0, 3));
      const std::uint64_t off = rng.uniform_int(0, 8 / bytes - 1) * bytes;
      MemReq req;
      req.addr = cfg.base + 8 * (row * cfg.num_banks + bank) + off;
      req.is_write = rng.uniform_int(0, 2) == 0;
      req.bytes = bytes;
      req.wdata = rng.uniform_int(0, ~0ull);
      req.id = next_id++;
      port.push_request(req);
    }
  }
  ArbitrationPin pin{};
  pin.responses = rsp_hash.h;
  Fnv1a stats_hash;
  for (unsigned m = 0; m < masters; ++m) {
    const PortStats& s = tcdm.port(m).stats();
    stats_hash.add(s.reads);
    stats_hash.add(s.writes);
    stats_hash.add(s.stall_cycles);
  }
  pin.port_stats = stats_hash.h;
  pin.tcdm = tcdm.stats();
  EXPECT_EQ(sink.overwritten(), 0u);
  Fnv1a ev_hash;
  for (const trace::Event& e : sink.events()) {
    ev_hash.add(e.ts);
    ev_hash.add(e.track);
    ev_hash.add(static_cast<std::uint64_t>(e.phase));
    ev_hash.add(e.name);
    ev_hash.add(e.value);
  }
  pin.instants = ev_hash.h;
  pin.n_instants = sink.size();
  return pin;
}

TEST(Tcdm, ArbitrationPinned) {
  // Grant order, round-robin state, per-port stall counts and the
  // conflict instants are observable; any arbitration rewrite must
  // reproduce them exactly. 16 masters is the 8-worker cluster, 66 the
  // 33-worker one.
  struct Expected {
    unsigned masters;
    std::uint64_t responses, port_stats;
    TcdmStats tcdm;
    std::uint64_t instants;
    std::size_t n_instants;
  };
  const Expected cases[] = {
      {16, 10963858594117296198ull, 1849658624426788310ull,
       {17121, 25266, 4800}, 11464990047525311395ull, 8627},
      {66, 11725468807040022512ull, 13691564284122715435ull,
       {19750, 171651, 4800}, 17234434804738978460ull, 11980},
  };
  for (const Expected& want : cases) {
    SCOPED_TRACE(want.masters);
    const ArbitrationPin got =
        run_arbitration(want.masters, 0x7cd3 + want.masters);
    EXPECT_EQ(got.responses, want.responses);
    EXPECT_EQ(got.port_stats, want.port_stats);
    EXPECT_EQ(got.tcdm.grants, want.tcdm.grants);
    EXPECT_EQ(got.tcdm.conflicts, want.tcdm.conflicts);
    EXPECT_EQ(got.tcdm.dma_bank_claims, want.tcdm.dma_bank_claims);
    EXPECT_EQ(got.instants, want.instants);
    EXPECT_EQ(got.n_instants, want.n_instants);
  }
}

class DmaTransfer : public ::testing::Test {
 protected:
  DmaTransfer() : tcdm_(TcdmConfig{}, 1), dma_(tcdm_, main_) {}

  void run_until_idle() {
    cycle_t t = 0;
    while (dma_.busy()) {
      dma_.tick(t);
      tcdm_.tick(t);
      ++t;
      ASSERT_LT(t, 100000u);
    }
  }

  Tcdm tcdm_;
  MainMemory main_;
  Dma dma_;
};

TEST_F(DmaTransfer, Copies1dMainToTcdm) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  main_.store().write_block(MainMemory::kBase + 7, data.data(), data.size());
  dma_.start_1d(tcdm_.config().base + 3, MainMemory::kBase + 7, data.size());
  run_until_idle();
  std::vector<std::uint8_t> back(data.size());
  tcdm_.store().read_block(tcdm_.config().base + 3, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(main_.bytes_read(), data.size());
  EXPECT_EQ(dma_.completed_in(), 1u);
}

TEST_F(DmaTransfer, Copies2dWithStrides) {
  // 4 rows of 16 bytes, source stride 32 (picking every other row).
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned b = 0; b < 16; ++b) {
      main_.store().store_u8(MainMemory::kBase + r * 32 + b,
                             static_cast<std::uint8_t>(r * 100 + b));
    }
  }
  dma_.start_2d(tcdm_.config().base, MainMemory::kBase, 16, 4, 16, 32);
  run_until_idle();
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned b = 0; b < 16; ++b) {
      EXPECT_EQ(tcdm_.store().load_u8(tcdm_.config().base + r * 16 + b),
                static_cast<std::uint8_t>(r * 100 + b));
    }
  }
}

TEST_F(DmaTransfer, DuplexChannelsOverlap) {
  // One inbound and one outbound job of equal size run concurrently: the
  // total completes in ~bytes/64 cycles, not 2x.
  const std::uint64_t bytes = 6400;
  dma_.start_1d(tcdm_.config().base, MainMemory::kBase, bytes);
  dma_.start_1d(MainMemory::kBase + 0x100000, tcdm_.config().base + 0x8000,
                bytes);
  cycle_t t = 0;
  while (dma_.busy()) {
    dma_.tick(t);
    tcdm_.tick(t);
    ++t;
    ASSERT_LT(t, 10000u);
  }
  EXPECT_LE(t, bytes / 64 + 4);
  EXPECT_EQ(dma_.completed_in(), 1u);
  EXPECT_EQ(dma_.completed_out(), 1u);
}

TEST_F(DmaTransfer, ZeroByteJobCompletesImmediately) {
  dma_.start_1d(tcdm_.config().base, MainMemory::kBase, 0);
  dma_.tick(0);
  EXPECT_FALSE(dma_.busy());
  EXPECT_EQ(dma_.completed_jobs(), 1u);
}

// --- Cluster-to-memory interconnect ------------------------------------------

TEST(Interconnect, LinksArePerClusterAndPerDirection) {
  InterconnectConfig cfg;
  cfg.num_clusters = 2;
  cfg.link_beats_per_cycle = 1;
  cfg.bank_groups = 0;  // isolate the link stage
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // Each cluster owns a duplex link: cluster 0 exhausting its ingress
  // budget blocks neither its own egress nor cluster 1's ingress.
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 0));
  EXPECT_FALSE(noc.try_beat(0, Interconnect::Dir::kIngress, 64, 0));
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 128, 0));
  EXPECT_TRUE(noc.try_beat(1, Interconnect::Dir::kIngress, 192, 0));
  // Budgets refill at the cycle boundary.
  noc.begin_cycle(1);
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 1));
  EXPECT_EQ(noc.link_stats()[0].beats_in, 2u);
  EXPECT_EQ(noc.link_stats()[0].denied_in, 1u);
  EXPECT_EQ(noc.link_stats()[1].denied_in, 0u);
  EXPECT_EQ(noc.group_conflicts(), 0u);
}

TEST(Interconnect, BankGroupSerializesClustersSharingARegion) {
  InterconnectConfig cfg;
  cfg.num_clusters = 2;
  cfg.link_beats_per_cycle = 0;  // unlimited links: isolate the crossbar
  cfg.bank_groups = 8;
  cfg.group_beats_per_cycle = 1;
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // Both clusters touch addresses in bank group 0 (beat address / 64 mod
  // 8): the group serves one beat, the second cluster is denied and the
  // denial is attributed to the crossbar stage.
  EXPECT_EQ(noc.group_of(0), noc.group_of(512));
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kIngress, 0, 0));
  EXPECT_FALSE(noc.try_beat(1, Interconnect::Dir::kIngress, 512, 0));
  EXPECT_EQ(noc.group_conflicts(), 1u);
  // A different group proceeds the same cycle.
  EXPECT_TRUE(noc.try_beat(1, Interconnect::Dir::kIngress, 64, 0));
}

TEST(Interconnect, LinkBeatBypassesCrossbarAndUnlimitedBypassesAll) {
  InterconnectConfig cfg;
  cfg.num_clusters = 1;
  cfg.link_beats_per_cycle = 1;
  cfg.bank_groups = 1;
  cfg.group_beats_per_cycle = 1;
  Interconnect noc(cfg);
  noc.begin_cycle(0);
  // A control message (work-queue claim) shares the link budget with
  // data beats but never consumes a bank-group slot.
  EXPECT_TRUE(noc.try_link_beat(0, Interconnect::Dir::kEgress, 0));
  EXPECT_FALSE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 0));
  noc.begin_cycle(1);
  EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 1));
  EXPECT_FALSE(noc.try_link_beat(0, Interconnect::Dir::kEgress, 1));
  // Post-run harvest drain: every budget bypassed, nothing counted.
  const auto denied = noc.link_stats()[0].denied_out;
  noc.set_unlimited(true);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(noc.try_beat(0, Interconnect::Dir::kEgress, 0, 1));
  }
  EXPECT_EQ(noc.link_stats()[0].denied_out, denied);
  noc.set_unlimited(false);
}

}  // namespace
}  // namespace issr::mem
