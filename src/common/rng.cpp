#include "common/rng.hpp"

#include <cassert>
#include <cmath>

namespace issr {
namespace {

constexpr std::uint64_t kGoldenGamma = 0x9e37'79b9'7f4a'7c15ull;

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = splitmix64(sm);
    sm += kGoldenGamma;
  }
  // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
      0x39abdc4529b1661cull};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(eng_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo + 1;  // span == 0 means full 2^64 range
  if (span == 0) return eng_();
  // Rejection sampling to avoid modulo bias: accept draws <= limit, where
  // [0, limit] holds a whole number of spans. limit >= 2^64 - span, so
  // the divisions that compute it are needed only for a larger draw (the
  // same draws are accepted either way).
  std::uint64_t draw = eng_();
  if (draw > 0 - span) {
    const std::uint64_t limit = (~0ull) - ((~0ull) % span + 1) % span;
    while (draw > limit) draw = eng_();
  }
  return lo + draw % span;
}

double Rng::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_ = mag * std::sin(two_pi * u2);
  have_spare_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::vector<double> Rng::normal_vector(std::size_t count) {
  std::vector<double> out(count);
  for (auto& v : out) v = normal();
  return out;
}

std::vector<std::uint32_t> Rng::distinct_sorted(std::uint32_t count,
                                                std::uint32_t universe) {
  assert(count <= universe);
  // Floyd's algorithm would need a set; for our sizes a selection-sampling
  // pass over the universe is simple, exact, and O(universe).
  std::vector<std::uint32_t> out;
  out.reserve(count);
  std::uint32_t remaining = count;
  for (std::uint32_t i = 0; i < universe && remaining > 0; ++i) {
    const std::uint32_t left = universe - i;
    if (uniform_int(0, left - 1) < remaining) {
      out.push_back(i);
      --remaining;
    }
  }
  return out;
}

}  // namespace issr
