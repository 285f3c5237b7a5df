#include "core/fpu.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace issr::core {

using isa::Op;

unsigned fpu_latency(const FpuParams& p, Op op) {
  switch (op) {
    case Op::kFmaddD: case Op::kFmsubD: case Op::kFnmsubD: case Op::kFnmaddD:
    case Op::kFaddD: case Op::kFsubD: case Op::kFmulD:
      return p.fma_latency;
    case Op::kFdivD:
      return p.div_latency;
    case Op::kFsqrtD:
      return p.sqrt_latency;
    default:
      return p.misc_latency;
  }
}

bool fpu_is_iterative(Op op) {
  return op == Op::kFdivD || op == Op::kFsqrtD;
}

namespace {

constexpr std::uint64_t kQuietBit = 0x0008'0000'0000'0000ull;

double quiet(double nan) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(nan) | kQuietBit);
}

/// fmin.d / fmax.d as this model defines them: x86-64 libm fmin/fmax
/// applied to (b, a). Equal operands (+0.0 and -0.0) yield a; one NaN
/// yields the other operand, or the NaN quieted if it is signaling; two
/// NaNs yield b quieted. (RISC-V orders -0.0 below +0.0 and returns the
/// canonical NaN for two NaNs; the model keeps its own rule.) Spelled out
/// because std::fmin/fmax leave signed-zero ties unspecified, so their
/// result would depend on how the compiler orders the call's arguments.
double min_max(double a, double b, bool is_max) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (!a_nan && !b_nan) {
    if (is_max) return b > a ? b : a;
    return b < a ? b : a;
  }
  if (a_nan && b_nan) return quiet(b);
  const double nan = a_nan ? a : b;
  if ((std::bit_cast<std::uint64_t>(nan) & kQuietBit) == 0) return quiet(nan);
  return a_nan ? b : a;
}

}  // namespace

double fpu_compute(Op op, double a, double b, double c) {
  switch (op) {
    case Op::kFmaddD: return std::fma(a, b, c);
    case Op::kFmsubD: return std::fma(a, b, -c);
    case Op::kFnmsubD: return std::fma(-a, b, c);
    case Op::kFnmaddD: return -std::fma(a, b, c);
    case Op::kFaddD: return a + b;
    case Op::kFsubD: return a - b;
    case Op::kFmulD: return a * b;
    case Op::kFdivD: return a / b;
    case Op::kFsqrtD: return std::sqrt(a);
    case Op::kFsgnjD: return std::copysign(a, b);
    case Op::kFsgnjnD: return std::copysign(a, -b);
    case Op::kFsgnjxD: {
      const auto sa = std::bit_cast<std::uint64_t>(a);
      const auto sb = std::bit_cast<std::uint64_t>(b);
      return std::bit_cast<double>(sa ^ (sb & 0x8000'0000'0000'0000ull));
    }
    case Op::kFminD: return min_max(a, b, /*is_max=*/false);
    case Op::kFmaxD: return min_max(a, b, /*is_max=*/true);
    default:
      assert(false && "not an FP->FP op");
      return 0.0;
  }
}

std::uint64_t fpu_compute_to_int(Op op, double a, double b) {
  switch (op) {
    case Op::kFeqD: return a == b ? 1 : 0;
    case Op::kFltD: return a < b ? 1 : 0;
    case Op::kFleD: return a <= b ? 1 : 0;
    case Op::kFcvtWD: {
      const auto v = static_cast<std::int32_t>(a);
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    }
    case Op::kFcvtWuD: {
      const auto v = static_cast<std::uint32_t>(a);
      // RV64: fcvt.wu.d sign-extends the 32-bit result.
      return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
    }
    case Op::kFmvXD: return std::bit_cast<std::uint64_t>(a);
    default:
      assert(false && "not an FP->int op");
      return 0;
  }
}

double fpu_compute_from_int(Op op, std::uint64_t value) {
  switch (op) {
    case Op::kFcvtDW:
      return static_cast<double>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(value)));
    case Op::kFcvtDWu:
      return static_cast<double>(static_cast<std::uint32_t>(value));
    case Op::kFmvDX:
      return std::bit_cast<double>(value);
    default:
      assert(false && "not an int->FP op");
      return 0.0;
  }
}

}  // namespace issr::core
