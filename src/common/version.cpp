#include "common/version.hpp"

#include <cstdio>
#include <cstdlib>

#ifndef ISSR_BUILD_TYPE
#define ISSR_BUILD_TYPE "unknown"
#endif
#ifndef ISSR_LTO_ENABLED
#define ISSR_LTO_ENABLED 0
#endif

namespace issr {

const std::string& engine_version() {
  static const std::string version = [] {
    if (const char* env = std::getenv("ISSR_GIT_DESCRIBE")) {
      return std::string(env);
    }
    std::string out;
    if (std::FILE* p =
            popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[128];
      if (std::fgets(buf, sizeof buf, p)) out = buf;
      pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out.empty() ? std::string("unknown") : out;
  }();
  return version;
}

const char* engine_build_type() { return ISSR_BUILD_TYPE; }

bool engine_build_lto() { return ISSR_LTO_ENABLED != 0; }

}  // namespace issr
