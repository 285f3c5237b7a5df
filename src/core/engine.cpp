#include "core/engine.hpp"

#include "common/cli.hpp"

namespace issr::core {

namespace {
// A plain bool by design: flipped once during argument parsing, before any
// simulator (or sweep worker thread) is constructed.
bool g_fast_forward = true;
}  // namespace

bool engine_fast_forward_default() { return g_fast_forward; }
void set_engine_fast_forward_default(bool on) { g_fast_forward = on; }

void register_engine_cli(cli::FlagParser& parser) {
  parser.add_switch("--no-fast-forward",
                    [] { set_engine_fast_forward_default(false); });
}

}  // namespace issr::core
