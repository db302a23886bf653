// What every fuzz harness shares. A harness defines
// LLVMFuzzerTestOneInput and fuzz_smoke_input(); under clang libFuzzer
// calls the first, and under gcc, which has no libFuzzer,
// standalone_main.cpp supplies main() and drives both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "util/rng.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

/// @brief Fill `data` with the next input of the standalone smoke loop;
/// `gen` is the loop's fixed-seed generator.
void fuzz_smoke_input(ficon::SplitMix64& gen, std::vector<std::uint8_t>& data);

/// Crash loudly on a broken invariant, so that both libFuzzer and the
/// standalone driver report it.
inline void fuzz_check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "invariant violated: %s\n", what);
    __builtin_trap();
  }
}
