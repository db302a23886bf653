// Standalone driver for the fuzz harnesses under gcc, which has no
// libFuzzer: replays the files given on the command line, or with no
// arguments runs a deterministic smoke loop over the harness's
// fuzz_smoke_input(). All checking stays inside LLVMFuzzerTestOneInput.
#include <cstdio>
#include <vector>

#include "harness.hpp"

int main(int argc, char** argv) {
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::FILE* f = std::fopen(argv[i], "rb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 2;
      }
      std::vector<std::uint8_t> data;
      std::uint8_t buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        data.insert(data.end(), buf, buf + n);
      }
      std::fclose(f);
      LLVMFuzzerTestOneInput(data.data(), data.size());
      std::printf("%s: ok (%zu bytes)\n", argv[i], data.size());
    }
    return 0;
  }
  constexpr int kSmokeInputs = 20000;
  ficon::SplitMix64 gen(0xF1C0Du);
  std::vector<std::uint8_t> data;
  for (int iter = 0; iter < kSmokeInputs; ++iter) {
    fuzz_smoke_input(gen, data);
    LLVMFuzzerTestOneInput(data.data(), data.size());
  }
  std::printf("%s smoke: %d inputs ok\n", argv[0], kSmokeInputs);
  return 0;
}
