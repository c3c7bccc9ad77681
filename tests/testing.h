// Shared helpers for SoftCache tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "image/image.h"
#include "minicc/compiler.h"
#include "softcache/mc.h"
#include "vm/machine.h"

namespace sc::testing {

// Seeds per parameter of the seeded suites (the configuration oracle, the
// block-store property, the crash tests): SOFTCACHE_TEST_SEEDS=N runs N,
// default 1. Soaks raise it.
inline int TestSeeds() {
  const char* env = std::getenv("SOFTCACHE_TEST_SEEDS");
  return env == nullptr ? 1 : std::max(1, std::atoi(env));
}

// The byte at guest address `addr` as the solo client's MC session (id 0)
// sees it: its private copy-on-write data pages where faulted, the shared
// store elsewhere.
inline uint8_t McDataByte(softcache::MemoryController& mc, uint32_t addr) {
  uint8_t byte = 0;
  mc.session(0).ReadData(addr, 1, &byte);
  return byte;
}

#ifdef __linux__
// How many pages of [data, data + bytes) are resident (mincore), counting
// the partial pages at either end. Zero-page buffers are resident only
// where something wrote them, so this counts the pages something touched.
inline size_t ResidentPages(const void* data, size_t bytes) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(data) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(data) + bytes;
  std::vector<unsigned char> resident((end - first + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), end - first,
                    resident.data()),
            0);
  size_t touched = 0;
  for (const unsigned char r : resident) touched += r & 1;
  return touched;
}

// How many of `machine`'s guest memory pages are resident. Guest memory is
// lazy zero pages.
inline size_t ResidentGuestPages(vm::Machine& machine) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(machine.mem_data()) % page, 0u);
  return ResidentPages(machine.mem_data(), machine.mem_size());
}
#endif

struct RunOutcome {
  vm::RunResult result;
  std::string output;
};

// Compiles a MiniC program and runs it natively (no software cache).
inline RunOutcome CompileAndRun(std::string_view source, std::string_view input = "",
                                uint64_t max_instructions = 200'000'000) {
  auto img = minicc::CompileMiniC(source);
  if (!img.ok()) {
    ADD_FAILURE() << "compile error: " << img.error().ToString();
    return {};
  }
  vm::Machine machine;
  machine.LoadImage(*img);
  machine.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
  RunOutcome out;
  out.result = machine.Run(max_instructions);
  out.output = machine.OutputString();
  return out;
}

// Compiles, runs, and expects a clean exit with the given code and output.
inline void ExpectProgram(std::string_view source, int expected_exit,
                          std::string_view expected_output = "",
                          std::string_view input = "") {
  const RunOutcome out = CompileAndRun(source, input);
  EXPECT_EQ(out.result.reason, vm::StopReason::kHalted)
      << "fault: " << out.result.fault_message;
  EXPECT_EQ(out.result.exit_code, expected_exit);
  if (!expected_output.empty() || expected_exit == 0) {
    EXPECT_EQ(out.output, expected_output);
  }
}

}  // namespace sc::testing
