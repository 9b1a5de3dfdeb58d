// Counts global operator new calls for the allocation-guard tests.
//
// alloc_counter.cpp replaces the global allocation functions, so it counts
// every allocation in the process, including the ones gtest itself makes
// outside the measured windows. A test that links it therefore lives in a
// binary of its own and measures inside an AllocationWindow.
#pragma once

#include <cstdint>

namespace hcmd::test {

/// Global operator new calls since the process started.
std::uint64_t allocation_count();

/// The allocations made since its construction.
struct AllocationWindow {
  std::uint64_t start = allocation_count();
  std::uint64_t count() const { return allocation_count() - start; }
};

}  // namespace hcmd::test
