#include "results/storage.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hcmd::results {
namespace {

TEST(Storage, PaperScaleEstimate) {
  // "All these result files represents 123 Gb of text files (45 Gb
  // compressed) and there are 168^2 files."
  const auto bench = proteins::generate_benchmark({});
  const StorageEstimate e = estimate_storage(bench);
  EXPECT_EQ(e.files, 168u * 168u);
  EXPECT_NEAR(e.raw_bytes, 123e9, 0.08 * 123e9);
  EXPECT_NEAR(e.compressed_bytes, 45e9, 0.10 * 45e9);
}

TEST(Storage, LinesMatchCandidateOrientationCount) {
  const auto bench = proteins::generate_benchmark({});
  const StorageEstimate e = estimate_storage(bench);
  EXPECT_EQ(e.total_lines,
            bench.candidate_workunits() *
                static_cast<std::uint64_t>(proteins::kNumRotationCouples));
}

TEST(Storage, RejectsBadModel) {
  const auto bench = proteins::generate_benchmark({});
  StorageModel m;
  m.compression_ratio = 0.0;
  EXPECT_THROW(estimate_storage(bench, m), hcmd::ConfigError);
}

TEST(Storage, FormatGb) {
  EXPECT_EQ(format_gb(123.4e9), "123.4 GB");
}

}  // namespace
}  // namespace hcmd::results
