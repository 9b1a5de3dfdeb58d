#include "timing/mct_matrix.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::timing {
namespace {

const proteins::Benchmark& paper_benchmark() {
  static const proteins::Benchmark bench = proteins::generate_benchmark({});
  return bench;
}

const MctMatrix& paper_matrix() {
  static const MctMatrix mct = MctMatrix::from_model(
      paper_benchmark(), CostModel::calibrated(paper_benchmark()));
  return mct;
}

TEST(MctMatrix, RejectsWrongSize) {
  EXPECT_THROW(MctMatrix(3, std::vector<double>(8, 1.0)), hcmd::ConfigError);
}

TEST(MctMatrix, RejectsNonPositiveEntries) {
  EXPECT_THROW(MctMatrix(2, {1.0, 2.0, 0.0, 3.0}), hcmd::ConfigError);
}

TEST(MctMatrix, AtAccessesRowMajor) {
  const MctMatrix m(2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_THROW(m.at(2, 0), std::logic_error);
}

TEST(MctMatrix, Table1Statistics) {
  // Paper Table 1: average 671, std 968, min 6, max 46,347, median 384.
  const util::Summary s = paper_matrix().summary();
  EXPECT_EQ(s.count, 168u * 168u);  // the 28,224 evaluations of Section 4.1
  EXPECT_NEAR(s.mean, 671.0, 0.02 * 671.0);    // calibrated
  EXPECT_NEAR(s.stddev, 968.0, 0.25 * 968.0);  // emergent
  EXPECT_LT(s.min, 60.0);
  EXPECT_GT(s.max, 15'000.0);
  EXPECT_NEAR(s.median, 384.0, 0.25 * 384.0);
}

TEST(MctMatrix, Formula1TotalNear1488Years) {
  // "It needs more than 14 centuries ... 1,488:237:19:45:54 (y:d:h:m:s)".
  const double total =
      paper_matrix().total_reference_seconds(paper_benchmark());
  const double paper = util::parse_ydhms("1488:237:19:45:54");
  EXPECT_NEAR(total, paper, 0.10 * paper);
}

TEST(MctMatrix, TopTenReceptorsDominateLikeThePaper) {
  // "there are 10 proteins which represent 30% of the total processing
  // time" — heavy concentration is the load-bearing property.
  const double share =
      paper_matrix().top_k_receptor_share(paper_benchmark(), 10);
  EXPECT_GT(share, 0.25);
  EXPECT_LT(share, 0.55);
}

TEST(Concentration, PaperWorkloadSkew) {
  // Fig. 7's lag, analytically: finishing the cheapest 85 % of receptors
  // (142 of 168) completes well under 60 % of the computation.
  const double cheapest_85 =
      1.0 - paper_matrix().top_k_receptor_share(paper_benchmark(), 168 - 142);
  EXPECT_LT(cheapest_85, 0.60);
}

TEST(MctMatrix, TopKShareMonotoneInK) {
  const auto& m = paper_matrix();
  double prev = 0.0;
  for (std::size_t k : {1u, 5u, 10u, 50u, 168u}) {
    const double share = m.top_k_receptor_share(paper_benchmark(), k);
    EXPECT_GE(share, prev);
    prev = share;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

TEST(MctMatrix, PerReceptorSumsToTotal) {
  const auto per = paper_matrix().per_receptor_seconds(paper_benchmark());
  const double sum = std::accumulate(per.begin(), per.end(), 0.0);
  EXPECT_NEAR(sum, paper_matrix().total_reference_seconds(paper_benchmark()),
              1e-3);
}

TEST(MctMatrix, FromModelMatchesModelEntries) {
  proteins::BenchmarkSpec spec;
  spec.count = 8;
  spec.target_total_nsep = 0;
  spec.outlier_nsep_target = 0;
  const auto bench = proteins::generate_benchmark(spec);
  const CostModel model = CostModel::calibrated(bench, 100.0);
  const MctMatrix m = MctMatrix::from_model(bench, model);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_DOUBLE_EQ(m.at(i, j),
                       model.mct_entry(bench.proteins[i], bench.proteins[j]));
}

TEST(MctMatrix, AsymmetricEntries) {
  const auto& m = paper_matrix();
  // Find at least one asymmetric pair (docking order matters).
  bool found = false;
  for (std::size_t i = 0; i < 10 && !found; ++i)
    for (std::size_t j = i + 1; j < 10 && !found; ++j)
      if (m.at(i, j) != m.at(j, i)) found = true;
  EXPECT_TRUE(found);
}

TEST(MctMatrix, MinEntryNearPaperMinimum) {
  // Table 1 min is 6 s: the two smallest proteins' couple.
  EXPECT_LT(paper_matrix().summary().min, 30.0);
  EXPECT_GT(paper_matrix().summary().min, 0.5);
}

}  // namespace
}  // namespace hcmd::timing
