#include "docking/maxdo.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "proteins/generator.hpp"
#include "util/error.hpp"

namespace hcmd::docking {
namespace {

using proteins::ReducedProtein;

/// Small proteins + tiny minimiser budget keep the tests fast while still
/// exercising the whole pipeline.
struct Fixture {
  ReducedProtein receptor = proteins::generate_protein(1, 25, 1.0, 21);
  ReducedProtein ligand = proteins::generate_protein(2, 20, 1.1, 22);
  MaxDoParams params;

  Fixture() {
    params.minimizer.max_iterations = 4;
    params.gamma_steps = 2;
    params.positions.spacing = 12.0;  // few starting positions
  }
};

TEST(MaxDo, CompletesTaskAndFillsRecords) {
  Fixture f;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  MaxDoTask task;
  task.isep_begin = 0;
  task.isep_end = 3;
  MaxDoCheckpoint cp;
  EXPECT_EQ(program.run(task, cp), RunStatus::kCompleted);
  EXPECT_EQ(cp.next_isep, 3u);
  EXPECT_EQ(cp.records.size(), 3u * proteins::kNumRotationCouples);
  // Records ordered by (isep, irot).
  for (std::size_t i = 0; i < cp.records.size(); ++i) {
    EXPECT_EQ(cp.records[i].isep, i / proteins::kNumRotationCouples);
    EXPECT_EQ(cp.records[i].irot, i % proteins::kNumRotationCouples);
  }
}

TEST(MaxDo, RecordsCarryFiniteEnergies) {
  Fixture f;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  MaxDoTask task{0, 2, 0, 5};
  MaxDoCheckpoint cp;
  program.run(task, cp);
  for (const auto& r : cp.records) {
    EXPECT_TRUE(std::isfinite(r.elj));
    EXPECT_TRUE(std::isfinite(r.eelec));
    EXPECT_DOUBLE_EQ(r.etot(), r.elj + r.eelec);
  }
}

TEST(MaxDo, ReproducibleAcrossPrograms) {
  Fixture f;
  MaxDoTask task{0, 2, 0, 4};
  MaxDoCheckpoint a, b;
  MaxDoProgram(f.receptor, f.ligand, f.params).run(task, a);
  MaxDoProgram(f.receptor, f.ligand, f.params).run(task, b);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].elj, b.records[i].elj);
    EXPECT_EQ(a.records[i].eelec, b.records[i].eelec);
  }
}

TEST(MaxDo, ReproducibleWork) {
  // Property 1 of Section 4.1: reproducible computing time — the work
  // counter is a pure function of the task.
  Fixture f;
  MaxDoTask task{0, 2, 0, 6};
  MaxDoCheckpoint a, b;
  MaxDoProgram p1(f.receptor, f.ligand, f.params);
  MaxDoProgram p2(f.receptor, f.ligand, f.params);
  p1.run(task, a);
  p2.run(task, b);
  EXPECT_EQ(p1.work().evaluations, p2.work().evaluations);
  EXPECT_EQ(p1.work().pair_terms, p2.work().pair_terms);
}

TEST(MaxDo, InterruptionBetweenPositionsPreservesPrefix) {
  Fixture f;
  MaxDoTask task{0, 4, 0, 3};
  MaxDoCheckpoint cp;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  int positions_done = 0;
  const RunStatus status = program.run(task, cp, [&positions_done] {
    return ++positions_done >= 2;  // interrupt after the 2nd position
  });
  EXPECT_EQ(status, RunStatus::kInterrupted);
  EXPECT_EQ(cp.next_isep, 2u);
  EXPECT_EQ(cp.records.size(), 2u * 3u);
}

TEST(MaxDo, ResumeFromCheckpointMatchesUninterrupted) {
  Fixture f;
  MaxDoTask task{0, 4, 0, 3};

  MaxDoCheckpoint full;
  MaxDoProgram(f.receptor, f.ligand, f.params).run(task, full);

  MaxDoCheckpoint resumed;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  int count = 0;
  program.run(task, resumed, [&count] { return ++count >= 1; });
  ASSERT_LT(resumed.next_isep, 4u);
  EXPECT_EQ(program.run(task, resumed), RunStatus::kCompleted);

  ASSERT_EQ(resumed.records.size(), full.records.size());
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].elj, full.records[i].elj);
    EXPECT_EQ(resumed.records[i].eelec, full.records[i].eelec);
    EXPECT_EQ(resumed.records[i].pose.x, full.records[i].pose.x);
    EXPECT_EQ(resumed.records[i].isep, full.records[i].isep);
  }
}

TEST(MaxDo, CheckpointSerializationRoundTrip) {
  Fixture f;
  MaxDoTask task{0, 2, 0, 4};
  MaxDoCheckpoint cp;
  MaxDoProgram(f.receptor, f.ligand, f.params).run(task, cp);
  std::stringstream ss;
  cp.write(ss);
  const MaxDoCheckpoint restored = MaxDoCheckpoint::read(ss);
  EXPECT_EQ(restored.next_isep, cp.next_isep);
  ASSERT_EQ(restored.records.size(), cp.records.size());
  for (std::size_t i = 0; i < cp.records.size(); ++i) {
    EXPECT_EQ(restored.records[i].isep, cp.records[i].isep);
    EXPECT_EQ(restored.records[i].irot, cp.records[i].irot);
    EXPECT_EQ(restored.records[i].elj, cp.records[i].elj);
  }
}

TEST(MaxDo, CheckpointReadRejectsGarbage) {
  std::stringstream ss("bogus");
  EXPECT_THROW(MaxDoCheckpoint::read(ss), hcmd::ParseError);
  std::stringstream v2("maxdo-checkpoint 9 0 0\n");
  EXPECT_THROW(MaxDoCheckpoint::read(v2), hcmd::ParseError);
}

TEST(MaxDo, CheckpointReadRejectsHugeRecordCount) {
  // The header's record count is untrusted input: one record under a
  // count of 10^15 is a truncated stream, not a request to allocate
  // 10^15 records before reading the first.
  std::stringstream ss(
      "maxdo-checkpoint 1 0 1000000000000000\n"
      "0 0 1 2 3 0.1 0.2 0.3 -1.5 -0.25\n");
  EXPECT_THROW(MaxDoCheckpoint::read(ss), hcmd::ParseError);
}

TEST(MaxDo, RejectsOutOfRangeTask) {
  Fixture f;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  MaxDoCheckpoint cp;
  MaxDoTask bad;
  bad.isep_begin = 0;
  bad.isep_end = program.nsep() + 1;
  EXPECT_THROW(program.run(bad, cp), hcmd::ConfigError);
  MaxDoTask bad_rot{0, 1, 0, 22};
  EXPECT_THROW(program.run(bad_rot, cp), hcmd::ConfigError);
}

TEST(MaxDo, RejectsResumePastTaskEnd) {
  // A checkpoint from a longer task resumed under a shorter one: reporting
  // kCompleted would hand back a result without the task's positions.
  Fixture f;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  const MaxDoTask task{0, 2, 0, 3};
  MaxDoCheckpoint cp;
  cp.next_isep = task.isep_end + 1;
  EXPECT_THROW(program.run(task, cp), hcmd::ConfigError);
  EXPECT_EQ(cp.next_isep, task.isep_end + 1);
  EXPECT_TRUE(cp.records.empty());

  // Resuming exactly at the end is a finished task, not an error.
  cp.next_isep = task.isep_end;
  EXPECT_EQ(program.run(task, cp), RunStatus::kCompleted);
  EXPECT_TRUE(cp.records.empty());
}

TEST(MaxDo, GammaRefinementPicksBest) {
  // With more gamma starts the per-(isep, irot) best can only improve.
  Fixture f;
  MaxDoTask task{0, 1, 0, 4};
  MaxDoCheckpoint one_gamma, two_gamma;
  MaxDoParams p1 = f.params;
  p1.gamma_steps = 1;
  MaxDoParams p2 = f.params;
  p2.gamma_steps = 2;
  MaxDoProgram(f.receptor, f.ligand, p1).run(task, one_gamma);
  MaxDoProgram(f.receptor, f.ligand, p2).run(task, two_gamma);
  ASSERT_EQ(one_gamma.records.size(), two_gamma.records.size());
  for (std::size_t i = 0; i < one_gamma.records.size(); ++i)
    EXPECT_LE(two_gamma.records[i].etot(), one_gamma.records[i].etot() + 1e-9);
}

TEST(MaxDo, NsepMatchesStartingPositions) {
  Fixture f;
  MaxDoProgram program(f.receptor, f.ligand, f.params);
  EXPECT_EQ(program.nsep(),
            proteins::nsep_for(f.receptor, f.params.positions));
}

}  // namespace
}  // namespace hcmd::docking
