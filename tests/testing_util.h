#ifndef ATUNE_TESTS_TESTING_UTIL_H_
#define ATUNE_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "systems/dbms/dbms_system.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/hardware.h"
#include "systems/mapreduce/mr_system.h"
#include "systems/mapreduce/mr_workloads.h"
#include "systems/spark/spark_system.h"
#include "systems/spark/spark_workloads.h"

namespace atune {
namespace testing_util {

/// Small, fast system instances for tests. Noise is disabled so tests are
/// exactly reproducible; noisy behavior is covered by dedicated tests.

inline std::unique_ptr<SimulatedDbms> MakeTestDbms(uint64_t seed = 1,
                                                   bool noise = false) {
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 16384;
  auto dbms = std::make_unique<SimulatedDbms>(ClusterSpec::MakeUniform(1, node),
                                              seed);
  if (!noise) dbms->set_noise_sigma(0.0);
  return dbms;
}

inline std::unique_ptr<SimulatedMapReduce> MakeTestMapReduce(
    uint64_t seed = 1, bool noise = false, size_t nodes = 4) {
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 8192;
  auto mr = std::make_unique<SimulatedMapReduce>(
      ClusterSpec::MakeUniform(nodes, node), seed);
  if (!noise) mr->set_noise_sigma(0.0);
  return mr;
}

inline std::unique_ptr<SimulatedSpark> MakeTestSpark(uint64_t seed = 1,
                                                     bool noise = false,
                                                     size_t nodes = 4) {
  NodeSpec node;
  node.cores = 8;
  node.ram_mb = 16384;
  auto spark = std::make_unique<SimulatedSpark>(
      ClusterSpec::MakeUniform(nodes, node), seed);
  if (!noise) spark->set_noise_sigma(0.0);
  return spark;
}

/// A temp-dir path private to the running test: keyed on its suite, name
/// and pid, so test cases that write "the same" file — or `ctest -j`
/// running them as concurrent processes — never collide. `leaf` tells a
/// test's files apart.
inline std::string TestTempPath(const std::string& leaf) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key =
      info != nullptr
          ? std::string(info->test_suite_name()) + "." + info->name()
          : std::string("no_test");
  for (char& c : key) {
    if (c == '/') c = '_';  // parameterized names carry '/'
  }
  return ::testing::TempDir() + "/" + key + "." +
         std::to_string(::getpid()) + "." + leaf;
}

/// A small OLAP workload that runs fast in tests.
inline Workload SmallOlap() { return MakeDbmsOlapWorkload(0.25); }
inline Workload SmallOltp() { return MakeDbmsOltpWorkload(0.25); }

}  // namespace testing_util
}  // namespace atune

#endif  // ATUNE_TESTS_TESTING_UTIL_H_
