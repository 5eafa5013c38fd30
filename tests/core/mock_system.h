#ifndef ATUNE_TESTS_CORE_MOCK_SYSTEM_H_
#define ATUNE_TESTS_CORE_MOCK_SYSTEM_H_

#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "core/system.h"

namespace atune {
namespace testing_util {

/// Deterministic toy system for core/tuner tests: runtime is a quadratic
/// bowl over two knobs with its optimum at (x=0.7, y=0.3) and a floor of
/// `floor_seconds`. Iterative with 4 units. Counts executions.
class QuadraticSystem : public IterativeSystem {
 public:
  explicit QuadraticSystem(double floor_seconds = 10.0)
      : floor_(floor_seconds) {
    Status s = space_.Add(ParameterDef::Double("x", 0.0, 1.0, 0.0));
    s = space_.Add(ParameterDef::Double("y", 0.0, 1.0, 1.0));
    (void)s;
  }

  std::string name() const override { return "quadratic"; }
  const ParameterSpace& space() const override { return space_; }

  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload& workload) override {
    ++executions_;
    return Eval(config, workload, 1.0);
  }

  std::map<std::string, double> Descriptors() const override {
    return {{"total_ram_mb", 1024.0}};
  }
  std::vector<std::string> MetricNames() const override {
    return {"distance"};
  }

  size_t NumUnits(const Workload&) const override { return 4; }
  Result<ExecutionResult> ExecuteUnit(const Configuration& config,
                                      const Workload& workload,
                                      size_t) override {
    ++unit_executions_;
    return Eval(config, workload, 0.25);
  }
  double ReconfigurationCost() const override { return 0.1; }

  size_t executions() const { return executions_; }
  size_t unit_executions() const { return unit_executions_; }

  /// The known-optimal objective value.
  double optimum() const { return floor_; }

 private:
  Result<ExecutionResult> Eval(const Configuration& config,
                               const Workload& workload, double fraction) {
    double x = config.DoubleOr("x", 0.0);
    double y = config.DoubleOr("y", 1.0);
    double d2 = (x - 0.7) * (x - 0.7) + (y - 0.3) * (y - 0.3);
    ExecutionResult r;
    r.runtime_seconds = (floor_ + 100.0 * d2) * fraction * workload.scale;
    r.metrics["distance"] = std::sqrt(d2);
    return r;
  }

  ParameterSpace space_;
  double floor_;
  size_t executions_ = 0;
  size_t unit_executions_ = 0;
};

/// Replays a scripted sequence of ExecutionResults, one per Execute() call
/// (the last result repeats once the script runs dry). Gives robustness
/// tests exact control over failures, transience, and runtimes. Shares
/// QuadraticSystem's two-knob space so real configurations validate.
class ScriptedSystem : public TunableSystem {
 public:
  ScriptedSystem() {
    Status s = space_.Add(ParameterDef::Double("x", 0.0, 1.0, 0.0));
    s = space_.Add(ParameterDef::Double("y", 0.0, 1.0, 1.0));
    (void)s;
  }

  /// Appends a successful run of the given runtime to the script.
  ScriptedSystem& Runs(double runtime_seconds) {
    ExecutionResult r;
    r.runtime_seconds = runtime_seconds;
    script_.push_back(std::move(r));
    return *this;
  }

  /// Appends a failed run; `transient` marks it retryable.
  ScriptedSystem& Fails(double runtime_seconds, bool transient) {
    ExecutionResult r;
    r.runtime_seconds = runtime_seconds;
    r.failed = true;
    r.transient = transient;
    r.failure_reason = transient ? "scripted transient fault"
                                 : "scripted config failure";
    script_.push_back(std::move(r));
    return *this;
  }

  std::string name() const override { return "scripted"; }
  const ParameterSpace& space() const override { return space_; }

  Result<ExecutionResult> Execute(const Configuration&,
                                  const Workload&) override {
    ++executions_;
    if (script_.empty()) {
      ExecutionResult r;
      r.runtime_seconds = 1.0;
      return r;
    }
    ExecutionResult r = script_.front();
    if (script_.size() > 1) script_.pop_front();
    return r;
  }

  size_t executions() const { return executions_; }

 private:
  ParameterSpace space_;
  std::deque<ExecutionResult> script_;
  size_t executions_ = 0;
};

/// Delegates to `inner` but reports a NaN runtime from execution
/// `healthy_runs` + 1 on. One NaN observation makes every later GP hyper
/// search fail (kInternal), so the BO loops take their random-draw
/// fallback until they escalate.
class NanAfterSystem : public TunableSystem {
 public:
  NanAfterSystem(TunableSystem* inner, size_t healthy_runs)
      : inner_(inner), healthy_runs_(healthy_runs) {}

  std::string name() const override { return inner_->name(); }
  const ParameterSpace& space() const override { return inner_->space(); }
  std::vector<std::string> MetricNames() const override {
    return inner_->MetricNames();
  }

  Result<ExecutionResult> Execute(const Configuration& config,
                                  const Workload& workload) override {
    Result<ExecutionResult> r = inner_->Execute(config, workload);
    if (r.ok() && ++executions_ > healthy_runs_) {
      r->runtime_seconds = std::numeric_limits<double>::quiet_NaN();
    }
    return r;
  }

 private:
  TunableSystem* inner_;
  size_t healthy_runs_;
  size_t executions_ = 0;
};

inline Workload MockWorkload() {
  Workload w;
  w.name = "mock";
  w.kind = "mock";
  return w;
}

}  // namespace testing_util
}  // namespace atune

#endif  // ATUNE_TESTS_CORE_MOCK_SYSTEM_H_
